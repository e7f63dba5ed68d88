"""Spans and counters recorded around the package's public functions.

``Tracer.install`` replaces every public function of the traced modules,
``CocycleGenerator.matrix_at`` and the numpy/scipy kernels the package
calls with timing wrappers.  A function is replaced wherever a caller looks
it up: in its own module, in every package module that imported it by
name, and in the package namespace; a kernel is replaced on the numpy or
scipy module object the package reaches it through.  ``uninstall`` puts
the originals back, so untraced rounds run the package unchanged.

Each span records its name, start, end and parent span.  Spans stay in
memory until the run ends; self time is a span's duration minus the time
its child spans cover.
"""

import functools
import gzip
import inspect
import json
import sys
import time
import types
from array import array
from collections import defaultdict

LAYERS = ("base", "transfer", "cocycle", "spectrum", "splitting", "grassmann")


def _qr_gflop(args, kwargs, result):
    """LAPACK geqrf + orgqr operation count of a reduced QR, in GFLOP."""
    shape = getattr(args[0] if args else kwargs.get("a"), "shape", ())
    if len(shape) != 2:
        return 0.0
    m, n = shape
    k = min(m, n)
    return (2.0 * max(m, n) * k * k + 2.0 * m * k * k
            - 4.0 * k ** 3 / 3.0) * 1e-9


def _steps(fn):
    """Reads the ``n`` argument of a call to ``fn``."""
    sig = inspect.signature(fn)
    return lambda args, kwargs, result: sig.bind(*args, **kwargs).arguments["n"]


def _stop_depth(args, kwargs, result):
    return max(rep.stopping_n for rep in result.convergence)


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        self.names = []
        self._index = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.extra = defaultdict(float)   # argument- or result-derived sums
        self._patched = []                # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _name_id(self, name):
        i = self._index.get(name)
        if i is None:
            i = self._index[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name):
        i = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i):
        self.span_end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, counter=None):
        """Timing wrapper.  ``counter`` is a (key, work) pair: after each
        call ``work(args, kwargs, result)`` is added to ``extra[key]``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
                if counter is not None:
                    key, work = counter
                    tracer.extra[key] += work(args, kwargs, out)
                return out
            finally:
                tracer._close(i)
        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import numpy as np
        import scipy.optimize

        import oseledets
        from oseledets import cocycle, spectrum, splitting

        modules = [sys.modules[f"oseledets.{m}"] for m in LAYERS]
        namespaces = [oseledets] + [m for key, m in sys.modules.items()
                                    if key.startswith("oseledets.")]
        counters = {
            spectrum.filtration_at: ("spectrum.filtration_at_steps",
                                     _steps(spectrum.filtration_at)),
            splitting.pushforward_space: ("splitting.pushforward_steps",
                                          _steps(splitting.pushforward_space)),
            splitting.compute_splitting: ("splitting.depths", _stop_depth),
        }
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr in mod.__all__:
                fn = getattr(mod, attr, None)
                if not isinstance(fn, types.FunctionType) or \
                        fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(fn, f"{layer}.{attr}", counters.get(fn))
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, name, wrapper)
        self._set(cocycle.CocycleGenerator, "matrix_at",
                  self.wrap(cocycle.CocycleGenerator.matrix_at,
                            "cocycle.matrix_at"))
        self._set(np.linalg, "qr", self.wrap(
            np.linalg.qr, "linalg.qr", ("linalg.qr_gflop_computed", _qr_gflop)))
        self._set(np.linalg, "svd", self.wrap(np.linalg.svd, "linalg.svd"))
        self._set(scipy.optimize, "linprog",
                  self.wrap(scipy.optimize.linprog, "grassmann.linprog"))
        self._set(scipy.optimize, "minimize",
                  self.wrap(scipy.optimize.minimize, "grassmann.minimize"))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------

    def mark(self):
        """Position for ``summary``: the span count and the counters."""
        return len(self.span_start), dict(self.extra)

    def summary(self, since, until):
        """Per-name calls, total and self time of the spans recorded
        between two marks, and the counters' growth between them."""
        (first, extra0), (last, extra1) = since, until
        spans = {}
        child = defaultdict(float)
        for i in range(last - 1, first - 1, -1):
            dur = self.span_end[i] - self.span_start[i]
            row = spans.setdefault(self.names[self.span_name[i]],
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child.pop(i, 0.0)
            p = self.span_parent[i]
            if p >= first:
                child[p] += dur
        extra = {k: v - extra0.get(k, 0.0) for k, v in extra1.items()}
        return spans, extra

    def write(self, path, meta):
        """Spans as gzip JSON lines: one header line, then one per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(meta, names=self.names)) + "\n")
            for i in range(len(self.span_start)):
                fh.write(json.dumps([i, self.span_name[i], self.span_parent[i],
                                     self.span_start[i], self.span_end[i]])
                         + "\n")
