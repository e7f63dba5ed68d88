"""
Declarative experiments: configs, reports, and traces
=====================================================

Everything the library does can be driven from a JSON config through the
command-line entry point (installed as `oseledets`), or programmatically
through the same runner.  A run validates its config, executes the task,
writes report.json plus CSV traces, and returns the report.
"""

import json
import tempfile
from pathlib import Path

from oseledets.cli import ExperimentConfig, list_presets, main, run

# The built-in catalogue: each preset is a complete, validated config.
print("presets:")
for name, entry in sorted(list_presets().items()):
    print(f"  {name:24s} {entry['description']}")

# A config is a plain dict: driver + generator + analysis.  Rational
# parameters can be written as "num/den" strings to stay exact.
config = {
    "seed": 0,
    "driver": {"kind": "finite_cycle", "period": 1},
    "generator": {"kind": "ulam", "n_bins": 32,
                  "maps": [{"kind": "affine_full_branch",
                            "breakpoints": ["0", "1/3", "1"]}]},
    "analysis": {"task": "spectrum", "n": 200, "norm": "l1"},
}

out = Path(tempfile.mkdtemp()) / "demo_run"
report = run(ExperimentConfig(config), out)
print("\nrun passed      :", report["passed"])
for check in report["checks"]:
    print(f"  check {check['name']}: value={check['value']:.3e} "
          f"(tol {check['tolerance']})")
print("files written   :", sorted(p.name for p in out.iterdir()))

# The same run through the command line; exit code 0 means every check
# passed, 1 means a check failed, 2 means the config was rejected or a
# stage raised.
cfg_path = out / "config.json"
cfg_path.write_text(json.dumps(config))
code = main(["spectrum", "--config", str(cfg_path), "--seed", "5",
             "--out", str(out / "cli")])
print("exit code       :", code)

# Reports echo the effective config, so the seed override is visible.
report2 = json.loads((out / "cli" / "report.json").read_text())
print("echoed seed     :", report2["config"]["seed"])
