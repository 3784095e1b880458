"""The traced benchmark wraps tailforge functions by name; every name must resolve."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Mirrors perfbench/child.py: import only the package, then look each traced
# name up in the tailforge modules that import loaded.
_PROBE = """
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
import tailforge
from tailforge.tailcurve import TailCurve
spec = importlib.util.spec_from_file_location("tracer", sys.argv[2])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
modules = [m for k, m in sys.modules.items() if k == "tailforge" or k.startswith("tailforge.")]
missing = []
for name in tracer.LAYERS:
    if name in ("log_tail", "quantile"):
        found = callable(getattr(TailCurve, name, None))
    else:
        found = any(callable(vars(m).get(name)) for m in modules)
    if not found:
        missing.append(name)
print(json.dumps(missing))
"""


def test_every_traced_name_resolves():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "src"), str(ROOT / "perfbench" / "tracer.py")],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(proc.stdout) == []
