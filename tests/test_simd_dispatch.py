"""The five experiments and the console pins under numpy's lower SIMD
dispatch levels.

numpy picks its ``exp``/``log`` kernels at import, by CPU feature, and they
round differently, so digests of float arrays hold on one dispatch level
only.  ``NPY_DISABLE_CPU_FEATURES`` turns the AVX2 and AVX-512 kernels off
for one process: here a child's, so that nothing else sees it.  The child
runs the pin table of ``test_cli_pins.py`` and every experiment, and reports
the table's exit status, each summary's verdict, and the digest of one
sample, which must differ from this process's for the setting to have acted.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import tailforge as tf

DISABLED = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
PINS = pathlib.Path(__file__).with_name("test_cli_pins.py")

CHILD = """
import hashlib, json, pathlib, sys
import pytest
import tailforge as tf
out = pathlib.Path(sys.argv[1])
pins = pytest.main(["-q", "-p", "no:cacheprovider", "--basetemp", str(out / "pins"), sys.argv[2]])
passed = {}
for exp_id in tf.EXPERIMENT_IDS:
    tf.run_experiment(exp_id, out / exp_id)
    passed[exp_id] = json.loads((out / exp_id / "summary.json").read_text())["passed"]
digest = hashlib.sha256(tf.sample(tf.pareto(3.0), 3, 50_000).tobytes()).hexdigest()
print(json.dumps({"pins": int(pins), "passed": passed, "digest": digest}))
"""


def _dispatched() -> list[str]:
    """The features of ``DISABLED`` that this process's numpy runs on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__

    return [f for f in DISABLED.split() if __cpu_features__.get(f)]


def test_experiments_and_pins_pass_without_avx2_and_avx512_kernels(tmp_path):
    if not _dispatched():
        pytest.skip(f"this host's numpy dispatches none of {DISABLED}")
    src = str(pathlib.Path(tf.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": DISABLED,
        "PYTHONPATH": src + os.pathsep + path if path else src,
    }
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), str(PINS)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if child.returncode and "cannot disable CPU features" in child.stderr:
        pytest.skip(f"the child's numpy refuses the setting: {child.stderr.splitlines()[-1]}")
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout.splitlines()[-1])
    assert got["pins"] == 0, child.stdout
    assert got["passed"] == {exp_id: True for exp_id in tf.EXPERIMENT_IDS}
    here = hashlib.sha256(tf.sample(tf.pareto(3.0), 3, 50_000).tobytes()).hexdigest()
    assert got["digest"] != here, "the child ran the same kernels: the setting did not act"
