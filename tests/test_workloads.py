"""Every perfbench workload, built at seed 1 and each op run once, untimed:
its op checks and its run check pass, as the benchmark's runs require."""

import sys
from pathlib import Path

import pytest

_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, _PERFBENCH)  # workloads imports oracles by its bare name
try:
    import workloads
finally:
    sys.path.remove(_PERFBENCH)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_checks_pass_at_seed_1(tmp_path, name):
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    results = [op.run() for op in workload.ops]
    failed = {op.name: op.check(r) for op, r in zip(workload.ops, results)}
    assert {k: v for k, v in failed.items() if v is not None} == {}
    assert workload.check_all(results) is None
