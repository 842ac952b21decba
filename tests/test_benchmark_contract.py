"""The library as the benchmark uses it: each workload of `perfbench/`,
at its tiny size and the default seed, passes its own checks.  A change
that breaks a flag, import, signature or reference value the benchmark
relies on fails here, in the tier-1 suite."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_passes_its_checks(name):
    workload = workloads.WORKLOADS[name](seed=0, tiny=True)
    workload.setup()
    attempted, failed, notes = workload.check(workload.run_pass().outputs)
    assert attempted >= 1
    assert failed == 0, notes
