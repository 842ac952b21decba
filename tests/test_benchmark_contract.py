"""The library as the benchmark uses it: each workload of `perfbench/`,
at its tiny size and the default seed, passes its own checks, and the
traced run sees the layers it names.  A change that breaks a flag,
import, signature or reference value the benchmark relies on fails here,
in the tier-1 suite."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_passes_its_checks(name):
    workload = workloads.WORKLOADS[name](seed=0, tiny=True)
    workload.setup()
    attempted, failed, notes = workload.check(workload.run_pass().outputs)
    assert attempted >= 1
    assert failed == 0, notes


def test_traced_inversion_pass_matches_untraced():
    # the tracer wraps integrate_oscillatory's positional arguments as
    # one-argument integrands and ShotNoiseField.parts on the class: a
    # kernel that passes its spec positionally, or looks the field up
    # around parts(), fails here
    workload = workloads.WORKLOADS["inversion_warm"](seed=0, tiny=True)
    workload.setup()
    plain = workload.run_pass().outputs
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        traced = workload.run_pass(tracer).outputs
    assert traced == plain
    calls = {name: agg[0] for name, agg in tracer.aggregate().items()}
    assert calls.get("coverage.field.parts", 0) > 0
    assert calls.get("specfun.oscillatory", 0) > 0
    assert tracer.counts["specfun.oscillatory.evals"] > 0
