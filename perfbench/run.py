"""isac-thz benchmark: run one workload once and print one JSON result line.

    python3 perfbench/run.py --workload tables_cold --seed 1 --seconds 10 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else.  With ``--trace 0`` the result holds the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` the same
passes run untraced and then traced, and the result holds the per-layer
metrics.  A pass is never cut short, so a run measures at least
``--seconds`` seconds.  A record of the run (provenance, inputs, per-call
times, check notes and, when traced, every span) is written to
``.perfbench_out/`` at the checkout root.

The exit status is 0 when a result was printed; its ``correct`` field says
whether every output passed its check.  Any other status means no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("ISAC_THZ_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_REPEATS = 9
WORKLOAD_NAMES = ("tables_cold", "inversion_warm", "mc_oracle")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke-test sizes")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_isacthz():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "isacthz" / "__init__.py").is_file():
        raise SystemExit(f"error: no isacthz package under {SRC}")
    sys.path.insert(0, str(SRC))
    import isacthz
    where = Path(isacthz.__file__).resolve().parent
    if where != (SRC / "isacthz").resolve():
        raise SystemExit(f"error: isacthz imported from {where}, not {SRC}")


def interval(fn) -> tuple:
    """(start, end) of one call of fn, on the perf_counter clock."""
    t0 = time.perf_counter()
    fn()
    return t0, time.perf_counter()


def reimport_package():
    """Import the package again in this process, as a cold start would.

    numpy and scipy stay loaded: the package cannot change their cost, and a
    child interpreter would run where the speed sampler cannot see it."""
    def ours(name):
        return name == "isacthz" or name.startswith("isacthz.")

    loaded = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in loaded:
        del sys.modules[name]
    try:
        importlib.import_module("isacthz.cli")
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(loaded)


def timed_passes(wl, seconds=None, count=None, tracer=None):
    """Whole passes until `seconds` have gone by (at least one), or exactly
    `count` passes; returns (passes, wall seconds)."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(wl.run_pass(tracer))
        elapsed = time.perf_counter() - t0
        if (len(passes) >= count) if count else (elapsed >= seconds):
            return passes, elapsed


def check_passes(wl, passes):
    attempted = failed = 0
    notes = []
    for p in passes:
        a, f, n = wl.check(p.outputs)
        attempted, failed, notes = attempted + a, failed + f, notes + n
    return attempted, failed, notes


def summarize(length, imports, preps, passes) -> dict:
    """End-to-end metrics, with `length(t0, t1)` giving an interval's
    seconds.  Each pass yields its own throughput and latency quantiles and
    the run reports their medians, so that the number of passes that fit in
    a run does not change what a quantile means."""
    per_pass = []
    for p in passes:
        calls_ms = [1e3 * length(t0, t1) for _, t0, t1 in p.calls]
        q = statistics.quantiles(calls_ms, n=100, method="inclusive")
        per_pass.append((1e3 * p.work / sum(calls_ms), q[49], q[94]))
    ops, p50, p95 = (statistics.median(col) for col in zip(*per_pass))
    return {
        "setup_s": (statistics.median(length(*iv) for iv in imports)
                    + statistics.median(length(*iv) for iv in preps)),
        "ops_per_s": ops,
        "call_p50_ms": p50,
        "call_p95_ms": p95,
    }


def end_to_end(wl, seconds):
    import speed

    with speed.SpeedSampler(wl.speed_kernel) as sampler:
        imports = [interval(reimport_package) for _ in range(IMPORT_REPEATS)]
        preps = [interval(wl.setup) for _ in range(SETUP_REPEATS)]
        passes, wall = timed_passes(wl, seconds=seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = summarize(sampler.scaled, imports, preps, passes)
    metrics["peak_rss_mb"] = rss_mb
    record = {
        "passes": len(passes),
        "wall_s": wall,
        "wall_metrics": summarize(lambda t0, t1: t1 - t0, imports, preps,
                                  passes),
        "speed_samples": len(sampler.durations),
        "mean_sample_ms": 1e3 * statistics.fmean(sampler.durations),
        "calls": [[(name, t1 - t0) for name, t0, t1 in p.calls]
                  for p in passes],
    }
    return metrics, passes, record


def per_layer(wl, seconds):
    import spans

    wl.setup()
    plain, wall_plain = timed_passes(wl, seconds=seconds)
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        with tracer.span("setup"):
            t0 = time.perf_counter()
            wl.setup()
            setup_s = time.perf_counter() - t0
        traced, wall_traced = timed_passes(wl, count=len(plain), tracer=tracer)

    agg = tracer.aggregate()
    calls = {name: a[0] for name, a in agg.items()}
    total = {name: a[1] for name, a in agg.items()}
    self_s = {name: a[2] for name, a in agg.items()}
    n = tracer.counts
    builds = n["coverage.field.builds"]
    metrics = {
        "specfun.errors": n["specfun.errors"],
        "coverage.field.builds": builds,
        "coverage.field.cells_per_build":
            calls.get("coverage.point", 0) / builds if builds else 0.0,
        "misalignment.timeout.calls": calls.get("misalignment.timeout", 0),
        "misalignment.timeout.misses": n["misalignment.timeout.misses"],
        "misalignment.timeout.s": total.get("misalignment.timeout", 0.0),
        "trace.overhead_frac": (wall_traced - wall_plain) / wall_plain,
        "trace.setup_s": setup_s,
        "trace.body_s": wall_traced,
        "trace.spans": len(tracer.names),
    }
    for layer, unit in (("specfun.semi_infinite", "panels"),
                        ("specfun.interval", "panels"),
                        ("specfun.oscillatory", "evals")):
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.{unit}"] = n[f"{layer}.{unit}"]
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer in ("coverage.field.exact", "coverage.field.parts",
                  "coverage.point"):
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}.total_s"] = total.get(layer, 0.0)
    for role in ("blockage", "timeout", "misalignment", "coverage_urban",
                 "coverage_open"):
        name = f"mcsim.{role}"
        secs = total.get(name, 0.0)
        metrics[f"{name}.s"] = secs
        metrics[f"{name}.trials_per_s"] = (
            n[f"{name}.trials"] / secs if secs else 0.0)
        metrics[f"{name}.peak_alloc_mb"] = tracer.peaks.get(name, 0) / 2 ** 20
    for table in ("misalign_nb", "misalign_nrs", "coverage_theorem",
                  "coverage_derivation"):
        metrics[f"cli.{table}.s"] = total.get(f"cli.{table}", 0.0)

    # the traced run must not change a single output
    passes = plain + traced
    mismatched = [i for i, (a, b) in enumerate(zip(plain, traced))
                  if a.outputs != b.outputs]
    record = {"passes": len(plain), "untraced_wall_s": wall_plain,
              "traced_wall_s": wall_traced, "mismatched_passes": mismatched,
              "spans": tracer.dump()}
    return metrics, passes, record


def git_sha():
    """Commit of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "isacthz").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def provenance(args, wl) -> dict:
    import numpy
    import scipy
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": wl.sizes,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # before numpy loads, so that its BLAS starts single-threaded
    os.environ.update({var: "1" for var in THREAD_VARS})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_isacthz()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny")
    prov = provenance(args, wl)
    if args.trace:
        values, passes, record = per_layer(wl, args.seconds)
        wanted = spec["per_layer"]
    else:
        values, passes, record = end_to_end(wl, args.seconds)
        wanted = spec["end_to_end"]
    attempted, failed, notes = check_passes(wl, passes)
    if args.trace and record["mismatched_passes"]:
        # every operation of a traced pass that differs counts as failed
        per_pass = attempted // len(passes)
        failed = min(attempted,
                     failed + per_pass * len(record["mismatched_passes"]))
        notes.append(f"traced outputs differ in passes "
                     f"{record['mismatched_passes']}")
    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(f"error: metrics {sorted(values)} do not match "
                         f"BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"provenance": prov, "result": result,
                                "notes": notes, **record}))
    print(json.dumps({"provenance": prov, "record": str(path.relative_to(ROOT)),
                      "notes": notes[:20]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
