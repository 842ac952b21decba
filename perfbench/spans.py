"""In-memory span tracer for the traced benchmark run.

A span is one call into a layer: its name, start, end and the span that was
open when it began (its parent).  Spans live in flat lists while the run
goes on and are written out once, at the end.  ``instrumented`` rebinds the
public functions of each isacthz layer at the names their callers look up,
so the library itself is not edited; leaving the block restores them.

Self time is a span's duration minus the durations of its direct children.
The process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from collections import Counter, defaultdict

from isacthz import coverage, misalignment
from isacthz.specfun import QuadratureError


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self._open = [-1]

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.ends.append(0.0)
        self._open.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    @contextlib.contextmanager
    def alloc_span(self, name: str):
        """Span that also records the tracemalloc peak of its body."""
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            with self.span(name):
                yield
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peaks[name] = max(self.peaks.get(name, 0), peak)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)
        return traced

    def aggregate(self) -> dict:
        """name -> (calls, total seconds, self seconds)."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            agg = out[self.names[i]]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def dump(self) -> dict:
        """Columnar span table, times relative to the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        names = sorted(set(self.names))
        index = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "name": [index[x] for x in self.names],
            "parent": self.parents,
            "start_s": [t - t0 for t in self.starts],
            "end_s": [t - t0 for t in self.ends],
        }


def _quadrature(tracer: Tracer, name: str, fn, n_integrands: int, unit: str):
    """Wrap a quadrature routine and count the calls of the integrands passed
    in as ``<name>.<unit>``; the interval rules call theirs once per GK15
    panel."""
    counter = f"{name}.{unit}"

    def count(f):
        def counted(x):
            tracer.counts[counter] += 1
            return f(x)
        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        args = [count(a) for a in args[:n_integrands]] + list(args[n_integrands:])
        sid = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        except QuadratureError as exc:
            if not getattr(exc, "_perfbench_counted", False):
                exc._perfbench_counted = True
                tracer.counts["specfun.errors"] += 1
            raise
        finally:
            tracer.end(sid)
    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route the layer entry points through ``tracer`` inside the block.

    Names a later version of the library no longer has are skipped, and
    their metrics read zero.
    """
    saved = []

    def patch(owner, attr, make):
        if hasattr(owner, attr):
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, make(orig))

    def parts(orig):
        traced = tracer.wrap("coverage.field.parts", orig)

        @functools.wraps(orig)
        def counted(self, s):
            # the first parts() call on a field builds its tables
            if getattr(self, "_tables", False) is None:
                tracer.counts["coverage.field.builds"] += 1
            return traced(self, s)
        return counted

    def timeout(orig):
        traced = tracer.wrap("misalignment.timeout", orig)
        info = getattr(orig, "cache_info", None)

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            # clearing the cache resets its statistics, so take the
            # difference around each call
            before = info().misses if info else 0
            try:
                return traced(*args, **kwargs)
            finally:
                tracer.counts["misalignment.timeout.misses"] += (
                    info().misses - before if info else 1)
        return counted

    for module in (coverage, misalignment):
        patch(module, "integrate_semi_infinite",
              lambda f: _quadrature(tracer, "specfun.semi_infinite", f, 1,
                                    "panels"))
    patch(coverage, "integrate_interval",
          lambda f: _quadrature(tracer, "specfun.interval", f, 1, "panels"))
    patch(coverage, "integrate_oscillatory",
          lambda f: _quadrature(tracer, "specfun.oscillatory", f, 3, "evals"))
    field = getattr(coverage, "ShotNoiseField", None)
    if field is not None:
        patch(field, "exact", lambda f: tracer.wrap("coverage.field.exact", f))
        patch(field, "parts", parts)
    patch(coverage, "coverage_probability",
          lambda f: tracer.wrap("coverage.point", f))
    patch(misalignment, "timeout_probability", timeout)
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
