"""The benchmark's workloads: inputs made from the seed, one timed pass, and
the correctness checks on what a pass returns.

  tables_cold     the paper tables through ``isacthz.cli.main``, caches cold
  inversion_warm  single coverage cells against one prebuilt shot-noise field
  mc_oracle       the Monte-Carlo estimators at the acceptance operating point

Every workload offers ``setup()`` (the work a user pays before the first
result), ``run_pass(tracer)`` (one timed pass, returning a ``Pass``) and
``check(outputs)`` (returning attempted operations, failed operations and
notes), and names the ``speed_kernel`` that resembles its work.  The layers are reached only through their public functions, looked
up on their modules at call time so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

from isacthz import cli, coverage, mcsim, misalignment
from isacthz.channel import LinkBudget
from isacthz.config import load_config
from isacthz.schemes import scheme_ability
from isacthz.sensing import SCHEMES

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Absolute tolerances against the reference recorded at the default seed.
# The CLI prints six significant digits, so a table value can move by one
# printed step (1e-6) without any change in the numerics.
MISALIGNMENT_TOL = 2e-6
COVERAGE_TOL = 1e-5
# Allowed increase of p_cvp from one threshold to the next higher one: the
# inversion's own error estimate is about 2e-7, plus one printed step.
MONOTONE_TOL = 2e-6

# The lru_cache object itself; the traced run rebinds the module name.
_TIMEOUT = misalignment.timeout_probability


def clear_caches() -> None:
    """Empty the library's caches: tabulated shot-noise fields and the
    timeout probability."""
    coverage.clear_field_cache()
    cache_clear = getattr(_TIMEOUT, "cache_clear", None)
    if cache_clear is not None:
        cache_clear()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


@dataclass
class Pass:
    """What one timed pass produced."""

    outputs: object  # compared between the untraced and the traced run
    calls: list      # (name, start, end) of each timed call, perf_counter
    work: int        # table cells, or Monte-Carlo trials


@dataclass(frozen=True)
class Scene:
    system: object
    deploy: object
    budget: LinkBudget
    jsrs: object

    @classmethod
    def default(cls) -> "Scene":
        system, deploy = load_config(None)
        return cls(system, deploy, LinkBudget.from_params(system, deploy),
                   scheme_ability("jsrs", system, deploy))


def _traced(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def monotone_violations(points) -> set:
    """Ids whose p_cvp rises above that of the next lower threshold.

    points: (threshold, p_cvp, id) of one curve."""
    bad = set()
    ordered = sorted(points)
    for (_, p_prev, _), (_, p, ident) in zip(ordered, ordered[1:]):
        if p > p_prev + MONOTONE_TOL:
            bad.add(ident)
    return bad


def _jitter(seed: int, r1_m, threshold_db, r1_spread: float,
            db_spread: float):
    """Seeded (r1, threshold) points near a base grid; the default seed
    keeps the base grid.  The spreads are small so that the work per pass
    stays close to that of the base grid for every seed."""
    if seed == DEFAULT_SEED:
        return list(r1_m), list(threshold_db)
    rng = random.Random(seed)
    r1 = [r * math.exp(rng.uniform(-r1_spread, r1_spread)) for r in r1_m]
    offset = rng.uniform(-db_spread, db_spread)
    return r1, [d + offset for d in threshold_db]


# -----------------------------------------------------------------------------
# tables_cold
# -----------------------------------------------------------------------------

MISALIGNMENT_COLUMNS = ("p_err", "p_to", "p_ms")
COVERAGE_COLUMNS = ("p_ms", "p_cm", "p_cvp")


def table_key(table: str, row: dict) -> str:
    if table.startswith("misalign"):
        return "|".join((row["value"], row["scheme"]))
    return "|".join((row["scheme"], row["r1_m"], row["threshold_db"]))


def check_table(table: str, rows: list, reference: dict | None) -> set:
    """Indices of the rows of one CLI table that fail a check."""
    columns = (MISALIGNMENT_COLUMNS if table.startswith("misalign")
               else COVERAGE_COLUMNS)
    tol = MISALIGNMENT_TOL if table.startswith("misalign") else COVERAGE_TOL
    bad = set()
    curves = defaultdict(list)
    for i, row in enumerate(rows):
        try:
            values = [float(row[c]) for c in columns]
        except (KeyError, TypeError, ValueError):
            bad.add(i)
            continue
        if not all(0.0 <= v <= 1.0 for v in values):
            bad.add(i)
        if reference is not None:
            want = reference.get(table_key(table, row))
            if want is None or any(abs(v - w) > tol
                                   for v, w in zip(values, want)):
                bad.add(i)
        if table.startswith("coverage"):
            curves[(row["scheme"], row["r1_m"])].append(
                (float(row["threshold_db"]), values[-1], i))
    for points in curves.values():
        bad |= monotone_violations(points)
    return bad


def parse_table(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


class TablesCold:
    """The paper-table path: four CLI commands, each pass starting cold."""

    name = "tables_cold"
    speed_kernel = "python"

    def __init__(self, seed: int, tiny: bool):
        defaults = cli.build_parser().parse_args(["coverage"])
        r1, db = _jitter(seed, defaults.r1_grid, defaults.threshold_db_grid,
                         0.05, 0.5)
        schemes = list(SCHEMES)
        if tiny:
            r1, db, schemes = r1[1:2], db[:2], ["perfect"]
        grid = ["--r1-grid", *map(repr, r1), "--threshold-db-grid",
                *map(repr, db), "--schemes", *schemes]
        self.commands = {
            "misalign_nb": ["misalign", "--sweep", "n_b", "--schemes", *schemes],
            "misalign_nrs": ["misalign", "--sweep", "n_rs", "--schemes", *schemes],
            "coverage_theorem": ["coverage", *grid],
            "coverage_derivation": ["coverage", *grid, "--lower-bound",
                                    "derivation"],
        }
        cells = len(schemes) * len(r1) * len(db)
        self.expected_rows = {
            "misalign_nb": len(cli.NB_SWEEP) * len(schemes),
            "misalign_nrs": len(cli.NRS_SWEEP) * len(schemes),
            "coverage_theorem": cells,
            "coverage_derivation": cells,
        }
        self.use_reference = seed == DEFAULT_SEED
        self.sizes = {"r1_m": r1, "threshold_db": db, "schemes": schemes,
                      "cells_per_pass": sum(self.expected_rows.values()),
                      "commands": self.commands}

    def setup(self) -> None:
        clear_caches()

    def run_pass(self, tracer=None) -> Pass:
        clear_caches()
        outputs, calls = {}, []
        for table, argv in self.commands.items():
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with _traced(tracer, "cli." + table), \
                        contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception as exc:  # one failed table; the pass goes on
                code = _failure(exc)
            calls.append((table, t0, time.perf_counter()))
            outputs[table] = (code, buf.getvalue())
        return Pass(outputs, calls, sum(self.expected_rows.values()))

    def check(self, outputs) -> tuple:
        reference = (load_reference()["tables_cold"] if self.use_reference
                     else None)
        attempted = failed = 0
        notes = []
        for table, expected in self.expected_rows.items():
            attempted += expected
            code, text = outputs[table]
            rows = parse_table(text) if code == 0 else []
            if len(rows) != expected:
                failed += expected
                notes.append(f"{table}: exit {code}, {len(rows)} of "
                             f"{expected} rows")
                continue
            ref = None if reference is None else reference[table]
            bad = check_table(table, rows, ref)
            failed += len(bad)
            notes += [f"{table}: row {i} failed {rows[i]}" for i in sorted(bad)]
        return attempted, failed, notes


# -----------------------------------------------------------------------------
# inversion_warm
# -----------------------------------------------------------------------------

INVERSION_R1_M = tuple(5.0 + 3.0 * i for i in range(12))          # 5..38 m
INVERSION_THRESHOLD_DB = tuple(float(d) for d in range(-5, 16))   # -5..15 dB


class InversionWarm:
    """Single jsrs theorem-mode coverage cells; the one shot-noise field
    they share is built in set-up."""

    name = "inversion_warm"
    speed_kernel = "python"

    def __init__(self, seed: int, tiny: bool):
        r1, db = _jitter(seed, INVERSION_R1_M, INVERSION_THRESHOLD_DB,
                         0.02, 0.5)
        if tiny:
            r1, db = r1[:2], db[:3]
        self.r1, self.db = r1, db
        self.scene = Scene.default()
        self.use_reference = seed == DEFAULT_SEED
        self.sizes = {"r1_m": r1, "threshold_db": db,
                      "cells_per_pass": len(r1) * len(db)}

    def _cell(self, r1: float, db: float) -> float:
        s = self.scene
        q = coverage.CoverageQuery(r1=r1, threshold=10.0 ** (db / 10.0))
        return coverage.coverage_probability(q, s.budget, s.deploy, s.system,
                                             s.jsrs).p_cvp

    def setup(self) -> None:
        clear_caches()
        self._cell(self.r1[0], self.db[0])

    def run_pass(self, tracer=None) -> Pass:
        values, calls = [], []
        for r1 in self.r1:
            row = []
            for db in self.db:
                t0 = time.perf_counter()
                try:
                    row.append(self._cell(r1, db))
                except Exception as exc:  # one failed cell; the pass goes on
                    row.append(_failure(exc))
                calls.append(("cell", t0, time.perf_counter()))
            values.append(row)
        return Pass(values, calls, len(calls))

    def check(self, outputs) -> tuple:
        reference = None
        if self.use_reference:
            grid = load_reference()["inversion_warm"]
            reference = [row[:len(self.db)] for row in grid[:len(self.r1)]]
        return check_grid(outputs, self.db, reference)


def check_grid(values, threshold_db, reference) -> tuple:
    """Check a grid of p_cvp values, one row per r1 over ascending
    thresholds; returns (attempted, failed, notes)."""
    attempted = failed = 0
    notes = []
    for i, row in enumerate(values):
        attempted += len(row)
        bad = {j for j, p in enumerate(row)
               if not isinstance(p, float) or not 0.0 <= p <= 1.0}
        if reference is not None:
            bad |= {j for j, p in enumerate(row) if j not in bad
                    and abs(p - reference[i][j]) > COVERAGE_TOL}
        bad |= monotone_violations(
            [(db, p, j) for j, (db, p) in enumerate(zip(threshold_db, row))
             if j not in bad])
        failed += len(bad)
        notes += [f"cell ({i}, {j}) failed: {row[j]}" for j in sorted(bad)]
    return attempted, failed, notes


# -----------------------------------------------------------------------------
# mc_oracle
# -----------------------------------------------------------------------------

MC_LINK_M = 52.0
MC_R1_M = 20.0
MC_THRESHOLD_DB = 5.0
OPEN_WINDOW_M = 500.0
# calls in the order they run; the blocker-free wide window goes last
# because it holds the largest batch
MC_TRIALS = {"blockage": 200_000, "timeout": 200_000, "misalignment": 100_000,
             "coverage_urban": 100_000, "coverage_open": 8192}
MC_TINY_DIVISOR = 8


class McOracle:
    """The Monte-Carlo estimators, gated against analytic values that are
    committed in reference.json, so no analytic code runs in a pass."""

    name = "mc_oracle"
    speed_kernel = "vector"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.trials = {role: n // MC_TINY_DIVISOR if tiny else n
                       for role, n in MC_TRIALS.items()}
        self.scene = s = Scene.default()
        self.open_deploy = replace(s.deploy, lambda_m=0.0, lambda_s=0.0)
        self.open_budget = LinkBudget.from_params(s.system, self.open_deploy)
        self.perfect = scheme_ability("perfect", s.system, s.deploy)
        self.sizes = {"trials": self.trials, "link_m": MC_LINK_M,
                      "r1_m": MC_R1_M, "threshold_db": MC_THRESHOLD_DB,
                      "open_window_m": OPEN_WINDOW_M}

    def setup(self) -> None:
        # estimate_coverage evaluates the analytic p_ms; fill its cache here
        # so that no quadrature runs inside a pass
        clear_caches()
        s = self.scene
        misalignment.beam_misalignment(s.deploy, s.jsrs, s.system.tau)
        misalignment.beam_misalignment(self.open_deploy, self.perfect,
                                       s.system.tau)

    def _estimate(self, role: str, trials: int, seed: int) -> dict:
        s = self.scene
        thr = 10.0 ** (MC_THRESHOLD_DB / 10.0)
        if role == "blockage":
            return {role: mcsim.estimate_blockage(s.deploy, MC_LINK_M, trials,
                                                  seed)}
        if role == "timeout":
            return {role: mcsim.estimate_timeout(s.deploy, trials, seed)}
        if role == "misalignment":
            return mcsim.estimate_misalignment(s.deploy, s.jsrs, s.system.tau,
                                               trials, seed)
        if role == "coverage_urban":
            return {role: mcsim.estimate_coverage(
                s.deploy, s.budget, s.system, s.jsrs, MC_R1_M, thr, trials,
                seed)}
        return {role: mcsim.estimate_coverage(
            self.open_deploy, self.open_budget, s.system, self.perfect,
            MC_R1_M, thr, trials, seed, window_radius=OPEN_WINDOW_M)}

    def run_pass(self, tracer=None) -> Pass:
        outputs, calls = {}, []
        for k, (role, trials) in enumerate(self.trials.items()):
            seed = self.seed * len(self.trials) + k
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    outputs[role] = self._estimate(role, trials, seed)
                else:
                    tracer.counts[f"mcsim.{role}.trials"] += trials
                    with tracer.alloc_span(f"mcsim.{role}"):
                        outputs[role] = self._estimate(role, trials, seed)
            except Exception as exc:  # one failed estimate; the pass goes on
                outputs[role] = _failure(exc)
            calls.append((role, t0, time.perf_counter()))
        return Pass(outputs, calls, sum(self.trials.values()))

    def check(self, outputs) -> tuple:
        """Gates of ``isac-thz simulate --strict``: |dev| <= max(0.02,
        3 sigma) for coverage, 4 sigma for the rest."""
        reference = load_reference()["mc_oracle"]
        attempted = failed = 0
        notes = []
        for role, estimates in outputs.items():
            attempted += 1
            if isinstance(estimates, str):
                failed += 1
                notes.append(f"{role}: {estimates}")
                continue
            for name, est in estimates.items():
                ref = reference[name]
                if name.startswith("coverage"):
                    ok = abs(est.mean - ref) <= max(0.02, 3.0 * est.std_error)
                else:
                    ok = abs(est.sigmas_off(ref)) <= 4.0
                if not ok:
                    failed += 1
                    notes.append(f"{role}: {name} {est} vs analytic {ref}")
                    break
        return attempted, failed, notes


WORKLOADS = {w.name: w for w in (TablesCold, InversionWarm, McOracle)}
