"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from isacthz.channel import (LinkBudget, expected_interference,
                             expected_noise, sweep_weight)
from isacthz.cli import NRS_SWEEP, misalign_sweep_rows
from isacthz.config import default_deployment, default_system
from isacthz.coverage import (CoverageQuery, coverage_probability,
                              coverage_sweep)
from isacthz.mcsim import (estimate_blockage, estimate_coverage,
                           estimate_timeout)
from isacthz.misalignment import (blockage_probability,
                                  expected_closest_blockage,
                                  timeout_probability)
from isacthz.pattern import (PatternRequirement, brute_force_pattern,
                             objective, optimal_pattern)
from isacthz.schemes import scheme_ability
from isacthz.sensing import a_theta, ability_from_spans, ssb_ability
from isacthz.specfun import QuadratureSpec, integrate_semi_infinite
from test_mcsim import joint_distance_gof, window_distances
from test_misalignment import expected_closest_blockage_quadrature

SYS = default_system()
DEP = default_deployment()
BUD = LinkBudget.from_params(SYS, DEP)

MC_TRIALS_LEMMA = 1_000_000
MC_SAMPLES_GOF = 100_000
MC_TRIALS_COVERAGE = 100_000
COVERAGE_GRID_R1 = (10.0, 20.0, 40.0)
COVERAGE_GRID_DB = (0.0, 5.0, 10.0)


def _report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -----------------------------------------------------------------------------
# 1. Reference-grid reproduction within 1% (printed rounding)
# -----------------------------------------------------------------------------

def test_criterion_1_reference_grid():
    t0 = time.time()
    theta = DEP.theta_b

    def spans(u, v, b_s, t_s, f_c):
        return ability_from_spans(u, v, b_s, t_s, replace(SYS, f_c=f_c), theta)

    ssb = ssb_ability(SYS, theta)
    cells = [
        ("d_max ssb", ssb.d_max, "78.1"),
        ("d_max U2", spans(2, 1, 0.1e9, 0.5e-3, 0.22e12).d_max, "39.1"),
        ("d_max U3", spans(3, 1, 0.1e9, 0.5e-3, 0.22e12).d_max, "26.1"),
        ("ddb ssb", ssb.delta_db, "0.039"),
        ("ddb U2 B.1", spans(2, 1, 0.1e9, 0.5e-3, 0.22e12).delta_db, "0.090"),
        ("ddb U2 B.2", spans(2, 1, 0.2e9, 0.5e-3, 0.22e12).delta_db, "0.045"),
        ("ddb U3 B.1", spans(3, 1, 0.1e9, 0.5e-3, 0.22e12).delta_db, "0.060"),
        ("ddb U3 B.2", spans(3, 1, 0.2e9, 0.5e-3, 0.22e12).delta_db, "0.030"),
        ("dv f.22 T.5 V1", spans(2, 1, 0.1e9, 0.5e-3, 0.22e12).delta_v, "1.36"),
        ("dv f.22 T1 V1", spans(2, 1, 0.1e9, 1.0e-3, 0.22e12).delta_v, "0.68"),
        ("dv f.22 T.5 V3", spans(2, 3, 0.1e9, 0.5e-3, 0.22e12).delta_v, "0.45"),
        ("dv f.22 T1 V3", spans(2, 3, 0.1e9, 1.0e-3, 0.22e12).delta_v, "0.23"),
        ("dv f1 T.5 V1", spans(2, 1, 0.1e9, 0.5e-3, 1.0e12).delta_v, "0.30"),
        ("dv f1 T1 V1", spans(2, 1, 0.1e9, 1.0e-3, 1.0e12).delta_v, "0.15"),
        ("dv f1 T.5 V3", spans(2, 3, 0.1e9, 0.5e-3, 1.0e12).delta_v, "0.10"),
        ("dv f1 T1 V3", spans(2, 3, 0.1e9, 1.0e-3, 1.0e12).delta_v, "0.05"),
        ("vmax f.22 V1", spans(2, 1, 0.1e9, 0.5e-3, 0.22e12).v_max * 3.6, "550.3"),
        ("vmax f.22 V3", spans(2, 3, 0.1e9, 0.5e-3, 0.22e12).v_max * 3.6, "183.5"),
        ("vmax f1 V1", spans(2, 1, 0.1e9, 0.5e-3, 1.0e12).v_max * 3.6, "121.1"),
        ("vmax f1 V3", spans(2, 3, 0.1e9, 0.5e-3, 1.0e12).v_max * 3.6, "40.36"),
    ]
    worst = 0.0
    bad = []
    for name, computed, printed in cells:
        target = float(printed)
        decimals = len(printed.split(".")[1])
        rel = abs(computed - target) / target
        rounded_ok = abs(round(computed, decimals) - target) < 10.0 ** (-decimals) / 2
        worst = max(worst, rel)
        if rel > 0.01 and not rounded_ok:
            bad.append((name, computed, target))
    _report("1 reference-grid reproduction", not bad,
            f"{len(cells)} cells, worst rel dev {worst:.2%} "
            f"(<=1% or exact at printed precision); {time.time() - t0:.2f}s"
            + (f"; failing: {bad}" if bad else ""))


# -----------------------------------------------------------------------------
# 2. Closed-form pattern vs brute-force oracle on randomised configurations
# -----------------------------------------------------------------------------

def test_criterion_2_pattern_oracle():
    t0 = time.time()
    rng = np.random.default_rng(20260810)
    checked = 0
    worst_alpha = 0.0
    while checked < 20:
        f_c = rng.uniform(0.1e12, 2.0e12)
        n_b = int(rng.integers(16, 513))
        n_rs = int(round(10.0 ** rng.uniform(3.0, 5.0)))
        d_req = rng.uniform(5.0, 70.0)
        v_req = rng.uniform(3.0, 35.0)
        system = replace(SYS, f_c=f_c, n_rs=n_rs)
        theta = 2.0 * math.pi / n_b
        req = PatternRequirement(d_req, v_req, n_rs)
        try:
            pat = optimal_pattern(req, system, theta)
        except ValueError:
            continue
        bf = brute_force_pattern(req, system, theta, grid_size=10_000)
        assert (bf.u, bf.v) == (pat.u, pat.v), \
            f"spacing mismatch at f_c={f_c:.3g}, n_b={n_b}, n_rs={n_rs}"
        worst_alpha = max(worst_alpha, abs(bf.alpha - pat.alpha))
        checked += 1
    ok = worst_alpha < 1e-3
    _report("2 pattern-selection oracle", ok,
            f"20 random configs: (U,V) exact, worst |alpha gap| "
            f"{worst_alpha:.2e} (<1e-3); {time.time() - t0:.1f}s")


# -----------------------------------------------------------------------------
# 3. Closed forms vs direct quadrature of their defining integrals
# -----------------------------------------------------------------------------

def _grid20():
    grids = []
    for lam_b in (1e-3, 2e-3, 5e-3, 1e-2, 2e-2):
        for lam_sm, k_abs in ((1e-2, 0.05), (2e-2, 0.35)):
            for r1 in (10.0, 30.0):
                grids.append((lam_b, lam_sm, k_abs, r1))
    return grids  # 5 * 2 * 2 = 20 points


def test_criterion_3_closed_forms_vs_quadrature():
    t0 = time.time()
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-12, max_subdivisions=20000,
                          tail_cutoff_envelope=1e-14)
    worst = {"interference": 0.0, "noise": 0.0, "blockage": 0.0,
             "timeout": 0.0}
    for lam_b, lam_sm, k_abs, r1 in _grid20():
        dep = replace(DEP, lambda_b=lam_b, lambda_m=lam_sm / 2,
                      lambda_s=lam_sm / 2)
        system = replace(SYS, k_abs=k_abs)
        bud = LinkBudget.from_params(system, dep)
        p_ms = 0.1
        lam = dep.lambda_b + dep.lambda_m + dep.lambda_s
        w_s = sweep_weight(dep, system, p_ms)

        closed = expected_interference(bud, dep, system, r1, p_ms)

        def intg_i(r):
            return (2 * math.pi * dep.lambda_b * r * w_s
                    * np.exp(-lam * (r - 2 * dep.r_b) * 2 * dep.r_b)
                    * bud.a * r ** -2.0 * np.exp(-k_abs * r)) / closed

        quad = integrate_semi_infinite(intg_i, r1, spec) * closed
        worst["interference"] = max(worst["interference"],
                                    abs(closed - quad) / closed)

        closed_n = expected_noise(bud, dep, system, r1) - system.thermal_noise_power

        def intg_n(r):
            return (2 * math.pi * dep.lambda_b * bud.a * k_abs
                    / (dep.n_b * dep.n_m) * r ** -1.0
                    * np.exp(-k_abs * r)) / closed_n

        quad_n = integrate_semi_infinite(intg_n, r1, spec) * closed_n
        worst["noise"] = max(worst["noise"], abs(closed_n - quad_n) / closed_n)

        closed_b = expected_closest_blockage(dep)
        quad_b = expected_closest_blockage_quadrature(dep)
        worst["blockage"] = max(worst["blockage"],
                                abs(closed_b - quad_b) / closed_b)

        # timeout: the erfcx closed form of the inner (r2 > r1) integral
        # against nested quadrature of both integrals
        w1 = lam_sm * 2 * dep.r_b
        beta = dep.lambda_b * math.pi
        two_rb = 2 * dep.r_b

        def p_block(r):
            return 1.0 - np.exp(-w1 * (r - two_rb))

        def intg_t(r1):
            return np.array([
                x * p_block(x) * integrate_semi_infinite(
                    lambda r2: p_block(r2) * np.exp(-beta * r2 ** 2) * r2,
                    x, spec)
                for x in np.atleast_1d(r1)])

        closed_t = timeout_probability(dep)
        quad_t = (2 * beta) ** 2 * integrate_semi_infinite(intg_t, two_rb,
                                                           spec)
        worst["timeout"] = max(worst["timeout"],
                               abs(closed_t - quad_t) / closed_t)

    ok = all(v <= 1e-8 for v in worst.values())
    _report("3 closed forms vs quadrature", ok,
            "20-point grid, worst rel dev: "
            + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
            + f" (<=1e-8); {time.time() - t0:.1f}s")


# -----------------------------------------------------------------------------
# 4. Blockage and timeout closed forms vs Monte Carlo; joint distance law
# -----------------------------------------------------------------------------

def test_criterion_4_lemma_vs_monte_carlo():
    t0 = time.time()
    est_b = estimate_blockage(DEP, 52.0, MC_TRIALS_LEMMA, 2024)
    sig_b = est_b.sigmas_off(blockage_probability(DEP, 52.0))
    est_t = estimate_timeout(DEP, MC_TRIALS_LEMMA, 2025)
    sig_t = est_t.sigmas_off(timeout_probability(DEP))

    # the joint law is checked on the window oracle, not on the library's
    # exact sampler (which draws that law directly)
    p_val = joint_distance_gof(*window_distances(MC_SAMPLES_GOF, 2026), 10)

    ok = abs(sig_b) <= 3.0 and abs(sig_t) <= 3.0 and p_val > 0.01
    _report("4 blockage/timeout vs Monte Carlo", ok,
            f"blockage {sig_b:+.2f} sigma, timeout {sig_t:+.2f} sigma "
            f"(|.|<=3 at 1e6 trials); joint-distance GOF p={p_val:.3f} "
            f"(>0.01 at 1e5); {time.time() - t0:.1f}s")


# -----------------------------------------------------------------------------
# 5. Coverage inversion vs Monte Carlo on the (r1, threshold) grid
# -----------------------------------------------------------------------------

def test_criterion_5_coverage_vs_monte_carlo():
    t0 = time.time()
    ability = scheme_ability("jsrs", SYS, DEP)
    results = {}
    for mode in ("theorem", "derivation"):
        worst = 0.0
        ok = True
        seed = 31000
        for r1 in COVERAGE_GRID_R1:
            for db in COVERAGE_GRID_DB:
                thr = 10.0 ** (db / 10.0)
                q = CoverageQuery(r1=r1, threshold=thr, lower_bound_mode=mode)
                res = coverage_probability(q, BUD, DEP, SYS, ability)
                est = estimate_coverage(DEP, BUD, SYS, ability, r1, thr,
                                        MC_TRIALS_COVERAGE, seed,
                                        lower_bound_mode=mode)
                seed += 1
                diff = abs(res.p_cvp - est.mean)
                tol = max(0.02, 3.0 * est.std_error)
                worst = max(worst, diff)
                ok = ok and diff <= tol
        results[mode] = (ok, worst)
    detail = "; ".join(f"{m}: worst |dev| {w:.4f}" + (" PASS" if ok else " fail")
                       for m, (ok, w) in results.items())
    _report("5 coverage vs Monte Carlo",
            all(ok for ok, _ in results.values()),
            f"3x3 grid at 1e5 trials, tol max(0.02, 3 sigma) in both "
            f"lower-bound modes; {detail}; {time.time() - t0:.1f}s")


# -----------------------------------------------------------------------------
# 6. Scheme ordering and quantitative bands
# -----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def coverage_rows():
    schemes = ("perfect", "jsrs", "5g")
    thresholds = [10.0 ** (db / 10.0) for db in COVERAGE_GRID_DB]
    return coverage_sweep(COVERAGE_GRID_R1, thresholds, schemes, BUD, DEP, SYS)


def test_criterion_6_scheme_ordering_and_bands(coverage_rows):
    t0 = time.time()
    problems = []

    # (a) misalignment ordering on both sweep axes
    for axis in ("n_b", "n_rs"):
        rows = misalign_sweep_rows(SYS, DEP, axis, ("perfect", "jsrs", "5g"))
        by = {}
        for label, value, scheme, p_err, p_to, p_ms in rows:
            by.setdefault(value, {})[scheme] = p_ms
        for value, r in by.items():
            if not r["perfect"] <= r["jsrs"] + 1e-12 <= r["5g"] + 1e-12:
                problems.append(f"p_ms ordering broken at {axis}={value}")

    # (b) coverage ordering on the default grid
    table = {}
    for row in coverage_rows:
        table.setdefault((row["r1_m"], row["threshold_db"]), {})[row["scheme"]] = row["p_cvp"]
    for point, r in table.items():
        if not (r["perfect"] >= r["jsrs"] - 1e-6 >= r["5g"] - 2e-6):
            problems.append(f"p_cvp ordering broken at {point}")

    # (c) average misalignment reduction over the beam-count sweep
    rows = misalign_sweep_rows(SYS, DEP, "n_b", ("jsrs", "5g"))
    by = {}
    for label, value, scheme, p_err, p_to, p_ms in rows:
        by.setdefault(value, {})[scheme] = p_ms
    reductions = [1.0 - by[v]["jsrs"] / by[v]["5g"] for v in sorted(by)]
    avg_red = sum(reductions) / len(reductions)
    if not 0.50 <= avg_red <= 0.95:
        problems.append(f"average reduction {avg_red:.2%} outside [50%, 95%]")

    # (d) near-ideal regime: jsrs-vs-perfect coverage gap over the pilot
    # budget sweep at the reference operating point (r1=20 m, 5 dB); the
    # band applies to the mean over the sweep points with n_rs >= 1500
    # (the pointwise maximum is reported alongside).
    gaps = []
    q_point = dict(r1=20.0, threshold=10.0 ** 0.5)
    for n_rs in NRS_SWEEP:
        if n_rs < 1500:
            continue
        sys_n = replace(SYS, n_rs=n_rs)
        res_j = coverage_probability(
            CoverageQuery(lower_bound_mode="theorem", **q_point), BUD, DEP,
            sys_n, scheme_ability("jsrs", sys_n, DEP))
        res_p = coverage_probability(
            CoverageQuery(lower_bound_mode="theorem", **q_point), BUD, DEP,
            sys_n, scheme_ability("perfect", sys_n, DEP))
        gaps.append(res_p.p_cvp - res_j.p_cvp)
    avg_gap = sum(gaps) / len(gaps)
    if avg_gap > 0.05:
        problems.append(f"mean jsrs-vs-perfect gap {avg_gap:.4f} > 0.05")

    _report("6 scheme ordering and bands", not problems,
            f"orderings hold on all sweep points; avg misalignment reduction "
            f"{avg_red:.1%} in [50%,95%]; jsrs-vs-perfect coverage gap for "
            f"n_rs>=1500: mean {avg_gap:.4f} (<=0.05), pointwise max "
            f"{max(gaps):.4f}; {time.time() - t0:.1f}s"
            + (f"; problems: {problems}" if problems else ""))


# -----------------------------------------------------------------------------
# 7. Monotonicity suite
# -----------------------------------------------------------------------------

def test_criterion_7_monotonicity(coverage_rows):
    t0 = time.time()
    problems = []

    # allocation exponent falls with carrier frequency (fixed spacings)
    def stationary(system, theta):
        ratio = (system.f_scs * system.tau
                 / (5.0 * system.f_c * system.t_sym * a_theta(theta)))
        return 0.5 * (math.log(ratio) / math.log(system.n_rs) + 1.0)

    alphas_f = [stationary(replace(SYS, f_c=f), DEP.theta_b)
                for f in np.linspace(0.1e12, 2.0e12, 16)]
    if not all(a > b for a, b in zip(alphas_f, alphas_f[1:])):
        problems.append("alpha not decreasing in f_c")

    # ... and with the transverse factor (wider beams)
    alphas_t = [stationary(SYS, 2 * math.pi / n)
                for n in (512, 256, 128, 64, 32, 16, 8)]
    if not all(a > b for a, b in zip(alphas_t, alphas_t[1:])):
        problems.append("alpha not decreasing in A_theta")

    # coverage falls with the threshold at every (scheme, r1)
    series = {}
    for row in coverage_rows:
        series.setdefault((row["scheme"], row["r1_m"]), []).append(
            (row["threshold_db"], row["p_cvp"]))
    for key, pts in series.items():
        pts.sort()
        vals = [v for _, v in pts]
        if not all(a >= b - 1e-6 for a, b in zip(vals, vals[1:])):
            problems.append(f"p_cvp not non-increasing in threshold at {key}")

    # objective convexity: midpoint test on random triples
    rng = np.random.default_rng(777)
    for _ in range(100):
        a, b = np.sort(rng.uniform(0.02, 0.98, size=2))
        if b - a < 1e-3:
            continue
        u = int(rng.integers(1, 6))
        v = int(rng.integers(1, 9))
        mid = 0.5 * (a + b)
        lhs = objective(mid, u, v, SYS, DEP.theta_b)
        rhs = 0.5 * (objective(a, u, v, SYS, DEP.theta_b)
                     + objective(b, u, v, SYS, DEP.theta_b))
        if lhs > rhs + 1e-15:
            problems.append(f"convexity violated at ({a:.3f},{b:.3f},{u},{v})")
            break

    _report("7 monotonicity suite", not problems,
            f"alpha monotone in f_c and beamwidth; p_cvp monotone in "
            f"threshold; objective midpoint-convex on 100 triples; "
            f"{time.time() - t0:.1f}s"
            + (f"; problems: {problems}" if problems else ""))
