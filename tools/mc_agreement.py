"""Agreement of the Monte-Carlo estimators between two source trees.

    python3 tools/mc_agreement.py PARENT_TREE CHANGE_TREE [--seed 2026]
        [--seeds N]

Each tree's estimators run in interpreters of their own that import
``isacthz`` from that tree's ``src/`` and nowhere else, one per seed, at
seeds seed ... seed + N - 1 (N = 1 by default), the trees alternating
seed by seed (tools/alternating.py).  Fixed sizes: ``estimate_blockage``
(52 m links), ``estimate_timeout`` and ``estimate_misalignment`` (jsrs) at
1e6 trials, and ``estimate_coverage`` at eight cells, 2e5 trials each: the
urban point, a derivation-mode cell, the blocker-free open field on a
500 m window, narrow beams (n_b = n_m = 8), where many trials are left
open, three derivation-mode tail cells (jsrs 10 m 10 dB, jsrs 12 m 5 dB,
5g 10 m 10 dB), where the Monte-Carlo and analytic coverage differ most,
and a cell where every trial misses (5g 38 m 15 dB, whose noise alone
exceeds the threshold).  Every point is an independent estimate on each
side, so a sampler change that keeps the law should leave them within a
few combined standard errors.

Prints one JSON object.  Per point: [mean, std_error] of each side, pooled
over the seeds (the trial-weighted mean, its standard error combined in
quadrature), the analytic value from the change tree (coverage:
``coverage_probability``'s p_cvp), ``combined_sigmas`` =
(change - parent) / hypot(std errors), and each side's distance from the
analytic value in its own standard errors (null where that error is 0,
as when every trial of a coverage cell clears the threshold or none
does).  Per estimator call, each side's wall seconds at every seed
(``wall_s``; the misalignment call serves its three points) and the
median over the seeds of the change/parent ratio of the two
interpreters' seconds at the same seed (``wall_ratio``).
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import replace
from functools import partial

from alternating import alternate, parse, parser

LINK_TRIALS = 1_000_000
COVERAGE_TRIALS = 200_000
LINK_M = 52.0
# (scheme, r1 m, threshold dB, lower-bound mode, Deployment overrides,
# window radius m or None for the default) per coverage cell
COVERAGE_CELLS = {
    "coverage_urban": ("jsrs", 20.0, 5.0, "theorem", {}, None),
    "coverage_derivation": ("5g", 10.0, 0.0, "derivation", {}, None),
    "coverage_open": ("perfect", 20.0, 5.0, "theorem",
                      {"lambda_m": 0.0, "lambda_s": 0.0}, 500.0),
    "coverage_narrow": ("jsrs", 20.0, -10.0, "theorem",
                        {"n_b": 8, "n_m": 8}, None),
    "coverage_tail_jsrs_10m_10db": ("jsrs", 10.0, 10.0, "derivation", {},
                                    None),
    "coverage_tail_jsrs_12m_5db": ("jsrs", 12.0, 5.0, "derivation", {}, None),
    "coverage_tail_5g_10m_10db": ("5g", 10.0, 10.0, "derivation", {}, None),
    "coverage_every_miss": ("5g", 38.0, 15.0, "theorem", {}, None),
}


def _in_sigmas(diff: float, sigma: float):
    """diff in units of sigma; None (JSON null) when sigma is 0."""
    return diff / sigma if sigma > 0.0 else None


def _measure(seed: int) -> dict:
    """Estimates [mean, std_error, trials], analytic values and wall
    seconds of every point at one seed."""
    from isacthz import mcsim
    from isacthz.channel import LinkBudget
    from isacthz.config import Deployment, SystemParams
    from isacthz.coverage import CoverageQuery, coverage_probability
    from isacthz.misalignment import (beam_misalignment, blockage_probability,
                                      timeout_probability)
    from isacthz.schemes import scheme_ability

    system, deploy = SystemParams(), Deployment()
    jsrs = scheme_ability("jsrs", system, deploy)
    # estimator calls by name, each taking the seed last; the misalignment
    # one returns a dict of its three points
    calls = {"blockage_52m": partial(mcsim.estimate_blockage, deploy, LINK_M,
                                     LINK_TRIALS),
             "timeout": partial(mcsim.estimate_timeout, deploy, LINK_TRIALS),
             "misalignment": partial(mcsim.estimate_misalignment, deploy, jsrs,
                                     system.tau, LINK_TRIALS)}
    breakdown = beam_misalignment(deploy, jsrs, system.tau)
    analytic = {"blockage_52m": blockage_probability(deploy, LINK_M),
                "timeout": timeout_probability(deploy),
                "misalignment_p_err": breakdown.p_err,
                "misalignment_p_to": breakdown.p_to,
                "misalignment_p_ms": breakdown.p_ms}
    for name, (scheme, r1, db, mode, overrides, window) in \
            COVERAGE_CELLS.items():
        dep = replace(deploy, **overrides)
        bud = LinkBudget.from_params(system, dep)
        ability = scheme_ability(scheme, system, dep)
        thr = 10.0 ** (db / 10.0)
        calls[name] = partial(mcsim.estimate_coverage, dep, bud, system,
                              ability, r1, thr, COVERAGE_TRIALS,
                              lower_bound_mode=mode, window_radius=window)
        analytic[name] = coverage_probability(
            CoverageQuery(r1, thr, mode), bud, dep, system, ability).p_cvp
    estimates, wall_s = {}, {}
    for call, estimate in calls.items():
        t0 = time.perf_counter()
        out = estimate(seed)
        wall_s[call] = time.perf_counter() - t0
        out = ({call: out} if isinstance(out, mcsim.McEstimate)
               else {f"{call}_{k}": e for k, e in out.items()})
        for k, e in out.items():
            estimates[k] = [e.mean, e.std_error, e.trials]
    return {"estimates": estimates, "analytic": analytic, "wall_s": wall_s}


def _pooled(runs: list) -> dict:
    """Per point, [mean, std_error] pooled over one side's runs: the
    trial-weighted mean, its standard error combined in quadrature."""
    pooled = {}
    for name in runs[0]["estimates"]:
        est = [run["estimates"][name] for run in runs]
        n = sum(t for _, _, t in est)
        pooled[name] = [sum(t * m for m, _, t in est) / n,
                        math.sqrt(sum((t * s) ** 2 for _, s, t in est)) / n]
    return pooled


def main(argv=None) -> None:
    ap = parser(__doc__)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seeds", type=int, default=1,
                    help="seeds pooled per side, from --seed on")
    args, trees = parse(ap, argv, lambda args: _measure(args.seed + args.round))
    if args.seeds < 1:
        ap.error("--seeds must be >= 1")
    runs = alternate(__file__, trees, args.seeds, ["--seed", str(args.seed)])
    parent, change = _pooled(runs["parent"]), _pooled(runs["change"])
    points = {}
    for name, ref in runs["change"][0]["analytic"].items():
        (m0, s0), (m1, s1) = parent[name], change[name]
        points[name] = {"parent": [m0, s0], "change": [m1, s1],
                        "analytic": ref,
                        "combined_sigmas": _in_sigmas(m1 - m0,
                                                      math.hypot(s0, s1)),
                        "parent_sigmas_vs_analytic": _in_sigmas(m0 - ref, s0),
                        "change_sigmas_vs_analytic": _in_sigmas(m1 - ref, s1)}
    wall_s = {side: {call: [run["wall_s"][call] for run in side_runs]
                     for call in side_runs[0]["wall_s"]}
              for side, side_runs in runs.items()}
    wall_ratio = {call: statistics.median(
        c / p for p, c in zip(wall_s["parent"][call], wall_s["change"][call]))
        for call in wall_s["parent"]}
    print(json.dumps({"seed": args.seed, "seeds": args.seeds,
                      "link_trials": LINK_TRIALS,
                      "coverage_trials": COVERAGE_TRIALS,
                      "trees": {side: str(tree) for side, tree in trees.items()},
                      "points": points, "wall_s": wall_s,
                      "wall_ratio": wall_ratio}, indent=1))


if __name__ == "__main__":
    main()
