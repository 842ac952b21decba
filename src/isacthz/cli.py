"""Sweep orchestration and CSV/markdown emission.

Subcommands:

  abilities   reference-numerology sensing-ability grid (CSV)
  pattern     optimal pilot pattern for given requirements (CSV row)
  misalign    misalignment sweep over beam count or pilot budget (CSV)
  coverage    coverage table over (r1, threshold, scheme) (CSV)
  simulate    Monte-Carlo estimates with analytic cross-check (CSV)
  compare     markdown report of the scheme comparison

Exit codes: 0 success, 2 validation or file error (a missing --config,
absorption table or --out directory), 3 numerical non-convergence,
4 Monte-Carlo/analytic disagreement beyond threshold under simulate
--strict.  Only simulate takes --seed, --trials and --strict.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys as _sys
from dataclasses import replace

from .channel import LOWER_BOUND_MODES, LinkBudget
from .config import ConfigError, Deployment, SystemParams, load_config
from .coverage import coverage_probability, coverage_sweep, CoverageQuery
from .misalignment import (beam_misalignment, blockage_probability,
                           timeout_probability)
from .mcsim import (estimate_blockage, estimate_coverage,
                    estimate_misalignment, estimate_timeout)
from .pattern import (InfeasibleRequirementError, PatternRequirement,
                      brute_force_pattern, objective, optimal_pattern)
from .schemes import scheme_ability
from .sensing import SCHEMES, ability_from_spans, sensing_ability, ssb_ability
from .specfun import QuadratureError

__all__ = ["main", "ability_reference_rows", "misalign_sweep_rows",
           "compare_report", "NB_SWEEP", "NRS_SWEEP", "COVERAGE_GRID"]

NB_SWEEP = (32, 64, 128, 256, 512)
NRS_SWEEP = (1000, 1500, 2000, 5000, 10000, 30000, 100000)
# default (r1 [m], threshold [dB]) grid of `coverage` and of `compare`
COVERAGE_GRID = ((10.0, 20.0, 40.0), (0.0, 5.0, 10.0))

_REFGRID_FCS = (0.22e12, 1.0e12)
_REFGRID_BS = (0.1e9, 0.2e9)
_REFGRID_TS = (0.5e-3, 1.0e-3)


def _fmt(x) -> str:
    """Six significant digits; unbounded values become empty cells."""
    if x is None or (isinstance(x, float) and math.isinf(x)):
        return ""
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _write(path, text: str) -> None:
    """Write CSV or markdown text to `path`, or to stdout when it is None."""
    if path is None:
        _sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _params_hash(*parts) -> str:
    # imported here, as only simulate hashes: hashlib loads OpenSSL, about
    # 3.5 MB and 3 ms of every process that imports it
    import hashlib

    text = "|".join(repr(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# -----------------------------------------------------------------------------
# abilities
# -----------------------------------------------------------------------------

def ability_reference_rows(system: SystemParams, deploy: Deployment):
    """Reference sensing-ability grid: one sweep-block row plus the pilot
    rows over the reference (f_c, U, V, B_s, T_s) axes."""
    rows = []
    ab = ssb_ability(system, deploy.theta_b)
    rows.append(["ssb", 1, 1, system.b_ssb, system.t_ssb, system.f_c,
                 ab.d_max, ab.delta_db, ab.delta_v, ab.v_max * 3.6])
    for f_c in _REFGRID_FCS:
        sys_fc = replace(system, f_c=f_c)
        for u in (2, 3):
            for v in (1, 3):
                for b_s in _REFGRID_BS:
                    for t_s in _REFGRID_TS:
                        ab = ability_from_spans(u, v, b_s, t_s, sys_fc,
                                                deploy.theta_b)
                        rows.append(["rs", u, v, b_s, t_s, f_c, ab.d_max,
                                     ab.delta_db, ab.delta_v, ab.v_max * 3.6])
    return rows


def _cmd_abilities(args, system, deploy):
    header = ["signal", "U", "V", "B_s", "T_s", "f_c", "d_max_m",
              "delta_db_m", "delta_v_mps", "vmax_kmh"]
    _write(args.out, _csv(header, ability_reference_rows(system, deploy)))
    return 0


# -----------------------------------------------------------------------------
# pattern
# -----------------------------------------------------------------------------

def _cmd_pattern(args, system, deploy):
    if args.n_rs is not None:
        system = replace(system, n_rs=args.n_rs)
    req = PatternRequirement(d_max_req=args.d_max_req, v_max_req=args.v_max_req)
    pat = optimal_pattern(req, system, deploy.theta_b)
    ab = sensing_ability(pat, system, deploy.theta_b)
    header = ["alpha", "U", "V", "N_s", "N_f", "B_s", "T_s",
              "delta_r_m", "delta_db_m", "delta_v_mps", "d_max_m", "vmax_kmh"]
    row = [pat.alpha, pat.u, pat.v, pat.n_s, pat.n_f, pat.b_s, pat.t_s,
           ab.delta_r, ab.delta_db, ab.delta_v, ab.d_max, ab.v_max * 3.6]
    _write(args.out, _csv(header, [row]))
    if args.verify:
        bf = brute_force_pattern(req, system, deploy.theta_b)
        gap = (objective(pat.alpha, pat.u, pat.v, system, deploy.theta_b)
               - objective(bf.alpha, bf.u, bf.v, system, deploy.theta_b))
        print(f"# brute force: alpha={bf.alpha:.6f} U={bf.u} V={bf.v} "
              f"objective gap={gap:+.3e}", file=_sys.stderr)
    return 0


# -----------------------------------------------------------------------------
# misalign
# -----------------------------------------------------------------------------

def _sweep_deployments(system, deploy, sweep):
    """(label, value, system, deployment) tuples for one sweep axis."""
    points = []
    if sweep == "n_b":
        for n in NB_SWEEP:
            points.append(("n_b", n, system, replace(deploy, n_b=n, n_m=n)))
    elif sweep == "n_rs":
        for n in NRS_SWEEP:
            points.append(("n_rs", n, replace(system, n_rs=n), deploy))
    else:
        raise ConfigError(f"unknown sweep axis '{sweep}'")
    return points


def misalign_sweep_rows(system: SystemParams, deploy: Deployment,
                        sweep: str = "n_b", schemes=SCHEMES):
    rows = []
    for label, value, sys_v, dep_v in _sweep_deployments(system, deploy, sweep):
        for scheme in schemes:
            m = beam_misalignment(dep_v, scheme_ability(scheme, sys_v, dep_v),
                                  sys_v.tau)
            rows.append([label, value, scheme, m.p_err, m.p_to, m.p_ms])
    return rows


def _cmd_misalign(args, system, deploy):
    rows = misalign_sweep_rows(system, deploy, args.sweep, args.schemes)
    _write(args.out, _csv(["sweep_var", "value", "scheme", "p_err", "p_to",
                           "p_ms"], rows))
    return 0


# -----------------------------------------------------------------------------
# coverage
# -----------------------------------------------------------------------------

def _cmd_coverage(args, system, deploy):
    budget = LinkBudget.from_params(system, deploy)
    thresholds = [10.0 ** (db / 10.0) for db in args.threshold_db_grid]
    rows = coverage_sweep(args.r1_grid, thresholds, args.schemes, budget,
                          deploy, system, lower_bound_mode=args.lower_bound)
    out = [[r["scheme"], r["r1_m"], r["threshold_db"], r["p_ms"], r["p_cm"],
            r["p_cvp"], r["abs_err"]] for r in rows]
    _write(args.out, _csv(["scheme", "r1_m", "threshold_db", "p_ms", "p_cm",
                           "p_cvp", "abs_err"], out))
    return 0


# -----------------------------------------------------------------------------
# simulate
# -----------------------------------------------------------------------------

def _cmd_simulate(args, system, deploy):
    budget = LinkBudget.from_params(system, deploy)
    checks = []  # (quantity, params hash, estimate, analytic value)
    if args.what == "blockage":
        est = estimate_blockage(deploy, args.r_m, args.trials, args.seed)
        checks.append(("blockage", _params_hash(deploy, args.r_m), est,
                       blockage_probability(deploy, args.r_m)))
    elif args.what == "timeout":
        est = estimate_timeout(deploy, args.trials, args.seed)
        checks.append(("timeout", _params_hash(deploy), est,
                       timeout_probability(deploy)))
    elif args.what == "misalign":
        ability = scheme_ability(args.scheme, system, deploy)
        ests = estimate_misalignment(deploy, ability, system.tau, args.trials,
                                     args.seed)
        m = beam_misalignment(deploy, ability, system.tau)
        for name, ref in (("p_err", m.p_err), ("p_to", m.p_to), ("p_ms", m.p_ms)):
            checks.append((f"misalign_{name}",
                           _params_hash(deploy, args.scheme), ests[name], ref))
    elif args.what == "coverage":
        ability = scheme_ability(args.scheme, system, deploy)
        thr = 10.0 ** (args.threshold_db / 10.0)
        est = estimate_coverage(deploy, budget, system, ability, args.r1_m,
                                thr, args.trials, args.seed,
                                lower_bound_mode=args.lower_bound,
                                window_radius=args.window_m)
        q = CoverageQuery(r1=args.r1_m, threshold=thr,
                          lower_bound_mode=args.lower_bound)
        ref = coverage_probability(q, budget, deploy, system, ability).p_cvp
        checks.append(("coverage", _params_hash(deploy, args.scheme, args.r1_m,
                                                args.threshold_db), est, ref))
    else:
        raise ConfigError(f"unknown simulate target '{args.what}'")

    rows = [[quantity, digest, est.mean, est.std_error, est.trials, ref,
             est.sigmas_off(ref)] for quantity, digest, est, ref in checks]
    # the --strict gate: |dev| <= max(0.02, 3 sigma) for coverage and
    # 4 sigma for every other quantity
    agrees = all(abs(est.mean - ref) <= max(0.02, 3.0 * est.std_error)
                 if quantity == "coverage" else abs(est.sigmas_off(ref)) <= 4.0
                 for quantity, _, est, ref in checks)
    _write(args.out, _csv(["quantity", "params_hash", "mean", "std_error",
                           "trials", "analytic_value", "sigmas_off"], rows))
    return 4 if (args.strict and not agrees) else 0


# -----------------------------------------------------------------------------
# compare
# -----------------------------------------------------------------------------

def compare_report(system: SystemParams, deploy: Deployment) -> str:
    """Markdown scheme-comparison report."""
    lines = ["# Scheme comparison", ""]

    # misalignment over the beam-count sweep
    rows = misalign_sweep_rows(system, deploy, "n_b", SCHEMES)
    by = {}
    for label, value, scheme, p_err, p_to, p_ms in rows:
        by.setdefault(value, {})[scheme] = p_ms
    lines.append("## Beam misalignment over the beam-count sweep")
    lines.append("")
    lines.append("| n_b | " + " | ".join(SCHEMES) + " | jsrs vs 5g | jsrs vs ssb |")
    lines.append("|---:|" + "---:|" * (len(SCHEMES) + 2))
    reds_5g, reds_ssb = [], []
    for value in sorted(by):
        r = by[value]
        red5 = 1.0 - r["jsrs"] / r["5g"] if r["5g"] > 0 else 0.0
        reds = 1.0 - r["jsrs"] / r["ssb"] if r["ssb"] > 0 else 0.0
        reds_5g.append(red5)
        reds_ssb.append(reds)
        lines.append("| " + " | ".join(
            [str(value)] + [f"{r[s]:.6g}" for s in SCHEMES]
            + [f"{100 * red5:.1f}%", f"{100 * reds:.1f}%"]) + " |")
    lines.append("")
    lines.append(f"Average misalignment reduction: jsrs vs 5g "
                 f"{100 * sum(reds_5g) / len(reds_5g):.1f}%, jsrs vs ssb "
                 f"{100 * sum(reds_ssb) / len(reds_ssb):.1f}%.")
    lines.append("")

    # coverage over the (r1, threshold) grid
    r1_grid, threshold_db = COVERAGE_GRID
    budget = LinkBudget.from_params(system, deploy)
    thresholds = [10.0 ** (db / 10.0) for db in threshold_db]
    cov = coverage_sweep(r1_grid, thresholds, SCHEMES, budget, deploy, system)
    lines.append("## Coverage probability (theorem lower bound)")
    lines.append("")
    header = "| r1 [m] | T [dB] | " + " | ".join(SCHEMES) + \
        " | jsrs-vs-perfect gap |"
    lines.append(header)
    lines.append("|---:|---:|" + "---:|" * (len(SCHEMES) + 1))
    table = {}
    for row in cov:
        table.setdefault((row["r1_m"], row["threshold_db"]), {})[row["scheme"]] = row
    gains_5g, gaps = [], []
    for (r1, db) in sorted(table):
        r = table[(r1, db)]
        gap = r["perfect"]["p_cvp"] - r["jsrs"]["p_cvp"]
        gaps.append(gap)
        if r["5g"]["p_cvp"] > 1e-9:
            gains_5g.append(r["jsrs"]["p_cvp"] / r["5g"]["p_cvp"] - 1.0)
        cells = [f"{r[s]['p_cvp']:.6g}" for s in SCHEMES]
        lines.append(f"| {r1:g} | {db:g} | " + " | ".join(cells)
                     + f" | {gap:.6g} |")
    lines.append("")
    if gains_5g:
        lines.append(f"Average jsrs coverage gain vs 5g: "
                     f"{100 * sum(gains_5g) / len(gains_5g):.1f}% "
                     f"(over grid points where the 5g case has coverage).")
    lines.append(f"Largest jsrs-vs-perfect coverage gap on the grid: "
                 f"{max(gaps):.6g}.")
    lines.append("")
    return "\n".join(lines) + "\n"


def _cmd_compare(args, system, deploy):
    _write(args.out, compare_report(system, deploy))
    return 0


# -----------------------------------------------------------------------------
# argument plumbing
# -----------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """argparse type of every float option: inf, nan and non-numbers exit 2."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="isac-thz",
                                 description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    # options that more than one subcommand takes, each declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key=value config file")
    common.add_argument("--out", default=None,
                        help="output CSV/markdown path (default stdout)")
    schemes = argparse.ArgumentParser(add_help=False)
    schemes.add_argument("--schemes", nargs="+", default=list(SCHEMES),
                         choices=SCHEMES)
    lower_bound = argparse.ArgumentParser(add_help=False)
    lower_bound.add_argument("--lower-bound", choices=LOWER_BOUND_MODES,
                             default="theorem", dest="lower_bound")

    def command(name, run, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[common, *parents])
        p.set_defaults(run=run)
        return p

    command("abilities", _cmd_abilities, "sensing-ability reference grid")

    p = command("pattern", _cmd_pattern, "optimal pilot pattern")
    p.add_argument("--d-max-req", type=_finite_float, required=True,
                   dest="d_max_req")
    p.add_argument("--v-max-req", type=_finite_float, required=True,
                   dest="v_max_req")
    p.add_argument("--n-rs", type=int, default=None, dest="n_rs")
    p.add_argument("--verify", action="store_true",
                   help="run the brute-force oracle and print the gap")

    p = command("misalign", _cmd_misalign, "misalignment sweep", schemes)
    p.add_argument("--sweep", choices=("n_b", "n_rs"), default="n_b")

    p = command("coverage", _cmd_coverage, "coverage sweep", schemes,
                lower_bound)
    p.add_argument("--r1-grid", type=_finite_float, nargs="+",
                   default=list(COVERAGE_GRID[0]), dest="r1_grid")
    p.add_argument("--threshold-db-grid", type=_finite_float, nargs="+",
                   default=list(COVERAGE_GRID[1]), dest="threshold_db_grid")

    p = command("simulate", _cmd_simulate, "Monte-Carlo estimates",
                lower_bound)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--strict", action="store_true",
                   help="exit 4 on Monte-Carlo/analytic disagreement")
    p.add_argument("--what", choices=("blockage", "timeout", "misalign",
                                      "coverage"), required=True)
    p.add_argument("--scheme", choices=SCHEMES, default="jsrs")
    p.add_argument("--r-m", type=_finite_float, default=52.0, dest="r_m")
    p.add_argument("--r1-m", type=_finite_float, default=20.0, dest="r1_m")
    p.add_argument("--threshold-db", type=_finite_float, default=5.0,
                   dest="threshold_db")
    p.add_argument("--window-m", type=_finite_float, default=None,
                   dest="window_m")

    command("compare", _cmd_compare, "scheme comparison report")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`'s tree, built at the first `main` call of a process
    and kept: a parse leaves it as it was and returns a namespace of its
    own."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        system, deploy = load_config(args.config)
        code = args.run(args, system, deploy)
    except (ConfigError, InfeasibleRequirementError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numerical error: {exc}", file=_sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    raise SystemExit(main())
