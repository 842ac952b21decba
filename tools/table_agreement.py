"""Agreement and build cost of the shot-noise tables between two source
trees.

    python3 tools/table_agreement.py PARENT_TREE CHANGE_TREE [--rounds 5]
        [--repeats 3]

Each tree's tables are built in interpreters of their own that import
``isacthz`` from that tree's ``src/`` and nowhere else, one per round and
tree, the trees alternating round by round (tools/alternating.py).  The
tables, each integrated over its whole grid from a cold cache: the four
default ones (lower bound 2 r_b, 10, 20 and 40 m), the five edge
deployments of the tests at 2 r_b (dense and sparse nodes, lossless,
narrow and wide beams) and the default deployment at 0.1 and 3 times the
default absorption, at 2 r_b.

Prints one JSON object.  Per table, from the first round's interpreters:
whether the grid size and s_hi are equal on both sides, the largest
|change - parent| over the largest |parent| value of its component
(``max_abs_over_scale``), the largest |change - parent| / |parent| over the
nonzero parent entries (``max_rel``), and each side's Gauss-Kronrod panels
and calls.  Per table and side, the build seconds of every round (each the
median of --repeats cold builds in that interpreter), and the median over
the rounds of the change/parent ratio of the two interpreters' seconds
(``time_ratio``).
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import replace

from alternating import alternate, parse, parser


def _tables():
    """{name: (budget, deployment, lower bound)} of the package imported."""
    from isacthz.channel import LinkBudget
    from isacthz.config import Deployment, SystemParams

    system, deploy = SystemParams(), Deployment()
    budget = LinkBudget.from_params(system, deploy)
    two_rb = 2.0 * deploy.r_b
    tables = {f"default_{lower:g}m": (budget, deploy, lower)
              for lower in (two_rb, 10.0, 20.0, 40.0)}
    edges = {"dense_nodes": {"lambda_b": 10 * deploy.lambda_b},
             "sparse_nodes": {"lambda_b": deploy.lambda_b / 10},
             "narrow_beams": {"n_b": 1024, "n_m": 1024},
             "wide_beams": {"n_b": 8, "n_m": 8}}
    for name, overrides in edges.items():
        dep = replace(deploy, **overrides)
        tables[name] = (LinkBudget.from_params(system, dep), dep, two_rb)
    for name, scale in (("lossless", 0.0), ("absorption_0.1x", 0.1),
                        ("absorption_3x", 3.0)):
        tables[name] = (replace(budget, k_abs=scale * budget.k_abs), deploy, two_rb)
    return tables


def _measure(repeats: int, values: bool) -> dict:
    """Per table: build seconds (median of `repeats` cold builds), and with
    `values` the grid, s_hi, entries, panels and Gauss-Kronrod calls of one
    counted build."""
    from isacthz import coverage, specfun

    def build(args):
        coverage.clear_field_cache()
        table = coverage._split_table(*args)
        return table, table.extend(table.grid.size)

    out = {}
    for name, args in _tables().items():
        row = {}
        if values:
            panels, gk15 = [], specfun._gk15_batch

            def counted(f, a, b, owner):
                panels.append(a.size)
                return gk15(f, a, b, owner)

            specfun._gk15_batch = counted
            try:
                table, split = build(args)
            finally:
                specfun._gk15_batch = gk15
            row.update(grid_size=int(table.grid.size), s_hi=table.s_hi,
                       split=split.tolist(), panels=sum(panels),
                       gk_calls=len(panels))
        seconds = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            build(args)
            seconds.append(time.perf_counter() - t0)
        row["seconds"] = statistics.median(seconds)
        out[name] = row
    return out


def _agreement(parent: dict, change: dict) -> dict:
    """Equality of the grids and the size of the entries' differences."""
    worst_scale = worst_rel = 0.0
    for p_row, c_row in zip(parent["split"], change["split"]):
        scale = max(abs(v) for v in p_row)
        for p, c in zip(p_row, c_row):
            diff = abs(c - p)
            if scale > 0.0:
                worst_scale = max(worst_scale, diff / scale)
            if p != 0.0:
                worst_rel = max(worst_rel, diff / abs(p))
    return {"grid_size_equal": parent["grid_size"] == change["grid_size"],
            "s_hi_equal": parent["s_hi"] == change["s_hi"],
            "grid_size": [parent["grid_size"], change["grid_size"]],
            "max_abs_over_scale": worst_scale, "max_rel": worst_rel,
            "panels": [parent["panels"], change["panels"]],
            "gk_calls": [parent["gk_calls"], change["gk_calls"]]}


def main(argv=None) -> None:
    ap = parser(__doc__)
    ap.add_argument("--rounds", type=int, default=5,
                    help="interpreters per side, alternating")
    ap.add_argument("--repeats", type=int, default=3,
                    help="cold builds per table and interpreter")
    # the first round's interpreters also record the values
    args, trees = parse(ap, argv, lambda args: _measure(args.repeats, args.round == 0))
    if args.rounds < 1 or args.repeats < 1:
        ap.error("--rounds and --repeats must be >= 1")
    runs = alternate(__file__, trees, args.rounds, ["--repeats", str(args.repeats)])
    tables = {}
    for name in runs["parent"][0]:
        seconds = {side: [run[name]["seconds"] for run in side_runs]
                   for side, side_runs in runs.items()}
        tables[name] = {
            **_agreement(runs["parent"][0][name], runs["change"][0][name]),
            "seconds": seconds,
            "time_ratio": statistics.median(
                c / p for p, c in zip(seconds["parent"], seconds["change"]))}
    print(json.dumps({"rounds": args.rounds, "repeats": args.repeats,
                      "trees": {side: str(tree) for side, tree in trees.items()},
                      "tables": tables}, indent=1))


if __name__ == "__main__":
    main()
