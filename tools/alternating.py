"""Plumbing of the tools that compare a parent and a change source tree,
each side measured by the tool's hidden --measure in fresh interpreters."""

import argparse
import json
import subprocess
import sys
from pathlib import Path


def parser(doc: str) -> argparse.ArgumentParser:
    """A parser of the two trees and of --measure SRC and --round K, hidden."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("trees", nargs="*", type=Path,
                    help="the parent's and the change's source trees")
    ap.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--round", type=int, default=0, help=argparse.SUPPRESS)
    return ap


def parse(ap: argparse.ArgumentParser, argv, measure) -> tuple:
    """The arguments and {"parent": tree, "change": tree}, given both.
    With --measure SRC, import ``isacthz`` from SRC and nowhere else, print
    measure(args) as JSON and exit instead."""
    args = ap.parse_args(argv)
    if args.measure is not None:
        sys.path.insert(0, str(args.measure))
        import isacthz
        if Path(isacthz.__file__).resolve().parent.parent != args.measure.resolve():
            raise SystemExit(f"isacthz imported from {isacthz.__file__}, not {args.measure}")
        print(json.dumps(measure(args)))
        raise SystemExit
    if len(args.trees) != 2:
        ap.error("give the parent's and the change's source trees")
    return args, dict(zip(("parent", "change"), args.trees))


def alternate(script: str, trees: dict, rounds: int, flags: list) -> dict:
    """Per side, the JSON that `script --measure SRC --round k *flags`
    prints for that tree's src/ in a fresh interpreter, k = 0 .. rounds - 1.
    The parent goes first at even k, the change at odd k, so that a drift
    in the host's speed lands on both sides alike."""
    runs = {"parent": [], "change": []}
    for k in range(rounds):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            out = subprocess.run([sys.executable, script, "--measure", str(trees[side] / "src"),
                                  "--round", str(k), *flags],
                                 capture_output=True, text=True, check=True)
            runs[side].append(json.loads(out.stdout))
    return runs
