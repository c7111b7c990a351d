"""Alternating benchmark pairs, parent against change, and their summary.

    python tools/bench_pairs.py PARENT CHANGE --workload small-queries --pairs 10 \\
        --seconds 55 --seed-base 900

Pair i runs `perfbench/run.py --trace 0` on seed N + i in each checkout, in
a fresh interpreter, the parent first in even pairs and the change first in
odd ones, and reads the result from each run's last stdout line.  Each run's
metrics go to stderr as one JSON line as it ends.  Then, for each end-to-end
metric that the parent's BENCHMARK.json lists, stdout gets each side's
median and quartiles (`statistics.quantiles`, exclusive method), the
change's median relative to the parent's, and how many pairs the change won,
ties counting for neither.  A gain holds where the change wins at least nine
pairs in ten and its median is better than the parent's by more than the
distance between the parent's quartiles.  Each run writes and reads its
bytecode under PYTHONPYCACHEPREFIX=`.perfbench_out/pycache` in its own
checkout, with bytecode writing on whatever the calling environment says,
so that both sides import modules compiled from their own sources: with
PYTHONDONTWRITEBYTECODE set, a checkout whose `__pycache__` is stale
recompiles on every import, which shows in `setup_s`.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import NamedTuple, Sequence


class Row(NamedTuple):
    """One metric over the pairs: (q1, median, q3) of each side."""

    name: str
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int
    pairs: int
    holds: bool


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(pairs: Sequence[tuple[dict, dict]], better: dict[str, str]) -> list[Row]:
    """The rows of (parent metrics, change metrics) pairs, for each metric
    whose better direction is "higher" or "lower"."""
    rows = []
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        qp, qc = quartiles(parent), quartiles(change)
        holds = 10 * wins >= 9 * len(pairs) and sign * (qc[1] - qp[1]) > qp[2] - qp[0]
        rows.append(Row(name, qp, qc, wins, len(pairs), holds))
    return rows


def format_row(row: Row) -> str:
    def side(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    rel = f"{100 * (row.change[1] / row.parent[1] - 1):+.1f}%" if row.parent[1] else "n/a"
    verdict = "gain holds" if row.holds else "no gain shown"
    return (f"{row.name:16s} parent {side(row.parent):32s} change {side(row.change):32s} "
            f"{rel:>7s}  change ahead {row.wins}/{row.pairs}  {verdict}")


def run_env(checkout: str) -> dict[str, str]:
    """This environment with bytecode writing on, into the checkout's own
    `.perfbench_out/pycache`, where the benchmark keeps its run files."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = os.path.join(os.path.abspath(checkout), ".perfbench_out", "pycache")
    return env


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one untraced run in the checkout."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=run_env(checkout), capture_output=True, text=True,
        timeout=30 * seconds + 600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    pairs, wrong = [], []
    for i in range(args.pairs):
        seed, sides = args.seed_base + i, {}
        for label in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_side(getattr(args, label), args.workload, seed, args.seconds)
            sides[label] = {name: m["value"] for name, m in result["metrics"].items()}
            if not result["correct"]:
                wrong.append(f"{label} seed {seed}")
            print(json.dumps({"pair": i, "seed": seed, "side": label, **sides[label]}),
                  file=sys.stderr, flush=True)
        pairs.append((sides["parent"], sides["change"]))
    last = args.seed_base + args.pairs - 1
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed_base}..{last}, "
          f"{args.seconds:g} s per run; median [q1, q3]")
    for row in summarize(pairs, better):
        print(format_row(row))
    if wrong:
        print("runs not correct: " + ", ".join(wrong))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
