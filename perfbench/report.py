"""Run every workload untraced and traced and print all metrics.

    python3 perfbench/report.py --seed 1

Each run is a fresh `perfbench/run.py` interpreter, so memory is measured
per workload, and lasts `run_seconds` from BENCHMARK.json.  Prints the end-to-end metrics of every workload by name and
unit, the per-layer metrics of the traced runs, the largest self-time
shares, and the known-defect probes; the combined record is written to
`.perfbench_out/report-seed<N>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run.import_program()
    import workloads

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    report = {}
    for workload in workloads.WORKLOADS:
        report[workload] = {trace: run_one(workload, args.seed, seconds, trace) for trace in (0, 1)}

    print(f"seed {args.seed}, {seconds} s per run")
    for trace, title in ((0, "end-to-end (untraced)"), (1, "per-layer (traced, per pass)")):
        print(f"\n== {title}")
        names = list(report[workloads.WORKLOADS[0]][trace][1]["metrics"])
        print(f"{'metric':42s}" + "".join(f"{w:>22s}" for w in workloads.WORKLOADS) + "  unit")
        for name in names:
            cells = [report[w][trace][1]["metrics"][name]["value"] for w in workloads.WORKLOADS]
            unit = report[workloads.WORKLOADS[0]][trace][1]["metrics"][name]["unit"]
            print(f"{name:42s}" + "".join(f"{v:22.6g}" for v in cells) + f"  {unit}")
    for workload in workloads.WORKLOADS:
        details, result = report[workload][0]
        traced = report[workload][1][0]
        print(f"\n== {workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} samples={details['samples']} "
              f"tail=p{details['tail_percentile']} stored-checked={details['checked_against_stored']}")
        for probe, verdict in details["probes"].items():
            print(f"   probe {probe}: {verdict}")
        for name, reason in details["failures"].items():
            print(f"   FAILED {name}: {reason}")
        shares = ", ".join(f"{k} {100 * v:.1f}%" for k, v in traced["self_time_shares"].items())
        print(f"   self-time shares (traced): {shares}")
    path = os.path.join(run.OUT, f"report-seed{args.seed}.json")
    os.makedirs(run.OUT, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
