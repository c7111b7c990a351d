"""The repository benchmark: seeded closed-loop CLI workloads.

    python3 perfbench/run.py --workload small-queries --seed 1 --seconds 30 --trace 0

One client sends one query at a time, in-process through
`abelianize.cli.main` (plus a few public library calls), in this single
process with no threads.  A run repeats whole passes over the workload's
seeded query list until `--seconds` would be exceeded (at least the
workload's minimum number of passes) and checks every output against its
reference.  Throughput and median latency come from every timing, or, on a
workload of short queries, from each query's fastest pass.  With `--trace 0`
it prints the end-to-end metrics; with `--trace 1` it alternates untraced
and traced passes and prints the per-layer metrics.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the run's
details (environment, failures, probes, tail percentile, sample count).
Run files (configs, spans, results) go to `.perfbench_out/` in the
checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

END_TO_END = [
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("error_rate", "ratio"),
]

#: Latency slots, allocated before the first pass; a run ends early if they fill.
MAX_SAMPLES = 1 << 16
#: Fewest set-up timings a run takes; they are spread over its timed passes.
SETUP_SAMPLES = 15
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import abelianize.cli\n"
    "abelianize.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def import_program():
    """Import the package from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "abelianize", "cli.py")):
        sys.exit(f"perfbench: no program source at {SRC}/abelianize")
    sys.path.insert(0, SRC)
    import abelianize.cli

    if not os.path.abspath(abelianize.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported abelianize from {abelianize.cli.__file__}, not {SRC}")


def setup_time() -> float:
    """Seconds, in a fresh interpreter, for `import abelianize.cli` plus
    `build_parser()`: what every CLI invocation pays before its query."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def loop_ms() -> float:
    """Median milliseconds of a fixed pure-Python loop.  Taken between
    passes, it shows how fast the CPU ran at that moment: on a shared host a
    busy neighbour on the same core slows it by a third or more."""
    samples = []
    for _ in range(15):
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
    return 1000 * statistics.median(samples)


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark checkout is usually not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- one pass -------------------------------------------------------------------


class Runner:
    """Runs queries in-process and checks their outputs."""

    def __init__(self, golden: dict[str, str]):
        from abelianize import cli, presentation, quotient, ratpoly, schubert

        self.cli, self.presentation, self.quotient = cli, presentation, quotient
        self.ratpoly, self.schubert = ratpoly, schubert
        self.golden = golden

    def _lib(self, lib: tuple) -> str:
        """Library calls go through module attributes, so tracing sees them."""
        kind, k, n, *rest = lib
        if kind == "oracle_betti":
            return ",".join(map(str, self.schubert.oracle_betti(k, n))) + "\n"
        model = self.quotient.grassmannian_model(k, n)
        if kind == "signature_from_pairing":
            value = self.presentation.signature_from_pairing(model)
        elif kind == "segre":
            ring = model.ring
            total_chern = ring.one()
            for i in range(k):
                total_chern = total_chern * (ring.one() + ring.variable(i))
            lift = total_chern.inverse()
            for i, mi in enumerate(rest[0], start=1):
                lift = lift * self.ratpoly.elementary_symmetric(ring, i) ** mi
            value = self.quotient.integrate_group(model, lift)
        else:
            raise ValueError(f"unknown library call {kind!r}")
        return f"{value}\n"

    def run_pass(self, queries, tracer=None):
        """One closed-loop pass: (results, latencies in s, wall seconds).
        A result is (exit status or exception text, stdout, stderr)."""
        results, latencies = [], []
        clock = time.perf_counter
        gc.collect()
        wall = clock()
        for qid, q in enumerate(queries):
            out, err = io.StringIO(), io.StringIO()
            scope = tracer.query(qid) if tracer is not None else contextlib.nullcontext()
            with scope, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = clock()
                try:
                    if q.lib:
                        print(self._lib(q.lib), end="")
                        status = 0
                    else:
                        status = self.cli.main(list(q.argv))
                except SystemExit as exc:
                    status = exc.code
                except Exception as exc:  # a crash is a failed query, not a failed run
                    status = f"{type(exc).__name__}: {exc}"
                latencies.append(clock() - start)
            results.append((status, out.getvalue(), err.getvalue()))
        return results, latencies, clock() - wall

    def check(self, q, result) -> str | None:
        """None when the output is right, else a short reason."""
        status, out, err = result
        if q.error_at is not None:
            if status == 2 and out == "" and err.startswith(f"config error: {q.error_at}"):
                return None
            if q.stdout is None:
                return f"expected a located exit 2, got status {status!r}: {err.strip()[:120]!r}"
        want = self.golden.get(q.stored) if q.stored is not None else q.stdout
        if want is None:
            return f"no stored output for {q.stored!r}"
        if status != 0:
            return f"status {status!r}: {err.strip()[:120]!r}"
        if out != want:
            return f"stdout {out[:80]!r} != expected {want[:80]!r}"
        return None


class Tally:
    """A run's verdicts, added pass by pass: counters, the first failure of
    each query and the latest verdict of each known-defect probe."""

    def __init__(self, runner: Runner, queries):
        self.runner, self.queries = runner, queries
        self.attempted = self.failed = self.stored_checked = 0
        self.failures: dict[str, str] = {}
        self.probes: dict[str, str] = {}

    def add(self, results) -> None:
        for q, result in zip(self.queries, results):
            reason = self.runner.check(q, result)
            self.attempted += 1
            self.failed += reason is not None
            self.stored_checked += q.stored is not None
            if q.probe is not None:
                self.probes[q.probe] = "pass" if reason is None else f"fail: {reason}"
            elif reason is not None:
                self.failures.setdefault(q.name, reason)


def quantile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank quantile of sorted values."""
    rank = math.ceil(round(fraction * len(sorted_values), 9))
    return sorted_values[max(rank, 1) - 1]


def run(args) -> int:
    import_program()
    import tracer as tracing
    import workloads

    load_before = os.getloadavg()
    env = environment()
    work_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    workload = workloads.build(args.workload, args.seed, os.path.join(work_dir, "configs"))
    workload.write_files()
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    runner = Runner(golden)
    queries = workload.queries

    # The first pass grows the heap and warms first-call paths; its outputs
    # are checked but its times are not used.  Each pass's outputs are
    # checked as soon as it ends and then dropped, and latencies go to a
    # buffer allocated up front, so memory does not grow with the number of
    # passes and peak RSS stays the program's.
    tally = Tally(runner, queries)
    latencies = array("d", [0.0]) * MAX_SAMPLES
    samples, walls, traced_walls, trace_mismatch = 0, [], [], 0
    tracer = tracing.Tracer() if args.trace else None
    min_passes = 1 if tracer else workload.min_rounds
    # Set-up is timed a few times after every timed pass, so that its median
    # spans the whole run rather than one moment of a shared host.  The first
    # interpreter only warms the bytecode cache.
    setup_samples, setup_per_pass = [], 0 if tracer else math.ceil(SETUP_SAMPLES / min_passes)
    if setup_per_pass:
        setup_time()
    started = time.perf_counter()
    tally.add(runner.run_pass(queries)[0])
    loop_samples = []
    measured_from = time.perf_counter()
    while samples + len(queries) <= MAX_SAMPLES:
        loop_samples.append(round(loop_ms(), 3))
        results, pass_latencies, wall = runner.run_pass(queries)
        tally.add(results)
        latencies[samples:samples + len(queries)] = array("d", pass_latencies)
        samples += len(queries)
        walls.append(wall)
        if tracer is not None:
            with tracer:
                traced, _, wall = runner.run_pass(queries, tracer)
            tally.add(traced)
            trace_mismatch += sum(a[:2] != b[:2] for a, b in zip(results, traced))
            traced_walls.append(wall)
            traced = None
        results = None
        setup_samples.extend(setup_time() for _ in range(setup_per_pass))
        now = time.perf_counter()
        if len(walls) >= min_passes and now - started + (now - measured_from) / len(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    load_after = os.getloadavg()

    timed = latencies[:samples]
    if workload.best_of_passes:
        # Each query's fastest timing over the run's passes.  A query of a
        # few ms that ran while another tenant slowed the shared CPU has many
        # cleaner timings to fall back on; a pass of such queries does not.
        best = [min(timed[i::len(queries)]) for i in range(len(queries))]
        queries_per_s, p50 = len(queries) / sum(best), statistics.median(best)
    else:
        queries_per_s, p50 = samples / sum(walls), statistics.median(timed)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": {**env, "load_before": load_before, "load_after": load_after,
                "loop_ms_per_pass": loop_samples},
        "queries_per_pass": len(queries), "passes": len(walls),
        "samples": samples, "setup_samples": len(setup_samples),
        "tail_percentile": round(100 * workload.tail_fraction, 1),
        "best_of_passes": workload.best_of_passes,
        "checked_against_stored": tally.stored_checked, "probes": tally.probes,
        "failures": tally.failures, "trace_stdout_mismatches": trace_mismatch,
        "wall_s": round(time.perf_counter() - started, 3),
    }
    if tracer is None:
        metrics = {
            "queries_per_s": queries_per_s,
            "query_p50_ms": 1000 * p50,
            "query_tail_ms": 1000 * quantile(sorted(timed), workload.tail_fraction),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
            "error_rate": tally.failed / tally.attempted,
        }
        units = dict(END_TO_END)
    else:
        metrics = tracer.metrics(len(walls), sum(traced_walls) / sum(walls))
        units = dict(tracing.METRICS)
        details["self_time_shares"] = {k: round(v, 4) for k, v in list(tracer.self_time_shares().items())[:12]}
        tracer.write_spans(os.path.join(work_dir, "spans.jsonl"))

    result = {
        "correct": not tally.failures and trace_mismatch == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(os.path.join(work_dir, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result}, fh, indent=2)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
