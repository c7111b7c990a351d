"""Tests for tools/bench_pairs.py on canned results; no benchmark runs."""

import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(HERE, os.pardir, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"queries_per_s": "higher", "query_p50_ms": "lower"}


def canned(parent_qps, change_qps, parent_p50, change_p50):
    return [({"queries_per_s": a, "query_p50_ms": c}, {"queries_per_s": b, "query_p50_ms": d})
            for a, b, c, d in zip(parent_qps, change_qps, parent_p50, change_p50)]


class TestSummary:
    def test_a_clear_gain_holds_in_both_directions(self):
        parent = [3600, 3650, 3700, 3620, 3580, 3640, 3690, 3610, 3660, 3630]
        pairs = canned(parent, [x + 500 for x in parent], [0.21] * 10, [0.17] * 10)
        qps, p50 = bench_pairs.summarize(pairs, BETTER)
        assert qps.parent == (3607.5, 3635.0, 3667.5)  # exclusive method
        assert qps.change[1] == 4135.0
        assert (qps.wins, qps.pairs, qps.holds) == (10, 10, True)
        assert (p50.wins, p50.holds) == (10, True)
        assert "+13.8%  change ahead 10/10  gain holds" in bench_pairs.format_row(qps)

    def test_eight_wins_in_ten_are_not_enough(self):
        parent = [100.0] * 10
        change = [200.0] * 8 + [50.0] * 2
        (qps,) = bench_pairs.summarize(canned(parent, change, [1] * 10, [1] * 10),
                                       {"queries_per_s": "higher"})
        assert (qps.wins, qps.holds) == (8, False)

    def test_a_gap_inside_the_parents_quartiles_is_not_a_gain(self):
        parent = [90, 110, 95, 105, 100, 80, 120, 85, 115, 100]
        change = [x + 5 for x in parent]
        (qps,) = bench_pairs.summarize(canned(parent, change, [1] * 10, [1] * 10),
                                       {"queries_per_s": "higher"})
        assert qps.wins == 10
        assert qps.change[1] - qps.parent[1] < qps.parent[2] - qps.parent[0]
        assert not qps.holds

    def test_ties_count_for_neither_side(self):
        pairs = canned([1.0] * 10, [1.0] * 10, [2.0] * 10, [2.0] * 10)
        assert [(r.wins, r.holds) for r in bench_pairs.summarize(pairs, BETTER)] == [
            (0, False), (0, False)]

    def test_a_single_pair(self):
        (qps,) = bench_pairs.summarize(canned([10], [12], [1], [1]), {"queries_per_s": "higher"})
        assert (qps.parent, qps.change, qps.holds) == ((10,) * 3, (12,) * 3, True)


def test_main_alternates_sides_and_reads_the_parents_metrics(tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    doc = {"end_to_end": [{"name": "queries_per_s", "better": "higher"}]}
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(doc))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((os.path.basename(checkout), seed))
        value = 100 + seed + (50 if checkout.endswith("change") else 0)
        return {"correct": True, "metrics": {"queries_per_s": {"value": value, "unit": "1/s"}}}

    monkeypatch.setattr(bench_pairs, "run_side", fake_run)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
            "--pairs", "3", "--seconds", "1", "--seed-base", "40"]
    assert bench_pairs.main(argv) == 0
    assert calls == [("parent", 40), ("change", 40), ("change", 41), ("parent", 41),
                     ("parent", 42), ("change", 42)]
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "w: 3 pairs, seeds 40..42, 1 s per run; median [q1, q3]"
    assert "change ahead 3/3  gain holds" in out
    assert len(err.splitlines()) == 6


def test_each_side_compiles_into_a_bytecode_directory_of_its_own(tmp_path, monkeypatch):
    # with PYTHONDONTWRITEBYTECODE set, a checkout whose __pycache__ is stale
    # recompiles on every import; each side's runs write their bytecode
    # under the checkout's own run-file directory instead
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    calls = []

    def fake_subprocess_run(argv, cwd, env, **kwargs):
        calls.append((cwd, env))
        line = json.dumps({"correct": True, "metrics": {}})
        return bench_pairs.subprocess.CompletedProcess(argv, 0, stdout=f"details\n{line}\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    for side in ("parent", "change", "parent"):
        assert bench_pairs.run_side(str(tmp_path / side), "w", 1, 1) == {"correct": True, "metrics": {}}
    prefixes = [env["PYTHONPYCACHEPREFIX"] for _, env in calls]
    assert prefixes == [str(tmp_path / side / ".perfbench_out" / "pycache")
                        for side in ("parent", "change", "parent")]
    assert all("PYTHONDONTWRITEBYTECODE" not in env for _, env in calls)
    assert calls[0][1]["PATH"] == os.environ["PATH"]


@pytest.mark.parametrize("correct, status", [(True, 0), (False, 1)])
def test_main_names_runs_that_are_not_correct(tmp_path, monkeypatch, capsys, correct, status):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    monkeypatch.setattr(bench_pairs, "run_side",
                        lambda *args: {"correct": correct, "metrics": {}})
    argv = [str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "1", "--seed-base", "7"]
    assert bench_pairs.main(argv) == status
    assert ("runs not correct: parent seed 7, change seed 7" in capsys.readouterr().out) != correct


def test_main_refuses_no_pairs(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "0",
                          "--seed-base", "1"])
    assert exc.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err
