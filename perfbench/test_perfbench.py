"""Self-tests of the benchmark: seeds, references, wrappers, failure mode.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_program()

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from abelianize import charclass, cli, config, presentation, ratpoly  # noqa: E402
import abelianize  # noqa: E402


def _build(name, seed, tmp_path):
    return workloads.build(name, seed, str(tmp_path / "configs"))


# -- seeds ----------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_list(name, tmp_path):
    a, b = _build(name, 7, tmp_path), _build(name, 7, tmp_path)
    assert [q.argv for q in a.queries] == [q.argv for q in b.queries]
    assert [q.lib for q in a.queries] == [q.lib for q in b.queries]
    assert a.files == b.files
    c = _build(name, 8, tmp_path)
    assert [(q.argv, q.lib) for q in c.queries] != [(q.argv, q.lib) for q in a.queries]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_program_receives_only_generated_argv_and_configs(name, tmp_path, monkeypatch):
    w = _build(name, 3, tmp_path)
    referenced = {arg for q in w.queries for arg in q.argv if arg.endswith(".json")}
    assert referenced == set(w.files)
    seen = []
    monkeypatch.setattr(cli, "main", lambda argv: seen.append(argv) or 0)
    cli_queries = [q for q in w.queries if q.argv]
    run.Runner({}).run_pass(cli_queries)
    assert seen == [list(q.argv) for q in cli_queries]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_generated_argv_parses(name, tmp_path, capsys):
    # Seed 199673043 draws a single negative term as a small-queries
    # integrand, which the parser would take for an option without `--`.
    parser = cli.build_parser()
    for seed in (*range(10), 199673043):
        for q in _build(name, seed, tmp_path).queries:
            if q.argv:
                try:
                    parser.parse_args(list(q.argv))
                except SystemExit:
                    pytest.fail(f"seed {seed}: {q.argv} does not parse: {capsys.readouterr().err}")


def test_tail_leaves_ten_samples_in_smallest_run(tmp_path):
    for name in workloads.WORKLOADS:
        w = _build(name, 1, tmp_path)
        n = w.min_rounds * len(w.queries)
        values = sorted(range(n))
        tail = run.quantile(values, w.tail_fraction)
        assert sum(v > tail for v in values) >= 10


def test_known_defect_probes_stay_in_the_workloads(tmp_path):
    probes = {q.probe for name in workloads.WORKLOADS for q in _build(name, 1, tmp_path).queries}
    assert probes - {None} == {
        "orbifold-pairing-ignores-prefactor",
        "matrix-generator-wrong-weyl-order",
        "empty-weyl-action",
    }


# -- references -------------------------------------------------------------------


@pytest.mark.parametrize("k,n", [(1, 4), (2, 4), (2, 5), (3, 6), (3, 7), (4, 6)])
def test_localization_reproduces_closed_forms(k, n):
    order = k * (n - k)
    assert oracles.characteristic_number(k, n, [1, 1]) == oracles.euler(k, n)
    assert oracles.characteristic_number(k, n, list(charclass.todd_series(order).coeffs)) == 1
    l_class = list(charclass.l_class_series(order).coeffs)
    assert oracles.characteristic_number(k, n, l_class) == oracles.signature(k, n)


@pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (2, 7), (3, 6), (3, 7)])
def test_gaussian_binomial_is_the_betti_sequence(k, n):
    assert oracles.gaussian_binomial(n, k) == oracles.oracle_betti(k, n)


def test_weyl_dimension_and_segre_references():
    assert oracles.weyl_dimension(2, 4, 1) == 6
    assert oracles.weyl_dimension(3, 7, 0) == 1
    assert oracles.weyl_dimension(3, 7, -1) == 0
    # (1 + e_1 + ... + e_k)^(-1) has no part above degree n - k
    assert oracles.segre_pairing(3, 6, (4, 0, 0)) == 0
    assert oracles.segre_pairing(2, 4, (4, 0)) == 2


def test_expanded_e_monomials_parse_to_the_engine_product():
    ring = ratpoly.Ring(3, [5, 5, 5])
    text = oracles.poly_text({e: Fraction(c) for e, c in oracles.expand_e_monomial(3, 5, (2, 1, 1)).items()})
    e = [ratpoly.elementary_symmetric(ring, i) for i in (1, 2, 3)]
    assert ratpoly.parse_poly(ring, text) == e[0] ** 2 * e[1] * e[2]


# -- tracing ----------------------------------------------------------------------


def _originals():
    return [tracing._resolve(module, path) for module, path, *_ in tracing.TRACED]


def _bindings(obj):
    return [(owner, key) for owner, mapping, _ in tracing._namespaces()
            for key, value in list(mapping.items()) if value is obj]


def test_wrappers_patch_every_namespace_and_uninstall_restores():
    originals = _originals()
    before = {id(o): len(_bindings(o)) for o in originals}
    mul = ratpoly.Poly.__dict__["__mul__"]
    with tracing.Tracer():
        for original in originals:
            assert _bindings(original) == [], f"{original.__qualname__} left unwrapped"
        for fn in (charclass.eval_series, charclass.exp_series, charclass.integrate_torus,
                   cli.chern_pairing, cli.integrate_group, cli.parse_poly, config.QuotientModel.e_class,
                   presentation.exponent_orbit, abelianize.chern_pairing, abelianize.Poly.__rmul__):
            assert hasattr(fn, "__wrapped__")
        assert ratpoly.Poly.__dict__["__rmul__"] is ratpoly.Poly.__dict__["__mul__"]
        assert ratpoly.Poly.__dict__["__rmul__"].__wrapped__ is mul
        assert all(hasattr(f, "__wrapped__") for f in charclass.CLASS_SERIES.values())
    assert ratpoly.Poly.__dict__["__rmul__"] is mul
    assert {id(o): len(_bindings(o)) for o in originals} == before


def test_traced_passes_hit_every_function_and_keep_stdout(tmp_path):
    golden_path = os.path.join(run.HERE, "golden.json")
    with open(golden_path, encoding="utf-8") as fh:
        runner = run.Runner(json.load(fh))
    hit = set()
    for name in workloads.WORKLOADS:
        w = _build(name, 2, tmp_path / name)
        w.write_files()
        plain, _, _ = runner.run_pass(w.queries)
        t = tracing.Tracer()
        with t:
            traced, _, _ = runner.run_pass(w.queries, t)
        assert [r[:2] for r in traced] == [r[:2] for r in plain], name
        assert all(runner.check(q, r) is None for q, r in zip(w.queries, traced) if q.probe is None), name
        hit |= {span[0] for span in t.spans}
    assert {name for _, _, name, *_ in tracing.TRACED} <= hit


# -- failure mode -----------------------------------------------------------------


def test_exits_nonzero_without_result_when_program_is_absent(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert done.stdout == ""
