"""Tests for the command-line driver and the config schema."""

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from abelianize import charclass, cli, presentation, quotient
from abelianize.config import (
    ConfigError,
    load_config,
    model_from_config,
    model_to_config,
)
from abelianize.charclass import (
    chern_character,
    exterior_power,
    mult_class,
    todd_series,
    total_chern_series,
)
from abelianize.presentation import poincare_polynomial
from abelianize.quotient import (
    QuotientModel,
    SplitBundle,
    all_points,
    grassmannian_model,
    integrate_points,
    integrate_torus,
)
from abelianize.ratpoly import Poly, Ring, Series
from abelianize.rootdata import unitary_roots
from abelianize.schubert import oracle_betti


def run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestSubcommands:
    def test_pairing(self, capsys):
        status, out, _ = run(capsys, "pairing", "--grassmannian", "2", "4", "--exps", "4,0")
        assert status == 0
        assert out == "2\n"

    def test_pairing_with_oracle(self, capsys):
        status, out, _ = run(
            capsys, "pairing", "--grassmannian", "2", "4", "--exps", "2,1", "--oracle"
        )
        assert status == 0
        assert out == "1\n"

    def test_pairing_table_csv(self, capsys):
        status, out, _ = run(
            capsys, "pairing", "--grassmannian", "2", "4", "--table", "--format", "csv"
        )
        assert status == 0
        assert out.splitlines() == ["m_1,m_2,value", "0,2,1", "2,1,1", "4,0,2"]

    def test_betti(self, capsys):
        status, out, _ = run(capsys, "betti", "--grassmannian", "2", "4")
        assert status == 0
        assert out == "1,1,2,1,1\n"

    def test_betti_csv(self, capsys):
        status, out, err = run(capsys, "betti", "--grassmannian", "2", "4", "--format", "csv")
        assert (status, err) == (0, "")
        assert out.splitlines() == ["degree,betti", "0,1", "1,1", "2,2", "3,1", "4,1"]

    def test_euler(self, capsys):
        status, out, _ = run(capsys, "euler", "--grassmannian", "2", "4")
        assert status == 0
        assert out == "6\n"

    def test_signature(self, capsys):
        status, out, _ = run(capsys, "signature", "--grassmannian", "2", "4")
        assert status == 0
        assert out == "2\n"

    def test_integrate_group_and_torus(self, capsys):
        status, out, _ = run(
            capsys, "integrate", "--grassmannian", "2", "4", "u1^3*u2^3", "--torus"
        )
        assert status == 0
        assert out == "1\n"
        status, out, _ = run(capsys, "integrate", "--grassmannian", "1", "2", "u1")
        assert status == 0
        assert out == "1\n"

    def test_charnum_matches_euler(self, capsys):
        _, chern_out, _ = run(
            capsys, "charnum", "--grassmannian", "2", "4", "--class", "total-chern"
        )
        _, euler_out, _ = run(capsys, "euler", "--grassmannian", "2", "4")
        assert chern_out == euler_out

    def test_charnum_custom_series(self, capsys):
        status, out, _ = run(
            capsys, "charnum", "--grassmannian", "1", "4", "--series", "1,0,0,0"
        )
        assert status == 0
        assert out == "0\n"

    def test_index_with_check(self, capsys):
        status, out, _ = run(
            capsys,
            "index",
            "--grassmannian",
            "2",
            "4",
            "--line",
            "1,1",
            "--check-two-term",
        )
        assert status == 0
        assert out == "6\n"

    def test_g5_10_reaches_its_closed_forms(self, capsys):
        # C(10,5) = 252 is the Euler characteristic and the Weyl dimension of
        # the Pluecker line; the Todd genus is 1, the dimension 25 is odd
        g = ("--grassmannian", "5", "10")
        assert run(capsys, "euler", *g) == (0, "252\n", "")
        assert run(capsys, "charnum", *g, "--class", "todd") == (0, "1\n", "")
        assert run(capsys, "signature", *g) == (0, "0\n", "")
        assert run(capsys, "index", *g, "--line=1,1,1,1,1") == (0, "252\n", "")

    def test_line_twist_with_a_leading_minus(self, capsys):
        status, out, err = run(capsys, "index", "--grassmannian", "2", "4", "--line=-1,-1")
        assert (status, out, err) == (0, "0\n", "")

    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        g24 = ("--grassmannian", "2", "4")
        assert run(capsys, "index", *g24, "--line=1,1") == (0, "6\n", "")
        assert run(capsys, "index", *g24) == (0, "1\n", "")
        for argv, code in [(("index", *g24, "--line"), 2), (("--help",), 0)]:
            with pytest.raises(SystemExit) as exit_info:
                cli.main(list(argv))
            assert exit_info.value.code == code
            capsys.readouterr()
            assert run(capsys, "betti", *g24) == (0, "1,1,2,1,1\n", "")

    def test_presentation_csv(self, capsys):
        status, out, _ = run(
            capsys, "presentation", "--grassmannian", "2", "4", "--format", "csv"
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "degree,dim_invariants,dim_ann,betti"
        assert lines[1] == "0,1,0,1"
        assert lines[-1] == "4,2,1,1"

    def test_latex_fractions(self, capsys):
        status, out, _ = run(
            capsys,
            "integrate",
            "--grassmannian",
            "2",
            "4",
            "1/2*u1^3*u2^3",
            "--torus",
            "--latex",
        )
        assert status == 0
        assert out == "\\frac{1}{2}\n"

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "presentation", "--grassmannian", "2", "5")
        _, second, _ = run(capsys, "presentation", "--grassmannian", "2", "5")
        assert first == second

    def test_oracle_check_full_sweep(self, capsys):
        status, out, _ = run(capsys, "oracle-check", "--max-k", "3", "--max-n", "7")
        assert status == 0
        lines = out.splitlines()
        assert len(lines) == 19  # 18 models plus the total line
        assert lines[-1].endswith("ok")

    def test_oracle_check_reports_mismatch(self, capsys, monkeypatch):
        from fractions import Fraction

        import abelianize.cli as climod

        monkeypatch.setattr(
            climod.schubert, "oracle_chern_pairing", lambda k, n, exps: Fraction(999)
        )
        status, _, err = run(capsys, "oracle-check", "--grassmannian", "1", "2")
        assert status == 3
        assert "999" in err

    def test_usage_errors_exit_2(self, capsys):
        status, _, err = run(capsys, "pairing", "--grassmannian", "2", "4")
        assert status == 2
        assert "--exps" in err
        status, _, err = run(capsys, "pairing", "--grassmannian", "2", "4", "--exps", "1")
        assert status == 2
        status, _, err = run(capsys, "euler")
        assert status == 2

    @pytest.mark.parametrize("k, n", [("0", "3"), ("-1", "3"), ("4", "3"), ("1", "0")])
    def test_bad_grassmannian_exits_2(self, capsys, k, n):
        # the built-in model skips the generic checks once k and n are valid
        for argv in (("euler",), ("betti",), ("pairing", "--exps", "1")):
            status, out, err = run(capsys, argv[0], "--grassmannian", k, n, *argv[1:])
            assert (status, out) == (2, "")
            assert "--grassmannian" in err and "1 <= K <= N" in err

    def test_zero_denominator_is_a_located_parse_error(self, capsys):
        status, out, err = run(
            capsys, "integrate", "--grassmannian", "2", "4", "--", "1/0*u1^2*u2^2"
        )
        assert (status, out) == (2, "")
        assert err == (
            "config error: expr: parse error at position 3 in '1/0*u1^2*u2^2': "
            "zero denominator\n"
        )

    @pytest.mark.parametrize(
        "command", [["integrate", "--", "u1^2*u2^2"], ["betti"], ["presentation"], ["index"]]
    )
    def test_subgroup_needs_a_subgroup_block(self, capsys, command):
        # betti and presentation take no --subgroup at all, so for them the
        # flag is a usage error before any model is read
        name, *rest = command
        argv = [name, "--grassmannian", "2", "4", "--subgroup", *rest]
        if name in ("betti", "presentation"):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --subgroup" in capsys.readouterr().err
            return
        status, out, err = run(capsys, *argv)
        assert (status, out) == (2, "")
        assert err == "config error: --subgroup: the model carries no subgroup_roots block\n"

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("oracle-check", ["--format", "csv"]),
            ("oracle-check", ["--latex"]),
            ("config-dump", ["--format", "csv"]),
            ("config-dump", ["--latex"]),
            ("betti", ["--latex"]),
            ("presentation", ["--latex"]),
            ("integrate", ["--format", "csv"]),
            ("euler", ["--format", "csv"]),
            ("signature", ["--format", "csv"]),
            ("charnum", ["--format", "csv"]),
            ("index", ["--format", "csv"]),
        ],
    )
    def test_output_flags_a_subcommand_ignores_exit_2(self, capsys, command, flag):
        argv = [command, "--grassmannian", "2", "4", *flag]
        if command == "integrate":
            argv += ["--", "u1^3*u2^3"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


TOP_USAGE = (
    "usage: abelianize [-h]\n"
    "                  {pairing,integrate,betti,presentation,euler,signature,charnum,"
    "index,oracle-check,config-dump}\n"
    "                  ...\n"
)


def sha256(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


class TestDispatch:
    """`main` hands argv[1:] to the subcommand's own parser; every byte of
    these results was recorded from the full two-level parse (help texts
    by digest, at 80 columns)."""

    @pytest.mark.parametrize(
        "argv, status, out, err",
        [
            ([], 2, "", TOP_USAGE + "abelianize: error: the following arguments are required: "
             "command\n"),
            (["--help"], 0,
             "sha256:105a007e1033d5936781bbdd64aa0db00dea41bd5d9c85ed55d1f036c57bf6c4", ""),
            (["frobnicate"], 2, "", TOP_USAGE + "abelianize: error: argument command: invalid "
             "choice: 'frobnicate' (choose from 'pairing', 'integrate', 'betti', 'presentation', "
             "'euler', 'signature', 'charnum', 'index', 'oracle-check', 'config-dump')\n"),
            (["pairing", "--help"], 0,
             "sha256:438942b6e4f4d1e6c0d9c02ca6166e18c68ff59cf999466cb1ef83a4eacac8e0", ""),
            (["pairing", "--bogus"], 2, "",
             TOP_USAGE + "abelianize: error: unrecognized arguments: --bogus\n"),
            (["betti", "--grassmannian", "2", "4", "--subgroup"], 2, "",
             TOP_USAGE + "abelianize: error: unrecognized arguments: --subgroup\n"),
            (["integrate", "--grassmannian", "2", "4", "--", "-u1^3*u2^3"], 0, "0\n", ""),
            (["index", "--grassmannian", "2", "4", "--line=-1,-1"], 0, "0\n", ""),
        ],
    )
    def test_matches_the_full_parse(self, capsys, monkeypatch, argv, status, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        got = [captured.out, captured.err]
        got = [sha256(text) if want.startswith("sha256:") else text
               for text, want in zip(got, (out, err))]
        assert (code, *got) == (status, out, err)

    def test_each_subcommand_parser_is_kept(self):
        parser = cli.build_parser()
        for name, command in parser.commands.items():
            assert command.prog == f"abelianize {name}"
            assert command.get_default("func") is getattr(cli, f"_cmd_{name.replace('-', '_')}")


def g24_config() -> dict:
    return model_to_config(grassmannian_model(2, 4))


@pytest.fixture
def routes(monkeypatch):
    """The torus-integral routes the class formulas take, in call order;
    `stabilizer_blocks` marks the index's sum over the orbits of the swaps
    that fix its integrand instead of Weyl orbits."""
    calls = []
    for name in ("stabilizer_blocks", "integrate_points", "integrate_torus"):

        def spy(*args, _name=name, _original=getattr(charclass, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(charclass, name, spy)
    return calls


class TestRouteGate:
    def test_invariant_twist_runs_on_points(self, capsys, routes):
        assert run(capsys, "index", "--grassmannian", "2", "4", "--line=1,1") == (0, "6\n", "")
        assert routes == ["integrate_points"]

    @pytest.mark.parametrize("line, value", [("1,2", "20"), ("2,1", "0")])
    def test_non_invariant_twist_runs_on_all_points(self, capsys, routes, line, value):
        g24 = ("--grassmannian", "2", "4")
        assert run(capsys, "index", *g24, f"--line={line}") == (0, f"{value}\n", "")
        assert routes == ["stabilizer_blocks", "integrate_points"]

    def test_relative_block_model_runs_on_all_points(self, capsys, routes, tmp_path):
        # U(2)xU(1) in U(3): Weyl order 1, but G's action of order 6
        doc = model_to_config(grassmannian_model(3, 6))
        block = [i for i, w in enumerate(doc["roots"]["weights"]) if w[2] == "0"]
        doc["subgroup_roots"] = {"indices": [str(i) for i in block], "weyl_order": "2"}
        path = tmp_path / "g36-block.json"
        path.write_text(json.dumps(doc))
        argv = ("index", "--config", str(path), "--subgroup", "--line=1,1,1")
        assert run(capsys, *argv) == (0, "20\n", "")
        assert routes == ["stabilizer_blocks", "integrate_points"]

    def test_empty_weyl_action_runs_on_orbit_points(self, capsys, routes, tmp_path):
        # the point sums read the roots' blocks, so the action the
        # presentation layer reads does not choose the route
        doc = g24_config()
        doc["roots"] = "unitary:2"
        doc["weyl_action"] = []
        path = tmp_path / "g24-no-action.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "euler", "--config", str(path)) == (0, "6\n", "")
        assert routes == ["integrate_points"]

    def test_pairings_and_gram_matrices_form_no_product(self, capsys, monkeypatch, tmp_path):
        # pairings and Gram matrices are point sums; an explicit lift
        # (`integrate`) pairs two factors, the lift and e, and forms no
        # product; only the two-term index still multiplies
        calls = []

        def spy(name, original):
            def counted(*args):
                calls.append(name)
                return original(*args)

            return counted

        monkeypatch.setattr(Poly, "product_upto", spy("product_upto", Poly.product_upto))
        for module in (quotient, presentation, charclass, cli):
            if hasattr(module, "integrate_torus"):
                counted = spy("integrate_torus", quotient.integrate_torus)
                monkeypatch.setattr(module, "integrate_torus", counted)
        doc = g24_config()
        doc["orbifold_prefactor"] = "2"
        path = tmp_path / "g24-orbifold.json"
        path.write_text(json.dumps(doc))
        g36, cfg = ("--grassmannian", "3", "6"), ("--config", str(path))
        for argv in (
            ("pairing", *g36, "--exps", "9,0,0"),
            ("pairing", *g36, "--exps", "1,1,0", "--oracle"),
            ("pairing", *g36, "--table"),
            ("pairing", *cfg, "--table", "--format", "csv"),
            ("oracle-check", "--max-k", "2", "--max-n", "5"),
            ("betti", *g36),
            ("betti", *cfg),
            ("presentation", *g36),
            ("presentation", *cfg, "--format", "csv"),
        ):
            status, _, err = run(capsys, *argv)
            assert (status, err) == (0, "")
        assert calls == []
        assert run(capsys, "integrate", *g36, "u1^5*u2^4")[0] == 0
        assert calls == ["integrate_torus"]
        assert run(capsys, "index", *g36, "--line=1,1,1", "--check-two-term")[0] == 0
        assert "integrate_torus" in calls[1:] and "product_upto" in calls

    def test_one_point_set_per_gram_query(self, capsys, monkeypatch, tmp_path):
        # the q/2 + 1 Gram matrices of one betti or presentation query share
        # the model's point set, which used to be built once per matrix
        calls = []
        original = quotient.point_weights

        def spy(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(quotient, "point_weights", spy)
        doc = g24_config()
        doc["orbifold_prefactor"] = "2"
        path = tmp_path / "g24-orbifold.json"
        path.write_text(json.dumps(doc))
        for model in (("--grassmannian", "1", "5"), ("--grassmannian", "2", "7"),
                      ("--grassmannian", "3", "6"), ("--config", str(path))):
            for argv in (("betti",), ("presentation",), ("presentation", "--format", "csv")):
                calls.clear()
                status, _, err = run(capsys, argv[0], *model, *argv[1:])
                assert (status, err) == (0, "")
                assert len(calls) == 1

    def test_class_queries_form_no_product(self, capsys, monkeypatch, tmp_path):
        products = []
        original = Poly.product_upto

        def spy(self, *args):
            products.append(args)
            return original(self, *args)

        monkeypatch.setattr(Poly, "product_upto", spy)
        doc = model_to_config(grassmannian_model(3, 5))
        block = [i for i, w in enumerate(doc["roots"]["weights"]) if w[2] == "0"]
        doc["subgroup_roots"] = {"indices": [str(i) for i in block], "weyl_order": "2"}
        path = tmp_path / "g35-block.json"
        path.write_text(json.dumps(doc))
        g35, cfg = ("--grassmannian", "3", "5"), ("--config", str(path))
        for argv in (
            ("euler", *g35),
            ("signature", *g35),
            ("charnum", *g35, "--class", "todd"),
            ("charnum", *cfg, "--series", "1,1/2,-2/3"),
            ("index", *g35, "--line=1,1,1"),
            ("index", *g35, "--line=1,2,0"),
            ("index", *cfg, "--subgroup", "--line=1,1,1"),
        ):
            status, _, err = run(capsys, *argv)
            assert (status, err) == (0, "")
        assert products == []

    def test_named_classes_invert_no_series(self, capsys, monkeypatch, tmp_path):
        # the named classes hand the point sums x f'/f in closed form, so
        # their queries divide no series; a custom series is inverted once
        calls = []
        original = Series.reciprocal

        def spy(self):
            calls.append(self.order)
            return original(self)

        monkeypatch.setattr(Series, "reciprocal", spy)
        doc = model_to_config(grassmannian_model(3, 6))
        block = [i for i, w in enumerate(doc["roots"]["weights"]) if w[2] == "0"]
        doc["subgroup_roots"] = {"indices": [str(i) for i in block], "weyl_order": "2"}
        path = tmp_path / "g36-block.json"
        path.write_text(json.dumps(doc))
        g37, cfg = ("--grassmannian", "3", "7"), ("--config", str(path))
        for argv in (
            ("euler", *g37),
            ("signature", *g37),
            *(("charnum", *model, "--class", name) for name in charclass.CLASS_SERIES
              for model in (g37, cfg)),
            ("index", *g37, "--line=1,1,1"),
            ("index", *g37, "--line=0,1,2"),
            ("index", *cfg, "--subgroup", "--line=1,1,1:2"),
            ("euler", *cfg),
            ("signature", *cfg),
        ):
            status, _, err = run(capsys, *argv)
            assert (status, err) == (0, "")
        assert calls == []
        assert run(capsys, "charnum", *g37, "--series", "1,1/2,-2/3")[0] == 0
        assert calls == [13]  # read to the quotient dimension 12, and l_1 at 13

    def test_subgroup_index_sums_stabilizer_orbits(self, capsys, monkeypatch, tmp_path):
        # G(3,6), prefactor 2, with the U(2)xU(1) block on u1, u2: swapping
        # u1 and u2 fixes the relative model's integrand and the twist, so
        # the index sums one point per orbit, 63 where all points are 108
        sums = []
        original = quotient.point_weights

        def spy(*args):
            sums.append((len(args[1]), sum(args[1].values())))
            return original(*args)

        monkeypatch.setattr(quotient, "point_weights", spy)
        doc = model_to_config(grassmannian_model(3, 6))
        block = [i for i, w in enumerate(doc["roots"]["weights"]) if w[2] == "0"]
        doc["subgroup_roots"] = {"indices": [str(i) for i in block], "weyl_order": "2"}
        doc["orbifold_prefactor"] = "2"
        path = tmp_path / "g36-block.json"
        path.write_text(json.dumps(doc))
        argv = ("index", "--config", str(path), "--subgroup", "--line=1,1,1:2")
        assert run(capsys, *argv, "--check-two-term") == (0, "40\n", "")
        assert len(all_points(grassmannian_model(3, 6).ring)) == 108
        assert sums == [(63, 6**3)]
        sums.clear()
        assert run(capsys, "index", "--config", str(path), "--subgroup", "--line=1,2,0")[0] == 0
        assert sums == [(108, 6**3)]  # no swap fixes this twist

    def test_two_term_check_crosses_the_routes(self, capsys, routes):
        g37 = ("--grassmannian", "3", "7")
        assert run(capsys, "index", *g37, "--line=1,1,1", "--check-two-term") == (0, "35\n", "")
        assert routes == ["integrate_points", "integrate_torus"]


def edited(doc, field: str, value):
    """doc with the field at a dotted path (list entries by index) set to
    value, or value itself for the empty path."""
    if not field:
        return value
    *parents, last = field.split(".")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value
    return doc


#: G(2,4) config edits refused at load: (field, value, location, message)
CONFIG_REFUSALS = [
    ("ring.variables", True, ".ring.variables", "expected an integer, got True"),
    ("ring.variables", [2], ".ring.variables", "expected an integer string, got list"),
    ("ring.variables", "two", ".ring.variables", "not an integer: 'two'"),
    ("orbifold_prefactor", False, ".orbifold_prefactor",
     "expected an exact rational string, got False"),
    ("orbifold_prefactor", 1.5, ".orbifold_prefactor",
     "expected an exact rational string, got 1.5"),
    ("orbifold_prefactor", "1/x", ".orbifold_prefactor", "not a rational: '1/x'"),
    ("orbifold_prefactor", "1/0", ".orbifold_prefactor", "not a rational: '1/0'"),
    ("orbifold_prefactor", ["1"], ".orbifold_prefactor", "expected a rational string, got list"),
    ("ring.truncations", "4", ".ring.truncations", "expected a list"),
    ("roots.weights", "-1,1", ".roots.weights", "expected a list of integer vectors"),
    ("roots.weyl_generators", "21", ".roots.weyl_generators", "expected a list"),
    ("tangent_bundle", {}, ".tangent_bundle", "expected a list of summands"),
    ("roots", "orthogonal:2", ".roots", "unknown builtin root data 'orthogonal:2'"),
    ("roots", "unitary:3", ".roots", "builtin rank 3 does not match 2 ring variables"),
    ("roots", 2, ".roots", "expected a builtin name or a root data object"),
    ("roots.positive", ["2"], ".roots.positive", "index 2 out of range"),
    ("tangent_bundle.0", "0", ".tangent_bundle[0]",
     "expected an object with weight and multiplicity"),
    ("tangent_bundle.0.weight", ["1"], ".tangent_bundle[0].weight", "expected 2 components"),
    ("", [], "", "top level must be an object"),
    ("", {"schema": "1"}, ".ring", "missing required field"),
    ("roots.weyl_generators", [["1", "1"]], ".roots.weyl_generators[0]",
     "not a permutation of 1..2: [1, 1]"),
    ("ring", "2", ".ring", "expected an object"),
    ("ring.truncations", ["4"], ".ring", "expected 2 truncation exponents, got 1"),
    ("ring.truncations", ["4", "0"], ".ring",
     "truncation exponents must be positive integers: (4, 0)"),
    ("weyl_action", "21", ".weyl_action", "expected a list of permutations"),
    ("subgroup_roots", ["0"], ".subgroup_roots", "expected an object with indices and weyl_order"),
    ("subgroup_roots", {"indices": ["2"], "weyl_order": "1"}, ".subgroup_roots.indices",
     "root index 2 out of range"),
]

#: Queries on G(2,4) refused by their own arguments: (argv, stderr)
ARGUMENT_REFUSALS = [
    (("pairing", "--exps", "1,x"),
     "config error: --exps: not a comma-separated integer list: '1,x'"),
    (("pairing", "--exps=-2,3"), "config error: --exps: exponents must be nonnegative: [-2, 3]"),
    (("index", "--line=1,1:x"), "config error: --line: bad multiplicity in '1,1:x'"),
    (("index", "--line=1,a"), "config error: --line: not an integer vector: '1,a'"),
    (("index", "--line=1,1,1"), "config error: --line: expected 2 components in '1,1,1'"),
    (("charnum", "--series", "1,x"), "config error: --series: not a rational list: '1,x'"),
    (("charnum", "--class", "a-hat"),
     "config error: --class: unknown class 'a-hat'; known: l-class, todd, total-chern"),
    (("charnum", "--series", "0,1"),
     "error: a multiplicative class series must have constant term 1"),
]

#: Options that name the same input twice, which argparse refuses with its
#: usage on stderr, before any model is built.
EXCLUSIVE_REFUSALS = [
    (("charnum", "--class", "a-hat", "--series", "1,1"),
     "argument --series: not allowed with argument --class"),
    (("pairing", "--exps", "9,x", "--table"), "argument --table: not allowed with argument --exps"),
]


class TestRefusals:
    @pytest.mark.parametrize("field, value, where, message", CONFIG_REFUSALS)
    def test_config_refusal_is_located(self, capsys, tmp_path, field, value, where, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(edited(g24_config(), field, value)))
        refusal = (2, "", f"config error: {path}{where}: {message}\n")
        assert run(capsys, "euler", "--config", str(path)) == refusal

    @pytest.mark.parametrize("argv, message", ARGUMENT_REFUSALS)
    def test_argument_refusal_is_located(self, capsys, argv, message):
        command, *rest = argv
        assert run(capsys, command, "--grassmannian", "2", "4", *rest) == (2, "", f"{message}\n")

    @pytest.mark.parametrize("argv, message", EXCLUSIVE_REFUSALS)
    def test_exclusive_options_are_refused(self, capsys, argv, message):
        command, *rest = argv
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--grassmannian", "2", "4", *rest])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.endswith(f"abelianize {command}: error: {message}\n")

    def test_model_refusals(self):
        m = grassmannian_model(2, 4)
        ring, rd, tangent = m.ring, m.root_data, m.tangent_bundle
        # U(3) on (P^1)^3: six roots on a torus quotient of dimension three
        ring3 = Ring(3, [2, 2, 2])
        units = [(tuple(int(i == j) for j in range(3)), 2) for i in range(3)]
        tangent3 = SplitBundle(ring3, [*units, ((0, 0, 0), -3)])
        cases = [
            ((ring, unitary_roots(3), tangent), "root data rank 3 does not match 2 ring variables"),
            ((ring, rd, SplitBundle(Ring(2, [5, 5]), tangent.summands)),
             "tangent bundle lives in the wrong ring"),
            ((ring, rd, tangent, 0), "orbifold prefactor must be positive"),
            ((ring, rd, tangent, Fraction(-1, 2)), "orbifold prefactor must be positive"),
            ((ring3, unitary_roots(3), tangent3), "more roots than the torus quotient dimension allows"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                QuotientModel(*args)


class TestConfig:
    def test_round_trip_builtins(self):
        for k, n in [(1, 3), (2, 4), (3, 5)]:
            m = grassmannian_model(k, n)
            assert model_from_config(model_to_config(m)) == m

    def test_builtin_root_shortcut(self):
        doc = g24_config()
        doc["roots"] = "unitary:2"
        assert model_from_config(doc) == grassmannian_model(2, 4)

    def test_load_from_file(self, tmp_path, capsys):
        path = tmp_path / "g24.json"
        path.write_text(json.dumps(g24_config()))
        assert load_config(str(path)) == grassmannian_model(2, 4)
        status, out, _ = run(capsys, "euler", "--config", str(path))
        assert status == 0
        assert out == "6\n"

    def test_missing_file_exits_2(self, capsys):
        status, _, err = run(capsys, "euler", "--config", "/nonexistent.json")
        assert status == 2
        assert "config error" in err

    def test_schema_version_checked(self):
        doc = g24_config()
        doc["schema"] = "9"
        with pytest.raises(ConfigError, match="schema"):
            model_from_config(doc)

    def test_located_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert "broken.json:1" in str(exc.value)

    def test_orbifold_pairing_carries_the_prefactor(self, capsys, tmp_path):
        doc = g24_config()
        doc["orbifold_prefactor"] = "2"
        path = tmp_path / "orbifold.json"
        path.write_text(json.dumps(doc))
        status, pairing, _ = run(capsys, "pairing", "--config", str(path), "--exps", "4,0")
        assert status == 0
        assert pairing == "4\n"
        e1_4 = "u1^4 + 4*u1^3*u2 + 6*u1^2*u2^2 + 4*u1*u2^3 + u2^4"
        status, integral, _ = run(capsys, "integrate", "--config", str(path), "--", e1_4)
        assert status == 0
        assert integral == pairing
        status, out, err = run(
            capsys, "pairing", "--config", str(path), "--exps", "4,0", "--oracle"
        )
        assert (status, out, err) == (0, "4\n", "")

    def test_charnum_on_an_orbifold_config_with_a_cancelling_tangent_pair(
        self, capsys, tmp_path
    ):
        # G(3,6) with prefactor 2, a U(2)xU(1) block, and a tangent summand
        # added and taken away again: every characteristic number doubles
        doc = model_to_config(grassmannian_model(3, 6))
        alpha, minus_alpha = ["-1", "1", "0"], ["1", "-1", "0"]
        weights = doc["roots"]["weights"]
        block = [i for i, w in enumerate(weights) if w in (alpha, minus_alpha)]
        assert len(block) == 2
        doc["orbifold_prefactor"] = "2"
        doc["subgroup_roots"] = {"indices": [str(i) for i in block], "weyl_order": "2"}
        doc["tangent_bundle"] += [
            {"weight": alpha, "multiplicity": "1"},
            {"weight": alpha, "multiplicity": "-1"},
        ]
        path = tmp_path / "g36-orbifold.json"
        path.write_text(json.dumps(doc))
        for choice in [
            ("--class", "total-chern"),
            ("--class", "todd"),
            ("--class", "l-class"),
            ("--series", "1,1/2,1/3,-1/4"),
        ]:
            status, out, err = run(capsys, "charnum", "--config", str(path), *choice)
            _, plain, _ = run(capsys, "charnum", "--grassmannian", "3", "6", *choice)
            assert (status, err) == (0, "")
            assert Fraction(out) == 2 * Fraction(plain)

    @pytest.mark.parametrize(
        "change, refusal",
        [
            # G(2,4)'s swap stays as the action, but with no roots W is trivial
            (
                {"roots": {"weights": [], "positive": [], "weyl_order": "1"}},
                "{path}: weyl_action generator [2, 1] is not in W",
            ),
            # the roots' reflection generates W = S_2, so |W| = 1 is refused at load
            (
                {
                    "roots": {
                        "weights": [["-1", "1"], ["1", "-1"]],
                        "positive": ["0"],
                        "weyl_order": "1",
                    }
                },
                "{path}.roots: weyl_order 1 does not match generated group of order 2",
            ),
            # the roots' reflection swaps the unequal summands u1^5 and u2^3
            (
                {
                    "tangent_bundle": [
                        {"weight": ["1", "0"], "multiplicity": "5"},
                        {"weight": ["0", "1"], "multiplicity": "3"},
                        {"weight": "0", "multiplicity": "-2"},
                    ]
                },
                "{path}: Weyl generator [2, 1] moves the tangent summands",
            ),
            # 2(e_j - e_i) form U(2)'s block, but scale e: no G(2,4) presentation
            (
                {
                    "roots": {
                        "weights": [["-2", "2"], ["2", "-2"]],
                        "positive": ["0"],
                        "weyl_order": "2",
                    }
                },
                None,
            ),
            (
                {
                    "ring": {"variables": "2", "truncations": ["4", "5"]},
                    "roots": {"weights": [], "positive": [], "weyl_order": "1"},
                    "tangent_bundle": [
                        {"weight": ["1", "0"], "multiplicity": "4"},
                        {"weight": ["0", "1"], "multiplicity": "5"},
                        {"weight": "0", "multiplicity": "-2"},
                    ],
                    "weyl_action": [],
                },
                None,
            ),
        ],
        ids=["torus", "weyl-order-1", "tangent", "scaled-roots", "unequal-truncations"],
    )
    def test_oracle_refuses_a_model_that_is_not_a_grassmannian(
        self, capsys, tmp_path, change, refusal
    ):
        # a model that does not load is refused at load; one that loads, by the oracle
        doc = g24_config()
        doc.update(change)
        path = tmp_path / "not-g24.json"
        path.write_text(json.dumps(doc))
        status, out, err = run(
            capsys, "pairing", "--config", str(path), "--exps", "0,3", "--oracle"
        )
        assert (status, out) == (2, "")
        if refusal is not None:
            assert err == f"config error: {refusal.format(path=path)}\n"
        else:
            assert "config error: --oracle: the Pieri oracle needs a G(k,n) presentation" in err

    def test_oracle_accepts_any_presentation_of_a_grassmannian(self, capsys, tmp_path):
        # shuffled and split tangent summands, a generating set other than the
        # adjacent transpositions, a U(2)xU(1) block and a prefactor
        roots = [(i, j) for i in range(3) for j in range(3) if i != j]

        def weight(i, j):
            return [str(-1 if x == i else 1 if x == j else 0) for x in range(3)]

        doc = {
            "schema": "1",
            "ring": {"variables": "3", "truncations": ["5", "5", "5"]},
            "roots": {
                "weights": [weight(i, j) for i, j in roots],
                "positive": [str(r) for r, (i, j) in enumerate(roots) if i < j],
                "weyl_generators": [["2", "1", "3"], ["2", "3", "1"]],
                "weyl_order": "6",
            },
            "tangent_bundle": [
                {"weight": "0", "multiplicity": "-3"},
                {"weight": ["0", "0", "1"], "multiplicity": "5"},
                {"weight": ["1", "0", "0"], "multiplicity": "2"},
                {"weight": ["0", "1", "0"], "multiplicity": "5"},
                {"weight": ["1", "0", "0"], "multiplicity": "3"},
            ],
            "orbifold_prefactor": "3",
            "subgroup_roots": {
                "indices": [str(roots.index((0, 1))), str(roots.index((1, 0)))],
                "weyl_order": "2",
            },
        }
        path = tmp_path / "g35.json"
        path.write_text(json.dumps(doc))
        status, out, err = run(
            capsys, "pairing", "--config", str(path), "--table", "--oracle"
        )
        assert (status, err) == (0, "")
        assert "6,0,0 -> 15" in out.splitlines()

    def test_rational_strings_survive(self):
        doc = g24_config()
        doc["orbifold_prefactor"] = "3/4"
        m = model_from_config(doc)
        from fractions import Fraction

        assert m.orbifold_prefactor == Fraction(3, 4)

    def test_floats_rejected(self):
        doc = g24_config()
        doc["orbifold_prefactor"] = 0.75
        with pytest.raises(ConfigError, match="exact"):
            model_from_config(doc)

    def test_weyl_generator_must_preserve_truncations(self):
        doc = g24_config()
        doc["ring"]["truncations"] = ["3", "5"]
        with pytest.raises(ConfigError, match="truncation"):
            model_from_config(doc)

    def test_subgroup_roots_must_be_contained(self):
        doc = g24_config()
        doc["subgroup_roots"] = {"indices": ["0", "7"], "weyl_order": "1"}
        with pytest.raises(ConfigError, match="out of range"):
            model_from_config(doc)

    def test_subgroup_roots_must_be_closed_under_negation(self, capsys, tmp_path):
        # one root of G(2,4) without its negative is no subgroup's root system
        doc = g24_config()
        doc["subgroup_roots"] = {"indices": ["0"], "weyl_order": "1"}
        path = tmp_path / "half-block.json"
        path.write_text(json.dumps(doc))
        status, out, err = run(capsys, "betti", "--config", str(path))
        assert (status, out) == (2, "")
        assert err == (
            f"config error: {path}.subgroup_roots: subgroup roots must be closed under "
            "negation and transpositions\n"
        )

    def test_subgroup_block_round_trips(self):
        doc = g24_config()
        doc["subgroup_roots"] = {"indices": ["0", "1"], "weyl_order": "2"}
        m = model_from_config(doc)
        assert m.subgroup is not None
        assert model_from_config(model_to_config(m)) == m

    def test_subgroup_flag_computes_on_the_relative_model(self, capsys, tmp_path):
        # H = G = U(2): the relative model has no roots and prefactor 1
        doc = g24_config()
        doc["subgroup_roots"] = {"indices": ["0", "1"], "weyl_order": "2"}
        path = tmp_path / "g24-whole.json"
        path.write_text(json.dumps(doc))
        rel = load_config(str(path)).relative()
        cfg = ("--config", str(path), "--subgroup")
        assert run(capsys, "integrate", *cfg, "--", "u1^3*u2^3") == (0, "1\n", "")
        # no roots are left, so the index is the torus one: ch(V) * Td(tangent)
        V = SplitBundle(rel.ring, [((1, 1), 1)])
        td = mult_class(todd_series(rel.ring.top_degree), rel.tangent_bundle)
        index = f"{integrate_torus(rel, chern_character(V), td)}\n"
        assert run(capsys, "index", *cfg, "--line=1,1", "--check-two-term") == (0, index, "")

    def test_betti_and_presentation_refuse_a_block_subgroup(self, capsys, tmp_path):
        # --subgroup computes nothing of X//H for betti and presentation, so
        # the two subcommands do not take it; integrate and index still do
        doc = model_to_config(grassmannian_model(3, 6))
        block = [i for i, w in enumerate(doc["roots"]["weights"]) if w[2] == "0"]
        doc["subgroup_roots"] = {"indices": [str(i) for i in block], "weyl_order": "2"}
        path = tmp_path / "g36-block.json"
        path.write_text(json.dumps(doc))
        for argv in (["betti"], ["presentation"], ["presentation", "--format", "csv"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--config", str(path), "--subgroup"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --subgroup" in captured.err
        assert run(capsys, "index", "--config", str(path), "--subgroup", "--line=1,1,1") == (
            0,
            "20\n",
            "",
        )

    def test_betti_and_presentation_on_trivial_blocks(self, capsys, tmp_path):
        # Without the flag the two subcommands answer for G.  In the library,
        # the relative model of H = T is the model itself, and that of H = G
        # has no roots and W trivial: the Betti numbers of P^3 x P^3
        torus = model_to_config(grassmannian_model(2, 5))
        torus["subgroup_roots"] = {"indices": [], "weyl_order": "1"}
        whole = g24_config()
        whole["subgroup_roots"] = {"indices": ["0", "1"], "weyl_order": "2"}
        cases = [
            ("torus", torus, ("--grassmannian", "2", "5"), [1, 1, 2, 2, 2, 1, 1]),
            ("whole", whole, ("--grassmannian", "2", "4"), [1, 2, 3, 4, 3, 2, 1]),
        ]
        for name, doc, plain, relative in cases:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            for command in ("betti", "presentation"):
                assert run(capsys, command, "--config", str(path)) == run(capsys, command, *plain)
            assert poincare_polynomial(load_config(str(path)).relative()) == relative

    @pytest.mark.parametrize("field", ["roots.weyl_generators", "weyl_action"])
    def test_matrix_generator_refused(self, capsys, tmp_path, field):
        # W permutes the variables, so a generator is a permutation list; a
        # matrix, here the coordinate swap of G(2,4), is refused where it stands
        doc = g24_config()
        swap = {"matrix": [["0", "1"], ["1", "0"]]}
        if field == "weyl_action":
            doc["weyl_action"] = [swap]
        else:
            doc["roots"]["weyl_generators"] = [swap]
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(doc))
        status, out, err = run(capsys, "euler", "--config", str(path))
        assert (status, out) == (2, "")
        assert err == (
            f"config error: {path}.{field}[0]: "
            "expected a permutation list; W permutes the variables\n"
        )

    @pytest.mark.parametrize("declared, found", [("4", "2"), ("1", "2")])
    def test_matrix_generator_with_wrong_weyl_order_exits_2(
        self, capsys, tmp_path, declared, found
    ):
        # the coordinate swap of G(2,4), once written as a matrix, is now the
        # permutation [2, 1]; it permutes within the roots' one block, so the
        # order found is exactly 2! on either side of the declared one
        doc = g24_config()
        doc["roots"]["weyl_generators"] = [["2", "1"]]
        doc["roots"]["weyl_order"] = declared
        path = tmp_path / "swap.json"
        path.write_text(json.dumps(doc))
        status, out, err = run(capsys, "euler", "--config", str(path))
        assert (status, out) == (2, "")
        assert err == (
            f"config error: {path}.roots: weyl_order {declared} "
            f"does not match generated group of order {found}\n"
        )

    def test_weyl_order_checked_at_any_rank(self, capsys, tmp_path):
        # U(2) roots and a swap of u1, u2 in nine variables (truncations
        # 3, 3, 2, ..., 2): |W| = 2, and the Euler number is 2^9 * 3 / 4 = 384
        k = 9
        pairs = ((0, 1), (1, 0))
        weights = [[str(-1 if x == i else int(x == j)) for x in range(k)] for i, j in pairs]
        doc = {
            "schema": "1",
            "ring": {"variables": str(k), "truncations": ["3", "3"] + ["2"] * (k - 2)},
            "roots": {
                "weights": weights,
                "positive": ["0"],
                "weyl_generators": [["2", "1", *map(str, range(3, k + 1))]],
            },
            "tangent_bundle": [
                {"weight": [str(int(x == i)) for x in range(k)], "multiplicity": n}
                for i, n in enumerate(["3", "3"] + ["2"] * (k - 2))
            ]
            + [{"weight": "0", "multiplicity": str(-k)}],
        }
        for order, expected in [("4", None), ("2", "384\n")]:
            doc["roots"]["weyl_order"] = order
            path = tmp_path / f"order-{order}.json"
            path.write_text(json.dumps(doc))
            status, out, err = run(capsys, "euler", "--config", str(path))
            if expected is None:
                assert (status, out) == (2, "")
                assert err == (
                    f"config error: {path}.roots: weyl_order 4 "
                    f"does not match generated group of order 2\n"
                )
            else:
                assert (status, out, err) == (0, expected, "")

    def test_roots_generate_w_without_generators(self, capsys, tmp_path):
        # G(2,4)'s roots with no generators: their reflection alone gives |W| = 2
        doc = g24_config()
        doc["roots"]["weyl_generators"] = []
        doc["roots"]["weyl_order"] = "1"
        path = tmp_path / "no-generators.json"
        path.write_text(json.dumps(doc))
        for command in ("euler", "betti"):
            status, out, err = run(capsys, command, "--config", str(path))
            assert (status, out) == (2, "")
            assert err == (
                f"config error: {path}.roots: weyl_order 1 "
                f"does not match generated group of order 2\n"
            )
        doc["roots"]["weyl_order"] = "2"
        path.write_text(json.dumps(doc))
        assert run(capsys, "euler", "--config", str(path)) == (0, "6\n", "")
        assert run(capsys, "betti", "--config", str(path)) == (0, "1,1,2,1,1\n", "")

    def test_lone_three_cycle_with_the_roots_is_s3(self, capsys, tmp_path):
        # G(3,5) with a lone 3-cycle: it lies in the roots' block, and W is
        # the S_3 their reflections generate, so |W| = 6, not 3
        doc = model_to_config(grassmannian_model(3, 5))
        doc["roots"]["weyl_generators"] = [["2", "3", "1"]]
        doc["weyl_action"] = [["2", "3", "1"]]
        path = tmp_path / "cycle.json"
        for order in ("3", "6"):
            doc["roots"]["weyl_order"] = order
            path.write_text(json.dumps(doc))
            status, out, err = run(capsys, "euler", "--config", str(path))
            if order == "3":
                assert (status, out) == (2, "")
                assert err == (
                    f"config error: {path}.roots: weyl_order 3 "
                    f"does not match generated group of order 6\n"
                )
            else:
                assert (status, out, err) == (0, "10\n", "")
                assert run(capsys, "betti", "--config", str(path)) == (0, "1,1,2,2,2,1,1\n", "")

    def test_empty_weyl_action_does_not_shrink_w(self, capsys, tmp_path):
        # the presentation takes orbits under the roots' transpositions, not
        # the action, so an empty action still gives G(2,4)'s invariants
        doc = g24_config()
        doc["weyl_action"] = []
        path = tmp_path / "empty-action.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "betti", "--config", str(path)) == (0, "1,1,2,1,1\n", "")
        assert run(capsys, "presentation", "--config", str(path)) == run(
            capsys, "presentation", "--grassmannian", "2", "4"
        )

    def test_presentation_refuses_reflections_that_leave_the_ring(self, capsys, tmp_path):
        # U(2) roots on P^2 x P^3: the roots' reflection swaps u1 and u2,
        # which the truncations 3 and 4 do not allow, so the model is refused
        # where it is loaded, whatever the action; euler used to print 1
        doc = {
            "schema": "1",
            "ring": {"variables": "2", "truncations": ["3", "4"]},
            "roots": "unitary:2",
            "tangent_bundle": [
                {"weight": ["1", "0"], "multiplicity": "3"},
                {"weight": ["0", "1"], "multiplicity": "3"},
                {"weight": "0", "multiplicity": "-1"},
            ],
            "weyl_action": [],
        }
        path = tmp_path / "unequal.json"
        path.write_text(json.dumps(doc))
        for command in ("euler", "betti", "presentation"):
            assert run(capsys, command, "--config", str(path)) == (
                2,
                "",
                f"config error: {path}: Weyl generator [2, 1] does not preserve "
                "the truncation exponents [3, 4]\n",
            )

    def test_weyl_action_outside_w_is_refused(self, capsys, tmp_path):
        # no roots and |W| = 1, but the swap of P^3 x P^3 as the action: its
        # invariants are G(2,4)'s numbers, and betti used to print 1,1,2,2,2,1,1
        doc = g24_config()
        doc["roots"] = {"weights": [], "positive": [], "weyl_order": "1"}
        path = tmp_path / "swap-outside-w.json"
        path.write_text(json.dumps(doc))
        for command in ("euler", "betti", "presentation"):
            assert run(capsys, command, "--config", str(path)) == (
                2,
                "",
                f"config error: {path}: weyl_action generator [2, 1] is not in W\n",
            )
        del doc["weyl_action"]
        path.write_text(json.dumps(doc))
        assert run(capsys, "euler", "--config", str(path)) == (0, "16\n", "")
        assert run(capsys, "betti", "--config", str(path)) == (0, "1,2,3,4,3,2,1\n", "")

    def test_roots_not_closed_under_their_transpositions_are_refused(self, capsys, tmp_path):
        # +-(e1 - e0) and +-(e2 - e1) without +-(e2 - e0) on a G(3,5)-shaped
        # ring are no compact group's roots; euler printed 555 and betti
        # 1,3,6,10,11,10,6,3,1, which disagree.  Roots of another shape, whose
        # reflections do not permute the variables, are refused alike
        doc = model_to_config(grassmannian_model(3, 5))
        del doc["weyl_action"]
        path = tmp_path / "chain.json"
        for weights in (
            [["-1", "1", "0"], ["1", "-1", "0"], ["0", "-1", "1"], ["0", "1", "-1"]],
            [["-1", "2", "0"], ["1", "-2", "0"]],
            [["1", "0", "0"], ["-1", "0", "0"]],
        ):
            doc["roots"] = {"weights": weights, "positive": ["0", "2"][: len(weights) // 2]}
            doc["roots"]["weyl_order"] = "1"
            path.write_text(json.dumps(doc))
            for command in ("euler", "betti"):
                assert run(capsys, command, "--config", str(path)) == (
                    2,
                    "",
                    f"config error: {path}.roots: roots must be c(e_j - e_i), closed under "
                    "the transpositions (i j)\n",
                )

    def test_unstable_root_set_names_the_generator_as_written(self, capsys, tmp_path):
        # a root on every pair of u1, u2, u3, but 2(e3 - e2) beside e2 - e1:
        # the swap of u1 and u2 sends it to 2(e3 - e1), no root; the refusal
        # names the generator [2, 1, 3] as the config writes it, not 0-based
        doc = model_to_config(grassmannian_model(3, 5))
        doc["roots"] = {
            "weights": [
                ["-1", "1", "0"], ["1", "-1", "0"],
                ["0", "-2", "2"], ["0", "2", "-2"],
                ["-1", "0", "1"], ["1", "0", "-1"],
            ],
            "positive": ["0", "2", "4"],
            "weyl_order": "6",
        }
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "euler", "--config", str(path)) == (
            2,
            "",
            f"config error: {path}.roots: root set is not stable under generator [2, 1, 3]\n",
        )
        # with one multiple, 2(e_j - e_i) on every pair, the roots load and
        # W = S_3 is read off their block
        doc["roots"]["weights"] = [[str(2 * int(x)) for x in w] for w in doc["roots"]["weights"]]
        doc["roots"]["weights"][2:4] = [["0", "-2", "2"], ["0", "2", "-2"]]
        path.write_text(json.dumps(doc))
        assert load_config(str(path)).root_data.blocks == ((0, 1, 2),)
        assert run(capsys, "euler", "--config", str(path))[0] == 0

    def test_subgroup_weyl_order_is_checked_against_its_roots(self, capsys, tmp_path):
        # the U(2)xU(1) block of G(3,6) has order 2; declared 1, the subgroup
        # integral printed 1/6 instead of 1/3
        doc = model_to_config(grassmannian_model(3, 6))
        block = [i for i, w in enumerate(doc["roots"]["weights"]) if w[2] == "0"]
        path = tmp_path / "g36-block.json"
        argv = ("integrate", "--config", str(path), "--subgroup", "--", "u1^5*u2^5*u3")
        refusal = (
            f"config error: {path}.subgroup_roots: subgroup Weyl order must be 2 for its roots\n"
        )
        for order, expected in [("1", (2, "", refusal)), ("2", (0, "1/3\n", ""))]:
            doc["subgroup_roots"] = {"indices": [str(i) for i in block], "weyl_order": order}
            path.write_text(json.dumps(doc))
            assert run(capsys, *argv) == expected

    def test_block_swap_with_an_empty_action(self, capsys, tmp_path):
        # U(2)xU(2) with the swap of its blocks on (P^2)^4: the roots'
        # reflections generate U(2)xU(2)'s W of order 4, which lacks the swap,
        # so the generator is refused whatever order or action is declared.
        # It used to print euler 9/2, signature 1/2 and todd 1/2 but an index
        # of 1 for the trivial twist, which Riemann-Roch forbids
        def weight(i, j):
            return [str(-1 if x == i else int(x == j)) for x in range(4)]

        doc = {
            "schema": "1",
            "ring": {"variables": "4", "truncations": ["3"] * 4},
            "roots": {
                "weights": [weight(0, 1), weight(1, 0), weight(2, 3), weight(3, 2)],
                "positive": ["0", "2"],
                "weyl_generators": [["3", "4", "1", "2"]],
            },
            "tangent_bundle": [
                {"weight": [str(int(x == i)) for x in range(4)], "multiplicity": "3"}
                for i in range(4)
            ]
            + [{"weight": "0", "multiplicity": "-4"}],
        }
        path = tmp_path / "block-swap.json"
        refusal = (
            f"config error: {path}.roots: Weyl generator [3, 4, 1, 2] is not in the group "
            "the roots' reflections generate\n"
        )
        queries = [
            ("euler",), ("signature",), ("charnum", "--class", "todd"),
            ("index", "--line=0,0,0,0"), ("betti",),
        ]
        for order, action in [("8", None), ("8", []), ("4", None)]:
            doc["roots"]["weyl_order"] = order
            if action is not None:
                doc["weyl_action"] = action
            path.write_text(json.dumps(doc))
            for command, *rest in queries:
                assert run(capsys, command, "--config", str(path), *rest) == (2, "", refusal)
        # without the swap, X//G = P^2 x P^2 and every number agrees
        doc["roots"]["weyl_generators"] = []
        path.write_text(json.dumps(doc))
        cfg = ("--config", str(path))
        assert run(capsys, "euler", *cfg) == (0, "9\n", "")
        assert run(capsys, "charnum", *cfg, "--class", "todd") == (0, "1\n", "")
        assert run(capsys, "index", *cfg, "--line=0,0,0,0") == (0, "1\n", "")
        assert run(capsys, "betti", *cfg) == (0, "1,2,3,2,1\n", "")

    def test_subgroup_roots_that_form_no_blocks_are_refused(self, capsys, tmp_path):
        # +-(e1 - e0) and +-(e2 - e1) of G(3,6) without +-(e2 - e0): no
        # subgroup's roots; every weyl_order was accepted and printed 90
        doc = model_to_config(grassmannian_model(3, 6))
        assert doc["roots"]["weights"][0] == ["-1", "1", "0"]
        assert doc["roots"]["weights"][3] == ["0", "-1", "1"]
        path = tmp_path / "g36-chain.json"
        argv = ("index", "--config", str(path), "--subgroup", "--line=1,1,1")
        for order in ("1", "2", "3"):
            doc["subgroup_roots"] = {"indices": ["0", "2", "3", "5"], "weyl_order": order}
            path.write_text(json.dumps(doc))
            assert run(capsys, *argv) == (
                2,
                "",
                f"config error: {path}.subgroup_roots: subgroup roots must be closed under "
                "negation and transpositions\n",
            )
        # the U(2)xU(1) block +-(e1 - e0) loads
        doc["subgroup_roots"] = {"indices": ["0", "2"], "weyl_order": "2"}
        path.write_text(json.dumps(doc))
        assert run(capsys, *argv) == (0, "20\n", "")

    def test_duplicate_subgroup_roots_are_refused(self, capsys, tmp_path):
        doc = model_to_config(grassmannian_model(3, 6))
        doc["subgroup_roots"] = {"indices": ["0", "2", "0"], "weyl_order": "2"}
        path = tmp_path / "g36-twice.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "index", "--config", str(path), "--subgroup", "--line=1,1,1") == (
            2,
            "",
            f"config error: {path}.subgroup_roots: duplicate subgroup roots\n",
        )

    def test_positive_roots_that_order_no_block_are_refused(self, capsys, tmp_path):
        # each loaded, and the Weyl denominator identity behind `index` gave
        # wrong numbers with exit 0: a positive root listed twice on G(2,4)
        # printed 10 for --line=1,3 (45 on G(2,4)), and the cycle e2 - e1,
        # e3 - e2, e1 - e3 on (P^4)^3 printed -10 for --line=0,1,2 (40 on G(3,5))
        twice = model_to_config(grassmannian_model(2, 4))
        twice["roots"]["positive"] = ["0", "0"]
        cycle = model_to_config(grassmannian_model(3, 5))
        weights = cycle["roots"]["weights"]
        assert [weights[i] for i in (0, 3, 4)] == [
            ["-1", "1", "0"], ["0", "-1", "1"], ["1", "0", "-1"],
        ]
        cycle["roots"]["positive"] = ["0", "3", "4"]
        path = tmp_path / "positive.json"
        for doc, line, message in [
            (twice, "--line=1,3", "duplicate positive roots"),
            (cycle, "--line=0,1,2", "positive roots must order the block [1, 2, 3]"),
        ]:
            path.write_text(json.dumps(doc))
            refusal = (2, "", f"config error: {path}.roots: {message}\n")
            for command, *rest in [("euler",), ("index", line), ("betti",)]:
                assert run(capsys, command, "--config", str(path), *rest) == refusal

    def test_zero_weight_written_as_a_vector_dumps_as_zero(self, capsys, tmp_path):
        doc = g24_config()
        assert doc["tangent_bundle"][-1] == {"weight": "0", "multiplicity": "-2"}
        doc["tangent_bundle"][-1]["weight"] = ["0", "0"]
        assert model_from_config(doc) == grassmannian_model(2, 4)
        path = tmp_path / "zero-vector.json"
        path.write_text(json.dumps(doc))
        status, out, err = run(capsys, "config-dump", "--config", str(path))
        assert (status, err) == (0, "")
        dumped = json.loads(out)
        assert dumped["tangent_bundle"] == [
            {"multiplicity": "4", "weight": ["1", "0"]},
            {"multiplicity": "4", "weight": ["0", "1"]},
            {"multiplicity": "-2", "weight": "0"},
        ]
        assert dumped == g24_config()

    def test_config_dump_round_trips_through_cli(self, capsys, tmp_path):
        status, out, _ = run(capsys, "config-dump", "--grassmannian", "2", "4")
        assert status == 0
        path = tmp_path / "dumped.json"
        path.write_text(out)
        assert load_config(str(path)) == grassmannian_model(2, 4)


#: Every way to split k <= 3 variables into blocks.
LEVI_BLOCKS = [
    ((0,),),
    ((0, 1),),
    ((0,), (1,)),
    ((0, 1, 2),),
    ((0, 1), (2,)),
    ((0, 2), (1,)),
    ((0,), (1, 2)),
    ((0,), (1,), (2,)),
]


@st.composite
def mutated_weyl_fields(draw):
    """A config of the product of the G(|b|, n) over blocks b of k <= 3
    variables, n <= 6, as the quotient of (P^{n-1})^k by prod U(|b|): one
    block is G(k,n), and k blocks of one are (P^{n-1})^k with no roots.  The
    roots of each block are c(e_j - e_i), c drawn from 1-3; or, drawn
    instead, a pair of roots of another shape, +-e_i or +-(e_j - 2e_i), is
    added.  Its Weyl fields are drawn: 0-3 random permutations within the
    blocks as the roots' generators, and the swap of two blocks of one size
    added to them or not; `weyl_order` prod |b|! or 1-7; and a `weyl_action`
    absent, empty or of random permutations in S_k.  Returns n, the blocks,
    the multiples, whether the roots are refused at `roots` whatever the
    other fields, whether the config must load and the document."""
    blocks = draw(st.sampled_from(LEVI_BLOCKS))
    k = sum(map(len, blocks))
    n = draw(st.integers(k, 6))
    scales = draw(st.tuples(*(st.integers(1, 3) for _ in blocks)))
    pairs = [(i, j, c) for b, c in zip(blocks, scales) for i in b for j in b if i != j]
    order = prod(factorial(len(b)) for b in blocks)

    def assemble(images):
        g = list(range(k))
        for b, image in zip(blocks, images):
            for i, x in zip(b, image):
                g[i] = x
        return [str(x + 1) for x in g]

    within = st.tuples(*(st.permutations(b) for b in blocks)).map(assemble)
    weights = [[str(-c if x == i else c if x == j else 0) for x in range(k)] for i, j, c in pairs]
    positive = [str(r) for r, (i, j, _) in enumerate(pairs) if i < j]
    generators = draw(st.lists(within, max_size=3))
    refused = False
    swappable = [(a, b) for a in blocks for b in blocks if a < b and len(a) == len(b)]
    if swappable and draw(st.booleans()):
        a, b = draw(st.sampled_from(swappable))
        swap = dict(zip(a + b, b + a))
        generators.append([str(swap.get(x, x) + 1) for x in range(k)])
        refused = True
    if draw(st.integers(0, 4)) == 0:
        i, j = draw(st.permutations(range(k)))[:2] if k > 1 else (0, None)
        root = [2 if x == i else -1 if x == j else 0 for x in range(k)]
        positive.append(str(len(weights)))
        weights += [[str(x) for x in root], [str(-x) for x in root]]
        refused = True
    doc = model_to_config(grassmannian_model(k, n))
    doc["roots"] = {
        "weights": weights,
        "positive": positive,
        "weyl_generators": generators,
        "weyl_order": str(draw(st.one_of(st.just(order), st.integers(1, 7)))),
    }
    action = draw(st.one_of(st.none(), st.lists(st.permutations(range(k)), max_size=3)))
    if action is None:
        del doc["weyl_action"]
    else:
        doc["weyl_action"] = [[str(x + 1) for x in g] for g in action]
    doc["orbifold_prefactor"] = draw(st.sampled_from(["1", "2", "1/3"]))
    in_w = action is None or all(g[i] in b for g in action for b in blocks for i in b)
    loads = not refused and in_w and doc["roots"]["weyl_order"] == str(order)
    return n, blocks, scales, refused, loads, doc


def all_points_reference(m, twist):
    """The Euler number and the index of a twist as sums over every fixed
    point, with no reduction to Weyl orbits: the index by prod over the
    positive roots of 1 - e^alpha = prod (-alpha) ch(L_2rho) / Td(E+), which
    needs no invariance.  The orbit route must give the same numbers."""
    roots, positive = m.root_data.roots, m.root_data.positive

    def less(weights):
        return m.tangent_bundle + SplitBundle(m.ring, [(w, -1) for w in weights])

    chern = total_chern_series(m.quotient_dim)
    euler = m.prefactor() * integrate_points(m, None, roots, chern, less(roots))
    E = SplitBundle(m.ring, [(w, 1) for w in positive])
    negated = [tuple(-x for x in w) for w in positive]
    td = todd_series(m.ring.top_degree - len(negated))
    V = twist.tensor(exterior_power(E, E.rank))
    return euler, integrate_points(m, None, negated, td, less(positive), V)


def polynomial_product(factors):
    out = [1]
    for f in factors:
        acc = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                acc[i + j] += a * b
        out = acc
    return out


class TestWeylFieldsFuzz:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mutated_weyl_fields())
    def test_answer_is_right_or_a_located_refusal(self, capsys, tmp_path, case):
        # the roots' reflections generate W = prod S_|b| whatever the
        # generators, so a config loads exactly when its roots form blocks,
        # its generators and action lie in W and it declares that order, and
        # then answers right; roots of another shape and a swap of blocks
        # are refused at `roots`
        n, blocks, scales, refused, loads, doc = case
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(doc))
        prefactor = Fraction(doc["orbifold_prefactor"])
        betti = polynomial_product(oracle_betti(len(b), n) for b in blocks)
        k = sum(map(len, blocks))
        expected = {
            ("euler",): f"{prefactor * prod(comb(n, len(b)) for b in blocks)}\n",
            ("betti",): ",".join(map(str, betti)) + "\n",
            ("index", f"--line={','.join(['1'] * k)}"): None,
        }
        if loads:
            # c(e_j - e_i) scale e by a constant, so ann(e) and the Betti
            # numbers are the same; the rest is checked against all points
            m = load_config(str(path))
            assert m.root_data.blocks is not None
            euler, index = all_points_reference(m, SplitBundle(m.ring, [((1,) * k, 1)]))
            if set(scales) == {1}:
                assert f"{euler}\n" == expected[("euler",)]
            expected[("euler",)] = f"{euler}\n"
            expected[("index", f"--line={','.join(['1'] * k)}")] = f"{index}\n"
        where = f"config error: {path}.roots:" if refused else f"config error: {path}"
        for argv, out in expected.items():
            status, stdout, err = run(capsys, *argv[:1], "--config", str(path), *argv[1:])
            if loads:
                assert (status, stdout, err) == (0, out, "")
            else:
                assert (status, stdout) == (2, "")
                assert err.startswith(where)


def test_python_m_runs_the_cli_in_a_fresh_interpreter():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv, code, out in [
        (("betti", "--grassmannian", "2", "4"), 0, "1,1,2,1,1\n"),
        (("frobnicate",), 2, ""),
    ]:
        done = subprocess.run(
            [sys.executable, "-m", "abelianize", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (code, out)
