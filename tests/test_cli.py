"""Tests for the command-line driver and the config schema."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from abelianize import cli
from abelianize.config import (
    ConfigError,
    load_config,
    model_from_config,
    model_to_config,
)
from abelianize.charclass import index_torus
from abelianize.presentation import poincare_polynomial
from abelianize.quotient import SplitBundle, grassmannian_model


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
        name, *rest = command
        status, out, err = run(capsys, name, "--grassmannian", "2", "4", "--subgroup", *rest)
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


def g24_config() -> dict:
    return model_to_config(grassmannian_model(2, 4))


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
        "change",
        [
            {"roots": {"weights": [], "positive": [], "weyl_order": "1"}},
            {
                "roots": {
                    "weights": [["-1", "1"], ["1", "-1"]],
                    "positive": ["0"],
                    "weyl_order": "1",
                }
            },
            {
                "tangent_bundle": [
                    {"weight": ["1", "0"], "multiplicity": "5"},
                    {"weight": ["0", "1"], "multiplicity": "3"},
                    {"weight": "0", "multiplicity": "-2"},
                ]
            },
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
        ],
        ids=["torus", "weyl-order-1", "tangent", "unequal-truncations"],
    )
    def test_oracle_refuses_a_model_that_is_not_a_grassmannian(self, capsys, tmp_path, change):
        doc = g24_config()
        doc.update(change)
        path = tmp_path / "not-g24.json"
        path.write_text(json.dumps(doc))
        status, out, err = run(
            capsys, "pairing", "--config", str(path), "--exps", "0,3", "--oracle"
        )
        assert (status, out) == (2, "")
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
        assert err == f"config error: {path}: subgroup roots must be closed under negation\n"

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
        betti = ",".join(map(str, poincare_polynomial(rel))) + "\n"
        assert run(capsys, "betti", *cfg) == (0, betti, "")
        V = SplitBundle(rel.ring, [((1, 1), 1)])
        index = f"{index_torus(rel, V)}\n"
        assert run(capsys, "index", *cfg, "--line=1,1", "--check-two-term") == (0, index, "")

    def test_matrix_generator_accepted(self):
        doc = {
            "schema": "1",
            "ring": {"variables": "2", "truncations": ["3", "3"]},
            "roots": {
                "weights": [["1", "0"], ["-1", "0"]],
                "positive": ["0"],
                "weyl_generators": [{"matrix": [["-1", "0"], ["0", "-1"]]}],
                "weyl_order": "2",
            },
            "tangent_bundle": [
                {"weight": ["1", "0"], "multiplicity": "3"},
                {"weight": ["0", "1"], "multiplicity": "3"},
                {"weight": "0", "multiplicity": "-2"},
            ],
            "weyl_action": [["1", "2"]],
        }
        m = model_from_config(doc)
        assert m.root_data.weyl_generators == (((-1, 0), (0, -1)),)

    def test_matrix_generators_need_explicit_action(self):
        doc = {
            "schema": "1",
            "ring": {"variables": "2", "truncations": ["3", "3"]},
            "roots": {
                "weights": [["1", "0"], ["-1", "0"]],
                "positive": ["0"],
                "weyl_generators": [{"matrix": [["-1", "0"], ["0", "-1"]]}],
                "weyl_order": "2",
            },
            "tangent_bundle": [
                {"weight": ["1", "0"], "multiplicity": "3"},
                {"weight": ["0", "1"], "multiplicity": "3"},
                {"weight": "0", "multiplicity": "-2"},
            ],
        }
        with pytest.raises(ConfigError, match="weyl_action"):
            model_from_config(doc)

    @pytest.mark.parametrize("declared, found", [("4", "2"), ("1", "greater than 1")])
    def test_matrix_generator_with_wrong_weyl_order_exits_2(
        self, capsys, tmp_path, declared, found
    ):
        # the coordinate swap of G(2,4) as a matrix has order 2
        doc = g24_config()
        doc["roots"]["weyl_generators"] = [{"matrix": [["0", "1"], ["1", "0"]]}]
        doc["roots"]["weyl_order"] = declared
        path = tmp_path / "swap.json"
        path.write_text(json.dumps(doc))
        status, out, err = run(capsys, "euler", "--config", str(path))
        assert (status, out) == (2, "")
        assert err == (
            f"config error: {path}.roots: weyl_order {declared} "
            f"does not match generated group of order {found}\n"
        )

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
