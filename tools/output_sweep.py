"""Print one line per query of a fixed sweep, for byte-identity checks.

    python tools/output_sweep.py CHECKOUT > sweep.txt

Runs every query in-process against the `abelianize` package and the
benchmark workloads of the checkout at CHECKOUT, and prints, per query, the
exit status, a hash of stdout and stderr, and the argv.  Two checkouts
compare with `diff`: a line differs exactly where a query's exit status,
stdout or stderr does.

The queries are every model subcommand on each G(k,n) with k <= 4 and
dimension k(n-k) <= 16, with `pairing --exps` at vectors of degree q - 1,
q + 1 and q + 2 for the dimension q, and `index` at the uniform twist
(1,...,1), at (0,1,...,k-1), which no transposition fixes, and at
(1,...,1,0), which the permutations of the first k - 1 variables fix, the
last two also with `--check-two-term`; plus `oracle-check` on each G(k,n),
and the same model subcommands on every config file the two benchmark
workloads write at seeds 1-6; on the configs, the subcommands that take
`--subgroup` in that checkout's parser run with and without it, so a
checkout that drops the flag lists fewer queries, and `diff` shows which.
The same queries run on `REFUSALS`, one config per refusal of a model that
W does not act on as declared or whose positive roots order no block.
Last come library lines, which no CLI query reaches, on each G(k,n) above:
the Segre pairings, the integrals of prod_i (1 + u_i)^-1 * prod_i e_i^m_i
with `Poly.inverse` and ring products, at the `pairing --exps` vectors of
every degree up to the dimension; and the values of `mult_class` (total
Chern, Todd and L-class of the tangent bundle) and `lambda_alternating_ch`
(of the positive-root bundle), rendered.
Config files are written to a temporary directory under relative paths, so
error messages that name a path read the same for every checkout.  Stdlib
only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile

SEEDS = range(1, 7)
COMMANDS = ("pairing", "integrate", "betti", "presentation", "euler", "signature", "charnum",
            "index", "config-dump")


def _monomial(k: int, n: int, degree: int) -> str:
    """u1^a1*...*uk^ak of the given degree with every a_i <= n - 1, or u1
    when none exists."""
    exps = []
    for _ in range(k):
        exps.append(min(degree, n - 1))
        degree -= exps[-1]
    if degree or not any(exps):
        return "u1"
    return "*".join(f"u{i}^{a}" for i, a in enumerate(exps, 1) if a)


def _unit_tangent(truncations: list[int]) -> list[dict]:
    """n_i copies of u_i per variable and -k trivial lines: the tangent of
    prod P^{n_i - 1} by the Euler sequence."""
    k = len(truncations)
    lines = [{"weight": [str(int(i == j)) for j in range(k)], "multiplicity": str(n)}
             for i, n in enumerate(truncations)]
    return lines + [{"weight": "0", "multiplicity": str(-k)}]


def _config(truncations: list[int], roots, **fields) -> dict:
    doc = {
        "schema": "1",
        "ring": {"variables": str(len(truncations)), "truncations": list(map(str, truncations))},
        "roots": roots,
        "tangent_bundle": _unit_tangent(truncations),
    }
    doc.update(fields)
    return doc


#: One config per refusal of a model whose W is not what it declares, or
#: whose positive roots do not order each block.
REFUSALS = {
    # U(2)'s reflection swaps u1 and u2, whose truncations differ
    "moves-truncations": _config([3, 4], "unitary:2", tangent_bundle=[
        {"weight": ["1", "0"], "multiplicity": "3"},
        {"weight": ["0", "1"], "multiplicity": "3"},
        {"weight": "0", "multiplicity": "-1"},
    ]),
    # one copy of u1 more than of u2
    "moves-tangent": _config([4, 4], "unitary:2", tangent_bundle=[
        {"weight": ["1", "0"], "multiplicity": "5"},
        {"weight": ["0", "1"], "multiplicity": "3"},
        {"weight": "0", "multiplicity": "-2"},
    ]),
    # no roots, so W is trivial and the swap is not in it
    "action-outside-w": _config([4, 4], {"weights": [], "positive": [], "weyl_order": "1"},
                                weyl_action=[["2", "1"]]),
    # +-(e1 - e0) and +-(e2 - e1) without +-(e2 - e0)
    "roots-not-closed": _config([5, 5, 5], {
        "weights": [["-1", "1", "0"], ["1", "-1", "0"], ["0", "-1", "1"], ["0", "1", "-1"]],
        "positive": ["0", "2"],
        "weyl_order": "1",
    }),
    # G(3,6)'s U(2)xU(1) block has Weyl order 2, not 1
    "subgroup-order": _config([6, 6, 6], "unitary:3",
                              subgroup_roots={"indices": ["0", "2"], "weyl_order": "1"}),
    # e1 - 2e0 is no multiple of e_j - e_i, so the roots form no blocks and
    # the swap is not in W
    "unstable-roots": _config([4, 4], {
        "weights": [["-1", "1"], ["1", "-1"], ["-2", "1"], ["2", "-1"]],
        "positive": ["0", "2"],
        "weyl_generators": [["2", "1"]],
        "weyl_order": "2",
    }),
    # U(2)xU(2) on (P^2)^4 with the swap of its blocks, which the roots'
    # reflections do not generate
    "block-swap": _config([3, 3, 3, 3], {
        "weights": [["-1", "1", "0", "0"], ["1", "-1", "0", "0"],
                    ["0", "0", "-1", "1"], ["0", "0", "1", "-1"]],
        "positive": ["0", "2"],
        "weyl_generators": [["3", "4", "1", "2"]],
        "weyl_order": "8",
    }),
    # G(3,6) with the subgroup roots +-(e1 - e0) and +-(e2 - e1), not closed
    "subgroup-not-closed": _config([6, 6, 6], "unitary:3",
                                   subgroup_roots={"indices": ["0", "2", "3", "5"],
                                                   "weyl_order": "2"}),
    # U(2) on (P^3)^2 with e2 - e1 listed twice as positive
    "positive-twice": _config([4, 4], {
        "weights": [["-1", "1"], ["1", "-1"]],
        "positive": ["0", "0"],
        "weyl_generators": [["2", "1"]],
        "weyl_order": "2",
    }),
    # U(3) on (P^4)^3 with the cyclic choice e2 - e1, e3 - e2, e1 - e3
    "positive-cycle": _config([5, 5, 5], {
        "weights": [["-1", "1", "0"], ["-1", "0", "1"], ["1", "-1", "0"],
                    ["0", "-1", "1"], ["1", "0", "-1"], ["0", "1", "-1"]],
        "positive": ["0", "3", "4"],
        "weyl_generators": [["2", "1", "3"], ["1", "3", "2"]],
        "weyl_order": "6",
    }),
}


def _exps(k: int, degree: int) -> list[str]:
    """Pairing exponent vectors of the given degree sum_i i*m_i: all of it on
    c_1, and as much of it as fits on c_k with the rest on c_1."""
    if degree < 0:
        return []
    vectors = {(degree,) + (0,) * (k - 1), (degree % k,) + (0,) * (k - 2) + (degree // k,)}
    return sorted(",".join(map(str, v)) for v in vectors if len(v) == k)


def _queries(model: tuple[str, ...], k: int, n: int, degree: int, subgroup=frozenset()):
    line = ",".join(["1"] * k)
    twists = dict.fromkeys([",".join(map(str, range(k))), ",".join(["1"] * (k - 1) + ["0"])])
    off_top = [degree - 1, degree + 1, degree + 2]  # pairings that must print 0
    plain = [
        ("pairing", *model, "--table"),
        *(("pairing", *model, "--exps", exps) for d in off_top for exps in _exps(k, d)),
        ("integrate", *model, "--", _monomial(k, n, degree)),
        ("betti", *model),
        ("presentation", *model),
        ("euler", *model),
        ("signature", *model),
        ("charnum", *model, "--class", "todd"),
        ("index", *model, f"--line={line}"),
        *(("index", *model, f"--line={twist}", *check) for twist in twists
          for check in ((), ("--check-two-term",))),
        ("config-dump", *model),
    ]
    for argv in plain:
        yield argv
        if argv[0] in subgroup:
            yield (argv[0], *model, "--subgroup", *argv[1 + len(model):])


def _takes_subgroup(parser: argparse.ArgumentParser, command: str) -> bool:
    """Whether the subcommand's help, and so its parser, lists `--subgroup`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
        parser.parse_args([command, "--help"])
    return "--subgroup" in out.getvalue()


def _config_shape(path: str) -> tuple[int, int, int]:
    """k, the first truncation and the quotient dimension a config declares,
    or (1, 1, 0) where it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        k = int(doc["ring"]["variables"])
        truncs = [int(x) for x in doc["ring"]["truncations"]]
        roots = doc["roots"]
        count = k * (k - 1) if isinstance(roots, str) else len(roots["weights"])
        return k, truncs[0], sum(truncs) - k - count
    except (OSError, ValueError, KeyError, TypeError, IndexError):
        return 1, 1, 0


def _library(k: int, n: int):
    """(label, call) for each library line on G(k,n); a call returns the
    line's output text."""
    from abelianize import charclass, quotient, ratpoly

    model = quotient.grassmannian_model(k, n)
    ring, q = model.ring, k * (n - k)
    grassmannian = ("--grassmannian", str(k), str(n))

    def segre(exps: str):
        total_chern = ring.one()
        for i in range(k):
            total_chern = total_chern * (ring.one() + ring.variable(i))
        lift = total_chern.inverse()
        for i, m in enumerate(map(int, exps.split(",")), start=1):
            lift = lift * ratpoly.elementary_symmetric(ring, i) ** m
        return str(quotient.integrate_group(model, lift))

    for d in range(q + 1):
        for exps in _exps(k, d):
            yield ("lib", "segre", *grassmannian, "--exps", exps), lambda exps=exps: segre(exps)
    for name, series in charclass.CLASS_SERIES.items():
        yield (("lib", "mult_class", name, *grassmannian),
               lambda series=series: str(charclass.mult_class(series(q), model.tangent_bundle)))
    positive = quotient.SplitBundle(ring, [(w, 1) for w in model.root_data.positive])
    yield (("lib", "lambda_alternating_ch", *grassmannian),
           lambda: str(charclass.lambda_alternating_ch(positive)))


def _line(argv: tuple[str, ...], call) -> str:
    """status, hash of stdout and stderr, and argv, for one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = call()
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # a traceback is an outcome to compare too
            status = f"raised {type(exc).__name__}"
            print(exc, file=err)
    digest = hashlib.sha256(f"{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()
    return f"{status}\t{digest[:16]}\t{shlex.join(argv)}"


def sweep(checkout: str) -> list[tuple[str, ...]]:
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    from abelianize import cli
    import workloads

    print(f"abelianize from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    subgroup = frozenset(c for c in COMMANDS if _takes_subgroup(cli.build_parser(), c))
    argvs, grassmannians = [], []
    for k in range(1, 5):
        n = k
        while k * (n - k) <= 16:
            grassmannians.append((k, n))
            argvs.extend(_queries(("--grassmannian", str(k), str(n)), k, n, k * (n - k)))
            argvs.append(("oracle-check", "--grassmannian", str(k), str(n)))
            n += 1
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            load = workloads.build(name, seed, os.path.join("configs", f"{name}-{seed}"))
            load.write_files()
            for path in sorted(load.files):
                k, n, degree = _config_shape(path)
                argvs.extend(_queries(("--config", path), k, n, degree, subgroup))
    os.makedirs("refusals")
    for name, doc in REFUSALS.items():
        path = os.path.join("refusals", f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        k, n, degree = _config_shape(path)
        argvs.extend(_queries(("--config", path), k, n, degree, subgroup))

    for argv in argvs:
        print(_line(argv, lambda: cli.main(list(argv))), flush=True)
    library = [line for k, n in grassmannians for line in _library(k, n)]
    for argv, call in library:
        print(_line(argv, lambda: print(call()) or 0), flush=True)
    return argvs + [argv for argv, _ in library]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="root of the checkout to run")
    checkout = os.path.abspath(parser.parse_args().checkout)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        count = len(sweep(checkout))
    print(f"{count} queries", file=sys.stderr)


if __name__ == "__main__":
    main()
