"""Command-line front end.

Every subcommand prints exact rationals (never decimals) and is deterministic
byte-for-byte for identical inputs.  Exit status is 0 on success, 2 on
configuration or usage errors, and 3 when an oracle check finds a mismatch.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Iterator, Sequence

from . import charclass, presentation, schubert
from .config import ConfigError, load_config, model_to_config
from .quotient import (
    QuotientModel,
    SplitBundle,
    chern_pairing,
    chern_pairings,
    grassmannian_model,
    integrate_group,
    integrate_torus,
)
from .ratpoly import Series, parse_poly, rat
from .rootdata import unitary_roots


def _fmt(value: Fraction, latex: bool = False) -> str:
    value = Fraction(value)
    if latex and value.denominator != 1:
        sign = "-" if value < 0 else ""
        return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"
    return str(value)


def _load_model(args) -> QuotientModel:
    """The model of --grassmannian or --config; with --subgroup, its relative
    model for the subgroup block."""
    if args.grassmannian is not None:
        k, n = args.grassmannian
        if k < 1 or n < k:
            raise ConfigError("--grassmannian", f"need 1 <= K <= N, got K={k}, N={n}")
        m = grassmannian_model(k, n)
    elif args.config is not None:
        m = load_config(args.config)
    else:
        raise ConfigError("model", "supply either --grassmannian K N or --config PATH")
    if not getattr(args, "subgroup", False):
        return m
    if m.subgroup is None:
        raise ConfigError("--subgroup", "the model carries no subgroup_roots block")
    return m.relative()


def _parse_exps(text: str, k: int) -> list[int]:
    try:
        exps = [int(part, 10) for part in text.split(",")]
    except ValueError:
        raise ConfigError("--exps", f"not a comma-separated integer list: {text!r}") from None
    if len(exps) != k:
        raise ConfigError("--exps", f"expected {k} exponents, got {len(exps)}")
    if any(x < 0 for x in exps):
        raise ConfigError("--exps", f"exponents must be nonnegative: {exps}")
    return exps


def pairing_degree_vectors(k: int, degree: int) -> Iterator[tuple[int, ...]]:
    """All exponent vectors (m_1..m_k) with sum i*m_i equal to the degree."""

    def rec(i: int, remaining: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == k:
            if remaining == 0:
                yield prefix
            return
        weight = i + 1
        for mi in range(remaining // weight, -1, -1):
            yield from rec(i + 1, remaining - weight * mi, prefix + (mi,))

    yield from rec(0, degree, ())


# -- subcommands --------------------------------------------------------------


def _grassmannian_n(m: QuotientModel) -> int:
    """The n of G(k,n), k = m.ring.k, when the model presents it: equal
    truncations n, the roots e_j - e_i of U(k), and tangent summands adding
    up to n*u_i for each i and -k trivial lines.  Summand order, generating
    set, subgroup block and orbifold prefactor may be anything.  Any other
    model is refused with a ConfigError."""
    k = m.ring.k
    n = m.ring.truncations[0]
    if set(m.ring.truncations) != {n}:
        reason = f"truncations {list(m.ring.truncations)} are not all equal"
    elif set(m.root_data.roots) != set(unitary_roots(k).roots):
        reason = f"the roots and Weyl order are not those of U({k})"
    elif m.tangent_bundle.multiplicities() != grassmannian_model(k, n).tangent_bundle.multiplicities():
        reason = f"the tangent bundle is not {n} copies of each u_i minus {k} trivial lines"
    else:
        return n
    raise ConfigError("--oracle", f"the Pieri oracle needs a G(k,n) presentation; {reason}")


def _pieri_pairing(m: QuotientModel, n: int, exps: Sequence[int]) -> Fraction:
    """The Pieri oracle's G(k,n) pairing scaled by the model's orbifold
    prefactor, which multiplies every integral of the model."""
    return m.orbifold_prefactor * schubert.oracle_chern_pairing(m.ring.k, n, exps)


def _cmd_pairing(args, out) -> int:
    m = _load_model(args)
    n = _grassmannian_n(m) if args.oracle else None
    if not args.table:
        if args.exps is None:
            raise ConfigError("--exps", "supply --exps M1,...,Mk or --table")
        exps = _parse_exps(args.exps, m.ring.k)
        value = chern_pairing(m, exps)
        if args.oracle and (check := _pieri_pairing(m, n, exps)) != value:
            print(f"mismatch: pairing {_fmt(value)} vs oracle {_fmt(check)}", file=sys.stderr)
            return 3
        print(_fmt(value, args.latex), file=out)
        return 0
    rows = sorted(pairing_degree_vectors(m.ring.k, m.quotient_dim))
    csv = args.format == "csv"
    if csv:
        print(",".join(f"m_{i + 1}" for i in range(m.ring.k)) + ",value", file=out)
    status = 0
    for exps, value in zip(rows, chern_pairings(m, rows)):
        cell = ",".join(str(x) for x in exps)
        if args.oracle and (check := _pieri_pairing(m, n, exps)) != value:
            msg = f"mismatch at {cell}: pairing {_fmt(value)} vs oracle {_fmt(check)}"
            print(msg, file=sys.stderr)
            status = 3
        print(f"{cell},{_fmt(value)}" if csv else f"{cell} -> {_fmt(value, args.latex)}", file=out)
    return status


def _cmd_integrate(args, out) -> int:
    m = _load_model(args)
    try:
        lift = parse_poly(m.ring, args.expr)
    except ValueError as err:
        raise ConfigError("expr", str(err)) from None
    if args.torus:
        value = integrate_torus(m, lift)
    else:
        value = integrate_group(m, lift)
    print(_fmt(value, args.latex), file=out)
    return 0


def _cmd_betti(args, out) -> int:
    m = _load_model(args)
    betti = presentation.poincare_polynomial(m)
    if args.format == "csv":
        print("degree,betti", file=out)
        for d, b in enumerate(betti):
            print(f"{d},{b}", file=out)
    else:
        print(",".join(str(b) for b in betti), file=out)
    return 0


def _cmd_presentation(args, out) -> int:
    m = _load_model(args)
    report = presentation.presentation_report(m)
    if args.format == "csv":
        print("degree,dim_invariants,dim_ann,betti", file=out)
        for row in report.rows:
            print(f"{row.degree},{row.invariant_dim},{row.ann_dim},{row.betti}", file=out)
        return 0
    for row in report.rows:
        print(
            f"degree {row.degree}: invariants {row.invariant_dim}, "
            f"ann {row.ann_dim}, betti {row.betti}, pairing rank {row.betti}",
            file=out,
        )
        for z in row.ann_basis:
            print(f"  ann: {z}", file=out)
    print("betti: " + ",".join(str(b) for b in report.betti), file=out)
    print(f"total: {report.total}", file=out)
    return 0


def _cmd_euler(args, out) -> int:
    m = _load_model(args)
    print(_fmt(charclass.euler_characteristic(m), args.latex), file=out)
    return 0


def _cmd_signature(args, out) -> int:
    m = _load_model(args)
    print(_fmt(charclass.signature(m), args.latex), file=out)
    return 0


def _cmd_charnum(args, out) -> int:
    m = _load_model(args)
    if args.series is not None:
        try:
            coeffs = [rat(part) for part in args.series.split(",")]
        except (ValueError, ZeroDivisionError, TypeError):
            raise ConfigError("--series", f"not a rational list: {args.series!r}") from None
        f = Series(coeffs).truncated(m.quotient_dim)
    elif args.klass in charclass.CLASS_SERIES:
        f = args.klass
    else:
        known = ", ".join(sorted(charclass.CLASS_SERIES))
        raise ConfigError("--class", f"unknown class {args.klass!r}; known: {known}")
    value = charclass.characteristic_number(m, f)
    print(_fmt(value, args.latex), file=out)
    return 0


def _parse_lines(entries: Sequence[str], m: QuotientModel) -> SplitBundle:
    if not entries:
        return SplitBundle(m.ring, [((0,) * m.ring.k, 1)])
    summands = []
    for entry in entries:
        body, _, mult_text = entry.partition(":")
        mult = 1
        if mult_text:
            try:
                mult = int(mult_text, 10)
            except ValueError:
                raise ConfigError("--line", f"bad multiplicity in {entry!r}") from None
        try:
            w = [int(part, 10) for part in body.split(",")]
        except ValueError:
            raise ConfigError("--line", f"not an integer vector: {body!r}") from None
        if len(w) != m.ring.k:
            raise ConfigError("--line", f"expected {m.ring.k} components in {entry!r}")
        summands.append((w, mult))
    return SplitBundle(m.ring, summands)


def _cmd_index(args, out) -> int:
    m = _load_model(args)
    bundle = _parse_lines(args.line or [], m)
    value = charclass.index_group(m, bundle)
    if args.check_two_term:
        other = charclass.index_group_two_term(m, bundle)
        if other != value:
            print(
                f"two-term form disagrees: {_fmt(value)} vs {_fmt(other)}",
                file=sys.stderr,
            )
            return 3
    print(_fmt(value, args.latex), file=out)
    return 0


def _cmd_oracle_check(args, out) -> int:
    cases = [(k, n) for k in range(1, args.max_k + 1) for n in range(k, args.max_n + 1)]
    if args.grassmannian is not None:
        cases = [tuple(args.grassmannian)]
    status = total = 0
    for k, n in cases:
        rows = sorted(pairing_degree_vectors(k, k * (n - k)))
        for exps, value in zip(rows, chern_pairings(grassmannian_model(k, n), rows)):
            check = schubert.oracle_chern_pairing(k, n, exps)
            if value != check:
                print(
                    f"G({k},{n}) exps {','.join(map(str, exps))}: "
                    f"pairing {_fmt(value)} vs oracle {_fmt(check)}",
                    file=sys.stderr,
                )
                status = 3
        total += len(rows)
        print(f"G({k},{n}): {len(rows)} pairings checked", file=out)
    print(f"total: {total} pairings, {'ok' if status == 0 else 'MISMATCH'}", file=out)
    return status


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process, unchanged by parsing; `commands` holds each subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="abelianize",
        description=(
            "Exact cohomology pairings, ring presentations, characteristic "
            "numbers and operator indices on symplectic quotients, computed "
            "through the associated torus quotient."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def add_command(name: str, help: str) -> argparse.ArgumentParser:
        return parser.commands.setdefault(name, sub.add_parser(name, help=help))

    def add_model_args(
        p: argparse.ArgumentParser, subgroup: bool = False, csv: bool = False, latex: bool = False
    ):
        p.add_argument(
            "--grassmannian",
            nargs=2,
            type=int,
            metavar=("K", "N"),
            help="use the builtin Grassmannian model G(K,N)",
        )
        p.add_argument("--config", help="path to a JSON model configuration")
        if csv:
            p.add_argument("--format", choices=["text", "csv"], default="text")
        if latex:
            p.add_argument("--latex", action="store_true", help="render fractions for papers")
        if subgroup:
            p.add_argument(
                "--subgroup",
                action="store_true",
                help="use the model's subgroup_roots block (full-rank-subgroup formulas)",
            )

    p = add_command("pairing", help="pair monomials in dual-tautological Chern classes")
    add_model_args(p, csv=True, latex=True)
    p.add_argument("--exps", help="comma-separated exponents m_1,...,m_k")
    p.add_argument("--table", action="store_true", help="emit all top-degree pairings")
    p.add_argument("--oracle", action="store_true", help="cross-check against the Pieri oracle")
    p.set_defaults(func=_cmd_pairing)

    p = add_command("integrate", help="integrate a lifted class over the quotient")
    add_model_args(p, subgroup=True, latex=True)
    p.add_argument("expr", help="polynomial in the canonical grammar, e.g. 'u1^3*u2^3'")
    p.add_argument("--torus", action="store_true", help="integrate over the torus quotient")
    p.set_defaults(func=_cmd_integrate)

    p = add_command("betti", help="Betti numbers of the quotient presentation")
    add_model_args(p, csv=True)
    p.set_defaults(func=_cmd_betti)

    p = add_command("presentation", help="degreewise presentation report")
    add_model_args(p, csv=True)
    p.set_defaults(func=_cmd_presentation)

    p = add_command("euler", help="Euler characteristic of the quotient")
    add_model_args(p, latex=True)
    p.set_defaults(func=_cmd_euler)

    p = add_command("signature", help="signature of the quotient")
    add_model_args(p, latex=True)
    p.set_defaults(func=_cmd_signature)

    p = add_command("charnum", help="characteristic number for a multiplicative class")
    add_model_args(p, latex=True)
    p.add_argument("--class", dest="klass", default="total-chern", help="named series")
    p.add_argument("--series", help="custom series as rational coefficients c0,c1,...")
    p.set_defaults(func=_cmd_charnum)

    p = add_command("index", help="index of the twisted operator on the quotient")
    add_model_args(p, subgroup=True, latex=True)
    p.add_argument(
        "--line",
        action="append",
        metavar="C1,...,Ck[:MULT]",
        help="line-bundle summand, repeatable (default trivial); a leading - needs --line=-1,-1",
    )
    p.add_argument(
        "--check-two-term",
        action="store_true",
        help="also evaluate the even/odd exterior-power form and compare",
    )
    p.set_defaults(func=_cmd_index)

    p = add_command("oracle-check", help="compare every pairing against the Pieri oracle")
    p.add_argument("--grassmannian", nargs=2, type=int, metavar=("K", "N"))
    p.add_argument("--max-k", type=int, default=3)
    p.add_argument("--max-n", type=int, default=7)
    p.set_defaults(func=_cmd_oracle_check)

    p = add_command("config-dump", help="serialize the model back to config JSON")
    add_model_args(p)
    p.set_defaults(func=_cmd_config_dump)

    return parser


def _cmd_config_dump(args, out) -> int:
    import json

    m = _load_model(args)
    print(json.dumps(model_to_config(m), indent=2, sort_keys=True), file=out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run one query; the parser of the subcommand argv[0] names reads argv[1:]."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    args, extra = command.parse_known_args(argv[1:]) if command else (parser.parse_args(argv), [])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args, sys.stdout)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
