"""Seeded query lists for the benchmark's workloads.

A workload is a fixed mix of query slots; the seed fills in each slot's
parameters (exponents, polynomials, series, twists, config presentations,
output formats) and the order.  Every slot carries its reference: an exact
expected stdout computed by `oracles`, a key into the stored outputs of
`golden.json` for the few queries with no independent reference, or the
location an input error must name.  Costs per slot barely depend on the
seed, so run-to-run figures compare across seeds.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import oracles

WORKLOADS = ("charclass-dense", "small-queries")


@dataclass(frozen=True)
class Query:
    """One closed-loop request: a CLI argv, or a library call `lib`."""

    name: str
    argv: tuple[str, ...] = ()
    lib: tuple = ()
    stdout: str | None = None  # exact expected stdout
    stored: str | None = None  # key into golden.json instead of `stdout`
    error_at: str | None = None  # a located exit 2 naming this is accepted,
    #                              and required when no stdout is expected
    probe: str | None = None  # known-defect probe name


@dataclass
class Workload:
    queries: list[Query]
    files: dict[str, bytes]  # config path -> bytes
    min_rounds: int  # fewest timed passes a run makes
    best_of_passes: bool  # time each query by its fastest pass (see run.py)

    @property
    def tail_fraction(self) -> float:
        """Highest quantile with at least ten samples beyond it in the
        smallest run this workload makes (min_rounds full passes)."""
        n = self.min_rounds * len(self.queries)
        return int((1 - 10 / n) * 1000) / 1000

    def write_files(self) -> None:
        write_files(self.files)


def write_files(files: dict[str, bytes]) -> None:
    for path, data in files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)


def build(name: str, seed: int, config_dir: str) -> Workload:
    """The query list of a workload: a pure function of name and seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    gen = Generator(rng, config_dir)
    builder = {
        "charclass-dense": _charclass_dense,
        "small-queries": _small_queries,
    }[name]
    queries, min_rounds, best_of_passes = builder(gen)
    rng.shuffle(queries)
    return Workload(queries, gen.files, min_rounds, best_of_passes)


# -- helpers ------------------------------------------------------------------


def _g(k: int, n: int) -> tuple[str, ...]:
    return ("--grassmannian", str(k), str(n))


def _fmt(value: Fraction) -> str:
    return f"{Fraction(value)}\n"


def _gen_sets(k: int) -> list[list[tuple[int, ...]]]:
    """Generating sets of the symmetric group S_k, as 1-based image lists."""

    def swap(i: int, j: int) -> tuple[int, ...]:
        g = list(range(1, k + 1))
        g[i], g[j] = g[j], g[i]
        return tuple(g)

    if k == 1:
        return [[]]
    cycle = tuple(list(range(2, k + 1)) + [1])
    return [
        [swap(i, i + 1) for i in range(k - 1)],
        [swap(0, j) for j in range(1, k)],
        [swap(0, 1), cycle] if k > 2 else [swap(0, 1)],
    ]


@dataclass(frozen=True)
class Model:
    """A generated config model re-presenting G(k,n)."""

    k: int
    n: int
    path: str
    prefactor: Fraction
    dump: str  # the exact `config-dump` output


class Generator:
    """Seeded parameters and config files for one workload."""

    def __init__(self, rng: random.Random, config_dir: str):
        self.rng = rng
        self.config_dir = config_dir
        self.files: dict[str, bytes] = {}

    def write_config(self, stem: str, text: str) -> str:
        path = os.path.join(self.config_dir, f"{stem}.json")
        self.files[path] = text.encode("utf-8")
        return path

    def grassmannian_doc(self, k, n, prefactor="1", subgroup=None):
        """A seeded presentation of G(k,n): builtin or explicit roots, a
        seeded generating set of S_k, a shuffled tangent-summand order."""
        rng = self.rng
        action = rng.choice(_gen_sets(k))
        tangent = list(range(k + 1))
        rng.shuffle(tangent)
        doc: dict = {"schema": "1", "ring": {"variables": str(k), "truncations": [str(n)] * k}}
        if rng.random() < 0.5:
            doc["roots"] = f"unitary:{k}"
            root_gens = _gen_sets(k)[0]
        else:
            root_gens = rng.choice(_gen_sets(k))
            roots = oracles.unitary_roots(k)
            doc["roots"] = {
                "weights": [[str(x) for x in w] for w in roots],
                "positive": [str(i) for i, w in enumerate(roots) if w.index(-1) < w.index(1)],
                "weyl_generators": [[str(x) for x in g] for g in root_gens],
                "weyl_order": str(factorial(k)),
            }
        doc["tangent_bundle"] = [
            {"weight": "0", "multiplicity": str(-k)}
            if i == k
            else {"weight": [str(int(j == i)) for j in range(k)], "multiplicity": str(n)}
            for i in tangent
        ]
        if prefactor != "1" or rng.random() < 0.5:
            doc["orbifold_prefactor"] = prefactor
        if action != root_gens or rng.random() < 0.5:
            doc["weyl_action"] = [[str(x) for x in g] for g in action]
        if subgroup is not None:
            doc["subgroup_roots"] = {
                "indices": [str(i) for i in subgroup],
                "weyl_order": str(oracles.subgroup_order(oracles.unitary_roots(k), subgroup)),
            }
        dump = oracles.config_dump_text(
            k, n, root_gens, action, tangent, prefactor, subgroup
        )
        return doc, dump

    def model(self, stem, k, n, prefactor="1", subgroup=None) -> Model:
        doc, dump = self.grassmannian_doc(k, n, prefactor, subgroup)
        path = self.write_config(stem, json.dumps(doc, indent=2))
        return Model(k, n, path, Fraction(prefactor), dump)

    # -- seeded parameters ------------------------------------------------

    def exps(self, k: int, n: int) -> tuple[int, ...]:
        """A pairing exponent vector; one in eight is off the top degree."""
        dim = k * (n - k)
        degree = dim + self.rng.choice([-1, 1]) if self.rng.random() < 0.125 else dim
        return self.rng.choice(oracles.degree_vectors(k, max(degree, 0)))

    def coeff(self) -> Fraction:
        return Fraction(self.rng.choice([-3, -2, -1, 1, 2, 3, 5]), self.rng.choice([1, 1, 2, 3, 4]))

    def torus_poly(self, k: int, n: int) -> tuple[str, Fraction]:
        """Random monomials in the box; reference is the top coefficient."""
        top = (n - 1,) * k
        terms = {}
        size = min(self.rng.randint(2, 5), n**k - 1)
        while len(terms) < size:
            terms[tuple(self.rng.randrange(n) for _ in range(k))] = self.coeff()
        if self.rng.random() < 0.75:
            terms[top] = self.coeff()
        return oracles.poly_text(terms), Fraction(terms.get(top, 0))

    def symmetric_poly(self, k: int, n: int) -> tuple[str, Fraction]:
        """A combination of e-monomials of top degree (plus one of lower
        degree), expanded; reference is its oracle pairing."""
        dim = k * (n - k)
        parts = [(self.coeff(), self.rng.choice(oracles.degree_vectors(k, dim)))
                 for _ in range(self.rng.randint(1, 3))]
        if dim > 1:
            parts.append((self.coeff(), self.rng.choice(oracles.degree_vectors(k, dim - 1))))
        terms: dict[tuple[int, ...], Fraction] = {}
        value = Fraction(0)
        for c, vec in parts:
            value += c * oracles.oracle_chern_pairing(k, n, vec)
            for e, a in oracles.expand_e_monomial(k, n, vec).items():
                terms[e] = terms.get(e, 0) + c * a
        return oracles.poly_text(terms), value

    def series(self, length: int = 6) -> list[Fraction]:
        """c_0 = 1, then +-1 or +-2 over 2j+1: a seeded series whose
        coefficient sizes, and so whose cost, do not depend on the seed."""
        return [Fraction(1)] + [
            Fraction(self.rng.choice([-2, -1, 1, 2]), 2 * j + 1) for j in range(1, length)
        ]

    def twist(self, k: int, n: int, degrees=(-1, 1, 2)) -> tuple[str, Fraction]:
        """A uniform twist d,...,d[:m]; reference m x the Weyl dimension."""
        d, mult = self.rng.choice(degrees), self.rng.randint(1, 3)
        line = ",".join([str(d)] * k) + (f":{mult}" if mult > 1 else "")
        return line, mult * oracles.weyl_dimension(k, n, d)


# -- pools with stored outputs (seed-independent, see make_golden.py) --------

def subgroup_polys(k: int, n: int) -> list[str]:
    """The pool of lifts for `integrate --subgroup` on a small config model."""
    rng = random.Random(f"subgroup-pool:{k}:{n}")
    gen = Generator(rng, "")
    pool = []
    for i in range(6):
        text, _ = gen.symmetric_poly(k, n) if i % 2 else gen.torus_poly(k, n)
        pool.append(text)
    return pool


#: Config models with a U(2)xU(1) subgroup block: (label, k, n, prefactor,
#: subgroup root indices).  Only the small one's `integrate --subgroup`
#: queries use stored outputs.
DENSE_CONFIG = ("G(3,6)/U2xU1", 3, 6, "2", [0, 2])
SMALL_SUBGROUP_CONFIG = ("G(3,5)/U2xU1", 3, 5, "1", [0, 2])
#: Models of the `presentation` text reports in small-queries.
PRESENTATION_MODELS = ((2, 4), (2, 5), (2, 6), (2, 7), (3, 5))


def betti_text(betti: list[int]) -> str:
    return ",".join(map(str, betti)) + "\n"


# -- known-defect probes -------------------------------------------------------


def _probe_orbifold_pairing(gen: Generator) -> Query:
    model = gen.model("probe-orbifold-g24", 2, 4, prefactor="2")
    return Query(
        "probe:orbifold-pairing-ignores-prefactor",
        ("pairing", "--config", model.path, "--exps", "4,0"),
        stdout="4\n",
        probe="orbifold-pairing-ignores-prefactor",
    )


def _probe_matrix_weyl_order(gen: Generator) -> Query:
    doc = {
        "schema": "1",
        "ring": {"variables": "2", "truncations": ["4", "4"]},
        "roots": {
            "weights": [["-1", "1"], ["1", "-1"]],
            "positive": ["0"],
            "weyl_generators": [{"matrix": [["0", "1"], ["1", "0"]]}],
            "weyl_order": "4",
        },
        "tangent_bundle": [
            {"weight": ["1", "0"], "multiplicity": "4"},
            {"weight": ["0", "1"], "multiplicity": "4"},
            {"weight": "0", "multiplicity": "-2"},
        ],
        "weyl_action": [["2", "1"]],
    }
    path = gen.write_config("probe-matrix-weyl-order", json.dumps(doc, indent=2))
    return Query(
        "probe:matrix-generator-wrong-weyl-order",
        ("euler", "--config", path),
        stdout="6\n",
        error_at=path,
        probe="matrix-generator-wrong-weyl-order",
    )


def _probe_empty_weyl_action(gen: Generator) -> Query:
    doc = {
        "schema": "1",
        "ring": {"variables": "2", "truncations": ["4", "4"]},
        "roots": "unitary:2",
        "tangent_bundle": [
            {"weight": ["1", "0"], "multiplicity": "4"},
            {"weight": ["0", "1"], "multiplicity": "4"},
            {"weight": "0", "multiplicity": "-2"},
        ],
        "weyl_action": [],
    }
    path = gen.write_config("probe-empty-weyl-action", json.dumps(doc, indent=2))
    return Query(
        "probe:empty-weyl-action",
        ("betti", "--config", path),
        stdout="1,1,2,1,1\n",
        error_at=path,
        probe="empty-weyl-action",
    )


# -- the workloads --------------------------------------------------------------


def _charclass_dense(gen: Generator) -> tuple[list[Query], int, bool]:
    """Euler, signature, characteristic numbers and indices on dense rings."""
    qs: list[Query] = []

    def add(label, argv, value):
        qs.append(Query(f"{argv[0]} {label}", argv, stdout=_fmt(value)))

    for (k, n), slots in {
        (3, 7): ("euler", "signature", "todd", "l-class", "series"),
        (3, 8): ("signature", "index"),
        (3, 9): ("signature", "l-class"),
        (4, 6): ("signature", "l-class"),
    }.items():
        label, g = f"G({k},{n})", _g(k, n)
        for slot in slots:
            if slot == "euler":
                add(label, ("euler", *g), oracles.euler(k, n))
            elif slot == "signature":
                add(label, ("signature", *g), oracles.signature(k, n))
            elif slot in ("todd", "l-class"):
                value = 1 if slot == "todd" else oracles.signature(k, n)
                add(f"{slot} {label}", ("charnum", *g, "--class", slot), value)
            elif slot == "series":
                coeffs = gen.series()
                add(f"series {label}", ("charnum", *g, "--series", ",".join(map(str, coeffs))),
                    oracles.characteristic_number(k, n, coeffs))
            else:
                line, value = gen.twist(k, n)
                add(label, ("index", *g, f"--line={line}"), value)

    # The orbifold config with a U(2)xU(1) subgroup block.  A uniform twist
    # is pulled back from G(3,6) to the flag bundle, so its index is the
    # Weyl dimension (the index takes no prefactor); the two-term form must
    # print the same value.  Degrees 2 and up are left out, as the subgroup
    # index is wrong there on the seed program (2,2,2 gives -315, not 175);
    # degree 0 is left out because its trivial twist makes the query cheaper.
    label, k, n, prefactor, sub = DENSE_CONFIG
    model = gen.model("dense-config", k, n, prefactor, sub)
    cfg = ("--config", model.path)
    for extra in ((), ("--check-two-term",)):
        line, value = gen.twist(k, n, degrees=(-1, 1))
        add(f"--subgroup{' two-term' if extra else ''} {label}",
            ("index", *cfg, f"--line={line}", "--subgroup", *extra), value)
    add(f"total-chern {label}", ("charnum", *cfg, "--class", "total-chern"),
        model.prefactor * oracles.euler(k, n))
    coeffs = gen.series()
    add(f"series {label}", ("charnum", *cfg, "--series", ",".join(map(str, coeffs))),
        model.prefactor * oracles.characteristic_number(k, n, coeffs))

    dim = 3 * 4
    exps = gen.rng.choice(oracles.degree_vectors(3, dim - gen.rng.randint(0, 4)))
    qs.append(Query("lib segre G(3,7)", lib=("segre", 3, 7, exps),
                    stdout=_fmt(oracles.segre_pairing(3, 7, exps))))
    qs.append(_probe_matrix_weyl_order(gen))
    return qs, 3, False


SMALL_MODELS = ((1, 3), (1, 5), (2, 4), (2, 5), (2, 6), (2, 7), (3, 5), (3, 6), (3, 7))
EULER_MODELS = ((1, 3), (1, 5), (2, 4), (2, 5), (2, 6), (2, 7), (3, 5))
SIGNATURE_MODELS = ((1, 5), (2, 4), (2, 6), (3, 5))


def _malformed(gen: Generator, kind: str, index: int) -> Query:
    """A broken config and the location its refusal must name."""
    k, n = gen.rng.choice(((2, 4), (2, 5), (3, 5)))
    doc, _ = gen.grassmannian_doc(k, n, subgroup=[])
    stem = f"malformed-{kind}-{index}"
    path = os.path.join(gen.config_dir, f"{stem}.json")
    if kind == "float-prefactor":
        doc["orbifold_prefactor"] = 0.5
        where = f"{path}.orbifold_prefactor"
    elif kind == "bad-truncation":
        j = gen.rng.randrange(k)
        doc["ring"]["truncations"][j] = "x"
        where = f"{path}.ring.truncations[{j}]"
    elif kind == "missing-tangent":
        del doc["tangent_bundle"]
        where = f"{path}.tangent_bundle"
    elif kind == "subgroup-index":
        doc["subgroup_roots"] = {"indices": [str(k * (k - 1) + gen.rng.randrange(3))], "weyl_order": "1"}
        where = f"{path}.subgroup_roots.indices"
    elif kind == "bad-permutation":
        doc["weyl_action"] = [["1"] * k]
        where = f"{path}.weyl_action[0]"
    elif kind == "schema":
        doc["schema"] = "9"
        where = f"{path}.schema"
    text = json.dumps(doc, indent=2)
    if kind == "json-syntax":
        where = path
        text = text[: gen.rng.randrange(1, len(text) - 2)]
        try:
            json.loads(text)
        except json.JSONDecodeError as err:
            where = f"{path}:{err.lineno}:{err.colno}"
    gen.write_config(stem, text)
    command = gen.rng.choice([("euler",), ("betti",), ("pairing", "--table")])
    return Query(f"malformed {kind}", (*command, "--config", path), error_at=where)


MALFORMED_KINDS = ("float-prefactor", "bad-truncation", "missing-tangent", "subgroup-index",
                   "bad-permutation", "schema", "json-syntax")


def integrate_argv(model_args: tuple[str, ...], text: str, *flags: str) -> tuple[str, ...]:
    """`integrate` argv; the polynomial follows `--`, as one with a negative
    leading coefficient would otherwise be read as an option."""
    return ("integrate", *model_args, *flags, "--", text)


def _small_queries(gen: Generator) -> tuple[list[Query], int, bool]:
    """Hundreds of short queries where fixed per-call cost dominates; the
    small presentation reports and pairing signatures also keep every
    presentation layer (invariant bases, ann(e), Gram matrices, charpoly)
    measured."""
    qs: list[Query] = []

    def pairings(label, k, n, model_args, count, prefactor=Fraction(1)):
        for i in range(count):
            exps = gen.exps(k, n)
            oracle = ("--oracle",) if i % 2 else ()
            qs.append(Query(f"pairing {label}{' oracle' if oracle else ''}",
                            ("pairing", *model_args, "--exps", ",".join(map(str, exps)), *oracle),
                            stdout=_fmt(prefactor * oracles.oracle_chern_pairing(k, n, exps))))

    def integrals(label, k, n, model_args, count, prefactor=Fraction(1)):
        for _ in range(count):
            text, value = gen.torus_poly(k, n)
            qs.append(Query(f"integrate --torus {label}", integrate_argv(model_args, text, "--torus"),
                            stdout=_fmt(value)))
            text, value = gen.symmetric_poly(k, n)
            qs.append(Query(f"integrate {label}", integrate_argv(model_args, text),
                            stdout=_fmt(prefactor * value)))

    for k, n in SMALL_MODELS:
        label, g = f"G({k},{n})", _g(k, n)
        pairings(label, k, n, g, 12)
        integrals(label, k, n, g, 4)
        qs.append(Query(f"pairing --table {label}", ("pairing", *g, "--table", "--format", "csv"),
                        stdout=oracles.pairing_table_csv(k, n)))
        qs.append(Query(f"betti {label}", ("betti", *g), stdout=betti_text(oracles.oracle_betti(k, n))))
        qs.append(Query(f"lib oracle_betti {label}", lib=("oracle_betti", k, n),
                        stdout=betti_text(oracles.gaussian_binomial(n, k))))
        qs.append(Query(f"config-dump {label}", ("config-dump", *g),
                        stdout=oracles.config_dump_text(k, n, _gen_sets(k)[0], _gen_sets(k)[0],
                                                        list(range(k + 1)))))
        if (k, n) in EULER_MODELS:
            qs.append(Query(f"euler {label}", ("euler", *g), stdout=_fmt(oracles.euler(k, n))))
        if (k, n) != (3, 7):
            qs.append(Query(f"oracle-check {label}", ("oracle-check", "--grassmannian", str(k), str(n)),
                            stdout=oracles.oracle_check_text(k, n)))
        if (k, n) in PRESENTATION_MODELS:
            qs.append(Query(f"presentation {label}", ("presentation", *g), stored=f"presentation {label}"))
        if (k, n) in SIGNATURE_MODELS:
            qs.append(Query(f"lib signature_from_pairing {label}", lib=("signature_from_pairing", k, n),
                            stdout=_fmt(oracles.signature(k, n))))

    # Config models: a torus subgroup block, whose --subgroup integral equals
    # the group integral, and a U(2)xU(1) block with stored outputs.
    torus = gen.model("small-torus-subgroup", 2, 5, subgroup=[])
    label_s, k_s, n_s, prefactor_s, sub_s = SMALL_SUBGROUP_CONFIG
    levi = gen.model("small-levi-subgroup", k_s, n_s, prefactor_s, sub_s)
    pool = subgroup_polys(k_s, n_s)
    for model, label in ((torus, "G(2,5)/T"), (levi, label_s)):
        cfg = ("--config", model.path)
        k, n = model.k, model.n
        pairings(label, k, n, cfg, 6)
        integrals(label, k, n, cfg, 3)
        for _ in range(3):
            if model is torus:
                text, value = gen.symmetric_poly(k, n)
                qs.append(Query(f"integrate --subgroup {label}", integrate_argv(cfg, text, "--subgroup"),
                                stdout=_fmt(value)))
            else:
                i = gen.rng.randrange(len(pool))
                qs.append(Query(f"integrate --subgroup {label}", integrate_argv(cfg, pool[i], "--subgroup"),
                                stored=f"integrate --subgroup {label} #{i}"))
        qs.append(Query(f"betti {label}", ("betti", *cfg), stdout=betti_text(oracles.oracle_betti(k, n))))
        qs.append(Query(f"euler {label}", ("euler", *cfg), stdout=_fmt(oracles.euler(k, n))))
        qs.append(Query(f"config-dump {label}", ("config-dump", *cfg), stdout=model.dump))

    orbifold = _probe_orbifold_pairing(gen)
    cfg = ("--config", orbifold.argv[2])
    integrals("G(2,4)/orbifold", 2, 4, cfg, 2, prefactor=Fraction(2))
    qs.append(Query("euler G(2,4)/orbifold", ("euler", *cfg), stdout=_fmt(2 * oracles.euler(2, 4))))
    qs.append(orbifold)
    qs.append(_probe_empty_weyl_action(gen))
    for kind in MALFORMED_KINDS:
        for i in range(2):
            qs.append(_malformed(gen, kind, i))
    return qs, 15, True
