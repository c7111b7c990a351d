"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install()` replaces each traced function of `abelianize` with a
wrapper in every namespace that binds it: the defining module, every module
that imported the name, class dictionaries (so `Poly.__rmul__`, an alias of
`__mul__`, is wrapped too) and module-level dicts such as
`charclass.CLASS_SERIES`.  `uninstall()` puts the originals back.

Each wrapper appends one span (name, start, end, parent span, query id) to an
in-memory list and, for some layers, adds to counters; the spans are written
out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

# -- counters measured at the layer boundary ---------------------------------


def _count_mul(c, args, kwargs, result, state):
    self, other = args
    a = len(self.terms)
    b = len(other.terms) if hasattr(other, "terms") else 1
    c["ratpoly.mul.term_pairs"] += a * b
    c["ratpoly.mul.max_operand_terms"] = max(c["ratpoly.mul.max_operand_terms"], a, b)
    terms = getattr(result, "terms", None)
    if terms is not None:
        c["ratpoly.mul.out_terms"] += len(terms)
        c["ratpoly.mul.fraction_terms"] += sum(1 for x in terms.values() if type(x) is Fraction)


def _count_integrate_torus(c, args, kwargs, result, state):
    c["quotient.integrate_torus.terms_in"] += len(args[1].terms)


def _e_class_cached(args, kwargs):
    model = args[0]
    subgroup = args[1] if len(args) > 1 else kwargs.get("subgroup")
    return subgroup in model._e_cache


def _count_e_class(c, args, kwargs, result, state):
    c["quotient.e_class.hits"] += int(state)


def _count_rref(c, args, kwargs, result, state):
    rows = args[0]
    c["presentation.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_pairing_matrix(c, args, kwargs, result, state):
    c["presentation.pairing_matrix.entries"] += len(result) * (len(result[0]) if result else 0)


def _count_charpoly(c, args, kwargs, result, state):
    c["presentation.charpoly.n"] += len(args[0])


#: (module, attribute path, span name, counter, pre-call probe).  Several
#: functions may share a span name: the named series builders and
#: `exp_series` are all `charclass.series`.
TRACED = [
    ("ratpoly", "Poly.__mul__", "ratpoly.mul", _count_mul, None),
    ("ratpoly", "Poly.__pow__", "ratpoly.pow", None, None),
    ("ratpoly", "Poly.inverse", "ratpoly.inverse", None, None),
    ("ratpoly", "eval_series", "ratpoly.eval_series", None, None),
    ("ratpoly", "parse_poly", "ratpoly.parse_poly", None, None),
    ("ratpoly", "render_poly", "ratpoly.render_poly", None, None),
    ("ratpoly", "exponent_orbit", "ratpoly.exponent_orbit", None, None),
    ("ratpoly", "exp_series", "charclass.series", None, None),
    ("charclass", "total_chern_series", "charclass.series", None, None),
    ("charclass", "todd_series", "charclass.series", None, None),
    ("charclass", "l_class_series", "charclass.series", None, None),
    ("charclass", "tanh_series", "charclass.series", None, None),
    ("charclass", "euler_factor_series", "charclass.series", None, None),
    ("charclass", "mult_class", "charclass.mult_class", None, None),
    ("charclass", "chern_character", "charclass.chern_character", None, None),
    ("charclass", "lambda_alternating_ch", "charclass.lambda_alternating_ch", None, None),
    ("charclass", "exterior_power", "charclass.exterior_power", None, None),
    ("charclass", "index_group", "charclass.index_group", None, None),
    ("charclass", "index_group_two_term", "charclass.index_group_two_term", None, None),
    ("quotient", "grassmannian_model", "quotient.grassmannian_model", None, None),
    ("quotient", "QuotientModel.__init__", "quotient.QuotientModel", None, None),
    ("quotient", "QuotientModel.e_class", "quotient.e_class", _count_e_class, _e_class_cached),
    ("quotient", "integrate_group", "quotient.integrate_group", None, None),
    ("quotient", "integrate_torus", "quotient.integrate_torus", _count_integrate_torus, None),
    ("quotient", "chern_pairing", "quotient.chern_pairing", None, None),
    ("presentation", "invariant_basis", "presentation.invariant_basis", None, None),
    ("presentation", "ann_e_basis", "presentation.ann_e_basis", None, None),
    ("presentation", "rref", "presentation.rref", _count_rref, None),
    ("presentation", "nullspace", "presentation.nullspace", None, None),
    ("presentation", "pairing_matrix", "presentation.pairing_matrix", _count_pairing_matrix, None),
    ("presentation", "charpoly", "presentation.charpoly", _count_charpoly, None),
    ("rootdata", "RootData.__init__", "rootdata.RootData", None, None),
    ("rootdata", "e_product", "rootdata.e_product", None, None),
    ("config", "load_config", "config.load_config", None, None),
    ("cli", "build_parser", "cli.build_parser", None, None),
    ("cli", "main", "cli.main", None, None),
    ("schubert", "oracle_chern_pairing", "schubert.oracle_chern_pairing", None, None),
    ("schubert", "oracle_betti", "schubert.oracle_betti", None, None),
]

#: Per-layer metrics (name, unit).  `s` is inclusive time, `self_s` time
#: minus direct child spans, `calls` the span count; the rest are counters
#: and ratios.  Times and counts are per pass over the query list.
METRICS = [
    ("ratpoly.mul.calls", "count"), ("ratpoly.mul.s", "s"),
    ("ratpoly.mul.term_pairs", "count"), ("ratpoly.mul.out_terms", "count"),
    ("ratpoly.mul.max_operand_terms", "count"), ("ratpoly.mul.fraction_share", "ratio"),
    ("ratpoly.pow.calls", "count"), ("ratpoly.pow.s", "s"),
    ("ratpoly.inverse.s", "s"),
    ("ratpoly.eval_series.calls", "count"), ("ratpoly.eval_series.s", "s"),
    ("ratpoly.parse_poly.s", "s"), ("ratpoly.render_poly.s", "s"),
    ("ratpoly.exponent_orbit.s", "s"),
    ("charclass.mult_class.s", "s"), ("charclass.chern_character.s", "s"),
    ("charclass.lambda_alternating_ch.s", "s"), ("charclass.exterior_power.s", "s"),
    ("charclass.series.s", "s"),
    ("charclass.index_group.self_s", "s"), ("charclass.index_group_two_term.self_s", "s"),
    ("quotient.grassmannian_model.s", "s"), ("quotient.grassmannian_model.calls", "count"),
    ("quotient.QuotientModel.s", "s"), ("quotient.QuotientModel.calls", "count"),
    ("quotient.integrate_group.s", "s"), ("quotient.integrate_group.calls", "count"),
    ("quotient.chern_pairing.s", "s"), ("quotient.chern_pairing.calls", "count"),
    ("quotient.e_class.calls", "count"), ("quotient.e_class.hit_ratio", "ratio"),
    ("quotient.integrate_torus.calls", "count"), ("quotient.integrate_torus.terms_in", "count"),
    ("quotient.integrate_torus.useful_ratio", "ratio"),
    ("presentation.invariant_basis.s", "s"), ("presentation.ann_e_basis.self_s", "s"),
    ("presentation.rref.s", "s"), ("presentation.rref.calls", "count"),
    ("presentation.rref.cells", "count"), ("presentation.nullspace.s", "s"),
    ("presentation.pairing_matrix.self_s", "s"), ("presentation.pairing_matrix.entries", "count"),
    ("presentation.charpoly.s", "s"), ("presentation.charpoly.n", "count"),
    ("rootdata.RootData.s", "s"), ("rootdata.RootData.calls", "count"),
    ("rootdata.e_product.s", "s"), ("rootdata.e_product.calls", "count"),
    ("config.load_config.s", "s"), ("config.load_config.calls", "count"),
    ("cli.build_parser.s", "s"), ("cli.build_parser.calls", "count"),
    ("cli.main.self_s", "s"),
    ("schubert.oracle_chern_pairing.s", "s"), ("schubert.oracle_chern_pairing.calls", "count"),
    ("schubert.oracle_betti.s", "s"), ("schubert.oracle_betti.calls", "count"),
    ("trace.overhead_ratio", "ratio"),
]

QUERY_SPAN = "query"


def _namespaces():
    """Every mutable mapping in the package that can bind a traced object:
    module dicts, class dicts of classes defined in the package, and
    module-level dicts."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "abelianize" or name.startswith("abelianize.")):
            continue
        yield module, vars(module), setattr
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("abelianize"):
                yield value, vars(value), setattr
            elif isinstance(value, dict):
                yield value, value, dict.__setitem__


def _resolve(module_name: str, path: str):
    obj = sys.modules[f"abelianize.{module_name}"]
    for part in path.split("."):
        obj = vars(obj)[part]
    return obj


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.query_id = -1
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, count, pre):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            state = pre(args, kwargs) if pre is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.query_id)
            if count is not None:
                count(counts, args, kwargs, result, state)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module_name, path, name, count, pre in TRACED:
            original = _resolve(module_name, path)
            wrappers[id(original)] = (original, self._wrap(name, original, count, pre))
        for owner, mapping, setter in _namespaces():
            for key, value in list(mapping.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setter(owner, key, hit[1])
                    self._patches.append((owner, setter, key, value))

    def uninstall(self) -> None:
        for owner, setter, key, value in reversed(self._patches):
            setter(owner, key, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @contextlib.contextmanager
    def query(self, query_id: int):
        """Context for one query: its root span, sharing the query id."""
        self.query_id = query_id
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (QUERY_SPAN, start, end, -1, query_id)

    # -- aggregation ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only, so nesting is not counted twice) and self seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, _) in enumerate(spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                entry["s"] += end - start
        return out

    def metrics(self, passes: int, overhead_ratio: float) -> dict[str, float]:
        """The per-layer metrics, per pass over the workload's query list."""
        totals = self.totals()
        c = self.counts

        def calls(layer: str) -> float:
            return totals[layer]["calls"] if layer in totals else 0

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        values: dict[str, float] = {}
        for metric, _unit in METRICS:
            layer, _, quantity = metric.rpartition(".")
            if quantity in ("calls", "s", "self_s"):
                values[metric] = totals[layer][quantity] / passes if layer in totals else 0.0
            else:
                values[metric] = c[metric] / passes
        values.update({
            "ratpoly.mul.max_operand_terms": c["ratpoly.mul.max_operand_terms"],
            "ratpoly.mul.fraction_share": ratio(c["ratpoly.mul.fraction_terms"], c["ratpoly.mul.out_terms"]),
            "quotient.e_class.hit_ratio": ratio(c["quotient.e_class.hits"], calls("quotient.e_class")),
            "quotient.integrate_torus.useful_ratio": ratio(
                calls("quotient.integrate_torus"), c["quotient.integrate_torus.terms_in"]),
            "trace.overhead_ratio": overhead_ratio,
        })
        return values

    def self_time_shares(self) -> dict[str, float]:
        """Share of all traced query time spent in each span name's own code,
        largest first; `query` is the benchmark's own loop and redirection."""
        totals = self.totals()
        whole = totals[QUERY_SPAN]["s"] if QUERY_SPAN in totals else 0.0
        if not whole:
            return {}
        shares = {name: t["self_s"] / whole for name, t in totals.items()}
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                name, start, end, parent, query_id = span
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "query": query_id}) + "\n")
