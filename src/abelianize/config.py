"""JSON configuration for quotient models.

A config is a single JSON document (schema "1") whose scalars are exact
integer or rational strings, so no parser ever coerces a value through
floating point.  It describes the ring, the root data (builtin "unitary:k"
or explicit, with Weyl generators given as permutations of the variables),
the split tangent bundle, an optional orbifold prefactor, an optional
full-rank-subgroup block, and an optional Weyl action in W, which only
`config-dump` reads.  The roots, and the subgroup's, must form blocks
(`reflection_blocks`); W = prod S_|b| is read off them, not listed.

Errors carry the offending field's location so the CLI can point at it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .ratpoly import Ring
from .rootdata import RootData, Subgroup, unitary_roots
from .quotient import QuotientModel, SplitBundle

SCHEMA_VERSION = "1"


class ConfigError(ValueError):
    """A located error in a configuration document."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


def _as_int(value: Any, location: str) -> int:
    if isinstance(value, bool):
        raise ConfigError(location, f"expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ConfigError(location, f"not an integer: {value!r}") from None
    raise ConfigError(location, f"expected an integer string, got {type(value).__name__}")


def _as_rational(value: Any, location: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ConfigError(location, f"expected an exact rational string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(location, f"not a rational: {value!r}") from None
    raise ConfigError(location, f"expected a rational string, got {type(value).__name__}")


def _as_int_list(value: Any, location: str) -> list[int]:
    if not isinstance(value, list):
        raise ConfigError(location, "expected a list")
    return [_as_int(v, f"{location}[{i}]") for i, v in enumerate(value)]


def _require(mapping: dict, key: str, location: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{location}.{key}", "missing required field")
    return mapping[key]


def _parse_generator(value: Any, k: int, location: str):
    """A Weyl generator: a 1-based permutation list of the variables."""
    if not isinstance(value, list):
        raise ConfigError(location, "expected a permutation list; W permutes the variables")
    images = _as_int_list(value, location)
    if sorted(images) != list(range(1, k + 1)):
        raise ConfigError(location, f"not a permutation of 1..{k}: {images}")
    return tuple(x - 1 for x in images)


def _parse_roots(value: Any, k: int, location: str) -> RootData:
    if isinstance(value, str):
        if not value.startswith("unitary:"):
            raise ConfigError(location, f"unknown builtin root data {value!r}")
        kk = _as_int(value.split(":", 1)[1], location)
        if kk != k:
            raise ConfigError(location, f"builtin rank {kk} does not match {k} ring variables")
        return unitary_roots(kk)
    if not isinstance(value, dict):
        raise ConfigError(location, "expected a builtin name or a root data object")
    weights_raw = _require(value, "weights", location)
    if not isinstance(weights_raw, list):
        raise ConfigError(f"{location}.weights", "expected a list of integer vectors")
    weights = [
        tuple(_as_int_list(w, f"{location}.weights[{i}]")) for i, w in enumerate(weights_raw)
    ]
    pos_idx = _as_int_list(_require(value, "positive", location), f"{location}.positive")
    for i in pos_idx:
        if not 0 <= i < len(weights):
            raise ConfigError(f"{location}.positive", f"index {i} out of range")
    gens_raw = value.get("weyl_generators", [])
    if not isinstance(gens_raw, list):
        raise ConfigError(f"{location}.weyl_generators", "expected a list")
    gens = [
        _parse_generator(g, k, f"{location}.weyl_generators[{i}]")
        for i, g in enumerate(gens_raw)
    ]
    order = _as_int(_require(value, "weyl_order", location), f"{location}.weyl_order")
    try:
        rd = RootData(k, weights, [weights[i] for i in pos_idx], gens, order)
    except ValueError as err:
        raise ConfigError(location, str(err)) from None
    if rd.blocks is None:
        raise ConfigError(location, "roots must be c(e_j - e_i), closed under the transpositions (i j)")
    return rd


def _parse_tangent(value: Any, ring: Ring, location: str) -> SplitBundle:
    if not isinstance(value, list):
        raise ConfigError(location, "expected a list of summands")
    summands = []
    for i, entry in enumerate(value):
        loc = f"{location}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(loc, "expected an object with weight and multiplicity")
        raw_w = _require(entry, "weight", loc)
        if raw_w == "0" or raw_w == 0:
            w = [0] * ring.k
        else:
            w = _as_int_list(raw_w, f"{loc}.weight")
            if len(w) != ring.k:
                raise ConfigError(f"{loc}.weight", f"expected {ring.k} components")
        mult = _as_int(_require(entry, "multiplicity", loc), f"{loc}.multiplicity")
        summands.append((w, mult))
    return SplitBundle(ring, summands)


def model_from_config(doc: Any, location: str = "config") -> QuotientModel:
    """Build and validate a quotient model from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError(location, "top level must be an object")
    schema = doc.get("schema")
    if str(schema) != SCHEMA_VERSION:
        raise ConfigError(f"{location}.schema", f"expected schema {SCHEMA_VERSION!r}, got {schema!r}")
    ring_raw = _require(doc, "ring", location)
    if not isinstance(ring_raw, dict):
        raise ConfigError(f"{location}.ring", "expected an object")
    k = _as_int(_require(ring_raw, "variables", f"{location}.ring"), f"{location}.ring.variables")
    truncs = _as_int_list(
        _require(ring_raw, "truncations", f"{location}.ring"), f"{location}.ring.truncations"
    )
    try:
        ring = Ring(k, truncs)
    except ValueError as err:
        raise ConfigError(f"{location}.ring", str(err)) from None
    roots = _parse_roots(_require(doc, "roots", location), k, f"{location}.roots")
    tangent = _parse_tangent(_require(doc, "tangent_bundle", location), ring, f"{location}.tangent_bundle")
    prefactor = _as_rational(doc.get("orbifold_prefactor", "1"), f"{location}.orbifold_prefactor")
    weyl_action = None
    if "weyl_action" in doc:
        raw = doc["weyl_action"]
        if not isinstance(raw, list):
            raise ConfigError(f"{location}.weyl_action", "expected a list of permutations")
        weyl_action = [
            _parse_generator(g, k, f"{location}.weyl_action[{i}]") for i, g in enumerate(raw)
        ]
    subgroup = None
    if "subgroup_roots" in doc:
        raw = doc["subgroup_roots"]
        loc = f"{location}.subgroup_roots"
        if not isinstance(raw, dict):
            raise ConfigError(loc, "expected an object with indices and weyl_order")
        indices = _as_int_list(_require(raw, "indices", loc), f"{loc}.indices")
        for i in indices:
            if not 0 <= i < len(roots.roots):
                raise ConfigError(f"{loc}.indices", f"root index {i} out of range")
        order = _as_int(_require(raw, "weyl_order", loc), f"{loc}.weyl_order")
        try:
            subgroup = Subgroup(tuple(roots.roots[i] for i in indices), order)
            roots.check_subgroup(subgroup)
        except ValueError as err:
            raise ConfigError(loc, str(err)) from None
    try:
        return QuotientModel(ring, roots, tangent, prefactor, weyl_action, subgroup)
    except ValueError as err:
        raise ConfigError(location, str(err)) from None


def load_config(path: str) -> QuotientModel:
    """Read, parse and validate a model configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(path, f"cannot read config: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}", err.msg) from None
    return model_from_config(doc, location=path)


def model_to_config(m: QuotientModel) -> dict:
    """Serialize a model to the config schema; reloading gives an equal model."""
    rd = m.root_data
    root_index = {w: i for i, w in enumerate(rd.roots)}
    doc: dict = {
        "schema": SCHEMA_VERSION,
        "ring": {
            "variables": str(m.ring.k),
            "truncations": [str(n) for n in m.ring.truncations],
        },
        "roots": {
            "weights": [[str(x) for x in w] for w in rd.roots],
            "positive": [str(root_index[w]) for w in rd.positive],
            "weyl_generators": [[str(x + 1) for x in g] for g in rd.weyl_generators],
            "weyl_order": str(rd.weyl_order),
        },
        "tangent_bundle": [
            {
                "weight": [str(x) for x in w] if any(w) else "0",
                "multiplicity": str(mult),
            }
            for w, mult in m.tangent_bundle.summands
        ],
        "orbifold_prefactor": str(m.orbifold_prefactor),
        "weyl_action": [[str(x + 1) for x in g] for g in m.weyl_action],
    }
    if m.subgroup is not None:
        doc["subgroup_roots"] = {
            "indices": [str(root_index[w]) for w in m.subgroup.roots],
            "weyl_order": str(m.subgroup.weyl_order),
        }
    return doc
