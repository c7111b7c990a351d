"""Exact computations on symplectic quotients through their torus quotients.

The package evaluates cohomology pairings, quotient ring presentations,
characteristic numbers, and elliptic-operator indices on a quotient by a
nonabelian group by reducing every computation to exact polynomial algebra
on the associated maximal-torus quotient, with an independent
Schubert-calculus oracle for Grassmannian models.
"""

from .ratpoly import (
    Poly,
    Ring,
    Series,
    elementary_symmetric,
    eval_series,
    exp_series,
    parse_poly,
    render_poly,
)
from .rootdata import RootData, Subgroup, e_product, root_euler_class, unitary_roots
from .quotient import (
    QuotientModel,
    SplitBundle,
    chern_pairing,
    grassmannian_model,
    integrate_group,
    integrate_torus,
)
from .charclass import (
    chern_character,
    characteristic_number,
    euler_characteristic,
    index_group,
    index_group_two_term,
    l_class_series,
    lambda_alternating_ch,
    mult_class,
    signature,
    tanh_series,
    todd_series,
    total_chern_series,
)
from .presentation import (
    ann_e_basis,
    invariant_basis,
    pairing_matrix,
    poincare_polynomial,
    presentation_report,
    signature_from_pairing,
)
from .schubert import oracle_betti, oracle_chern_pairing, pieri_e_multiply
from .config import ConfigError, load_config, model_from_config, model_to_config

__all__ = [
    "Poly",
    "Ring",
    "Series",
    "elementary_symmetric",
    "eval_series",
    "exp_series",
    "parse_poly",
    "render_poly",
    "RootData",
    "Subgroup",
    "e_product",
    "root_euler_class",
    "unitary_roots",
    "QuotientModel",
    "SplitBundle",
    "chern_pairing",
    "grassmannian_model",
    "integrate_group",
    "integrate_torus",
    "chern_character",
    "characteristic_number",
    "euler_characteristic",
    "index_group",
    "index_group_two_term",
    "l_class_series",
    "lambda_alternating_ch",
    "mult_class",
    "signature",
    "tanh_series",
    "todd_series",
    "total_chern_series",
    "ann_e_basis",
    "invariant_basis",
    "pairing_matrix",
    "poincare_polynomial",
    "presentation_report",
    "signature_from_pairing",
    "oracle_betti",
    "oracle_chern_pairing",
    "pieri_e_multiply",
    "ConfigError",
    "load_config",
    "model_from_config",
    "model_to_config",
]

__version__ = "0.1.0"
