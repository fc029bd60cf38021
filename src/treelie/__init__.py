"""Nilpotent Lie algebras of differential operators attached to weighted
trees, the abelian ideals of their solvable extensions, and exact or
spectral solutions of the associated evolution equations."""

from .errors import ExpressionError, SizeGuardError, TreeValidationError
from .expressions import evaluate, parse_expression, to_multipoly
from .firstorder import (
    BchCoefficients,
    EtaFamily,
    bch_coefficients,
    eta_family,
    eta_general_numeric,
    flow_rk4,
    solve_first_order,
    verify_first_order,
)
from .heat import (
    FourierMode,
    HeatSolution,
    XiFamily,
    fourier_coefficients,
    mode_exponent,
    mode_exponent_symbolic,
    solve_heat,
    verify_modes,
    xi_family,
)
from .ideals import (
    AbelianIdeal,
    AdmissiblePair,
    RootPoset,
    brute_force_ideals,
    enumerate_ideals,
    is_abelian_ideal,
    maximal_ideals,
    principal_ideal,
    root_poset,
)
from .liealg import (
    DiffOpMonomial,
    LieElement,
    bracket,
    dim_and_nilpotence,
    enumerate_basis,
    verify_structure,
)
from .polynomials import MultiPoly, series_coeff
from .trees import (
    NodeClassification,
    TreeDiagram,
    build_tree,
    chain,
    classify_nodes,
    e_tree,
    star,
    tree_from_dict,
    tree_to_dict,
    weights,
)

__version__ = "0.1.0"
