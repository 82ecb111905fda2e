"""Weight hierarchies of evaluation codes over prime fields.

The package computes relative generalized Hamming weights of evaluation
codes through vanishing ideal degree computations, together with the
footprint lower bounds obtained from initial ideals, exact formulas for
codes on Cartesian point sets, and toric codes over hypersimplices.
"""

from .codes import (
    DEFAULT_BUDGET,
    EvaluationCode,
    WeightProfile,
    evaluate_space,
    next_to_minimal,
    standardize,
    weight_distribution,
)
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    FieldMismatchError,
    NonInjectiveEvaluationError,
    NotZeroDimensionalError,
    ZeroPolynomialError,
)
from .families import (
    HypersimplexSpec,
    cartesian_points,
    cartesian_problem,
    cartesian_rghw_formula,
    cartesian_space,
    toric_code,
    toric_deg1_weight,
    toric_min_distance_formula,
    toric_problem,
    torus_points,
)
from .field import PrimeField
from .groebner import (
    GroebnerBasis,
    PointSet,
    degree_with_F,
    footprint,
    monomial_footprint,
    normal_form,
    vanishing_ideal,
    variety_in_X,
)
from .poly import (
    GREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    PolySpace,
    divide,
    echelonize,
    format_polynomial,
    order_by_name,
)
from .weights import (
    RghwProblem,
    gaussian_binomial,
    ghw,
    relative_footprint,
    rghw_definition_oracle,
    rghw_degree,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "DimensionMismatchError",
    "EvaluationCode",
    "FieldMismatchError",
    "GREVLEX",
    "GRLEX",
    "GroebnerBasis",
    "HypersimplexSpec",
    "LEX",
    "MonomialOrder",
    "NonInjectiveEvaluationError",
    "NotZeroDimensionalError",
    "PointSet",
    "PolySpace",
    "Polynomial",
    "PrimeField",
    "RghwProblem",
    "WeightProfile",
    "ZeroPolynomialError",
    "cartesian_points",
    "cartesian_problem",
    "cartesian_rghw_formula",
    "cartesian_space",
    "degree_with_F",
    "divide",
    "echelonize",
    "evaluate_space",
    "footprint",
    "format_polynomial",
    "gaussian_binomial",
    "ghw",
    "monomial_footprint",
    "next_to_minimal",
    "normal_form",
    "order_by_name",
    "relative_footprint",
    "rghw_definition_oracle",
    "rghw_degree",
    "standardize",
    "toric_code",
    "toric_deg1_weight",
    "toric_min_distance_formula",
    "toric_problem",
    "torus_points",
    "vanishing_ideal",
    "variety_in_X",
    "weight_distribution",
]
