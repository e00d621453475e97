"""Exact invariants of Jacobian algebras of projective hypersurfaces.

The rule engine (:mod:`singulus.rules`) evaluates everything a graded Betti
table determines about the singular subscheme — its dimension, its degree,
the total Tjurina number, regularity and divisibility obstructions — in
exact integer arithmetic.  The oracle (:mod:`singulus.oracle`) computes the
same data directly from a defining polynomial, so the two routes
cross-validate each other.
"""

__version__ = "0.1.0"

from .polynomials import Polynomial, parse, squarefree_check
from .linalg import (
    SparseMatrix,
    rank_mod_p,
    rank_rational,
    reduce_mod,
)
from .tables import BettiTable
from .rules import (
    SigmaProfile,
    SingularReport,
    degree_of_sigma,
    divisibility_N_t,
    duplessis_wall_check,
    euler_consistency,
    full_report,
    hilbert_function_from_table,
    hilbert_polynomial_from_table,
    hspog_detect,
    hspog_dim_guarantee,
    koszul_smooth_table,
    pd_codim_check,
    regularity_and_Ik,
    sigma,
    singular_dimension,
    structural_checks,
)
from .oracle import (
    CrossCheckReport,
    HilbertData,
    cross_check,
    graded_betti,
    hilbert_fit,
    milnor_dimension,
)

__all__ = [
    "__version__",
    "Polynomial",
    "parse",
    "squarefree_check",
    "SparseMatrix",
    "rank_mod_p",
    "rank_rational",
    "reduce_mod",
    "BettiTable",
    "SigmaProfile",
    "SingularReport",
    "degree_of_sigma",
    "divisibility_N_t",
    "duplessis_wall_check",
    "euler_consistency",
    "full_report",
    "hilbert_function_from_table",
    "hilbert_polynomial_from_table",
    "hspog_detect",
    "hspog_dim_guarantee",
    "koszul_smooth_table",
    "pd_codim_check",
    "regularity_and_Ik",
    "sigma",
    "singular_dimension",
    "structural_checks",
    "CrossCheckReport",
    "HilbertData",
    "cross_check",
    "graded_betti",
    "hilbert_fit",
    "milnor_dimension",
]
