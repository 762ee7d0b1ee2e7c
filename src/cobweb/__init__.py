"""Exact Fibonomial calculus over the cobweb poset.

Four layers: `fibcalc` (Fibonacci numbers, F-factorials, Fibonomial
coefficients, all exact), `poset` (the cobweb poset and its order/cover
relations), `zeta` (the dense 0/1 incidence matrix and its staircase
structure), and `chains` (closed-form chain counts paired with DFS oracles
that count per vertex and per cover tuple of the cover relation, the
chain-by-chain listing `iter_chains`, and observation sweeps).  The
`cobweb` console script fronts all of it.
"""

from .chains import (
    DEFAULT_ENUMERATION_LIMIT,
    ChainVerificationError,
    EnumerationGuardError,
    LayerSpec,
    VerificationCase,
    VerificationReport,
    count_from_root_formula,
    count_layer_chains_formula,
    enumerate_from_root,
    enumerate_layer_chains,
    induced_copy_count,
    iter_chains,
    obs3_quotient,
    verify_observation,
)
from .fibcalc import fib, fib_factorial, falling_f_factorial, fibonomial, fibonomial_row
from .poset import CobwebPoset, GuardError, Vertex, build_cobweb
from .zeta import (
    DEFAULT_DIM_CAP,
    IncidenceMatrix,
    MatrixSizeError,
    cobweb_from_matrix,
    staircase_check,
    zeta_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "fib",
    "fib_factorial",
    "falling_f_factorial",
    "fibonomial",
    "fibonomial_row",
    "Vertex",
    "CobwebPoset",
    "build_cobweb",
    "GuardError",
    "IncidenceMatrix",
    "MatrixSizeError",
    "DEFAULT_DIM_CAP",
    "zeta_matrix",
    "staircase_check",
    "cobweb_from_matrix",
    "DEFAULT_ENUMERATION_LIMIT",
    "EnumerationGuardError",
    "ChainVerificationError",
    "LayerSpec",
    "VerificationCase",
    "VerificationReport",
    "count_from_root_formula",
    "enumerate_from_root",
    "count_layer_chains_formula",
    "enumerate_layer_chains",
    "iter_chains",
    "obs3_quotient",
    "induced_copy_count",
    "verify_observation",
]
