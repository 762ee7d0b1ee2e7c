"""Exact Fibonomial calculus over the cobweb poset.

Four layers: `fibcalc` (Fibonacci numbers, F-factorials, Fibonomial
coefficients, all exact), `poset` (the cobweb poset and its order/cover
relations), `zeta` (the dense 0/1 incidence matrix and its staircase
structure), and `chains` (closed-form chain counts paired with DFS oracles
that count per cover object of the cover relation, the chain-by-chain
listing `iter_chains`, and observation sweeps).  The `cobweb` console
script fronts all of it.
"""

from . import chains, fibcalc, poset, zeta
from .chains import *
from .fibcalc import *
from .poset import *
from .zeta import *

__version__ = "0.1.0"

__all__ = ["__version__", *fibcalc.__all__, *poset.__all__, *zeta.__all__, *chains.__all__]
