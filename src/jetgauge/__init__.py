"""jetgauge: exact-arithmetic verification of jet-space gauge reductions.

Modules
-------
exactnum     rationals, the field Q(sqrt2, sqrt5), dense exact matrices, elimination
jetspace     jet-basis enumeration and generalized Minkowskian signatures
liealg       so(N) generators as integer rows, brackets, Killing forms
proca        the 28-dim quadratic form, censuses, isotropic subspaces
electroweak  mass matrix, weak mixing, exact breaking spectrum
octonion     octonions, 7d cross product, g2, su(3) stabilizers
dynamics     weak-field field strength and force-law integration
pheno        constants, conversion factor, mass-scale table, consistency
verify       the exact suites behind `jetgauge verify-all`
"""

from .exactnum import ExactMatrix, QuadScalar, commutator, qs, trace_metric
from .jetspace import JetBasis, MultiIndex, enumerate_basis, is_timelike, signature
from .liealg import (
    LieElement,
    killing_adjoint,
    killing_metric_twisted,
    so4_bases,
    so_bracket_closed_form,
    so_generator,
)
from .pheno import Constants

__all__ = [
    "Constants",
    "ExactMatrix",
    "JetBasis",
    "LieElement",
    "MultiIndex",
    "QuadScalar",
    "commutator",
    "enumerate_basis",
    "is_timelike",
    "killing_adjoint",
    "killing_metric_twisted",
    "qs",
    "signature",
    "so4_bases",
    "so_bracket_closed_form",
    "so_generator",
    "trace_metric",
]

__version__ = "0.1.0"
