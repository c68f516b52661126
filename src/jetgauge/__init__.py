"""jetgauge: exact-arithmetic verification of jet-space gauge reductions.

Modules
-------
exactnum     rationals, r*sqrt(m) scalars, dense exact matrices, integer elimination
jetspace     jet-basis enumeration and generalized Minkowskian signatures
liealg       so(N) generators as integer rows, brackets, Killing forms
proca        the 28-dim quadratic form, censuses, isotropic subspaces
electroweak  mass matrix, weak mixing, exact breaking spectrum
octonion     octonions, 7d cross product, g2, su(3) stabilizers
dynamics     weak-field field strength, sampled grids and force-law
             integration, on Python floats
npz          the .npz grid-file reader and loader (grid runs only)
curvature    numpy metric and potential evaluators, the Bianchi residual
             (scripts and tests; the CLI never imports it)
pheno        constants, conversion factor, mass-scale table, consistency
verify       the exact suites behind `jetgauge verify-all`
"""

__version__ = "0.1.0"
