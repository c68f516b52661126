"""Finite-difference curvature on numpy: metric and potential evaluators, the
non-abelian field strength and the Bianchi residual.

The scripts and tests use these; the CLI does not import this module, so no
CLI request imports numpy.  Derivatives use dynamics._stencil, the one
4th-order central difference, so dynamics.field_strength_em(MetricField(...), x)
at a coordinate x is the stencil field_strength_em(grid, idx) takes at a node idx.

The non-abelian field strength is F_{mu nu} = d_mu A_nu - d_nu A_mu +
[A_mu, A_nu]; the commutator term vanishes identically for commuting
potentials.
"""

from __future__ import annotations

import itertools

import numpy as np

from .dynamics import _stencil


class MetricField:
    """Evaluator of the four metric components g_mu(x) := g_{mu,00}(x)."""

    def __init__(self, func, step: float = 1e-3):
        self._func = func
        self.step = step

    def values(self, x) -> np.ndarray:
        return np.asarray(self._func(np.asarray(x, dtype=float)), dtype=float)

    def derivative(self, x, mu: int) -> np.ndarray:
        """d_mu of values() at x by the 4th-order stencil."""
        x = np.asarray(x, dtype=float)

        def sample(off):
            xp = x.copy()
            xp[mu] += off * self.step
            return self.values(xp)

        return _stencil(sample, self.step)

    def jacobian(self, x) -> np.ndarray:
        """J[mu, nu] = d_mu g_nu."""
        return np.stack([self.derivative(x, mu) for mu in range(4)])


class GaugePotentialField(MetricField):
    """Evaluator of four algebra-valued potentials A_mu(x), shape (4, d, d);
    derivative(x, mu) is d_mu A, shape (4, d, d)."""

    def values(self, x) -> np.ndarray:
        a = super().values(x)
        if a.ndim != 3 or a.shape[0] != 4 or a.shape[1] != a.shape[2]:
            raise ValueError("potential evaluator must return shape (4, d, d)")
        return a


def _field_strength_all(a: GaugePotentialField, x) -> np.ndarray:
    vals = a.values(x)
    derivs = [a.derivative(x, mu) for mu in range(4)]
    d = vals.shape[1]
    f = np.zeros((4, 4, d, d))
    for mu in range(4):
        for nu in range(mu + 1, 4):
            fmn = derivs[mu][nu] - derivs[nu][mu] + vals[mu] @ vals[nu] - vals[nu] @ vals[mu]
            f[mu, nu] = fmn
            f[nu, mu] = -fmn
    return f


def bianchi_residual(a: GaugePotentialField, x) -> float:
    """max over index triples of || cyclic( d_l F_{mn} + [A_l, F_{mn}] ) ||.

    Outer derivatives of F use 2nd-order central differences at the
    potential's step, so for smooth fields the residual decreases as
    O(step^2), plus terms cubic in A.
    """
    x = np.asarray(x, dtype=float)
    h = a.step
    vals = a.values(x)

    dfs = []
    for lam in range(4):
        xp, xm = x.copy(), x.copy()
        xp[lam] += h
        xm[lam] -= h
        dfs.append((_field_strength_all(a, xp) - _field_strength_all(a, xm)) / (2.0 * h))
    f0 = _field_strength_all(a, x)
    worst = 0.0
    for lam, mu, nu in itertools.combinations(range(4), 3):
        total = None
        for (l, m, n) in ((lam, mu, nu), (mu, nu, lam), (nu, lam, mu)):
            term = dfs[l][m, n] + vals[l] @ f0[m, n] - f0[m, n] @ vals[l]
            total = term if total is None else total + term
        worst = max(worst, float(np.max(np.abs(total))))
    return worst
