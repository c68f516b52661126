"""Weak-field field strength, discrete curvature, and force-law integration.

Conventions.  Indices are raised and lowered with eta = diag(-1, 1, 1, 1).
The electromagnetic-type field strength built from the metric components
g_mu := g_{mu,00} is

    F^mu_nu = eta^{mu d} (d_d g_nu - d_nu g_d),

antisymmetric after lowering both indices.  The 1/2 that would accompany
the connection coefficients is absorbed into this definition (the nu,00
and 00,nu orderings are summed over once).

The non-abelian field strength is F_{mu nu} = d_mu A_nu - d_nu A_mu +
[A_mu, A_nu]; the commutator term vanishes identically for commuting
potentials.

Every first derivative is _stencil(sample, h), the one 4th-order central
difference: it adds w sample(off) over _STENCIL4 in offset order -2, -1, 1,
2, starting from 0.0, and divides by 12 h.  A grid-sampled metric gives F at
the nodes by it (GridMetricField.jacobian steps node indices) and between
them by multilinear interpolation over the 16 corners of the
enclosing cell.  grid_field_strength_evaluator fills two lazy caches: F per
node, computed through the module-level field_strength_em when a node is
first needed, and per cell the (16, 4, 4) stack of its corner values, so a
query inside a known cell is one dict lookup and one numpy reduction.  Only
cells and nodes a trajectory visits are computed; a whole-grid precompute
would cost more memory than the grid itself.  The reduction order is
pinned: weights are the products ((w0 w1) w2) w3, and np.add.reduce adds the
weighted corners one by one in np.ndindex order from 0.0, skipping zero
weights, which is what a plain corner loop does.  So samples are
bit-identical to that loop (tests/test_dynamics.py keeps it as the oracle);
einsum, tensordot and @ leave their summation order to the library.

Trajectories integrate with fixed-step classical RK4 on eight Python
floats, which keeps runs deterministic and golden files meaningful.  The
field is called at each stage position as a tuple of four floats, and the
one rows memo both force laws share converts kappa F to rows once per
distinct F object returned, so a uniform field converts once per run; kappa
is 1 for Lorentz and Wong's charge pairing, contracted once per run.  The
RK4 order is pinned too: du/dlam = qm M u, with M = kappa F, takes row a of
M as qm ((a0 u0 + a2 u2) + (a1 u1 + a3 u3)), the order
that numpy's F @ u showed on the OpenBLAS build the golden files came from;
stages are y + (h/2) k and y + h k, and a step is
y + (h/6)(((k1 + 2 k2) + 2 k3) + k4).  tests/test_dynamics.py keeps a numpy
RK4 with that column order as the oracle.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass

import numpy as np

ETA_DIAG = np.array([-1.0, 1.0, 1.0, 1.0])

_STENCIL4 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))  # /(12 h)


def _stencil(sample, h: float):
    """sum_k w_k sample(off_k) / (12 h) over _STENCIL4, added in k order from 0.0."""
    acc = 0.0
    for off, w in _STENCIL4:
        acc = acc + w * sample(off)
    return acc / (12.0 * h)


class GridBoundaryError(ValueError):
    """Raised when a stencil would reach outside the sampled grid."""


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


class GridMetricField(MetricField):
    """g_mu sampled on a regular 4d grid; queries resolve to grid nodes."""

    def __init__(self, values: np.ndarray, origin, spacing: float):
        values = np.asarray(values, dtype=float)
        if values.ndim != 5 or values.shape[0] != 4:
            raise ValueError("grid values must have shape (4, n0, n1, n2, n3)")
        self.grid = values
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = float(spacing)
        super().__init__(self._node_values, spacing)

    def _index(self, x) -> tuple[int, ...]:
        rel = (np.asarray(x, dtype=float) - self.origin) / self.spacing
        idx = np.rint(rel).astype(int)
        if np.max(np.abs(rel - idx)) > 1e-9:
            raise ValueError("grid fields can only be queried at grid nodes")
        return tuple(idx)

    def _node_values(self, x) -> np.ndarray:
        idx = self._index(x)
        shape = self.grid.shape[1:]
        if any(i < 0 or i >= s for i, s in zip(idx, shape)):
            raise GridBoundaryError(f"node {idx} outside grid of shape {shape}")
        return self.grid[(slice(None),) + idx]

    def jacobian(self, x) -> np.ndarray:
        idx = self._index(x)
        shape = self.grid.shape[1:]
        if any(i < 2 or i >= s - 2 for i, s in zip(idx, shape)):
            raise GridBoundaryError(
                f"4th-order stencil at node {idx} leaves grid of shape {shape}"
            )
        # step along the node index directly, without an _index per sample
        def row(mu):
            def sample(off):
                nidx = list(idx)
                nidx[mu] += off
                return self.grid[(slice(None),) + tuple(nidx)]

            return _stencil(sample, self.spacing)

        return np.stack([row(mu) for mu in range(4)])


def field_strength_em(g: MetricField, x) -> np.ndarray:
    """F^mu_nu = eta^{mu d}(d_d g_nu - d_nu g_d) at x."""
    jac = g.jacobian(x)
    f_lower = jac - jac.T  # d_mu g_nu - d_nu g_mu, exactly antisymmetric
    return ETA_DIAG[:, None] * f_lower


_CORNERS = np.array(list(np.ndindex((2,) * 4)))  # (16, 4), ndindex order


def _weighted_sum(wt: np.ndarray, blk: np.ndarray) -> np.ndarray:
    """sum_k wt[k] blk[k], added in k order starting from 0.0."""
    return np.add.reduce(wt[:, None, None] * blk, axis=0, initial=0.0)


def grid_field_strength_evaluator(grid: GridMetricField):
    """Continuous F evaluator from a grid metric: node values by stencil,
    multilinear interpolation between nodes (trajectories move off-node).
    Caches and summation order are described in the module docstring."""
    nodes: dict[tuple[int, ...], np.ndarray] = {}
    cells: dict[tuple[int, ...], np.ndarray] = {}
    shape, origin = grid.grid.shape[1:], grid.origin.tolist()

    def f_at_node(idx: tuple[int, ...]) -> np.ndarray:
        if idx not in nodes:
            if any(i < 2 or i >= s - 2 for i, s in zip(idx, shape)):
                raise GridBoundaryError(
                    f"stencil at node {idx} leaves grid of shape {shape}"
                )
            x_node = grid.origin + grid.spacing * np.array(idx, dtype=float)
            nodes[idx] = field_strength_em(grid, x_node)
        return nodes[idx]

    def stack(base: list[int], corners: np.ndarray) -> np.ndarray:
        return np.stack([f_at_node(tuple(idx)) for idx in (base + corners).tolist()])

    def evaluate(x) -> np.ndarray:
        rel = [(xi - oi) / grid.spacing for xi, oi in zip(map(float, x), origin)]
        if not all(map(math.isfinite, rel)):
            raise GridBoundaryError(f"query {rel} is not a finite grid position")
        base = [math.floor(r) for r in rel]
        wt = [1.0]
        for r, b in zip(rel, base):
            frac = r - b
            wt = [w * v for w in wt for v in (1.0 - frac, frac)]
        if 0.0 in wt:
            # on a node layer: corners of zero weight may lie past the
            # stencil-safe range, so only the others are evaluated
            live = np.flatnonzero(wt)
            return _weighted_sum(np.array(wt)[live], stack(base, _CORNERS[live]))
        key = tuple(base)
        blk = cells.get(key)
        if blk is None:
            blk = cells[key] = stack(base, _CORNERS)
        return _weighted_sum(np.array(wt), blk)

    return evaluate


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


# -- trajectories ---------------------------------------------------------------


@dataclass
class ParticleState:
    x: np.ndarray
    u: np.ndarray
    m: float
    q: float
    charge_vector: np.ndarray | None = None  # algebra-valued charge for Wong runs

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.m <= 0:
            raise ValueError("rest mass must be positive")
        if self.x.shape != (4,) or self.u.shape != (4,):
            raise ValueError("x and u must be 4-vectors")


class Trajectory:
    """Samples as one (n + 1, 9) table of rows [lambda, x0..x3, u0..u3];
    lambdas, xs and us are views of it."""

    def __init__(self, table: np.ndarray, meta: dict):
        self.table, self.meta = table, meta
        self.lambdas, self.xs, self.us = table[:, 0], table[:, 1:5], table[:, 5:]

    def __len__(self):
        return len(self.table)

    def eta_drift(self) -> float:
        norms = -self.us[:, 0] ** 2 + np.sum(self.us[:, 1:] ** 2, axis=1)
        return float(np.max(np.abs(norms - norms[0])))


def _integrate(state: ParticleState, f_eval, kappa: float, dlam: float, nsteps: int,
               law: str) -> Trajectory:
    """RK4 on dx/dlam = u, du/dlam = (q/m) kappa F(x) u, f_eval as in
    integrate_lorentz.  The state is eight Python floats; stage k has dx/dlam
    = (u, v, w, z)[k] and du/dlam = (p, q, r, s)[k].  Arithmetic order: see
    the module docstring."""
    if not (dlam > 0 and math.isfinite(dlam)):
        raise ValueError("step must be positive and finite")
    qm = state.q / state.m
    h2, h6 = 0.5 * dlam, dlam / 6.0
    last = [None, None]  # the last F returned, and the rows of kappa F

    def accel(x, u0, u1, u2, u3):
        f = f_eval(x)
        if f is not last[0]:
            m = np.asarray(f, dtype=float)
            last[:] = f, (m if kappa == 1.0 else kappa * m).tolist()  # 1.0 m is m
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = last[1]
        return (qm * ((a0 * u0 + a2 * u2) + (a1 * u1 + a3 * u3)),
                qm * ((b0 * u0 + b2 * u2) + (b1 * u1 + b3 * u3)),
                qm * ((c0 * u0 + c2 * u2) + (c1 * u1 + c3 * u3)),
                qm * ((d0 * u0 + d2 * u2) + (d1 * u1 + d3 * u3)))

    y = state.x.tolist() + state.u.tolist()
    out = array("d", [0.0])
    out.extend(y)
    x0, x1, x2, x3, u0, u1, u2, u3 = y
    for k in range(nsteps):
        p0, p1, p2, p3 = accel((x0, x1, x2, x3), u0, u1, u2, u3)
        v0, v1, v2, v3 = u0 + h2 * p0, u1 + h2 * p1, u2 + h2 * p2, u3 + h2 * p3
        q0, q1, q2, q3 = accel((x0 + h2 * u0, x1 + h2 * u1, x2 + h2 * u2, x3 + h2 * u3),
                               v0, v1, v2, v3)
        w0, w1, w2, w3 = u0 + h2 * q0, u1 + h2 * q1, u2 + h2 * q2, u3 + h2 * q3
        r0, r1, r2, r3 = accel((x0 + h2 * v0, x1 + h2 * v1, x2 + h2 * v2, x3 + h2 * v3),
                               w0, w1, w2, w3)
        z0, z1, z2, z3 = u0 + dlam * r0, u1 + dlam * r1, u2 + dlam * r2, u3 + dlam * r3
        s0, s1, s2, s3 = accel((x0 + dlam * w0, x1 + dlam * w1, x2 + dlam * w2, x3 + dlam * w3),
                               z0, z1, z2, z3)
        y = (x0 + h6 * (((u0 + 2.0 * v0) + 2.0 * w0) + z0),
             x1 + h6 * (((u1 + 2.0 * v1) + 2.0 * w1) + z1),
             x2 + h6 * (((u2 + 2.0 * v2) + 2.0 * w2) + z2),
             x3 + h6 * (((u3 + 2.0 * v3) + 2.0 * w3) + z3),
             u0 + h6 * (((p0 + 2.0 * q0) + 2.0 * r0) + s0),
             u1 + h6 * (((p1 + 2.0 * q1) + 2.0 * r1) + s1),
             u2 + h6 * (((p2 + 2.0 * q2) + 2.0 * r2) + s2),
             u3 + h6 * (((p3 + 2.0 * q3) + 2.0 * r3) + s3))
        if not all(map(math.isfinite, y)):
            raise FloatingPointError(f"non-finite state at step {k + 1}")
        x0, x1, x2, x3, u0, u1, u2, u3 = y
        out.append((k + 1) * dlam)
        out.extend(y)
    traj = Trajectory(np.frombuffer(out).reshape(nsteps + 1, 9), {"law": law, "dlam": dlam})
    traj.meta["eta_drift"] = traj.eta_drift()
    return traj


def integrate_lorentz(state: ParticleState, f_eval, dlam: float, nsteps: int) -> Trajectory:
    """RK4 on du^mu/dlam = (q/m) F^mu_nu u^nu; f_eval(x) -> (4, 4), x a tuple
    of four floats.  F is converted to rows once per distinct object returned,
    so f_eval must not mutate an F it has already returned."""
    return _integrate(state, f_eval, 1.0, dlam, nsteps, "lorentz")


def integrate_wong(state: ParticleState, f_eval, gen, dlam: float, nsteps: int) -> Trajectory:
    """RK4 on du^mu/dlam = (q/m)(F^mu_nu gen . I) u^nu for the strength F (x) gen:
    f_eval is as in integrate_lorentz, gen in so(d), I the charge vector.

    The gauge indices contract once per run, through the normalized trace
    pairing kappa = -tr(gen I)/2 = -sum_{i<j} gen_ij I_ji, which is 1 on a
    generator paired with itself and exactly value for I = value gen = value
    X_ij; the run is integrate_lorentz on kappa F, bit for bit.  (The
    adjoint-trace Killing form is proportional to this pairing on a simple
    so(n) but vanishes identically for n = 2, so the defining-representation
    trace form is the usable avatar of the Killing pairing here.)
    """
    if state.charge_vector is None:
        raise ValueError("Wong integration needs a charge vector")
    gen, charge = np.asarray(gen, dtype=float), np.asarray(state.charge_vector, dtype=float)
    if gen.shape != charge.shape:
        raise ValueError(f"charge dimension {charge.shape} does not match generator {gen.shape}")
    if not (np.array_equal(gen, -gen.T) and np.array_equal(charge, -charge.T)):
        raise ValueError("generator and charge vector must be antisymmetric")
    upper = np.triu_indices(len(gen), 1)
    kappa = -float(np.sum(gen[upper] * charge.T[upper]))
    return _integrate(state, f_eval, kappa, dlam, nsteps, "wong")


# -- ready-made uniform fields ---------------------------------------------------


def uniform_electric_f(e_vec) -> np.ndarray:
    """Constant electric-type F^mu_nu with F^i_0 = E_i."""
    e_vec = np.asarray(e_vec, dtype=float)
    f_lower = np.zeros((4, 4))
    f_lower[1:, 0] = e_vec
    f_lower[0, 1:] = -e_vec
    return ETA_DIAG[:, None] * f_lower


def uniform_magnetic_f(b_vec) -> np.ndarray:
    """Constant magnetic-type F^mu_nu with F^i_j = eps_{ijk} B_k."""
    bx, by, bz = np.asarray(b_vec, dtype=float)
    f_lower = np.zeros((4, 4))
    f_lower[1, 2], f_lower[2, 1] = bz, -bz
    f_lower[2, 3], f_lower[3, 2] = bx, -bx
    f_lower[3, 1], f_lower[1, 3] = by, -by
    return ETA_DIAG[:, None] * f_lower
