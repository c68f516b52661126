"""Weak-field field strength and force-law integration, on Python floats.

Conventions.  Indices are raised and lowered with eta = diag(-1, 1, 1, 1).
The electromagnetic-type field strength built from the metric components
g_mu := g_{mu,00} is

    F^mu_nu = eta^{mu d} (d_d g_nu - d_nu g_d),

antisymmetric after lowering both indices.  The 1/2 that would accompany
the connection coefficients is absorbed into this definition (the nu,00
and 00,nu orderings are summed over once).  F is four rows of four floats,
row mu holding F^mu_nu; raising the first index multiplies row 0 by -1.0,
which also flips the sign of its zeros.

Every first derivative is _stencil(sample, h), the one 4th-order central
difference: it adds w sample(off) over _STENCIL4 in offset order -2, -1, 1,
2, starting from 0.0, and divides by 12 h.  A grid-sampled metric gives F at
the nodes by it and between them by multilinear interpolation over the 16
corners of the enclosing cell.  A query is put in grid units once; from there
a node is its index tuple, which GridMetricField.jacobian range-checks and
steps.  A GridFieldStrength fills two lazy caches: per node, the six
independent components F^0_1, F^0_2, F^0_3, F^1_2, F^1_3, F^2_3, computed
through the module-level field_strength_em when a node is first needed, and
per cell those six as columns, six tuples of the 16 corner values, so a query
inside a known cell is one dict lookup and six sums, from which both F and
the force kernel below are built.  Only cells and nodes a trajectory visits
are computed; a whole-grid precompute would cost more memory than the grid
itself.

The interpolation order is pinned.  With f_k the fractional part of the
query's k-th grid coordinate and g_k = 1 - f_k, the weights are the product
tree ((w0 w1) w2) w3 over the corners in itertools.product order: 4
products of the axis-0 and axis-1 factors, 8 with axis 2, 16 with axis 3
(a tree started from 1.0 gives the same bits, as 1.0 g0 is g0).  Each of the
six components is one left-associative expression 0.0 + w0 a0 + ... +
w15 a15 over its column, the sum from 0.0 one weighted corner after the
other.  On a node layer some weights are 0.0; those corners may lie past the
stencil-safe range, so they are not computed and their column entries are
+0.0.  A zero term added to a sum from +0.0 changes no bit (see below), so
each sum equals the one that skips zero weights, which is what np.add.reduce
over the stack of the other corners' (4, 4) values and a plain corner loop
both do: samples are bit-identical to them (tests/test_dynamics.py keeps
both as oracles).  The other ten entries need no arithmetic.  At a node
F^j_0 = F^0_j up to the sign of a zero, F^j_i = -F^i_j for spatial i, j
except that two zeros are both +0.0, and the diagonal holds signed zeros.
In round-to-nearest a sum that starts from +0.0 never yields -0.0, and a
zero term never changes a nonzero partial sum; so the interpolated F^j_0
is the sum s of the F^0_j, F^j_i is -s, or +0.0 when s is 0, and the
diagonal is +0.0.  An infinite d_mu g_mu would make a diagonal NaN
instead, so a node whose F is not finite is an error.

This module imports no other jetgauge module.  A grid .npz is read by
jetgauge.npz (npz.load_grid), which only a request that reads one imports:
one parser reads each .npy header, native float64 data is viewed in place
through memoryview.cast('d'), and float32 and integer arrays are
converted.  From a path, a stored native float64 g of more than 4 KiB is
not held in memory: its CRC is checked in one streamed pass, then
GridMetricField reads it a 4 KiB page at a time as stencils touch it
(npz.PagedArray), so the file must not change during a run.

Trajectories integrate with fixed-step classical RK4 on eight Python
floats, which keeps runs deterministic and golden files meaningful.  The
stage force is qm (kappa F) u; kappa is 1 for Lorentz and the charge
value for Wong (see integrate_wong).  The RK4 loop holds the 16 entries
of kappa F, row by row, as local variables and contracts them inline.
A ConstantField's entries are bound once before the loop, and no call is
made per stage.  Any other field gives them through its rows interface:
one rows(x0, x1, x2, x3) call per stage returns the 16 entries as a
tuple.  A GridFieldStrength's kernel(kappa) builds them straight from
the six sums, keeping F's zero entries and the products kappa v when
kappa is not 1.0, so they are the bits of its own F.  Any other callable
is called at each stage position as a tuple of four floats, and a memo
scales the entries once per distinct F object returned.  The RK4 order
is pinned too: du/dlam = qm M u, with M = kappa F, takes row a of M as
qm ((a0 u0 + a2 u2) + (a1 u1 + a3 u3)), the order that numpy's F @ u
showed on the OpenBLAS build the golden files came from; stages are
y + (h/2) k and y + h k, and a step is y + (h/6)(((k1 + 2 k2) + 2 k3) + k4).
tests/test_dynamics.py keeps a numpy RK4 with that column order as the
oracle.  The loop also tracks the eta drift
max_k |eta(u_k, u_k) - eta(u_0, u_0)|, with
eta(u, u) = ((u1 u1 + u2 u2) + u3 u3) - u0 u0, NaN once any term is NaN,
as np.max gives it.  A step's state is checked for a non-finite entry
only when t - t is not 0.0 for the sum t of its eight entries, which is
so whenever an entry is not finite.

Samples go to one flat array('d') of rows [lambda, x0..x3, u0..u3].  Given
an emit callback, the loop hands it each finished block of BLOCK_STEPS
steps as a memoryview of the array (the first block also holds the initial
row), and the last partial block when the run ends; a run of 0 steps hands
over its one row.  After each block the array is emptied, so a streamed
run holds at most one block, 257 rows, and returns a Trajectory with no
table.  emit must be done with the view when it returns: emptying an array
with a live view raises BufferError.  A run that stops early has handed
over only its finished blocks.  jetgauge.writer formats the output file
from these blocks while the loop runs.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array

ETA_DIAG = (-1.0, 1.0, 1.0, 1.0)
BLOCK_STEPS = 256  # RK4 steps per block handed to emit

_STENCIL4 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))  # /(12 h)


def _stencil(sample, h: float):
    """sum_k w_k sample(off_k) / (12 h) over _STENCIL4, added in k order from 0.0."""
    acc = 0.0
    for off, w in _STENCIL4:
        acc = acc + w * sample(off)
    return acc / (12.0 * h)


def _raise_first_index(f_lower) -> tuple:
    """F^mu_nu = eta^mu f_lower[mu][nu], row by row."""
    return tuple(tuple(eta * v for v in row) for eta, row in zip(ETA_DIAG, f_lower))


class GridBoundaryError(ValueError):
    """Raised when a stencil would reach outside the sampled grid."""


class GridFileError(ValueError):
    """Raised when a paged grid file no longer holds the data it was checked with."""


# -- grid input --------------------------------------------------------------------


class GridMetricField:
    """g_mu sampled on a regular 4d grid with nodes at origin + spacing * idx.

    values holds the (4, n0, n1, n2, n3) samples flat, in C order or, with
    fortran_order, in Fortran order, so a .npy body is read in place; it may
    be an npz.PagedArray, whose file close() closes."""

    def __init__(self, values, shape, origin, spacing: float, fortran_order: bool = False):
        shape = tuple(shape)
        if len(shape) != 5 or shape[0] != 4:
            raise ValueError(f"grid values must have shape (4, n0, n1, n2, n3), got {shape}")
        if len(values) != math.prod(shape):
            raise ValueError(f"{len(values)} grid values for shape {shape}")
        origin = tuple(map(float, origin))
        if len(origin) != 4 or not all(map(math.isfinite, origin)):
            raise ValueError(f"origin must be 4 finite numbers, got {list(origin)}")
        spacing = float(spacing)
        if not 0.0 < spacing < math.inf:
            raise ValueError(f"spacing must be positive and finite, got {spacing!r}")
        self.values, self.shape, self.origin, self.spacing = values, shape, origin, spacing
        self.strides = [math.prod(shape[:k]) if fortran_order else math.prod(shape[k + 1:])
                        for k in range(5)]

    def close(self) -> None:
        """Close the file that paged values read from; values in memory have none."""
        if hasattr(self.values, "close"):
            self.values.close()

    def jacobian(self, idx) -> list[list[float]]:
        """J[mu][nu] = d_mu g_nu at the node idx, an index tuple, by the stencil on
        indices; a query coordinate is converted once, by the evaluator."""
        nodes = self.shape[1:]
        if any(i < 2 or i >= s - 2 for i, s in zip(idx, nodes)):
            # 6 digits: a runaway query lands some 1e300 nodes out, an index of 300 digits
            shown = ", ".join(f"{i:.6g}" for i in idx)
            raise GridBoundaryError(f"stencil at node ({shown}) leaves grid of shape {nodes}")
        vals, (comp, *steps) = self.values, self.strides
        at = sum(map(operator.mul, idx, steps))
        return [[_stencil(lambda off: vals[at + nu * comp + off * step], self.spacing)
                 for nu in range(4)] for step in steps]


def field_strength_em(g, p) -> tuple:
    """F^mu_nu = eta^{mu d}(d_d g_nu - d_nu g_d) at p from g.jacobian(p), rows
    J[mu][nu] = d_mu g_nu; p is a coordinate, or a grid's node index tuple."""
    jac = g.jacobian(p)
    return _raise_first_index([[jac[mu][nu] - jac[nu][mu] for nu in range(4)] for mu in range(4)])


_CORNERS = tuple(itertools.product((0, 1), repeat=4))  # np.ndindex order
_UPPER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))  # the six components kept
_ZERO = (0.0,) * 6  # the components of a corner of zero weight


class GridFieldStrength:
    """Continuous F(x) from a grid metric: node values by stencil, multilinear
    interpolation between nodes; kernel(kappa) gives the entries of kappa F.
    Each query is straight-line code on floats: grid units, the 16 weights as
    a product tree, and one 16-term sum per column of the cell; caches and
    summation order are described in the module docstring."""

    def __init__(self, grid: GridMetricField):
        nodes: dict[tuple[int, ...], tuple] = {}
        cells: dict[tuple[int, ...], tuple] = {}
        (o0, o1, o2, o3), spacing = grid.origin, grid.spacing
        isfinite, floor = math.isfinite, math.floor

        def components(base, corner) -> tuple:
            idx = tuple(map(operator.add, base, corner))
            comps = nodes.get(idx)
            if comps is None:
                f = field_strength_em(grid, idx)
                if not all(math.isfinite(v) for row in f for v in row):
                    raise ValueError(f"field strength at grid node {idx} is not finite")
                comps = nodes[idx] = tuple(f[a][b] for a, b in _UPPER)
            return comps

        def sums(x0, x1, x2, x3) -> list:  # F^0_1, F^0_2, F^0_3, F^1_2, F^1_3, F^2_3 at x
            r0, r1, r2, r3 = ((x0 - o0) / spacing, (x1 - o1) / spacing,
                              (x2 - o2) / spacing, (x3 - o3) / spacing)
            if not (isfinite(r0) and isfinite(r1) and isfinite(r2) and isfinite(r3)):
                raise GridBoundaryError(f"query {[r0, r1, r2, r3]} is not a finite grid position")
            base = b0, b1, b2, b3 = floor(r0), floor(r1), floor(r2), floor(r3)
            f0, f1, f2, f3 = r0 - b0, r1 - b1, r2 - b2, r3 - b3
            g0, g1, g2, g3 = 1.0 - f0, 1.0 - f1, 1.0 - f2, 1.0 - f3
            gg, gf, fg, ff = g0 * g1, g0 * f1, f0 * g1, f0 * f1
            ggg, ggf, gfg, gff, fgg, fgf, ffg, fff = (gg * g2, gg * f2, gf * g2, gf * f2,
                                                      fg * g2, fg * f2, ff * g2, ff * f2)
            wt = (ggg * g3, ggg * f3, ggf * g3, ggf * f3, gfg * g3, gfg * f3, gff * g3, gff * f3,
                  fgg * g3, fgg * f3, fgf * g3, fgf * f3, ffg * g3, ffg * f3, fff * g3, fff * f3)
            if 0.0 in wt:
                # on a node layer: corners of zero weight may lie past the
                # stencil-safe range, so they get +0.0 columns, not computed ones
                cell = tuple(zip(*[components(base, c) if w else _ZERO
                                   for w, c in zip(wt, _CORNERS)]))
            else:
                cell = cells.get(base)
                if cell is None:
                    cell = cells[base] = tuple(zip(*[components(base, c) for c in _CORNERS]))
            w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14, w15 = wt
            out = []  # a loop, not a comprehension, keeps the weights fast locals
            for a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 in cell:
                out.append(0.0 + w0 * a0 + w1 * a1 + w2 * a2 + w3 * a3 + w4 * a4 + w5 * a5 + w6 * a6
                           + w7 * a7 + w8 * a8 + w9 * a9 + w10 * a10 + w11 * a11 + w12 * a12
                           + w13 * a13 + w14 * a14 + w15 * a15)
            return out

        self._sums = sums
        self._f_rows = self.kernel(1.0)

    def __call__(self, x) -> tuple:
        e = self._f_rows(*x)
        return e[0:4], e[4:8], e[8:12], e[12:16]

    def kernel(self, kappa: float):
        """rows(x0, x1, x2, x3) -> the 16 entries of kappa F(x), row by row,
        straight from the six sums: F's zero entries are kept, and each entry
        is the product kappa v unless kappa is 1.0, so they are the bits of
        this F scaled as _integrate scales any other F."""
        sums, scaled = self._sums, kappa != 1.0

        def rows(x0, x1, x2, x3):
            s01, s02, s03, s12, s13, s23 = sums(x0, x1, x2, x3)
            z, n12, n13, n23 = 0.0, -s12 if s12 else 0.0, -s13 if s13 else 0.0, -s23 if s23 else 0.0
            if scaled:  # kappa F entry by entry, its zeros included
                z, s01, s02, s03, s12, s13, s23, n12, n13, n23 = [
                    kappa * v for v in (z, s01, s02, s03, s12, s13, s23, n12, n13, n23)]
            return (z, s01, s02, s03, s01, z, s12, s13, s02, n12, z, s23, s03, n13, n23, z)

        return rows


# -- trajectories ---------------------------------------------------------------


class ParticleState:
    def __init__(self, x, u, m: float, q: float):
        self.x, self.u = tuple(map(float, x)), tuple(map(float, u))
        if m <= 0:
            raise ValueError("rest mass must be positive")
        if len(self.x) != 4 or len(self.u) != 4:
            raise ValueError("x and u must be 4-vectors")
        self.m, self.q = m, q


def eta_norm(u) -> float:
    """eta(u, u) = ((u1 u1 + u2 u2) + u3 u3) - u0 u0, the RK4 loop's order."""
    u0, u1, u2, u3 = u
    return u1 * u1 + u2 * u2 + u3 * u3 - u0 * u0


class Trajectory:
    """Samples as one (n + 1, 9) table of rows [lambda, x0..x3, u0..u3]: a
    2-D memoryview of doubles, which np.asarray reads without a copy.  A run
    streamed through emit keeps no table: table is None, and samples counts
    the n + 1 rows that emit received."""

    def __init__(self, table: memoryview | None, meta: dict, samples: int | None = None):
        self.table, self.meta = table, meta
        self.samples = len(table) if samples is None else samples

    def __len__(self):
        return self.samples


def _entries(f, kappa: float) -> tuple:
    """The 16 entries of kappa F, row by row: F's own unless kappa is 1.0."""
    return tuple(v if kappa == 1.0 else kappa * v for row in f for v in row)


def _memo_rows(f_eval, kappa: float):
    """rows(x0, x1, x2, x3) of any field callable: f_eval at the tuple of the
    four floats, its entries scaled once per distinct F object returned."""
    last = [None, None]  # the last F returned, and the entries of kappa F

    def rows(x0, x1, x2, x3):
        f = f_eval((x0, x1, x2, x3))
        if f is not last[0]:
            last[:] = f, _entries(f, kappa)
        return last[1]

    return rows


def _integrate(state: ParticleState, f_eval, kappa: float, dlam: float, nsteps: int,
               law: str, emit=None) -> Trajectory:
    """RK4 on dx/dlam = u, du/dlam = (q/m) kappa F(x) u, f_eval and emit as in
    integrate_lorentz.  The state is eight Python floats; stage k has dx/dlam
    = (u, v, w, z)[k] and du/dlam = (p, q, r, s)[k].  The rows of kappa F
    are the locals a, b, c, d: bound once for a ConstantField, else
    refreshed by one rows() call per stage.  Arithmetic order: see the
    module docstring."""
    if not (dlam > 0 and math.isfinite(dlam)):
        raise ValueError("step must be positive and finite")
    qm = state.q / state.m
    h2, h6 = 0.5 * dlam, dlam / 6.0
    rows = None
    if isinstance(f_eval, ConstantField):
        a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = _entries(f_eval.f, kappa)
    elif isinstance(f_eval, GridFieldStrength):
        rows = f_eval.kernel(kappa)
    else:
        rows = _memo_rows(f_eval, kappa)
    y = state.x + state.u
    out = array("d", [0.0])
    out.extend(y)
    x0, x1, x2, x3, u0, u1, u2, u3 = y
    norm0 = eta_norm(state.u)
    drift = abs(norm0 - norm0)
    for start in range(0, max(nsteps, 1), BLOCK_STEPS):  # 0 steps: one block, the first row
        for k in range(start, min(start + BLOCK_STEPS, nsteps)):
            if rows is not None:
                a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = rows(
                    x0, x1, x2, x3)
            p0 = qm * ((a0 * u0 + a2 * u2) + (a1 * u1 + a3 * u3))
            p1 = qm * ((b0 * u0 + b2 * u2) + (b1 * u1 + b3 * u3))
            p2 = qm * ((c0 * u0 + c2 * u2) + (c1 * u1 + c3 * u3))
            p3 = qm * ((d0 * u0 + d2 * u2) + (d1 * u1 + d3 * u3))
            v0, v1, v2, v3 = u0 + h2 * p0, u1 + h2 * p1, u2 + h2 * p2, u3 + h2 * p3
            if rows is not None:
                a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = rows(
                    x0 + h2 * u0, x1 + h2 * u1, x2 + h2 * u2, x3 + h2 * u3)
            q0 = qm * ((a0 * v0 + a2 * v2) + (a1 * v1 + a3 * v3))
            q1 = qm * ((b0 * v0 + b2 * v2) + (b1 * v1 + b3 * v3))
            q2 = qm * ((c0 * v0 + c2 * v2) + (c1 * v1 + c3 * v3))
            q3 = qm * ((d0 * v0 + d2 * v2) + (d1 * v1 + d3 * v3))
            w0, w1, w2, w3 = u0 + h2 * q0, u1 + h2 * q1, u2 + h2 * q2, u3 + h2 * q3
            if rows is not None:
                a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = rows(
                    x0 + h2 * v0, x1 + h2 * v1, x2 + h2 * v2, x3 + h2 * v3)
            r0 = qm * ((a0 * w0 + a2 * w2) + (a1 * w1 + a3 * w3))
            r1 = qm * ((b0 * w0 + b2 * w2) + (b1 * w1 + b3 * w3))
            r2 = qm * ((c0 * w0 + c2 * w2) + (c1 * w1 + c3 * w3))
            r3 = qm * ((d0 * w0 + d2 * w2) + (d1 * w1 + d3 * w3))
            z0, z1, z2, z3 = u0 + dlam * r0, u1 + dlam * r1, u2 + dlam * r2, u3 + dlam * r3
            if rows is not None:
                a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = rows(
                    x0 + dlam * w0, x1 + dlam * w1, x2 + dlam * w2, x3 + dlam * w3)
            s0 = qm * ((a0 * z0 + a2 * z2) + (a1 * z1 + a3 * z3))
            s1 = qm * ((b0 * z0 + b2 * z2) + (b1 * z1 + b3 * z3))
            s2 = qm * ((c0 * z0 + c2 * z2) + (c1 * z1 + c3 * z3))
            s3 = qm * ((d0 * z0 + d2 * z2) + (d1 * z1 + d3 * z3))
            y = ((k + 1) * dlam,
                 x0 + h6 * (((u0 + 2.0 * v0) + 2.0 * w0) + z0),
                 x1 + h6 * (((u1 + 2.0 * v1) + 2.0 * w1) + z1),
                 x2 + h6 * (((u2 + 2.0 * v2) + 2.0 * w2) + z2),
                 x3 + h6 * (((u3 + 2.0 * v3) + 2.0 * w3) + z3),
                 u0 + h6 * (((p0 + 2.0 * q0) + 2.0 * r0) + s0),
                 u1 + h6 * (((p1 + 2.0 * q1) + 2.0 * r1) + s1),
                 u2 + h6 * (((p2 + 2.0 * q2) + 2.0 * r2) + s2),
                 u3 + h6 * (((p3 + 2.0 * q3) + 2.0 * r3) + s3))
            _, x0, x1, x2, x3, u0, u1, u2, u3 = y
            t = x0 + x1 + x2 + x3 + u0 + u1 + u2 + u3
            # t - t is 0.0 for a finite sum, NaN (true) once any entry is not finite
            if t - t and not all(map(math.isfinite, y[1:])):
                raise FloatingPointError(f"non-finite state at step {k + 1}")
            out.extend(y)
            d = abs(u1 * u1 + u2 * u2 + u3 * u3 - u0 * u0 - norm0)
            if d > drift:
                drift = d
            elif d != d:  # NaN, which np.max would return
                drift = d
        if emit is not None:
            emit(memoryview(out))
            del out[:]  # BufferError if emit kept its view
    table = None if emit is not None else memoryview(out).cast("B").cast("d", [nsteps + 1, 9])
    return Trajectory(table, {"law": law, "dlam": dlam, "eta_drift": drift}, nsteps + 1)


def integrate_lorentz(state: ParticleState, f_eval, dlam: float, nsteps: int,
                      emit=None) -> Trajectory:
    """RK4 on du^mu/dlam = (q/m) F^mu_nu u^nu; f_eval(x) -> F as four rows of
    four floats, x a tuple of four floats.  Of a ConstantField the run reads
    F once, and of a GridFieldStrength it takes the entries from its kernel;
    both give the bits of calling f_eval.  The entries of kappa F are read
    once per distinct object returned, so f_eval must not mutate an F it has
    already returned.  emit, if given, receives the samples block by block
    (see the module docstring)."""
    return _integrate(state, f_eval, 1.0, dlam, nsteps, "lorentz", emit)


def integrate_wong(state: ParticleState, f_eval, value: float, dlam: float,
                   nsteps: int, emit=None) -> Trajectory:
    """RK4 on du^mu/dlam = (q/m)(F^mu_nu X . I) u^nu for the strength F (x) X,
    X = X_ij a generator of so(d) and I = value X the charge, held constant
    along X; f_eval and emit are as in integrate_lorentz.

    The gauge indices contract through the normalized trace pairing
    kappa = -tr(X I)/2 = -sum_{k<l} X_kl I_lk, a sum from 0.0 of the one
    term -value: kappa = -(0.0 - value), which is value, or -0.0 for
    value = +-0.0.  The run is integrate_lorentz on kappa F, bit for bit.
    (The adjoint-trace Killing form is proportional to this pairing on a
    simple so(n) but vanishes identically for n = 2, so the
    defining-representation trace form is the usable avatar of the Killing
    pairing here.)
    """
    return _integrate(state, f_eval, -(0.0 - value), dlam, nsteps, "wong", emit)


# -- ready-made uniform fields ---------------------------------------------------


class ConstantField:
    """A field callable that returns the one F it holds at every x; a run
    reads its entries once instead of calling it at each stage."""

    def __init__(self, f):
        self.f = f

    def __call__(self, x):
        return self.f


def uniform_electric_f(e_vec) -> tuple:
    """Constant electric-type F^mu_nu with F^i_0 = E_i."""
    ex, ey, ez = map(float, e_vec)
    return _raise_first_index(((0.0, -ex, -ey, -ez), (ex, 0.0, 0.0, 0.0),
                               (ey, 0.0, 0.0, 0.0), (ez, 0.0, 0.0, 0.0)))


def uniform_magnetic_f(b_vec) -> tuple:
    """Constant magnetic-type F^mu_nu with F^i_j = eps_{ijk} B_k."""
    bx, by, bz = map(float, b_vec)
    return _raise_first_index(((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, bz, -by),
                               (0.0, -bz, 0.0, bx), (0.0, by, -bx, 0.0)))
