"""so(N) generator algebra: brackets, structure checks, Killing forms.

Generators are indexed by pairs 1 <= i < j <= n with
(X_ij)_{kl} = delta_ik delta_jl - delta_il delta_jk.  Matrices are square
rows of ints or Fractions (an ExactMatrix iterates its rows, so it is
accepted too): generator_rows, so4_bases, minkowski_eta and so13_basis are
integer rows, with Fraction halves in the so(4) split X_i, Y_i.  bracket,
the structure constants and the Killing forms run on them over Z or Q.
LieElement keeps each coefficient in its own exact type: an int, a
Fraction, or a QuadScalar r*sqrt(m) only where a radical is (the 1/sqrt2
of the (2,3) isotropic basis).  Its brackets and trace forms work on the
coefficients and sum from int 0, so integral data stays integral; the
realized ExactMatrix is built only on demand, as the test suite's
independent oracle.

Two Killing-form flavours are exposed.  killing_adjoint is the plain
brute-force trace of ad_X ad_Y over the generator basis of so(n); for
so(n) it equals (n-2) tr(XY).  killing_metric_twisted inserts the
Minkowskian metric eta = diag(-1,1,1,1) into both index contractions,
2 tr(eta X eta Y); on antisymmetric representatives of so(1,3) elements
this reproduces the adjoint-trace Killing form of so(1,3), flipping the
boost directions to positive norm.  (Inserting a single eta does not:
boost pairs then come out 0 instead of +-4.)  The so(n), so(1,3) and
su(3) Killing forms share one kernel: the sparse bracket, the structure
constants of a closed basis (_structure), and the forms read off them.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Mapping, Sequence

from .exactnum import ExactMatrix, RationalLike, Solver

Rows = Sequence[Sequence]


def so_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def generator_rows(n: int, i: int, j: int) -> tuple[tuple[int, ...], ...]:
    """X_ij as integer rows: +1 at (i,j), -1 at (j,i); 1-based indices, i < j."""
    if not (1 <= i < j <= n):
        raise ValueError(f"generator indices out of range: ({i},{j}) in so({n})")
    return tuple(tuple((k == i and m == j) - (k == j and m == i) for m in range(1, n + 1))
                 for k in range(1, n + 1))


def so_generator(n: int, i: int, j: int) -> ExactMatrix:
    """X_ij realized as an ExactMatrix."""
    return ExactMatrix(generator_rows(n, i, j))


class LieElement:
    """Element of so(n) as coefficients over the X_ij basis."""

    __slots__ = ("n", "coeffs", "_matrix")

    def __init__(self, n: int, coeffs: Mapping[tuple[int, int], object] | None = None):
        self.n = n
        self.coeffs: dict[tuple[int, int], RationalLike] = {}
        self._matrix: ExactMatrix | None = None
        for (i, j), v in (coeffs or {}).items():
            if not (1 <= i < j <= n):
                raise ValueError(f"bad index pair ({i},{j}) for so({n})")
            if v:
                self.coeffs[(i, j)] = v

    @staticmethod
    def generator(n: int, i: int, j: int) -> "LieElement":
        return LieElement(n, {(i, j): 1})

    @property
    def matrix(self) -> ExactMatrix:
        if self._matrix is None:
            rows = [[0] * self.n for _ in range(self.n)]
            for (i, j), v in self.coeffs.items():
                rows[i - 1][j - 1], rows[j - 1][i - 1] = v, -v
            self._matrix = ExactMatrix(rows)
        return self._matrix

    def bracket(self, other: "LieElement") -> "LieElement":
        """sum x_ab y_cd [X_ab, X_cd], each term from so_bracket_closed_form."""
        self._check(other)
        acc: dict[tuple[int, int], RationalLike] = {}
        for ab, x in self.coeffs.items():
            for cd, y in other.coeffs.items():
                xy = x * y
                for key, s in so_bracket_closed_form(self.n, ab, cd).coeffs.items():
                    acc[key] = acc.get(key, 0) + s * xy
        return LieElement(self.n, acc)

    def trace_form(self, h: Sequence[RationalLike], other: "LieElement") -> RationalLike:
        """tr(diag(h) X Y) = -sum_{i<j} (h_i + h_j) x_ij y_ij, over the sparser map."""
        self._check(other)
        if len(h) != self.n:
            raise ValueError(f"metric length {len(h)} does not match so({self.n})")
        small, large = sorted((self.coeffs, other.coeffs), key=len)
        total = 0
        for (i, j), x in small.items():
            y = large.get((i, j))
            if y is None:
                continue
            hij = h[i - 1] + h[j - 1]
            if hij:
                total = total + hij * x * y
        return -total

    def _check(self, other: "LieElement"):
        if self.n != other.n:
            raise ValueError(f"ambient dimension mismatch: {self.n} vs {other.n}")

    def __repr__(self):
        if not self.coeffs:
            return f"LieElement(so({self.n}), 0)"
        body = " + ".join(f"({v})*X{i},{j}" for (i, j), v in sorted(self.coeffs.items()))
        return f"LieElement(so({self.n}), {body})"


def so_bracket_closed_form(
    n: int, ab: tuple[int, int], cd: tuple[int, int]
) -> LieElement:
    """[X_ab, X_cd] = d_bc X_ad - d_ac X_bd + d_ad X_bc - d_bd X_ac.

    Must agree with the commutator of the realized matrices; the test
    suite checks that exhaustively for n <= 8.
    """
    a, b = ab
    c, d = cd
    for i, j in (ab, cd):
        if not (1 <= i < j <= n):
            raise ValueError(f"bad generator pair ({i},{j}) for so({n})")
    terms = [
        (1 if b == c else 0, (a, d)),
        (-1 if a == c else 0, (b, d)),
        (1 if a == d else 0, (b, c)),
        (-1 if b == d else 0, (a, c)),
    ]
    acc: dict[tuple[int, int], int] = {}
    for sign, (p, q) in terms:
        if sign == 0 or p == q:
            continue
        if p > q:
            p, q = q, p
            sign = -sign
        acc[(p, q)] = acc.get((p, q), 0) + sign
    return LieElement(n, acc)


def so4_bases() -> dict[str, tuple[tuple, ...]]:
    """The fixed so(4) generator set A_i, B_i and the split X_i, Y_i, as rows.

    Commutation relations (all verified exactly by the test suite):
      [A_i,A_j] = eps_ijk A_k, [B_i,B_j] = eps_ijk A_k, [A_i,B_j] = eps_ijk B_k,
      [X_i,X_j] = eps_ijk X_k, [Y_i,Y_j] = eps_ijk Y_k, [X_i,Y_j] = 0,
    where X_i = (A_i+B_i)/2 and Y_i = (A_i-B_i)/2.  A_i and B_i are integer
    rows; X_i and Y_i carry Fraction halves.
    """
    A1 = ((0, 0, 0, 0), (0, 0, -1, 0), (0, 1, 0, 0), (0, 0, 0, 0))
    A2 = ((0, 0, 1, 0), (0, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0))
    A3 = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    B1 = ((0, 0, 0, -1), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0))
    B2 = ((0, 0, 0, 0), (0, 0, 0, -1), (0, 0, 0, 0), (0, 1, 0, 0))
    B3 = ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
    out = {"A1": A1, "A2": A2, "A3": A3, "B1": B1, "B2": B2, "B3": B3}
    for i, (a, b) in enumerate(((A1, B1), (A2, B2), (A3, B3)), start=1):
        for name, sign in (("X", 1), ("Y", -1)):
            out[f"{name}{i}"] = tuple(tuple(Fraction(u + sign * v, 2) for u, v in zip(p, q))
                                      for p, q in zip(a, b))
    return out


def minkowski_eta(n: int = 4) -> tuple[tuple[int, ...], ...]:
    """diag(-1, 1, ..., 1) as integer rows."""
    return tuple(tuple(-1 if i == j == 0 else int(i == j) for j in range(n)) for i in range(n))


def _product(a: Rows, b: Rows) -> list[list]:
    """ab of two square matrices given as rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def so13_basis() -> list[list[list[int]]]:
    """Mixed-index so(1,3) matrices eta X_ij (3 boosts, 3 rotations), integer rows."""
    eta = minkowski_eta()
    return [_product(eta, generator_rows(4, i, j)) for (i, j) in so_pairs(4)]


@functools.cache
def _so_killing_table(n: int) -> list[list]:
    return killing_table_in_basis([generator_rows(n, *p) for p in so_pairs(n)])


def killing_adjoint(x: LieElement, y: LieElement) -> RationalLike:
    """K(x, y) = tr(ad_x ad_y) = sum_ab x_a y_b K_ab, brute force: K is the
    adjoint-trace table of so(n)'s integer generator rows."""
    x._check(y)
    table, index = _so_killing_table(x.n), {p: k for k, p in enumerate(so_pairs(x.n))}
    return sum((u * v * table[index[p]][index[q]] for p, u in x.coeffs.items()
                for q, v in y.coeffs.items()), 0)


def bracket(a: Rows, b: Rows) -> tuple[tuple, ...]:
    """ab - ba of two square matrices given as rows, by a sparse row kernel:
    row i of ab accumulates v * b[k] over the nonzero entries v = a[i][k]."""
    na, nb = ([[(k, v) for k, v in enumerate(row) if v] for row in m] for m in (a, b))
    out = []
    for ra, rb in zip(na, nb):
        acc = [0] * len(na)
        for k, v in ra:
            for j, w in nb[k]:
                acc[j] += v * w
        for k, v in rb:
            for j, w in na[k]:
                acc[j] -= v * w
        out.append(tuple(acc))
    return tuple(out)


def _coords(solver: Solver, m: Rows) -> list:
    sol = solver.solve([x for row in m for x in row])
    if sol is None:
        raise ValueError("element does not lie in the span of the basis")
    return sol


def _structure(basis: Sequence[Rows]) -> tuple[Solver, list[list[list]]]:
    """The basis' Solver and c[a][b][k] with [X_a, X_b] = sum_k c[a][b][k] X_k.

    The basis is eliminated once; a bracket outside its span raises ValueError."""
    solver = Solver([[x for row in b for x in row] for b in basis])
    return solver, [[_coords(solver, bracket(a, b)) for b in basis] for a in basis]


def _ad_trace(ax, ay, zero):
    return sum((v * ay[j][i] for i, row in enumerate(ax) for j, v in enumerate(row)
                if v and ay[j][i]), zero)


def killing_adjoint_in_basis(basis: Sequence[Rows], x: Rows, y: Rows) -> RationalLike:
    """tr(ad_x ad_y) = sum_ab x_a y_b K_ab over an explicit closed matrix basis.

    x and y must lie in span(basis) and all brackets must stay inside the
    span; an element or a bracket outside the span raises ValueError.
    """
    solver, c = _structure(basis)
    xs, ys = _coords(solver, x), _coords(solver, y)
    return sum((u * v * _ad_trace(ca, cb, solver.zero) for u, ca in zip(xs, c) if u
                for v, cb in zip(ys, c) if v), solver.zero)


def killing_table_in_basis(basis: Sequence[Rows]) -> list[list]:
    """Full Killing table K_ab = tr(ad_a ad_b) over a closed matrix basis.

    (ad_a)[k][i] = c[a][i][k], so K_ab = sum c[a][i][k] c[b][k][i] is _ad_trace
    of c[a] and c[b]; sums start from the Fraction zero.
    """
    solver, c = _structure(basis)
    return [[_ad_trace(ca, cb, solver.zero) for cb in c] for ca in c]


def killing_metric_twisted(x: Rows, y: Rows):
    """2 tr(eta x eta y) for antisymmetric representatives x, y, given as
    rows, with eta = diag(-1,1,1,1).

    The metric enters both contractions: multiplying two index-lowered
    antisymmetric tensors requires raising the middle index, and the
    trace raises the outer one.  This equals the adjoint-trace Killing
    form of so(1,3).
    """
    eta = minkowski_eta()
    ex, ey = _product(eta, x), _product(eta, y)
    return 2 * sum(u * v for row, col in zip(ex, zip(*ey)) for u, v in zip(row, col))
