"""Exact arithmetic over Q, and rationals times one square root.

QuadScalar represents r*sqrt(m): a rational r times one of the roots 1,
sqrt2, sqrt5 and sqrt10.  sqrt2 and sqrt5 are the only irrationalities the
symbolic computations need: the 1/sqrt2 coefficients of the (2,3) isotropic
basis, and the weak mixing data sin = 1/sqrt5, cos = 2/sqrt5 and the mass
ratio sqrt5/2; sqrt10 closes the set under products.  A product is again
one term, sqrt(m1) sqrt(m2) = s sqrt(m1 m2/s^2) with s^2 the part the two
roots share, and the inverse of r*sqrt(m) is sqrt(m)/(r m).  A sum is one
term only when its terms share a root or one of them is 0: building a
value with two radicals, such as the sum 1 + sqrt2, raises ValueError.  The
four roots are linearly independent over Q, so two values are equal
exactly when r and m are.  sqrt_rational extracts the root of a rational
p/q whose square-free part is 1, 2, 5 or 10, with no factoring: for each
of the four roots m it asks math.isqrt whether p q m is a perfect square.

Integer arithmetic comes first: the structural suites hold their matrices
as rows of ints (Fractions where a half enters) and so(n) coefficients in
their native exact type.  QuadScalar enters only with a radical: the
1/sqrt2 of the (2,3) isotropic basis and the sqrt5 of the electroweak
data.  ExactMatrix, a dense square matrix over QuadScalar, is what the
electroweak module and the test oracles compute with (products,
determinants).  trace_metric takes rows of any exact type, ExactMatrix
included.  Every exact scalar converts with float(); the module imports no
numpy, so nothing here depends on a BLAS kernel.

All exact linear algebra runs in ints, through one fraction-free
Gauss-Jordan kernel, _eliminate, behind ExactMatrix.det, nullspace_exact,
rank_exact and Solver (solve_exact is a one-shot Solver).  Entries may be
ints, Fractions or rational QuadScalars, scaled to ints by the lcm of their
denominators; an irrational one raises ValueError.  Solutions and null
vectors are Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction, "QuadScalar"]

# 40-digit rational approximations of the radicals, so that float() can
# form r times the root exactly and round once (a single rounding matches
# high-precision evaluation; a product of pre-rounded binary64 factors can
# be off by an ulp)
_GUARD = 10**40
_SQRT2_R = Fraction(math.isqrt(2 * _GUARD**2), _GUARD)
_SQRT5_R = Fraction(math.isqrt(5 * _GUARD**2), _GUARD)
_SQRT10_R = Fraction(math.isqrt(10 * _GUARD**2), _GUARD)

# The root m of each slot.  In a slot index, bit 0 stands for sqrt2 and
# bit 1 for sqrt5, so the root of a product has the index k1 ^ k2, and the
# shared factor sqrt(m) * sqrt(m) = m has the index k1 & k2.
_ROOTS = (1, 2, 5, 10)
_ROOTS_R = (1, _SQRT2_R, _SQRT5_R, _SQRT10_R)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class QuadScalar:
    """r*sqrt(m), a rational r times a root m in {1, 2, 5, 10}.

    r sits in the slot of its root (a, b, c, d for m = 1, 2, 5, 10) and the
    other three slots hold 0.  One slot would do; the four are kept because
    the benchmark's operation counter (perfbench/instrument.py) reads b, c
    and d.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = _frac(a)
        self.b = _frac(b)
        self.c = _frac(c)
        self.d = _frac(d)
        if (self.a, self.b, self.c, self.d).count(0) < 3:
            raise ValueError(f"{self.a} + {self.b}*sqrt2 + {self.c}*sqrt5 + {self.d}*sqrt10 "
                             "has two radicals; a QuadScalar holds one")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def coerce(x: RationalLike) -> "QuadScalar":
        return x if isinstance(x, QuadScalar) else QuadScalar(x)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.a

    def _term(self) -> tuple[int, Fraction]:
        """(k, r) with self = r * sqrt(_ROOTS[k])."""
        for k, r in enumerate((self.a, self.b, self.c, self.d)):
            if r:
                return k, r
        return 0, self.a

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        o = QuadScalar.coerce(other)
        return QuadScalar(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = QuadScalar.coerce(other)
        return QuadScalar(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __rsub__(self, other):
        # liealg.bracket subtracts from int 0 when given ExactMatrix rows
        return QuadScalar.coerce(other).__sub__(self)

    def __neg__(self):
        return QuadScalar(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        (k1, r1), (k2, r2) = self._term(), QuadScalar.coerce(other)._term()
        return _monomial(k1 ^ k2, r1 * r2 * _ROOTS[k1 & k2])

    __rmul__ = __mul__

    def inverse(self) -> "QuadScalar":
        """1/(r sqrt m) = sqrt(m)/(r m)."""
        k, r = self._term()
        if not r:
            raise ZeroDivisionError("QuadScalar division by zero")
        return _monomial(k, 1 / (r * _ROOTS[k]))

    def __truediv__(self, other):
        return self * QuadScalar.coerce(other).inverse()

    # -- comparisons and conversions ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, (QuadScalar, int, Fraction)):
            return NotImplemented
        o = QuadScalar.coerce(other)
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __bool__(self):
        return bool(self.a or self.b or self.c or self.d)

    def __float__(self) -> float:
        k, r = self._term()
        return float(r * _ROOTS_R[k])

    def __str__(self):
        k, r = self._term()
        if not k:
            return str(r)
        root = f"sqrt{_ROOTS[k]}"
        return root if r == 1 else f"-{root}" if r == -1 else f"{r}*{root}"

    def __repr__(self):
        return f"QuadScalar({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


def _monomial(k: int, r: Fraction) -> QuadScalar:
    """r * sqrt(_ROOTS[k])."""
    return QuadScalar(**{QuadScalar.__slots__[k]: r})


QS_ZERO = QuadScalar()
QS_INV_SQRT2 = QuadScalar(0, Fraction(1, 2))  # sqrt2/2


def sqrt_rational(x: Fraction) -> QuadScalar | None:
    """Exact nonnegative square root of a rational, if it is r*sqrt(m).

    Returns None when the square-free part of x is not in {1, 2, 5, 10}.
    sqrt(p/q) = sqrt(p q m)/(q m) for the one root m, if any, that makes
    p q m a perfect square; math.isqrt tests each of the four.
    """
    if x < 0:
        raise ValueError("square root of a negative rational")
    pq = x.numerator * x.denominator
    for k, m in enumerate(_ROOTS):
        s = math.isqrt(pq * m)
        if s * s == pq * m:
            return _monomial(k, Fraction(s, x.denominator * m))
    return None


class ExactMatrix:
    """Dense square matrix over QuadScalar."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        self.rows = [[QuadScalar.coerce(x) for x in row] for row in rows]
        self.n = len(self.rows)
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("matrix must be square")

    @staticmethod
    def diagonal(entries: Sequence[RationalLike]) -> "ExactMatrix":
        return ExactMatrix([[e if i == j else 0 for j in range(len(entries))]
                            for i, e in enumerate(entries)])

    def __iter__(self):
        return iter(self.rows)

    def scale(self, c: RationalLike) -> "ExactMatrix":
        c = QuadScalar.coerce(c)
        return ExactMatrix([[c * x for x in row] for row in self.rows])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        n = self.n
        if n != other.n:
            raise ValueError(f"dimension mismatch: {n} vs {other.n}")
        out = [[QS_ZERO] * n for _ in range(n)]
        orows = other.rows
        for i, row in enumerate(self.rows):
            acc = out[i]
            for k, aik in enumerate(row):
                if not aik:
                    continue
                brow = orows[k]
                for j, bkj in enumerate(brow):
                    if bkj:
                        acc[j] = acc[j] + aik * bkj
        return ExactMatrix(out)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([list(col) for col in zip(*self.rows)])

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def det(self) -> QuadScalar:
        """(-1)^swaps d / L^n, d the last pivot of the rows times L."""
        mat, den = _integer_rows(self.rows)
        _, pivots, values, swaps = _eliminate(mat, self.n)
        if len(pivots) < self.n:
            return QS_ZERO
        return QuadScalar(Fraction((-1) ** swaps * (values or [1])[-1], den**self.n))

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"ExactMatrix[{body}]"


def trace_metric(h: Sequence[RationalLike], a: Sequence[Sequence], b: Sequence[Sequence]):
    """sum_k h_k (A B)_{kk} of square matrices given as rows (an ExactMatrix
    iterates its rows), computed exactly without forming the product."""
    a, b = list(a), list(b)
    if len(h) != len(a):
        raise ValueError(f"metric length {len(h)} does not match dimension {len(a)}")
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    total = 0
    for k, hk in enumerate(h):
        if hk:
            total += hk * sum(akj * b[j][k] for j, akj in enumerate(a[k]) if akj and b[j][k])
    return total


def _integer_rows(rows: Iterable[Iterable[RationalLike]]) -> tuple[list, int]:
    """(M, L): the rows times the lcm L of their denominators, as ints."""
    rows = [[x.as_fraction() if isinstance(x, QuadScalar) else x for x in row] for row in rows]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list, list, list, int]:
    """Fraction-free Gauss-Jordan elimination on int rows (Bareiss).

    Pivots are sought in the first ncols columns only.  Pivot row x with
    pivot p turns every other row y into (p y - f x) // d, f being y's
    pivot-column entry and d the previous pivot (1 at first), an exact
    division.  The rows end as d times the rational reduced rows, d the last
    pivot.  Returns them, the pivot columns, the pivot values (the leading
    principal minors if no row was swapped) and the number of swaps.
    """
    m = [list(row) for row in rows]
    pivots, values, swaps, d = [], [], 0, 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        prow, p = m[r], m[r][c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
        pivots.append(c)
        values.append(p)
        d = p
    return m, pivots, values, swaps


class Solver:
    """Repeated exact solves sum_j x_j * columns[j] = b against fixed columns.

    The columns A, times the lcm L of their denominators, are eliminated
    once as [L A | L I]: transform = d E, d the last pivot and E A reduced,
    and solve(b) reads x off scale * transform b in ints, scale = 1/d.
    """

    def __init__(self, columns: Sequence[Sequence[RationalLike]]):
        a, den = _integer_rows(zip(*columns))
        nrows, self.ncols = len(a), len(columns)
        aug = [row + [den if k == i else 0 for k in range(nrows)] for i, row in enumerate(a)]
        reduced, self.pivots, values, _ = _eliminate(aug, self.ncols)
        self.transform = [row[self.ncols:] for row in reduced]
        self.scale = Fraction(1, (values or [1])[-1])

    def solve(self, b: Sequence) -> list | None:
        """The Fractions x_j, or None when b lies outside the columns' span.

        Raises ValueError when the columns are linearly dependent and b
        lies in their span, or when b's length does not match the columns.
        """
        if len(b) != len(self.transform):
            raise ValueError("right-hand side length does not match the columns")
        (b,), den = _integer_rows([b])
        nonzero = [(k, v) for k, v in enumerate(b) if v]
        y = [sum(row[k] * v for k, v in nonzero if row[k]) for row in self.transform]
        if any(y[len(self.pivots):]):
            return None
        if len(self.pivots) < self.ncols:
            raise ValueError("underdetermined system: columns are linearly dependent")
        # full column rank: the pivots are exactly 0..ncols-1
        return [v * self.scale / den for v in y[:self.ncols]]


def solve_exact(
    columns: Sequence[Sequence[RationalLike]], target: Sequence[RationalLike]
) -> list | None:
    """Solve sum_j x_j * columns[j] = target exactly, as Solver(columns) does.

    Returns the coefficient list, or None when the system is inconsistent.
    Raises ValueError if the columns are linearly dependent and a solution
    exists but is not unique, or if target's length does not match them.
    """
    return Solver(columns).solve(target)


def nullspace_exact(rows: Sequence[Sequence[RationalLike]]) -> list[list]:
    """Exact null space basis of the linear map given by `rows` (m x n)."""
    if not rows:
        return []
    mat, _ = _integer_rows(rows)
    n = len(mat[0])
    reduced, pivots, values, _ = _eliminate(mat, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(int(c == free)) for c in range(n)]
        for r, c in enumerate(pivots):
            v[c] = Fraction(-reduced[r][free], values[-1])
        basis.append(v)
    return basis


def rank_exact(rows: Sequence[Sequence[RationalLike]]) -> int:
    if not rows:
        return 0
    mat, _ = _integer_rows(rows)
    return len(_eliminate(mat, len(mat[0]))[1])
