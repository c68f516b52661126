"""Exact arithmetic over Q and the biquadratic field Q(sqrt2, sqrt5).

QuadScalar represents a + b*sqrt2 + c*sqrt5 + d*sqrt10 with rational
coefficients.  The four basis elements are linearly independent over Q,
so equality is componentwise and every nonzero element is invertible
(multiply by the three conjugates under sqrt2 -> -sqrt2, sqrt5 -> -sqrt5
and divide by the rational norm).

The field is deliberately fixed: the only irrationalities the symbolic
computations need are 1/sqrt2 (isotropic basis coefficients) and sqrt5
(weak mixing data).  Anything requiring another radical is a design error
upstream, and sqrt extraction is offered only for rationals whose
square-free part is 1, 2, 5 or 10.

Integer arithmetic comes first: the structural suites hold their matrices
as rows of ints (Fractions where a half enters) and so(n) coefficients in
their native exact type.  QuadScalar enters only with a radical: the
1/sqrt2 of the (2,3) isotropic basis and the sqrt5 of the electroweak
data.  ExactMatrix, a dense square matrix over QuadScalar, is what the
electroweak module and the test oracles compute with (products,
determinants).  trace_metric takes rows of any exact type, ExactMatrix
included.  Every exact scalar converts with float(); the module imports no
numpy, so nothing here depends on a BLAS kernel.

All exact linear algebra runs through one Gauss-Jordan kernel, rref,
which works over whatever field its entries belong to.  ExactMatrix.det,
solve_exact, nullspace_exact and rank_exact are thin wrappers on it, and
Solver eliminates a fixed set of columns once for many right-hand sides;
over Q it keeps one integer transform over a common denominator.  The
wrappers keep the scalar type of their inputs: QuadScalar if any entry
is one, Fraction otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction, "QuadScalar"]

# 40-digit rational approximations of the radicals, so that float() can
# evaluate the full sum exactly and round once (a single rounding matches
# high-precision evaluation; summing pre-rounded binary64 products can be
# off by an ulp)
_GUARD = 10**40
_SQRT2_R = Fraction(math.isqrt(2 * _GUARD**2), _GUARD)
_SQRT5_R = Fraction(math.isqrt(5 * _GUARD**2), _GUARD)
_SQRT10_R = Fraction(math.isqrt(10 * _GUARD**2), _GUARD)


_FRAC_SMALL = {n: Fraction(n) for n in range(-4, 5)}


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return _FRAC_SMALL[x] if -4 <= x <= 4 else Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class QuadScalar:
    """Element a + b*sqrt2 + c*sqrt5 + d*sqrt10 of Q(sqrt2, sqrt5)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = _frac(a)
        self.b = _frac(b)
        self.c = _frac(c)
        self.d = _frac(d)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def coerce(x: RationalLike) -> "QuadScalar":
        if isinstance(x, QuadScalar):
            return x
        if isinstance(x, int) and -4 <= x <= 4:
            return _QS_SMALL[x]
        return QuadScalar(_frac(x))

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.a

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        o = QuadScalar.coerce(other)
        return QuadScalar(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = QuadScalar.coerce(other)
        return QuadScalar(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __rsub__(self, other):
        return QuadScalar.coerce(other).__sub__(self)

    def __neg__(self):
        return QuadScalar(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        o = QuadScalar.coerce(other)
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        # sqrt2*sqrt5 = sqrt10, sqrt2*sqrt10 = 2*sqrt5, sqrt5*sqrt10 = 5*sqrt2
        if not (b1 or c1 or d1):  # rational fast path
            if not a1:
                return _ZERO
            return QuadScalar(a1 * a2, a1 * b2, a1 * c2, a1 * d2)
        if not (b2 or c2 or d2):
            if not a2:
                return _ZERO
            return QuadScalar(a1 * a2, b1 * a2, c1 * a2, d1 * a2)
        return QuadScalar(
            a1 * a2 + 2 * b1 * b2 + 5 * c1 * c2 + 10 * d1 * d2,
            a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def conj_sqrt2(self) -> "QuadScalar":
        return QuadScalar(self.a, -self.b, self.c, -self.d)

    def conj_sqrt5(self) -> "QuadScalar":
        return QuadScalar(self.a, self.b, -self.c, -self.d)

    def inverse(self) -> "QuadScalar":
        if not self:
            raise ZeroDivisionError("QuadScalar division by zero")
        y = self.conj_sqrt2() * self.conj_sqrt5() * self.conj_sqrt2().conj_sqrt5()
        norm = self * y
        # field norm is rational by construction
        assert norm.is_rational()
        n = norm.a
        return QuadScalar(y.a / n, y.b / n, y.c / n, y.d / n)

    def __truediv__(self, other):
        return self * QuadScalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QuadScalar.coerce(other) * self.inverse()

    # -- comparisons and conversions ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, (QuadScalar, int, Fraction)):
            return NotImplemented
        o = QuadScalar.coerce(other)
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __bool__(self):
        return bool(self.a or self.b or self.c or self.d)

    def __float__(self) -> float:
        if not (self.b or self.c or self.d):
            return float(self.a)
        return float(self.a + self.b * _SQRT2_R + self.c * _SQRT5_R + self.d * _SQRT10_R)

    def __str__(self):
        parts = []
        for coeff, tag in ((self.a, ""), (self.b, "sqrt2"), (self.c, "sqrt5"), (self.d, "sqrt10")):
            if not coeff:
                continue
            if tag and abs(coeff) == 1:
                term = tag if coeff > 0 else f"-{tag}"
            elif tag:
                term = f"{coeff}*{tag}"
            else:
                term = str(coeff)
            parts.append(term)
        if not parts:
            return "0"
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"QuadScalar({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


_ZERO = QuadScalar(0)
_QS_SMALL = {n: QuadScalar(n) for n in range(-4, 5)}
_QS_SMALL[0] = _ZERO

QS_ZERO = _ZERO
QS_ONE = QuadScalar(1)
QS_SQRT2 = QuadScalar(0, 1)
QS_SQRT5 = QuadScalar(0, 0, 1)
QS_SQRT10 = QuadScalar(0, 0, 0, 1)
QS_INV_SQRT2 = QuadScalar(0, Fraction(1, 2))  # sqrt2/2


def qs(a=0, b=0, c=0, d=0) -> QuadScalar:
    """Shorthand constructor accepting ints or Fractions."""
    return QuadScalar(a, b, c, d)


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * f with f square-free; returns (s, f).  n > 0."""
    s, f, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            f *= p
        p += 1
    return s, f * n


def sqrt_rational(x: Fraction) -> QuadScalar | None:
    """Exact nonnegative square root of a rational, if it lies in the field.

    Returns None when the square-free part of x is not in {1, 2, 5, 10}.
    """
    if x < 0:
        raise ValueError("square root of a negative rational")
    if x == 0:
        return QS_ZERO
    num, den = x.numerator, x.denominator
    # sqrt(p/q) = sqrt(p*q)/q
    s, f = _squarefree_split(num * den)
    root = {1: QS_ONE, 2: QS_SQRT2, 5: QS_SQRT5, 10: QS_SQRT10}.get(f)
    if root is None:
        return None
    return QuadScalar(Fraction(s, den)) * root


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
        out = [[_ZERO] * n for _ in range(n)]
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
        _, pivots, signed = rref(self.rows, self.n)
        return QuadScalar.coerce(signed) if len(pivots) == self.n else QS_ZERO

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


def rref(rows: Sequence[Sequence], ncols: int) -> tuple[list[list], list[int], object]:
    """Gauss-Jordan elimination over the field the entries belong to.

    Pivots are sought in the first ncols columns only; later columns (a
    right-hand side, or an identity block that records the transform) are
    carried along.  Returns the reduced rows (a copy), the pivot column of
    each leading row, and the signed product of the pivots, which is the
    determinant when the rows form a nonsingular square matrix.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    pivots: list[int] = []
    signed = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            signed = -signed
        signed = signed * m[r][c]
        inv = 1 / m[r][c]
        prow = m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = [x - f * y if y else x for x, y in zip(m[i], prow)]
        pivots.append(c)
    return m, pivots, signed


def _over_field(rows: Iterable[Iterable[RationalLike]]):
    """rows as lists over one field, with that field's zero and one.

    The field is QuadScalar if any entry is one, else Fraction, so rational
    callers never pay for QuadScalar arithmetic.
    """
    rows = [list(row) for row in rows]
    if any(isinstance(x, QuadScalar) for row in rows for x in row):
        return [[QuadScalar.coerce(x) for x in row] for row in rows], QS_ZERO, QS_ONE
    return [[_frac(x) for x in row] for row in rows], _frac(0), _frac(1)


def _solution(y: list, pivots: list[int], ncols: int) -> list | None:
    """Read x off a reduced right-hand side y; see solve_exact for the cases."""
    if any(y[len(pivots):]):
        return None
    if len(pivots) < ncols:
        raise ValueError("underdetermined system: columns are linearly dependent")
    # full column rank: the pivots are exactly 0..ncols-1
    return y[:ncols]


def solve_exact(
    columns: Sequence[Sequence[RationalLike]], target: Sequence[RationalLike]
) -> list | None:
    """Solve sum_j x_j * columns[j] = target exactly.

    Returns the coefficient list, or None when the system is inconsistent.
    Raises if the columns are linearly dependent and a solution exists but
    is not unique.
    """
    ncols = len(columns)
    aug, _, _ = _over_field(
        [[col[i] for col in columns] + [t] for i, t in enumerate(target)]
    )
    reduced, pivots, _ = rref(aug, ncols)
    return _solution([row[ncols] for row in reduced], pivots, ncols)


class Solver:
    """Repeated exact solves sum_j x_j * columns[j] = b against fixed columns.

    The columns are eliminated once, as [A | I]; solve(b) applies the stored
    transform E (E A is reduced) to b and answers exactly as solve_exact
    would.  Over Q, E is kept as integers over one common denominator, so a
    solve is an integer matrix-vector product and one division per nonzero
    entry.  b must lie over the same field as the columns.
    """

    def __init__(self, columns: Sequence[Sequence[RationalLike]]):
        a, self.zero, one = _over_field(zip(*columns))
        nrows, self.ncols = len(a), len(columns)
        aug = [row + [one if k == i else self.zero for k in range(nrows)]
               for i, row in enumerate(a)]
        reduced, self.pivots, _ = rref(aug, self.ncols)
        self.transform, self.scale = [row[self.ncols:] for row in reduced], one
        if isinstance(one, Fraction):
            den = math.lcm(*(x.denominator for row in self.transform for x in row))
            self.transform = [[x.numerator * (den // x.denominator) if x else 0 for x in row]
                              for row in self.transform]
            self.scale = Fraction(1, den)

    def solve(self, b: Sequence) -> list | None:
        if len(b) != len(self.transform):
            raise ValueError("right-hand side length does not match the columns")
        nonzero = [(k, v) for k, v in enumerate(b) if v]
        y = [sum(row[k] * v for k, v in nonzero if row[k]) for row in self.transform]
        return _solution([v * self.scale if v else self.zero for v in y],
                         self.pivots, self.ncols)


def nullspace_exact(rows: Sequence[Sequence[RationalLike]]) -> list[list]:
    """Exact null space basis of the linear map given by `rows` (m x n)."""
    if not rows:
        return []
    mat, zero, one = _over_field(rows)
    n = len(mat[0])
    reduced, pivots, _ = rref(mat, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [zero] * n
        v[free] = one
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][free]
        basis.append(v)
    return basis


def rank_exact(rows: Sequence[Sequence[RationalLike]]) -> int:
    if not rows:
        return 0
    mat, _, _ = _over_field(rows)
    return len(rref(mat, len(mat[0]))[1])
