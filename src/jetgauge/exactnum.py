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
exactly when r and m are.  sqrt extraction is offered only for rationals
whose square-free part is 1, 2, 5 or 10.

Integer arithmetic comes first: the structural suites hold their matrices
as rows of ints (Fractions where a half enters) and so(n) coefficients in
their native exact type.  QuadScalar enters only with a radical: the
1/sqrt2 of the (2,3) isotropic basis and the sqrt5 of the electroweak
data.  ExactMatrix, a dense square matrix over QuadScalar, is what the
electroweak module and the test oracles compute with (products,
determinants).  trace_metric takes rows of any exact type, ExactMatrix
included.  Every exact scalar converts with float(); the module imports no
numpy, so nothing here depends on a BLAS kernel.

All exact linear algebra runs over Q, through one Gauss-Jordan kernel,
rref.  ExactMatrix.det, solve_exact, nullspace_exact and rank_exact are thin
wrappers on it, and Solver eliminates a fixed set of columns once for many
right-hand sides, keeping one integer transform over a common denominator.
Their entries may be ints, Fractions or rational QuadScalars, which enter as
Fractions; an irrational entry raises ValueError.  Solutions and null
vectors come back as Fractions.
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


_FRAC_SMALL = {n: Fraction(n) for n in range(-4, 5)}


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return _FRAC_SMALL[x] if -4 <= x <= 4 else Fraction(x)
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


_QS_SMALL = {n: QuadScalar(n) for n in range(-4, 5)}

QS_ZERO = _QS_SMALL[0]
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
    """Exact nonnegative square root of a rational, if it is r*sqrt(m).

    Returns None when the square-free part of x is not in {1, 2, 5, 10}.
    """
    if x < 0:
        raise ValueError("square root of a negative rational")
    if x == 0:
        return QS_ZERO
    num, den = x.numerator, x.denominator
    # sqrt(p/q) = sqrt(p*q)/q
    s, f = _squarefree_split(num * den)
    if f not in _ROOTS:
        return None
    return _monomial(_ROOTS.index(f), Fraction(s, den))


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
        _, pivots, signed = rref(_rational_rows(self.rows), self.n)
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
    """Gauss-Jordan elimination over Q, on rows of Fractions.

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


def _rational(x):
    """An int or Fraction as it is, a QuadScalar as its Fraction; an
    irrational QuadScalar raises ValueError."""
    return x.as_fraction() if isinstance(x, QuadScalar) else x


def _rational_rows(rows: Iterable[Iterable[RationalLike]]) -> list[list[Fraction]]:
    return [[_frac(_rational(x)) for x in row] for row in rows]


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
    aug = _rational_rows(
        [[col[i] for col in columns] + [t] for i, t in enumerate(target)]
    )
    reduced, pivots, _ = rref(aug, ncols)
    return _solution([row[ncols] for row in reduced], pivots, ncols)


class Solver:
    """Repeated exact solves sum_j x_j * columns[j] = b against fixed columns.

    The columns are eliminated once, as [A | I]; solve(b) applies the stored
    transform E (E A is reduced) to b and answers exactly as solve_exact
    would.  E is kept as integers over one common denominator, so a solve is
    an integer matrix-vector product and one division per nonzero entry.
    """

    def __init__(self, columns: Sequence[Sequence[RationalLike]]):
        a = _rational_rows(zip(*columns))
        nrows, self.ncols = len(a), len(columns)
        self.zero, one = _frac(0), _frac(1)
        aug = [row + [one if k == i else self.zero for k in range(nrows)]
               for i, row in enumerate(a)]
        reduced, self.pivots, _ = rref(aug, self.ncols)
        transform = [row[self.ncols:] for row in reduced]
        den = math.lcm(*(x.denominator for row in transform for x in row))
        self.transform = [[x.numerator * (den // x.denominator) if x else 0 for x in row]
                          for row in transform]
        self.scale = Fraction(1, den)

    def solve(self, b: Sequence) -> list | None:
        if len(b) != len(self.transform):
            raise ValueError("right-hand side length does not match the columns")
        nonzero = [(k, _rational(v)) for k, v in enumerate(b) if v]
        y = [sum(row[k] * v for k, v in nonzero if row[k]) for row in self.transform]
        return _solution([v * self.scale if v else self.zero for v in y],
                         self.pivots, self.ncols)


def nullspace_exact(rows: Sequence[Sequence[RationalLike]]) -> list[list]:
    """Exact null space basis of the linear map given by `rows` (m x n)."""
    if not rows:
        return []
    mat = _rational_rows(rows)
    n = len(mat[0])
    reduced, pivots, _ = rref(mat, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [_frac(0)] * n
        v[free] = _frac(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][free]
        basis.append(v)
    return basis


def rank_exact(rows: Sequence[Sequence[RationalLike]]) -> int:
    if not rows:
        return 0
    mat = _rational_rows(rows)
    return len(rref(mat, len(mat[0]))[1])
