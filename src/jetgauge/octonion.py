"""Exact octonion algebra, the 7d cross product, and the g2 / su(3) reduction.

The product is transcribed twice, independently, and the tests and
`verify-all` check one against the other on all 49 basis pairs plus
random pairs:

* `_TABLE`, the unit multiplication table behind `oct_mul`, with one
  forced correction: the reference's e3*e7 entry "-e_e" is -e4, by
  antisymmetry against e7*e3 = +e4.
* `cross(a, b)`, the quoted component formula, with the second
  component's last term corrected from -a5*b7 to +a5*b7, which the
  identity a x b = ab + <a, b> (scalar part restored) forces.

Everything else runs on integer structure constants, with no QuadScalar:
`_CROSS`, the 7x7 table of (sign, k) with e_i x e_j = sign * e_k, is read
once from `_TABLE`.  Coefficients and 7x7 rows are ints wherever they are
integral, Fractions otherwise; `integral()` gives the positive integer
multiple of a rational element, for checks whose verdict a positive scale
keeps.  ad_matrix(a) is the matrix of v -> a x v in columns (the quoted
display lists its transpose, a global sign for antisymmetric matrices).
So7Split splits so(7) = g2 + ad by projection: the Frobenius Gram of the
21 elements, computed in the same run, gives the rank and the licence
<g2, ad_k> = 0, <ad_j, ad_k> = 6 delta_jk, under which the ad part of Z is
(1/6) sum_k <Z, ad_k> ad_k, from integer pairings with no elimination.
so7_decompose, the Solver split, is the tests' oracle for it.  Subalgebra
structure constants and Killing tables are liealg's kernel.

The fourteen g2 basis elements A_1..A_7, G_1..G_7 are read off the two
quoted parameterized displays, with the b-coefficient signs of the G
display at entries (5,7)/(7,5) flipped: the derivation property, which
defines g2, forces that correction.  The tests certify that these
fourteen span all derivations of the table: Der(O) = g2.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .exactnum import Solver, _eliminate, _frac, _integer_rows, nullspace_exact, rank_exact
from .liealg import Rows, _entries, bracket, frobenius_gram, killing_table_in_basis

# unit products e_i e_j for i != j, as (sign, index); diagonal is -1.
_TABLE = {
    1: [(-1, 0), (1, 3), (-1, 2), (1, 5), (-1, 4), (-1, 7), (1, 6)],
    2: [(-1, 3), (-1, 0), (1, 1), (1, 6), (1, 7), (-1, 4), (-1, 5)],
    3: [(1, 2), (-1, 1), (-1, 0), (1, 7), (-1, 6), (1, 5), (-1, 4)],
    4: [(-1, 5), (-1, 6), (-1, 7), (-1, 0), (1, 1), (1, 2), (1, 3)],
    5: [(1, 4), (-1, 7), (1, 6), (-1, 1), (-1, 0), (-1, 3), (1, 2)],
    6: [(1, 7), (1, 4), (-1, 5), (-1, 2), (1, 3), (-1, 0), (-1, 1)],
    7: [(-1, 6), (1, 5), (1, 4), (-1, 3), (-1, 2), (1, 1), (-1, 0)],
}


def unit_product(i: int, j: int) -> tuple[int, int]:
    """(sign, k) with e_i e_j = sign * e_k; k = 0 encodes the real unit."""
    if not (1 <= i <= 7 and 1 <= j <= 7):
        raise ValueError("unit indices must lie in 1..7")
    if i == j:
        return (-1, 0)
    return _TABLE[i][j - 1]


class _Coefficients:
    """A fixed-length tuple of rational coefficients, equal when the type and
    the coefficients are."""

    __slots__ = ("coeffs",)
    _size, _noun = 0, ""

    def __init__(self, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != self._size:
            raise ValueError(f"{self._noun} has {self._size} coefficients")
        self.coeffs = coeffs

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @classmethod
    def make(cls, *cs):
        """Pads the given ints or Fractions with zeros."""
        cs = tuple(_frac(c) for c in cs)
        return cls(cs + (Fraction(0),) * (cls._size - len(cs)))

    def __sub__(self, other):
        return type(self)(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return type(self)(tuple(-a for a in self.coeffs))

    def integral(self):
        """The positive multiple by the lcm of the denominators: integer coefficients."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        return type(self)(tuple(c.numerator * (den // c.denominator) for c in self.coeffs))


class Octonion(_Coefficients):
    """Rational octonion c0 + c1 e1 + ... + c7 e7."""

    __slots__ = ()
    _size, _noun = 8, "an octonion"

    @staticmethod
    def unit(k: int) -> "Octonion":
        if not (0 <= k <= 7):
            raise ValueError("unit index must lie in 0..7")
        return Octonion(tuple(int(i == k) for i in range(8)))

    @property
    def real(self) -> Fraction:
        return self.coeffs[0]

    def imaginary(self) -> "ImOctonion":
        return ImOctonion(self.coeffs[1:])


def oct_mul(a: Octonion, b: Octonion) -> Octonion:
    """Bilinear extension of the unit table."""
    out = [0] * 8
    for i, ai in enumerate(a.coeffs):
        if not ai:
            continue
        for j, bj in enumerate(b.coeffs):
            if not bj:
                continue
            if i == 0:
                out[j] += ai * bj
            elif j == 0:
                out[i] += ai * bj
            else:
                sign, k = unit_product(i, j)
                out[k] += sign * ai * bj
    return Octonion(tuple(out))


class ImOctonion(_Coefficients):
    """Pure imaginary octonion, coefficients over e1..e7."""

    __slots__ = ()
    _size, _noun = 7, "an imaginary octonion"

    @staticmethod
    def unit(k: int) -> "ImOctonion":
        if not (1 <= k <= 7):
            raise ValueError("imaginary unit index must lie in 1..7")
        return ImOctonion(tuple(int(i == k - 1) for i in range(7)))

    def to_octonion(self) -> Octonion:
        return Octonion((0,) + self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def inner(a: ImOctonion, b: ImOctonion) -> Fraction:
    return sum(x * y for x, y in zip(a.coeffs, b.coeffs))


def cross(a: ImOctonion, b: ImOctonion) -> ImOctonion:
    """7d cross product; satisfies a x b = ab + <a, b> as octonions."""
    a1, a2, a3, a4, a5, a6, a7 = a.coeffs
    b1, b2, b3, b4, b5, b6, b7 = b.coeffs
    return ImOctonion((
        a2 * b3 - a3 * b2 - a5 * b4 + a4 * b5 + a7 * b6 - a6 * b7,
        -a1 * b3 + a3 * b1 - a6 * b4 + a4 * b6 - a7 * b5 + a5 * b7,
        a1 * b2 - a2 * b1 + a4 * b7 - a7 * b4 + a6 * b5 - a5 * b6,
        -a1 * b5 + a5 * b1 - a2 * b6 + a6 * b2 - a3 * b7 + a7 * b3,
        a1 * b4 - a4 * b1 - a2 * b7 + a7 * b2 + a3 * b6 - a6 * b3,
        a1 * b7 - a7 * b1 + a2 * b4 - a4 * b2 - a3 * b5 + a5 * b3,
        -a1 * b6 + a6 * b1 + a2 * b5 - a5 * b2 + a3 * b4 - a4 * b3,
    ))


# e_i x e_j = sign * e_k over 0-based i, j, k, read off _TABLE; sign 0 when i == j.
_CROSS = [[(0, 0) if i == j else (_TABLE[i + 1][j][0], _TABLE[i + 1][j][1] - 1)
           for j in range(7)] for i in range(7)]


def _rows(m: Rows) -> Rows:
    """m, checked to be 7x7 rows."""
    if len(m) != 7 or any(len(row) != 7 for row in m):
        raise ValueError("need a 7x7 matrix")
    return m


def _is_antisymmetric(m: Rows) -> bool:
    return all(m[i][j] == -m[j][i] for i in range(7) for j in range(i, 7))


def _combination(coeffs: Sequence, mats: Sequence[Rows]) -> tuple[tuple, ...]:
    """sum_k coeffs[k] * mats[k]."""
    terms = [(c, m) for c, m in zip(coeffs, mats) if c]
    return tuple(tuple(sum(c * m[i][j] for c, m in terms if m[i][j]) for j in range(7))
                 for i in range(7))


def apply_im(m, v: ImOctonion) -> ImOctonion:
    """m v, for a 7x7 matrix m."""
    return ImOctonion(tuple(sum(x * c for x, c in zip(row, v.coeffs) if x) for row in _rows(m)))


# the two parameterized displays, encoded per cell as (coefficient k, factor);
# coefficient order (a..g) = (1..7).  G entries (5,7)/(7,5) carry the forced
# b-sign correction.
_A_DISPLAY = [
    [[], [(3, 1)], [(2, -1)], [], [(4, -1)], [(7, -1)], [(6, 1)]],
    [[(3, -1)], [], [(1, 1)], [], [(7, -1)], [(4, 1)], [(5, -1)]],
    [[(2, 1)], [(1, -1)], [], [], [(6, 1)], [(5, -1)], []],
    [[], [], [], [], [], [], []],
    [[(4, 1)], [(7, 1)], [(6, -1)], [], [], [(3, 1)], [(2, -1)]],
    [[(7, 1)], [(4, -1)], [(5, 1)], [], [(3, -1)], [], [(1, 1)]],
    [[(6, -1)], [(5, 1)], [], [], [(2, 1)], [(1, -1)], []],
]
_G_DISPLAY = [
    [[], [(3, 1)], [(2, -1)], [(5, -2)], [(4, -1)], [(7, -1)], [(6, 1)]],
    [[(3, -1)], [], [(1, 1)], [(6, -2)], [(7, 1)], [(4, -1)], [(5, -1)]],
    [[(2, 1)], [(1, -1)], [], [(7, -2)], [(6, -1)], [(5, 1)], [(4, 2)]],
    [[(5, 2)], [(6, 2)], [(7, 2)], [], [(1, -2)], [(2, -2)], [(3, -2)]],
    [[(4, 1)], [(7, -1)], [(6, 1)], [(1, 2)], [], [(3, -1)], [(2, 1)]],
    [[(7, 1)], [(4, 1)], [(5, -1)], [(2, 2)], [(3, 1)], [], [(1, -1)]],
    [[(6, -1)], [(5, 1)], [(4, -2)], [(3, 2)], [(2, -1)], [(1, 1)], []],
]


def _extract(display, k: int) -> tuple[tuple, ...]:
    return tuple(tuple(sum(fac for idx, fac in cell if idx == k) for cell in row)
                 for row in display)


def _ad_unit(a: int) -> tuple[tuple, ...]:
    """ad(e_{a+1}) from the table: its column m is e_{a+1} x e_{m+1}."""
    cols = [[sign if k == r else 0 for r in range(7)] for sign, k in _CROSS[a]]
    return tuple(zip(*cols))


_G2 = [_extract(d, k) for d in (_A_DISPLAY, _G_DISPLAY) for k in range(1, 8)]
_AD = [_ad_unit(a) for a in range(7)]


def g2_basis() -> list[tuple[tuple, ...]]:
    """The 14 basis elements [A_1..A_7, G_1..G_7] of the derivation algebra."""
    return list(_G2)


def ad_basis() -> list[tuple[tuple, ...]]:
    """The 7 matrices of v -> e_k x v."""
    return list(_AD)


def ad_matrix(a: ImOctonion) -> tuple[tuple, ...]:
    """Matrix of v -> a x v, through the table; antisymmetric, annihilates a."""
    return _combination(a.coeffs, _AD)


def is_derivation(x) -> bool:
    """x(e_i x e_j) == (x e_i) x e_j + e_i x (x e_j) for all 49 basis pairs."""
    x = _rows(x)
    if not _is_antisymmetric(x):
        raise ValueError("derivation candidates must be antisymmetric")
    cols = list(zip(*x))  # cols[i] = x e_i
    for i in range(7):
        for j in range(7):
            sign, k = _CROSS[i][j]
            lhs = [sign * c for c in cols[k]]
            rhs = [0] * 7
            for m in range(7):
                s1, k1 = _CROSS[m][j]
                s2, k2 = _CROSS[i][m]
                rhs[k1] += s1 * cols[i][m]
                rhs[k2] += s2 * cols[j][m]
            if lhs != rhs:
                return False
    return True


class G2Element(_Coefficients):
    """Element of g2 as coefficients over [A_1..A_7, G_1..G_7]."""

    __slots__ = ()
    _size, _noun = 14, "a g2 element"

    def matrix(self) -> tuple[tuple, ...]:
        return _combination(self.coeffs, _G2)


_UT_PAIRS = [(i, j) for i in range(7) for j in range(i + 1, 7)]


def _upper_tri(m: Rows) -> list:
    return [m[i][j] for i, j in _UT_PAIRS]


@functools.cache
def _so7_solver() -> Solver:
    return Solver([_upper_tri(b) for b in _G2 + _AD])


def so7_decompose(m) -> tuple[G2Element, ImOctonion]:
    """Unique split of an antisymmetric 7x7 matrix into g2 + ad parts."""
    m = _rows(m)
    if not _is_antisymmetric(m):
        raise ValueError("matrix is not antisymmetric")
    sol = _so7_solver().solve(_upper_tri(m))
    if sol is None:  # cannot happen: the 21 elements span so(7)
        raise RuntimeError("decomposition failed")
    return G2Element(tuple(sol[:14])), ImOctonion(tuple(sol[14:]))


class So7Split:
    """so(7) = g2 + ad, read off the Frobenius Gram of the stacked elements:
    rank is its rank, and the split is licensed when that is 21, <X, ad_k> = 0
    for X in g2 and <ad_j, ad_k> = 6 delta_jk.  The ad part of Z in so(7) is
    then (1/6) sum_k <Z, ad_k> ad_k."""

    def __init__(self, g2: Sequence[Rows], ads: Sequence[Rows]):
        gram = frobenius_gram(list(g2) + list(ads))
        self.rank, n = rank_exact(gram), len(g2)
        self.licensed = self.rank == 21 and all(
            gram[n + k][j] == 6 * (j == n + k) for k in range(len(ads)) for j in range(len(gram)))
        self._ads = [list(_entries(ad).items()) for ad in ads]

    def ad_pairings(self, z: Rows) -> list:
        """<z, ad_k> for each ad_k, over its nonzero entries (six for e_k)."""
        flat = [x for row in z for x in row]
        return [sum([v * flat[q] for q, v in ad]) for ad in self._ads]

    def has_g2_part(self, z: Rows) -> bool:
        """6z != sum_k <z, ad_k> ad_k: z differs from its ad projection."""
        six_g2 = [6 * x for row in z for x in row]
        for p, ad in zip(self.ad_pairings(z), self._ads):
            for q, v in ad if p else ():
                six_g2[q] -= p * v
        return any(six_g2)


def stabilizer_su3(z: ImOctonion) -> list[G2Element]:
    """Exact basis of the annihilator {X in g2 : X z = 0}; dimension 8.

    The subalgebra is certified as su(3) by dimension 8, exact bracket
    closure, negative-definite adjoint-trace Killing form and rank 2 (see
    the certification helpers below), which pins it down among compact
    algebras of that dimension.
    """
    if z.is_zero():
        raise ValueError("the stabilized element must be nonzero")
    images = [apply_im(b, z).coeffs for b in _G2]
    null = nullspace_exact(list(zip(*images)))  # 7 x 14 system X z = 0
    return [G2Element(tuple(v)) for v in null]


def killing_form_table(elements: Sequence[G2Element]) -> list[list[Fraction]]:
    """Adjoint-trace Killing form within the subalgebra spanned by elements."""
    return killing_table_in_basis([e.matrix() for e in elements])


def is_negative_definite(sym: Sequence[Sequence[Fraction]]) -> bool:
    """Sylvester test on -K: all leading principal minors positive, read
    off the pivots of one elimination; a row swap or a missing pivot means
    a minor is 0."""
    neg, _ = _integer_rows([[-x for x in row] for row in sym])
    _, pivots, values, swaps = _eliminate(neg, len(neg))
    return not swaps and len(pivots) == len(neg) and all(p > 0 for p in values)


def generic_centralizer_dimension(elements: Sequence[G2Element]) -> int:
    """dim of the centralizer of a (generically regular) element; equals the
    rank of the subalgebra for a regular probe."""
    # the probe: (k^2 + 1)/(k + 1) times lcm(1..n), a positive scale, in ints
    den = math.lcm(*range(1, len(elements) + 1))
    probe = [(k * k + 1) * (den // (k + 1)) for k in range(len(elements))]
    mats = [e.matrix() for e in elements]
    x = _combination(probe, mats)
    images = [_upper_tri(bracket(x, m)) for m in mats]
    # centralizer = nullspace of v -> [x, sum v_a X_a]
    return len(nullspace_exact(list(zip(*images))))


class ConsistencyReport:
    def __init__(self, chain_holds: bool, residual: ImOctonion, consistent: bool):
        self.chain_holds = chain_holds  # [X, ad_Y] Z == (X Y) x Z, using the derivation rule
        self.residual = residual        # Y x (X Z)
        self.consistent = consistent    # residual vanishes, i.e. X Z = 0

    @property
    def ok(self) -> bool:
        return self.chain_holds and self.consistent


def jacobi_consistency(x, y: ImOctonion, z: ImOctonion) -> ConsistencyReport:
    """Bracket-versus-action consistency for X in g2 acting through Y on Z.

    The chain X(Y x Z) - Y x (X Z) == (X Y) x Z holds for any derivation X;
    the obstruction to treating ad_Y as a gauge direction is the residual
    Y x (X Z), which vanishes iff X stabilizes Z.
    """
    x = _rows(x)
    xy = apply_im(x, y)
    xz = apply_im(x, z)
    lhs = apply_im(x, cross(y, z)) - cross(y, xz)
    chain = lhs == cross(xy, z)
    residual = cross(y, xz)
    return ConsistencyReport(chain, residual, xz.is_zero())
