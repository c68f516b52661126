"""The 28-dimensional Proca quadratic form tr(h A A) and its consequences.

Canonical global index order (1-based) of the reduced jet space:

  1-4    1-jet block (d^t, d^x, d^y, d^z), h = 0
  5      2-jet scalar class (d^tt - d^xx - d^yy - d^zz), h = +1
  6-8    2-jet classes d^tx, d^ty, d^tz, h = -1
  9-15   3-jet timelike monomials (d^ttt, d^txx, ..., d^tzz), h = -1
  16-28  3-jet spacelike monomials (d^ttx, ..., d^zzz), h = +1

h is integral, so the table and the censuses are integers from H_INTS:
tr(h X_ij X_ij) = -(h_ii + h_jj).  Grams and the hypercharge variation
use the coefficient formula tr(h X Y) = -sum_{i<j} (h_i + h_j) x_ij y_ij
on LieElements with H_INTS, so the (3,3) and (1,3) Grams are integers;
QuadScalar enters only with the 1/sqrt2 of the (2,3) isotropic basis; the
trace form pairs like coordinates and (1/sqrt2)^2 = 1/2, so that basis'
Gram entries are rational.
Realized 28x28 matrices contracted with trace_metric are the independent
test oracle.  The finite hypercharge rotation is the one float computation
here: it conjugates sparse float matrices in a pinned arithmetic order,
without numpy or BLAS, so its printed residual is the same on every machine.

The (2,3) block census computed from h is (21 positive, 13 negative, 46
zero).  The quoted signature "(7,39)" for the same block disagrees with
that census; the discrepancy is surfaced as a flag and not reconciled
(DECISIONS.md, entry 4).

Everything here is the dimensionless quadratic form: the dimensional
prefactors (which the reference displays quote inconsistently, 1/4 versus
1/2 times the common factor) belong to the physical-scale module.
"""

from __future__ import annotations

import functools
import math
import operator

from .exactnum import QS_INV_SQRT2
from .liealg import LieElement

DIM = 28

# block boundaries of the canonical order (1-based, inclusive)
ORDER_BLOCKS = {1: (1, 4), 2: (5, 8), 3: (9, 28)}

SectorLabel = tuple[int, int]
SparseRows = dict[int, dict[int, float]]  # 0-based, each row's columns ascending


H_INTS = (0, 0, 0, 0, 1, -1, -1, -1) + (-1,) * 7 + (1,) * 13


def proca_table() -> list[list[int]]:
    """28x28 table of tr(h X_ij X_ij) = -(h_ii + h_jj), zero diagonal."""
    return [[0 if i == j else -(hi + hj) for j, hj in enumerate(H_INTS)]
            for i, hi in enumerate(H_INTS)]


def sector_index_ranges(sector: SectorLabel) -> tuple[range, range]:
    """Global 1-based index ranges (rows, cols) of a (|a|,|b|) sector."""
    a, b = sector
    if not (1 <= a <= 3 and 1 <= b <= 3):
        raise ValueError(f"sector orders must lie in 1..3, got {sector}")
    if a > b:
        a, b = b, a
    ra = range(ORDER_BLOCKS[a][0], ORDER_BLOCKS[a][1] + 1)
    rb = range(ORDER_BLOCKS[b][0], ORDER_BLOCKS[b][1] + 1)
    return ra, rb


def sector_generator_pairs(sector: SectorLabel) -> list[tuple[int, int]]:
    ra, rb = sector_index_ranges(sector)
    if ra == rb:
        return [(i, j) for i in ra for j in rb if i < j]
    return [(i, j) for i in ra for j in rb]


def mode_census(sector: SectorLabel) -> tuple[int, int, int]:
    """(n_positive, n_negative, n_zero) of tr(h X X) over a sector's generators."""
    pos = neg = zero = 0
    for i, j in sector_generator_pairs(sector):
        t = -(H_INTS[i - 1] + H_INTS[j - 1])
        if t > 0:
            pos += 1
        elif t < 0:
            neg += 1
        else:
            zero += 1
    return pos, neg, zero


class IsotropicBasis:
    def __init__(self, sector: SectorLabel, vectors: tuple[LieElement, ...]):
        self.sector, self.vectors = sector, vectors

    def __len__(self):
        return len(self.vectors)

    @functools.cached_property
    def _float_gram(self) -> tuple[list[SparseRows], list[list[float]]]:
        """The vectors sum c_ij X_ij as float matrices, and their float Gram."""
        vecs = [_sparse(e for (i, j), c in v.coeffs.items()
                        for e in (((i - 1, j - 1), float(c)), ((j - 1, i - 1), -float(c))))
                for v in self.vectors]
        return vecs, [[_trace_h(a, b) for b in vecs] for a in vecs]


def gram_matrix(basis: IsotropicBasis) -> list[list]:
    vecs = basis.vectors
    return [[a.trace_form(H_INTS, b) for b in vecs] for a in vecs]


def is_totally_isotropic(basis: IsotropicBasis) -> bool:
    return all(not x for row in gram_matrix(basis) for x in row)


def isotropic_33_basis() -> IsotropicBasis:
    """v_ij = X_{i+8,j+8} + X_{i+15,j+15}, 1 <= i < j <= 7 (21 vectors)."""
    vecs = []
    for i in range(1, 8):
        for j in range(i + 1, 8):
            vecs.append(LieElement(DIM, {(i + 8, j + 8): 1, (i + 15, j + 15): 1}))
    return IsotropicBasis((3, 3), tuple(vecs))


def isotropic_23_basis() -> IsotropicBasis:
    """v_i = X_{i+15,5} + (1/sqrt2) X_{i+8,6} + (1/sqrt2) X_{i+8,7}, 1 <= i <= 7.

    Generator pairs are stored with ascending indices, so X_{i+15,5} enters
    as -X_{5,i+15} etc.; the sign convention is immaterial to the Gram
    matrix and to the hypercharge-invariance check.
    """
    vecs = []
    for i in range(1, 8):
        vecs.append(
            LieElement(
                DIM,
                {
                    (5, i + 15): -1,
                    (6, i + 8): -QS_INV_SQRT2,
                    (7, i + 8): -QS_INV_SQRT2,
                },
            )
        )
    return IsotropicBasis((2, 3), tuple(vecs))


def isotropic_13_basis() -> IsotropicBasis:
    """A maximal (28-vector) totally isotropic set for the (1,3) sector.

    No explicit reference construction is quoted for this sector, so each
    positive-trace generator X_{a,j} (a in 9..15, j in 1..4) is greedily
    paired with a distinct negative-trace generator X_{b,j'} (b in 16..28)
    sharing no ambient index.  verify-all and `isotropic --sector 13` check
    total isotropy.
    """
    positives = [(a, j) for a in range(9, 16) for j in range(1, 5)]
    negatives = [(b, j) for b in range(16, 29) for j in range(1, 5)]
    used: set[tuple[int, int]] = set()
    vecs = []
    for (a, j) in positives:
        partner = next(
            (p for p in negatives if p not in used and p[1] != j and p[0] != a),
            None,
        )
        if partner is None:  # cannot happen: 52 candidates for 28 slots
            raise RuntimeError("greedy pairing exhausted")
        used.add(partner)
        b, jp = partner
        vecs.append(LieElement(DIM, {(j, a): -1, (jp, b): -1}))
    return IsotropicBasis((1, 3), tuple(vecs))


U1Y_GENERATOR_PAIR = (6, 7)  # the residual electromagnetic rotation plane


def u1y_first_order_variation(basis: IsotropicBasis) -> list[list]:
    """d/dtheta of the Gram matrix at theta = 0 under the (6,7) rotation."""
    g = LieElement.generator(DIM, *U1Y_GENERATOR_PAIR)
    vecs = basis.vectors
    brs = [g.bracket(v) for v in vecs]
    n = len(vecs)
    return [
        [brs[i].trace_form(H_INTS, vecs[j]) + vecs[i].trace_form(H_INTS, brs[j])
         for j in range(n)]
        for i in range(n)
    ]


# The float arithmetic order of the residual: a product entry is a chain
# of correctly rounded fused multiply-adds over ascending k from 0.0, over
# the nonzero terms only, and an h-weighted diagonal is summed in numpy's
# pairwise order, the bits of np.sum(h * np.diag(a @ b)) on an FMA kernel.


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once: one exact ratio of ints, divided with correct
    rounding.  An exact zero comes out +0.0, where an FMA unit may give -0.0."""
    (p, q), (r, s), (u, v) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
    return (p * r * v + u * q * s) / (q * s * v)


def _pairwise_sum(xs: list[float]) -> float:
    """numpy's sum of 8 to 128 floats: eight running sums, then the rest in
    sequence; added to 0.0 (so a zero sum is +0.0)."""
    n = len(xs) - len(xs) % 8
    r = xs[:8]
    for i in range(8, n, 8):
        r = list(map(operator.add, r, xs[i:i + 8]))
    tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return 0.0 + functools.reduce(operator.add, xs[n:], tree)


def _sparse(entries) -> SparseRows:
    """Rows from ((row, col), x) pairs, each row's columns sorted once."""
    rows: SparseRows = {}
    for (i, j), x in entries:
        rows.setdefault(i, {})[j] = x
    return {i: dict(sorted(row.items())) for i, row in rows.items()}


def _givens(n: int, i: int, j: int, theta: float) -> SparseRows:
    """exp(theta * X_ij) as a float rotation (1-based plane indices)."""
    c, s = math.cos(theta), math.sin(theta)
    r = {k: {k: 1.0} for k in range(n)}
    r[i - 1], r[j - 1] = {i - 1: c, j - 1: s}, {i - 1: -s, j - 1: c}
    return r


def _product(a: SparseRows, b: SparseRows) -> SparseRows:
    """a b; a's rows are read in column order, so each chain runs over ascending k."""
    out = {}
    for i, row in a.items():
        acc: dict[int, float] = {}
        for k, x in row.items():
            for j, y in b.get(k, {}).items():
                acc[j] = _fma(x, y, acc.get(j, 0.0))
        if acc:
            out[i] = dict(sorted(acc.items()))
    return out


def _trace_h(a: SparseRows, b: SparseRows) -> float:
    """sum_k h_k (a b)_kk, from the diagonal of a b alone."""
    diag = [0.0] * DIM
    for k, row in a.items():
        for j, x in row.items():
            if k in b.get(j, ()):
                diag[k] = _fma(x, b[j][k], diag[k])
    return _pairwise_sum(list(map(operator.mul, H_INTS, diag)))


def u1y_finite_rotation_residual(basis: IsotropicBasis, theta: float) -> float:
    """Max |Gram(r v r^T) - Gram(v)| over all pairs, r the (6,7) rotation by
    theta, in plain floats; the unrotated float Gram is built once per basis."""
    vecs, before = basis._float_gram
    r = _givens(DIM, *U1Y_GENERATOR_PAIR, theta)
    rt = _sparse(((j, i), x) for i, row in r.items() for j, x in row.items())
    rot = [_product(_product(r, v), rt) for v in vecs]
    after = [[_trace_h(a, b) for b in rot] for a in rot]
    return max(0.0, *(abs(x - y) for ra, rb in zip(after, before) for x, y in zip(ra, rb)))


# -- reference-data flags ------------------------------------------------------

SECTOR_23_QUOTED_SIGNATURE = (7, 39)


def flagged_inconsistencies() -> list[str]:
    """Internal inconsistencies in the reference data, reported not fixed: the
    quoted (2,3) signature while it differs from the census's (pos, neg)."""
    census_23 = mode_census((2, 3))
    if census_23[:2] == SECTOR_23_QUOTED_SIGNATURE:
        return []
    return [f"(2,3) block census from h is {census_23} (pos, neg, zero), but the "
            f"quoted non-degenerate signature for the same block is "
            f"{SECTOR_23_QUOTED_SIGNATURE}; the quoted quadratic form's index "
            "ranges match the census, not the quoted signature."]
