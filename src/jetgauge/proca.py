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
QuadScalar enters only with the 1/sqrt2 of the (2,3) isotropic basis.
Realized 28x28 matrices contracted with trace_metric are the independent
test oracle.

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
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .exactnum import QS_INV_SQRT2
from .liealg import LieElement

DIM = 28

# block boundaries of the canonical order (1-based, inclusive)
ORDER_BLOCKS = {1: (1, 4), 2: (5, 8), 3: (9, 28)}

SectorLabel = tuple[int, int]


H_INTS = (0, 0, 0, 0, 1, -1, -1, -1) + (-1,) * 7 + (1,) * 13
_H_FLOAT = np.array(H_INTS, dtype=float)


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


@dataclass(frozen=True)
class IsotropicBasis:
    sector: SectorLabel
    vectors: tuple[LieElement, ...]

    def __len__(self):
        return len(self.vectors)

    @functools.cached_property
    def _float_gram(self) -> tuple[list[np.ndarray], list[list]]:
        """The vectors as float 28x28 matrices, and their Gram products."""
        vecs = [_antisymmetric(DIM, {k: float(c) for k, c in v.coeffs.items()})
                for v in self.vectors]
        return vecs, [[np.sum(_H_FLOAT * np.diag(a @ b)) for b in vecs] for a in vecs]


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


def _antisymmetric(n: int, coeffs: Mapping[tuple[int, int], float]) -> np.ndarray:
    """Float matrix sum c_ij X_ij from coefficients over pairs 1 <= i < j <= n."""
    a = np.zeros((n, n))
    for (i, j), v in coeffs.items():
        a[i - 1, j - 1] = v
        a[j - 1, i - 1] = -v
    return a


def _givens(n: int, i: int, j: int, theta: float) -> np.ndarray:
    """exp(theta * X_ij) as a float rotation (1-based plane indices)."""
    r = np.eye(n)
    c, s = math.cos(theta), math.sin(theta)
    r[i - 1, i - 1] = c
    r[j - 1, j - 1] = c
    r[i - 1, j - 1] = s
    r[j - 1, i - 1] = -s
    return r


def u1y_finite_rotation_residual(basis: IsotropicBasis, theta: float) -> float:
    """Max |Gram(conjugated) - Gram| over all pairs, float arithmetic; the
    unrotated float Gram is built once per basis."""
    vecs, before = basis._float_gram
    r = _givens(DIM, *U1Y_GENERATOR_PAIR, theta)
    rot = [r @ v @ r.T for v in vecs]
    after = [[np.sum(_H_FLOAT * np.diag(a @ b)) for b in rot] for a in rot]
    return max(0.0, *(abs(x - y) for ra, rb in zip(after, before) for x, y in zip(ra, rb)))


# -- reference-data flags ------------------------------------------------------

SECTOR_23_QUOTED_SIGNATURE = (7, 39)


def flagged_inconsistencies() -> list[str]:
    """Internal inconsistencies in the reference data, reported not fixed."""
    census_23 = mode_census((2, 3))
    return [
        (
            f"(2,3) block census from h is {census_23} (pos, neg, zero), but the "
            f"quoted non-degenerate signature for the same block is "
            f"{SECTOR_23_QUOTED_SIGNATURE}; the quoted quadratic form's index "
            "ranges match the census, not the quoted signature."
        ),
    ]
