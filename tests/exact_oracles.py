"""Dense QuadScalar helpers, and the sums the program never forms, that only
the tests need.

The program computes its structural claims on integer rows; these build
and inspect ExactMatrix oracles for the tests that check it.  leibniz and
rref, Gauss-Jordan elimination over Q, are the independent oracles of the
fraction-free elimination kernel.
"""

import itertools
from fractions import Fraction
from typing import Sequence

from jetgauge.exactnum import ExactMatrix, Solver, qs
from jetgauge.liealg import bracket


def zeros(n: int) -> ExactMatrix:
    return ExactMatrix([[0] * n for _ in range(n)])


def identity(n: int) -> ExactMatrix:
    return ExactMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def trace(m: ExactMatrix):
    return sum((m.rows[i][i] for i in range(m.n)), qs(0))


def is_antisymmetric(m) -> bool:
    """m[i][j] == -m[j][i] for a square matrix given as rows or an ExactMatrix."""
    rows = [list(row) for row in m]
    return all(rows[i][j] == -rows[j][i] for i in range(len(rows)) for j in range(i, len(rows)))


def rational_rows(m: ExactMatrix) -> list[list]:
    """m's entries as Fraction rows, the matrix format of the octonion module."""
    return [[x.as_fraction() for x in row] for row in m.rows]


def add(a: ExactMatrix, b: ExactMatrix, c=1) -> ExactMatrix:
    """A + c B, entrywise."""
    return ExactMatrix([[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)])


def scaled(v, c):
    """c * v for an (Im)Octonion."""
    return type(v)(tuple(c * x for x in v.coeffs))


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """AB - BA."""
    return add(a @ b, b @ a, -1)


def squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * f with f square-free, by trial division; returns (s, f).  n > 0."""
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


def solver_structure(basis) -> list[list[list]]:
    """c[a][b][k] with [X_a, X_b] = sum_k c[a][b][k] X_k, as Fractions, through
    one Solver over the basis' n^2 matrix entries (an [A | I] elimination of
    n^2 rows); a bracket outside the span raises ValueError.  The oracle for
    liealg's Frobenius-Gram kernel."""
    solver = Solver([[x for row in b for x in row] for b in basis])

    def coords(m):
        sol = solver.solve([x for row in m for x in row])
        if sol is None:
            raise ValueError("element does not lie in the span of the basis")
        return sol

    return [[coords(bracket(a, b)) for b in basis] for a in basis]


def leibniz(rows):
    """The determinant of a square matrix as the sum over permutations."""
    n = len(rows)
    total = Fraction(0)
    for p in itertools.permutations(range(n)):
        inversions = sum(p[a] > p[b] for a in range(n) for b in range(a + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term = term * rows[i][p[i]]
        total = total + term
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
        prow = m[r] = [x * inv if x else x for x in m[r]]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = [x - f * y if y else x for x, y in zip(m[i], prow)]
        pivots.append(c)
    return m, pivots, signed
