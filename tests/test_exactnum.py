import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetgauge.exactnum import (
    QS_INV_SQRT2,
    QS_SQRT2,
    QS_SQRT5,
    ExactMatrix,
    QuadScalar,
    Solver,
    nullspace_exact,
    qs,
    rank_exact,
    solve_exact,
    sqrt_rational,
    trace_metric,
)

from exact_oracles import add, commutator, identity, trace, zeros

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
quads = st.builds(QuadScalar, fractions, fractions, fractions, fractions)
nonzero_quads = quads.filter(bool)


def test_basis_products():
    assert qs(0, 1) * qs(0, 1) == qs(2)
    assert qs(0, 0, 1) * qs(0, 0, 1) == qs(5)
    assert qs(0, 0, 0, 1) * qs(0, 0, 0, 1) == qs(10)
    assert qs(0, 1) * qs(0, 0, 1) == qs(0, 0, 0, 1)
    assert qs(0, 1) * qs(0, 0, 0, 1) == qs(0, 0, 2)
    assert qs(0, 0, 1) * qs(0, 0, 0, 1) == qs(0, 5)


def test_difference_of_squares():
    assert (qs(1) + qs(0, 0, 1)) * (qs(1) - qs(0, 0, 1)) == qs(-4)


def test_inv_sqrt2_times_sqrt10():
    # (1/sqrt2) * sqrt10 = sqrt5, expanded in the fixed basis
    assert qs(0, F(1, 2)) * qs(0, 0, 0, 1) == qs(0, 0, 1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        qs(1) / qs(0)


@given(quads, quads, quads)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


@given(nonzero_quads)
def test_multiplicative_inverse(x):
    assert x * x.inverse() == qs(1)


@given(quads, nonzero_quads)
def test_division_roundtrip(x, y):
    assert (x / y) * y == x


def test_to_float():
    assert float(qs(F(1, 2))) == 0.5
    assert float(qs(0)) == 0.0
    assert float(qs(0, 0, F(1, 5))) == 0.4472135954999579


def test_sqrt_rational():
    assert sqrt_rational(F(0)) == qs(0)
    assert sqrt_rational(F(1, 5)) == qs(0, 0, F(1, 5))
    assert sqrt_rational(F(4, 5)) == qs(0, 0, F(2, 5))
    assert sqrt_rational(F(1, 2)) == qs(0, F(1, 2))
    assert sqrt_rational(F(9, 4)) == qs(F(3, 2))
    assert sqrt_rational(F(3)) is None
    with pytest.raises(ValueError):
        sqrt_rational(F(-1))


@given(
    st.fractions(min_value=F(1, 20), max_value=50, max_denominator=20),
    st.sampled_from([1, 2, 5, 10]),
)
def test_sqrt_rational_roundtrip(s, k):
    root = sqrt_rational(s * s * k)
    assert root is not None
    assert root * root == qs(s * s * k)


def test_str_forms():
    assert str(qs(0)) == "0"
    assert str(qs(F(1, 2), 0, F(-3, 4))) == "1/2 - 3/4*sqrt5"
    assert str(qs(0, 1)) == "sqrt2"


# -- matrices -------------------------------------------------------------


def so2_x12():
    return ExactMatrix([[0, 1], [-1, 0]])


def test_identity_product():
    a = ExactMatrix([[1, 2], [3, F(4, 7)]])
    assert identity(2) @ a == a
    assert zeros(2) @ a == zeros(2)


def test_x12_squared_is_minus_identity():
    x = so2_x12()
    assert x @ x == identity(2).scale(qs(-1))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        identity(2) @ identity(3)
    with pytest.raises(ValueError):
        trace_metric([qs(1)] * 3, identity(2), identity(2))


small_mats = st.builds(
    lambda rows: ExactMatrix(rows),
    st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=3, max_size=3),
)


@given(small_mats, small_mats)
@settings(max_examples=50)
def test_commutator_antisymmetry(a, b):
    assert commutator(a, b) == commutator(b, a).scale(-1)


@given(small_mats)
def test_commutator_with_self_vanishes(a):
    assert commutator(a, a) == zeros(3)


def test_trace_metric_examples():
    x = so2_x12()
    assert trace_metric([qs(1), qs(1)], x, x) == qs(-2)
    h = [qs(0), qs(1)]
    a = ExactMatrix([[5, 0], [0, 0]])  # support only on the zero row/col
    assert trace_metric(h, a, a) == qs(0)


@given(small_mats, small_mats, st.lists(fractions, min_size=3, max_size=3))
@settings(max_examples=50)
def test_trace_metric_cyclic_consistency(a, b, hdiag):
    # tr(h A B) computed directly equals tr(B h A) assembled the other way
    h = [qs(v) for v in hdiag]
    direct = trace_metric(h, a, b)
    hmat = ExactMatrix.diagonal(h)
    assert direct == trace((b @ hmat) @ a)


@given(small_mats, small_mats, small_mats, st.lists(fractions, min_size=3, max_size=3))
@settings(max_examples=30)
def test_trace_metric_bilinear(a, b, c, hdiag):
    h = [qs(v) for v in hdiag]
    assert trace_metric(h, add(a, b), c) == trace_metric(h, a, c) + trace_metric(h, b, c)
    assert trace_metric(h, a, add(b, c)) == trace_metric(h, a, b) + trace_metric(h, a, c)


def test_det_and_solve():
    m = ExactMatrix([[2, 1, 0], [0, 3, 1], [1, 0, 1]])
    assert m.det() == qs(7)
    cols = [[m.rows[i][j] for i in range(3)] for j in range(3)]
    sol = solve_exact(cols, [qs(1), qs(2), qs(3)])
    recon = [
        sum((cols[j][i] * sol[j] for j in range(3)), qs(0)) for i in range(3)
    ]
    assert recon == [qs(1), qs(2), qs(3)]


def test_solve_inconsistent_returns_none():
    cols = [[qs(1), qs(0), qs(0)]]
    assert solve_exact(cols, [qs(0), qs(1), qs(0)]) is None


def test_nullspace_and_rank():
    rows = [[qs(1), qs(2), qs(3)], [qs(2), qs(4), qs(6)]]
    assert rank_exact(rows) == 1
    ns = nullspace_exact(rows)
    assert len(ns) == 2
    for v in ns:
        for row in rows:
            assert sum((a * b for a, b in zip(row, v)), qs(0)) == qs(0)


# -- the elimination kernel against oracles that do not use it --------------

# sparse and irrational entries are both common, so pivots get skipped and
# the QuadScalar field is exercised beyond its rational fast path
quad_entries = st.one_of(
    st.sampled_from([0, 0, 1, -1, QS_SQRT2, QS_INV_SQRT2, QS_SQRT5, qs(1, 1, 1, 1)]).map(
        QuadScalar.coerce
    ),
    quads,
)
frac_entries = st.one_of(st.just(F(0)), fractions)
FIELDS = {"quad": (quad_entries, qs(0)), "fraction": (frac_entries, F(0))}


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """(rows, field zero, entries) with some rows combinations of earlier ones."""
    entries, zero = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    nrows = nrows or draw(st.integers(1, 4))
    ncols = ncols or draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    for i in range(1, nrows):
        if draw(st.integers(0, 2)) == 0:
            c = draw(st.lists(entries, min_size=i, max_size=i))
            rows[i] = [sum((c[k] * rows[k][j] for k in range(i)), zero) for j in range(ncols)]
    return draw(st.permutations(rows)), zero, entries


def leibniz(rows, zero):
    n = len(rows)
    total = zero
    for p in itertools.permutations(range(n)):
        inversions = sum(p[a] > p[b] for a in range(n) for b in range(a + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term = term * rows[i][p[i]]
        total = total + term
    return total


def minor_rank(rows, zero):
    """Largest k with a nonzero k x k minor."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                if leibniz([[rows[i][j] for j in ci] for i in ri], zero):
                    return k
    return 0


def apply_columns(columns, x, zero):
    return [sum((col[i] * xj for col, xj in zip(columns, x)), zero)
            for i in range(len(columns[0]))]


def outcome(solve):
    try:
        return solve()
    except ValueError:
        return "dependent"


@given(st.integers(1, 4).flatmap(lambda n: matrices(n, n)))
@example(([[F(0), F(1)], [F(1), F(0)]], F(0), None))  # a row swap flips the sign
@settings(max_examples=60, deadline=None)
def test_det_matches_leibniz(mat):
    rows, zero, _ = mat
    assert ExactMatrix(rows).det() == leibniz(rows, zero)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_and_nullspace_match_minors(mat):
    rows, zero, _ = mat
    rank = rank_exact(rows)
    null = nullspace_exact(rows)
    assert rank == minor_rank(rows, zero)
    assert rank + len(null) == len(rows[0])
    for v in null:
        assert all(type(x) is type(zero) for x in v)
        assert all(not sum((a * b for a, b in zip(row, v)), zero) for row in rows)


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_reproduces_consistent_targets(mat, data):
    rows, zero, entries = mat
    columns = [list(c) for c in zip(*rows)]
    x = data.draw(st.lists(entries, min_size=len(columns), max_size=len(columns)))
    target = apply_columns(columns, x, zero)
    sol = outcome(lambda: solve_exact(columns, target))
    if minor_rank(rows, zero) < len(columns):
        assert sol == "dependent"
    else:
        assert sol == x
        assert all(type(v) is type(zero) for v in sol)


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_returns_none_on_inconsistent_targets(mat, data):
    # the appended row is a known combination of the others; a target that
    # breaks the same combination has no solution, whatever the columns' rank
    rows, zero, entries = mat
    c = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    rows = rows + [[sum((ck * r[j] for ck, r in zip(c, rows)), zero)
                    for j in range(len(rows[0]))]]
    t = data.draw(st.lists(entries, min_size=len(rows) - 1, max_size=len(rows) - 1))
    off = data.draw(entries.filter(bool))
    target = t + [sum((ck * tk for ck, tk in zip(c, t)), zero) + off]
    columns = [list(col) for col in zip(*rows)]
    assert solve_exact(columns, target) is None
    assert Solver(columns).solve(target) is None


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_raises_on_consistent_dependent_columns(mat, data):
    rows, zero, entries = mat
    columns = [list(c) for c in zip(*rows)]
    c = data.draw(st.lists(entries, min_size=len(columns), max_size=len(columns)))
    columns.append(apply_columns(columns, c, zero))
    x = data.draw(st.lists(entries, min_size=len(columns), max_size=len(columns)))
    target = apply_columns(columns, x, zero)
    with pytest.raises(ValueError):
        solve_exact(columns, target)
    with pytest.raises(ValueError):
        Solver(columns).solve(target)


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_reused_solver_matches_one_shot_solves(mat, data):
    rows, zero, entries = mat
    columns = [list(c) for c in zip(*rows)]
    solver = Solver(columns)
    for _ in range(3):
        if data.draw(st.booleans()):
            x = data.draw(st.lists(entries, min_size=len(columns), max_size=len(columns)))
            target = apply_columns(columns, x, zero)
        else:
            target = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        assert outcome(lambda: solver.solve(target)) == outcome(
            lambda: solve_exact(columns, target)
        )


def test_solver_rejects_wrong_length_targets():
    with pytest.raises(ValueError):
        Solver([[F(1), F(0)]]).solve([F(1)])
