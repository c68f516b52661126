import decimal
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetgauge.exactnum import (
    QS_INV_SQRT2,
    ExactMatrix,
    QuadScalar,
    QuadScalar as qs,
    Solver,
    _eliminate,
    _integer_rows,
    nullspace_exact,
    rank_exact,
    solve_exact,
    sqrt_rational,
    trace_metric,
)

from exact_oracles import (
    add,
    commutator,
    identity,
    leibniz,
    rref,
    squarefree_split,
    trace,
    zeros,
)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def times_root(r, m):
    """r*sqrt(m), built from its slot without multiplying."""
    return qs(*(r if root == m else 0 for root in (1, 2, 5, 10)))


def like_quads(m):
    return fractions.map(lambda r: times_root(r, m))


roots = st.sampled_from([1, 2, 5, 10])
quads = roots.flatmap(like_quads)
nonzero_quads = quads.filter(bool)

SQRT = {m: times_root(1, m) for m in (1, 2, 5, 10)}
# sqrt(m1) * sqrt(m2) for m1 <= m2, worked by hand
PRODUCTS = {
    (1, 1): qs(1), (1, 2): qs(0, 1), (1, 5): qs(0, 0, 1), (1, 10): qs(0, 0, 0, 1),
    (2, 2): qs(2), (2, 5): qs(0, 0, 0, 1), (2, 10): qs(0, 0, 2),
    (5, 5): qs(5), (5, 10): qs(0, 5),
    (10, 10): qs(10),
}
INVERSES = {1: qs(1), 2: qs(0, F(1, 2)), 5: qs(0, 0, F(1, 5)), 10: qs(0, 0, 0, F(1, 10))}


def test_basis_products():
    """All 16 products of two roots, in both orders, and with coefficients."""
    for (m1, m2), want in PRODUCTS.items():
        assert SQRT[m1] * SQRT[m2] == want
        assert SQRT[m2] * SQRT[m1] == want
        assert times_root(F(2, 3), m1) * times_root(F(-9, 4), m2) == want * F(-3, 2)


def test_inverse_table():
    for m, want in INVERSES.items():
        assert SQRT[m].inverse() == want
        assert times_root(F(-3, 7), m).inverse() == want * F(-7, 3)
        assert SQRT[m] * want == qs(1)


@pytest.mark.parametrize("build", [
    lambda: qs(1) + qs(0, 1),
    lambda: qs(0, 0, 1) - qs(0, 0, 0, 1),
    lambda: qs(0, 1) + 1,
    lambda: 1 - qs(0, 1),
    lambda: qs(F(1, 2), 0, F(-3, 4)),
], ids=["1+sqrt2", "sqrt5-sqrt10", "sqrt2+int", "int-sqrt2", "constructor"])
def test_two_radicals_cannot_be_built(build):
    with pytest.raises(ValueError, match="two radicals"):
        build()


def test_two_radicals_error_names_the_value():
    with pytest.raises(ValueError, match=r"^1/2 \+ 0\*sqrt2 \+ -3/4\*sqrt5 \+ 0\*sqrt10 "):
        qs(F(1, 2)) + qs(0, 0, F(-3, 4))


def test_inv_sqrt2_times_sqrt10():
    # (1/sqrt2) * sqrt10 = sqrt5: the shared sqrt2 cancels
    assert qs(0, F(1, 2)) * qs(0, 0, 0, 1) == qs(0, 0, 1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        qs(1) / qs(0)


@given(quads, quads, quads, roots.flatmap(lambda m: st.tuples(*[like_quads(m)] * 3)))
def test_ring_axioms(x, y, z, like):
    """Sums are of like radicals only; products of any."""
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    u, v, w = like
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u
    assert (u - v) + v == u
    assert x * (u + v) == x * u + x * v


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


@given(fractions, roots)
def test_to_float_rounds_once(r, m):
    """r*sqrt(m) rounded once, against a 60-digit decimal evaluation."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        want = float(decimal.Decimal(r.numerator) * decimal.Decimal(m).sqrt()
                     / decimal.Decimal(r.denominator))
    assert float(times_root(r, m)) == want


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


# products of small primes, so the trial-division oracle stays short
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
smooth = st.lists(st.sampled_from(SMALL_PRIMES), max_size=24).map(math.prod)
# smooth numbers of at least 64 bits: shifted up to 2^63 <= n when shorter
wide = smooth.map(lambda n: n << max(0, 64 - n.bit_length()))
# a square times a small cofactor hits each root, and misses it as often
square_times = st.builds(lambda s, k: s * s * k, smooth,
                         st.sampled_from([1, 2, 3, 5, 6, 10, 15, 30]))


@given(st.one_of(smooth, wide, square_times), st.one_of(smooth, wide, square_times))
@example(2**64, 1)
@example(2**65, 1)
@example(5 * 2**62, 9)
@example(2**64 - 1, 2**64)  # 3*5*17*257*641*65537*6700417 over 2^64
@example(10 * (2**32 - 1) ** 2, 2**63)
@settings(max_examples=200)
def test_sqrt_rational_matches_trial_division(p, q):
    """None exactly when the square-free part of p*q lies outside {1, 2, 5, 10};
    otherwise sqrt(x) = s*sqrt(f)/den for x = num/den in lowest terms and
    num*den = s^2 f."""
    x = F(p, q)
    s, f = squarefree_split(x.numerator * x.denominator)
    root = sqrt_rational(x)
    if f not in (1, 2, 5, 10):
        assert root is None
    else:
        assert root == times_root(F(s, x.denominator), f)
        assert root * root == qs(x)


def test_str_forms():
    assert str(qs(0)) == "0"
    assert str(qs(F(-1, 2))) == "-1/2"
    assert str(qs(0, 0, F(-3, 4))) == "-3/4*sqrt5"
    assert str(qs(0, 1)) == "sqrt2"
    assert str(qs(0, 0, 0, -1)) == "-sqrt10"


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

# elimination runs over Q; entries come as ints, Fractions and rational
# QuadScalars, and zeros are common, so pivots get skipped
entries = st.one_of(st.just(0), st.integers(-3, 3), fractions, fractions.map(qs))
ZERO = F(0)


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """Rows over Q, some of them combinations of earlier ones."""
    nrows = nrows or draw(st.integers(1, 4))
    ncols = ncols or draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    for i in range(1, nrows):
        if draw(st.integers(0, 2)) == 0:
            c = draw(st.lists(entries, min_size=i, max_size=i))
            rows[i] = [sum((c[k] * rows[k][j] for k in range(i)), ZERO) for j in range(ncols)]
    return draw(st.permutations(rows))


def minor_rank(rows):
    """Largest k with a nonzero k x k minor."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                if leibniz([[rows[i][j] for j in ci] for i in ri]):
                    return k
    return 0


def apply_columns(columns, x):
    return [sum((col[i] * xj for col, xj in zip(columns, x)), ZERO)
            for i in range(len(columns[0]))]


def outcome(solve):
    try:
        return solve()
    except ValueError:
        return "dependent"


@given(st.integers(1, 4).flatmap(lambda n: matrices(n, n)))
@example([[F(0), F(1)], [F(1), F(0)]])  # a row swap flips the sign
@settings(max_examples=60, deadline=None)
def test_det_matches_leibniz(rows):
    assert ExactMatrix(rows).det() == leibniz(rows)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_and_nullspace_match_minors(rows):
    rank = rank_exact(rows)
    null = nullspace_exact(rows)
    assert rank == minor_rank(rows)
    assert rank + len(null) == len(rows[0])
    for v in null:
        assert all(type(x) is F for x in v)
        assert all(not sum((a * b for a, b in zip(row, v)), ZERO) for row in rows)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_the_rational_rref_oracle(rows):
    """The fraction-free kernel against Gauss-Jordan over Q: on the rows
    scaled to ints it stays in ints and gives d times the oracle's reduced
    rows, d its last pivot; the null space and the Solver transform follow."""
    frows = [[QuadScalar.coerce(x).as_fraction() for x in row] for row in rows]
    m, n = len(frows), len(frows[0])
    reduced, pivots, _ = rref(frows, n)
    ints, den = _integer_rows(rows)
    got, got_pivots, values, _ = _eliminate(ints, n)
    d = values[-1] if values else 1
    assert got_pivots == pivots
    assert all(type(x) is int for row in got for x in row)
    assert got == [[d * x for x in row] for row in reduced]

    want = []
    for free in (c for c in range(n) if c not in pivots):
        v = [ZERO] * n
        v[free] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][free]
        want.append(v)
    null = nullspace_exact(rows)
    assert null == want
    assert all(type(x) is F for v in null for x in v)

    # E from [A | I] for the Solver over A's columns.  The rows past the
    # rank span the left null space and are never normalized, so the
    # Solver's, eliminated from [L A | L I], are L times the oracle's
    aug = rref([row + [F(int(i == k)) for k in range(m)] for i, row in enumerate(frows)], n)[0]
    solver = Solver([list(c) for c in zip(*rows)])
    assert [[x * solver.scale for x in row] for row in solver.transform] == [
        [x * (den if r >= len(pivots) else 1) for x in row[n:]] for r, row in enumerate(aug)]


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_reproduces_consistent_targets(rows, data):
    columns = [list(c) for c in zip(*rows)]
    x = data.draw(st.lists(entries, min_size=len(columns), max_size=len(columns)))
    target = apply_columns(columns, x)
    sol = outcome(lambda: solve_exact(columns, target))
    if minor_rank(rows) < len(columns):
        assert sol == "dependent"
    else:
        assert sol == x
        assert all(type(v) is F for v in sol)


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_returns_none_on_inconsistent_targets(rows, data):
    # the appended row is a known combination of the others; a target that
    # breaks the same combination has no solution, whatever the columns' rank
    c = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    rows = rows + [[sum((ck * r[j] for ck, r in zip(c, rows)), ZERO)
                    for j in range(len(rows[0]))]]
    t = data.draw(st.lists(entries, min_size=len(rows) - 1, max_size=len(rows) - 1))
    off = data.draw(entries.filter(bool))
    target = t + [sum((ck * tk for ck, tk in zip(c, t)), ZERO) + off]
    columns = [list(col) for col in zip(*rows)]
    assert solve_exact(columns, target) is None
    assert Solver(columns).solve(target) is None


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_raises_on_consistent_dependent_columns(rows, data):
    columns = [list(c) for c in zip(*rows)]
    c = data.draw(st.lists(entries, min_size=len(columns), max_size=len(columns)))
    columns.append(apply_columns(columns, c))
    x = data.draw(st.lists(entries, min_size=len(columns), max_size=len(columns)))
    target = apply_columns(columns, x)
    with pytest.raises(ValueError):
        solve_exact(columns, target)
    with pytest.raises(ValueError):
        Solver(columns).solve(target)


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_reused_solver_matches_one_shot_solves(rows, data):
    columns = [list(c) for c in zip(*rows)]
    solver = Solver(columns)
    for _ in range(3):
        if data.draw(st.booleans()):
            x = data.draw(st.lists(entries, min_size=len(columns), max_size=len(columns)))
            target = apply_columns(columns, x)
        else:
            target = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        assert outcome(lambda: solver.solve(target)) == outcome(
            lambda: solve_exact(columns, target)
        )


def test_solver_rejects_wrong_length_targets():
    with pytest.raises(ValueError):
        Solver([[F(1), F(0)]]).solve([F(1)])


@pytest.mark.parametrize("target", [[F(1)], [F(1), F(0), F(0)]], ids=["short", "long"])
def test_solve_exact_rejects_wrong_length_targets(target):
    with pytest.raises(ValueError, match="length does not match"):
        solve_exact([[F(1), F(0)]], target)


# an invertible 2 x 2 system in every case but for one irrational entry
IRRATIONAL = {
    "det": lambda: ExactMatrix([[1, 0], [0, QS_INV_SQRT2]]).det(),
    "solve_exact-columns": lambda: solve_exact([[1, 0], [0, QS_INV_SQRT2]], [1, 1]),
    "solve_exact-target": lambda: solve_exact([[1, 0], [0, 1]], [1, qs(0, 0, 1)]),
    "Solver-columns": lambda: Solver([[1, 0], [0, qs(0, 0, 0, 3)]]),
    "Solver-target": lambda: Solver([[1, 0], [0, 1]]).solve([1, QS_INV_SQRT2]),
    "nullspace_exact": lambda: nullspace_exact([[1, qs(0, 0, 1)]]),
    "rank_exact": lambda: rank_exact([[1, qs(0, 0, 1)]]),
}


@pytest.mark.parametrize("call", IRRATIONAL.values(), ids=IRRATIONAL.keys())
def test_elimination_rejects_an_irrational_entry(call):
    with pytest.raises(ValueError, match="is not rational"):
        call()
