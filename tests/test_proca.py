import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jetgauge import proca, verify
from jetgauge.exactnum import QS_INV_SQRT2, QuadScalar, QuadScalar as qs, trace_metric
from jetgauge.liealg import LieElement, killing_adjoint, so_generator, so_pairs
from jetgauge.proca import (
    H_INTS,
    U1Y_GENERATOR_PAIR,
    IsotropicBasis,
    SECTOR_23_QUOTED_SIGNATURE,
    flagged_inconsistencies,
    gram_matrix,
    isotropic_13_basis,
    isotropic_23_basis,
    isotropic_33_basis,
    is_totally_isotropic,
    mode_census,
    proca_table,
    sector_generator_pairs,
    u1y_finite_rotation_residual,
    u1y_first_order_variation,
)
from jetgauge.refdata import MODE_CENSUS_REFERENCE, PROCA_TABLE_REFERENCE
from jetgauge.report import FAIL, PASS, Suite

from exact_oracles import commutator


def test_h_metric_entries():
    assert H_INTS == (0,) * 4 + (1, -1, -1, -1) + (-1,) * 7 + (1,) * 13


def test_proca_trace_examples():
    t = proca_table()
    assert t[0][4] == -1
    assert t[8][9] == 2
    assert t[15][16] == -2


def test_proca_trace_shortcut_oracle_all_pairs():
    """tr(h X_ij X_ij) = -(h_ii + h_jj), all 378 unordered pairs, from the
    integer table, from the coefficient formula on LieElements, and from
    trace_metric on the realized 28x28 generator."""
    table = proca_table()
    for i, j in so_pairs(28):
        got = table[i - 1][j - 1]
        assert got == -(H_INTS[i - 1] + H_INTS[j - 1]), (i, j)
        x = LieElement.generator(28, i, j)
        g = so_generator(28, i, j)
        dense = trace_metric(H_INTS, g, g)
        assert got == table[j - 1][i - 1] == x.trace_form(H_INTS, x) == dense, (i, j)


PROCA_ROW = "tr(h X_ij X_ij) == -(h_ii + h_jj), 378 pairs"


def _proca_row_status():
    s = Suite("proca table")
    verify.suite_proca_table(s)
    return {c.name: c.status for c in s.checks}[PROCA_ROW]


def test_verify_proca_row_passes():
    assert _proca_row_status() == PASS


# a sign error on each side of the row: the integer table, then the dense oracle
NEGATED = {
    "proca_table": lambda original: lambda: [[-v for v in row] for row in original()],
    "trace_metric": lambda original: lambda *args: -original(*args),
}


@pytest.mark.parametrize("owner, name", [(proca, "proca_table"), (verify, "trace_metric")])
def test_verify_proca_row_fails_when_a_side_is_broken(monkeypatch, owner, name):
    monkeypatch.setattr(owner, name, NEGATED[name](getattr(owner, name)))
    assert _proca_row_status() == FAIL


def test_proca_table_matches_reference_display():
    assert proca_table() == PROCA_TABLE_REFERENCE


def test_proca_table_spot_rows():
    t = proca_table()
    assert t[0][:4] == [0, 0, 0, 0]
    assert t[4][15:] == [-2] * 13
    assert t[4][5:15] == [0] * 10
    assert all(t[i][i] == 0 for i in range(28))


def test_mode_censuses():
    for sector, want in MODE_CENSUS_REFERENCE.items():
        assert mode_census(sector) == want
    pos, neg, zero = mode_census((3, 3))
    assert pos + neg + zero == math.comb(20, 2)
    # quoted signature for (2,3) disagrees with the census; reported as a flag
    assert mode_census((2, 3))[:2] != SECTOR_23_QUOTED_SIGNATURE
    assert any("(7, 39)" in f for f in flagged_inconsistencies())


def test_census_other_sectors():
    assert mode_census((1, 1)) == (0, 0, 6)
    assert mode_census((1, 2)) == (12, 4, 0)
    assert mode_census((2, 2)) == (3, 0, 3)
    assert mode_census((2, 1)) == mode_census((1, 2))


def test_census_bad_sector():
    with pytest.raises(ValueError):
        mode_census((0, 3))
    with pytest.raises(ValueError):
        mode_census((2, 4))


def test_sector_pair_counts():
    assert len(sector_generator_pairs((3, 3))) == 190
    assert len(sector_generator_pairs((1, 3))) == 80
    assert len(sector_generator_pairs((2, 3))) == 80


# -- isotropic subspaces -------------------------------------------------------


def test_33_basis():
    b = isotropic_33_basis()
    assert len(b) == 21
    assert is_totally_isotropic(b)


def test_33_single_vector_traces():
    b = isotropic_33_basis()
    h = H_INTS
    v12 = b.vectors[0].matrix  # (i,j) = (1,2)
    v13 = b.vectors[1].matrix  # (i,j) = (1,3)
    assert trace_metric(h, v12, v12) == qs(0)
    assert trace_metric(h, v12, v13) == qs(0)


def test_23_basis():
    b = isotropic_23_basis()
    assert len(b) == 7
    assert is_totally_isotropic(b)
    v1 = b.vectors[0].matrix
    v2 = b.vectors[1].matrix
    h = H_INTS
    assert trace_metric(h, v1, v1) == qs(0)  # -2 + 1 + 1
    assert trace_metric(h, v1, v2) == qs(0)


def test_23_vector_coefficients():
    v1 = isotropic_23_basis().vectors[0]
    # v_1 = X_{16,5} + (1/sqrt2) X_{9,6} + (1/sqrt2) X_{9,7}
    assert v1.coeffs[(5, 16)] == qs(-1)
    assert v1.coeffs[(6, 9)] == qs(0, F(-1, 2))
    assert v1.coeffs[(7, 9)] == qs(0, F(-1, 2))


def test_13_basis_greedy():
    b = isotropic_13_basis()
    assert len(b) == 28
    assert is_totally_isotropic(b)
    # no vector reuses an ambient index between its two legs
    for v in b.vectors:
        (j1, a), (j2, bb) = sorted(v.coeffs)
        assert {j1, a}.isdisjoint({j2, bb})


def _dense_gram(mats_a, mats_b):
    h = H_INTS
    return [[trace_metric(h, a, b) for b in mats_b] for a in mats_a]


@pytest.mark.parametrize(
    "make", [isotropic_33_basis, isotropic_23_basis, isotropic_13_basis]
)
def test_gram_matrix_matches_dense_oracle(make):
    basis = make()
    mats = [v.matrix for v in basis.vectors]
    assert gram_matrix(basis) == _dense_gram(mats, mats)


def test_gram_matrix_matches_dense_oracle_off_isotropy():
    # a non-isotropic set, so the comparison covers nonzero entries
    vecs = (
        LieElement(28, {(6, 9): 1, (5, 16): QS_INV_SQRT2}),
        LieElement(28, {(6, 9): qs(0, 0, 1), (7, 9): 1, (9, 10): F(1, 3)}),
    )
    mats = [v.matrix for v in vecs]
    got = gram_matrix(IsotropicBasis((2, 3), vecs))
    assert got == _dense_gram(mats, mats)
    assert any(x for row in got for x in row)


def test_quadscalar_enters_only_with_the_radical():
    """Integral data computes in ints: the table and the (3,3) and (1,3)
    Grams and the so(4) Killing form.  Only the (2,3) basis carries 1/sqrt2, so
    only its self-pairings are QuadScalar, and they are still exactly 0."""
    assert all(type(v) is int for row in proca_table() for v in row)
    for make in (isotropic_33_basis, isotropic_13_basis):
        assert all(type(v) is int for row in gram_matrix(make()) for v in row)
    gens = [LieElement.generator(4, *p) for p in so_pairs(4)]
    assert all(type(killing_adjoint(x, y)) is int for x in gens for y in gens)
    b23 = isotropic_23_basis()
    assert {type(c) for v in b23.vectors for c in v.coeffs.values()} == {int, QuadScalar}
    gram = gram_matrix(b23)
    assert all(type(gram[i][i]) is QuadScalar for i in range(len(b23)))
    assert not any(x for row in gram for x in row)


def test_gram_matrix_shape():
    g = gram_matrix(isotropic_23_basis())
    assert len(g) == 7 and all(len(row) == 7 for row in g)


# -- hypercharge invariance ------------------------------------------------------


def test_u1y_first_order_exact():
    var = u1y_first_order_variation(isotropic_23_basis())
    assert not any(x for row in var for x in row)


def test_u1y_first_order_variation_matches_dense_oracle():
    b = isotropic_23_basis()
    g = so_generator(28, *U1Y_GENERATOR_PAIR)
    mats = [v.matrix for v in b.vectors]
    brs = [commutator(g, m) for m in mats]
    left = _dense_gram(brs, mats)
    right = _dense_gram(mats, brs)
    n = len(mats)
    want = [[left[i][j] + right[i][j] for j in range(n)] for i in range(n)]
    assert u1y_first_order_variation(b) == want
    # the two one-sided terms cancel structurally; on X_69, X_79 each is
    # nonzero, so the coefficient bracket and trace form are compared there
    gen = LieElement.generator(28, *U1Y_GENERATOR_PAIR)
    v, w = LieElement.generator(28, 6, 9), LieElement.generator(28, 7, 9)
    one_sided = gen.bracket(v).trace_form(H_INTS, w)
    assert one_sided == _dense_gram([commutator(g, v.matrix)], [w.matrix])[0][0]
    assert one_sided


def test_u1y_finite_rotation():
    b = isotropic_23_basis()
    assert u1y_finite_rotation_residual(b, 0.0) == 0.0
    assert u1y_finite_rotation_residual(b, 0.1) <= 1e-12
    assert u1y_finite_rotation_residual(b, 0.7) <= 1e-12


def test_u1y_invariance_is_structural():
    # the hypercharge rotation mixes indices 6 and 7, where h carries equal
    # weights, so it commutes with h and preserves every h-trace Gram; the
    # check must therefore also pass for sets other than the (2,3) basis
    from jetgauge.liealg import LieElement
    from jetgauge.proca import IsotropicBasis

    other = IsotropicBasis((2, 3), (LieElement(28, {(6, 9): 1}),))
    assert not any(x for row in u1y_first_order_variation(other) for x in row)
    assert all(u1y_finite_rotation_residual(other, t) <= 1e-12 for t in (0.1, 0.7))
    assert H_INTS[5] == H_INTS[6]  # h_6 == h_7


# -- the plain-float kernel of the finite rotation --------------------------------


def _antisymmetric(n, coeffs):
    """Dense float matrix sum c_ij X_ij from coefficients over pairs 1 <= i < j <= n."""
    a = np.zeros((n, n))
    for (i, j), v in coeffs.items():
        a[i - 1, j - 1] = v
        a[j - 1, i - 1] = -v
    return a


def _givens(n, i, j, theta):
    """exp(theta * X_ij) as a dense float rotation (1-based plane indices)."""
    r = np.eye(n)
    c, s = math.cos(theta), math.sin(theta)
    r[i - 1, i - 1] = c
    r[j - 1, j - 1] = c
    r[i - 1, j - 1] = s
    r[j - 1, i - 1] = -s
    return r


def _dense(rows, n=28):
    return [[rows.get(i, {}).get(j, 0.0) for j in range(n)] for i in range(n)]


def _transposed(rows):
    return proca._sparse(((j, i), x) for i, row in rows.items() for j, x in row.items())


def _fma_product(a, b):
    """Dense a b with proca._fma over every k, the zero terms included."""
    n = len(a)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = proca._fma(a[i][k], b[k][j], out[i][j])
    return out


def _exact_fma(a, b, c):
    return float(F(a) * F(b) + F(c))


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(finite_floats, finite_floats, finite_floats)
@example(0.1, 10.0, -1.0)  # the rounding error of 0.1 * 10
@example(5e-324, 0.5, 0.0)  # half the smallest subnormal: a tie, to even 0.0
@example(-5e-324, 0.5, -0.0)
@example(1.7976931348623157e308, 2.0, -1.7976931348623157e308)  # a*b alone overflows
@example(-0.0, 1.0, -0.0)  # an exact zero: +0.0, where an FMA unit gives -0.0
@example(1e308, 10.0, 0.0)  # the result overflows
@settings(max_examples=300)
def test_fma_is_correctly_rounded(a, b, c):
    try:
        want = _exact_fma(a, b, c)
    except OverflowError:
        with pytest.raises(OverflowError):
            proca._fma(a, b, c)
        return
    assert proca._fma(a, b, c).hex() == want.hex()


@given(finite_floats, finite_floats)
@settings(max_examples=300)
def test_fma_cancellation_leaves_the_product_rounding_error(a, b):
    p = a * b
    assume(math.isfinite(p))
    assert proca._fma(a, b, -p).hex() == _exact_fma(a, b, -p).hex()


@given(st.lists(st.floats(-1e200, 1e200) | st.sampled_from([0.0, -0.0]), min_size=8,
                max_size=127))
@example([-0.0] * 28)
def test_pairwise_sum_is_numpy_sum(xs):
    assert proca._pairwise_sum(xs).hex() == float(np.sum(np.array(xs))).hex()


_N = 9
_cells = st.dictionaries(
    st.tuples(st.integers(0, _N - 1), st.integers(0, _N - 1)),
    st.floats(-1e3, 1e3) | st.sampled_from([1.0, -1.0, 0.0]),
    max_size=25,
)


@given(_cells, _cells)
@settings(max_examples=60, deadline=None)
def test_sparse_product_matches_dense_fma_loop(a, b):
    # skipping the zero terms may change the sign of a zero entry, nothing else
    sa, sb = proca._sparse(a.items()), proca._sparse(b.items())
    prod = proca._product(sa, sb)
    assert _dense(prod, _N) == _fma_product(_dense(sa, _N), _dense(sb, _N))
    assert all(list(row) == sorted(row) for row in prod.values())


def test_rotation_kernel_matches_dense_fma_loop():
    """One rotated (2,3) vector and one h-trace on the 28x28 data: against
    the dense fma loop, and against np.sum over the same diagonal."""
    v, w = isotropic_23_basis()._float_gram[0][:2]
    r = proca._givens(28, *U1Y_GENERATOR_PAIR, 0.7)
    assert _dense(r) == _givens(28, *U1Y_GENERATOR_PAIR, 0.7).tolist()
    rv = proca._product(proca._product(r, v), _transposed(r))
    dense = _fma_product(_fma_product(_dense(r), _dense(v)), _dense(_transposed(r)))
    assert _dense(rv) == dense
    diag = np.diag(np.array(_fma_product(dense, _dense(w))))
    want = float(np.sum(np.array(H_INTS, dtype=float) * diag))
    assert proca._trace_h(rv, w) == want


def _dense_residual(basis, theta):
    """The residual by dense numpy conjugation, equal up to its rounding."""
    h = np.array(H_INTS, dtype=float)
    vecs = [_antisymmetric(28, {k: float(c) for k, c in v.coeffs.items()})
            for v in basis.vectors]
    r = _givens(28, *U1Y_GENERATOR_PAIR, theta)

    def gram(ms):
        return [[np.sum(h * np.diag(a @ b)) for b in ms] for a in ms]

    pairs = zip(gram([r @ v @ r.T for v in vecs]), gram(vecs))
    return max(abs(x - y) for after, before in pairs for x, y in zip(after, before))


@pytest.mark.parametrize("theta", [0.0, 0.1, 0.7, 1.3, -2.5])
def test_residual_matches_dense_conjugation(theta):
    off_isotropy = IsotropicBasis((2, 3), (
        LieElement(28, {(6, 9): 1, (5, 16): QS_INV_SQRT2}),
        LieElement(28, {(6, 9): qs(0, 0, 1), (7, 9): 1, (9, 10): F(1, 3)}),
    ))
    for basis in (isotropic_23_basis(), off_isotropy):
        got = u1y_finite_rotation_residual(basis, theta)
        assert abs(got - _dense_residual(basis, theta)) <= 1e-15


def test_residual_bits_are_pinned():
    # verify-all prints this rounding noise, so the bits must not move
    b = isotropic_23_basis()
    got = [u1y_finite_rotation_residual(b, t) for t in (0.0, 0.1, 0.7)]
    assert got == [0.0, 1.6653345369377348e-16, 4.518954654919582e-16]


# -- rotated quadratic form ------------------------------------------------------

# local (3,3) indices 1..20 map to global 9..28; local h is (-1)^7 (+1)^13,
# so the dimensionless value (1/2) tr(h A A) weighs pairs inside 1..7 by +1,
# pairs inside 8..20 by -1, and mixed pairs by 0.
_LOCAL_DIM = 20
_LOCAL_H = np.array([-1.0] * 7 + [1.0] * 13)


def _local_weight(i: int, j: int) -> float:
    return -(_LOCAL_H[i - 1] + _LOCAL_H[j - 1]) / 2.0


def rotated_proca_value(coeffs, theta: float) -> float:
    """Value of the (3,3) quadratic form after conjugating by exp(-theta X_78).

    Coefficients index the local (3,3) generators (1 <= i < j <= 20, split
    7 + 13).  Computed by direct conjugation of the realized matrix: the
    oracle of rotated_proca_closed_form.
    """
    a = _antisymmetric(_LOCAL_DIM, coeffs)
    r = _givens(_LOCAL_DIM, 7, 8, -theta)
    ap = r @ a @ r.T
    return 0.5 * float(np.sum(_LOCAL_H * np.diag(ap @ ap)))


def rotated_proca_closed_form(coeffs, theta: float) -> float:
    """Closed form of the rotated (3,3) value.

    The quoted closed form for this rotation drops the theta-independent
    cross-block contribution of the pairs touching indices 7 and 8 and
    carries factor/sign slips in the brackets; the full expression used
    here is rederived from the coefficient rotation and is checked against
    direct conjugation (DECISIONS.md entry C5).  The bracketed
    cos(2 theta) / sin(2 theta) structure of the quoted form is preserved.
    """

    def get(i, j):
        if i < j:
            return coeffs.get((i, j), 0.0)
        return -coeffs.get((j, i), 0.0)

    const = 0.0
    for (i, j), v in coeffs.items():
        if 7 in (i, j) or 8 in (i, j):
            continue
        const += _local_weight(i, j) * v * v
    cos_bracket = 0.0
    sin_bracket = 0.0
    for k in list(range(1, 7)) + list(range(9, _LOCAL_DIM + 1)):
        a7, a8 = get(k, 7), get(k, 8)
        const += (a7 * a7 + a8 * a8) / 2.0 * (1.0 if k <= 6 else -1.0)
        cos_bracket += (a7 * a7 - a8 * a8) / 2.0
        sin_bracket += a7 * a8
    return const + cos_bracket * math.cos(2 * theta) - sin_bracket * math.sin(2 * theta)


def _random_coeffs(rng, n=12):
    pairs = [(i, j) for i in range(1, 21) for j in range(i + 1, 21)]
    chosen = rng.sample(pairs, n)
    return {p: rng.uniform(-2, 2) for p in chosen}


def test_rotated_value_theta_zero_is_block_sum():
    rng = random.Random(7)
    coeffs = _random_coeffs(rng)
    want = sum(
        v * v for (i, j), v in coeffs.items() if j <= 7
    ) - sum(v * v for (i, j), v in coeffs.items() if i >= 8)
    assert abs(rotated_proca_value(coeffs, 0.0) - want) < 1e-12


def test_rotated_value_single_coefficient():
    # a_{7,9} = 1 only: the value is (cos(2 theta) - 1)/2 once rotated
    coeffs = {(7, 9): 1.0}
    for theta in (0.0, math.pi / 7, math.pi / 4, 1.1):
        got = rotated_proca_value(coeffs, theta)
        assert abs(got - (math.cos(2 * theta) - 1.0) / 2.0) < 1e-12
        assert abs(got - rotated_proca_closed_form(coeffs, theta)) < 1e-12


def test_rotated_value_matches_closed_form():
    rng = random.Random(3)
    for _ in range(10):
        coeffs = _random_coeffs(rng)
        for theta in (0.0, 0.3, math.pi / 4, 2.0):
            direct = rotated_proca_value(coeffs, theta)
            closed = rotated_proca_closed_form(coeffs, theta)
            assert abs(direct - closed) <= 1e-10


def test_rotation_invariant_configurations():
    # both brackets vanish -> value independent of theta
    coeffs = {(1, 2): 1.0, (9, 10): 0.5, (3, 4): -0.25}
    vals = [rotated_proca_value(coeffs, t) for t in (0.0, 0.2, 0.9, 1.7, 3.0)]
    assert max(vals) - min(vals) < 1e-12
