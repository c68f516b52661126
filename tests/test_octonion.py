import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetgauge.exactnum import (
    ExactMatrix,
    nullspace_exact,
    QuadScalar as qs,
    rank_exact,
    solve_exact,
)
from jetgauge import verify
from jetgauge.liealg import _structure, bracket, killing_table_in_basis, so13_basis
from jetgauge.octonion import (
    ConsistencyReport,
    G2Element,
    ImOctonion,
    Octonion,
    So7Split,
    ad_basis,
    ad_matrix,
    apply_im,
    cross,
    g2_basis,
    generic_centralizer_dimension,
    inner,
    is_derivation,
    is_negative_definite,
    jacobi_consistency,
    killing_form_table,
    oct_mul,
    so7_decompose,
    stabilizer_su3,
    unit_product,
)

from exact_oracles import (
    add,
    commutator,
    identity,
    leibniz,
    rational_rows,
    scaled,
    solver_structure,
    zeros,
)

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
im_octs = st.builds(lambda cs: ImOctonion(tuple(cs)),
                    st.lists(fractions, min_size=7, max_size=7))
octs = st.builds(lambda cs: Octonion(tuple(cs)),
                 st.lists(fractions, min_size=8, max_size=8))

UPPER = [(i, j) for i in range(7) for j in range(i + 1, 7)]


def antisymmetric(values):
    """The 7x7 antisymmetric rows with upper-triangle entries `values`."""
    m = [[F(0)] * 7 for _ in range(7)]
    for (i, j), v in zip(UPPER, values):
        m[i][j], m[j][i] = v, -v
    return m


antisym_rows = st.lists(fractions, min_size=21, max_size=21).map(antisymmetric)
g2_coeffs = st.lists(fractions, min_size=14, max_size=14)


def e(k):
    return ImOctonion.unit(k)


def exact_sum(coeffs, mats) -> ExactMatrix:
    """sum_k coeffs[k] * mats[k] through ExactMatrix arithmetic."""
    out = zeros(7)
    for c, m in zip(coeffs, mats):
        out = add(out, ExactMatrix(m), c)
    return out


def slow_is_derivation(x: ExactMatrix) -> bool:
    """Oracle: the derivation identity on the 49 unit pairs, with every
    image computed in QuadScalar arithmetic from x's rows and every product
    taken through the component formula `cross` (the fast path reads the
    unit table instead)."""
    def act(v):
        return ImOctonion(tuple(
            sum((a * qs(c) for a, c in zip(row, v.coeffs)), qs(0)).as_fraction() for row in x.rows
        ))

    units = [e(k) for k in range(1, 8)]
    images = [act(u) for u in units]
    return all(
        act(cross(units[i], units[j])) - cross(images[i], units[j])
        == cross(units[i], images[j])
        for i in range(7)
        for j in range(7)
    )


def test_table_examples():
    assert unit_product(1, 2) == (1, 3)
    assert unit_product(4, 5) == (1, 1)
    assert unit_product(6, 6) == (-1, 0)
    # the corrected e3 e7 entry, forced by antisymmetry with e7 e3 = +e4
    assert unit_product(3, 7) == (-1, 4)
    assert unit_product(7, 3) == (1, 4)


def test_table_anticommutation_exhaustive():
    for i in range(1, 8):
        for j in range(1, 8):
            pij = oct_mul(Octonion.unit(i), Octonion.unit(j))
            pji = oct_mul(Octonion.unit(j), Octonion.unit(i))
            if i == j:
                assert pij == Octonion.make(-1)
            else:
                assert pij == -pji


@given(octs, octs)
@settings(max_examples=30)
def test_alternativity(a, b):
    assert oct_mul(oct_mul(a, a), b) == oct_mul(a, oct_mul(a, b))
    assert oct_mul(oct_mul(a, b), b) == oct_mul(a, oct_mul(b, b))


def test_cross_examples():
    assert cross(e(1), e(2)) == e(3)
    assert cross(e(2), e(3)) == e(1)


@given(im_octs)
def test_cross_self_vanishes(a):
    assert cross(a, a).is_zero()


@given(im_octs, im_octs)
@settings(max_examples=60)
def test_cross_equals_imaginary_part_of_product(a, b):
    prod = oct_mul(a.to_octonion(), b.to_octonion())
    assert cross(a, b) == prod.imaginary()
    assert prod.real == -inner(a, b)


def corrupted_cross(a, b):
    """cross with the pre-correction -a5*b7 term in its second component."""
    c = list(cross(a, b).coeffs)
    c[1] -= 2 * a.coeffs[4] * b.coeffs[6]
    return ImOctonion(tuple(c))


def identity_verdict(a, b, cross_product):
    prod = oct_mul(a.to_octonion(), b.to_octonion())
    return cross_product(a, b) == prod.imaginary() and prod.real == -inner(a, b)


@given(im_octs, im_octs)
@settings(max_examples=60)
def test_integral_identity_check_keeps_the_verdict(a, b):
    """Scaling a pair to integers (as verify-all does) gives the verdict of
    the Fraction check, and still rejects the pre-correction cross."""
    ia, ib = a.integral(), b.integral()
    assert all(type(c) is int for c in ia.coeffs + ib.coeffs)
    for cross_product in (cross, corrupted_cross):
        assert identity_verdict(ia, ib, cross_product) == identity_verdict(a, b, cross_product)
    assert identity_verdict(ia, ib, cross)
    assert identity_verdict(ia, ib, corrupted_cross) == (a.coeffs[4] * b.coeffs[6] == 0)


def test_integral_is_a_positive_integer_multiple():
    v = ImOctonion.make(F(1, 2), F(-2, 3), 0, 4, F(5, 6))
    assert v.integral() == scaled(v, 6)
    assert ImOctonion.make().integral().is_zero()


def fraction_draw(rng):
    """The random element verify-all drew before its integer draws: seven
    Fractions n/d, each from rng.randint(-6, 6) then rng.randint(1, 6)."""
    return ImOctonion(tuple(F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(7)))


def test_integer_draws_equal_the_scaled_fraction_draws():
    for seed in range(51):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(20):
            v = verify._random_integral_im(fast)
            assert v == fraction_draw(slow).integral()
            assert all(type(c) is int for c in v.coeffs)
        assert fast.getstate() == slow.getstate()


def test_cross_identity_all_basis_pairs():
    for i in range(1, 8):
        for j in range(1, 8):
            prod = oct_mul(e(i).to_octonion(), e(j).to_octonion())
            assert cross(e(i), e(j)) == prod.imaginary()


def test_ad_matrix_examples():
    assert apply_im(ad_matrix(e(1)), e(2)) == e(3)
    a = ImOctonion.make(F(1, 2), -1, 0, 2)
    assert apply_im(ad_matrix(a), a).is_zero()
    # column 5 of ad(e4) carries the e4-row dependence of the quoted display
    col5 = [ad_matrix(e(4))[i][4] for i in range(7)]
    assert col5 == [1, 0, 0, 0, 0, 0, 0]


@given(im_octs, im_octs)
@settings(max_examples=40)
def test_ad_action_is_cross(a, v):
    assert apply_im(ad_matrix(a), v) == cross(a, v)


def test_g2_display_spot_entries():
    basis = g2_basis()
    a4 = basis[3]
    assert a4[4][0] == 1                # entry (5,1) of A_4
    g4 = basis[10]
    assert g4[2][3] == 0                # entry (3,4) of G_4 carries no d
    col4 = [g4[i][3] for i in range(7)]
    assert col4 == [0] * 7              # G_4 annihilates e4


def test_g2_all_derivations_ad_none():
    for x in g2_basis():
        assert is_derivation(x)
    for k in range(1, 8):
        assert not is_derivation(ad_matrix(e(k)))
    assert is_derivation([[0] * 7 for _ in range(7)])


@given(antisym_rows)
@settings(max_examples=40, deadline=None)
def test_is_derivation_matches_slow_oracle(x):
    assert is_derivation(x) == slow_is_derivation(ExactMatrix(x))


@given(g2_coeffs, im_octs)
@settings(max_examples=40, deadline=None)
def test_g2_combinations_pass_and_ad_parts_fail(coeffs, a):
    x = exact_sum(coeffs, g2_basis())
    assert is_derivation(rational_rows(x)) and slow_is_derivation(x)
    if not a.is_zero():
        y = add(x, ExactMatrix(ad_matrix(a)))
        assert not is_derivation(rational_rows(y)) and not slow_is_derivation(y)


def test_derivations_of_the_table_are_exactly_g2():
    """Der(O) = g2 (Baez 2002, "The Octonions", Bull. AMS 39): the 343 x 21
    integer system "x is a derivation" (49 unit pairs x 7 components,
    unknowns the upper triangle of an antisymmetric x) has rank 7, and its
    14-dimensional null space is the span of g2_basis()."""
    units = [e(k) for k in range(1, 8)]

    def residuals(i, j):
        # x = E_ij - E_ji maps v to v_j e_i - v_i e_j
        def act(v):
            c = [F(0)] * 7
            c[i], c[j] = v.coeffs[j], -v.coeffs[i]
            return ImOctonion(tuple(c))

        return [r for a in units for b in units
                for r in (act(cross(a, b)) - cross(act(a), b) - cross(a, act(b))).coeffs]

    columns = [residuals(i, j) for i, j in UPPER]
    assert all(r.denominator == 1 for col in columns for r in col)
    system = [[int(r) for r in row] for row in zip(*columns)]
    assert len(system) == 343 and len(system[0]) == 21
    assert rank_exact(system) == 7
    null = nullspace_exact(system)
    assert len(null) == 14
    assert all(is_derivation(antisymmetric(v)) for v in null)
    g2 = [[m[i][j] for i, j in UPPER] for m in g2_basis()]
    assert rank_exact(g2) == 14
    assert rank_exact(null + g2) == 14


def test_is_derivation_rejects_bad_input():
    with pytest.raises(ValueError):
        is_derivation(rational_rows(identity(7)))
    with pytest.raises(ValueError):
        is_derivation([[0] * 6 for _ in range(6)])


def test_span_rank():
    split = So7Split(g2_basis(), ad_basis())
    assert split.rank == 21 and split.licensed


def test_split_rank_is_the_stack_rank_without_the_licence():
    stack = g2_basis()
    stack[0] = stack[7]  # G_1 twice, A_1 gone
    split = So7Split(stack, ad_basis())
    assert split.rank == 20 and not split.licensed
    ads = ad_basis()
    ads[0] = plus(ads[0], g2_basis()[0])  # ad_1 + A_1: not orthogonal to g2
    split = So7Split(g2_basis(), ads)
    assert split.rank == 21 and not split.licensed


def plus(a, b):
    return tuple(tuple(x + y for x, y in zip(r, t)) for r, t in zip(a, b))


g2_ad_coeffs = st.tuples(
    st.lists(st.integers(-3, 3), min_size=14, max_size=14) | st.just([0] * 14),
    st.lists(st.integers(-3, 3), min_size=7, max_size=7) | st.just([0] * 7))


@given(g2_ad_coeffs)
@settings(max_examples=80, deadline=None)
def test_projection_verdicts_match_so7_decompose(coeffs):
    """On integer so(7) elements, g2 part, ad part or both: the projection's
    verdicts are so7_decompose's, and the pairings are 6 times its ad part."""
    g2c, adc = coeffs
    m = [[sum(c * b[i][j] for c, b in zip(g2c + adc, g2_basis() + ad_basis())) for j in range(7)]
         for i in range(7)]
    split = So7Split(g2_basis(), ad_basis())
    g2p, adp = so7_decompose(m)
    assert split.has_g2_part(m) == any(g2p.coeffs) == any(g2c)
    assert any(split.ad_pairings(m)) == (not adp.is_zero()) == any(adc)
    assert split.ad_pairings(m) == [6 * c for c in adp.coeffs]


def test_projection_matches_so7_decompose_on_all_brackets():
    split = So7Split(g2_basis(), ad_basis())
    for a, b in itertools.combinations(g2_basis() + ad_basis(), 2):  # 210 brackets
        m = bracket(a, b)
        g2p, adp = so7_decompose(m)
        assert split.has_g2_part(m) == any(g2p.coeffs)
        assert split.ad_pairings(m) == [6 * c for c in adp.coeffs]


def test_so7_decompose_examples():
    basis = g2_basis()
    g2p, adp = so7_decompose(basis[0])
    assert adp.is_zero()
    assert g2p.coeffs[0] == 1 and not any(g2p.coeffs[1:])

    g2p, adp = so7_decompose(ad_matrix(e(3)))
    assert not any(g2p.coeffs)
    assert adp == e(3)

    m = add(ExactMatrix(basis[0]), ExactMatrix(ad_matrix(e(5))), 2)
    g2p, adp = so7_decompose(rational_rows(m))
    assert g2p.coeffs[0] == 1
    assert adp == scaled(e(5), 2)
    assert add(ExactMatrix(g2p.matrix()), ExactMatrix(ad_matrix(adp))) == m


def fraction_decompose(m):
    """Oracle: the g2 + ad coordinates of m from a one-shot Fraction
    elimination, with no stored transform and no common denominator."""
    columns = [[F(b[i][j]) for i, j in UPPER] for b in g2_basis() + ad_basis()]
    return solve_exact(columns, [F(m[i][j]) for i, j in UPPER])


@given(antisym_rows)
@settings(max_examples=60, deadline=None)
def test_so7_decompose_reconstructs_input(m):
    g2p, adp = so7_decompose(m)
    assert add(exact_sum(g2p.coeffs, g2_basis()), ExactMatrix(ad_matrix(adp))) == ExactMatrix(m)
    assert list(g2p.coeffs + adp.coeffs) == fraction_decompose(m)


def test_so7_decompose_matches_fraction_solve_on_all_brackets():
    elements = g2_basis() + ad_basis()
    for a, b in itertools.combinations(elements, 2):  # 210 brackets
        m = bracket(a, b)
        g2p, adp = so7_decompose(m)
        assert list(g2p.coeffs + adp.coeffs) == fraction_decompose(m)


def test_so7_decompose_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        so7_decompose(rational_rows(identity(7)))


@given(antisym_rows, antisym_rows)
@settings(max_examples=30, deadline=None)
def test_bracket_matches_exact_commutator(a, b):
    assert ExactMatrix(bracket(a, b)) == commutator(ExactMatrix(a), ExactMatrix(b))


def test_bracket_sector_relations():
    basis = [ExactMatrix(m) for m in g2_basis()]
    ads = [ExactMatrix(m) for m in ad_basis()]
    # [g2, g2] subset g2
    for a in range(0, 14, 3):
        for b in range(1, 14, 4):
            g2p, adp = so7_decompose(rational_rows(commutator(basis[a], basis[b])))
            assert adp.is_zero()
    # [g2, ad] subset ad
    for a in range(0, 14, 3):
        for k in range(7):
            g2p, adp = so7_decompose(rational_rows(commutator(basis[a], ads[k])))
            assert not any(g2p.coeffs)
    # [ad, ad] has a nonzero g2 component for some pair
    found = False
    for i in range(7):
        for j in range(i + 1, 7):
            g2p, _ = so7_decompose(rational_rows(commutator(ads[i], ads[j])))
            if any(g2p.coeffs):
                found = True
    assert found


# -- stabilizer ---------------------------------------------------------------


def test_stabilizer_of_e4():
    stab = stabilizer_su3(e(4))
    assert len(stab) == 8
    # span must be {A_1..A_7, G_4}: each element has no G_k weight off k=4
    for el in stab:
        for idx in range(7, 14):
            if idx != 10:
                assert el.coeffs[idx] == 0
    # and G_4 direction is present in the span
    assert any(el.coeffs[10] for el in stab)
    for el in stab:
        assert apply_im(el.matrix(), e(4)).is_zero()


def test_stabilizer_scale_invariance():
    a = stabilizer_su3(e(4))
    b = stabilizer_su3(scaled(e(4), 2))
    assert [el.coeffs for el in a] == [el.coeffs for el in b]


def test_stabilizer_zero_rejected():
    with pytest.raises(ValueError):
        stabilizer_su3(ImOctonion.make())


def test_stabilizer_su3_certificate():
    stab = stabilizer_su3(e(4))
    table = _structure([el.matrix() for el in stab])[1]  # closure: no residuals
    assert len(table) == 8
    kf = killing_form_table(stab)
    assert all(kf[i][j] == kf[j][i] for i in range(8) for j in range(8))
    assert is_negative_definite(kf)
    # rank = 2, certified from both sides: a generic centralizer of
    # dimension 2 gives rank <= 2, and A_4, G_4 (disjoint-plane rotations)
    # are two independent commuting stabilizer elements, so rank >= 2
    assert generic_centralizer_dimension(stab) == 2
    basis = g2_basis()
    a4, g4 = basis[3], basis[10]
    assert commutator(ExactMatrix(a4), ExactMatrix(g4)) == zeros(7)
    assert apply_im(a4, e(4)).is_zero() and apply_im(g4, e(4)).is_zero()
    flat = [[a4[i][j] for i in range(7) for j in range(7)],
            [g4[i][j] for i in range(7) for j in range(7)]]
    assert rank_exact(flat) == 2


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n).map(
        lambda e: [[F(e[min(i, j) * n + max(i, j)]) for j in range(n)] for i in range(n)])))
# -K = J + J, J = [[0, 1], [1, 0]]: two row swaps leave positive pivots and an
# even permutation, yet -K is indefinite; a test on the sign alone passes it
@example([[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]])
@example([[-1, -1], [-1, -1]])  # -K semidefinite and singular
@example([[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, -2]])  # negative definite
@settings(max_examples=80, deadline=None)
def test_is_negative_definite_matches_minors(sym):
    """Sylvester's criterion, with -K's leading minors summed over permutations."""
    minors = [leibniz([[-sym[i][j] for j in range(k)] for i in range(k)])
              for k in range(1, len(sym) + 1)]
    assert is_negative_definite(sym) == all(d > 0 for d in minors)


@pytest.mark.parametrize("z", [e(4), ImOctonion.make(1, F(1, 2), 0, -3, F(2, 3), 0, 5)],
                         ids=["e4", "rational"])
def test_integral_stabilizer_keeps_the_certificate(z):
    """verify-all certifies su(3) on the stabilizer basis scaled to integers:
    same span, so the same closure, definiteness and centralizer verdicts."""
    stab = stabilizer_su3(z)
    scaled = [el.integral() for el in stab]
    assert all(type(c) is int for el in scaled for c in el.coeffs)
    kf, kf_scaled = killing_form_table(stab), killing_form_table(scaled)
    assert is_negative_definite(kf) and is_negative_definite(kf_scaled)
    assert generic_centralizer_dimension(scaled) == generic_centralizer_dimension(stab) == 2
    if z == e(4):  # an integral basis: the scaled one is the same basis in ints
        assert kf_scaled == kf


def test_stabilizer_other_base_point():
    stab = stabilizer_su3(e(1))
    assert len(stab) == 8
    kf = killing_form_table(stab)
    assert is_negative_definite(kf)
    assert generic_centralizer_dimension(stab) == 2


def test_subalgebra_structure_rejects_open_sets():
    bad = [G2Element(tuple(F(1 if i == k else 0) for i in range(14)))
           for k in (7, 8)]  # G_1, G_2 alone do not close
    with pytest.raises(ValueError):
        _structure([el.matrix() for el in bad])
    with pytest.raises(ValueError):
        killing_form_table(bad)
    dependent = stabilizer_su3(e(4)) + [stabilizer_su3(e(4))[0]]
    with pytest.raises(ValueError, match="dependent"):
        _structure([el.matrix() for el in dependent])
    with pytest.raises(ValueError, match="dependent"):
        killing_form_table(dependent)


ORACLE_BASES = {
    **{f"su3_e{k}": [el.matrix() for el in stabilizer_su3(e(k))] for k in range(1, 8)},
    "su3_1,0,0,1,0,0,1/2": [el.matrix() for el in
                            stabilizer_su3(ImOctonion.make(1, 0, 0, 1, 0, 0, F(1, 2)))],
    "so13": so13_basis(),
}


@pytest.mark.parametrize("name", sorted(ORACLE_BASES))
def test_gram_kernel_matches_the_solver_oracle(name):
    """The Frobenius-Gram structure constants, times their scale, are the
    [A | I] Solver's, and so are the Killing tables built on them."""
    basis = ORACLE_BASES[name]
    coords, c, scale = _structure(basis)
    oracle = solver_structure(basis)
    assert [[[scale * x for x in row] for row in plane] for plane in c] == oracle
    # K_ab = tr(ad_a ad_b) with (ad_a)[k][i] = c[a][i][k]
    n = len(basis)
    assert killing_table_in_basis(basis) == [
        [sum((ca[i][k] * cb[k][i] for i in range(n) for k in range(n)), F(0)) for cb in oracle]
        for ca in oracle]
    assert [scale * x for x in coords(basis[0])] == [int(k == 0) for k in range(len(basis))]


# -- bracket-action consistency --------------------------------------------------


def test_jacobi_consistency_stabilizer_element():
    a1 = g2_basis()[0]
    for y in (e(2), ImOctonion.make(1, 0, -2, 0, F(1, 3))):
        rep = jacobi_consistency(a1, y, e(4))
        assert isinstance(rep, ConsistencyReport)
        assert rep.chain_holds
        assert rep.residual.is_zero() and rep.consistent


def test_jacobi_consistency_witness_of_failure():
    # G_1 moves e4 (to 2 e5), so it cannot be a gauge direction over e4;
    # Y = Z itself is a workable witness (Y x (X Z) = e4 x 2 e5 = 2 e1 != 0),
    # whereas Y parallel to X Z would make the residual vanish trivially.
    g1 = g2_basis()[7]
    xz = apply_im(g1, e(4))
    assert xz == scaled(e(5), 2)
    rep = jacobi_consistency(g1, e(4), e(4))
    assert rep.chain_holds
    assert rep.residual == scaled(e(1), 2)
    assert not rep.consistent
    degenerate = jacobi_consistency(g1, xz, e(4))
    assert degenerate.residual.is_zero() and not degenerate.consistent


def test_jacobi_consistency_zero_x():
    rep = jacobi_consistency([[0] * 7 for _ in range(7)], e(2), e(4))
    assert rep.ok


@given(im_octs, im_octs)
@settings(max_examples=25)
def test_derivation_chain_for_random_g2_element(y, z):
    x = rational_rows(add(ExactMatrix(g2_basis()[2]), ExactMatrix(g2_basis()[9]), 3))
    rep = jacobi_consistency(x, y, z)
    assert rep.chain_holds
