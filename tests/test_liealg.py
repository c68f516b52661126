import functools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetgauge import liealg
from jetgauge.exactnum import (
    ExactMatrix,
    QuadScalar as qs,
    solve_exact,
    trace_metric,
)
from jetgauge.liealg import (
    LieElement,
    _structure,
    bracket,
    generator_rows,
    killing_adjoint,
    killing_adjoint_in_basis,
    killing_metric_twisted,
    killing_table_in_basis,
    minkowski_eta,
    so13_basis,
    so4_bases,
    so_bracket_closed_form,
    so_generator,
    so_pairs,
)
from jetgauge.octonion import ImOctonion, g2_basis, stabilizer_su3

from exact_oracles import add, commutator, identity, is_antisymmetric, trace, zeros

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def lie_elements(n):
    pairs = so_pairs(n)
    return st.builds(
        lambda cs: LieElement(n, dict(zip(pairs, cs))),
        st.lists(fractions, min_size=len(pairs), max_size=len(pairs)),
    )


def graded(i, j, marked, r):
    """r, or r*sqrt2 where exactly one of the indices i, j is marked.

    Entries over Q and Q*sqrt2 placed this way, as in the (2,3) isotropic
    basis (marked 6 and 7), stay so under products and brackets, so every
    sum the dense oracles form has like radicals.
    """
    return qs(0, r) if (i in marked) != (j in marked) else qs(r)


def sparse_pair(n, data, max_size):
    """Two elements of so(n) over Q and Q*sqrt2, drawn over one small
    support, so they overlap."""
    support = data.draw(
        st.lists(st.sampled_from(so_pairs(n)), min_size=1, max_size=max_size, unique=True)
    )
    marked = data.draw(st.sets(st.integers(1, n)))
    coeffs = st.dictionaries(st.sampled_from(support), fractions, max_size=len(support))
    return tuple(LieElement(n, {(i, j): graded(i, j, marked, r)
                                for (i, j), r in data.draw(coeffs).items()}) for _ in range(2))


def test_generator_shape():
    g = so_generator(2, 1, 2)
    assert g == ExactMatrix([[0, 1], [-1, 0]])
    g4 = so_generator(4, 1, 2)
    assert g4.rows[0][1] == qs(1)
    assert g4.rows[1][0] == qs(-1)


def test_generator_bad_indices():
    for n, i, j in ((4, 2, 2), (4, 3, 2), (4, 0, 1), (4, 1, 5)):
        with pytest.raises(ValueError):
            so_generator(n, i, j)


@given(st.integers(min_value=2, max_value=9))
def test_generator_self_trace(n):
    for i, j in so_pairs(n):
        g = so_generator(n, i, j)
        assert trace(g @ g) == qs(-2)


def test_closed_form_matches_commutator_exhaustively():
    """All generator pairs up to so(8)."""
    for n in range(2, 9):
        pairs = so_pairs(n)
        for ab in pairs:
            for cd in pairs:
                closed = so_bracket_closed_form(n, ab, cd)
                realized = commutator(so_generator(n, *ab), so_generator(n, *cd))
                assert closed.matrix == realized, (n, ab, cd)


def test_closed_form_examples():
    assert not so_bracket_closed_form(4, (1, 2), (3, 4)).coeffs
    # matrix-commutator oracle: [X_12, X_23] = +X_13 in so(3)
    assert commutator(so_generator(3, 1, 2), so_generator(3, 2, 3)) == so_generator(3, 1, 3)
    assert so_bracket_closed_form(3, (1, 2), (2, 3)).coeffs == {(1, 3): 1}
    # [X_67, X_a6] = -X_a7 for a outside {6,7}
    for a in (1, 2, 3):
        got = commutator(so_generator(8, 6, 7), so_generator(8, a, 6))
        assert got == so_generator(8, a, 7).scale(qs(-1))


def test_closed_form_bad_indices():
    with pytest.raises(ValueError):
        so_bracket_closed_form(4, (1, 1), (1, 2))


EPS = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
       (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1}


def _eps_combo(b, fam, i, j):
    out = zeros(4)
    for k in range(1, 4):
        e = EPS.get((i, j, k), 0)
        if e:
            out = add(out, b[f"{fam}{k}"], e)
    return out


def so4_matrices():
    return {name: ExactMatrix(rows) for name, rows in so4_bases().items()}


def test_so4_commutation_relations():
    b = so4_matrices()
    for i in range(1, 4):
        for j in range(1, 4):
            assert commutator(b[f"A{i}"], b[f"A{j}"]) == _eps_combo(b, "A", i, j)
            assert commutator(b[f"B{i}"], b[f"B{j}"]) == _eps_combo(b, "A", i, j)
            assert commutator(b[f"A{i}"], b[f"B{j}"]) == _eps_combo(b, "B", i, j)
            assert commutator(b[f"X{i}"], b[f"X{j}"]) == _eps_combo(b, "X", i, j)
            assert commutator(b[f"Y{i}"], b[f"Y{j}"]) == _eps_combo(b, "Y", i, j)
            assert commutator(b[f"X{i}"], b[f"Y{j}"]) == zeros(4)


def test_so4_split_definition():
    b = so4_matrices()
    half = qs(1) / qs(2)
    for i in range(1, 4):
        assert b[f"X{i}"] == add(b[f"A{i}"], b[f"B{i}"]).scale(half)
        assert b[f"Y{i}"] == add(b[f"A{i}"], b[f"B{i}"], -1).scale(half)


def test_all_so4_base_matrices_antisymmetric():
    for m in so4_bases().values():
        assert is_antisymmetric(m)


@given(lie_elements(4), lie_elements(4))
@settings(max_examples=40)
def test_bracket_antisymmetric_and_closed(x, y):
    br = x.bracket(y)
    assert is_antisymmetric(br.matrix)
    assert br.coeffs == {k: -v for k, v in y.bracket(x).coeffs.items()}


@given(st.integers(min_value=2, max_value=8), st.data())
@settings(max_examples=40, deadline=None)
def test_bracket_matches_realized_commutator(n, data):
    x, y = sparse_pair(n, data, max_size=10)
    assert x.bracket(y).matrix == commutator(x.matrix, y.matrix)


@given(st.integers(min_value=2, max_value=28), st.data())
@settings(max_examples=40, deadline=None)
def test_trace_form_matches_trace_metric(n, data):
    x, y = sparse_pair(n, data, max_size=12)
    # the diagonal of XY is rational, so h may lie on any one radical line
    root = data.draw(st.sampled_from([qs(1), qs(0, 1), qs(0, 0, 1), qs(0, 0, 0, 1)]))
    h = [root * r for r in data.draw(st.lists(fractions, min_size=n, max_size=n))]
    assert x.trace_form(h, y) == trace_metric(h, x.matrix, y.matrix)
    assert y.trace_form(h, x) == x.trace_form(h, y)


def test_trace_form_rejects_mismatched_metric():
    x = LieElement.generator(4, 1, 2)
    with pytest.raises(ValueError):
        x.trace_form([qs(1)] * 3, x)
    with pytest.raises(ValueError):
        x.trace_form([qs(1)] * 4, LieElement.generator(5, 1, 2))


@given(lie_elements(5), lie_elements(5), lie_elements(5))
@settings(max_examples=25)
def test_jacobi_identity(x, y, z):
    total = {}
    for term in (x.bracket(y.bracket(z)), y.bracket(z.bracket(x)), z.bracket(x.bracket(y))):
        for k, v in term.coeffs.items():
            total[k] = total.get(k, 0) + v
    assert not any(total.values())


# -- Killing forms ------------------------------------------------------------


def test_killing_so4_examples():
    x12 = LieElement.generator(4, 1, 2)
    x34 = LieElement.generator(4, 3, 4)
    assert killing_adjoint(x12, x34) == qs(0)
    assert killing_adjoint(x12, x12) == qs(-4)
    assert qs(2) * trace(x12.matrix @ x12.matrix) == qs(-4)


@given(st.integers(min_value=3, max_value=5), st.data())
@settings(max_examples=15, deadline=None)
def test_killing_equals_n_minus_2_trace(n, data):
    x = data.draw(lie_elements(n))
    y = data.draw(lie_elements(n))
    want = qs(n - 2) * trace(x.matrix @ y.matrix)
    assert killing_adjoint(x, y) == want


@functools.cache
def so_table(n):
    """The Killing table of so(n) over its generator rows, through a Solver."""
    return killing_table_in_basis([generator_rows(n, *p) for p in so_pairs(n)])


def integer_elements(n):
    pairs = so_pairs(n)
    return st.builds(lambda cs: LieElement(n, dict(zip(pairs, cs))),
                     st.lists(st.integers(-3, 3), min_size=len(pairs), max_size=len(pairs)))


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=25, deadline=None)
def test_so_killing_is_an_int_without_a_solver(n, data):
    """On integer elements, killing_adjoint is the int contraction of the
    Solver-built table, and it never calls a Solver."""
    x, y = data.draw(integer_elements(n)), data.draw(integer_elements(n))
    table, index = so_table(n), {p: k for k, p in enumerate(so_pairs(n))}
    want = sum((u * v * table[index[p]][index[q]] for p, u in x.coeffs.items()
                for q, v in y.coeffs.items()), 0)

    def no_solver(*args):
        raise AssertionError("killing_adjoint built a Solver")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(liealg, "Solver", no_solver)
        got = killing_adjoint(x, y)
    assert type(got) is int
    assert got == want


def test_so13_twisted_killing_identity():
    """Adjoint-trace Killing form of so(1,3) equals 2 tr(eta X eta Y) on the
    antisymmetric representatives, for all 36 basis pairs."""
    basis = so13_basis()
    pairs = so_pairs(4)
    table = killing_table_in_basis(basis)
    for a, pa in enumerate(pairs):
        for b, pb in enumerate(pairs):
            twisted = killing_metric_twisted(so_generator(4, *pa), so_generator(4, *pb))
            assert table[a][b] == twisted, (pa, pb)
    # boosts have positive norm, rotations negative
    for idx, (i, j) in enumerate(pairs):
        expect = qs(4) if i == 1 else qs(-4)
        assert table[idx][idx] == expect


def test_single_eta_insertion_is_not_the_killing_form():
    """2 tr(eta X Y) with one metric factor fails on boost pairs; the
    double-contraction form is the one certified by the adjoint trace."""
    eta = ExactMatrix(minkowski_eta())
    x = so_generator(4, 1, 2)  # boost representative
    single = qs(2) * trace(eta @ (x @ x))
    basis = so13_basis()
    adjoint = killing_adjoint_in_basis(basis, eta @ x, eta @ x)
    assert single == qs(0)
    assert adjoint == qs(4)


def test_killing_in_basis_rejects_outside_elements():
    basis = so13_basis()
    with pytest.raises(ValueError):
        killing_adjoint_in_basis(basis, identity(4), basis[0])


# -- the structure-constant Killing kernel -------------------------------------

# closed bases the kernel serves, all as integer/Fraction rows (Fraction field):
# so(1,3) and two su(3) stabilizers in g2
RATIONAL_FIX = ImOctonion.make(1, F(1, 2), 0, -3, F(2, 3), 0, 5)
KERNEL_BASES = {
    "so13": (so13_basis, F),
    "su3_e4": (lambda: [e.matrix() for e in stabilizer_su3(ImOctonion.unit(4))], F),
    "su3_rational": (lambda: [e.matrix() for e in stabilizer_su3(RATIONAL_FIX)], F),
}


def flat(m):
    return [x for row in ExactMatrix(m).rows for x in row]


def slow_killing_table(basis):
    """Oracle: expand every commutator [X_a, X_j] over the basis with its own
    solve, assemble ad_a column by column and take tr(ad_a ad_b) as a trace."""
    mats = [ExactMatrix(m) for m in basis]
    columns = [flat(m) for m in mats]

    def ad(m):
        cols = [solve_exact(columns, flat(commutator(m, xj))) for xj in mats]
        return ExactMatrix([list(row) for row in zip(*cols)])

    ads = [ad(m) for m in mats]
    return [[trace(a @ b) for b in ads] for a in ads]


@pytest.mark.parametrize("name", sorted(KERNEL_BASES))
def test_structure_constants_expand_every_commutator(name):
    make, field = KERNEL_BASES[name]
    basis = make()
    mats = [ExactMatrix(m) for m in basis]
    _, c, scale = _structure(basis)
    for a, xa in enumerate(mats):
        for b, xb in enumerate(mats):
            total = zeros(xa.n)
            for k, xk in enumerate(mats):
                total = add(total, xk.scale(scale * c[a][b][k]))
            assert total == commutator(xa, xb), (a, b)
    # an integer basis has integer constants over the Fraction scale
    integral = all(type(x) is int for m in basis for row in m for x in row)
    assert type(scale) is F
    assert all(type(v) is (int if integral else field)
               for a, plane in enumerate(c) for b, row in enumerate(plane) if a != b for v in row)


@pytest.mark.parametrize("name", sorted(KERNEL_BASES))
def test_killing_table_matches_commutator_expansion_oracle(name):
    make, field = KERNEL_BASES[name]
    basis = make()
    table = killing_table_in_basis(basis)
    assert table == slow_killing_table(basis)
    assert all(type(v) is field for row in table for v in row)


def test_killing_adjoint_in_basis_is_bilinear_in_the_table():
    basis = so13_basis()
    slow = slow_killing_table(basis)
    x = [[u + 2 * v for u, v in zip(r0, r3)] for r0, r3 in zip(basis[0], basis[3])]
    got = killing_adjoint_in_basis(basis, x, basis[4])
    assert got == slow[0][4] + qs(2) * slow[3][4]
    assert type(got) is F


def test_bracket_takes_exact_matrices_and_rows():
    x, y = so13_basis()[0], so13_basis()[4]
    want = commutator(ExactMatrix(x), ExactMatrix(y))
    assert ExactMatrix(bracket(x, y)) == want
    assert ExactMatrix(bracket(ExactMatrix(x), ExactMatrix(y))) == want
    a, b = g2_basis()[0], g2_basis()[9]
    assert ExactMatrix(bracket(a, b)) == commutator(ExactMatrix(a), ExactMatrix(b))


# entries of the three exact types bracket meets: ints, Fractions, QuadScalars
# (rational here, times sqrt2 off the diagonal blocks of a marked index set)
ENTRIES = {
    "int": st.integers(min_value=-3, max_value=3),
    "Fraction": fractions,
    "QuadScalar": fractions,
}


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@given(st.integers(min_value=2, max_value=8), st.data())
@settings(max_examples=25, deadline=None)
def test_sparse_bracket_matches_exact_commutator(kind, n, data):
    """The sparse row kernel against the dense ExactMatrix commutator, on
    square rows, mostly zero as the program's are, over each exact type."""
    pool = data.draw(st.lists(ENTRIES[kind], min_size=1, max_size=6))
    entry = st.sampled_from([0, 0] + pool)
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    a, b = data.draw(rows), data.draw(rows)
    if kind == "QuadScalar":
        marked = data.draw(st.sets(st.integers(0, n - 1)))
        a, b = ([[graded(i, j, marked, r) for j, r in enumerate(row)] for i, row in enumerate(m)]
                for m in (a, b))
    assert ExactMatrix(bracket(a, b)) == commutator(ExactMatrix(a), ExactMatrix(b))


@pytest.mark.parametrize("basis", [
    so13_basis()[:2],                 # two boosts: their bracket is a rotation
    [g2_basis()[7], g2_basis()[8]],   # G_1, G_2 alone do not close
], ids=["so13-boosts", "g2-G1-G2"])
def test_kernel_rejects_open_sets(basis):
    with pytest.raises(ValueError):
        _structure(basis)
    with pytest.raises(ValueError):
        killing_table_in_basis(basis)
