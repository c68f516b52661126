from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetgauge.electroweak import (
    apply_mixing,
    breaking_report,
    jacobi_eigenvalues,
    mass_matrix,
    mass_spectrum,
    mixed_block_closed_form,
    weinberg_angle,
)
from jetgauge.exactnum import ExactMatrix, QuadScalar as qs

from exact_oracles import is_antisymmetric, trace, zeros

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def ew_connection(b0, a0, a1, a2) -> ExactMatrix:
    """The antisymmetric 4x4 connection block, with its 1/2 prefactor.

    Entry (4,1) is fixed to B0 - 2*A0 as antisymmetry forces (the quoted
    display carries a sign slip there, visible only when A0 != 0;
    DECISIONS.md entry C4).
    """
    two = qs(2)
    rows = [
        [qs(0), -two * a2, two * a1, two * a0 - b0],
        [two * a2, qs(0), two * a0 + b0, -two * a1],
        [-two * a1, -(two * a0 + b0), qs(0), -two * a2],
        [b0 - two * a0, two * a1, two * a2, qs(0)],
    ]
    half = qs(1) / qs(2)
    return ExactMatrix(rows).scale(half)


def fields(b0=0, a0=0, a1=0, a2=0):
    return qs(b0), qs(a0), qs(a1), qs(a2)


def test_connection_zero_fields():
    assert ew_connection(*fields()) == zeros(4)


def test_connection_b0_only():
    m = ew_connection(*fields(b0=1))
    half = qs(1) / qs(2)
    assert m.rows[0][3] == -half
    assert m.rows[3][0] == half
    assert m.rows[1][2] == half
    assert m.rows[2][1] == -half
    # no other nonzero entries
    nz = [(i, j) for i in range(4) for j in range(4) if m.rows[i][j]]
    assert sorted(nz) == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_connection_a2_only():
    m = ew_connection(*fields(a2=1))
    assert m.rows[0][1] == qs(-1)
    assert m.rows[1][0] == qs(1)
    assert m.rows[2][3] == qs(-1)
    assert m.rows[3][2] == qs(1)


@given(fractions, fractions, fractions, fractions)
@settings(max_examples=40)
def test_connection_always_antisymmetric(b0, a0, a1, a2):
    assert is_antisymmetric(ew_connection(*fields(b0, a0, a1, a2)))


def test_mass_matrix_reference_couplings():
    m = mass_matrix(1, 2)
    want = ExactMatrix(
        [[1, 2, 0, 0], [2, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]]
    ).scale(qs(1) / qs(2))
    assert m == want


def test_mass_matrix_decoupled_b0():
    m = mass_matrix(0, 3)
    assert m.rows[0] == [qs(0)] * 4
    assert all(m.rows[i][0] == qs(0) for i in range(4))


@given(fractions, fractions)
@settings(max_examples=40)
def test_upper_block_determinant_vanishes(gp, g):
    m = mass_matrix(gp, g)
    block = ExactMatrix([[m.rows[0][0], m.rows[0][1]], [m.rows[1][0], m.rows[1][1]]])
    assert block.det() == qs(0)


def test_weinberg_angle_values():
    ang = weinberg_angle(1, 2)
    assert ang.sin2 == F(1, 5)
    assert ang.sin == qs(0, 0, F(1, 5))   # 1/sqrt5
    assert ang.cos == qs(0, 0, F(2, 5))   # 2/sqrt5
    assert weinberg_angle(1, 1).sin2 == F(1, 2)
    assert weinberg_angle(2, 4).sin2 == F(1, 5)  # scale invariance


def test_weinberg_angle_requires_coupling():
    with pytest.raises(ValueError):
        weinberg_angle(0, 0)


def _pythagorean(t: F):
    """Exact rational point on the unit circle from the tangent-half angle."""
    den = 1 + t * t
    return qs((1 - t * t) / den), qs(2 * t / den)


def test_apply_mixing_identity_angle():
    m = mass_matrix(1, 2)
    assert apply_mixing(qs(1), qs(0), m) == m


def test_apply_mixing_rejects_non_unit_pair():
    with pytest.raises(ValueError):
        apply_mixing(qs(1), qs(1), mass_matrix(1, 2))


def test_exact_diagonalization():
    ang = weinberg_angle(1, 2)
    mixed = apply_mixing(ang.cos, ang.sin, mass_matrix(1, 2))
    assert mixed == ExactMatrix.diagonal([0, 5, 4, 4]).scale(qs(1) / qs(2))
    assert mixed.scale(2) == ExactMatrix.diagonal([0, 5, 4, 4])
    # off-diagonal entry exactly zero at the diagonalizing angle
    assert mixed.rows[0][1] == qs(0)


@given(st.fractions(min_value=-2, max_value=2, max_denominator=5), fractions, fractions)
@settings(max_examples=40)
def test_mixing_preserves_trace_det_and_matches_closed_form(t, gp, g):
    cos, sin = _pythagorean(t)
    m = mass_matrix(gp, g)
    mixed = apply_mixing(cos, sin, m)
    assert trace(mixed) == trace(m)
    assert mixed.det() == m.det()
    block = mixed_block_closed_form(gp, g, cos, sin)
    for i in range(2):
        for j in range(2):
            assert mixed.rows[i][j] == block.rows[i][j]


def doubled_mixed_matrix(gp, g):
    ang = weinberg_angle(gp, g)
    return apply_mixing(ang.cos, ang.sin, mass_matrix(gp, g)).scale(2)


def test_mass_spectrum():
    spec = mass_spectrum(doubled_mixed_matrix(1, 2))
    assert spec["m2_photon"] == qs(0)
    assert spec["m2_z"] == qs(5)
    assert spec["m2_w"] == qs(4)
    assert spec["ratio_sq"] == F(5, 4)
    assert spec["ratio"] * spec["ratio"] == qs(F(5, 4))
    assert spec["ratio_float"] == 1.118033988749895


# Z^2/W^2 = (g^2 + g'^2) / g^2 and Z/W its exact root, read off the matrix
@pytest.mark.parametrize("gp, g, ratio_sq, ratio", [
    (1, 1, F(2), qs(0, 1)),   # sqrt2
    (2, 1, F(5), qs(0, 0, 1)),  # sqrt5
])
def test_mass_spectrum_follows_the_couplings(gp, g, ratio_sq, ratio):
    spec = mass_spectrum(doubled_mixed_matrix(gp, g))
    assert spec["m2_photon"] == qs(0)
    assert spec["m2_z"] == qs(g * g + gp * gp)
    assert spec["m2_w"] == qs(g * g)
    assert spec["ratio_sq"] == ratio_sq
    assert spec["ratio"] == ratio
    assert spec["ratio_float"] == float(ratio)


def test_jacobi_oracle_examples():
    assert np.allclose(jacobi_eigenvalues(np.eye(4)), [1, 1, 1, 1])
    assert np.allclose(jacobi_eigenvalues([[3.0, 0.0], [0.0, 1.0]]), [1, 3])
    eigs = jacobi_eigenvalues(mass_matrix(1, 2).scale(2))
    assert np.max(np.abs(np.array(eigs) - np.array([0.0, 4.0, 4.0, 5.0]))) <= 1e-10


def test_jacobi_random_agrees_with_numpy():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 6):
        a = rng.normal(size=(n, n))
        sym = a + a.T
        assert np.max(np.abs(jacobi_eigenvalues(sym) - np.linalg.eigvalsh(sym))) < 1e-9


def test_float_crosscheck_rejects_asymmetric():
    with pytest.raises(ValueError):
        jacobi_eigenvalues([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        jacobi_eigenvalues([[0.0, 1.0]])


def test_breaking_report_shape():
    rep = breaking_report()
    assert rep["mixing"]["sin2_theta_w"] == "1/5"
    assert rep["spectrum"]["m2_z"] == "5"
    diag = rep["mixed_mass_matrix_display"]
    assert [diag[i][i] for i in range(4)] == ["0", "5", "4", "4"]
    assert rep["weinberg_comparison"]["sin2_theory"] == 0.2
