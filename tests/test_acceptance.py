"""Acceptance criteria, one test per criterion, each printing a status line.

Every tolerance is pinned here.  Criterion 10 is split: the mass-prediction
clause keeps its stated 1e-4 tolerance, which the reference formulae cannot
meet (their implied mass ratio is off by 2.3e-4 from the input masses,
independent of unit conventions); that test proves the claim unattainable
and asserts the contradiction as detected, i.e. reported as flagged, as 10a
does for the row-(1,2) GeV entry and chi.  Each detected contradiction is
recorded in DECISIONS.md.

Run with `pytest tests/test_acceptance.py -v -s` to see the status lines.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from jetgauge import electroweak, jetspace, octonion, pheno, proca
from jetgauge.curvature import GaugePotentialField, bianchi_residual
from jetgauge.dynamics import (
    ParticleState,
    integrate_lorentz,
    integrate_wong,
    uniform_electric_f,
    uniform_magnetic_f,
)
from jetgauge.exactnum import ExactMatrix, qs, trace_metric
from jetgauge.liealg import (
    killing_metric_twisted,
    killing_table_in_basis,
    so13_basis,
    so4_bases,
    so_generator,
    so_pairs,
)
from jetgauge.refdata import (
    JET_LISTING_REFERENCE,
    MODE_CENSUS_REFERENCE,
    PROCA_TABLE_REFERENCE,
)

from exact_oracles import add, commutator, zeros


def ok(criterion: str, detail: str = ""):
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}")


def test_criterion_1_jet_signatures():
    assert jetspace.signature(4, 1) == (1, 3)
    assert jetspace.signature(4, 2) == (4, 10)
    assert jetspace.signature(4, 3) == (11, 23)
    basis = jetspace.enumerate_basis(4, 3)
    assert len(basis) == 34
    for (order, timelike), want in JET_LISTING_REFERENCE.items():
        got = [m.label(4) for m in basis.order_block(order)
               if jetspace.is_timelike(m) == timelike]
        assert got == want
    ok("1 jet signatures", "exact, 34-entry listing verbatim")


EPS = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
       (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1}


def test_criterion_2_so4_structure():
    b = {name: ExactMatrix(rows) for name, rows in so4_bases().items()}
    checked = 0
    for fam_l, fam_r, fam_o in (("X", "X", "X"), ("Y", "Y", "Y")):
        for i in range(1, 4):
            for j in range(1, 4):
                want = zeros(4)
                for k in range(1, 4):
                    e = EPS.get((i, j, k), 0)
                    if e:
                        want = add(want, b[f"{fam_o}{k}"], e)
                assert commutator(b[f"{fam_l}{i}"], b[f"{fam_r}{j}"]) == want
                checked += 1
    for i in range(1, 4):
        for j in range(1, 4):
            assert commutator(b[f"X{i}"], b[f"Y{j}"]) == zeros(4)
            checked += 1
    assert checked == 27  # the nine relations, all index combinations
    ok("2 so(4) structure", "exact")


def test_criterion_3_killing_identity():
    basis = so13_basis()
    pairs = so_pairs(4)
    table = killing_table_in_basis(basis)
    for a, pa in enumerate(pairs):
        for b, pb in enumerate(pairs):
            twisted = killing_metric_twisted(
                so_generator(4, *pa), so_generator(4, *pb)
            )
            assert table[a][b] == twisted
    ok("3 Killing identity", "adjoint trace == 2 tr(eta X eta Y), 36 pairs, exact")


def test_criterion_4_proca_table():
    table, h = proca.proca_table(), proca.H_INTS
    assert table == PROCA_TABLE_REFERENCE  # 784 entries
    for i, j in so_pairs(28):  # 378 pairs against two independent oracles
        assert table[i - 1][j - 1] == -(h[i - 1] + h[j - 1])
        g = so_generator(28, i, j)  # realized matrix
        assert table[i - 1][j - 1] == trace_metric(h, g, g)
    ok("4 Proca table", "784 entries + 378-pair shortcut and dense oracles, exact")


def test_criterion_5_mode_censuses():
    for sector, want in MODE_CENSUS_REFERENCE.items():
        assert proca.mode_census(sector) == want
    # the conflicting quoted (7,39) signature is surfaced as a flag
    flags = proca.flagged_inconsistencies()
    assert any("(7, 39)" in f for f in flags)
    assert proca.mode_census((2, 3))[:2] != proca.SECTOR_23_QUOTED_SIGNATURE
    ok("5 mode censuses", "exact; (7,39) conflict flagged")


def test_criterion_6_total_isotropy():
    b33 = proca.isotropic_33_basis()
    b23 = proca.isotropic_23_basis()
    assert len(b33) == 21 and len(b23) == 7
    assert proca.is_totally_isotropic(b33)
    assert proca.is_totally_isotropic(b23)
    first = proca.u1y_first_order_variation(b23)
    assert not any(x for row in first for x in row)  # exact
    for theta in (0.1, 0.7):
        assert proca.u1y_finite_rotation_residual(b23, theta) <= 1e-12
    ok("6 total isotropy", "Grams exactly zero; hypercharge invariance 1e-12")


def test_criterion_7_electroweak_breaking():
    m = electroweak.mass_matrix(1, 2)
    ang = electroweak.weinberg_angle(1, 2)
    assert ang.sin2 == F(1, 5)
    assert ang.sin == qs(0, 0, F(1, 5))
    mixed = electroweak.apply_mixing(ang.cos, ang.sin, m)
    # the quoted diagonal (0,5,4,4) sits inside the conventional outer 1/2
    assert mixed.scale(2) == ExactMatrix.diagonal([0, 5, 4, 4])
    spec = electroweak.mass_spectrum(mixed.scale(2))
    assert spec["ratio_sq"] == F(5, 4)
    assert spec["ratio"] * spec["ratio"] == qs(F(5, 4))
    eigs = electroweak.jacobi_eigenvalues(m.scale(2))
    assert np.max(np.abs(np.array(eigs) - np.array([0.0, 4.0, 4.0, 5.0]))) <= 1e-10
    ok("7 electroweak breaking", "diag(0,5,4,4) exact; Jacobi within 1e-10")


def test_criterion_8_octonion_battery():
    t0 = time.monotonic()
    units = [octonion.ImOctonion.unit(k) for k in range(1, 8)]
    # table antisymmetry / diagonal
    for i in range(1, 8):
        for j in range(1, 8):
            pij = octonion.oct_mul(octonion.Octonion.unit(i), octonion.Octonion.unit(j))
            if i == j:
                assert pij == octonion.Octonion.make(-1)
            else:
                assert pij == -octonion.oct_mul(
                    octonion.Octonion.unit(j), octonion.Octonion.unit(i)
                )
    # cross identity: 49 pairs + 100 random pairs
    import random

    rng = random.Random(0)

    def rand_im():
        return octonion.ImOctonion(
            tuple(F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(7))
        )

    def check_identity(a, b):
        prod = octonion.oct_mul(a.to_octonion(), b.to_octonion())
        assert octonion.cross(a, b) == prod.imaginary()
        assert prod.real == -octonion.inner(a, b)

    for a in units:
        for b in units:
            check_identity(a, b)
    for _ in range(100):
        check_identity(rand_im(), rand_im())
    # ad matrix == cross action
    for a in units:
        for v in units:
            assert octonion.apply_im(octonion.ad_matrix(a), v) == octonion.cross(a, v)
    # derivation certificates
    basis = octonion.g2_basis()
    assert all(octonion.is_derivation(x) for x in basis)
    assert not any(octonion.is_derivation(octonion.ad_matrix(u)) for u in units)
    # stabilizer certificate
    stab = octonion.stabilizer_su3(octonion.ImOctonion.unit(4))
    assert len(stab) == 8
    kf = octonion.killing_form_table(stab)  # raises if brackets leave the span
    assert octonion.is_negative_definite(kf)
    assert octonion.generic_centralizer_dimension(stab) == 2
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    ok("8 octonion battery", f"exact; {elapsed:.2f}s")


def test_criterion_9_dynamics():
    t0 = time.monotonic()
    # cyclotron radius within 0.1% at dlam = T/1000
    q = m = b = 1.0
    v = 0.01
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    f = uniform_magnetic_f([0.0, 0.0, b])
    period = 2.0 * math.pi * m / (q * b)
    state = ParticleState(np.zeros(4), np.array([gamma, gamma * v, 0, 0]), m, q)
    traj = integrate_lorentz(state, lambda x: f, period / 1000.0, 1000)
    x1 = np.asarray(traj.table)[:, 2]
    radius = (x1.max() - x1.min()) / 2.0
    assert abs(radius - m * v / (q * b)) / (m * v / (q * b)) < 1e-3

    # RK4 convergence exponent 4.0 +- 0.3
    errs = []
    for nsteps in (250, 500):
        tr = integrate_lorentz(state, lambda x: f, period / nsteps, nsteps)
        lam, *x = np.asarray(tr.table)[-1, :5]
        exact = np.array(
            [
                gamma * lam,
                gamma * v * math.sin(lam),
                gamma * v * (math.cos(lam) - 1.0),
                0.0,
            ]
        )
        errs.append(np.max(np.abs(x - exact)))
    order = math.log2(errs[0] / errs[1])
    assert 3.7 <= order <= 4.3

    # eta(u,u) drift <= 1e-9 over 1e4 steps (electric field)
    fe = uniform_electric_f([0.5, 0.0, 0.0])
    se = ParticleState(np.zeros(4), np.array([1.0, 0, 0, 0]), 1.0, 1.0)
    te = integrate_lorentz(se, lambda x: fe, 1e-3, 10_000)
    assert te.meta["eta_drift"] <= 1e-9

    # Wong-abelian reduction within 1e-12
    i0 = 0.7
    sw = ParticleState(np.zeros(4), np.array([gamma, gamma * v, 0, 0]), m, q)
    tw = integrate_wong(sw, lambda x: f, i0, 0.01, 1000)
    sl = ParticleState(np.zeros(4), np.array([gamma, gamma * v, 0, 0]), m, q * i0)
    tl = integrate_lorentz(sl, lambda x: f, 0.01, 1000)
    assert np.max(np.abs(np.asarray(tw.table)[:, 1:5] - np.asarray(tl.table)[:, 1:5])) <= 1e-12
    assert np.max(np.abs(np.asarray(tw.table)[:, 5:] - np.asarray(tl.table)[:, 5:])) <= 1e-12

    # Bianchi residual halving ratio ~ 4 (+- 20%)
    gen = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def a_func(x):
        comps = np.array(
            [
                math.sin(x[1] + 0.2) * math.cos(2 * x[2]),
                math.sin(2 * x[0]) * math.cos(x[3] + 0.1),
                math.cos(x[0] + 2 * x[1]),
                math.sin(x[2] + 0.4) * math.cos(x[0]),
            ]
        )
        return comps[:, None, None] * gen

    x0 = np.array([0.3, 0.5, -0.4, 0.2])
    r1 = bianchi_residual(GaugePotentialField(a_func, step=4e-2), x0)
    r2 = bianchi_residual(GaugePotentialField(a_func, step=2e-2), x0)
    assert 3.2 <= r1 / r2 <= 4.8
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    ok("9 dynamics", f"radius 0.1%, order {order:.2f}, drift<=1e-9, {elapsed:.2f}s")


def test_criterion_10_phenomenology_tables_and_consistency():
    k_stated = pheno.Constants.defaults()
    k_tables = pheno.Constants.table_inputs()

    assert abs(pheno.iota(k_stated) - 1.87112e35) / 1.87112e35 < 1e-4
    assert abs(pheno.b_parameter(k_stated) - 3.1514e71) / 3.1514e71 < 5e-4
    assert (
        abs(pheno.b_parameter_geometrical(k_stated) - 1.9498e104) / 1.9498e104 < 5e-4
    )

    # Table rows to five significant figures, with the suite pinned to the
    # tables' own computational inputs; the quoted (1,2) GeV entry is a
    # reference-internal contradiction, detected rather than matched
    # (DECISIONS.md).
    for (a, b), (ref_mp, ref_gev) in pheno.REF["table1"].items():
        mp_units, gev = pheno.mass_scale(k_tables, a, b)
        assert abs(mp_units - ref_mp) / ref_mp < 5e-5, (a, b)
        if (a, b) != (1, 2):
            assert abs(gev - ref_gev) / ref_gev < 5e-5, (a, b)
    row1_mp, row1_gev = pheno.REF["table1"][(1, 2)]
    implied_m_p = pheno.REF["table1"][(2, 2)][1] / pheno.REF["table1"][(2, 2)][0]
    assert abs(row1_mp * implied_m_p - row1_gev) / row1_gev > 1e-3
    table_rep = pheno.table1(k_tables)
    assert any(e.status == "flagged" for e in table_rep.checks if e.actual is not None)
    # the first row is labeled M_11 but keyed by its order columns, (1,2)
    assert any("labeled M_11" in f for f in pheno.flags(table_rep))

    i = pheno.iota(k_stated)
    v_w = math.pi * k_stated.M_W**2 / (2 * k_stated.m_P**2) * i
    v_z = 2 * math.pi * k_stated.M_Z**2 / (5 * k_stated.m_P**2) * i
    assert abs(v_w - 12.7395) / 12.7395 < 1e-3
    assert abs(v_z - 13.1169) / 13.1169 < 1e-3
    assert abs(4 * math.pi - 12.5664) / 12.5664 < 1e-4

    # chi to 1e-5 with the tables' inputs; the stated W mass leaves 2.6e-5
    chi_tables = 2 * k_tables.M_Z / (math.sqrt(5) * k_tables.M_W)
    assert abs(chi_tables - 1.014701) <= 1e-5
    chi_stated = 2 * k_stated.M_Z / (math.sqrt(5) * k_stated.M_W)
    assert abs(chi_stated - 1.014701) > 1e-5  # the vintage mix, detected
    ok("10a phenomenology tables/consistency",
       "table 5 sig figs (computational inputs); chi 1e-5; row-(1,2)-GeV flagged")


def _prediction_bound(k: pheno.Constants) -> float:
    """Least worst-case deviation any common scale can give both predictions.

    The factor m_P / sqrt(iota) multiplies both formulae, so only the ratio
    r = [sqrt(5)/2 * (1+3a)/(1+a)] / (M_Z/M_W) is fixed; a scale c gives
    deviations |x - 1| and |x r - 1| with x = c * M_W(pred) / M_W, and the
    best split, x = 2 / (1 + r), leaves |1 - r| / (1 + r) on both.
    """
    a = k.alpha
    r = (math.sqrt(5.0) / 2.0 * (1.0 + 3.0 * a) / (1.0 + a)) / (k.M_Z / k.M_W)
    return abs(1.0 - r) / (1.0 + r)


def test_criterion_10_predicted_masses():
    """Stated tolerance 1e-4; the reference formulae cannot meet it.

    The implied prediction ratio sqrt(5)/2 * (1+3a)/(1+a) = 1.134233
    differs from M_Z/M_W = 1.134499 by 2.3e-4, so no conversion-factor or
    mass-scale convention brings both masses within 1e-4 simultaneously:
    the best common scale leaves (1-r)/(1+r) = 1.17e-4 (stated inputs) or
    1.05e-4 (table inputs) on both.  With the quoted conversion factor the
    deviations are 4.5e-4 and 2.2e-4.  The test asserts this contradiction
    as detected (DECISIONS.md): the predictions are recomputed here, the
    1e-4 tolerance is kept, the bound proves it unattainable, and both
    entries must be reported as flagged, never as pass or fail.
    """
    k = pheno.Constants.defaults()
    rep = pheno.predicted_masses(k)
    mw = next(e for e in rep.checks if e.name == "M_W predicted")
    mz = next(e for e in rep.checks if e.name == "M_Z predicted")

    # the predictions, recomputed from the formulae with this test's own iota
    ratio = k.e_cgs / k.e_SI
    root_iota = math.sqrt(ratio**2 / k.e_SI * 1.0e7 / ratio)
    mw_want = 2.0 * math.sqrt(2.0) * (1.0 + k.alpha) * k.m_P / root_iota
    mz_want = math.sqrt(10.0) * (1.0 + 3.0 * k.alpha) * k.m_P / root_iota
    assert abs(mw.actual - mw_want) / mw_want <= 1e-12
    assert abs(mz.actual - mz_want) / mz_want <= 1e-12

    # the claim stays at its stated tolerance ...
    assert mw.tolerance == 1e-4 and mz.tolerance == 1e-4
    # ... which no conversion factor can meet, with either set of inputs
    bounds = {
        name: _prediction_bound(c)
        for name, c in (("stated", k), ("tables", pheno.Constants.table_inputs()))
    }
    assert all(b > 1e-4 for b in bounds.values()), bounds

    # so the report flags both entries and fails neither
    assert mw.status == "flagged" and mz.status == "flagged"
    assert not rep.counts["fail"]
    ok(
        "10b predicted masses",
        f"1e-4 claim contradicted, detected and flagged: deviations "
        f"{mw.deviation:.2e} (W), {mz.deviation:.2e} (Z); best common scale "
        f"{bounds['stated']:.3e} (stated), {bounds['tables']:.3e} (tables); "
        "see DECISIONS.md",
    )
