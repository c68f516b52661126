"""The exact verification suites behind `verify-all`.

Each suite re-derives a pinned reference display or identity from scratch
and records expected-vs-actual rows.  Flagged rows mark internal
inconsistencies of the reference data; they are reported, never
reconciled, and do not fail a run.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from . import electroweak, jetspace, octonion, pheno, proca
from .exactnum import ExactMatrix, QuadScalar, trace_metric
from .liealg import (LieElement, bracket, generator_rows, killing_adjoint, killing_metric_twisted,
                     killing_table_in_basis, so4_bases, so13_basis, so_pairs)
from .octonion import ImOctonion, cross, g2_basis, is_derivation, oct_mul, Octonion
from .refdata import JET_LISTING_REFERENCE, MODE_CENSUS_REFERENCE, PROCA_TABLE_REFERENCE
from .report import Check, Suite, VerificationReport


def suite_signatures(s: Suite) -> None:
    for (axes, order), want in (((4, 1), (1, 3)), ((4, 2), (4, 10)), ((4, 3), (11, 23))):
        got = jetspace.signature(axes, order)
        s.check(f"signature({axes},{order})", got == want, want, got)
    basis = jetspace.enumerate_basis(4, 3)
    for (order, timelike), want in JET_LISTING_REFERENCE.items():
        got = [m.label(4) for m in basis
               if m.degree == order and jetspace.is_timelike(m) == timelike]
        tag = "timelike" if timelike else "spacelike"
        s.check(f"order-{order} {tag} listing", got == want, want, got)
    per_order = jetspace.signature_per_order(4, 3)
    s.check("per-order counts", per_order == [(1, 3), (3, 7), (7, 13)],
            [(1, 3), (3, 7), (7, 13)], per_order)


_EPS = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
        (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1}


def _eps_rows(b, fam: str, i: int, j: int) -> tuple[tuple, ...]:
    """sum_k eps_ijk b[fam k] as rows: one term, or zero rows when i == j."""
    k = 6 - i - j
    e = _EPS.get((i, j, k), 0)
    return tuple(tuple(e * v for v in row) for row in b[f"{fam}{k}"]) if e else ((0,) * 4,) * 4


def suite_so4(s: Suite) -> None:
    b = so4_bases()
    fams = (("A", "A", "A"), ("B", "B", "A"), ("A", "B", "B"),
            ("X", "X", "X"), ("Y", "Y", "Y"))
    for left, right, out in fams:
        ok = all(bracket(b[f"{left}{i}"], b[f"{right}{j}"]) == _eps_rows(b, out, i, j)
                 for i in range(1, 4) for j in range(1, 4))
        s.check(f"[{left}_i,{right}_j] = eps_ijk {out}_k", ok)
    ok = all(not any(any(row) for row in bracket(b[f"X{i}"], b[f"Y{j}"]))
             for i in range(1, 4) for j in range(1, 4))
    s.check("[X_i, Y_j] = 0", ok)


def suite_killing(s: Suite) -> None:
    pairs = so_pairs(4)
    gens = [generator_rows(4, *p) for p in pairs]
    # the oracle 2 tr(XY) is the trace of the realized product
    ok_so4 = all(
        killing_adjoint(LieElement.generator(4, *pa), LieElement.generator(4, *pb))
        == 2 * sum(xa[i][k] * xb[k][i] for i in range(4) for k in range(4))
        for pa, xa in zip(pairs, gens) for pb, xb in zip(pairs, gens)
    )
    s.check("so(4): tr(ad ad) == 2 tr(XY), 36 pairs", ok_so4)

    table = killing_table_in_basis(so13_basis())
    ok_13 = all(table[a][b] == killing_metric_twisted(xa, xb)
                for a, xa in enumerate(gens) for b, xb in enumerate(gens))
    s.check("so(1,3): tr(ad ad) == 2 tr(eta X eta Y), 36 pairs", ok_13)


def suite_proca_table(s: Suite) -> None:
    table = proca.proca_table()
    s.check("28x28 table matches the quoted display entry-for-entry",
            table == PROCA_TABLE_REFERENCE)
    # X_ij lives on rows and columns {i, j}, so its trace against h is the
    # dense trace of X_12 in so(2) against (h_ii, h_jj): an oracle that does
    # not share the formula -(h_ii + h_jj) behind the table
    h = proca.H_INTS
    x12 = generator_rows(2, 1, 2)
    ok = all(table[i - 1][j - 1] == trace_metric([h[i - 1], h[j - 1]], x12, x12)
             for i, j in so_pairs(28))
    s.check("tr(h X_ij X_ij) == -(h_ii + h_jj), 378 pairs", ok)


def suite_censuses(s: Suite) -> None:
    for sector, want in MODE_CENSUS_REFERENCE.items():
        got = proca.mode_census(sector)
        s.check(f"census {sector}", got == want, want, got)
    pos, neg, zero = proca.mode_census((3, 3))
    s.check("(3,3) census sums to C(20,2)", pos + neg + zero == 190, 190,
            pos + neg + zero)
    # the quoted non-degenerate signature agrees with the census when it is
    # (positive, negative); otherwise the row is flagged, never failed
    quoted, census = proca.SECTOR_23_QUOTED_SIGNATURE, proca.mode_census((2, 3))
    flags = proca.flagged_inconsistencies()
    for msg in flags:
        s.flag("(2,3) quoted signature", msg, quoted, census)
    if not flags:
        s.check("(2,3) quoted signature", True, quoted, census)


def suite_isotropy(s: Suite) -> None:
    b33 = proca.isotropic_33_basis()
    b23 = proca.isotropic_23_basis()
    b13 = proca.isotropic_13_basis()
    s.check("(3,3) basis size = 21 = min(21,78)", len(b33) == 21, 21, len(b33))
    s.check("(3,3) Gram identically zero", proca.is_totally_isotropic(b33))
    s.check("(2,3) basis size = 7", len(b23) == 7, 7, len(b23))
    s.check("(2,3) Gram identically zero", proca.is_totally_isotropic(b23))
    s.check("(1,3) greedy basis built and verified, size = 28 = min(28,52)",
            len(b13) == 28 and proca.is_totally_isotropic(b13), 28, len(b13))
    first = proca.u1y_first_order_variation(b23)
    s.check("(2,3) Gram hypercharge-invariant to first order (exact)",
            not any(x for row in first for x in row))
    for theta in (0.0, 0.1, 0.7):
        res = proca.u1y_finite_rotation_residual(b23, theta)
        s.check(f"(2,3) Gram preserved under finite rotation theta={theta}",
                res <= 1e-12, 0.0, res, tolerance=1e-12)


def suite_electroweak(s: Suite) -> None:
    gp, g = QuadScalar(1), QuadScalar(2)
    m = electroweak.mass_matrix(gp, g)
    want = ExactMatrix([[1, 2, 0, 0], [2, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]]).scale(
        QuadScalar(1) / QuadScalar(2)
    )
    s.check("mass matrix (g'=1, g=2)", m == want)
    ang = electroweak.weinberg_angle(gp, g)
    s.check("sin^2(theta_W) = 1/5", ang.sin2 == Fraction(1, 5), "1/5", str(ang.sin2))
    mixed = electroweak.apply_mixing(ang.cos, ang.sin, m)
    want_mixed = ExactMatrix.diagonal([0, 5, 4, 4]).scale(QuadScalar(1) / QuadScalar(2))
    s.check("mixed matrix = (1/2) diag(0,5,4,4) exactly", mixed == want_mixed)
    spec = electroweak.mass_spectrum(mixed.scale(2))
    s.check("mass ratio squared = 5/4", spec["ratio_sq"] == Fraction(5, 4),
            "5/4", str(spec["ratio_sq"]))
    eigs = electroweak.jacobi_eigenvalues(m.scale(2))
    ok = max(abs(a - b) for a, b in zip(eigs, [0.0, 4.0, 4.0, 5.0])) <= 1e-10
    s.check("float Jacobi eigenvalues [0,4,4,5]", ok, [0, 4, 4, 5], eigs, tolerance=1e-10)
    block = electroweak.mixed_block_closed_form(gp, g, ang.cos, ang.sin)
    ok = all(block.rows[i][j] == mixed.rows[i][j] for i in range(2) for j in range(2))
    s.check("closed-form mixed block matches conjugation", ok)


def _random_integral_im(rng: random.Random) -> ImOctonion:
    """Seven draws n/d, n in -6..6 and d in 1..6, scaled by the lcm of their
    reduced denominators: a positive multiple with integer coefficients."""
    draws = [(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(7)]
    den = math.lcm(*(d // math.gcd(n, d) for n, d in draws))
    return ImOctonion(tuple(n * den // d for n, d in draws))


def suite_octonions(s: Suite, seed: int = 0) -> None:
    rng = random.Random(seed)
    units, e = [ImOctonion.unit(k) for k in range(1, 8)], Octonion.unit
    ok = all(oct_mul(e(i), e(j)) == (Octonion.make(-1) if i == j else -oct_mul(e(j), e(i)))
             for i in range(1, 8) for j in range(1, 8))
    s.check("table: e_i e_j = -e_j e_i (i != j), e_i^2 = -1", ok)

    def identity_holds(a: ImOctonion, b: ImOctonion) -> bool:
        prod = oct_mul(a.to_octonion(), b.to_octonion())
        return cross(a, b) == prod.imaginary() and prod.real == -octonion.inner(a, b)

    # both sides are bilinear, so scaling a pair to integers keeps the verdict
    ok = all(identity_holds(a, b) for a in units for b in units) and all(
        identity_holds(_random_integral_im(rng), _random_integral_im(rng)) for _ in range(100))
    s.check("cross(a,b) = Im(ab), <a,b> restores the scalar part (49 + 100 pairs)", ok)

    ads = octonion.ad_basis()
    ok = all(octonion.apply_im(ad, v) == cross(a, v) for a, ad in zip(units, ads) for v in units)
    s.check("ad-matrix action equals the cross product", ok)

    basis = g2_basis()
    s.check("all 14 derivation-basis elements pass the derivation test",
            all(is_derivation(x) for x in basis))
    s.check("all 7 ad generators fail the derivation test",
            not any(is_derivation(ad) for ad in ads))
    split = octonion.So7Split(basis, ads)
    s.check("g2 + ad spans so(7): rank 21", split.rank == 21, 21, split.rank)

    # bracket sector relations, by the ad projection the split licenses
    ok_g2g2 = split.licensed and not any(
        any(split.ad_pairings(bracket(a, b))) for a, b in itertools.combinations(basis, 2))
    ok_g2ad = split.licensed and not any(
        split.has_g2_part(bracket(a, ad)) for a in basis for ad in ads)
    some_adad_g2 = split.licensed and any(
        split.has_g2_part(bracket(a, b)) for a, b in itertools.combinations(ads, 2))
    s.check("[g2, g2] stays in g2", ok_g2g2)
    s.check("[g2, ad] stays in ad", ok_g2ad)
    s.check("[ad, ad] has a g2 component for some pair", some_adad_g2)

    # a positive multiple of each element spans the same subalgebra and scales
    # the Killing form by a positive congruence, and the consistency check is
    # linear in y: no verdict below changes, and the e4 basis computes in ints
    stab = [x.integral() for x in octonion.stabilizer_su3(ImOctonion.unit(4))]
    s.check("stabilizer of e4: dimension 8", len(stab) == 8, 8, len(stab))
    try:
        kf, closed = octonion.killing_form_table(stab), True
    except ValueError:
        kf, closed = [], False
    s.check("stabilizer closes under the bracket (zero residuals)", closed)
    s.check("stabilizer Killing form negative definite",
            closed and octonion.is_negative_definite(kf))
    rank = octonion.generic_centralizer_dimension(stab)
    s.check("stabilizer rank (generic centralizer dim) = 2", rank == 2, 2, rank)
    ok = all(octonion.jacobi_consistency(x.matrix(), _random_integral_im(rng),
                                         ImOctonion.unit(4)).ok for x in stab)
    s.check("stabilizer elements are bracket-action consistent on e4", ok)


def suite_pheno(s: Suite, reports: list[Suite]) -> None:
    for rep in reports:
        for c in rep.checks:
            if c.expected is not None:
                s.checks.append(Check(
                    f"{rep.name}: {c.name} [{c.unit}]" if c.unit else f"{rep.name}: {c.name}",
                    c.status, c.expected, c.actual,
                    f"{c.kind} {c.tolerance}" if c.tolerance else None, c.detail, c.unit, c.kind,
                ))
        for msg in pheno.flags(rep):
            s.flag(f"{rep.name}: note", msg)


def build_report(seed: int = 0, constants: pheno.Constants | None = None) -> VerificationReport:
    # first, so constants out of float range raise before the exact suites
    k = constants or pheno.Constants.defaults()
    reports = [pheno.evaluate(what, k) for what in pheno.REPORTS]
    rep = VerificationReport()
    suite_signatures(rep.suite("jet signatures"))
    suite_so4(rep.suite("so(4) structure"))
    suite_killing(rep.suite("Killing forms"))
    suite_proca_table(rep.suite("Proca trace table"))
    suite_censuses(rep.suite("mode censuses"))
    suite_isotropy(rep.suite("totally isotropic subspaces"))
    suite_electroweak(rep.suite("electroweak breaking"))
    suite_octonions(rep.suite("octonion algebra and su(3) reduction"), seed)
    suite_pheno(rep.suite("mass scales and consistency numbers"), reports)
    return rep
