"""Electroweak block: mass matrix, weak mixing, spectrum.

All angle data is carried as exact (cos, sin) pairs, each a rational times
the same square root (2/sqrt5 and 1/sqrt5 here), so the whole
symmetry-breaking computation stays equality-checkable.  With the
couplings (g', g) = (1, 2): sin^2(theta_W) = 1/5 exactly, the mixed mass
matrix is (1/2) diag(0, 5, 4, 4), and the mass ratio squared is 5/4.

The mass matrix carries the conventional global 1/2 prefactor.  Reported
spectra strip it, quoting the diagonal (0, 5, 4, 4) of the doubled matrix,
which is how the reference displays quote the result (the 1/2 sits outside
the displayed quadratic form).

A hand-rolled cyclic-Jacobi eigensolver provides the independent float
cross-check of the exact diagonalization, on Python floats in a written-down
operation order with no BLAS, so its output is the same on every machine.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .exactnum import ExactMatrix, QuadScalar, sqrt_rational


def mass_matrix(g_prime, g) -> ExactMatrix:
    """(1/2) [[g'^2, g g', 0, 0], [g g', g^2, 0, 0], [0,0,g^2,0], [0,0,0,g^2]]."""
    gp = QuadScalar.coerce(g_prime)
    gg = QuadScalar.coerce(g)
    half = QuadScalar(1) / QuadScalar(2)
    m = ExactMatrix([[gp * gp, gg * gp, 0, 0], [gg * gp, gg * gg, 0, 0],
                     [0, 0, gg * gg, 0], [0, 0, 0, gg * gg]])
    return m.scale(half)


# sin2 a Fraction; sin and cos exact QuadScalars when their root is in {1, 2, 5, 10}, else None
WeinbergAngle = namedtuple("WeinbergAngle", "sin2 sin cos")


def weinberg_angle(g_prime, g) -> WeinbergAngle:
    """sin^2(theta) = g'^2 / (g^2 + g'^2), with exact sin/cos when available."""
    gp = QuadScalar.coerce(g_prime)
    gg = QuadScalar.coerce(g)
    denom = gp * gp + gg * gg
    if not denom:
        raise ValueError("g and g' cannot both vanish")
    sin2 = ((gp * gp) / denom).as_fraction()
    return WeinbergAngle(sin2, sqrt_rational(sin2), sqrt_rational(1 - sin2))


def mixing_rotation(cos: QuadScalar, sin: QuadScalar) -> ExactMatrix:
    """The 4x4 rotation acting on (B0, A0) with the orientation that
    diagonalizes the mass matrix at tan(theta) = g'/g."""
    if cos * cos + sin * sin != QuadScalar(1):
        raise ValueError("cos^2 + sin^2 must equal 1 exactly")
    return ExactMatrix([[cos, -sin, 0, 0], [sin, cos, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def apply_mixing(cos, sin, m: ExactMatrix) -> ExactMatrix:
    """R M R^T with the mixing rotation R.

    In the upper 2x2 block the entries reproduce the closed forms
    (g' cos - g sin)^2, g g' cos(2t) + (g'^2 - g^2) cos sin,
    (g cos + g' sin)^2 (each under the global 1/2)."""
    r = mixing_rotation(QuadScalar.coerce(cos), QuadScalar.coerce(sin))
    return (r @ m) @ r.transpose()


def mixed_block_closed_form(g_prime, g, cos, sin) -> ExactMatrix:
    """The 2x2 mixed block from its closed-form entries (with the 1/2)."""
    gp, gg = QuadScalar.coerce(g_prime), QuadScalar.coerce(g)
    c, s = QuadScalar.coerce(cos), QuadScalar.coerce(sin)
    cos2t = c * c - s * s
    e11 = (gp * c - gg * s) * (gp * c - gg * s)
    e12 = gg * gp * cos2t + (gp * gp - gg * gg) * c * s
    e22 = (gg * c + gp * s) * (gg * c + gp * s)
    half = QuadScalar(1) / QuadScalar(2)
    return ExactMatrix([[e11, e12], [e12, e22]]).scale(half)


def mass_spectrum(doubled: ExactMatrix) -> dict:
    """Spectrum in display normalization, read off the diagonal (photon, Z,
    W, W) of the doubled mixed mass matrix; the Z/W ratio is exact."""
    m2_photon, m2_z, m2_w = (doubled.rows[k][k] for k in range(3))
    ratio_sq = (m2_z / m2_w).as_fraction()
    ratio = sqrt_rational(ratio_sq)
    return {
        "m2_photon": m2_photon,
        "m2_z": m2_z,
        "m2_w": m2_w,
        "ratio_sq": ratio_sq,
        "ratio": ratio,
        "ratio_float": float(ratio),
    }


def jacobi_eigenvalues(rows, sweeps: int = 60) -> list[float]:
    """Eigenvalues, ascending, of a symmetric matrix given as rows of numbers,
    by cyclic Jacobi rotations in plain floats; rejects non-symmetric input."""
    a = [[float(x) for x in row] for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("need a square matrix")
    if any(abs(a[i][j] - a[j][i]) > 1e-12 for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric within 1e-12")
    for _ in range(sweeps):
        off = math.hypot(*(a[i][j] for i in range(n) for j in range(i)))
        if off < 1e-15 * max([1.0] + [abs(a[k][k]) for k in range(n)]):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p][q]) < 1e-300:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                t = 1.0 if theta == 0.0 else (
                    math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0)))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # a <- R^T a R, R the identity but for R_pp = R_qq = c, R_pq = -R_qp = s
                a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],
                              [s * x + c * y for x, y in zip(a[p], a[q])])
                for row in a:
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
    return sorted(a[k][k] for k in range(n))


def breaking_report() -> dict:
    """Full exact breaking computation for (g', g) = (1, 2), JSON-friendly."""
    gp, gg = QuadScalar(1), QuadScalar(2)
    m = mass_matrix(gp, gg)
    ang = weinberg_angle(gp, gg)
    assert ang.sin is not None and ang.cos is not None
    mixed = apply_mixing(ang.cos, ang.sin, m)
    doubled = mixed.scale(2)
    spectrum = mass_spectrum(doubled)
    eigs = jacobi_eigenvalues(m.scale(2))
    return {
        "couplings": {"g_prime": str(gp), "g": str(gg)},
        "mass_matrix_halved": [[str(x) for x in row] for row in m.rows],
        "mixing": {
            "sin2_theta_w": str(ang.sin2),
            "sin_theta_w": str(ang.sin),
            "cos_theta_w": str(ang.cos),
        },
        "mixed_mass_matrix_display": [[str(x) for x in row] for row in doubled.rows],
        "spectrum": {
            "m2_photon": str(spectrum["m2_photon"]),
            "m2_z": str(spectrum["m2_z"]),
            "m2_w": str(spectrum["m2_w"]),
            "mass_ratio_z_over_w": str(spectrum["ratio"]),
            "mass_ratio_squared": str(spectrum["ratio_sq"]),
            "mass_ratio_float": spectrum["ratio_float"],
        },
        "float_jacobi_eigenvalues": eigs,
        "weinberg_comparison": {
            "sin2_theory": 0.2,
            "sin2_experiment": 0.23120,
            "sin2_experiment_err": 0.00015,
        },
    }
