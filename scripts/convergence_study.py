#!/usr/bin/env python3
"""Convergence experiments for the dynamics module.

Prints three small studies:
  * RK4 global error on the cyclotron orbit under step halving (order ~4),
  * Bianchi residual of a smooth abelian potential under step halving
    (order ~2 from the outer derivative),
  * field-strength error of a closed-form metric under step halving
    (order ~4 from the derivative stencil).
"""

import argparse
import math

import numpy as np

from jetgauge.curvature import GaugePotentialField, MetricField, bianchi_residual
from jetgauge.dynamics import (
    ParticleState,
    field_strength_em,
    integrate_lorentz,
    uniform_magnetic_f,
)


def rk4_study(levels: int) -> None:
    print("RK4 cyclotron error vs step")
    v, q, m, b = 0.01, 1.0, 1.0, 1.0
    gamma = 1.0 / math.sqrt(1 - v * v)
    f = uniform_magnetic_f([0, 0, b])
    period = 2 * math.pi * m / (q * b)
    prev = None
    for k in range(levels):
        n = 125 * 2**k
        state = ParticleState(np.zeros(4), np.array([gamma, gamma * v, 0, 0]), m, q)
        traj = integrate_lorentz(state, lambda x: f, period / n, n)
        lam, *x = np.asarray(traj.table)[-1, :5]
        exact = np.array(
            [gamma * lam, gamma * v * math.sin(lam), gamma * v * (math.cos(lam) - 1), 0.0]
        )
        err = np.max(np.abs(x - exact))
        note = f"  order {math.log2(prev / err):5.2f}" if prev else ""
        print(f"  n={n:6d}  err={err:.3e}{note}")
        prev = err


def bianchi_study(levels: int) -> None:
    print("Bianchi residual vs step (abelian potential)")
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
    prev = None
    for k in range(levels):
        h = 8e-2 / 2**k
        res = bianchi_residual(GaugePotentialField(a_func, step=h), x0)
        note = f"  order {math.log2(prev / res):5.2f}" if prev else ""
        print(f"  h={h:.4f}  residual={res:.3e}{note}")
        prev = res


def field_strength_study(levels: int) -> None:
    print("field-strength stencil error vs step (closed-form metric)")

    def gfun(x):
        return np.array(
            [
                math.sin(2 * x[1]),
                math.cos(x[2] + x[0]),
                math.sin(x[3] - x[0]),
                math.cos(2 * x[0]),
            ]
        )

    x = np.array([0.3, 0.1, -0.2, 0.5])
    jac = np.zeros((4, 4))
    jac[1, 0] = 2 * math.cos(2 * x[1])
    jac[0, 1] = jac[2, 1] = -math.sin(x[2] + x[0])
    jac[0, 2] = -math.cos(x[3] - x[0])
    jac[3, 2] = math.cos(x[3] - x[0])
    jac[0, 3] = -2 * math.sin(2 * x[0])
    exact = np.array([-1.0, 1, 1, 1])[:, None] * (jac - jac.T)
    prev = None
    for k in range(levels):
        h = 4e-2 / 2**k
        err = np.max(np.abs(field_strength_em(MetricField(gfun, step=h), x) - exact))
        note = f"  order {math.log2(prev / err):5.2f}" if prev else ""
        print(f"  h={h:.4f}  err={err:.3e}{note}")
        prev = err


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=4)
    args = ap.parse_args()
    rk4_study(args.levels)
    bianchi_study(args.levels)
    field_strength_study(args.levels)
