"""Seeded inputs for the three benchmark workloads and their reference checks.

Every input is a pure function of the workload seed. The checks never call
into jetgauge: they compare the program's output with an independent
computation written here (a pinned digest, a matrix exponential, a small
numpy RK4), so a change that breaks the program cannot also break its check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

ETA = np.array([-1.0, 1.0, 1.0, 1.0])

# verify-all: the JSON report is seed-independent and pinned byte for byte.
VERIFY_SHA256 = "121a65f762c21d2e7b1910c4c84713f7fbc7265b638895930a8ac8c6a1246abf"
VERIFY_COUNTS = {"pass": 68, "fail": 0, "flagged": 11}

# simulate_uniform: many cheap steps behind a constant-field closure.
UNIFORM_STEPS = 40_000
UNIFORM_DLAMBDA = 1.0e-4
UNIFORM_TOL = 1.0e-9
CSV_HEADER = ["lambda", "x0", "x1", "x2", "x3", "u0", "u1", "u2", "u3"]

# simulate_grid: few expensive steps through a 24^4 sampled metric.
GRID_NODES_PER_AXIS = 24
GRID_SPACING = 0.1
GRID_STEPS = 3_000
GRID_DLAMBDA = 2.0e-4
GRID_TOL = 1.0e-9
# The particle starts 3 nodes into the time axis and mid-grid in space, so
# that every seed keeps its trajectory inside the stencil-safe interior.
GRID_START_NODE = np.array([3.0, 11.5, 11.5, 11.5])


@dataclass
class Request:
    """One CLI call: its argv, the file it writes, and how to check it."""

    label: str
    argv: list[str]
    output: str | None  # path the program writes; None means stdout
    # check(stdout path, output path, exit code) -> None, or what is wrong
    check: Callable[[str, str | None, int], str | None]


def _sub_relativistic_u(rng: np.random.Generator, vmax: float) -> np.ndarray:
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    v = direction * rng.uniform(0.1, vmax)
    gamma = 1.0 / math.sqrt(1.0 - float(v @ v))
    return np.concatenate([[gamma], gamma * v])


# -- verify_all ---------------------------------------------------------------


def verify_all(seed: int, work: str) -> list[Request]:
    def check(stdout_path, _out, code):
        if code != 0:
            return f"exit code {code}"
        with open(stdout_path, "rb") as fh:
            data = fh.read()
        counts = json.loads(data)["counts"]
        if counts != VERIFY_COUNTS:
            return f"counts {counts} != {VERIFY_COUNTS}"
        digest = hashlib.sha256(data).hexdigest()
        if digest != VERIFY_SHA256:
            return f"report sha256 {digest} differs from the pinned report"
        return None

    argv = ["verify-all", "--format", "json", "--seed", str(seed)]
    return [Request("verify-all", argv, None, check)]


# -- simulate_uniform ---------------------------------------------------------


def uniform_magnetic_f(b: np.ndarray) -> np.ndarray:
    """F^mu_nu of a constant magnetic field, written out independently."""
    bx, by, bz = b
    f = np.zeros((4, 4))
    f[1, 2], f[2, 1] = bz, -bz
    f[2, 3], f[3, 2] = bx, -bx
    f[3, 1], f[1, 3] = by, -by
    return f  # spatial rows: eta = +1, so F^i_j = F_ij


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series."""
    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0.5 else 0
    s = a / (2.0**squarings)
    term = np.eye(len(a))
    total = term.copy()
    for k in range(1, 30):
        term = term @ s / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def constant_field_rows(f, qm, x0, u0, dlam, steps) -> np.ndarray:
    """Rows [lambda, x, u] of the exact solution for constant F, every step.

    du/dlam = qm F u and dx/dlam = u are linear in y = (u, x). One step's
    propagator expm(dlam * gen) is applied step by step, so each
    row costs an 8x8 product and no row depends on the integrator under test.
    """
    gen = np.zeros((8, 8))
    gen[:4, :4] = qm * f
    gen[4:, :4] = np.eye(4)
    step = expm(dlam * gen)
    y = np.concatenate([u0, x0])
    rows = np.empty((steps + 1, 9))
    rows[0] = [0.0, *x0, *u0]
    for k in range(steps):
        y = step @ y
        rows[k + 1, 0] = (k + 1) * dlam
        rows[k + 1, 1:5] = y[4:]
        rows[k + 1, 5:] = y[:4]
    return rows


def simulate_uniform(seed: int, work: str) -> list[Request]:
    rng = np.random.default_rng([seed, 1])
    direction = rng.normal(size=3)
    b = direction / np.linalg.norm(direction) * rng.uniform(0.5, 2.0)
    u0 = _sub_relativistic_u(rng, 0.6)
    x0 = rng.uniform(-1.0, 1.0, size=4)
    q, m = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5))
    out = os.path.join(work, "uniform.csv")
    cfg = {
        "field": {"kind": "uniform_B", "params": {"B": b.tolist()}},
        "particle": {"x0": x0.tolist(), "u0": u0.tolist(), "m": m, "q": q},
        "integrator": {"dlambda": UNIFORM_DLAMBDA, "steps": UNIFORM_STEPS},
        "output": {"path": out, "format": "csv"},
    }
    cfg_path = os.path.join(work, "uniform.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    f = uniform_magnetic_f(b)
    want = constant_field_rows(f, q / m, x0, u0, UNIFORM_DLAMBDA, UNIFORM_STEPS)

    def check(_stdout, out_path, code):
        if code != 0:
            return f"exit code {code}"
        with open(out_path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            got = np.array([[float(v) for v in row] for row in reader])
        if header != CSV_HEADER:
            return f"CSV header {header}, expected {CSV_HEADER}"
        if got.shape != want.shape:
            return f"CSV shape {got.shape}, expected {want.shape}"
        err = float(np.max(np.abs(got - want)))
        if not err <= UNIFORM_TOL:
            return f"trajectory differs from the exact solution by {err:.3e}"
        return None

    return [Request("lorentz", ["simulate", "--config", cfg_path], out, check)]


# -- simulate_grid --------------------------------------------------------------


@dataclass
class QuadraticMetric:
    """g_nu(x) = c_nu + b[nu] . x + x . A[nu] x / 2, so F is linear in x."""

    c: np.ndarray  # (4,)
    b: np.ndarray  # (4, 4): b[nu, d]
    a: np.ndarray  # (4, 4, 4): a[nu, d, e], symmetric in d, e

    @staticmethod
    def seeded(rng: np.random.Generator) -> "QuadraticMetric":
        a = rng.uniform(-0.2, 0.2, size=(4, 4, 4))
        return QuadraticMetric(
            rng.uniform(-1.0, 1.0, size=4),
            rng.uniform(-0.3, 0.3, size=(4, 4)),
            0.5 * (a + a.transpose(0, 2, 1)),
        )

    def sample(self, origin: np.ndarray, n: int, h: float) -> np.ndarray:
        """Values on the grid, shape (4, n, n, n, n)."""
        axes = [origin[d] + h * np.arange(n) for d in range(4)]
        x = np.stack(np.meshgrid(*axes, indexing="ij"))  # (4, n, n, n, n)
        lin = np.einsum("vd,d...->v...", self.b, x)
        quad = 0.5 * np.einsum("vde,d...,e...->v...", self.a, x, x)
        return self.c[:, None, None, None, None] + lin + quad

    def field(self, x: np.ndarray) -> np.ndarray:
        """Closed-form F^mu_nu = eta_mu (d_mu g_nu - d_nu g_mu)."""
        jac = self.b.T + np.einsum("vme,e->mv", self.a, x)  # jac[mu, nu] = d_mu g_nu
        return ETA[:, None] * (jac - jac.T)


def reference_rk4(field, qm, x0, u0, dlam, steps) -> np.ndarray:
    """Rows [lambda, x, u] of a plain RK4 on the Lorentz force law."""

    def rhs(y):
        return np.concatenate([y[4:], qm * (field(y[:4]) @ y[4:])])

    y = np.concatenate([x0, u0])
    rows = np.empty((steps + 1, 9))
    rows[0] = [0.0, *y]
    for k in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dlam * k1)
        k3 = rhs(y + 0.5 * dlam * k2)
        k4 = rhs(y + dlam * k3)
        y = y + (dlam / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows[k + 1] = [(k + 1) * dlam, *y]
    return rows


def grid_origin(x0: np.ndarray) -> np.ndarray:
    return x0 - GRID_SPACING * GRID_START_NODE


def grid_inputs(seed: int):
    rng = np.random.default_rng([seed, 2])
    metric = QuadraticMetric.seeded(rng)
    x0 = rng.uniform(-0.05, 0.05, size=4)
    u0 = _sub_relativistic_u(rng, 0.4)
    q, m = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5))
    return metric, x0, u0, q, m


def simulate_grid(seed: int, work: str) -> list[Request]:
    metric, x0, u0, q, m = grid_inputs(seed)
    origin = grid_origin(x0)
    npz = os.path.join(work, "grid.npz")
    values = metric.sample(origin, GRID_NODES_PER_AXIS, GRID_SPACING)
    np.savez(npz, g=values, origin=origin, spacing=np.float64(GRID_SPACING))
    want = reference_rk4(metric.field, q / m, x0, u0, GRID_DLAMBDA, GRID_STEPS)

    def check(_stdout, out_path, code):
        if code != 0:
            return f"exit code {code}"
        with open(out_path, "r", encoding="utf-8") as fh:
            samples = json.load(fh)["samples"]
        if len(samples) != GRID_STEPS + 1:
            return f"{len(samples)} samples, expected {GRID_STEPS + 1}"
        got = np.array([[s["lambda"], *s["x"], *s["u"]] for s in samples])
        err = float(np.max(np.abs(got - want)))
        if not err <= GRID_TOL:
            return f"trajectory differs from the closed-form RK4 by {err:.3e}"
        return None

    particle = {"x0": x0.tolist(), "u0": u0.tolist(), "m": m, "q": q}
    # I = 1 * X_12 in so(3): the Wong force reduces exactly to the Lorentz one.
    wong = dict(particle, I={"dim": 3, "pair": [1, 2], "value": 1.0})
    requests = []
    for label, pc in (("lorentz", particle), ("wong", wong)):
        out = os.path.join(work, f"grid-{label}.json")
        cfg = {
            "field": {"kind": "grid", "params": {"npz": npz}},
            "particle": pc,
            "integrator": {"dlambda": GRID_DLAMBDA, "steps": GRID_STEPS},
            "output": {"path": out, "format": "json"},
        }
        cfg_path = os.path.join(work, f"grid-{label}-config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        argv = ["simulate", "--config", cfg_path, "--full-precision"]
        requests.append(Request(label, argv, out, check))
    return requests


WORKLOADS = {
    "verify_all": verify_all,
    "simulate_uniform": simulate_uniform,
    "simulate_grid": simulate_grid,
}

# RK4 steps per request, for the steps_per_s figure.
STEPS = {"simulate_uniform": UNIFORM_STEPS, "simulate_grid": GRID_STEPS}
