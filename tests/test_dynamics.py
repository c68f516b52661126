import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetgauge import dynamics
from jetgauge.dynamics import (
    GaugePotentialField,
    GridBoundaryError,
    GridMetricField,
    MetricField,
    ParticleState,
    _field_strength_all,
    bianchi_residual,
    field_strength_em,
    grid_field_strength_evaluator,
    integrate_lorentz,
    integrate_wong,
    uniform_electric_f,
    uniform_magnetic_f,
)

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def so3_generators():
    t = np.zeros((3, 3, 3))
    for a, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        t[a][i, j] = 1.0
        t[a][j, i] = -1.0
    return t


# -- electromagnetic-type field strength ------------------------------------------


def test_constant_metric_gives_zero_field():
    g = MetricField(lambda x: np.array([0.3, -1.0, 2.0, 0.5]))
    assert np.max(np.abs(field_strength_em(g, np.zeros(4)))) < 1e-12


def test_linear_potential_gives_uniform_electric_field():
    e_vec = np.array([0.4, -1.2, 0.7])
    # g_0 = E . x gives F^i_0 = E_i
    g = MetricField(
        lambda x: np.array([e_vec @ x[1:], 0.0, 0.0, 0.0])
    )
    f = field_strength_em(g, np.array([0.3, -0.1, 0.2, 0.9]))
    assert np.allclose(f, uniform_electric_f(e_vec), atol=1e-10)


def test_curl_pattern_gives_uniform_magnetic_field():
    b_vec = np.array([0.8, -0.3, 1.1])

    def g(x):
        r = x[1:]
        return np.concatenate([[0.0], 0.5 * np.cross(b_vec, r)])
        # g_i = eps_{ijk} B_j x_k / 2 = (B x r)_i / 2

    field = MetricField(g)
    f = field_strength_em(field, np.array([0.0, 0.4, -0.2, 0.1]))
    assert np.allclose(f, uniform_magnetic_f(b_vec), atol=1e-9)


def test_field_strength_antisymmetric_after_lowering():
    g = MetricField(lambda x: np.sin(x + np.array([0.1, 0.5, 0.9, 1.3])))
    f = field_strength_em(g, np.array([0.2, 0.3, -0.4, 0.6]))
    lowered = ETA @ f
    assert np.max(np.abs(lowered + lowered.T)) < 1e-12


def test_field_strength_high_order_convergence():
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
    jac = np.zeros((4, 4))  # jac[mu, nu] = d_mu g_nu
    jac[1, 0] = 2 * math.cos(2 * x[1])
    jac[0, 1] = jac[2, 1] = -math.sin(x[2] + x[0])
    jac[0, 2] = -math.cos(x[3] - x[0])
    jac[3, 2] = math.cos(x[3] - x[0])
    jac[0, 3] = -2 * math.sin(2 * x[0])
    f_exact = np.array([-1.0, 1, 1, 1])[:, None] * (jac - jac.T)
    e1 = np.max(np.abs(field_strength_em(MetricField(gfun, step=2e-2), x) - f_exact))
    e2 = np.max(np.abs(field_strength_em(MetricField(gfun, step=1e-2), x) - f_exact))
    # 4th-order differences: halving the step cuts the error by ~16
    assert e2 < e1 / 8.0


def test_grid_metric_field_matches_closed_form():
    spacing = 0.1
    grid_axes = [np.arange(-0.5, 0.55, spacing)] * 4
    shape = tuple(len(a) for a in grid_axes)
    vals = np.zeros((4,) + shape)
    for idx in np.ndindex(shape):
        x = np.array([grid_axes[k][idx[k]] for k in range(4)])
        vals[(slice(None),) + idx] = [0.3 * x[1] ** 2, 0.0, 0.1 * x[0], 0.0]
    grid = GridMetricField(vals, origin=[-0.5] * 4, spacing=spacing)
    x0 = np.zeros(4)
    f = field_strength_em(grid, x0)
    # analytic: d_1 g_0 = 0.6 x1 = 0 at origin; d_0 g_2 = 0.1
    closed = MetricField(
        lambda x: np.array([0.3 * x[1] ** 2, 0.0, 0.1 * x[0], 0.0])
    )
    assert np.allclose(f, field_strength_em(closed, x0), atol=1e-9)


def test_grid_field_strength_evaluator_interpolates():
    spacing = 0.5
    n = 11
    axes = np.arange(n) * spacing - 2.5
    vals = np.zeros((4, n, n, n, n))
    e_vec = np.array([0.5, -0.2, 0.1])
    for idx in np.ndindex((n,) * 4):
        x = np.array([axes[k] for k in idx])
        vals[(slice(None),) + idx] = [e_vec @ x[1:], 0.0, 0.0, 0.0]
    grid = GridMetricField(vals, origin=[-2.5] * 4, spacing=spacing)
    f_eval = grid_field_strength_evaluator(grid)
    want = uniform_electric_f(e_vec)
    for x in (np.zeros(4), np.array([0.13, -0.4, 0.77, 0.21])):
        assert np.allclose(f_eval(x), want, atol=1e-10)
    with pytest.raises(GridBoundaryError):
        f_eval(np.array([0.0, 2.4, 0.0, 0.0]))


def loop_field_strength_evaluator(grid):
    """Slow oracle for grid_field_strength_evaluator: one Python pass over
    the 16 corners per query, computing only corners of nonzero weight."""
    cache = {}
    shape = grid.grid.shape[1:]

    def f_at_node(idx):
        if idx not in cache:
            if any(i < 2 or i >= s - 2 for i, s in zip(idx, shape)):
                raise GridBoundaryError(f"stencil at node {idx} leaves grid")
            x_node = grid.origin + grid.spacing * np.array(idx, dtype=float)
            cache[idx] = field_strength_em(grid, x_node)
        return cache[idx]

    def evaluate(x):
        rel = (np.asarray(x, dtype=float) - grid.origin) / grid.spacing
        base = np.floor(rel).astype(int)
        frac = rel - base
        out = np.zeros((4, 4))
        for corner in np.ndindex((2,) * 4):
            w = 1.0
            for axis in range(4):
                w *= frac[axis] if corner[axis] else 1.0 - frac[axis]
            if w:
                out += w * f_at_node(tuple(base + np.array(corner)))
        return out

    return evaluate


def random_grid(seed, dyadic, n=7):
    """A grid of non-polynomial values, so every corner weight matters.

    With `dyadic`, origin and spacing are exact binary fractions, so a
    query built on a node resolves to that node exactly."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((4, n, n, n, n)) + np.sin(7.0 * rng.random((4, n, n, n, n)))
    if dyadic:
        return GridMetricField(vals, rng.integers(-24, 24, 4) / 8.0, 2.0 ** rng.integers(-3, 2))
    return GridMetricField(vals, rng.uniform(-3, 3, 4), rng.uniform(0.05, 2.0))


def same_bits(a, b):
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


# index-space coordinates from just outside to just inside the stencil-safe
# range [2, n - 3] of a 7-node axis, about half of them on a node
_coord = st.one_of(
    st.floats(1.5, 4.5, allow_nan=False),
    st.integers(1, 5).map(float),
)


_point = st.lists(_coord, min_size=4, max_size=4)


@given(st.integers(0, 2**32 - 1), st.booleans(), st.lists(_point, min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
@example(0, True, [[4.0, 3.25, 2.5, 3.75]])  # on the last safe layer of axis 0
@example(0, True, [[4.0, 4.0, 4.0, 4.0], [2.0, 2.0, 2.0, 2.0], [4.5, 3.0, 3.0, 3.0]])
@example(0, False, [[2.5, 2.5, 2.5, 2.5], [2.5, 2.5, 2.5, 3.5], [3.5, 2.5, 2.5, 2.5]])
def test_grid_evaluator_matches_corner_loop_bitwise(seed, dyadic, points):
    """One evaluator answers every point, so its caches carry across cells.
    It takes the point as an ndarray and as the tuple the integrator passes."""
    grid = random_grid(seed, dyadic)
    fast, slow = grid_field_strength_evaluator(grid), loop_field_strength_evaluator(grid)
    for coords in points + points[::-1]:
        x = grid.origin + grid.spacing * np.array(coords)
        queries = (x, tuple(x.tolist()))
        try:
            want = slow(x)
        except GridBoundaryError:
            for query in queries:
                with pytest.raises(GridBoundaryError):
                    fast(query)
            continue
        assert all(same_bits(fast(query), want) for query in queries)


def test_grid_evaluator_on_last_safe_layer():
    n = 7
    grid = random_grid(11, True, n)
    fast, slow = grid_field_strength_evaluator(grid), loop_field_strength_evaluator(grid)
    # x0 exactly on node n - 3: the corners on node n - 2 have zero weight
    # and lie outside the stencil-safe range, so they must not be computed
    for rel in ([n - 3, 2.5, 3.25, 2.75], [n - 3, n - 3, n - 3, n - 3], [2, 2, 2, 2]):
        x = grid.origin + grid.spacing * np.array(rel, dtype=float)
        assert same_bits(fast(x), slow(x))
    # a corner of nonzero weight on node n - 2 is outside it
    for rel in ([n - 3 + 0.5, 2.5, 3.25, 2.75], [n - 3, 2.5, n - 3 + 0.25, 2.75],
                [1.75, 2.5, 3.25, 2.75]):
        x = grid.origin + grid.spacing * np.array(rel, dtype=float)
        for evaluate in (slow, fast):
            with pytest.raises(GridBoundaryError):
                evaluate(x)
    with pytest.raises(GridBoundaryError):
        fast(np.array([np.nan, 0.0, 0.0, 0.0]))


def test_grid_evaluator_computes_each_node_once(monkeypatch):
    calls = []

    def counted(g, x):
        calls.append(tuple(x))
        return field_strength_em(g, x)

    # the evaluator reaches node values through the module global, which
    # is what run tracing wraps to count node computations
    monkeypatch.setattr(dynamics, "field_strength_em", counted)
    grid = random_grid(5, False)
    f_eval = grid_field_strength_evaluator(grid)
    rng = np.random.default_rng(1)
    for _ in range(50):  # all inside the cell based at node (2, 3, 2, 3)
        f_eval(grid.origin + grid.spacing * (np.array([2, 3, 2, 3]) + rng.uniform(0.1, 0.9, 4)))
    assert len(calls) == 16 and len(set(calls)) == 16
    f_eval(grid.origin + grid.spacing * np.array([3.5, 3.5, 2.5, 3.5]))  # next cell along x0
    assert len(calls) == 24


def test_grid_boundary_error():
    vals = np.zeros((4, 6, 6, 6, 6))
    grid = GridMetricField(vals, origin=[0.0] * 4, spacing=0.5)
    with pytest.raises(GridBoundaryError):
        grid.jacobian(np.array([0.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        grid.values(np.array([0.26, 1.0, 1.0, 1.0]))  # off-node query


@given(st.integers(0, 2**32 - 1), st.booleans(), st.tuples(*[st.integers(2, 4)] * 4))
@settings(max_examples=60, deadline=None)
def test_grid_jacobian_bit_equal_to_generic_stencil(seed, dyadic, node):
    # the node-index override against MetricField.jacobian, which steps x and
    # resolves every sample through GridMetricField.values
    grid = random_grid(seed, dyadic)
    x = grid.origin + grid.spacing * np.array(node, dtype=float)
    assert same_bits(grid.jacobian(x), MetricField.jacobian(grid, x))


# -- non-abelian field strength ----------------------------------------------------


def test_constant_potential_field_strength_is_commutator():
    t = so3_generators()
    a_const = np.stack([t[0], t[1], 2 * t[2], 0.5 * t[0]])
    a = GaugePotentialField(lambda x: a_const)
    f01 = _field_strength_all(a, np.zeros(4))[0, 1]
    want = t[0] @ t[1] - t[1] @ t[0]
    assert np.allclose(f01, want, atol=1e-10)


def test_pure_gauge_abelian_potential_is_flat():
    gen = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def chi(x):
        return math.sin(x[0]) * math.cos(x[1]) + 0.5 * x[2] * x[3]

    def grad_chi(x):
        return np.array(
            [
                math.cos(x[0]) * math.cos(x[1]),
                -math.sin(x[0]) * math.sin(x[1]),
                0.5 * x[3],
                0.5 * x[2],
            ]
        )

    a = GaugePotentialField(lambda x: grad_chi(x)[:, None, None] * gen, step=1e-3)
    x = np.array([0.3, -0.2, 0.7, 0.4])
    worst = max(
        np.max(np.abs(_field_strength_all(a, x)[mu, nu]))
        for mu in range(4)
        for nu in range(mu + 1, 4)
    )
    assert worst < 1e-5  # O(step^2) at worst for the abelian pure gauge


def test_linear_so3_potential_matches_hand_computed():
    t = so3_generators()
    c = np.array([[0.2, -0.1, 0.4, 0.0], [0.3, 0.5, 0.0, -0.2],
                  [0.0, 0.1, -0.3, 0.6], [0.7, 0.0, 0.2, 0.1]])

    def a_func(x):
        # A_mu(x) = (c[mu] . x) T_{mu mod 3}
        return np.stack([(c[mu] @ x) * t[mu % 3] for mu in range(4)])

    a = GaugePotentialField(a_func, step=1e-3)
    x = np.array([0.5, -0.3, 0.2, 0.8])
    for mu in range(4):
        for nu in range(mu + 1, 4):
            am, an = (c[mu] @ x) * t[mu % 3], (c[nu] @ x) * t[nu % 3]
            want = c[nu][mu] * t[nu % 3] - c[mu][nu] * t[mu % 3] + am @ an - an @ am
            got = _field_strength_all(a, x)[mu, nu]
            assert np.allclose(got, want, atol=1e-9), (mu, nu)


def test_potential_and_metric_fields_share_the_derivative():
    def func(x):
        return np.sin(np.outer([0.3, -1.1, 0.7, 2.0], x) + 0.2).reshape(4, 2, 2)

    x = np.array([0.4, -0.3, 1.2, 0.05])
    for mu in range(4):
        want = MetricField(func, step=1e-2).derivative(x, mu)
        assert same_bits(GaugePotentialField(func, step=1e-2).derivative(x, mu), want)


def test_bianchi_zero_field():
    a = GaugePotentialField(lambda x: np.zeros((4, 2, 2)))
    assert bianchi_residual(a, np.zeros(4)) == 0.0


def test_bianchi_refinement_ratio():
    gen = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def a_func(x):
        f = np.array(
            [
                math.sin(x[1] + 0.2) * math.cos(2 * x[2]),
                math.sin(2 * x[0]) * math.cos(x[3] + 0.1),
                math.cos(x[0] + 2 * x[1]),
                math.sin(x[2] + 0.4) * math.cos(x[0]),
            ]
        )
        return f[:, None, None] * gen

    x = np.array([0.3, 0.5, -0.4, 0.2])
    r1 = bianchi_residual(GaugePotentialField(a_func, step=4e-2), x)
    r2 = bianchi_residual(GaugePotentialField(a_func, step=2e-2), x)
    ratio = r1 / r2
    assert 3.2 <= ratio <= 4.8  # O(step^2), halving ratio ~ 4 (+-20%)


def test_bianchi_small_nonabelian_bounded():
    t = so3_generators()

    def a_func(x):
        return 1e-3 * np.stack(
            [
                math.sin(x[1]) * t[0],
                math.cos(x[2]) * t[1],
                math.sin(x[0] + x[3]) * t[2],
                math.cos(x[1] - x[2]) * t[0],
            ]
        )

    res = bianchi_residual(GaugePotentialField(a_func, step=1e-2), np.zeros(4))
    # O(h^2) + O(|A|^3) with |A| ~ 1e-3
    assert res < 1e-3


def _givens(n, i, j, theta):
    r = np.eye(n)
    c, s = math.cos(theta), math.sin(theta)
    r[i, i] = r[j, j] = c
    r[i, j] = s
    r[j, i] = -s
    return r


def gauge_covariance_check(a, lam, x, pair, tol=1e-10):
    """|| F(Lam A Lam^-1) - Lam F(A) Lam^-1 || <= tol for constant orthogonal Lam."""
    lam = np.asarray(lam, dtype=float)
    if np.max(np.abs(lam @ lam.T - np.eye(lam.shape[0]))) > 1e-12:
        raise ValueError("gauge transform must be orthogonal within 1e-12")
    mu, nu = pair
    conj = GaugePotentialField(lambda pt: np.einsum("ij,mjk,lk->mil", lam, a.values(pt), lam),
                               step=a.step)
    f_conj = _field_strength_all(conj, x)[mu, nu]
    f_plain = _field_strength_all(a, x)[mu, nu]
    return float(np.max(np.abs(f_conj - lam @ f_plain @ lam.T))) <= tol


def test_gauge_covariance():
    t = so3_generators()

    def a_func(x):
        return np.stack(
            [
                (0.3 * x[1]) * t[0],
                (0.2 * x[0] - x[2]) * t[1],
                math.sin(x[3]) * t[2],
                (0.1 + x[1] * x[2]) * t[0],
            ]
        )

    a = GaugePotentialField(a_func, step=1e-3)
    x = np.array([0.2, 0.4, -0.3, 0.6])
    assert gauge_covariance_check(a, np.eye(3), x, (0, 1))
    assert gauge_covariance_check(a, _givens(3, 0, 1, 0.3), x, (0, 2))
    perm = np.eye(3)[[2, 0, 1]]
    assert gauge_covariance_check(a, perm, x, (1, 3))


def test_gauge_covariance_rejects_non_orthogonal():
    a = GaugePotentialField(lambda x: np.zeros((4, 3, 3)))
    with pytest.raises(ValueError):
        gauge_covariance_check(a, np.diag([1.0, 2.0, 1.0]), np.zeros(4), (0, 1))


# -- trajectory integration --------------------------------------------------------


def test_free_particle_straight_line():
    state = ParticleState(np.zeros(4), np.array([1.0, 0.3, -0.2, 0.1]), 1.0, 1.0)
    traj = integrate_lorentz(state, lambda x: np.zeros((4, 4)), 0.05, 200)
    lam = traj.lambdas[-1]
    assert np.allclose(traj.xs[-1], state.u * lam, atol=1e-12)
    assert traj.eta_drift() == 0.0


def _cyclotron(dlam_frac=1000, v=0.01, b=1.0, q=1.0, m=1.0, periods=1.0):
    f = uniform_magnetic_f([0.0, 0.0, b])
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    u0 = np.array([gamma, gamma * v, 0.0, 0.0])
    state = ParticleState(np.zeros(4), u0, m, q)
    period = 2.0 * math.pi * m / (q * b)
    n = int(dlam_frac * periods)
    traj = integrate_lorentz(state, lambda x: f, period * periods / n, n)
    return traj, gamma, v


def test_cyclotron_radius():
    traj, gamma, v = _cyclotron()
    # analytic radius m |u_perp| / (q B) = gamma m v; nonrelativistic ~ m v
    xs = traj.xs[:, 1]
    radius = (xs.max() - xs.min()) / 2.0
    want = 1.0 * gamma * v / 1.0
    assert abs(radius - want) / want < 1e-3
    assert abs(radius - v) / v < 1e-3  # nonrelativistic statement of the same


def test_rk4_fourth_order_convergence():
    errs = []
    for frac in (250, 500):
        traj, gamma, v = _cyclotron(dlam_frac=frac)
        # exact solution: u rotates at omega = qB/m; x traces the circle
        omega = 1.0
        lam = traj.lambdas[-1]
        exact_x = np.array(
            [
                gamma * lam,
                gamma * v / omega * math.sin(omega * lam),
                gamma * v / omega * (math.cos(omega * lam) - 1.0),
                0.0,
            ]
        )
        errs.append(np.max(np.abs(traj.xs[-1] - exact_x)))
    order = math.log2(errs[0] / errs[1])
    assert 3.7 <= order <= 4.3


def test_eta_norm_conservation_electric():
    f = uniform_electric_f([0.5, 0.0, 0.0])
    state = ParticleState(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), 1.0, 1.0)
    traj = integrate_lorentz(state, lambda x: f, 1e-3, 10_000)
    assert traj.eta_drift() <= 1e-9
    # hyperbolic motion: u0 = cosh(a lam), u1 = sinh(a lam)
    lam = traj.lambdas[-1]
    assert abs(traj.us[-1][0] - math.cosh(0.5 * lam)) < 1e-9
    assert abs(traj.us[-1][1] - math.sinh(0.5 * lam)) < 1e-9


def test_non_finite_detection():
    state = ParticleState(np.zeros(4), np.array([1.0, 0, 0, 0]), 1.0, 1.0)
    huge = np.full((4, 4), 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError) as err:
            integrate_lorentz(state, lambda x: huge, 10.0, 5)
    assert "step" in str(err.value)


def test_bad_step_and_mass():
    state = ParticleState(np.zeros(4), np.array([1.0, 0, 0, 0]), 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_lorentz(state, lambda x: np.zeros((4, 4)), 0.0, 5)
    with pytest.raises(ValueError):
        ParticleState(np.zeros(4), np.zeros(4), 0.0, 1.0)


# -- Wong integration ---------------------------------------------------------------


def x12(dim):
    g = np.zeros((dim, dim))
    g[0, 1] = 1.0
    g[1, 0] = -1.0
    return g


def test_wong_reduces_to_lorentz_for_abelian_embedding():
    gen = x12(2)
    f_scalar = uniform_magnetic_f([0.0, 0.0, 1.0])
    i0 = 0.7
    v = 0.01
    gamma = 1.0 / math.sqrt(1 - v * v)
    u0 = np.array([gamma, gamma * v, 0.0, 0.0])
    sw = ParticleState(np.zeros(4), u0, 1.0, 1.0, charge_vector=i0 * gen)
    sl = ParticleState(np.zeros(4), u0, 1.0, 1.0 * i0)
    tw = integrate_wong(sw, lambda x: f_scalar, gen, 0.01, 1500)
    tl = integrate_lorentz(sl, lambda x: f_scalar, 0.01, 1500)
    assert np.max(np.abs(tw.xs - tl.xs)) <= 1e-12
    assert np.max(np.abs(tw.us - tl.us)) <= 1e-12


def test_wong_zero_charge_is_geodesic():
    f = uniform_magnetic_f([0, 0, 1.0])
    state = ParticleState(
        np.zeros(4), np.array([1.0, 0.2, 0.0, 0.0]), 1.0, 1.0,
        charge_vector=np.zeros((3, 3)),
    )
    traj = integrate_wong(state, lambda x: f, x12(3), 0.05, 100)
    assert np.allclose(traj.xs[-1], state.u * traj.lambdas[-1], atol=1e-12)


def test_wong_commuting_field_effective_charge():
    gen = x12(3)  # embed an so(2) inside so(3)
    f_scalar = uniform_magnetic_f([0.0, 0.0, 2.0])
    i0 = 0.5
    v = 0.02
    gamma = 1.0 / math.sqrt(1 - v * v)
    u0 = np.array([gamma, gamma * v, 0.0, 0.0])
    sw = ParticleState(np.zeros(4), u0, 1.0, 1.0, charge_vector=i0 * gen)
    tw = integrate_wong(sw, lambda x: f_scalar, gen, 0.01, 1000)
    sl = ParticleState(np.zeros(4), u0, 1.0, i0)
    tl = integrate_lorentz(sl, lambda x: f_scalar, 0.01, 1000)
    assert np.max(np.abs(tw.xs - tl.xs)) <= 1e-12


def test_wong_dimension_mismatch():
    state = ParticleState(np.zeros(4), np.array([1.0, 0, 0, 0]), 1.0, 1.0,
                          charge_vector=x12(2))
    with pytest.raises(ValueError, match="dimension"):
        integrate_wong(state, lambda x: np.zeros((4, 4)), x12(3), 0.1, 5)


@pytest.mark.parametrize("gen, charge", [(np.eye(2), x12(2)), (x12(2), np.eye(2))],
                         ids=["generator", "charge"])
def test_wong_rejects_what_is_not_in_so_d(gen, charge):
    """kappa sums gen_ij I_ji over i < j only, which is -tr(gen I)/2 for
    antisymmetric matrices alone."""
    state = ParticleState(np.zeros(4), np.array([1.0, 0, 0, 0]), 1.0, 1.0,
                          charge_vector=charge)
    with pytest.raises(ValueError, match="antisymmetric"):
        integrate_wong(state, lambda x: np.zeros((4, 4)), gen, 0.1, 5)


@pytest.mark.parametrize("value", [0.7, -0.7, 5e-324, 1e308, -1e308])
def test_wong_charge_contracts_to_its_value_exactly(value):
    """I = value X_31 pairs with X_31 to kappa = value exactly, also past
    half the largest float, where -tr(gen I)/2 summed over all i, j would
    overflow: the force is that of the Lorentz law in value F, bit for bit."""
    f = uniform_magnetic_f([0.3, -0.7, 0.5])
    gen = np.zeros((3, 3))
    gen[2, 0], gen[0, 2] = 1.0, -1.0  # its entry above the diagonal is -1
    for u0 in ([1.2, 0.3, -0.4, 0.5], [-0.0, -0.0, 0.3, -0.0]):  # zeros keep their sign
        state = ParticleState([0.1, -0.2, 0.3, 0.05], u0, 0.9, -min(1.3, 1.3 / abs(value)),
                              charge_vector=value * gen)
        want = numpy_integrate(state, lambda x: value * f, 0.01, 20)
        got = integrate_wong(state, lambda x: f, gen, 0.01, 20)
        assert got.table.tobytes() == want.tobytes()


class CountingArray:
    """A field value that counts how often it is read as an array."""

    def __init__(self, f):
        self.f, self.reads = f, 0

    def __array__(self, dtype=None, copy=None):
        self.reads += 1
        return self.f


def test_a_uniform_field_is_converted_once_per_run():
    f = uniform_magnetic_f([0.3, -0.7, 1.1])
    counting = CountingArray(f)
    state = ParticleState([0.1, -0.2, 0.3, 0.05], [1.2, 0.3, -0.4, 0.5], 0.9, 1.3,
                          charge_vector=0.7 * x12(3))
    for integrate, args in ((integrate_lorentz, ()), (integrate_wong, (x12(3),))):
        counting.reads = 0
        traj = integrate(state, lambda x: counting, *args, 0.01, 50)
        assert counting.reads == 1
        assert traj.table.tobytes() == integrate(state, lambda x: f, *args, 0.01, 50).table.tobytes()


# -- the scalar RK4 kernel against a numpy oracle -----------------------------------


def numpy_integrate(state, m_eval, dlam, nsteps):
    """Rows [lambda, x, u] of a plain numpy RK4 on du/dlam = (q/m) M(x) u, the
    slow reference for the scalar kernel.  The matvec is written column by
    column in the pinned order, so no BLAS kernel decides it."""
    qm = state.q / state.m

    def rhs(yv):
        f, u = np.asarray(m_eval(yv[:4]), dtype=float), yv[4:]
        acc = (f[:, 0] * u[0] + f[:, 2] * u[2]) + (f[:, 1] * u[1] + f[:, 3] * u[3])
        return np.concatenate([u, qm * acc])

    y = np.concatenate([state.x, state.u])
    rows = np.empty((nsteps + 1, 9))
    rows[0] = [0.0, *y]
    for k in range(nsteps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dlam * k1)
        k3 = rhs(y + 0.5 * dlam * k2)
        k4 = rhs(y + dlam * k3)
        y = y + (dlam / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows[k + 1] = [(k + 1) * dlam, *y]
    return rows


@pytest.mark.parametrize(
    "f", [uniform_magnetic_f([0.3, -0.7, 1.1]), uniform_electric_f([0.4, 0.2, -0.9])]
)
def test_scalar_rk4_matches_numpy_oracle_on_uniform_fields(f):
    state = ParticleState([0.1, -0.2, 0.3, 0.05], [1.2, 0.3, -0.4, 0.5], 0.9, 1.3)
    traj = integrate_lorentz(state, lambda x: f, 0.01, 500)
    assert np.array_equal(traj.table, numpy_integrate(state, lambda x: f, 0.01, 500))
    assert np.array_equal(traj.xs, traj.table[:, 1:5]) and len(traj) == 501
    # F is converted once per object: the same array every call and a fresh
    # copy every call give the same bytes
    fresh = integrate_lorentz(state, lambda x: f.copy(), 0.01, 500)
    assert fresh.table.tobytes() == traj.table.tobytes()


def test_field_is_called_with_a_tuple_of_four_floats():
    f, seen = uniform_magnetic_f([0.3, -0.7, 1.1]), []

    def recording(x):
        seen.append(x)
        return f

    state = ParticleState([0.1, -0.2, 0.3, 0.05], [1.2, 0.3, -0.4, 0.5], 0.9, 1.3,
                          charge_vector=0.7 * x12(2))
    integrate_lorentz(state, recording, 0.01, 5)
    assert len(seen) == 4 * 5
    integrate_wong(state, recording, x12(2), 0.01, 5)
    assert len(seen) == 2 * 4 * 5
    assert all(type(x) is tuple and len(x) == 4 and all(type(c) is float for c in x)
               for x in seen)


def test_a_new_field_object_is_converted_again():
    """Each distinct F object is read afresh, so a field that changes along
    the path is never served the rows of an earlier F."""
    e, b = uniform_electric_f([0.4, 0.2, -0.9]), uniform_magnetic_f([0.3, -0.7, 1.1])

    def switching(x):  # E before x0 = 0.2, then B
        return e if x[0] < 0.2 else b

    state = ParticleState([0.0, 0.1, -0.2, 0.3], [1.1, 0.3, -0.4, 0.5], 0.9, 1.3)
    traj = integrate_lorentz(state, switching, 0.01, 100)
    want = numpy_integrate(state, switching, 0.01, 100)
    assert traj.table.tobytes() == want.tobytes()


def oracle_grid(seed):
    """A 9^4 random grid whose F is of order 0.2, and a start in its middle."""
    g = random_grid(seed, False, 9)
    grid = GridMetricField(0.2 * g.spacing * g.grid, g.origin, g.spacing)
    rng = np.random.default_rng(seed)
    x0 = grid.origin + grid.spacing * rng.uniform(3.5, 4.5, 4)
    u0 = np.concatenate([[1.0], rng.uniform(-0.3, 0.3, 3)])
    return grid, x0, u0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_scalar_rk4_matches_numpy_oracle_on_a_grid(seed):
    """Rows of a grid F have three nonzero entries, so the matvec order shows."""
    grid, x0, u0 = oracle_grid(seed)
    f_eval = grid_field_strength_evaluator(grid)
    dlam, n = 0.01 * grid.spacing, 100  # about one node along x0
    state = ParticleState(x0, u0, 0.8, 1.2)
    want = numpy_integrate(state, f_eval, dlam, n)
    assert np.array_equal(integrate_lorentz(state, f_eval, dlam, n).table, want)
    gen, i0 = x12(3), 0.7

    def feff(x):  # the 4-index contraction of F (x) gen against I = i0 gen
        return -0.5 * np.einsum("mnij,ji->mn", f_eval(x)[:, :, None, None] * gen, i0 * gen)

    sw = ParticleState(x0, u0, 0.8, 1.2, charge_vector=i0 * gen)
    assert np.array_equal(integrate_wong(sw, f_eval, gen, dlam, n).table,
                          numpy_integrate(sw, feff, dlam, n))
