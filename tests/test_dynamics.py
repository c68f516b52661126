import io
import math
import os
import tempfile
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetgauge import dynamics, npz
from jetgauge.curvature import (
    GaugePotentialField,
    MetricField,
    _field_strength_all,
    bianchi_residual,
)
from jetgauge.dynamics import (
    GridBoundaryError,
    GridFieldStrength,
    GridMetricField,
    ParticleState,
    field_strength_em,
    integrate_lorentz,
    integrate_wong,
    uniform_electric_f,
    uniform_magnetic_f,
)

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def grid_field(vals, origin, spacing):
    """A GridMetricField over a numpy array of shape (4, n0, n1, n2, n3)."""
    vals = np.ascontiguousarray(vals, dtype=float)
    return GridMetricField(vals.ravel().tolist(), vals.shape, origin, spacing)


def table(traj):
    """The trajectory's samples as an (n + 1, 9) array, without a copy."""
    return np.asarray(traj.table)


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
    grid = grid_field(vals, [-0.5] * 4, spacing)
    f = field_strength_em(grid, (5, 5, 5, 5))  # the node at x = 0
    # analytic: d_1 g_0 = 0.6 x1 = 0 at origin; d_0 g_2 = 0.1
    closed = MetricField(
        lambda x: np.array([0.3 * x[1] ** 2, 0.0, 0.1 * x[0], 0.0])
    )
    assert np.allclose(f, field_strength_em(closed, np.zeros(4)), atol=1e-9)


def test_grid_field_strength_evaluator_interpolates():
    spacing = 0.5
    n = 11
    axes = np.arange(n) * spacing - 2.5
    vals = np.zeros((4, n, n, n, n))
    e_vec = np.array([0.5, -0.2, 0.1])
    for idx in np.ndindex((n,) * 4):
        x = np.array([axes[k] for k in idx])
        vals[(slice(None),) + idx] = [e_vec @ x[1:], 0.0, 0.0, 0.0]
    grid = grid_field(vals, [-2.5] * 4, spacing)
    f_eval = GridFieldStrength(grid)
    want = uniform_electric_f(e_vec)
    for x in (np.zeros(4), np.array([0.13, -0.4, 0.77, 0.21])):
        assert np.allclose(f_eval(x), want, atol=1e-10)
    with pytest.raises(GridBoundaryError):
        f_eval(np.array([0.0, 2.4, 0.0, 0.0]))


def loop_field_strength_evaluator(grid):
    """Slow oracle for GridFieldStrength: one Python pass over
    the 16 corners per query, computing only corners of nonzero weight."""
    cache = {}
    shape = grid.shape[1:]

    def f_at_node(idx):
        if idx not in cache:
            if any(i < 2 or i >= s - 2 for i, s in zip(idx, shape)):
                raise GridBoundaryError(f"stencil at node {idx} leaves grid")
            cache[idx] = np.asarray(field_strength_em(grid, idx))
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


def numpy_field_strength_evaluator(grid):
    """The numpy evaluator the scalar one replaced, a second oracle: each
    query sums the (16, 4, 4) stack of corner F with np.add.reduce from 0.0,
    over the corners of nonzero weight."""
    nodes = {}
    shape = grid.shape[1:]
    corners = np.array(list(np.ndindex((2,) * 4)))

    def f_at_node(idx):
        if idx not in nodes:
            if any(i < 2 or i >= s - 2 for i, s in zip(idx, shape)):
                raise GridBoundaryError(f"stencil at node {idx} leaves grid")
            nodes[idx] = np.asarray(field_strength_em(grid, idx))
        return nodes[idx]

    def evaluate(x):
        rel = [(xi - oi) / grid.spacing for xi, oi in zip(map(float, x), grid.origin)]
        base = [math.floor(r) for r in rel]
        wt = [1.0]
        for r, b in zip(rel, base):
            frac = r - b
            wt = [w * v for w in wt for v in (1.0 - frac, frac)]
        live = np.flatnonzero(wt)
        blk = np.stack([f_at_node(tuple(idx)) for idx in (base + corners[live]).tolist()])
        return np.add.reduce(np.array(wt)[live][:, None, None] * blk, axis=0, initial=0.0)

    return evaluate


def random_grid_arrays(seed, dyadic, n=7):
    """(values, origin, spacing) of a grid of non-polynomial values, so every
    corner weight matters.

    With `dyadic`, origin and spacing are exact binary fractions, so a
    query built on a node resolves to that node exactly."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((4, n, n, n, n)) + np.sin(7.0 * rng.random((4, n, n, n, n)))
    if dyadic:
        return vals, rng.integers(-24, 24, 4) / 8.0, float(2.0 ** rng.integers(-3, 2))
    return vals, rng.uniform(-3, 3, 4), float(rng.uniform(0.05, 2.0))


def random_grid(seed, dyadic, n=7):
    return grid_field(*random_grid_arrays(seed, dyadic, n))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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
    fast, slow = GridFieldStrength(grid), loop_field_strength_evaluator(grid)
    reduce = numpy_field_strength_evaluator(grid)
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
        assert same_bits(reduce(x), want)
        assert all(same_bits(fast(query), want) for query in queries)


_signed = st.one_of(st.floats(-2.0, 2.0, allow_nan=False), st.sampled_from([0.0, -0.0]))


@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([(0, 1, 2, 3), (0,), (1, 3), ()]),
       st.lists(_point, min_size=1, max_size=6), st.lists(_signed, min_size=4, max_size=4),
       st.sampled_from([1.0, 0.0, -0.0, 0.7, -3.0]), st.floats(-2.0, 2.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
@example(0, True, (0, 1, 2, 3), [[4.0, 3.25, 2.5, 3.75], [3.0, 3.0, 3.0, 3.0]],
         [-0.0, 0.0, -0.0, -0.0], -0.0, 1.5)
@example(0, False, (1, 3), [[2.5, 2.5, 2.5, 2.5]], [1.2, -0.0, 0.3, 0.0], 0.7, -1.1)
@example(0, False, (), [[2.5, 2.5, 2.5, 2.5]], [-0.0, 0.0, -0.0, 0.0], -3.0, 1.5)
def test_grid_kernel_matches_the_evaluator_rows_bitwise(seed, dyadic, varying, points, u,
                                                         kappa, qm):
    """The fused RK4 force is qm (kappa F) u with F's rows contracted in the
    pinned order, kappa F formed entry by entry unless kappa is 1.0: in
    cells, on node layers (zero weights), and with the signs of zeros kept,
    also where only the g_mu in varying are nonzero."""
    vals, origin, spacing = random_grid_arrays(seed, dyadic)
    vals[[mu for mu in range(4) if mu not in varying]] = 0.0
    grid = grid_field(vals, origin, spacing)
    field = GridFieldStrength(grid)
    accel = field.kernel(qm, kappa)
    u0, u1, u2, u3 = u
    for coords in points:
        x = tuple((grid.origin + grid.spacing * np.array(coords)).tolist())
        try:
            f = field(x)
        except GridBoundaryError:
            with pytest.raises(GridBoundaryError):
                accel(*x, *u)
            continue
        rows = f if kappa == 1.0 else [[kappa * v for v in row] for row in f]
        want = [qm * ((a0 * u0 + a2 * u2) + (a1 * u1 + a3 * u3)) for a0, a1, a2, a3 in rows]
        assert same_bits(accel(*x, *u), want)


@pytest.mark.parametrize("components", [(), (0,), (1, 3)], ids=["zero", "g0", "g1-g3"])
def test_grid_evaluator_keeps_the_signs_of_zeros(components):
    """Where only some g_mu vary, whole blocks of F are zero at every node;
    the interpolated zeros have the bits of the oracles' +0.0 sums."""
    vals, origin, spacing = random_grid_arrays(7, True)
    vals[[mu for mu in range(4) if mu not in components]] = 0.0
    grid = grid_field(vals, origin, spacing)
    fast, slow = GridFieldStrength(grid), loop_field_strength_evaluator(grid)
    for coords in ([2.5, 3.25, 2.75, 3.5], [3.0, 2.5, 3.5, 2.25], [4.0, 4.0, 2.0, 3.0]):
        x = grid.origin + grid.spacing * np.array(coords)
        assert same_bits(fast(x), slow(x))


def test_grid_evaluator_on_last_safe_layer():
    n = 7
    grid = random_grid(11, True, n)
    fast, slow = GridFieldStrength(grid), loop_field_strength_evaluator(grid)
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
    f_eval = GridFieldStrength(grid)
    rng = np.random.default_rng(1)
    for _ in range(50):  # all inside the cell based at node (2, 3, 2, 3)
        f_eval(grid.origin + grid.spacing * (np.array([2, 3, 2, 3]) + rng.uniform(0.1, 0.9, 4)))
    assert len(calls) == 16 and len(set(calls)) == 16
    f_eval(grid.origin + grid.spacing * np.array([3.5, 3.5, 2.5, 3.5]))  # next cell along x0
    assert len(calls) == 24
    # a fresh cell first met on a node layer: only its 8 corners of nonzero
    # weight are computed, and interior queries later add the other 8
    calls.clear()
    grid = random_grid(5, True)  # dyadic, so the query lands on the layer exactly
    f_eval = GridFieldStrength(grid)
    f_eval(tuple(grid.origin + grid.spacing * np.array([3.0, 2.5, 3.25, 2.75])))
    assert len(calls) == 8 and {c[0] for c in calls} == {3}
    for _ in range(20):
        f_eval(tuple(grid.origin + grid.spacing * (np.array([3, 2, 3, 2]) + rng.uniform(0.1, 0.9, 4))))
        assert len(calls) == 16
    assert len(set(calls)) == 16


def test_grid_evaluator_names_a_non_finite_query():
    f_eval = GridFieldStrength(grid_field(np.zeros((4, 7, 7, 7, 7)), [0.0] * 4, 1.0))
    for query, rel in (((math.nan, 0.0, 3.0, 3.0), r"\[nan, 0\.0, 3\.0, 3\.0\]"),
                       ((3.0, 3.0, -math.inf, 3.0), r"\[3\.0, 3\.0, -inf, 3\.0\]")):
        with pytest.raises(GridBoundaryError, match=rf"^query {rel} is not a finite grid position$"):
            f_eval(query)


def test_grid_boundary_error():
    grid = grid_field(np.zeros((4, 6, 6, 6, 6)), [0.0] * 4, 0.5)
    with pytest.raises(GridBoundaryError, match=r"^stencil at node \(0, 1, 1, 1\) leaves "
                       r"grid of shape \(6, 6, 6, 6\)$"):
        grid.jacobian((0, 1, 1, 1))


def node_values(vals, origin, spacing):
    """g at the grid node x, so that MetricField steps through the numpy grid."""

    def values(x):
        rel = (np.asarray(x, dtype=float) - origin) / spacing
        idx = np.rint(rel).astype(int)
        assert np.max(np.abs(rel - idx)) <= 1e-9
        return vals[(slice(None),) + tuple(idx)]

    return values


@given(st.integers(0, 2**32 - 1), st.booleans(), st.tuples(*[st.integers(2, 4)] * 4))
@settings(max_examples=60, deadline=None)
def test_grid_jacobian_bit_equal_to_generic_stencil(seed, dyadic, node):
    # the node-index stencil against MetricField.jacobian, which steps x and
    # resolves every sample to a node of the numpy grid
    vals, origin, spacing = random_grid_arrays(seed, dyadic)
    x = origin + spacing * np.array(node, dtype=float)
    generic = MetricField(node_values(vals, origin, spacing), step=spacing)
    assert same_bits(grid_field(vals, origin, spacing).jacobian(node), generic.jacobian(x))


def test_grid_layout_c_and_fortran_give_the_same_jacobian():
    vals, origin, spacing = random_grid_arrays(3, True)
    c_order = grid_field(vals, origin, spacing)
    fortran = GridMetricField(vals.ravel(order="F").tolist(), vals.shape, origin, spacing, True)
    for node in ((2, 2, 2, 2), (4, 3, 2, 4), (3, 4, 4, 2)):
        assert same_bits(fortran.jacobian(node), c_order.jacobian(node))


def npy_values(rng, dtype, shape):
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        return (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=shape, endpoint=True,
                        dtype=dtype.newbyteorder("=")).astype(dtype)


@given(st.sampled_from(["<f8", ">f8", "<f4", ">f4", "<i8", ">i8", "<i4", ">i4", "|u1"]),
       st.sampled_from(["<f8", ">f4", "<i4", "|u1"]), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1), st.lists(st.integers(1, 9), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
@example("<f8", "<f8", False, False, 0, [9, 9, 9, 9])  # paged: 12 full pages, then 417 doubles
@example("<f8", "<f8", True, False, 1, [4, 8, 8, 4])  # paged: 2 pages
def test_read_npz_matches_np_load(dtype, spacing_dtype, fortran, compressed, seed, shape):
    """Through a file-like object and through a path: a stored native float64 g
    of more than one page (up to 13 of 512 doubles) is paged from the path,
    all else read whole."""
    rng = np.random.default_rng(seed)
    g = npy_values(rng, dtype, shape)
    arrays = {"g": np.asfortranarray(g) if fortran else g,
              "spacing": npy_values(rng, spacing_dtype, ())}  # 0-d
    buf = io.BytesIO()
    (np.savez_compressed if compressed else np.savez)(buf, **arrays, other=np.arange(3))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.npz")
        with open(path, "wb") as fh:
            fh.write(buf.getvalue())
        with zipfile.ZipFile(path) as zf:
            big = zf.getinfo("g.npy").file_size > 4096  # more than one page
        for source in (io.BytesIO(buf.getvalue()), path):
            got = npz.read_npz(source, ("spacing", "g"))
            assert sorted(got) == ["g", "spacing"]
            with np.load(source) as loaded:
                for name, (values, shape_read, fortran_read) in got.items():
                    want = loaded[name]
                    assert shape_read == want.shape
                    read = np.asarray(values, dtype=float).reshape(
                        want.shape, order="F" if fortran_read else "C")
                    assert same_bits(read, want.astype(float))
            native = np.dtype(dtype) == np.dtype("=f8")
            paged = native and not compressed and source is path and big
            assert isinstance(got["g"][0], npz.PagedArray) == paged
            assert isinstance(got["g"][0], memoryview) == (native and not paged)  # in place
            assert not isinstance(got["spacing"][0], npz.PagedArray)
            if paged:
                got["g"][0].close()


def test_a_paged_array_is_bounded_and_reads_no_page_once_closed(tmp_path):
    np.savez(tmp_path / "a.npz", g=np.arange(1000.0))  # one page of 512 doubles, then 488

    def paged():
        (values, shape, _), = npz.read_npz(str(tmp_path / "a.npz"), ("g",)).values()
        assert isinstance(values, npz.PagedArray) and shape == (1000,)
        return values

    g = paged()
    assert g[999] == 999.0 and list(g) == list(range(1000))
    for i in (-1, 1000, 1024):
        with pytest.raises(IndexError):
            g[i]
    g = paged()
    assert g[0] == 0.0 and g[600] == 600.0  # both pages read
    g.close()
    for i in (0, 600, 999):  # a page read before close() too
        with pytest.raises(ValueError, match="closed"):
            g[i]


def test_a_node_whose_field_is_not_finite_is_an_error():
    """The diagonal of F at a node is d_mu g_mu - d_mu g_mu, NaN when d_mu g_mu
    is infinite; the evaluator stops there instead of interpolating it."""
    vals = np.zeros((4, 7, 7, 7, 7))
    vals[1, 4, 6, 4, 4] = np.inf  # d_1 g_1 at node (4, 4, 4, 4) is infinite
    f_eval = GridFieldStrength(grid_field(vals, [0.0] * 4, 1.0))
    assert same_bits(f_eval((2.5, 2.5, 2.5, 2.5)), np.zeros((4, 4)))  # a cell away from it
    with pytest.raises(ValueError, match=r"node \(4, 4, 4, 4\) is not finite"):
        f_eval((4.0, 4.0, 4.0, 4.0))


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
    lam = table(traj)[-1, 0]
    assert np.allclose(table(traj)[-1, 1:5], np.array(state.u) * lam, atol=1e-12)
    assert traj.meta["eta_drift"] == 0.0


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
    xs = table(traj)[:, 2]  # x1
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
        lam = table(traj)[-1, 0]
        exact_x = np.array(
            [
                gamma * lam,
                gamma * v / omega * math.sin(omega * lam),
                gamma * v / omega * (math.cos(omega * lam) - 1.0),
                0.0,
            ]
        )
        errs.append(np.max(np.abs(table(traj)[-1, 1:5] - exact_x)))
    order = math.log2(errs[0] / errs[1])
    assert 3.7 <= order <= 4.3


def test_eta_norm_conservation_electric():
    f = uniform_electric_f([0.5, 0.0, 0.0])
    state = ParticleState(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), 1.0, 1.0)
    traj = integrate_lorentz(state, lambda x: f, 1e-3, 10_000)
    assert traj.meta["eta_drift"] <= 1e-9
    # hyperbolic motion: u0 = cosh(a lam), u1 = sinh(a lam)
    lam, u0, u1 = table(traj)[-1, [0, 5, 6]]
    assert abs(u0 - math.cosh(0.5 * lam)) < 1e-9
    assert abs(u1 - math.sinh(0.5 * lam)) < 1e-9


def numpy_eta_drift(traj):
    """Trajectory.eta_drift before it moved into the RK4 loop: the oracle."""
    us = table(traj)[:, 5:]
    with np.errstate(over="ignore", invalid="ignore"):
        norms = -us[:, 0] ** 2 + np.sum(us[:, 1:] ** 2, axis=1)
        return float(np.max(np.abs(norms - norms[0])))


@pytest.mark.parametrize("e, u0, steps", [
    (0.5, [1.0, 0.0, 0.0, 0.0], 2000),
    (-1.3, [1.2, 0.3, -0.4, 0.5], 500),
    (0.0, [-0.0, 0.0, -0.0, 0.0], 3),
    (100.0, [1.0, 0.0, 0.3, 0.0], 400),  # u0 u0 overflows to inf, then u1 u1 too: NaN
    (0.0, [1e200, 1e200, 0.0, 0.0], 3),  # NaN from the first sample on
], ids=["electric", "mixed", "zeros", "overflow-midway", "overflow-at-start"])
def test_eta_drift_matches_the_numpy_formula(e, u0, steps):
    f = uniform_electric_f([e, 0.2 * e, 0.0])
    state = ParticleState([0.1, -0.2, 0.3, 0.05], u0, 0.9, 0.8)
    traj = integrate_lorentz(state, lambda x: f, 0.01, steps)
    got, want = traj.meta["eta_drift"], numpy_eta_drift(traj)
    assert same_bits(got, want) or (math.isnan(got) and math.isnan(want))
    if e == 100.0:
        assert math.isnan(got) and np.all(np.isfinite(table(traj)))


def test_non_finite_detection():
    state = ParticleState(np.zeros(4), np.array([1.0, 0, 0, 0]), 1.0, 1.0)
    huge = [[1e200] * 4] * 4
    with pytest.raises(FloatingPointError) as err:
        integrate_lorentz(state, lambda x: huge, 10.0, 5)
    assert "step" in str(err.value)


BLOCK = dynamics.BLOCK_STEPS  # RK4 steps per emitted block


@pytest.mark.parametrize("steps", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK,
                                   4 * BLOCK - 1, 4 * BLOCK, 4 * BLOCK + 1, 8 * BLOCK, 3000])
def test_emit_receives_every_row_once_in_blocks(steps):
    """emit gets block after block of BLOCK_STEPS steps (the first one also
    holds the initial row), then the partial rest: together, the table of
    the same run without emit."""
    f = uniform_magnetic_f([0.3, -0.7, 1.1])
    state = ParticleState([0.1, -0.2, 0.3, 0.05], [1.2, 0.3, -0.4, 0.5], 0.9, 1.3)
    blocks = []
    traj = integrate_lorentz(state, lambda x: f, 0.01, steps, lambda b: blocks.append(list(b)))
    kept = integrate_lorentz(state, lambda x: f, 0.01, steps)
    assert 3000 % BLOCK and 3000 > 2 * BLOCK  # the last case ends on a partial block
    sizes = [min(BLOCK, steps - k) for k in range(0, steps, BLOCK)] or [0]
    sizes[0] += 1  # the initial row
    assert [len(b) // 9 for b in blocks] == sizes
    assert [v for b in blocks for v in b] == [v for row in kept.table.tolist() for v in row]
    assert traj.meta == kept.meta


def test_emit_run_keeps_one_block_and_no_table():
    """A streamed run empties its sample array after each block: a
    40,000-step run (2.9 MB of samples) peaks at about one block, BLOCK_STEPS
    + 1 rows of 9 doubles (18.5 KB at 256 steps)."""
    f = uniform_magnetic_f([0.3, -0.7, 1.1])
    state = ParticleState([0.1, -0.2, 0.3, 0.05], [1.2, 0.3, -0.4, 0.5], 0.9, 1.3)
    rows = []
    tracemalloc.start()
    try:
        traj = integrate_lorentz(state, lambda x: f, 0.001, 40_000,
                                 lambda b: rows.append(len(b) // 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2e6
    assert sum(rows) == len(traj) == 40_001 and traj.table is None


def test_emit_gets_only_finished_blocks_of_a_run_that_stops():
    """The state turns non-finite in the third block; emit saw two."""
    state = ParticleState([0.0] * 4, [1.0, 0.0, 0.0, 0.0], 1.0, 1.0)

    def f_eval(x):  # a field switched on at lambda = 0.01 * 2.5 BLOCK, mid third block
        return [[1e200] * 4] * 4 if x[0] > 0.025 * BLOCK else [[0.0] * 4] * 4

    seen = []
    with pytest.raises(FloatingPointError):
        integrate_lorentz(state, f_eval, 0.01, 5000, lambda b: seen.append(len(b) // 9))
    assert 5000 > 3 * BLOCK and seen == [BLOCK + 1, BLOCK]


def test_emit_must_release_its_view():
    """The sample array is emptied after emit returns, so a view kept past
    that call stops the run."""
    f = uniform_magnetic_f([0.3, -0.7, 1.1])
    state = ParticleState([0.1, -0.2, 0.3, 0.05], [1.2, 0.3, -0.4, 0.5], 0.9, 1.3)
    kept = []
    with pytest.raises(BufferError):
        integrate_lorentz(state, lambda x: f, 0.01, 2000, kept.append)


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
    """I = i0 X_12: the Wong run is the Lorentz run of charge q i0."""
    f_scalar = uniform_magnetic_f([0.0, 0.0, 1.0])
    i0 = 0.7
    v = 0.01
    gamma = 1.0 / math.sqrt(1 - v * v)
    u0 = np.array([gamma, gamma * v, 0.0, 0.0])
    sw = ParticleState(np.zeros(4), u0, 1.0, 1.0)
    sl = ParticleState(np.zeros(4), u0, 1.0, 1.0 * i0)
    tw = integrate_wong(sw, lambda x: f_scalar, i0, 0.01, 1500)
    tl = integrate_lorentz(sl, lambda x: f_scalar, 0.01, 1500)
    assert np.max(np.abs(table(tw)[:, 1:] - table(tl)[:, 1:])) <= 1e-12


def test_wong_zero_charge_is_geodesic():
    f = uniform_magnetic_f([0, 0, 1.0])
    state = ParticleState(np.zeros(4), np.array([1.0, 0.2, 0.0, 0.0]), 1.0, 1.0)
    traj = integrate_wong(state, lambda x: f, 0.0, 0.05, 100)
    lam, *x = table(traj)[-1, :5]
    assert np.allclose(x, np.array(state.u) * lam, atol=1e-12)


def test_wong_commuting_field_effective_charge():
    f_scalar = uniform_magnetic_f([0.0, 0.0, 2.0])
    i0 = 0.5
    v = 0.02
    gamma = 1.0 / math.sqrt(1 - v * v)
    u0 = np.array([gamma, gamma * v, 0.0, 0.0])
    sw = ParticleState(np.zeros(4), u0, 1.0, 1.0)
    tw = integrate_wong(sw, lambda x: f_scalar, i0, 0.01, 1000)
    sl = ParticleState(np.zeros(4), u0, 1.0, i0)
    tl = integrate_lorentz(sl, lambda x: f_scalar, 0.01, 1000)
    assert np.max(np.abs(table(tw)[:, 1:5] - table(tl)[:, 1:5])) <= 1e-12


@pytest.mark.parametrize("value", [0.7, -0.7, 5e-324, 1e308, -1e308, 0.0, -0.0])
def test_wong_charge_contracts_to_its_value_exactly(value):
    """The force is that of the Lorentz law in kappa F, bit for bit, with
    kappa = -sum_{k<l} X_kl I_lk summed from 0.0 for I = value X: value, also
    past half the largest float, or -0.0 for value = +-0.0."""
    f = uniform_magnetic_f([0.3, -0.7, 0.5])
    kappa, q = (value, -min(1.3, 1.3 / abs(value))) if value else (-0.0, -1.3)
    # zeros keep their sign; at u = -0 the sign of kappa's zero shows in the rows
    for u0 in ([1.2, 0.3, -0.4, 0.5], [-0.0, -0.0, 0.3, -0.0], [-0.0] * 4):
        state = ParticleState([0.1, -0.2, 0.3, 0.05], u0, 0.9, q)
        want = numpy_integrate(state, lambda x: kappa * np.asarray(f), 0.01, 20)
        got = integrate_wong(state, lambda x: f, value, 0.01, 20)
        assert got.table.tobytes() == want.tobytes()


class CountingRows:
    """A field value that counts how often its rows are read."""

    def __init__(self, f):
        self.f, self.reads = f, 0

    def __iter__(self):
        self.reads += 1
        return iter(self.f)


def test_a_uniform_field_is_converted_once_per_run():
    """Wong forms kappa F once per F object; Lorentz (kappa = 1) reads F's
    rows as they are, at every stage."""
    f = uniform_magnetic_f([0.3, -0.7, 1.1])
    counting = CountingRows(f)
    state = ParticleState([0.1, -0.2, 0.3, 0.05], [1.2, 0.3, -0.4, 0.5], 0.9, 1.3)
    for integrate, args, reads in ((integrate_lorentz, (), 4 * 50), (integrate_wong, (0.7,), 1)):
        counting.reads = 0
        traj = integrate(state, lambda x: counting, *args, 0.01, 50)
        assert counting.reads == reads
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
    assert len(traj) == 501 and table(traj).shape == (501, 9)
    # F is read once per object: the same rows every call and a fresh copy
    # every call give the same bytes
    fresh = integrate_lorentz(state, lambda x: [list(row) for row in f], 0.01, 500)
    assert fresh.table.tobytes() == traj.table.tobytes()


def test_field_is_called_with_a_tuple_of_four_floats():
    f, seen = uniform_magnetic_f([0.3, -0.7, 1.1]), []

    def recording(x):
        seen.append(x)
        return f

    state = ParticleState([0.1, -0.2, 0.3, 0.05], [1.2, 0.3, -0.4, 0.5], 0.9, 1.3)
    integrate_lorentz(state, recording, 0.01, 5)
    assert len(seen) == 4 * 5
    integrate_wong(state, recording, 0.7, 0.01, 5)
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


def test_grid_trajectories_bit_equal_to_the_corner_loop():
    """Both force laws, driven by the grid evaluator and by the corner-loop
    oracle, give the same tables.  The start is on a node layer of axes 0 and
    3, and the runs cross cells on every axis."""
    vals, origin, _ = random_grid_arrays(21, True, 10)
    grid = grid_field(0.05 * vals, origin, 0.25)  # stencil-safe in [2, 7] nodes
    x0 = tuple(grid.origin + grid.spacing * np.array([2.0, 4.5, 4.25, 5.0]))
    u0 = (1.25, 0.5, -0.5, 0.375)
    state = ParticleState(x0, u0, 0.9, 1.1)
    for run in (lambda f: integrate_lorentz(state, f, 2.0**-6, 48),
                lambda f: integrate_wong(state, f, 0.75, 2.0**-6, 48)):
        fast = run(GridFieldStrength(grid))
        assert same_bits(fast.table, run(loop_field_strength_evaluator(grid)).table)
        cells = np.floor((table(fast)[:, 1:5] - grid.origin) / grid.spacing)
        assert all(len(set(axis)) >= 2 for axis in cells.T)


def oracle_grid(seed):
    """A 9^4 random grid whose F is of order 0.2, and a start in its middle.

    The stencil is safe for positions in [2, 6] nodes on each axis.  x^0
    only grows (u^0 >= 1 on a timelike path), so it starts at 2.5-3.5 nodes
    and the space coordinates at 3.5-4.5.  Over seeds 0-1,499, 100 steps of
    either law moved x^0 at most 1.4 nodes and a space coordinate at most
    0.9, so every trajectory stayed within 2.5-5.1 nodes."""
    vals, origin, spacing = random_grid_arrays(seed, False, 9)
    grid = grid_field(0.2 * spacing * vals, origin, spacing)
    rng = np.random.default_rng(seed)
    x0 = grid.origin + grid.spacing * (rng.uniform(3.5, 4.5, 4) - [1, 0, 0, 0])
    u0 = np.concatenate([[1.0], rng.uniform(-0.3, 0.3, 3)])
    return grid, x0, u0


@given(st.integers(0, 2**32 - 1))
@example(64)  # left the grid from a start at 4.44 nodes in time
@settings(max_examples=10, deadline=None)
def test_scalar_rk4_matches_numpy_oracle_on_a_grid(seed):
    """Rows of a grid F have three nonzero entries, so the matvec order shows."""
    grid, x0, u0 = oracle_grid(seed)
    f_eval = GridFieldStrength(grid)
    dlam, n = 0.01 * grid.spacing, 100  # about one node along x0
    state = ParticleState(x0, u0, 0.8, 1.2)
    want = numpy_integrate(state, f_eval, dlam, n)
    assert np.array_equal(integrate_lorentz(state, f_eval, dlam, n).table, want)
    gen, i0 = x12(3), 0.7

    def feff(x):  # the 4-index contraction of F (x) gen against I = i0 gen
        f = np.asarray(f_eval(x))
        return -0.5 * np.einsum("mnij,ji->mn", f[:, :, None, None] * gen, i0 * gen)

    assert np.array_equal(integrate_wong(state, f_eval, i0, dlam, n).table,
                          numpy_integrate(state, feff, dlam, n))


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.7, -3.0, -0.0]))
@settings(max_examples=10, deadline=None)
def test_grid_wong_run_with_kappa_not_one_bit_equal_to_numpy_oracle(seed, value):
    """The fused kernel's kappa F, against numpy RK4 on kappa times the
    evaluator's F, byte for byte (so zeros keep their signs)."""
    grid, x0, u0 = oracle_grid(seed)
    f_eval = GridFieldStrength(grid)
    dlam, n = 0.01 * grid.spacing, 100
    state = ParticleState(x0, u0, 0.8, 1.2)
    want = numpy_integrate(state, lambda x: value * np.asarray(f_eval(x)), dlam, n)
    assert integrate_wong(state, f_eval, value, dlam, n).table.tobytes() == want.tobytes()
