from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinlab import (DomainError, FrostmanMeasure, build_cutoffs,
                    build_product_cantor, monge_ampere_det, natural_measure,
                    nondegeneracy_scan, phase_function, uniform_grid_measure)
from pinlab.phases import (SphereGeodesicChart, bordered_matrix,
                           monge_ampere_det_many, pairwise_value, torus_wrap)
from pinlab import rng as rng_module
from pinlab.rng import rng_for

KINDS = [("euclidean", {}), ("scaled_euclidean", {"factor": 3.0}),
         ("dot_product", {}), ("flat_torus", {}),
         ("sphere_geodesic_chart", {})]

# frozen per-kind |MA determinant| floors over pairs with |phi| >= 0.1
# (tabulated from the seeded scan below, then rounded down)
MA_FLOORS = {"euclidean": 0.5, "scaled_euclidean": 1.5, "dot_product": 0.09,
             "flat_torus": 1.2, "sphere_geodesic_chart": 0.9}


def random_pairs(phi, kind, n, seed):
    rng = rng_for(seed, 0)
    lo, hi = (0.25, 0.75) if kind == "sphere_geodesic_chart" else (0.05, 0.95)
    X = rng.uniform(lo, hi, size=(n, phi.dimension_d))
    Y = rng.uniform(lo, hi, size=(n, phi.dimension_d))
    return X, Y


def test_forbidden_sets():
    pe = phase_function("euclidean", 2)
    x = np.array([0.3, 0.4])
    assert pe.evaluate(x, x).forbidden
    assert not pe.evaluate(x, x + 0.1).forbidden

    ps = phase_function("scaled_euclidean", 2, factor=3.0)
    y = np.array([0.1, 0.2])
    assert ps.evaluate(3.0 * y, y).forbidden
    assert not ps.evaluate(3.0 * y + 0.05, y).forbidden

    pd = phase_function("dot_product", 2)
    assert pd.evaluate(np.zeros(2), y).forbidden
    assert pd.evaluate(y, np.zeros(2)).forbidden
    ev = pd.evaluate(x, y)
    assert not ev.forbidden
    assert np.allclose(ev.grad_x, y) and np.allclose(ev.grad_y, x)
    assert np.allclose(ev.mixed_hessian, np.eye(2))


def test_dot_product_determinant_symbolic():
    for d in (2, 3):
        phi = phase_function("dot_product", d)
        rng = rng_for(3, d)
        for _ in range(1000):
            x = rng.uniform(-1, 1, size=d)
            y = rng.uniform(-1, 1, size=d)
            if phi.forbidden(x, y):
                continue
            det = monge_ampere_det(phi, x, y)
            assert det == pytest.approx(float(x @ y), rel=1e-8, abs=1e-12)


def test_euclidean_determinant_reference_pair():
    phi = phase_function("euclidean", 2)
    # closed form (-1)^d r^-(d-1): equals 1 at r = 1, d = 2
    assert monge_ampere_det(phi, np.array([0.0, 0.0]),
                            np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    x, y = np.array([0.1, 0.8]), np.array([0.7, 0.3])
    r = float(np.hypot(*(x - y)))
    assert monge_ampere_det(phi, x, y) == pytest.approx(1.0 / r, rel=1e-12)


def test_determinant_on_forbidden_raises():
    phi = phase_function("euclidean", 2)
    with pytest.raises(DomainError):
        monge_ampere_det(phi, np.array([0.2, 0.2]), np.array([0.2, 0.2]))


@pytest.mark.parametrize("kind,params", KINDS)
def test_determinant_vs_finite_differences(kind, params):
    phi = phase_function(kind, 2, **params)
    X, Y = random_pairs(phi, kind, 40, seed=8)
    h = 1e-5
    checked = 0
    for x, y in zip(X, Y):
        if phi.forbidden(x, y) or abs(float(phi.value(x, y))) < 0.1:
            continue
        gx = np.zeros(2)
        gy = np.zeros(2)
        hess = np.zeros((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            gx[i] = (phi.value(x + e, y) - phi.value(x - e, y)) / (2 * h)
            gy[i] = (phi.value(x, y + e) - phi.value(x, y - e)) / (2 * h)
            for j in range(2):
                f = np.zeros(2)
                f[j] = h
                hess[i, j] = (phi.value(x + e, y + f) - phi.value(x + e, y - f)
                              - phi.value(x - e, y + f) + phi.value(x - e, y - f)) / (4 * h * h)
        det_fd = float(np.linalg.det(bordered_matrix(gx, gy, hess)))
        det = monge_ampere_det(phi, x, y)
        assert det == pytest.approx(det_fd, rel=1e-5)
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("kind,params", KINDS)
def test_gradient_consistency(kind, params):
    """Analytic gradients match centered differences, h = 1e-4, with one
    Richardson refinement when the plain stencil misses the bound."""
    phi = phase_function(kind, 2, **params)
    X, Y = random_pairs(phi, kind, 1000, seed=5)
    h = 1e-4
    checked = 0
    for x, y in zip(X, Y):
        if phi.forbidden(x, y) or float(np.asarray(phi.forbidden_distance(x, y))) < 0.05:
            continue
        ana = np.concatenate([np.asarray(phi.grad_x(x, y)), np.asarray(phi.grad_y(x, y))])

        def stencil(step):
            g = np.zeros(4)
            for i in range(2):
                e = np.zeros(2)
                e[i] = step
                g[i] = (phi.value(x + e, y) - phi.value(x - e, y)) / (2 * step)
                g[2 + i] = (phi.value(x, y + e) - phi.value(x, y - e)) / (2 * step)
            return g

        err = np.abs(ana - stencil(h)).max()
        if err > 10 * h * h:
            rich = (4.0 * stencil(h / 2) - stencil(h)) / 3.0
            err = np.abs(ana - rich).max()
        assert err <= 10 * h * h
        checked += 1
    assert checked >= 500


@pytest.mark.parametrize("kind,params", KINDS)
def test_ma_determinant_floor(kind, params):
    phi = phase_function(kind, 2, **params)
    X, Y = random_pairs(phi, kind, 1000, seed=13)
    vals = np.asarray(phi.value(X, Y))
    keep = (np.abs(vals) >= 0.1) & ~np.asarray(phi.forbidden(X, Y))
    dets = np.abs(monge_ampere_det_many(phi, X[keep], Y[keep]))
    assert dets.min() >= MA_FLOORS[kind]


def test_flat_torus_reduces_to_euclidean():
    pt = phase_function("flat_torus", 2)
    pe = phase_function("euclidean", 2)
    rng = rng_for(2, 0)
    X = rng.uniform(0.3, 0.7, size=(200, 2))
    Y = rng.uniform(0.3, 0.7, size=(200, 2))
    assert np.allclose(pt.value(X, Y), pe.value(X, Y), atol=1e-15)
    x, y = np.array([0.1, 0.5]), np.array([0.9, 0.5])
    assert float(pt.value(x, y)) == pytest.approx(0.2)


def test_sphere_chart_domain_error():
    ph = phase_function("sphere_geodesic_chart", 2)
    with pytest.raises(DomainError):
        ph.evaluate(np.array([0.99, 0.99]) + 0.5, np.array([0.5, 0.5]))


def test_sphere_distance_against_embedding():
    ph = phase_function("sphere_geodesic_chart", 2)
    x, y = np.array([0.4, 0.55]), np.array([0.67, 0.42])
    px, py = ph._embed(x), ph._embed(y)
    assert np.linalg.norm(px) == pytest.approx(1.0, abs=1e-12)
    assert float(ph.value(x, y)) == pytest.approx(float(np.arccos(px @ py)), abs=1e-12)


def test_build_cutoffs_psi_and_beta():
    phi = phase_function("euclidean", 2)
    cuts = build_cutoffs(phi, (0.25, 0.75), 0.05, (0.1, 1.4))
    x = np.array([0.4, 0.4])
    assert float(cuts.psi(x, x)) == 0.0
    y = np.array([0.55, 0.4])   # |x-y| = 0.15 >= 2 * radius
    assert float(cuts.psi(x, y)) == pytest.approx(1.0)
    assert float(cuts.beta(0.75)) == pytest.approx(1.0)
    assert float(cuts.beta(-1.0)) == 0.0
    assert float(cuts.beta(0.1)) == pytest.approx(1.0)

    with pytest.raises(DomainError):
        build_cutoffs(phi, (0, 1), 0.05, (1.0, 1.0))
    with pytest.raises(DomainError):
        build_cutoffs(phi, (0, 1), 0.0, (0.0, 1.0))


def test_psi_smoothness_second_differences():
    phi = phase_function("euclidean", 2)
    cuts = build_cutoffs(phi, (0.0, 1.0), 0.05, (0.1, 1.0))
    h = 1e-3
    x = np.array([0.4, 0.4])
    second = []
    for t in np.linspace(0.01, 0.2, 60):
        y0 = x + np.array([t, 0.0])
        ym = x + np.array([t - h, 0.0])
        yp = x + np.array([t + h, 0.0])
        second.append((float(cuts.psi(x, yp)) - 2 * float(cuts.psi(x, y0))
                       + float(cuts.psi(x, ym))) / h ** 2)
    assert np.all(np.isfinite(second))
    assert np.abs(second).max() < 1e4


def test_nondegeneracy_scan_euclidean_cantor():
    mu = natural_measure(build_product_cantor(2, 1 / 3, 4))
    phi = phase_function("euclidean", 2)
    res = nondegeneracy_scan(phi, mu, 4000, tolerance=1e-9, seed=3, exclude_self=True)
    assert res.forbidden_mass_estimate == 0.0
    assert res.min_grad_norm == pytest.approx(1.0, abs=1e-12)


def test_nondegeneracy_scan_dot_product_box():
    grid = uniform_grid_measure(2, 16)
    mu = FrostmanMeasure(0.5 + 0.5 * grid.points, grid.weights, exponent_s=2.0)
    phi = phase_function("dot_product", 2)
    res = nondegeneracy_scan(phi, mu, 4000, tolerance=0.25, seed=4)
    assert res.forbidden_mass_estimate == 0.0
    assert res.min_grad_norm >= 0.5


def test_nondegeneracy_scan_atom_diagonal():
    # an atom of mass 0.3 on top of a finely divided 0.7: the pair lands on
    # the euclidean diagonal with probability 0.3^2 (plus a negligible term)
    rng = rng_for(1, 1)
    fine = rng.uniform(0.05, 0.95, size=(1000, 2))
    pts = np.vstack([[[0.5, 0.5]], fine])
    w = np.concatenate([[0.3], np.full(1000, 0.7 / 1000)])
    mu = FrostmanMeasure(pts, w, exponent_s=0.0)
    phi = phase_function("euclidean", 2)
    res = nondegeneracy_scan(phi, mu, 60000, tolerance=1e-9, seed=6)
    assert res.forbidden_mass_estimate == pytest.approx(0.09, abs=0.006)


@pytest.mark.parametrize("kind, params, diff", [
    ("euclidean", {}, lambda x, y: x - y),
    ("scaled_euclidean", {"factor": 1.7}, lambda x, y: x - 1.7 * y),
    ("flat_torus", {}, lambda x, y: torus_wrap(x - y)),
])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_distance_phases_equal_last_axis_reductions_bitwise(kind, params, diff, d):
    """value sums the squared coordinates one at a time; it must round exactly
    as the reduction over the last axis does, and so must the gradients and
    Hessians built on it."""
    phi = phase_function(kind, d, **params)
    rng = rng_for(5, d)
    X = rng.uniform(-1.5, 1.5, size=(40, 1, d))
    Y = rng.uniform(-1.5, 1.5, size=(1, 30, d))
    w = diff(X, Y)
    r = np.sqrt((w ** 2).sum(axis=-1))
    u = w / r[..., None]
    scale = params.get("factor", 1.0)
    assert np.array_equal(phi.value(X, Y), r)
    assert np.array_equal(phi.grad_x(X, Y), u)
    hess = scale * (u[..., :, None] * u[..., None, :] - np.eye(d)) / r[..., None, None]
    assert np.array_equal(phi.mixed_hessian(X, Y), hess)
    if kind == "flat_torus":
        # pairwise_value reaches the torus through value (euclidean kinds use GEMM)
        assert np.array_equal(pairwise_value(phi, X[:, 0], Y[0]), r)
    x0, y0 = X[0, 0], Y[0, 0]
    assert phi.value(x0, y0) == r[0, 0]


def _yb(x, y):
    return np.broadcast_arrays(x, y)[1]


_embed = SphereGeodesicChart._embed


def _sphere_grad_y(x, y):
    f = (_embed(x) * _embed(y)).sum(axis=-1)
    jf = np.einsum("...kj,...k->...j", SphereGeodesicChart._jacobian(y), _embed(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        return -jf / np.sqrt(np.maximum(1.0 - f ** 2, 0.0))[..., None]


@pytest.mark.parametrize("kind, method, reduction", [
    ("dot_product", "value", lambda x, y: (x * y).sum(axis=-1)),
    ("dot_product", "forbidden",
     lambda x, y: ((x ** 2).sum(axis=-1) == 0.0) | ((y ** 2).sum(axis=-1) == 0.0)),
    ("dot_product", "forbidden_distance",
     lambda x, y: np.minimum(*np.broadcast_arrays(np.sqrt((x ** 2).sum(axis=-1)),
                                                  np.sqrt((_yb(x, y) ** 2).sum(axis=-1))))),
    ("sphere_geodesic_chart", "forbidden_distance",
     lambda x, y: np.sqrt(((x - y) ** 2).sum(axis=-1))),
    ("sphere_geodesic_chart", "_cosine", lambda x, y: (_embed(x) * _embed(y)).sum(axis=-1)),
    ("sphere_geodesic_chart", "value",
     lambda x, y: np.arccos(np.clip((_embed(x) * _embed(y)).sum(axis=-1), -1.0, 1.0))),
    ("flat_torus", "forbidden_distance",
     lambda x, y: np.minimum(np.sqrt((torus_wrap(x - y) ** 2).sum(axis=-1)),
                             (0.5 - np.abs(torus_wrap(x - y))).min(axis=-1))),
    # grad_y is grad_x with the points swapped; these are the formulas it replaced
    ("dot_product", "grad_y", lambda x, y: np.broadcast_arrays(x, y)[0].copy()),
    ("sphere_geodesic_chart", "grad_y", _sphere_grad_y),
])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_dot_and_sphere_methods_equal_last_axis_reductions_bitwise(kind, method, reduction, d):
    """The dot-product, sphere-chart and torus methods also sum coordinate by
    coordinate; each must round exactly as the last-axis reduction does."""
    fn = getattr(phase_function(kind, d), method)
    rng = rng_for(6, d)
    X = rng.uniform(-1.5, 1.5, size=(40, 1, d))
    Y = rng.uniform(-1.5, 1.5, size=(1, 30, d))
    X[3] = 0.0                     # a zero point for the forbidden test
    Y[0, 7, 0] = -0.0
    for x, y in ((X, Y), (X[0, 0], Y), (X[5, 0], Y[0, 2])):
        with np.errstate(invalid="ignore"):     # the sphere's grad_y is 0/0 at coincident points
            got, want = np.atleast_1d(fn(x, y)), np.atleast_1d(reduction(x, y))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


PRE_MERGE = {"euclidean": oracles.Euclidean, "scaled_euclidean": oracles.ScaledEuclidean,
             "flat_torus": oracles.FlatTorus}
COORDS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
                   st.floats(-2.0, 2.0, allow_nan=False))


def _bits(a):
    a = np.asarray(a)
    return a if a.dtype == bool else a.view(np.uint64)


def _pre_merge_pairwise(old, A, B):
    """What `pairwise_value` computed for the pre-merge classes: the GEMM
    expansion for the euclidean kinds, `value` broadcast for the torus."""
    if old.kind == "flat_torus":
        return old.value(A[:, None, :], B[None, :, :])
    Bs = getattr(old, "factor", 1.0) * B
    r2 = (A ** 2).sum(axis=1)[:, None] + (Bs ** 2).sum(axis=1)[None, :]
    r2 -= 2.0 * (A @ Bs.T)
    return np.sqrt(np.maximum(r2, 0.0))


@st.composite
def distance_phase_cases(draw):
    kind, params = draw(st.sampled_from(
        [("euclidean", {}), ("flat_torus", {})]
        + [("scaled_euclidean", {"factor": a}) for a in (1.0, 0.5, -1.7)]))
    d = draw(st.integers(1, 3))
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    X = np.array(draw(st.lists(COORDS, min_size=n * d, max_size=n * d))).reshape(n, d)
    Y = np.array(draw(st.lists(COORDS, min_size=n * d, max_size=n * d))).reshape(n, d)
    same = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    Y[same] = X[same]                     # pairs with x = y
    extra = np.array(draw(st.lists(COORDS, min_size=m * d, max_size=m * d))).reshape(m, d)
    return kind, params, d, X, Y, np.vstack([X, extra])


@settings(max_examples=150)
@given(case=distance_phase_cases())
def test_distance_phases_equal_pre_merge_classes_bitwise(case):
    """The Euclidean-family class reproduces the three classes it replaced bit
    for bit on every map, on paired (n, d) points and broadcast (n, 1, d) x
    (1, m, d) grids; only grad_y's 0/0 at x = y may differ in a NaN's sign."""
    kind, params, d, X, Y, B = case
    new, old = phase_function(kind, d, **params), PRE_MERGE[kind](d, **params)
    with np.errstate(all="ignore"):
        for x, y in ((X, Y), (X[:, None, :], B[None, :, :])):
            for method in ("value", "grad_x", "grad_y", "mixed_hessian",
                           "forbidden", "forbidden_distance"):
                got = np.asarray(getattr(new, method)(x, y))
                want = np.asarray(getattr(old, method)(x, y))
                assert got.shape == want.shape and got.dtype == want.dtype
                keep = np.ones(got.shape, bool)
                if method == "grad_y":
                    keep = ~(np.isnan(got) & np.isnan(want))
                assert np.array_equal(_bits(got)[keep], _bits(want)[keep]), method
        got, want = pairwise_value(new, X, B), _pre_merge_pairwise(old, X, B)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=60)
@given(kind=st.sampled_from(KINDS), d=st.integers(1, 3), n=st.integers(0, 30),
       m=st.integers(0, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_pairwise_value_bits_do_not_depend_on_block(kind, d, n, m, seed):
    """The GEMM kinds form one product over all rows and the value kinds
    broadcast `value` per row block, so no kind's bits move with rng.BLOCK,
    and the value kinds equal the broadcast `value` itself."""
    name, params = kind
    phi = phase_function(name, d, **params)
    rng = np.random.default_rng(seed)
    lo, hi = (0.25, 0.75) if name == "sphere_geodesic_chart" else (0.05, 0.95)
    A, B = rng.uniform(lo, hi, (n, d)), rng.uniform(lo, hi, (m, d))
    outs = []
    for block in (1, 7, 64, rng_module.BLOCK):
        with mock.patch.object(rng_module, "BLOCK", block):
            outs.append(pairwise_value(phi, A, B))
    assert all(o.shape == (n, m) and o.tobytes() == outs[-1].tobytes() for o in outs)
    if name in ("flat_torus", "sphere_geodesic_chart"):
        want = np.asarray(phi.value(A[:, None, :], B[None, :, :]))
        assert want.tobytes() == outs[-1].tobytes()


@pytest.mark.parametrize("n, per_row, sizes", [
    (0, 3, []),
    (10, 3, [10]),
    (20, 7, [9, 9, 2]),
    (3, 100, [1, 1, 1]),     # a row wider than the budget is a block of its own
    (70, 0, [64, 6]),
])
def test_row_blocks_cover_every_row_once(n, per_row, sizes):
    with mock.patch.object(rng_module, "BLOCK", 64):
        blocks = list(rng_module.row_blocks(n, per_row))
    assert [sl.stop - sl.start for sl in blocks] == sizes
    assert [i for sl in blocks for i in range(n)[sl]] == list(range(n))
