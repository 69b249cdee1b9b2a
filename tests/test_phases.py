import numpy as np
import pytest

from pinlab import (DomainError, FrostmanMeasure, build_cutoffs,
                    build_product_cantor, monge_ampere_det, natural_measure,
                    nondegeneracy_scan, phase_function, uniform_grid_measure)
from pinlab.phases import (bordered_matrix, monge_ampere_det_many,
                           pairwise_value, torus_wrap)
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
    mu = uniform_grid_measure(2, 16, 0.5, 1.0)
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


@pytest.mark.parametrize("kind, method, reduction", [
    ("dot_product", "value", lambda x, y: (x * y).sum(axis=-1)),
    ("dot_product", "forbidden",
     lambda x, y: ((x ** 2).sum(axis=-1) == 0.0) | ((y ** 2).sum(axis=-1) == 0.0)),
    ("dot_product", "forbidden_distance",
     lambda x, y: np.minimum(*np.broadcast_arrays(np.sqrt((x ** 2).sum(axis=-1)),
                                                  np.sqrt((_yb(x, y) ** 2).sum(axis=-1))))),
    ("sphere_geodesic_chart", "forbidden_distance",
     lambda x, y: np.sqrt(((x - y) ** 2).sum(axis=-1))),
])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_dot_and_sphere_methods_equal_last_axis_reductions_bitwise(kind, method, reduction, d):
    """The dot-product and sphere-chart methods also sum coordinate by
    coordinate; each must round exactly as the last-axis reduction does."""
    fn = getattr(phase_function(kind, d), method)
    rng = rng_for(6, d)
    X = rng.uniform(-1.5, 1.5, size=(40, 1, d))
    Y = rng.uniform(-1.5, 1.5, size=(1, 30, d))
    X[3] = 0.0                     # a zero point for the forbidden test
    Y[0, 7, 0] = -0.0
    for x, y in ((X, Y), (X[0, 0], Y), (X[5, 0], Y[0, 2])):
        got, want = np.atleast_1d(fn(x, y)), np.atleast_1d(reduction(x, y))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
