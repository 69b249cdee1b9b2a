import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (dense_chain_exact, dense_chain_mc, dense_pinned_density,
                     masked_bump_raw, nested_composed_density)
from scipy.integrate import quad

from pinlab import (BudgetError, ChainDensity, CoverageError, DomainError,
                    FrostmanMeasure, Mollifier, ResolutionError,
                    build_product_cantor, chain_density,
                    circle_measure, cs_lower_bound,
                    density_mass, l2_energy, natural_measure,
                    phase_function, pinned_density, sample_points,
                    support_measure, uniform_grid_measure)
from pinlab import pinned as pinned_module
from pinlab import rng as rng_module
from pinlab.pinned import default_t_grid
from pinlab.profiles import bump_norm_constant, bump_profile, bump_raw
from pinlab.rng import rng_for

PHI = phase_function("euclidean", 2)
SCALED = phase_function("scaled_euclidean", 2, factor=1.7)


def uniform_unit_density(n=801):
    """Synthetic nu: density 1 on [0, 1], zero padding past the ends."""
    dt = 1.0 / (n - 1)
    t = np.arange(-4, n + 4) * dt
    vals = ((t >= 0.0) & (t <= 1.0)).astype(float)
    return PinnedLike(t, vals)


def PinnedLike(t, values):
    """A one-link density on the grid t with the given values."""
    return ChainDensity(0.1, (t,), values, np.zeros(len(t)))


def test_mollifier_profile_constants():
    # unit mass by quadrature, support in [-2, 2], frozen L2 constant
    mass = quad(lambda u: float(bump_profile(u)), -2, 2, limit=200)[0]
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert float(bump_profile(2.0)) == 0.0 and float(bump_profile(-2.1)) == 0.0
    # the stored constants are the floats quad returns, bit for bit
    norm = 1.0 / quad(lambda u: float(bump_raw(u)), -2.0, 2.0, limit=200)[0]
    assert bump_norm_constant().hex() == norm.hex() == "0x1.204ad466d96d8p+0"
    l2 = quad(lambda u: (norm * float(bump_raw(u))) ** 2, -2.0, 2.0, limit=200)[0]
    assert l2.hex() == "0x1.59a8e931b6780p-2"
    moll = Mollifier(0.25)
    mass_eps = quad(lambda u: float(moll(u)), -0.5, 0.5, limit=200)[0]
    assert mass_eps == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(DomainError):
        Mollifier(0.0)


# the support ends, their floating-point neighbours on both sides, and 0
BUMP_EDGES = [2.0, -2.0, 0.0, -0.0] + [np.nextafter(e, to) for e in (2.0, -2.0)
                                       for to in (-np.inf, np.inf)]


@given(u=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                  | st.floats(-2.5, 2.5) | st.sampled_from(BUMP_EDGES), max_size=60))
def test_bump_raw_in_place_matches_masked_bitwise(u):
    u = np.array(u + BUMP_EDGES)
    got, want = bump_raw(u), masked_bump_raw(u)
    assert np.array_equal(got, want)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for x in u[:8]:
        one = bump_raw(x)
        assert type(one) is float and one == masked_bump_raw(x)
    assert np.array_equal(bump_raw(u.reshape(-1, 1)), want.reshape(-1, 1))


def test_circle_density_is_shifted_bump():
    mu = circle_measure(512)
    eps = 2.0 ** -5
    moll = Mollifier(eps)
    nu = pinned_density(mu, PHI, np.array([0.5, 0.5]), moll)
    expected = moll(nu.t_grid - 0.25)
    assert np.allclose(nu.values, expected, atol=1e-12)
    assert density_mass(nu) == pytest.approx(1.0, abs=1e-6)


def test_mass_epsilon_invariance():
    mu = natural_measure(build_product_cantor(2, 1 / 3, 4))
    pin = mu.points[37]
    for eps in [2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6]:
        nu = pinned_density(mu, PHI, pin, Mollifier(eps))
        assert density_mass(nu) == pytest.approx(1.0, abs=1e-6)


def test_annulus_density_monte_carlo_vs_oracle():
    mu = uniform_grid_measure(2, 96)
    pin = np.array([0.5, 0.5])
    eps = 2.0 ** -6
    samples = 200_000
    nu = pinned_density(mu, PHI, pin, Mollifier(eps), mc_samples=samples, seed=21)
    i = int(np.argmin(np.abs(nu.t_grid - 0.25)))
    # oracle: independent brute-force pair counting in a window of width 2 eps
    dist = np.sqrt(((mu.points - pin) ** 2).sum(1))
    frac = float(mu.weights[np.abs(dist - 0.25) <= eps].sum())
    oracle = frac / (2 * eps)
    assert oracle == pytest.approx(2 * np.pi * 0.25, rel=0.05)
    assert nu.values[i] == pytest.approx(oracle, abs=max(3 * nu.stderr[i], 0.05))
    assert density_mass(nu) == pytest.approx(1.0, abs=3e-4)


@st.composite
def random_measures(draw, max_atoms=300, min_atoms=1):
    """Atoms in the unit square with positive weights summing to 1."""
    n = draw(st.integers(min_atoms, max_atoms))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.uniform(0.05, 1.0, n)
    return FrostmanMeasure(rng.uniform(0.0, 1.0, (n, 2)), w / w.sum(), exponent_s=2.0)


PINS = st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)).map(np.array)
EPSILONS = st.sampled_from([2.0 ** -k for k in range(2, 9)])
# small blocks split the windows of a few hundred atoms into many blocks
BLOCKS = st.sampled_from([rng_module.BLOCK, 500])


@given(mu=random_measures(), pin=PINS, eps=EPSILONS,
       divisor=st.sampled_from([2, 3, 5, 16]), block=BLOCKS)
def test_exact_deposition_matches_dense_oracle(mu, pin, eps, divisor, block):
    phi_vals = np.asarray(PHI.value(pin[None, :], mu.points))
    grid = default_t_grid(phi_vals, eps, divisor)
    moll = Mollifier(eps)
    with mock.patch.object(rng_module, "BLOCK", block):
        nu = pinned_density(mu, PHI, pin, moll, t_grid=grid)
    ref, _, _, _ = dense_pinned_density(mu, PHI, pin, moll, t_grid=grid)
    np.testing.assert_allclose(nu.values, ref, rtol=1e-12, atol=0.0)
    assert np.array_equal(nu.values > 0, ref > 0)
    ref_nu = PinnedLike(grid, ref)
    assert support_measure(nu) == support_measure(ref_nu)
    assert np.all(nu.stderr == 0.0) and nu.mass_stderr == 0.0


@given(mu=random_measures(), pin=PINS, eps=EPSILONS,
       samples=st.integers(2, 600), seed=st.integers(0, 10_000), block=BLOCKS)
def test_monte_carlo_deposition_matches_dense_oracle(mu, pin, eps, samples, seed, block):
    moll = Mollifier(eps)
    with mock.patch.object(rng_module, "BLOCK", block):
        nu = pinned_density(mu, PHI, pin, moll, mc_samples=samples, seed=seed)
    ref, ref_se, ref_mass_se, grid = dense_pinned_density(mu, PHI, pin, moll,
                                                          mc_samples=samples, seed=seed)
    assert np.array_equal(nu.t_grid, grid)
    np.testing.assert_allclose(nu.values, ref, rtol=1e-12, atol=0.0)
    assert np.array_equal(nu.values > 0, ref > 0)
    # stderr^2 = (sum w k^2 - values^2) / samples; where every draw puts the
    # same kernel on a node the difference is pure cancellation, a few ulp
    # of values^2, so the variances are compared with that floor
    floor = 1e-12 * float((ref ** 2).max()) / samples
    np.testing.assert_allclose(nu.stderr ** 2, ref_se ** 2, rtol=1e-12, atol=floor)
    # the std of per-draw masses that all lie within ~1e-7 of 1: each mass
    # carries ~1e-16 of rounding, the floor of any comparison
    assert nu.mass_stderr == pytest.approx(ref_mass_se, rel=1e-9, abs=1e-15)


@settings(max_examples=20)
@given(mu=random_measures(max_atoms=3000, min_atoms=1200), pin=PINS, eps=EPSILONS)
def test_exact_deposition_over_default_blocks_matches_dense_oracle(mu, pin, eps):
    # a window of the default grid holds 67 nodes, so BLOCK // 67 = 489
    # rows per block, and 1200 atoms or more fill at least three blocks
    assert rng_module.BLOCK // 67 * 2 < len(mu)
    moll = Mollifier(eps)
    nu = pinned_density(mu, PHI, pin, moll)
    ref, _, _, grid = dense_pinned_density(mu, PHI, pin, moll)
    assert np.array_equal(nu.t_grid, grid)
    np.testing.assert_allclose(nu.values, ref, rtol=1e-12, atol=0.0)
    assert np.array_equal(nu.values > 0, ref > 0)


@given(mu=random_measures(max_atoms=200), pin=PINS, eps=EPSILONS,
       per_atom=st.sampled_from([0.5, 4.0]), seed=st.integers(0, 10_000),
       block=BLOCKS)
def test_grouped_monte_carlo_matches_per_draw_oracle(mu, pin, eps, per_atom, seed, block):
    # atom draws deposit each distinct atom once, weighted count / draws
    samples = max(2, int(per_atom * len(mu)))
    moll = Mollifier(eps)
    with mock.patch.object(rng_module, "BLOCK", block):
        nu = pinned_density(mu, PHI, pin, moll, mc_samples=samples, seed=seed)
    ref, ref_se, _, grid = dense_pinned_density(mu, PHI, pin, moll,
                                                mc_samples=samples, seed=seed)
    assert np.array_equal(nu.t_grid, grid)
    # count / draws times a kernel rounds apart from count terms of 1 / draws
    # by an ulp, which below the smallest normal double is no longer ~1e-16
    tiny = np.finfo(float).tiny
    np.testing.assert_allclose(nu.values, ref, rtol=1e-12, atol=tiny)
    assert np.array_equal(nu.values > 0, ref > 0)
    floor = 1e-12 * float((ref ** 2).max()) / samples
    np.testing.assert_allclose(nu.stderr ** 2, ref_se ** 2, rtol=1e-12, atol=floor)
    # the dense oracle sums each draw's mass in another order, ~1e-16 apart
    # on a std of ~1e-8 (see above); the deposit's own masses of the
    # ungrouped draws agree bit for bit, so their spreads agree to rounding
    atoms = sample_points(mu, samples, seed)
    gaps = np.asarray(PHI.value(pin[None, :], mu.points[atoms]))[:, None]
    _, _, per_draw_mass_se = pinned_module._deposit(gaps, np.full(samples, 1.0 / samples),
                                                    (grid,), moll, samples)
    assert nu.mass_stderr == pytest.approx(per_draw_mass_se, rel=1e-12, abs=0.0)


@given(gaps=st.lists(st.floats(-1.0, 2.0), max_size=40), eps=EPSILONS | st.floats(2e-3, 0.3),
       start=st.floats(-0.5, 1.0), nodes=st.integers(2, 8) | st.integers(2, 400),
       divisor=st.sampled_from([2, 3, 5, 16]), itype=st.sampled_from([np.int32, np.int64]))
def test_window_bumps_match_mollifier_bitwise(gaps, eps, start, nodes, divisor, itype):
    # gaps past both ends of the axis clamp their windows to it; with few
    # nodes (or a coarse step) a window spans the whole axis
    dt = eps / divisor
    ax = start + dt * np.arange(nodes)
    g = np.array(gaps + [ax[0] - 3 * eps, ax[0], ax[-1], ax[-1] + 3 * eps])
    width = pinned_module._window_width(ax, 2 * eps)
    moll = Mollifier(eps)
    # scratch longer than needed, filled with garbage the evaluator overwrites
    idx_buf, kern_buf = np.full(len(g) * width + 5, -7, itype), np.full(len(g) * width + 5, np.nan)
    idx, kern = pinned_module._window_bumps(g, ax, width, moll, idx_buf, kern_buf)
    first = np.clip(np.floor((g - 2 * eps - ax[0]) / dt), 0, nodes - width).astype(int)
    assert idx.dtype == itype and kern.shape == (len(g), width)
    assert np.array_equal(idx, first[:, None] + np.arange(width))
    assert np.array_equal(kern, moll(ax[first[:, None] + np.arange(width)] - g[:, None]))
    # every node of a gap's support lies in its window
    inside = np.abs(ax[None, :] - g[:, None]) < 2 * eps
    assert all(set(np.flatnonzero(row)) <= set(w) for row, w in zip(inside, idx))
    if width == nodes:
        assert np.all(idx == np.arange(nodes))


@given(mu=random_measures(max_atoms=60), pin=PINS, eps=EPSILONS | st.floats(2e-3, 0.3),
       k=st.integers(1, 2), draws=st.integers(1, 500), nodes=st.integers(2, 120))
def test_deposit_in_one_row_blocks_matches_mollifier_bitwise(mu, pin, eps, k, draws, nodes):
    # with one row per block, the weighted, squared and per-row-mass passes
    # equal a row-by-row deposit of the mollifier's own values, bit for bit;
    # short axes clamp the windows or make them as wide as the axis
    gaps = np.stack([np.asarray(PHI.value(pin[None, :], np.roll(mu.points, i, axis=0)))
                     for i in range(k)], axis=1)
    lo = float(gaps.min()) - eps
    axes = tuple(lo + (eps / 4) * np.arange(nodes + i) for i in range(k))
    moll = Mollifier(eps)
    with mock.patch.object(rng_module, "BLOCK", 1):
        values, stderr, mass_se = pinned_module._deposit(gaps, mu.weights, axes, moll, draws)
    shape = tuple(map(len, axes))
    want_v, want_sq = np.zeros(shape), np.zeros(shape)
    per_mass = np.ones(len(mu))
    for r, row in enumerate(gaps):
        kern, idx = [], []
        for ax, c in zip(axes, row):
            width = pinned_module._window_width(ax, 2 * eps)
            first = int(np.clip(np.floor((c - 2 * eps - ax[0]) / (ax[1] - ax[0])), 0,
                                len(ax) - width))
            idx.append(np.arange(first, first + width))
            kern.append(moll(ax[idx[-1]] - c))
            per_mass[r] *= (kern[-1] * pinned_module._trapz_weights(
                len(ax), float(ax[1] - ax[0]))[idx[-1]]).sum()
        prod = functools.reduce(np.multiply.outer, kern)
        want_v[np.ix_(*idx)] += prod * mu.weights[r]
        want_sq[np.ix_(*idx)] += prod ** 2 * mu.weights[r]
    assert np.array_equal(values, want_v)
    assert np.array_equal(stderr, np.sqrt(np.maximum(want_sq - want_v ** 2, 0.0) / draws))
    spread = mu.weights @ (per_mass - mu.weights @ per_mass) ** 2
    assert mass_se == float(np.sqrt(spread / draws))


@given(mu=random_measures(), pin=PINS, eps=EPSILONS, mc=st.sampled_from([0, 64, 500]))
def test_deposition_conserves_mass(mu, pin, eps, mc):
    nu = pinned_density(mu, PHI, pin, Mollifier(eps), mc_samples=mc, seed=4)
    assert density_mass(nu) == pytest.approx(1.0, abs=1e-6)


@given(mu=random_measures(), pin=PINS, eps=EPSILONS, atom=st.integers(0, 299),
       nodes=st.integers(2, 200))
def test_narrow_grid_clips_windows_and_raises_coverage(mu, pin, eps, atom, nodes):
    # the grid starts on an atom's gap, so its first node carries that atom's
    # bump peak; windows running past either end of the grid are clipped
    phi_vals = np.asarray(PHI.value(pin[None, :], mu.points))
    dt = eps / 4
    grid = phi_vals[atom % len(mu)] + dt * np.arange(nodes)
    moll = Mollifier(eps)
    nu = pinned_density(mu, PHI, pin, moll, t_grid=grid)
    ref, _, _, _ = dense_pinned_density(mu, PHI, pin, moll, t_grid=grid)
    np.testing.assert_allclose(nu.values, ref, rtol=1e-12, atol=0.0)
    assert np.array_equal(nu.values > 0, ref > 0)
    with pytest.raises(CoverageError):
        density_mass(nu)


def test_density_mass_coverage_error():
    mu = circle_measure(128)
    eps = 2.0 ** -4
    grid = np.arange(0.2, 0.26, eps / 16)   # clips the support around t=0.25
    nu = pinned_density(mu, PHI, np.array([0.5, 0.5]), Mollifier(eps), t_grid=grid)
    with pytest.raises(CoverageError):
        density_mass(nu)


def test_resolution_and_empty_errors():
    mu = circle_measure(64)
    eps = 2.0 ** -4
    grid = np.arange(0.0, 0.6, eps)   # dt = eps > eps/2
    with pytest.raises(ResolutionError):
        pinned_density(mu, PHI, np.array([0.5, 0.5]), Mollifier(eps), t_grid=grid)
    # support windows and trapezoid weights both assume one grid step
    for bad in (np.linspace(0.0, 0.7, 400) ** 1.5, np.linspace(0.7, 0.0, 400),
                np.array([0.25])):
        with pytest.raises(DomainError):
            pinned_density(mu, PHI, np.array([0.5, 0.5]), Mollifier(eps), t_grid=bad)
    # the same check on every chain axis
    cantor = natural_measure(build_product_cantor(2, 1 / 3, 3))
    good = np.linspace(-0.5, 2.0, 161)
    for bad in (np.linspace(0.0, 1.5, 300) ** 1.5, good[::-1]):
        for axes in ((bad,), (good, bad)):
            with pytest.raises(DomainError):
                chain_density(cantor, PHI, cantor.points[11], len(axes),
                              Mollifier(2.0 ** -3), t_axes=axes)
    with pytest.raises(ResolutionError):
        chain_density(cantor, PHI, cantor.points[11], 2, Mollifier(2.0 ** -3),
                      t_axes=(good, good[::8]))
    with pytest.raises(DomainError):
        FrostmanMeasure(np.zeros((0, 2)), np.zeros(0), exponent_s=1.0)


def test_one_grid_budget_for_default_and_explicit_grids():
    mu = circle_measure(64)
    pin = mu.points[0]
    # the default grid is counted before it is allocated
    with pytest.raises(BudgetError, match=r"^grid of \d+ nodes exceeds budget 2000000$"):
        default_t_grid(np.array([0.0, 1.0]), 2.0 ** -30)
    with pytest.raises(BudgetError):
        pinned_density(mu, PHI, pin, Mollifier(2.0 ** -30))
    # an explicit grid one node past the budget, as the chain's axes
    over = np.arange(pinned_module.GRID_BUDGET + 1) * 0.25
    with pytest.raises(BudgetError, match=f"^grid of {len(over)} nodes"):
        pinned_density(mu, PHI, pin, Mollifier(1.0), t_grid=over)
    with pytest.raises(BudgetError, match=f"^grid of {len(over)} nodes"):
        chain_density(mu, PHI, pin, 1, Mollifier(1.0), t_axes=(over,))


def test_uniform_density_energy_bound_support():
    nu = uniform_unit_density()
    dt = float(nu.t_grid[1] - nu.t_grid[0])
    assert density_mass(nu) == pytest.approx(1.0, abs=2 * dt)
    assert l2_energy([1.0], [nu]) == pytest.approx(1.0, abs=2 * dt)
    # indicator density: Cauchy-Schwarz equality, bound == support exactly
    assert cs_lower_bound(nu) == pytest.approx(support_measure(nu), abs=1e-12)
    assert support_measure(nu) == pytest.approx(1.0, abs=2 * dt)


def test_bump_density_energy_and_bound():
    mu = circle_measure(512)
    eps = 2.0 ** -5
    nu = pinned_density(mu, PHI, np.array([0.5, 0.5]), Mollifier(eps))
    # int rho_eps^2 = int rho^2 / eps
    rho_sq = quad(lambda u: float(bump_profile(u)) ** 2, -2.0, 2.0, limit=200)[0]
    energy = l2_energy([1.0], [nu])
    assert energy == pytest.approx(rho_sq / eps, rel=1e-6)
    bound = cs_lower_bound(nu)
    assert bound == pytest.approx(eps / rho_sq, rel=1e-5)
    assert support_measure(nu) <= 4 * eps
    assert support_measure(nu) >= bound - 1e-9


def test_cauchy_schwarz_literal_many_densities():
    mu = natural_measure(build_product_cantor(2, 2.0 ** (-2 / 1.7), 5))
    rng = rng_for(5, 0)
    pins = mu.points[rng.choice(len(mu), 6, replace=False)]
    for eps in (2.0 ** -4, 2.0 ** -6):
        for pin in pins:
            nu = pinned_density(mu, PHI, pin, Mollifier(eps))
            assert support_measure(nu) >= cs_lower_bound(nu) - 1e-9


@given(mu=random_measures(), pin=PINS, k=st.integers(1, 2),
       eps=st.sampled_from([2.0 ** -2, 2.0 ** -3, 2.0 ** -4]),
       mc=st.sampled_from([0, 300]), seed=st.integers(0, 10_000))
def test_cauchy_schwarz_bound_holds_literally(mu, pin, k, eps, mc, seed):
    # the discrete Cauchy-Schwarz inequality on the grid weights, exact and
    # Monte Carlo, pinned (k = 1) and chain (k = 2)
    moll = Mollifier(eps)
    if k == 1:
        nu = pinned_density(mu, PHI, pin, moll, mc_samples=mc, seed=seed)
    else:
        nu = chain_density(mu, PHI, pin, k, moll, mc_samples=mc, seed=seed)
    assert nu.k == k
    assert support_measure(nu) - cs_lower_bound(nu) >= -1e-9
    # the axis-by-axis contraction is the sum over the tensor weight grid
    weights = functools.reduce(np.multiply.outer, nu.axis_weights())
    assert density_mass(nu) == pytest.approx(float((nu.values * weights).sum()), rel=1e-12)


def test_cs_bound_stabilizes_above_threshold():
    # product Cantor s = 1.7: bound varies by < 1.5x across eps = 2^-4..2^-8
    mu = natural_measure(build_product_cantor(2, 2.0 ** (-2 / 1.7), 6))
    pin = mu.points[1234]
    bounds = []
    for k in (4, 5, 6, 7, 8):
        nu = pinned_density(mu, PHI, pin, Mollifier(2.0 ** -k))
        bounds.append(cs_lower_bound(nu))
    assert max(bounds) / min(bounds) <= 1.5


def test_l2_energy_epsilon_trajectory_regression():
    # lambda = mu over a pin subset; halving eps four times never decreases
    # the energy and stays under 1.5x the first value (s = 1.7 > 3/2)
    mu = natural_measure(build_product_cantor(2, 2.0 ** (-2 / 1.7), 6))
    rng = rng_for(7, 0)
    pins = mu.points[rng.choice(len(mu), 8, replace=False)]
    energies = []
    for k in (4, 5, 6, 7, 8):
        eps = 2.0 ** -k
        ref = np.asarray(PHI.value(pins[:, None, :], mu.points[None, :, :]))
        grid = default_t_grid(ref, eps)
        dens = [pinned_density(mu, PHI, p, Mollifier(eps), t_grid=grid) for p in pins]
        energies.append(l2_energy(np.full(len(pins), 1 / len(pins)), dens))
    energies = np.array(energies)
    assert np.all(np.diff(energies) >= -1e-9)
    assert energies.max() <= 1.5 * energies[0]


def test_l2_energy_grid_mismatch():
    mu = circle_measure(64)
    nu1 = pinned_density(mu, PHI, np.array([0.5, 0.5]), Mollifier(2.0 ** -4))
    nu2 = pinned_density(mu, PHI, np.array([0.4, 0.5]), Mollifier(2.0 ** -5))
    with pytest.raises(DomainError):
        l2_energy([0.5, 0.5], [nu1, nu2])
    # chains at two epsilons, and a pinned density beside a chain on its grid
    cantor = natural_measure(build_product_cantor(2, 1 / 3, 3))
    pin = cantor.points[11]
    ch3 = chain_density(cantor, PHI, pin, 2, Mollifier(2.0 ** -3))
    ch4 = chain_density(cantor, PHI, pin, 2, Mollifier(2.0 ** -4))
    nu = pinned_density(cantor, PHI, pin, Mollifier(2.0 ** -3), t_grid=ch3.t_axes[0])
    for pair in ([ch3, ch4], [nu, ch3]):
        with pytest.raises(DomainError):
            l2_energy([0.5, 0.5], pair)
    # one pin on a grid and on the same grid shifted by 0.1: same shape and epsilon
    grid = np.arange(0.0, 0.6, 2.0 ** -8)
    moll = Mollifier(2.0 ** -4)
    on_grid, shifted = (pinned_density(mu, PHI, np.array([0.5, 0.5]), moll, t_grid=g)
                        for g in (grid, grid + 0.1))
    assert on_grid.values.shape == shifted.values.shape
    with pytest.raises(DomainError):
        l2_energy([0.5, 0.5], [on_grid, shifted])


def test_chain_reduces_to_pinned_at_k1():
    mu = natural_measure(build_product_cantor(2, 1 / 3, 3))
    pin = mu.points[11]
    moll = Mollifier(2.0 ** -3)
    nu = pinned_density(mu, PHI, pin, moll)
    ch = chain_density(mu, PHI, pin, 1, moll, t_axes=(nu.t_grid,))
    assert np.allclose(ch.values, nu.values, atol=1e-10)
    val = nested_composed_density(mu, PHI, pin, 1, moll, [nu.t_grid[40]])
    assert val == pytest.approx(nu.values[40], abs=1e-10)


def test_chain_circle_concentrates_first_link():
    mu = circle_measure(256)
    eps = 2.0 ** -4
    moll = Mollifier(eps)
    ch = chain_density(mu, PHI, np.array([0.5, 0.5]), 2, moll)
    w2 = ch.axis_weights()[1]
    marginal = ch.values @ w2
    expected = moll(ch.t_axes[0] - 0.25)
    assert np.allclose(marginal, expected, atol=2e-3 * expected.max())
    assert density_mass(ch) == pytest.approx(1.0, abs=1e-3)


def test_chain_mass_monte_carlo():
    mu = natural_measure(build_product_cantor(2, 2.0 ** (-2 / 1.7), 4))
    ch = chain_density(mu, PHI, mu.points[100], 2, Mollifier(2.0 ** -3),
                       mc_samples=20_000, seed=3)
    assert density_mass(ch) == pytest.approx(1.0, abs=max(3 * ch.mass_stderr, 1e-3))


def test_chain_monte_carlo_beyond_seven_links():
    # one atom: every sampled chain has gaps (r, 0, ..., 0), so the density
    # is the outer product of the k shifted bumps, whatever the draws
    k = 8
    mu = FrostmanMeasure(np.array([[0.8, 0.5]]), np.array([1.0]), exponent_s=0.0)
    pin = np.array([0.5, 0.5])
    moll = Mollifier(0.25)
    gaps = [float(PHI.value(pin, mu.points[0]))] + [0.0] * (k - 1)
    axes = tuple(g + 0.1 * (np.arange(5) - 2) + 0.01 * i for i, g in enumerate(gaps))
    ch = chain_density(mu, PHI, pin, k, moll, t_axes=axes, mc_samples=4, seed=1)
    expected = moll(axes[0] - gaps[0])
    for ax, g in zip(axes[1:], gaps[1:]):
        expected = np.multiply.outer(expected, moll(ax - g))
    assert ch.values.shape == (5,) * k
    np.testing.assert_allclose(ch.values, expected, rtol=1e-12, atol=0.0)


@settings(max_examples=40)
@given(mu=random_measures(max_atoms=40), pin=PINS, k=st.integers(1, 3),
       eps=st.sampled_from([2.0 ** -2, 2.0 ** -3, 2.0 ** -4]),
       nodes=st.lists(st.integers(2, 30), min_size=3, max_size=3),
       starts=st.lists(st.floats(-0.2, 1.2), min_size=3, max_size=3),
       samples=st.integers(2, 300), seed=st.integers(0, 10_000),
       block=st.sampled_from([64, 1000]))
def test_chain_monte_carlo_deposition_matches_dense_oracle(mu, pin, k, eps, nodes, starts,
                                                           samples, seed, block):
    # at step eps/4 a window spans 19 nodes, so axes of 2..18 nodes are
    # narrower than one window and every window on them is clamped
    moll = Mollifier(eps)
    axes = tuple(t0 + eps / 4 * np.arange(n) for t0, n in zip(starts[:k], nodes[:k]))
    with mock.patch.object(rng_module, "BLOCK", block):
        ch = chain_density(mu, PHI, pin, k, moll, t_axes=axes, mc_samples=samples, seed=seed)
    ref, ref_se, ref_mass_se = dense_chain_mc(mu, PHI, pin, k, moll, axes, samples, seed)
    np.testing.assert_allclose(ch.values, ref, rtol=1e-12, atol=0.0)
    assert np.array_equal(ch.values > 0, ref > 0)
    # the cancellation floor of the pinned comparison above
    floor = 1e-12 * float((ref ** 2).max()) / samples
    np.testing.assert_allclose(ch.stderr ** 2, ref_se ** 2, rtol=1e-12, atol=floor)
    # the oracle's one-pass mass variance (mean of squares - squared mean)
    # cancels to a few ulp of mean^2 <= 1 when the draws' masses nearly
    # agree; the deposit takes the std of the per-draw masses directly
    assert ch.mass_stderr ** 2 == pytest.approx(ref_mass_se ** 2, rel=2e-9, abs=1e-14 / samples)


@settings(max_examples=40)
@given(mu=random_measures(max_atoms=40), pin=PINS, k=st.integers(1, 3),
       eps=st.sampled_from([2.0 ** -2, 2.0 ** -3, 2.0 ** -4]),
       nodes=st.lists(st.integers(2, 30), min_size=3, max_size=3),
       starts=st.lists(st.floats(-0.2, 1.2), min_size=3, max_size=3),
       block=st.sampled_from([64, 1000]))
def test_chain_exact_windows_match_dense_oracle(mu, pin, k, eps, nodes, starts, block):
    # axes of 2..18 nodes at step eps/4 are narrower than one 19-node window,
    # so every window on them is clamped; a block of 64 entries holds one y
    # row, one of 1000 a few rows with a ragged last block.  The Euclidean
    # pair table is symmetric, so its last link walks one triangle; the
    # scaled one is not, and walks full rows
    moll = Mollifier(eps)
    axes = tuple(t0 + eps / 4 * np.arange(n) for t0, n in zip(starts[:k], nodes[:k]))
    for phi in (PHI, SCALED):
        with mock.patch.object(rng_module, "BLOCK", block):
            ch = chain_density(mu, phi, pin, k, moll, t_axes=axes)
        ref = dense_chain_exact(mu, phi, pin, k, moll, axes)
        np.testing.assert_allclose(ch.values, ref, rtol=1e-12, atol=0.0)
        assert np.array_equal(ch.values > 0, ref > 0)
        assert np.all(ch.stderr == 0.0) and ch.mass_stderr == 0.0


@pytest.mark.parametrize("phi, triangle", [(PHI, True), (SCALED, False)],
                         ids=["euclidean", "scaled_euclidean"])
def test_chain_exact_evaluates_one_triangle_of_a_symmetric_pair_table(phi, triangle):
    # 64 atoms and a one-row block: the k = 2 chain's last link evaluates
    # the windows of row y against columns z >= y only when phi is symmetric
    mu = natural_measure(build_product_cantor(2, 0.3, 3))
    n = len(mu)
    seen = []
    spy = pinned_module._window_bumps

    def counted(gaps, *args):
        seen.append(len(gaps))
        return spy(gaps, *args)

    with mock.patch.object(rng_module, "BLOCK", 1), \
            mock.patch.object(pinned_module, "_window_bumps", counted):
        ch = chain_density(mu, phi, mu.points[5], 2, Mollifier(2.0 ** -3))
    assert seen[:-1] == ([n - y for y in range(n)] if triangle else [n] * n)
    assert seen[-1] == n       # the pin link
    ref = dense_chain_exact(mu, phi, mu.points[5], 2, Mollifier(2.0 ** -3), ch.t_axes)
    np.testing.assert_allclose(ch.values, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("atoms, shapes", [
    (1000, [(1000, 1000)]), (1500, [(1500, 1500)]), (2100, [(2100, 2100)])])
def test_chain_exact_computes_the_pair_table_once(atoms, shapes):
    # the default axes' pair range (every n // 1024-th atom beyond 1024)
    # reads `phi.value` over blocks of rows that cover its sample once; the
    # exact chain then builds the one full table, its only `pairwise_value`
    mu = circle_measure(atoms)
    sample = len(mu.points[:: max(1, atoms // 1024)])
    spy, value = pinned_module.pairwise_value, PHI.value
    seen, blocks = [], []

    def counted(phi, a, b):
        seen.append((len(a), len(b)))
        return spy(phi, a, b)

    def rows(x, y):
        blocks.append(np.broadcast_shapes(np.shape(x), np.shape(y))[:-1])
        return value(x, y)

    with mock.patch.object(pinned_module, "pairwise_value", counted), \
            mock.patch.object(PHI, "value", rows), \
            mock.patch.object(pinned_module, "_link_windows", lambda *a: iter(())):
        chain_density(mu, PHI, mu.points[0], 2, Mollifier(2.0 ** -3))
    assert seen == shapes
    pair_blocks = [b for b in blocks if len(b) == 2 and b[1] == sample]
    assert sum(r for r, _ in pair_blocks) == sample and len(pair_blocks) > 1


CANTOR_5 = natural_measure(build_product_cantor(2, 2.0 ** (-2 / 1.6), 5))
KINDS = [PHI, SCALED, phase_function("dot_product", 2), phase_function("flat_torus", 2),
         phase_function("sphere_geodesic_chart", 2)]


def full_value_range(phi, pts):
    """(min, max) of the whole `phi.value` table of `pts`, as hex strings."""
    full = np.asarray(phi.value(pts[:, None], pts[None]))
    return float(full.min()).hex(), float(full.max()).hex()


@settings(max_examples=60, derandomize=True)
@given(kind=st.sampled_from(range(len(KINDS))), n=st.integers(1, 120),
       block=st.sampled_from([1, 7, rng_module.BLOCK]), seed=st.integers(0, 2 ** 32 - 1),
       corner=st.booleans())
def test_pair_range_blocks_match_the_full_table_bit_for_bit(kind, n, block, seed, corner):
    # `value` works pair by pair, so a block of any rows (one at BLOCK = 1
    # and 7) gives the whole table's bits.  With `corner` the last atom sits
    # at the corner nearest 0, so the last row of the scaled_euclidean table
    # holds its max
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.05, 0.95, (n, 2))
    if corner:
        pts[-1] = 0.05
    mu = FrostmanMeasure(pts, np.full(n, 1.0 / n), exponent_s=2.0)
    phi = KINDS[kind]
    with mock.patch.object(rng_module, "BLOCK", block):
        lo, hi = pinned_module._pair_range(phi, mu)
    assert (lo.hex(), hi.hex()) == full_value_range(phi, pts)


@pytest.mark.parametrize("rows", [1, 2, 3, 5, 7, 16, 32, 33, 100])
def test_pair_range_on_the_level_5_cantor_set(rows):
    # 1,024 atoms in blocks of `rows` rows (32 at the default BLOCK; 3 and
    # 33 leave a one-row tail), for every kind
    for phi in KINDS:
        with mock.patch.object(rng_module, "BLOCK", rows * 1024):
            lo, hi = pinned_module._pair_range(phi, CANTOR_5)
        assert (lo.hex(), hi.hex()) == full_value_range(phi, CANTOR_5.points), phi.kind


def test_monte_carlo_chain_memory_holds_no_pair_table():
    # the bench's Monte Carlo chain: its default axes' pair range used to
    # build the 8 MiB (1024 x 1024) table, 10.4 MiB traced in all; 2.5 MB
    # with the range taken over blocks of rows: bounded with a margin of
    # about a third
    tracemalloc.start()
    try:
        chain_density(CANTOR_5, PHI, CANTOR_5.points[0], 2, Mollifier(2.0 ** -3),
                      mc_samples=16384, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.4e6


def test_empty_energy_raises_domain_error():
    # l2_energy([], []) used to raise a bare IndexError
    with pytest.raises(DomainError, match=r"^need at least one density and one weight per density$"):
        l2_energy([], [])


def test_composed_equals_chain_exact_mode():
    rng = rng_for(9, 0)
    pts = rng.uniform(0.1, 0.9, size=(200, 2))
    mu = FrostmanMeasure(pts, np.full(200, 1 / 200), exponent_s=2.0)
    pin = np.array([0.5, 0.5])
    moll = Mollifier(2.0 ** -3)
    for k in (1, 2, 3):
        axes = tuple(np.linspace(-0.4, 1.4, 37) for _ in range(k))
        ch = chain_density(mu, PHI, pin, k, moll, t_axes=axes)
        idx = (8, 19, 28)[:k]
        t = [axes[i][idx[i]] for i in range(k)]
        val = nested_composed_density(mu, PHI, pin, k, moll, t)
        assert val == pytest.approx(float(ch.values[tuple(idx)]), abs=1e-10)


def test_composed_monte_carlo_vs_chain_sampling():
    mu = natural_measure(build_product_cantor(2, 1 / 3, 3))
    pin = mu.points[7]
    moll = Mollifier(2.0 ** -2)
    t = [0.5, 0.4, 0.6]
    exact = nested_composed_density(mu, PHI, pin, 3, moll, t)
    ch = chain_density(mu, PHI, pin, 3,
                       moll, t_axes=tuple(np.array([v - 0.01, v, v + 0.01]) for v in t),
                       mc_samples=60_000, seed=5)
    direct = float(ch.values[1, 1, 1])
    scale = max(exact, 1e-3)
    assert direct == pytest.approx(exact, abs=max(4 * float(ch.stderr[1, 1, 1]), 0.05 * scale))

