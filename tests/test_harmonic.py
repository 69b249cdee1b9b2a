import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (cdist_row_sums, chunked_oscillatory_G, dense_riesz_double_sum,
                     embed_box, loop_deposit_gaussian, meshgrid_freq_norms,
                     meshgrid_rfft_shells, reference_energy_integral, rfftn_box,
                     series_center_energy)
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn
from scipy.special import j0

from pinlab import (DomainError, EnergyResult, FrostmanMeasure, LPPartition,
                    ResolutionError, build_cutoffs, build_product_cantor,
                    circle_measure,
                    energy_integral, freq_norms, l2_norm,
                    natural_measure,
                    oscillatory_G, phase_function,
                    radon_sobolev_ratio, random_band_limited, riesz_constant,
                    segment_measure, sobolev_norm, surface_measure_decay,
                    uniform_grid_measure)
from pinlab import harmonic
from pinlab import rng as rng_module
from pinlab.harmonic import (ResolutionWarning, _center_energy, _radon_direct,
                             _rfft_box, _rfft_shells, _riesz_row_sums, deposit_gaussian,
                             radon_apply_stack, rasterize_sphere_shell,
                             shell_profile_verdict)

# independent oracle for the segment energy shells (2-d quadrature of the
# closed-form |segment hat|^2 = sinc^2(L xi_1) over dyadic annuli), frozen
SEGMENT_SHELLS_12 = [2.7319, 2.2345, 1.9590, 1.7076, 1.4869, 1.2945, 1.1269, 0.9810]
SEGMENT_SHELLS_08 = [3.1303, 3.3919, 3.9192, 4.5067, 5.1778, 5.9479, 6.8324, 7.8483]


def test_sobolev_norm_at_zero_is_l2_norm():
    # Parseval: the spectral sum of |f^|^2 is the grid mean of |f|^2
    real = random_band_limited(128, 40.0, seed=7)
    cplx = random_band_limited(64, 20.0, seed=1) + 1j * random_band_limited(64, 20.0, seed=2)
    for f in (real, cplx):
        assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-10)


def test_lp_partition_sums_to_one():
    part = LPPartition(9)
    assert np.array_equal(freq_norms(1, 4), [0.0, 1.0, 2.0, 1.0])
    fn = freq_norms(2, 512)
    assert fn.shape == (512, 512) and fn[3, -4] == 5.0
    sel = fn <= 2.0 ** 8
    dev = np.abs(part.partition_sum(fn[sel]) - 1.0)
    assert dev.max() <= 1e-10


# d = 3 at pad 4 stops at side 24: at side 96 the meshgrid oracle would hold
# three 384^2 x 193 copies of over 200 MiB each
@pytest.mark.parametrize("d, side_n, pad", [
    (d, side_n, pad) for d in (1, 2, 3) for side_n in (16, 24, 96, 128) for pad in (1, 4)
    if d < 3 or pad * side_n <= 128])
def test_open_grids_match_meshgrid_bit_for_bit(d, side_n, pad):
    # the box keeps |k_i| < pad 2^m_top, and every shell lies inside it
    assert freq_norms(d, side_n).tobytes() == meshgrid_freq_norms(d, side_n).tobytes()
    fn, shells = _rfft_shells(d, side_n, pad)
    want_fn, want_shells = meshgrid_rfft_shells(d, side_n, pad)
    k = pad * 2 ** int(np.log2(side_n / 4))
    assert fn.shape == (2 * k - 1,) * (d - 1) + (k,)
    assert fn.tobytes() == rfftn_box(want_fn, k).tobytes()
    assert len(shells) == len(want_shells) == int(np.log2(side_n / 4))
    for (mid, sel), (want_mid, want_sel) in zip(shells, want_shells):
        assert mid == want_mid and np.array_equal(sel, rfftn_box(want_sel, k)) and sel.any()
        assert sel.sum() == want_sel.sum()


@st.composite
def grid_boxes(draw):
    """(box, starts, n, k): a box of 1..n cells per axis, some of its lines
    all zero, starting anywhere in -n..2n, so it often wraps past the grid's
    edge, on an n^d grid with d = 1..3, and a cut-off k in 1..n/2."""
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from([8, 12, 16, 24] if d < 3 else [8, 12, 16]))
    spans = draw(st.lists(st.one_of(st.just(n), st.integers(1, n)), min_size=d, max_size=d))
    starts = draw(st.lists(st.integers(-n, 2 * n), min_size=d, max_size=d))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    box = rng.random(spans) - 0.5
    box[rng.random(spans[:1]) < 0.3] = 0.0
    return box, starts, n, draw(st.integers(1, n // 2))


@settings(max_examples=60)
@given(case=grid_boxes(), block=st.sampled_from([1, rng_module.BLOCK]))
@example(case=(np.arange(24.0).reshape(2, 12), [0, 0], 12, 6), block=1)     # span n
@example(case=(np.ones((3, 5, 2)), [7, -2, 15], 8, 3), block=rng_module.BLOCK)   # wraps
@example(case=(np.full((1, 1), 0.5), [-7, -2], 8, 4), block=rng_module.BLOCK)   # a -0.0
def test_rfft_box_matches_full_rfftn_bit_for_bit(case, block):
    # BLOCK = 1 transforms one line per block; in the last example rfftn's
    # value at (0, 2) is -0.5 - 0.0j, from the -0.0 that rfft gives zero rows
    # there, which lines filled with +0.0 would turn into -0.5 + 0.0j
    box, starts, n, k = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "BLOCK", block)
        got = _rfft_box(box, starts, n, k)
    want = rfftn_box(np.fft.rfftn(embed_box(box, starts, n)), k)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_lp_band_support_annulus():
    part = LPPartition(6)
    r = np.linspace(1e-3, 64, 20001)
    band = part.alpha(r)
    nz = r[np.abs(band) > 0]
    assert nz.min() >= 0.5 and nz.max() <= 4.0
    a0 = part.alpha0(r)
    assert r[np.abs(a0) > 0].max() < 4.0


def band_parts(f, part, bands):
    """The band profiles applied to the spectrum of the field f."""
    fn, hat = freq_norms(f.ndim, f.shape[0]), np.fft.fftn(f)
    return [np.real(np.fft.ifftn(part.band_profile(fn, j) * hat)) for j in bands]


def test_lp_pure_wave_band_locality():
    side, j = 256, 3
    part = LPPartition(7)
    x = np.arange(side) / side
    f = np.cos(2 * np.pi * (2 ** j) * x)[:, None] * np.ones((1, side))
    for band, fb in enumerate(band_parts(f, part, range(0, 8))):
        e = l2_norm(fb)
        if band in (j - 1, j, j + 1):
            continue
        assert e < 1e-12, f"band {band} leaked {e}"
    total = sum(l2_norm(fb) ** 2 for fb in band_parts(f, part, (j - 1, j, j + 1)))
    assert total == pytest.approx(l2_norm(f) ** 2, rel=1e-9)


def test_lp_constant_lives_in_band_zero():
    part = LPPartition(5)
    f = np.full((64, 64), 2.7)
    low, *high = band_parts(f, part, range(0, 6))
    assert np.allclose(low, f, atol=1e-12)
    for fb in high:
        assert l2_norm(fb) < 1e-13


def test_lp_reconstruction_band_limited():
    part = LPPartition(7)
    f = random_band_limited(256, 2.0 ** 6, seed=3)
    recon = sum(band_parts(f, part, range(0, 8)))
    assert np.abs(recon - f).max() < 1e-9


def test_lp_band_out_of_range():
    with pytest.raises(DomainError):
        LPPartition(4).band_profile(freq_norms(2, 32), 5)


def test_sphere_raster_mass_and_zero_mode():
    m = rasterize_sphere_shell(2, 256)
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.fft.fftn(m).flat[0].real == pytest.approx(1.0, abs=1e-12)


def test_surface_decay_slopes():
    fit2 = surface_measure_decay(2, 1024)
    assert not fit2.flagged
    assert fit2.slope == pytest.approx(-0.5, abs=0.05)
    fit3 = surface_measure_decay(3, 128)
    assert not fit3.flagged
    assert fit3.slope == pytest.approx(-1.0, abs=0.1)
    assert surface_measure_decay(2, 128).flagged


def test_energy_segment_dichotomy_and_oracle_shells():
    lam = segment_measure(8192)
    res = energy_integral(lam, 1.2, 1024)
    inc = res.shell_increments
    assert np.allclose(inc, SEGMENT_SHELLS_12, rtol=0.06)
    assert inc[-1] / inc[-2] <= 1.05
    assert shell_profile_verdict(inc) == "converging"

    res8 = energy_integral(lam, 0.8, 1024)
    inc8 = res8.shell_increments
    assert np.allclose(inc8, SEGMENT_SHELLS_08, rtol=0.06)
    assert inc8[-1] / inc8[0] >= 2.0
    assert shell_profile_verdict(inc8) == "growing"


def test_energy_uniform_kernel_fourier_agreement():
    mu = uniform_grid_measure(2, 96)
    for gamma in (0.8, 1.5):
        res = energy_integral(mu, gamma, 384)
        assert res.fourier_value == pytest.approx(res.kernel_value, rel=0.10)


def test_energy_circle_closed_form():
    lam = circle_measure(4096)
    gamma = 1.5
    res = energy_integral(lam, gamma, 512)
    truth = quad(lambda r: 2 * np.pi * j0(2 * np.pi * 0.25 * r) ** 2 * r ** (1 - gamma),
                 0, 128, limit=2000)[0]
    assert res.fourier_value == pytest.approx(truth, rel=0.02)
    assert res.kernel_value == pytest.approx(truth, rel=0.02)


def test_energy_gamma_domain():
    mu = uniform_grid_measure(2, 16)
    for gamma in (0.0, -0.3, 2.0, 2.5, np.array([1.0, 2.5]), np.array([]),
                  np.ones((2, 1))):
        with pytest.raises(DomainError):
            energy_integral(mu, gamma, 64)


def test_energy_rejects_side_n_below_two_shells():
    lam = segment_measure(64)
    for side in (0, 8, 15):
        with pytest.raises(ResolutionError):
            energy_integral(lam, 1.2, side)
    assert len(energy_integral(lam, 1.2, 16).shell_increments) == 2


def assert_stacked_energy_matches_scalar_calls(lam, gammas, side, g_values=None):
    stacked = energy_integral(lam, gammas, side, g_values=g_values)
    assert isinstance(stacked, list) and len(stacked) == len(gammas)
    for gamma, res in zip(gammas, stacked):
        one = energy_integral(lam, float(gamma), side, g_values=g_values)
        assert isinstance(one, EnergyResult)
        assert res.fourier_value.hex() == one.fourier_value.hex()
        assert res.shell_increments.tobytes() == one.shell_increments.tobytes()
        assert res.shell_radii.tobytes() == one.shell_radii.tobytes()
        assert abs(res.kernel_value - one.kernel_value) <= 1e-15 * abs(one.kernel_value)


def test_energy_stacked_gammas_match_scalar_calls_on_segment():
    assert_stacked_energy_matches_scalar_calls(segment_measure(1024), np.array([1.2, 0.8]), 128)


def test_energy_memory_stays_blocked():
    # the complex full-circle centre sum and dense kernel blocks peaked at 451 MiB
    lam = segment_measure(4096)
    tracemalloc.start()
    try:
        energy_integral(lam, np.array([1.2, 0.8]), 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 161 MiB with meshgrid frequency grids and every array held to the end,
    # 132 MB with the full 2048^2 deposit and its rfftn, 22.9 MB on the box:
    # bounded with a margin of about a third
    assert peak < 30e6


def test_surface_decay_memory_uses_open_grids():
    tracemalloc.start()
    try:
        surface_measure_decay(3, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 97 MiB with meshgrid copies of the shell and frequency grids, 65 MB
    # with the full rfftn of the 128^3 raster, 24.1 MB with the shell's box
    # transformed: bounded with a margin of about a third
    assert peak < 32e6


# -- blocked energy pieces against the per-atom, complex and dense oracles ----

def assert_rel_close(got, want, rtol=1e-12):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert np.all(np.abs(got - want) <= rtol * np.abs(want)), (got, want)


@st.composite
def atom_clouds(draw, dims=(1, 2, 3)):
    """(points, masses, g_values) with random positive weights; `tied` snaps
    the points to a 4-per-side lattice, so many atoms coincide."""
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.random((n, d))
    if draw(st.booleans()):
        pts = (np.floor(pts * 4) + 0.5) / 4
    w = rng.random(n) + 0.05
    return pts, w / w.sum(), rng.random(n) + 0.1


small_blocks = st.sampled_from([1, 64, 1 << 20])


@settings(max_examples=40)
@given(cloud=atom_clouds(), frac=st.floats(0.05, 0.95), block=small_blocks)
def test_riesz_row_sums_match_dense_kernel(cloud, frac, block):
    pts, w, g = cloud
    gamma = frac * pts.shape[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "BLOCK", block)
        masses = w * g
        assert_rel_close(masses @ _riesz_row_sums(pts, masses, gamma),
                         dense_riesz_double_sum(pts, masses, gamma))


@settings(max_examples=15)
@given(cloud=atom_clouds(), fracs=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3))
def test_energy_stacked_gammas_match_scalar_calls(cloud, fracs):
    pts, w, g = cloud
    lam = FrostmanMeasure(pts, w, exponent_s=0.0)
    assert_stacked_energy_matches_scalar_calls(lam, np.array(fracs) * pts.shape[1], 16, g)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n, rows_per_block", [(101, 7), (257, 10), (63, 1)])
def test_riesz_triangle_matches_cdist_rows_and_dense_sum(d, n, rows_per_block):
    # odd atom counts, blocks that do not divide n, and a third of the atoms
    # repeated, whose zero distances must drop out
    rng = np.random.default_rng(1000 * d + n)
    pts = rng.random((n, d))
    pts[n - n // 3:] = pts[:n // 3]
    w = rng.random(n) + 0.05
    gammas = np.array([0.2, 0.55, 0.9]) * d
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "BLOCK", rows_per_block * n)
        got = _riesz_row_sums(pts, w, gammas)

    def block_sums(dist, _):
        dist[dist == 0.0] = np.inf
        return np.stack([dist ** (gm - d) @ w for gm in gammas])

    want = cdist_row_sums(pts, block_sums)
    assert got.shape == (3, n) and np.isfinite(got).all()
    assert_rel_close(got, want)
    for gm, row in zip(gammas, got):
        assert_rel_close(w @ row, dense_riesz_double_sum(pts, w, gm))


def test_riesz_row_sums_drop_coincident_atoms():
    pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.75, 0.5]])
    rows = _riesz_row_sums(pts, np.ones(3), 1.0)
    assert rows.tolist() == [4.0, 4.0, 8.0]


def two_atoms(pts):
    return np.array(pts), np.array([0.3, 0.7]), np.ones(2)


@settings(max_examples=30)
@given(cloud=atom_clouds(), side=st.integers(6, 24), block=small_blocks)
# 16 of 24 nodes from node -5, wrapping past 0; windows spanning 34 nodes, so
# the whole grid, wrapped; the whole axis 0 and 28 of 32 nodes from -1 on axis 1
@example(cloud=two_atoms([[0.01], [0.99]]), side=6, block=1)
@example(cloud=two_atoms([[0.1], [3.9]]), side=6, block=1)
@example(cloud=two_atoms([[0.02, 0.5], [-3.5, 2.7]]), side=8, block=64)
def test_deposit_gaussian_matches_per_atom_loop(cloud, side, block):
    pts, w, g = cloud
    if pts.shape[1] == 3:
        side = min(side, 12)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "BLOCK", block)
        box, starts = deposit_gaussian(pts, w * g, side)
    got = embed_box(box, starts, 4 * side)
    want = loop_deposit_gaussian(pts, w * g, side)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert got.sum() == pytest.approx((w * g).sum(), rel=1e-12)


@settings(max_examples=30)
@given(cloud=atom_clouds(), fracs=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3),
       block=small_blocks)
def test_center_energy_matches_pair_distance_series(cloud, fracs, block):
    pts, w, g = cloud
    gammas = np.array(fracs) * pts.shape[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "BLOCK", block)
        got = _center_energy(pts, w * g, gammas)
    assert_rel_close(got, [series_center_energy(pts, w * g, gm) for gm in gammas])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_center_energy_two_atoms_across_the_box(d):
    # the unit box's diagonal, sqrt(d), is the largest distance between atoms
    pts, masses = np.array([[0.0] * d, [1.0] * d]), np.array([0.3, 0.7])
    gammas = np.linspace(0.1, 0.95, 7) * d
    assert_rel_close(_center_energy(pts, masses, gammas),
                     [series_center_energy(pts, masses, gm) for gm in gammas])
    # one atom: |lambda^|^2 = 1, so the centre is |S^(d-1)| / (d - gamma)
    area = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[d]
    assert_rel_close(_center_energy(pts[:1], np.ones(1), gammas), area / (d - gammas))


def test_energy_centre_rejects_four_dimensions():
    lam = FrostmanMeasure(np.full((2, 4), 0.5), np.full(2, 0.5), exponent_s=0.0)
    with pytest.raises(DomainError):
        _center_energy(lam.points, lam.weights, [1.0])
    with pytest.raises(DomainError):
        energy_integral(lam, 1.0, 16)


@settings(max_examples=20)
@given(cloud=atom_clouds(), frac=st.floats(0.05, 0.95), side=st.sampled_from([16, 32]))
def test_energy_integral_matches_reference(cloud, frac, side):
    pts, w, g = cloud
    d = pts.shape[1]
    side = 16 if d == 3 else side
    lam = FrostmanMeasure(pts, w, exponent_s=0.0)
    got = energy_integral(lam, frac * d, side, g_values=g)
    want = reference_energy_integral(lam, frac * d, side, g_values=g)
    assert_rel_close(got.fourier_value, want.fourier_value)
    assert_rel_close(got.kernel_value, want.kernel_value)
    assert np.array_equal(got.shell_radii, want.shell_radii)
    assert_rel_close(got.shell_increments, want.shell_increments)


def test_riesz_constant_gaussian_identity():
    # for the standard Gaussian pair the identity is closed-form on both sides
    for gamma in (0.6, 1.0, 1.4):
        fourier = np.pi * (2 * np.pi) ** (gamma / 2 - 1) * gamma_fn(1 - gamma / 2)
        kernel = (np.pi / 2) * (np.pi / 2) ** (-gamma / 2) * gamma_fn(gamma / 2)
        assert riesz_constant(gamma, 2) * kernel == pytest.approx(fourier, rel=1e-12)
    # math.gamma in place of scipy.special.gamma: within a few ulp
    for d in (1, 2, 3):
        for gamma in np.linspace(0.05, 0.95, 7) * d:
            want = np.pi ** (gamma - d / 2) * gamma_fn((d - gamma) / 2) / gamma_fn(gamma / 2)
            assert riesz_constant(gamma, d) == pytest.approx(want, rel=1e-14)


def test_schur_dichotomy_across_levels():
    sups = {g: [] for g in (0.8, 0.2)}
    for level in (4, 5, 6, 7):
        lam = natural_measure(build_product_cantor(1, 1 / 3, level))
        for g in sups:
            sups[g].append(_riesz_row_sums(lam.points, lam.weights, g).max())
    stable = np.array(sups[0.8])
    ratios = stable[1:] / stable[:-1]
    assert np.all(ratios <= 1.10)          # gamma > d - s: <= 10% drift per level
    growing = np.array(sups[0.2])
    g_ratios = growing[1:] / growing[:-1]
    # gamma < d - s diverges; the asymptotic per-level factor is
    # 3^(1-gamma)/2 = 1.204 (frozen from exact enumeration; see ledger)
    assert np.all(g_ratios >= 1.25)
    assert growing[-1] / growing[0] >= 2.0


def test_radon_geometric_value_and_basics():
    phi = phase_function("euclidean", 2)
    n = 96
    tf = radon_apply_stack(phi, None, 2.0 ** -4, 0.25, [np.ones((n, n))])[0]
    assert tf[n // 2, n // 2] == pytest.approx(2 * np.pi * 0.25, rel=0.01)
    assert np.abs(radon_apply_stack(phi, None, 2.0 ** -4, 0.25,
                                    [np.zeros((n, n))])[0]).max() == 0.0
    f = random_band_limited(n, 8.0, seed=4)
    g = random_band_limited(n, 8.0, seed=5)
    both = radon_apply_stack(phi, None, 2.0 ** -4, 0.3, [f, g])
    lin = radon_apply_stack(phi, None, 2.0 ** -4, 0.3, [2 * f + 3 * g])[0]
    assert np.abs(lin - (2 * both[0] + 3 * both[1])).max() < 1e-10
    with pytest.raises(ResolutionError):
        radon_apply_stack(phi, None, 1.0 / n, 0.3, [f])


def test_radon_translation_covariance_torus():
    phi = phase_function("flat_torus", 2)
    n = 64
    f = random_band_limited(n, 8.0, seed=6)
    a = radon_apply_stack(phi, None, 2.0 ** -3, 0.3, [np.roll(f, (7, 13), axis=(0, 1))])[0]
    b = np.roll(radon_apply_stack(phi, None, 2.0 ** -3, 0.3, [f])[0], (7, 13), axis=(0, 1))
    assert np.abs(a - b).max() < 1e-9


def test_radon_sobolev_gamma_monotone():
    phi = phase_function("euclidean", 2)
    n = 64
    fields = [random_band_limited(n, 2.0, seed=30 + i) for i in range(3)]
    r0, _ = radon_sobolev_ratio(phi, None, 0.5, [2.0 ** -4], fields, gamma=0.0)
    r5, _ = radon_sobolev_ratio(phi, None, 0.5, [2.0 ** -4], fields, gamma=0.5)
    for a, b in zip(r0, r5):
        assert a.ratio <= b.ratio


def test_radon_epsilon_uniformity_smoke():
    phi = phase_function("euclidean", 2)
    n = 64
    fields = [random_band_limited(n, 2.0, seed=40 + i) for i in range(3)]
    _, summary = radon_sobolev_ratio(phi, None, 0.5,
                                     [2.0 ** -3, 2.0 ** -4, 2.0 ** -5], fields)
    assert max(summary.values()) <= 2.0


def assert_fields_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


@st.composite
def radon_cases(draw):
    n = draw(st.integers(16, 48))
    eps = draw(st.floats(2.0 / n, 0.25))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fields = []
    for is_complex in draw(st.lists(st.booleans(), min_size=1, max_size=3)):
        f = rng.standard_normal((n, n))
        fields.append(f + 1j * rng.standard_normal((n, n)) if is_complex else f)
    return eps, fields


@settings(max_examples=20)
@given(kind=st.sampled_from(["euclidean", "flat_torus"]), case=radon_cases(),
       t=st.floats(0.1, 0.7))
def test_radon_fft_matches_direct_quadrature(kind, case, t):
    eps, fields = case
    phi = phase_function(kind, 2)
    assert_fields_close(radon_apply_stack(phi, None, eps, t, fields),
                        _radon_direct(phi, None, eps, t, fields))


def test_radon_fft_matches_direct_at_benchmark_size():
    phi = phase_function("euclidean", 2)
    fields = [random_band_limited(96, 1.45, seed=7 + i) for i in range(5)]
    assert_fields_close(radon_apply_stack(phi, None, 2.0 ** -5, 0.5, fields),
                        _radon_direct(phi, None, 2.0 ** -5, 0.5, fields))


def test_radon_dispatch_direct_for_weighted_and_non_invariant(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args[0].kind)
        return _radon_direct(*args)

    monkeypatch.setattr(harmonic, "_radon_direct", spy)
    n, eps, t = 32, 2.0 ** -4, 0.4
    fields = [random_band_limited(n, 6.0, seed=50 + i) for i in range(2)]
    euclid = phase_function("euclidean", 2)
    fft = radon_apply_stack(euclid, None, eps, t, fields)
    assert calls == []
    scaled = radon_apply_stack(phase_function("scaled_euclidean", 2, factor=1.0),
                               None, eps, t, fields)
    weighted = radon_apply_stack(euclid, lambda x, y: np.ones(np.broadcast_shapes(
        x.shape, y.shape)[:-1]), eps, t, fields)
    assert calls == ["scaled_euclidean", "euclidean"]
    assert_fields_close(fft, scaled)
    assert_fields_close(fft, weighted)


def test_radon_epsilon_uniformity_down_to_resolution_floor():
    """Criterion 08's check at side 512, where the 2/n floor admits eps = 2^-8."""
    phi = phase_function("euclidean", 2)
    fields = [random_band_limited(512, 1.45, seed=108 + i) for i in range(5)]
    _, summary = radon_sobolev_ratio(phi, None, 0.5,
                                     [2.0 ** -k for k in range(3, 9)], fields)
    assert max(summary.values()) <= 2.0


def oscillatory_cutoffs():
    phi = phase_function("euclidean", 2)
    return phi, build_cutoffs(phi, (0.15, 0.85), 0.05, (0.1, 1.0))


def test_oscillatory_zero_cutoff():
    phi, _ = oscillatory_cutoffs()

    def zero(x, y):
        return np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))

    val = oscillatory_G(phi, zero, 1.0, [4.0, 0.0], [4.0, 0.0], quad_n=24)
    assert val == 0.0
    # every node is dropped, and a stack still returns its m exact zeros
    vals = oscillatory_G(phi, zero, [1.0, 2.0], [[4.0, 0.0], [1.0, 0.0]],
                         [[4.0, 0.0], [0.0, 1.0]], quad_n=24)
    assert vals.dtype == complex and vals.tolist() == [0.0, 0.0]


def test_oscillatory_volume_at_zero_phase():
    phi, cuts = oscillatory_cutoffs()
    val = oscillatory_G(phi, cuts.psi, 0.0, [0.0, 0.0], [0.0, 0.0], quad_n=40)
    # independent coarse quadrature of psi over the 4-dim box
    m = 24
    g = (np.arange(m) + 0.5) / m
    X = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    psi_sum = 0.0
    for i0 in range(0, len(X), 32):
        psi_sum += float(np.asarray(cuts.psi(X[i0:i0 + 32][:, None, :],
                                             X[None, :, :])).sum())
    oracle = psi_sum / m ** 4
    assert val.imag == pytest.approx(0.0, abs=1e-10)
    assert val.real == pytest.approx(oracle, rel=0.01)


def test_oscillatory_separated_decay():
    phi, cuts = oscillatory_cutoffs()
    ref = abs(oscillatory_G(phi, cuts.psi, 4.0, [4.0, 0.0], [4.0, 0.0], quad_n=48))
    assert ref > 0.01
    for (j, k, s) in [(0, 4, 1.0), (4, 0, 1.0), (0, 4, 2.0)]:
        with pytest.warns(ResolutionWarning):
            val = abs(oscillatory_G(phi, cuts.psi, s, [2.0 ** k, 0.0],
                                    [2.0 ** j, 0.0], quad_n=48))
        assert val <= 0.1 * ref


def test_oscillatory_warning_and_caps():
    phi, cuts = oscillatory_cutoffs()
    with pytest.warns(ResolutionWarning):
        oscillatory_G(phi, cuts.psi, 1.0, [30.0, 0.0], [1.0, 0.0], quad_n=32)
    with pytest.raises(DomainError):
        oscillatory_G(phi, cuts.psi, 1.0, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], quad_n=32)
    with pytest.raises(DomainError):
        oscillatory_G(phi, cuts.psi, 1.0, [1.0, 0.0], [1.0, 0.0], quad_n=100)


@pytest.mark.parametrize("s, xi, zeta, kwargs", [
    (1.0, [1.0, 0.0], [1.0, 0.0], {"quad_n": 0}),
    (1.0, [1.0, 0.0], [1.0, 0.0], {"quad_n": 65}),
    (1.0, [1.0, 0.0], [1.0, 0.0], {"quad_n": 12.0}),
    (np.nan, [1.0, 0.0], [1.0, 0.0], {}),
    ([1.0, 2.0], [[1.0, 0.0], [np.inf, 0.0]], [[1.0, 0.0], [1.0, 0.0]], {}),
    (1.0, [1.0, 0.0], [1.0, np.nan], {}),
    ([1.0, 2.0], [[1.0, 0.0]] * 3, [[1.0, 0.0]] * 2, {}),
    ([1.0, 2.0], [1.0, 0.0], [1.0, 0.0], {}),
], ids=["quad_n_zero", "quad_n_65", "quad_n_float", "s_nan", "xi_inf", "zeta_nan",
        "xi_length", "unstacked_xi"])
def test_oscillatory_rejects_bad_inputs(s, xi, zeta, kwargs):
    phi, cuts = oscillatory_cutoffs()
    with pytest.raises(DomainError):
        oscillatory_G(phi, cuts.psi, s, xi, zeta, **{"quad_n": 8, **kwargs})


OSC_PHASES = st.sampled_from([("euclidean", {}), ("scaled_euclidean", {"factor": 0.5}),
                              ("scaled_euclidean", {"factor": 1.7}), ("flat_torus", {}),
                              ("dot_product", {})])
FREQ = st.floats(-8.0, 8.0)


@st.composite
def frequency_stacks(draw):
    """1-5 (s, xi, zeta) triples whose s values come from a pool of at most
    as many values as triples, so that some s repeat."""
    m = draw(st.integers(1, 5))
    pool = draw(st.lists(FREQ, min_size=1, max_size=m))
    s = [draw(st.sampled_from(pool)) for _ in range(m)]
    pairs = st.lists(st.tuples(FREQ, FREQ), min_size=m, max_size=m)
    return np.array(s), np.array(draw(pairs)), np.array(draw(pairs))


@settings(max_examples=40)
@given(kind=OSC_PHASES, weighted=st.booleans(), quad_n=st.integers(4, 24),
       t=st.floats(0.0, 0.7), stack=frequency_stacks(),
       block=st.sampled_from([rng_module.BLOCK, 64, 1000]))
def test_oscillatory_stack_matches_chunked_oracle(kind, weighted, quad_n, t, stack, block):
    phi = phase_function(kind[0], 2, **kind[1])
    psi = build_cutoffs(phi, (0.15, 0.85), 0.05, (0.1, 1.0)).psi if weighted else None
    s, xi, zeta = stack
    with warnings.catch_warnings(), mock.patch.object(rng_module, "BLOCK", block):
        warnings.simplefilter("ignore", ResolutionWarning)
        got = oscillatory_G(phi, psi, s, xi, zeta, t=t, quad_n=quad_n)
        single = oscillatory_G(phi, psi, s[0], xi[0], zeta[0], t=t, quad_n=quad_n)
        first = oscillatory_G(phi, psi, s[:1], xi[:1], zeta[:1], t=t, quad_n=quad_n)
    assert got.shape == s.shape and got.dtype == complex
    assert isinstance(single, complex) and single == first[0]
    # separated triples cancel to a small |G|, so the bar is the L1 mass
    # sum w_x w_y |psi| (1 without psi), not |G|
    abs_psi = None if psi is None else (lambda x, y: np.abs(psi(x, y)))
    mass = chunked_oscillatory_G(phi, abs_psi, 0.0, [0.0, 0.0], [0.0, 0.0], quad_n=quad_n).real
    want = [chunked_oscillatory_G(phi, psi, *triple, t=t, quad_n=quad_n)
            for triple in zip(s, xi, zeta)]
    assert np.abs(got - want).max() <= 1e-12 * mass


def irregular_psi(psi):
    """psi times two masks that vanish on irregular sets of x and of y nodes,
    so that the zero rows and columns of the product form no box."""
    def masked(x, y):
        keep_x = np.sin(37.0 * x[..., 0] + 91.0 * x[..., 1]) < 0.3
        keep_y = np.cos(53.0 * y[..., 0] - 29.0 * y[..., 1]) < 0.5
        return psi(x, y) * keep_x * keep_y
    return masked


@pytest.mark.parametrize("block", [64, 1000])
@pytest.mark.parametrize("quad_n", [17, 24])
def test_oscillatory_irregular_psi_support_matches_chunked_oracle(block, quad_n):
    phi, cuts = oscillatory_cutoffs()
    psi = irregular_psi(cuts.psi)
    s = np.array([4.0, 1.0, 4.0, 2.5])
    xi = np.array([[4.0, 0.0], [3.0, -1.0], [1.0, 2.0], [0.5, 0.0]])
    zeta = np.array([[4.0, 0.0], [1.0, 0.0], [-2.0, 1.0], [0.0, 3.0]])
    with warnings.catch_warnings(), mock.patch.object(rng_module, "BLOCK", block):
        warnings.simplefilter("ignore", ResolutionWarning)
        got = oscillatory_G(phi, psi, s, xi, zeta, t=0.3, quad_n=quad_n)
    mass = chunked_oscillatory_G(phi, lambda x, y: np.abs(psi(x, y)), 0.0, [0.0, 0.0],
                                 [0.0, 0.0], quad_n=quad_n).real
    want = [chunked_oscillatory_G(phi, psi, *triple, t=0.3, quad_n=quad_n)
            for triple in zip(s, xi, zeta)]
    assert np.abs(got - want).max() <= 1e-12 * mass
    assert np.abs(want).min() > 1e-6 * mass


def test_oscillatory_cli_triples_evaluate_only_kept_pairs():
    # the phase is tabulated on the x nodes whose psi row is somewhere
    # nonzero times the y nodes whose psi column is: about a quarter of the
    # 2304^2 pairs at the CLI's cutoffs
    phi = phase_function("euclidean", 2)
    # psi reads a phase object of its own, so the spy sees only the tabulation
    psi = build_cutoffs(phase_function("euclidean", 2), (0.15, 0.85), 0.05, (0.1, 1.0)).psi
    gn, _ = np.polynomial.legendre.leggauss(48)
    g1, g2 = np.meshgrid(0.5 + 0.5 * gn, 0.5 + 0.5 * gn, indexing="ij")
    pts = np.stack([g1.ravel(), g2.ravel()], axis=1)
    rows, cols = np.zeros(len(pts), bool), np.zeros(len(pts), bool)
    for i0 in range(0, len(pts), 256):
        nz = psi(pts[i0:i0 + 256, None, :], pts[None, :, :]) != 0
        rows[i0:i0 + 256] = nz.any(axis=1)
        cols |= nz.any(axis=0)
    shapes = []
    value = phi.value

    def spy(x, y):
        shapes.append(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
        return value(x, y)

    s = np.array([4.0, 1.0, 1.0, 2.0])
    xi = np.array([[4.0, 0.0], [16.0, 0.0], [1.0, 0.0], [16.0, 0.0]])
    zeta = np.array([[4.0, 0.0], [1.0, 0.0], [16.0, 0.0], [1.0, 0.0]])
    with warnings.catch_warnings(), mock.patch.object(phi, "value", spy):
        warnings.simplefilter("ignore", ResolutionWarning)
        oscillatory_G(phi, psi, s, xi, zeta, quad_n=48)
    kept = int(rows.sum()) * int(cols.sum())
    assert sum(int(np.prod(sh)) for sh in shapes) == kept
    assert 0.24 < kept / len(pts) ** 2 < 0.26


def test_oscillatory_stack_memory_stays_blocked():
    # the fourier CLI's four triples; one scalar call over 4M-entry (pair)
    # chunks peaked at 244 MiB
    phi, cuts = oscillatory_cutoffs()
    s = np.array([4.0, 1.0, 1.0, 2.0])
    xi = np.array([[4.0, 0.0], [16.0, 0.0], [1.0, 0.0], [16.0, 0.0]])
    zeta = np.array([[4.0, 0.0], [1.0, 0.0], [16.0, 0.0], [1.0, 0.0]])
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            oscillatory_G(phi, cuts.psi, s, xi, zeta, quad_n=48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2 ** 20


def test_oscillatory_criterion_09_ratios_converge_in_quad_n():
    """Criterion 09's separated/matched ratios move by 3-6% from 48 to 64
    nodes per axis; 10% bounds the quadrature error of the 48-node values."""
    phi, cuts = oscillatory_cutoffs()
    pairs = [(2, 2, 4.0), (0, 4, 1.0), (4, 0, 1.0), (0, 4, 2.0), (4, 0, 2.0)]
    s = np.array([p[2] for p in pairs])
    xi = np.array([[2.0 ** k, 0.0] for _, k, _ in pairs])
    zeta = np.array([[2.0 ** j, 0.0] for j, _, _ in pairs])
    with pytest.warns(ResolutionWarning) as record:
        g48 = np.abs(oscillatory_G(phi, cuts.psi, s, xi, zeta, quad_n=48))
    # frequency 16 > 48/4 in each separated triple, one warning apiece
    assert sum(issubclass(w.category, ResolutionWarning) for w in record) == 4
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResolutionWarning)
        g64 = np.abs(oscillatory_G(phi, cuts.psi, s, xi, zeta, quad_n=64))
    r48, r64 = g48[1:] / g48[0], g64[1:] / g64[0]
    assert np.all(np.abs(r48 / r64 - 1.0) <= 0.1), (r48, r64)
