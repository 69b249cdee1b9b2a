from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import loop_ball_mass, loop_frostman_constant, loop_frostman_exponent_fit

from pinlab import (BudgetError, DomainError, FrostmanMeasure, ball_mass,
                    build_product_cantor, build_subdivision_fractal,
                    frostman_exponent_fit,
                    natural_measure, sample_points, save_cells, save_measure,
                    segment_measure, uniform_grid_measure)
from pinlab.fractals import probe_frostman_constant


def test_segment_measure_needs_an_atom():
    for n in (0, -3):
        with pytest.raises(DomainError, match="need n_atoms >= 1"):
            segment_measure(n)
    assert len(segment_measure(1)) == 1


def test_middle_thirds_level3():
    f = build_product_cantor(1, 1 / 3, 3)
    assert len(f.digits) == 8
    assert f.cell_side == pytest.approx(3.0 ** -3)
    assert f.target_dim == pytest.approx(np.log(2) / np.log(3), abs=1e-12)


def test_product_cantor_dim_16():
    a = 2.0 ** -1.25
    f = build_product_cantor(2, a, 4)
    assert f.target_dim == pytest.approx(1.6, abs=1e-12)


def test_quarter_cantor_level1_corners():
    f = build_product_cantor(2, 1 / 4, 1)
    assert len(f.digits) == 4
    assert f.target_dim == pytest.approx(1.0, abs=1e-12)
    origins = sorted(map(tuple, f.origins().round(12)))
    assert origins == [(0.0, 0.0), (0.0, 0.75), (0.75, 0.0), (0.75, 0.75)]
    assert f.cell_side == pytest.approx(0.25)


def test_product_cantor_domain_and_budget():
    with pytest.raises(DomainError):
        build_product_cantor(2, 0.5, 3)
    with pytest.raises(DomainError):
        build_product_cantor(1, -0.1, 3)
    with pytest.raises(BudgetError):
        build_product_cantor(2, 1 / 3, 25)


def test_subdivision_counts_and_dims():
    f = build_subdivision_fractal(2, 2, 3, 5, seed=7)
    assert len(f.digits) == 3 ** 5
    assert f.target_dim == pytest.approx(np.log(3) / np.log(2), abs=1e-12)

    full = build_subdivision_fractal(2, 2, 4, 3, seed=0)
    assert len(full.digits) == 4 ** 3
    assert full.target_dim == pytest.approx(2.0)

    single = build_subdivision_fractal(2, 3, 1, 4, seed=1)
    assert len(single.digits) == 1
    assert single.cell_side == pytest.approx(3.0 ** -4)
    assert single.target_dim == 0.0

    with pytest.raises(DomainError):
        build_subdivision_fractal(2, 2, 5, 3, seed=0)


def test_nesting_invariant():
    f = build_subdivision_fractal(2, 2, 3, 5, seed=11)

    def prefixes(level):
        """The distinct digit prefixes of length `level`: the level's cells."""
        return {tuple(c.ravel()) for c in f.digits[:, :, :level]}

    for level in range(1, f.level_n):
        parents = prefixes(level)
        for c in f.digits[:, :, :level + 1]:
            assert tuple(c[:, :level].ravel()) in parents
        assert len(parents) == f.keep_m ** level
    assert len(prefixes(f.level_n)) == len(f.digits) == f.keep_m ** f.level_n


def test_natural_measure_masses():
    m3 = natural_measure(build_product_cantor(1, 1 / 3, 3))
    assert len(m3) == 8
    assert np.allclose(m3.weights, 1 / 8)
    assert abs(m3.weights.sum() - 1.0) < 1e-12

    full = natural_measure(build_subdivision_fractal(2, 2, 4, 2, seed=0))
    assert len(full) == 16
    assert np.allclose(full.weights, 1 / 16)
    assert full.exponent_s == pytest.approx(2.0)

    pc = natural_measure(build_product_cantor(2, 1 / 3, 2))
    assert len(pc) == 16
    assert pc.exponent_s == pytest.approx(2 * np.log(2) / np.log(3), abs=1e-10)


def test_ball_mass_middle_thirds():
    for n in range(1, 7):
        mu = natural_measure(build_product_cantor(1, 1 / 3, n))
        assert ball_mass(mu, [0.0], 3.0 ** -n) <= 2.0 * 2.0 ** -n + 1e-12


def test_ball_mass_full_support():
    mu = natural_measure(build_product_cantor(2, 1 / 3, 3))
    assert ball_mass(mu, [2.0, 2.0], 5.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        ball_mass(mu, [0.0, 0.0], 0.0)


def test_ball_mass_matches_bruteforce_level5():
    mu = natural_measure(build_product_cantor(2, 1 / 3, 5))
    x = mu.points[137]
    r = 3.0 ** -3
    # independent oracle: plain loop over all 4^5 cells
    total = 0.0
    for p, w in zip(mu.points, mu.weights):
        if np.hypot(p[0] - x[0], p[1] - x[1]) <= r:
            total += w
    assert ball_mass(mu, x, r) == pytest.approx(total, abs=1e-15)


@st.composite
def lattice_measures(draw):
    """Atoms on the lattice (Z/8)^d in [0, 1]^d, d = 1..3, so that many pair
    distances coincide, with positive weights summing to 1."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.uniform(0.05, 1.0, n)
    return FrostmanMeasure(rng.integers(0, 9, (n, d)) / 8.0, w / w.sum(), exponent_s=float(d))


@given(mu=lattice_measures(), data=st.data())
def test_ball_mass_kernel_matches_per_centre_loops(mu, data):
    # ball_mass and the exponent fit's sups equal the per-centre loops bit
    # for bit; the radii include every distance from x to an atom exactly,
    # since the ball is closed
    x = mu.points[data.draw(st.integers(0, len(mu) - 1))]
    dist = np.sqrt(((mu.points - x) ** 2).sum(axis=1))
    radii = sorted({float(r) for r in dist[dist > 0]} | {0.1, 0.3, 2.0})
    for r in radii:
        assert ball_mass(mu, x, r) == loop_ball_mass(mu, x, r)
    scales = data.draw(st.lists(st.sampled_from(radii), min_size=2, unique=True))
    probes, seed = data.draw(st.integers(1, 50)), data.draw(st.integers(0, 99))
    with mock.patch.object(np, "polyfit", wraps=np.polyfit) as fit:
        got = frostman_exponent_fit(mu, scales, probes, seed)
    slope, const, sups = loop_frostman_exponent_fit(mu, scales, probes, seed)
    assert np.array_equal(fit.call_args.args[1], np.log(sups))
    assert got == (slope, const)


@given(d=st.integers(1, 2), level=st.integers(1, 4), ratio=st.floats(0.05, 0.49),
       keep=st.integers(1, 9), base=st.sampled_from([2, 3]), seed=st.integers(0, 99),
       family=st.sampled_from(["product_cantor", "subdivision"]))
def test_probe_frostman_constant_matches_per_centre_loop(d, level, ratio, keep, base,
                                                         seed, family):
    # b-adic centres sit at exact multiples of the construction scales, so
    # radii equal to atom distances occur
    if family == "product_cantor":
        f = build_product_cantor(d, ratio, level)
    else:
        f = build_subdivision_fractal(d, base, min(keep, base ** d), min(level, 3), seed)
    mu = natural_measure(f)
    assert probe_frostman_constant(mu, f) == loop_frostman_constant(mu, f)


def test_frostman_fit_middle_thirds():
    mu = natural_measure(build_product_cantor(1, 1 / 3, 6))
    slope, const = frostman_exponent_fit(mu, [3.0 ** -k for k in range(1, 7)],
                                         probes=64, seed=1)
    assert slope == pytest.approx(np.log(2) / np.log(3), abs=0.05)
    assert const > 0


def test_frostman_fit_lebesgue():
    mu = uniform_grid_measure(2, 64)
    slope, _ = frostman_exponent_fit(mu, [2.0 ** -k for k in range(1, 6)],
                                     probes=32, seed=2)
    assert slope == pytest.approx(2.0, abs=0.05)


def test_frostman_fit_subdivision():
    # the sup-ball estimator runs ~0.15 below log3/log2 at level 6: cluster
    # multiplicity inflates fine-scale sups while coarse scales saturate
    # (frozen from exact enumeration over all atoms; see decisions ledger)
    mu = natural_measure(build_subdivision_fractal(2, 2, 3, 6, seed=5))
    slope, _ = frostman_exponent_fit(mu, [2.0 ** -k for k in range(1, 7)],
                                     probes=10 ** 9, seed=3)
    assert slope == pytest.approx(1.3869, abs=0.02)
    assert 1.30 < slope < np.log(3) / np.log(2)


def test_frostman_fit_corner_cantor_families():
    # the deterministic product family does recover its dimension
    from pinlab import build_product_cantor
    for s, tol in ((1.0, 0.08), (1.7, 0.08)):
        a = 2.0 ** (-2.0 / s)
        mu = natural_measure(build_product_cantor(2, a, 5))
        scales = [2.0 ** -k for k in range(1, 8)]
        slope, _ = frostman_exponent_fit(mu, scales, probes=10 ** 9, seed=1)
        assert slope == pytest.approx(s, abs=tol)


def test_frostman_fit_degenerate_scales():
    mu = uniform_grid_measure(1, 8)
    with pytest.raises(DomainError):
        frostman_exponent_fit(mu, [0.1, 0.1, 0.1], probes=4, seed=0)


def test_determinism_bit_identical():
    a = build_subdivision_fractal(2, 2, 3, 5, seed=42)
    b = build_subdivision_fractal(2, 2, 3, 5, seed=42)
    assert np.array_equal(a.digits, b.digits)
    mu = natural_measure(a)
    # a draw is its atom indices
    s1 = sample_points(mu, 1000, seed=9)
    s2 = sample_points(mu, 1000, seed=9)
    assert np.array_equal(s1, s2)
    s3 = sample_points(mu, 1000, seed=10)
    assert not np.array_equal(s1, s3)
    assert s1.shape == (1000,) and s1.dtype.kind == "i"
    assert 0 <= s1.min() and s1.max() < len(mu)


def test_cells_roundtrip(tmp_path):
    f = build_product_cantor(2, 2.0 ** -1.25, 3)
    path = tmp_path / "cells.txt"
    save_cells(f, path)
    header, *lines = path.read_text().splitlines()
    assert header.split() == ["2", "2", "3", "4", repr(float(f.target_dim))]
    digits = [[[int(c) for c in axis.split(",")] for axis in line.split()] for line in lines]
    assert np.array_equal(np.array(digits, dtype=np.uint8), f.digits)


def test_measure_roundtrip(tmp_path):
    mu = natural_measure(build_subdivision_fractal(2, 3, 4, 3, seed=2))
    path = tmp_path / "measure.csv"
    save_measure(mu, path)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, :2], mu.points)
    assert np.array_equal(back[:, 2], mu.weights)
    assert path.read_text().splitlines()[0] == "x_1,x_2,weight"
