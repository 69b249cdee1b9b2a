import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (dense_window_mass, enumerated_config_mass,
                     nested_chain_tuple_mass)

from pinlab import (BudgetError, DomainError, EdgeMap, FrostmanMeasure,
                    build_product_cantor, chain_tuple_count,
                    config_count, hinge_count, hinge_count_integrated,
                    natural_measure, phase_function, pinned_lift,
                    save_edge_map, star_edge_map, uniform_grid_measure)
from pinlab.configs import _window_mass, sort_gaps
from pinlab.rng import rng_for

PHI = phase_function("euclidean", 2)


def two_atom_measure():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    return FrostmanMeasure(pts, np.array([0.5, 0.5]), exponent_s=0.0)


def test_hinge_two_atoms_exact_vs_bruteforce():
    mu = two_atom_measure()
    eps = 0.1
    c = hinge_count(mu, mu, PHI, 1.0, eps)
    pts = mu.points
    brute = 0.0
    for i, j, k in itertools.product(range(2), repeat=3):
        ok = (abs(np.linalg.norm(pts[i] - pts[j]) - 1.0) <= eps
              and abs(np.linalg.norm(pts[i] - pts[k]) - 1.0) <= eps)
        brute += 0.5 ** 3 * ok
    assert c.count_normalized == pytest.approx(brute / eps ** 2, abs=1e-12)
    assert c.stderr == 0.0 and c.samples == 0


def test_hinge_empty_event():
    mu = two_atom_measure()
    assert hinge_count(mu, mu, PHI, 5.0, 0.1).count_normalized == 0.0
    assert hinge_count(mu, mu, PHI, -3.0, 0.1).count_normalized == 0.0


def test_hinge_monte_carlo_three_sigma():
    mu = two_atom_measure()
    exact = hinge_count(mu, mu, PHI, 1.0, 0.1).count_normalized
    mc = hinge_count(mu, mu, PHI, 1.0, 0.1, samples=40_000, seed=9)
    assert mc.count_normalized == pytest.approx(exact, abs=3 * mc.stderr)


def test_hinge_two_resolution_lebesgue():
    mu = uniform_grid_measure(2, 24)
    a = hinge_count(mu, mu, PHI, 0.5, 0.1).count_normalized
    b = hinge_count(mu, mu, PHI, 0.5, 0.05).count_normalized
    assert 0.7 <= b / a <= 1.4


def test_hinge_integrated_zero_beta():
    mu = two_atom_measure()
    t_nodes = np.linspace(0.5, 1.5, 41)
    val = hinge_count_integrated(mu, mu, PHI, lambda t: np.zeros_like(np.asarray(t)),
                                 0.1, t_nodes)
    assert val == 0.0


def test_hinge_integrated_two_atoms_vs_quadrature_oracle():
    mu = two_atom_measure()
    eps = 0.1
    t_nodes = np.linspace(0.6, 1.4, 161)
    val = hinge_count_integrated(mu, mu, PHI, None, eps, t_nodes)
    # oracle: trapezoid of the exact per-t triple sum on the same nodes
    pts = mu.points
    per_t = []
    for t in t_nodes:
        acc = 0.0
        for i, j, k in itertools.product(range(2), repeat=3):
            ok = (abs(np.linalg.norm(pts[i] - pts[j]) - t) <= eps
                  and abs(np.linalg.norm(pts[i] - pts[k]) - t) <= eps)
            acc += 0.5 ** 3 * ok
        per_t.append(acc / eps ** 2)
    oracle = np.trapezoid(per_t, t_nodes)
    assert val == pytest.approx(oracle, rel=1e-10)
    # per pin the other atom carries mass 1/2, both legs must pick it:
    # event mass 1/4 over a window of width 2 eps
    assert oracle == pytest.approx(0.25 * 2 * eps / eps ** 2, rel=0.04)


@given(seed=st.integers(0, 2 ** 32 - 1), n_pins=st.integers(1, 8),
       n_atoms=st.integers(1, 200), n_t=st.integers(2, 40),
       eps=st.floats(1e-3, 0.5))
def test_window_mass_matches_dense_oracle(seed, n_pins, n_atoms, n_t, eps):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 1.0, n_atoms)
    mu = FrostmanMeasure(rng.uniform(0, 1, (n_atoms, 2)), w / w.sum(), exponent_s=2.0)
    lam = FrostmanMeasure(rng.uniform(0, 1, (n_pins, 2)), np.full(n_pins, 1 / n_pins),
                          exponent_s=2.0)
    t_nodes = np.linspace(-0.1, 1.5, n_t)
    # window masses are differences of prefix sums of weights that add to 1
    np.testing.assert_allclose(_window_mass(sort_gaps(lam, mu, PHI), t_nodes, eps),
                               dense_window_mass(lam, mu, PHI, t_nodes, eps),
                               rtol=0.0, atol=1e-12)


def test_window_mass_ties_on_grid_measure_exact():
    # dyadic cell centres: every gap is exact, many gaps tie, and gaps land
    # exactly on the closed window edges t +- eps; weights 2^-8 add exactly
    mu = uniform_grid_measure(2, 16)
    step = 1.0 / 16
    t_nodes = step * np.arange(24)
    for eps in (step, 2 * step, 3 * step):
        new = _window_mass(sort_gaps(mu, mu, PHI), t_nodes, eps)
        assert np.array_equal(new, dense_window_mass(mu, mu, PHI, t_nodes, eps))


def test_window_mass_memory_scales_with_pins_times_atoms():
    # 64 pins x 4096 atoms x 96 t-nodes; a (pin x t x atom) tensor is ~200 MB
    mu = uniform_grid_measure(2, 64)
    lam = FrostmanMeasure(mu.points[::64], np.full(64, 1 / 64), exponent_s=2.0)
    t_nodes = np.linspace(-0.05, 1.5, 96)
    tracemalloc.start()
    try:
        _window_mass(sort_gaps(lam, mu, PHI), t_nodes, 2.0 ** -5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_hinge_integrated_cantor_bounded():
    s = 1.7
    mu = natural_measure(build_product_cantor(2, 2.0 ** (-2 / s), 5))
    idx = rng_for(0, 3).choice(len(mu), size=48, replace=False)
    lam = FrostmanMeasure(mu.points[idx], np.full(48, 1 / 48), exponent_s=s)
    t_nodes = np.linspace(0.0, 1.5, 97)
    vals = [hinge_count_integrated(lam, mu, PHI, None, 2.0 ** -k, t_nodes)
            for k in (3, 4, 5)]
    assert max(vals) / min(vals) <= 1.5


def test_chain_k1_equals_hinge():
    mu = two_atom_measure()
    h = hinge_count(mu, mu, PHI, 1.0, 0.1)
    c = chain_tuple_count(mu, mu, PHI, [1.0], 0.1)
    assert c.count_normalized == pytest.approx(h.count_normalized, abs=1e-12)


def test_chain_two_atoms_k2_bruteforce():
    mu = two_atom_measure()
    eps, t = 0.1, [1.0, 1.0]
    c = chain_tuple_count(mu, mu, PHI, t, eps)
    pts = mu.points
    brute = 0.0
    for x, a, b, a2, b2 in itertools.product(range(2), repeat=5):
        ok = (abs(np.linalg.norm(pts[x] - pts[a]) - t[0]) <= eps
              and abs(np.linalg.norm(pts[a] - pts[b]) - t[1]) <= eps
              and abs(np.linalg.norm(pts[x] - pts[a2]) - t[0]) <= eps
              and abs(np.linalg.norm(pts[a2] - pts[b2]) - t[1]) <= eps)
        brute += 0.5 ** 5 * ok
    assert c.count_normalized == pytest.approx(brute / eps ** 4, abs=1e-10)


def test_chain_unattainable_gap():
    mu = two_atom_measure()
    assert chain_tuple_count(mu, mu, PHI, [1.0, 7.0], 0.1).count_normalized == 0.0


def test_chain_monte_carlo_three_sigma():
    mu = two_atom_measure()
    exact = chain_tuple_count(mu, mu, PHI, [1.0, 1.0], 0.3).count_normalized
    mc = chain_tuple_count(mu, mu, PHI, [1.0, 1.0], 0.3, samples=50_000, seed=4)
    assert mc.count_normalized == pytest.approx(exact, abs=3 * mc.stderr)


def test_chain_exact_vs_monte_carlo_asymmetric_phase():
    rng = rng_for(12, 0)
    mu = FrostmanMeasure(rng.uniform(0, 1, (12, 2)), np.full(12, 1 / 12), exponent_s=2.0)
    lam = FrostmanMeasure(rng.uniform(0, 1, (4, 2)), np.full(4, 1 / 4), exponent_s=2.0)
    phi = phase_function("scaled_euclidean", 2, factor=1.7)
    t, eps = [0.6, 0.5], 0.3
    exact = chain_tuple_count(lam, mu, phi, t, eps).count_normalized
    mc = chain_tuple_count(lam, mu, phi, t, eps, samples=60_000, seed=3)
    assert exact > 0
    assert mc.count_normalized == pytest.approx(exact, abs=3 * mc.stderr)


def test_config_single_edge_matches_pair_count():
    mu = uniform_grid_measure(2, 8)
    em = EdgeMap(2, frozenset({(1, 2)}))
    c = config_count(em, mu, PHI, {(1, 2): 0.5}, 0.1)
    dist = np.sqrt(((mu.points[:, None, :] - mu.points[None, :, :]) ** 2).sum(-1))
    pair = float(((np.abs(dist - 0.5) <= 0.1) *
                  np.outer(mu.weights, mu.weights)).sum())
    assert c.count_normalized == pytest.approx(pair / 0.1, rel=1e-12)


def test_config_four_star_vs_five_tuple_bruteforce():
    # the lifted middle-pinned 2-chain: all四 legs pinned at the center vertex
    mu = uniform_grid_measure(2, 3)   # 9 atoms: 9^5 tuples brute forced below
    em = star_edge_map(4, center=5)
    t = {(1, 5): 0.4, (2, 5): 0.4, (3, 5): 0.6, (4, 5): 0.6}
    eps = 0.15
    c = config_count(em, mu, PHI, t, eps)
    pts, w = mu.points, mu.weights
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    ok12 = np.abs(dist - 0.4) <= eps
    ok34 = np.abs(dist - 0.6) <= eps
    brute = 0.0
    for c5 in range(9):
        m = (ok12[:, c5] @ w) ** 2 * (ok34[:, c5] @ w) ** 2
        brute += w[c5] * m
    assert c.count_normalized == pytest.approx(brute / eps ** 4, rel=1e-10)


def test_config_two_chain_vs_triple_loop():
    mu = uniform_grid_measure(2, 4)
    em = EdgeMap(3, frozenset({(1, 2), (2, 3)}))
    t = {(1, 2): 0.5, (2, 3): 0.5}
    eps = 0.1
    c = config_count(em, mu, PHI, t, eps)
    pts, w = mu.points, mu.weights
    brute = 0.0
    for i in range(len(pts)):
        for j in range(len(pts)):
            if abs(np.linalg.norm(pts[i] - pts[j]) - 0.5) > eps:
                continue
            for k in range(len(pts)):
                if abs(np.linalg.norm(pts[j] - pts[k]) - 0.5) <= eps:
                    brute += w[i] * w[j] * w[k]
    assert c.count_normalized == pytest.approx(brute / eps ** 2, rel=1e-12)


def test_config_relabeling_symmetry():
    mu1 = uniform_grid_measure(2, 4)
    grid = uniform_grid_measure(2, 5)
    mu2 = FrostmanMeasure(0.2 + 0.6 * grid.points, grid.weights, exponent_s=2.0)
    mu3 = natural_measure(build_product_cantor(2, 1 / 3, 2))
    em = EdgeMap(3, frozenset({(1, 2), (2, 3)}))
    t = {(1, 2): 0.5, (2, 3): 0.3}
    c = config_count(em, [mu1, mu2, mu3], PHI, t, 0.1)
    # relabel vertices by the permutation 1->3, 2->1, 3->2
    perm = {1: 3, 2: 1, 3: 2}
    em_p = EdgeMap(3, frozenset(tuple(sorted((perm[i], perm[j]))) for i, j in em.edges))
    t_p = {tuple(sorted((perm[i], perm[j]))): v for (i, j), v in t.items()}
    measures_p = [None] * 3
    for v in (1, 2, 3):
        measures_p[perm[v] - 1] = [mu1, mu2, mu3][v - 1]
    c_p = config_count(em_p, measures_p, PHI, t_p, 0.1)
    assert c.count_normalized == pytest.approx(c_p.count_normalized, rel=1e-12)


def test_config_epsilon_halving_stability():
    mu = uniform_grid_measure(2, 12)
    em = EdgeMap(2, frozenset({(1, 2)}))
    vals = [config_count(em, mu, PHI, {(1, 2): 0.5}, eps).count_normalized
            for eps in (0.2, 0.1, 0.05)]
    for a, b in zip(vals, vals[1:]):
        assert abs(b - a) / a <= 0.4


def test_config_exact_vs_monte_carlo_small():
    pts = rng_for(11, 0).uniform(0.1, 0.9, size=(8, 2))
    mu = FrostmanMeasure(pts, np.full(8, 1 / 8), exponent_s=2.0)
    em = EdgeMap(3, frozenset({(1, 2), (2, 3)}))
    t = {(1, 2): 0.4, (2, 3): 0.4}
    exact = config_count(em, mu, PHI, t, 0.2)
    mc = config_count(em, mu, PHI, t, 0.2, samples=60_000, seed=2)
    assert mc.count_normalized == pytest.approx(exact.count_normalized,
                                                abs=3 * mc.stderr)


def test_config_budget_and_validation():
    mu = uniform_grid_measure(2, 32)   # 1024 atoms: 1024^3 > 1e7
    em = EdgeMap(3, frozenset({(1, 2), (2, 3)}))
    with pytest.raises(BudgetError):
        config_count(em, mu, PHI, {(1, 2): 0.5, (2, 3): 0.5}, 0.1)
    with pytest.raises(DomainError):
        config_count(em, uniform_grid_measure(2, 2), PHI, {(1, 2): 0.5}, 0.1)
    with pytest.raises(DomainError):
        EdgeMap(3, frozenset({(2, 1)}))
    with pytest.raises(DomainError):
        EdgeMap(3, frozenset())


def test_pinned_lift_two_chain_middle_pin_is_four_star():
    # middle vertex relabeled to k+1 = 3: the 2-star (1,3),(2,3)
    em = EdgeMap(3, frozenset({(1, 3), (2, 3)}))
    lifted = pinned_lift(em)
    assert lifted.vertex_count == 5
    assert lifted.sorted_edges() == [(1, 3), (2, 3), (3, 4), (3, 5)]
    star = star_edge_map(4, center=3)
    assert lifted.edges == star.edges


def test_pinned_lift_four_cycle_two_necklaces():
    em = EdgeMap(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}))
    lifted = pinned_lift(em)
    assert lifted.vertex_count == 7
    assert lifted.sorted_edges() == [(1, 2), (1, 4), (2, 3), (3, 4),
                                     (4, 5), (4, 7), (5, 6), (6, 7)]


def test_pinned_lift_random_edge_maps_double():
    rng = rng_for(17, 0)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        pairs = list(itertools.combinations(range(1, k + 2), 2))
        n_edges = int(rng.integers(1, len(pairs) + 1))
        pick = rng.choice(len(pairs), size=n_edges, replace=False)
        em = EdgeMap(k + 1, frozenset(pairs[i] for i in pick))
        lifted = pinned_lift(em)
        assert lifted.n_edges == 2 * em.n_edges
        assert lifted.vertex_count == 2 * em.vertex_count - 1


def test_edge_map_roundtrip(tmp_path):
    em = EdgeMap(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}))
    path = tmp_path / "edges.txt"
    save_edge_map(em, path)
    text = path.read_text().splitlines()
    assert text[0] == "4 4"
    assert text[1:] == ["1 2", "1 4", "2 3", "3 4"]


def test_counts_reject_bad_eps_and_samples():
    mu = two_atom_measure()
    em = EdgeMap(2, frozenset({(1, 2)}))
    for eps, samples in ((0.0, 0), (-0.1, 0), (0.1, -5)):
        with pytest.raises(DomainError):
            config_count(em, mu, PHI, {(1, 2): 1.0}, eps, samples)
        with pytest.raises(DomainError):
            hinge_count(mu, mu, PHI, 1.0, eps, samples)
        with pytest.raises(DomainError):
            chain_tuple_count(mu, mu, PHI, [1.0, 1.0], eps, samples)


@pytest.mark.parametrize("eps", [0.0, -0.1, float("nan")])
def test_hinge_count_integrated_rejects_bad_eps(eps):
    # eps = 0 divided by zero and eps = -0.1 returned 4.956 here
    mu = uniform_grid_measure(2, 4)
    with pytest.raises(DomainError, match=r"^need eps > 0 and samples >= 0, got eps="):
        hinge_count_integrated(mu, mu, PHI, None, eps, np.linspace(0, 1, 11))


@pytest.mark.parametrize("t_nodes", [[], [0.5], 0.5])
def test_hinge_count_integrated_needs_two_t_nodes(t_nodes):
    # one node used to raise IndexError at t_nodes[1]
    mu = uniform_grid_measure(2, 4)
    with pytest.raises(DomainError, match=r"^need a 1-d grid of >= 2 t-nodes"):
        hinge_count_integrated(mu, mu, PHI, None, 0.1, t_nodes)


# -- exact counts by contraction against tuple enumeration -----------------

NAMED_PATTERNS = {
    "triangle": EdgeMap(3, frozenset({(1, 2), (2, 3), (1, 3)})),
    "four_cycle": EdgeMap(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})),
    "lifted_triangle": pinned_lift(EdgeMap(3, frozenset({(1, 2), (2, 3), (1, 3)}))),
    "isolated_vertex": EdgeMap(4, frozenset({(1, 2), (2, 3)})),
}

# dyadic grid: every gap is exact, gaps tie, and the t and eps below put
# gaps exactly on the closed window edges t +- eps
GRID_T = (0.25, 0.5, 0.75)
GRID_EPS = (0.25, 0.5)


@st.composite
def random_edge_maps(draw):
    """2-5 vertices, any nonempty edge set; vertices past the largest edge
    end are isolated."""
    n = draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs), min_size=1))
    return EdgeMap(draw(st.integers(max(j for _, j in edges), 5)), frozenset(edges))


@st.composite
def count_inputs(draw, em):
    """(measures, t_map, eps): distinct random measures per vertex, or one
    grid-aligned uniform_grid_measure with dyadic t and eps."""
    if draw(st.booleans()):
        # 16 atoms on at most 4 vertices keeps the enumeration small
        per_side = draw(st.sampled_from((2, 4) if em.vertex_count <= 4 else (2,)))
        mu = uniform_grid_measure(2, per_side)
        t_map = {e: draw(st.sampled_from(GRID_T)) for e in em.sorted_edges()}
        return [mu] * em.vertex_count, t_map, draw(st.sampled_from(GRID_EPS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    measures = []
    for _ in range(em.vertex_count):
        n = int(rng.integers(1, 6))
        w = rng.uniform(0.05, 1.0, n)
        measures.append(FrostmanMeasure(rng.uniform(0, 1, (n, 2)), w / w.sum(),
                                        exponent_s=2.0))
    t_map = {e: float(rng.uniform(0.05, 1.0)) for e in em.sorted_edges()}
    return measures, t_map, draw(st.floats(0.05, 0.5))


def assert_matches_enumeration(em, measures, t_map, eps):
    got = config_count(em, measures, PHI, t_map, eps).count_normalized * eps ** em.n_edges
    want = enumerated_config_mass(em, measures, PHI, t_map, eps)
    assert (got == 0.0) == (want == 0.0)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(NAMED_PATTERNS))
@settings(max_examples=10)
@given(data=st.data())
def test_contract_named_patterns_match_enumeration(name, data):
    em = NAMED_PATTERNS[name]
    assert_matches_enumeration(em, *data.draw(count_inputs(em)))


@settings(max_examples=40)
@given(data=st.data())
def test_contract_random_patterns_match_enumeration(data):
    em = data.draw(random_edge_maps())
    assert_matches_enumeration(em, *data.draw(count_inputs(em)))


def test_contract_sixty_vertex_path_of_single_atoms():
    # more vertices than einsum has labels; enumeration sees a single tuple
    a = FrostmanMeasure(np.array([[0.2, 0.5]]), np.array([1.0]), exponent_s=0.0)
    b = FrostmanMeasure(np.array([[0.7, 0.5]]), np.array([1.0]), exponent_s=0.0)
    em = EdgeMap(60, frozenset((i, i + 1) for i in range(1, 60)))
    t_map = {e: 0.5 for e in em.edges}
    c = config_count(em, [a, b] * 30, PHI, t_map, 0.25)
    assert c.count_normalized == 4.0 ** 59
    t_map[(30, 31)] = 2.0
    assert config_count(em, [a, b] * 30, PHI, t_map, 0.25).count_normalized == 0.0


# phi(x, y) != phi(y, x) for a scale factor other than 1, so these catch
# a chain read from the far end instead of from the pin
CHAIN_PHASES = (PHI, phase_function("scaled_euclidean", 2, factor=0.5),
                phase_function("scaled_euclidean", 2, factor=1.7))


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 4),
       n_pins=st.integers(1, 5), n_atoms=st.integers(1, 40),
       eps=st.floats(0.02, 0.5), grid=st.booleans(), phi=st.sampled_from(CHAIN_PHASES))
def test_chain_tuple_count_matches_nested_oracle(seed, k, n_pins, n_atoms, eps, grid, phi):
    rng = np.random.default_rng(seed)
    if grid:
        mu = lam = uniform_grid_measure(2, 4)
        t = rng.choice(GRID_T, size=k)
        eps = float(rng.choice(GRID_EPS))
    else:
        w = rng.uniform(0.05, 1.0, n_atoms)
        mu = FrostmanMeasure(rng.uniform(0, 1, (n_atoms, 2)), w / w.sum(), exponent_s=2.0)
        lam = FrostmanMeasure(rng.uniform(0, 1, (n_pins, 2)), np.full(n_pins, 1 / n_pins),
                              exponent_s=2.0)
        t = rng.uniform(0.05, 1.0, size=k)
    got = chain_tuple_count(lam, mu, phi, t, eps).count_normalized * eps ** (2 * k)
    want = nested_chain_tuple_mass(lam, mu, phi, t, eps)
    assert (got == 0.0) == (want == 0.0)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_monte_carlo_counts_keep_their_streams():
    """Seed-fixed Monte Carlo counts, recorded as `float.hex` before the three
    sampling loops became one counter: the draws of streams 5, 6 and 7, their
    order over the vertices and the hit tests must not move."""
    mu = natural_measure(build_product_cantor(2, 1 / 3, 3))
    lam = natural_measure(build_product_cantor(2, 1 / 4, 2))
    counts = {
        "hinge": hinge_count(lam, mu, PHI, 0.3, 0.05, samples=20_000, seed=11),
        "chain1": chain_tuple_count(lam, mu, PHI, [0.3], 0.05, samples=20_000, seed=12),
        "chain2": chain_tuple_count(lam, mu, PHI, [0.3, 0.35], 0.12, samples=20_000, seed=13),
        "config": config_count(star_edge_map(2, 1), [lam, mu, mu], PHI,
                               {(1, 2): 0.3, (1, 3): 0.45}, 0.06, samples=20_000, seed=14),
    }
    recorded = {
        "hinge": ("0x1.8a3d70a3d70a3p+0", "0x1.66bae057904fep-3"),
        "chain1": ("0x1.f0a3d70a3d709p+0", "0x1.926e04b29528cp-3"),
        "chain2": ("0x1.cef684bda12f8p+1", "0x1.ddf77d2bc547ep-1"),
        "config": ("0x1.31c71c71c71c7p-1", "0x1.74a4e725af38cp-4"),
    }
    for name, c in counts.items():
        assert c.samples == 20_000
        assert (float(c.count_normalized).hex(), float(c.stderr).hex()) == recorded[name], name
