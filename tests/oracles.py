"""Dense reference implementations kept as test oracles.

These are the (node x atom) kernel-matrix evaluation of `pinned_density`,
the (pin x t x atom) indicator tensor of `configs._window_mass`, the tuple
enumeration of exact `config_count` and the hand-written recursion of exact
`chain_tuple_count` that the package used before windowed deposition,
sorted prefix sums and the graph contraction `configs._contract` replaced
them, plus exact `composed_operator_density` as it was before its phi and
psi matrices were built once for all links.  They touch every pair or
tuple, or rebuild what the package shares, so they are slow and
memory-hungry, but they are simple enough to trust.
"""

import math

import numpy as np

from pinlab.fractals import sample_points
from pinlab.phases import pairwise_value
from pinlab.pinned import _phi_matrix, _trapz_weights, default_t_grid


def dense_pinned_density(mu, phi, pin_x, mollifier, t_grid=None,
                         mc_samples: int = 0, seed: int = 0):
    """(values, stderr, mass_stderr, t_grid) from full kernel matrices."""
    pin = np.asarray(pin_x, float)
    eps = mollifier.epsilon
    if mc_samples == 0:
        phi_vals = np.asarray(phi.value(pin[None, :], mu.points))
        weights = mu.weights
    else:
        sample = sample_points(mu, mc_samples, seed)
        phi_vals = np.asarray(phi.value(pin[None, :], sample.points))
        weights = sample.weights
    if t_grid is None:
        t_grid = default_t_grid(phi_vals, eps)
    t_grid = np.asarray(t_grid, float)
    dt = float(t_grid[1] - t_grid[0])

    values = np.zeros(len(t_grid))
    sq = np.zeros(len(t_grid))
    per_mass = np.zeros(len(phi_vals))
    tw = _trapz_weights(len(t_grid), dt)
    chunk = max(1, 4_000_000 // max(len(phi_vals), 1))
    for i0 in range(0, len(t_grid), chunk):
        sl = slice(i0, min(i0 + chunk, len(t_grid)))
        kern = mollifier(t_grid[sl, None] - phi_vals[None, :])
        values[sl] = kern @ weights
        if mc_samples:
            sq[sl] = (kern ** 2) @ weights
            per_mass += kern.T @ tw[sl]
    if mc_samples:
        stderr = np.sqrt(np.maximum(sq - values ** 2, 0.0) / mc_samples)
        mass_se = float(per_mass.std() / np.sqrt(mc_samples))
    else:
        stderr = np.zeros(len(t_grid))
        mass_se = 0.0
    return values, stderr, mass_se, t_grid


def dense_window_mass(lam, mu, phi, t_nodes, eps):
    """(n_pins, n_t) matrix of sum_y mu_y 1[|phi(x,y) - t| <= eps]."""
    t_nodes = np.asarray(t_nodes, float)
    out = np.empty((len(lam), len(t_nodes)))
    gaps = pairwise_value(phi, lam.points, mu.points, 2_000_000)
    chunk = max(1, 4_000_000 // max(len(mu), 1))
    for i0 in range(0, len(t_nodes), chunk):
        sl = slice(i0, min(i0 + chunk, len(t_nodes)))
        ind = np.abs(gaps[:, None, :] - t_nodes[None, sl, None]) <= eps
        out[:, sl] = ind @ mu.weights
    return out


def enumerated_config_mass(em, measures, phi, t_map, eps):
    """Sum over all vertex-atom tuples of the weight product times every edge
    indicator 1[|phi(x_i, x_j) - t_ij| <= eps], swept in flat chunks."""
    sizes = [len(m) for m in measures]
    total = math.prod(sizes)
    pair_ind = {}
    for (i, j), tv in t_map.items():
        gaps = _phi_matrix(phi, measures[i - 1].points, measures[j - 1].points)
        pair_ind[(i, j)] = np.abs(gaps - tv) <= eps
    mass = 0.0
    for start in range(0, total, 1_000_000):
        idx_flat = np.arange(start, min(start + 1_000_000, total))
        idx = np.unravel_index(idx_flat, sizes)
        ok = np.ones(len(idx_flat), dtype=bool)
        for (i, j), ind in pair_ind.items():
            ok &= ind[idx[i - 1], idx[j - 1]]
        w = np.ones(len(idx_flat))
        for v, m in enumerate(measures):
            w *= m.weights[idx[v]]
        mass += float(w[ok].sum())
    return mass


def nested_chain_tuple_mass(lam, mu, phi, t, eps):
    """sum_x lam_x m_x^2, with m_x the single k-chain indicator mass started
    at pin x, by one backward recursion over the links."""
    k = len(t)
    g = np.ones(len(mu))
    if k > 1:
        gaps_aa = _phi_matrix(phi, mu.points, mu.points)
    for link in range(k, 1, -1):
        kern = (np.abs(gaps_aa - t[link - 1]) <= eps).astype(float)
        g = kern @ (mu.weights * g)
    gaps_pin = _phi_matrix(phi, lam.points, mu.points)
    kern0 = (np.abs(gaps_pin - t[0]) <= eps).astype(float)
    m_x = kern0 @ (mu.weights * g)
    return float(lam.weights @ m_x ** 2)


def nested_composed_density(mu, phi, pin_x, k, mollifier, t, psi=None):
    """g_0(pin) for g_k = 1, g_{i-1}(y) = sum_z w_z rho_eps(t_i - phi(y, z))
    psi(y, z) g_i(z), evaluated innermost-out on the atoms."""
    pin = np.asarray(pin_x, float)
    pts, w = mu.points, mu.weights
    g = np.ones(len(pts))
    for link in range(k, 1, -1):
        kern = mollifier(t[link - 1] - _phi_matrix(phi, pts, pts))
        if psi is not None:
            kern = kern * np.asarray(psi(pts[:, None, :], pts[None, :, :]))
        g = kern @ (w * g)
    kern0 = mollifier(t[0] - np.asarray(phi.value(pin[None, :], pts)))
    if psi is not None:
        kern0 = kern0 * np.asarray(psi(pin[None, :], pts))
    return float(kern0 @ (w * g))
