"""Dense reference implementations kept as test oracles.

These are the (node x atom) kernel-matrix evaluation of `pinned_density` and
the (pin x t x atom) indicator tensor of `configs._window_mass` that the
package used before windowed deposition and sorted prefix sums replaced
them.  They touch every pair, so they are slow and memory-hungry, but they
are simple enough to trust.
"""

import numpy as np

from pinlab.fractals import sample_points
from pinlab.phases import pairwise_value
from pinlab.pinned import _trapz_weights, default_t_grid


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
