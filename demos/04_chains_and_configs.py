"""Chains, hinges, general edge maps, and the pinned-lift construction.

The exact chain density contracts the nested averaging operator link by
link on a grid of gap vectors; a Monte Carlo chain density, sampling chains
on the same axes, agrees with it within its standard errors.  Hinge counts are the epsilon-normalized triple events the
L2 energies expand into, and arbitrary configurations run through edge maps.
Pinning a vertex lifts an edge map to its doubled configuration.
"""

import numpy as np

from pinlab import (EdgeMap, Mollifier, build_product_cantor, chain_density,
                    chain_tuple_count, config_count,
                    density_mass, hinge_count, natural_measure, phase_function,
                    pinned_lift, uniform_grid_measure)

phi = phase_function("euclidean", 2)
mu = natural_measure(build_product_cantor(2, 1 / 3, 3))
pin = mu.points[11]
moll = Mollifier(2.0 ** -3)

# the exact chain density against Monte Carlo chains on the same axes
ch = chain_density(mu, phi, pin, 2, moll)
mc = chain_density(mu, phi, pin, 2, moll, t_axes=ch.t_axes, mc_samples=20_000, seed=4)
seen = mc.stderr > 0
near = np.abs(mc.values - ch.values)[seen] <= 3 * mc.stderr[seen]
print(f"chain mass {density_mass(ch):.6f}, Monte Carlo mass {density_mass(mc):.6f}; "
      f"Monte Carlo within 3 stderr of exact at {near.mean():.1%} of {seen.sum()} nodes")

# hinge counts: epsilon-normalized triple events
lam = uniform_grid_measure(2, 6)
mu_l = uniform_grid_measure(2, 12)
for eps in (0.2, 0.1, 0.05):
    c = hinge_count(lam, mu_l, phi, 0.5, eps)
    print(f"hinge count at t=0.5, eps={eps}: {c.count_normalized:.4f}")

# doubled chain through the shared pin
c2 = chain_tuple_count(lam, mu_l, phi, [0.5, 0.5], 0.1)
print("doubled 2-chain count:", round(c2.count_normalized, 4))

# a 4-cycle and its pinned lift: two necklaces sharing the pinned vertex
cycle = EdgeMap(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}))
lifted = pinned_lift(cycle)
print("4-cycle edges:", cycle.sorted_edges())
print("lifted edges: ", lifted.sorted_edges())
print("edge count doubles:", lifted.n_edges == 2 * cycle.n_edges)

# a general edge-map count on a small uniform cloud
counts = config_count(lifted, uniform_grid_measure(2, 3), phi,
                      {e: 0.5 for e in lifted.edges}, eps=0.2)
print(f"lifted-cycle configuration count: {counts.count_normalized:.4f} "
      f"(epsilon^-{lifted.n_edges} normalized)")
