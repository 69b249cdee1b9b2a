"""Mollified pinned densities and the Cauchy-Schwarz support bound.

The pinned measure of a set with dimension above (d+1)/2 flattens out as the
mollification scale shrinks: its L2 energy stays bounded, so the lower bound
mass^2 / int nu^2 on the pinned set's Lebesgue measure stabilizes.  Below
the threshold the density keeps sharpening and the bound leaks away.

A pinned density is the one-link chain: `pinned_density` returns the same
`ChainDensity` type as `chain_density`, its t-grid the only axis, and the
mass, energy and support functionals are the ones chains use.
"""

import numpy as np

from pinlab import (Mollifier, build_product_cantor, chain_density,
                    cs_lower_bound, density_mass, natural_measure,
                    phase_function, pinned_density, support_measure)
from pinlab.rng import rng_for

phi = phase_function("euclidean", 2)

curves = {}
for s in (1.0, 1.7):
    mu = natural_measure(build_product_cantor(2, 2.0 ** (-2.0 / s), 6))
    pin = mu.points[rng_for(0, 1).integers(len(mu))]
    rows = []
    for k in (4, 5, 6, 7):
        nu = pinned_density(mu, phi, pin, Mollifier(2.0 ** -k))
        rows.append((2.0 ** -k, density_mass(nu), cs_lower_bound(nu),
                     support_measure(nu)))
    curves[s] = rows
    print(f"dim {s}:")
    for eps, mass, bound, supp in rows:
        print(f"  eps=2^-{int(-np.log2(eps))}: mass {mass:.8f}  "
              f"cs bound {bound:.4f}  support {supp:.4f}")

# the last density again, as the one-link chain on the same grid
ch = chain_density(mu, phi, pin, 1, Mollifier(nu.epsilon), t_axes=nu.t_axes)
print(f"one-link chain vs pinned density: max |difference| "
      f"{np.abs(ch.values - nu.values).max():.1e}, supports "
      f"{support_measure(ch):.4f} and {support_measure(nu):.4f}")

for s, rows in curves.items():
    b = [r[2] for r in rows]
    print(f"dim {s}: cs bound ratio per halving:",
          np.round(np.array(b[1:]) / b[:-1], 3))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    fig, ax = plt.subplots(figsize=(5, 4))
    for s, rows in curves.items():
        eps = [r[0] for r in rows]
        ax.loglog(eps, [r[2] for r in rows], "o-", label=f"dim {s}")
    ax.set_xlabel("epsilon")
    ax.set_ylabel("cs lower bound")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo03_cs_bounds.png", dpi=120)
    print("wrote demo03_cs_bounds.png")
except ImportError:
    pass
