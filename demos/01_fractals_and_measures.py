"""Fractal generators and their natural measures.

Builds the two generator families, compares each target dimension with the
Frostman-exponent fit of its natural measure, and exercises the ball-mass
primitives.  Saves a scatter of the level sets if matplotlib is
around.
"""

import numpy as np

from pinlab import (ball_mass, build_product_cantor, build_subdivision_fractal,
                    frostman_exponent_fit, natural_measure, sample_points)

# -- a corner Cantor of dimension 1 and a denser one of dimension 1.7 --------
for s in (1.0, 1.7):
    a = 2.0 ** (-2.0 / s)
    frac = build_product_cantor(2, a, 5)
    mu = natural_measure(frac)
    fit, c_emp = frostman_exponent_fit(mu, [2.0 ** -k for k in range(1, 8)],
                                       probes=256, seed=1)
    print(f"product Cantor a={a:.4f}: target {frac.target_dim:.4f}, "
          f"Frostman fit {fit:.4f}, C ~ {c_emp:.2f}")

# -- random subdivision keeping 3 of 4 children ------------------------------
frac = build_subdivision_fractal(2, 2, 3, 6, seed=7)
mu = natural_measure(frac)
fit, c_emp = frostman_exponent_fit(mu, [2.0 ** -k for k in range(1, 7)],
                                   probes=256, seed=1)
print(f"subdivision (b=2, m=3): target {frac.target_dim:.4f}, "
      f"Frostman fit {fit:.4f}, C ~ {c_emp:.2f}, atoms {len(mu)}")

# ball masses around a support point, across the construction scales
x = mu.points[100]
for k in (2, 3, 4, 5):
    r = 2.0 ** -k
    print(f"  mu(B(x, 2^-{k})) = {ball_mass(mu, x, r):.5f}"
          f"   (r^dim = {r ** frac.target_dim:.5f})")

# Monte Carlo draws (atom indices) reproduce exactly under a fixed seed
s1 = sample_points(mu, 2000, seed=3)
s2 = sample_points(mu, 2000, seed=3)
assert np.array_equal(s1, s2)
print("seeded sampling is reproducible")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, axes = plt.subplots(1, 3, figsize=(12, 4))
    for ax, (label, f) in zip(axes, [
            ("corner Cantor dim 1", build_product_cantor(2, 0.25, 5)),
            ("product Cantor dim 1.7", build_product_cantor(2, 2.0 ** (-2 / 1.7), 5)),
            ("subdivision m=3", frac)]):
        pts = natural_measure(f).points
        ax.plot(pts[:, 0], pts[:, 1], ".", ms=1)
        ax.set_title(label)
        ax.set_aspect("equal")
    fig.tight_layout()
    fig.savefig("demo01_fractals.png", dpi=120)
    print("wrote demo01_fractals.png")
