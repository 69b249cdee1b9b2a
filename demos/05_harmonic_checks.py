"""Desk-scale verification of the harmonic-analysis inputs.

Five quick checks: the dyadic partition of unity, sphere-measure Fourier
decay, the fractal energy integral's convergence dichotomy, the averaging
operator's Sobolev ratios across mollification scales, and the decay of the
separated-frequency oscillatory integral.
"""

import numpy as np

from pinlab import (LPPartition, SpectralGrid, build_cutoffs, energy_integral,
                    oscillatory_G, phase_function, radon_sobolev_ratio,
                    random_band_limited, segment_measure,
                    surface_measure_decay)
from pinlab.harmonic import shell_profile_verdict

# 1. partition of unity across dyadic bands
part = LPPartition(8)
fn = SpectralGrid(2, 256, np.zeros((256, 256), complex)).freq_norms()
dev = np.abs(part.partition_sum(fn[fn <= 2.0 ** 7]) - 1.0).max()
print(f"LP partition: max deviation from 1 is {dev:.2e}")

# 2. sphere measure decay |sigma^(xi)| ~ |xi|^-(d-1)/2
for d, side in ((2, 1024), (3, 128)):
    fit = surface_measure_decay(d, side)
    print(f"d={d}: fitted decay slope {fit.slope:.3f} (theory {-(d - 1) / 2})")

# 3. energy dichotomy for a 1-dimensional measure in the plane:
#    gamma above/below d - s flips shell convergence; one call serves both
#    gammas, sharing the deposit, the FFT and the atom-pair distances
lam = segment_measure(8192)
gammas = np.array([1.2, 0.8])
for gamma, res in zip(gammas, energy_integral(lam, gammas, 512)):
    print(f"gamma={gamma}: shell profile {shell_profile_verdict(res.shell_increments)}, "
          f"fourier {res.fourier_value:.3f}, kernel {res.kernel_value:.3f}")

# 4. averaging-operator Sobolev ratios across epsilon
phi = phase_function("euclidean", 2)
fields = [random_band_limited(64, 1.45, seed=50 + i) for i in range(3)]
_, summary = radon_sobolev_ratio(phi, None, 0.5, [2.0 ** -3, 2.0 ** -4, 2.0 ** -5],
                                 fields)
print("Sobolev ratio spread (max/min over eps) per field:",
      {k: round(v, 3) for k, v in summary.items()})

# 5. separated-frequency oscillatory integral: far-apart dyadic frequencies
#    collapse relative to the matched stationary regime
import warnings
cuts = build_cutoffs(phi, (0.15, 0.85), 0.05, (0.1, 1.0))
ref = abs(oscillatory_G(phi, cuts.psi, 4.0, [4.0, 0.0], [4.0, 0.0], quad_n=48))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    sep = abs(oscillatory_G(phi, cuts.psi, 1.0, [16.0, 0.0], [1.0, 0.0], quad_n=48))
print(f"|G| matched {ref:.4f} vs separated {sep:.6f} (ratio {sep / ref:.1e})")
