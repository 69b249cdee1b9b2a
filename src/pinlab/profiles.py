"""Smooth cutoff building blocks.

All cutoffs in the package (mollifier bump, psi/beta cutoffs, window
functions, Littlewood-Paley profiles) come from the same C-infinity step,
so oscillatory-integral and Fourier-decay checks are not polluted by
finite-smoothness artifacts.
"""

import numpy as np


def smooth_step(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly monotone between.

    Built from g(u) = exp(-1/u) as g(u) / (g(u) + g(1-u)).
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    if np.any(mid):
        um = u[mid]
        a = np.exp(-1.0 / um)
        b = np.exp(-1.0 / (1.0 - um))
        out[mid] = a / (a + b)
    if out.ndim == 0:
        return float(out)
    return out


def plateau(t, lo, hi, margin):
    """C-infinity plateau: 1 on [lo, hi], 0 outside [lo - margin, hi + margin]."""
    t = np.asarray(t, dtype=float)
    return smooth_step((t - (lo - margin)) / margin) * smooth_step(((hi + margin) - t) / margin)


def _bump_in_place(v):
    """Overwrite the float array v with exp(-1/(1 - v^2)); where |v| >= 1,
    1 - v^2 is clamped to 0, so exp(-1/0) = exp(-inf) = 0."""
    with np.errstate(divide="ignore", over="ignore"):
        np.square(v, out=v)
        np.maximum(np.subtract(1.0, v, out=v), 0.0, out=v)
        np.exp(np.divide(-1.0, v, out=v), out=v)
    return v


def bump_raw(u):
    """Unnormalized even bump exp(-1/(1-(u/2)^2)) supported on (-2, 2)."""
    v = _bump_in_place(np.asarray(np.asarray(u, dtype=float) / 2.0))
    return float(v) if v.ndim == 0 else v


def bump_norm_constant() -> float:
    """c such that c * bump_raw has unit integral, as `scipy.integrate.quad`
    (limit 200) gives it; stored, so pinlab never imports scipy.integrate."""
    return 1.1261418105217924


def bump_profile(u):
    """The package's unit-mass C-infinity mollifier profile on (-2, 2)."""
    return bump_norm_constant() * bump_raw(u)
