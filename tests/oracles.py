"""Dense reference implementations kept as test oracles.

These are the (node x atom) kernel-matrix evaluation of `pinned_density`,
the (draw x node) factor evaluation of Monte Carlo `chain_density` with its
einsum outer-product sum, the (pin x t x atom) indicator tensor of
`configs._window_mass`, the tuple enumeration of exact `config_count` and
the hand-written recursion of exact `chain_tuple_count` that the package
used before clamped tensor-window deposition, sorted prefix sums and the
graph contraction `configs._contract` replaced them, plus the composed
averaging operator evaluated at one gap vector by its nested recursion,
the identity that exact `chain_density` must reproduce on its grid
(criterion 03).  The energy-integral pieces are the per-atom
Gaussian deposit and the dense Riesz double sum, as they were before the
blocked real-arithmetic versions replaced them, per-row sums over blocks of
scipy's `cdist` distances (the reference for the one-triangle Riesz row
sums of `harmonic._riesz_row_sums`), and the |xi| < 1 energy centre as a
power series in the pair distances, which needs no quadrature at all.  The
whole padded grid and its full `rfftn` (`embed_box`, `rfftn_box`,
`reference_energy_integral`) are the reference for `harmonic`'s deposit on
the atoms' box and its transform onto the shells' frequencies.  They
touch every pair or tuple, or rebuild what the package shares, so they are
slow and memory-hungry, but they are simple enough to trust.  The
euclidean, scaled_euclidean and flat_torus phases are here as the three
separate classes they were before one Euclidean-family class, written on
its difference vector, replaced them.  The three per-centre ball-mass loops
of `fractals` -- one ball, the exponent fit's sups and the probed Frostman
constant -- are here as they were before one (centres x radii) kernel,
`fractals._ball_masses`, replaced them.
"""

import functools
import math

import numpy as np
from scipy.spatial.distance import cdist

from pinlab.errors import DomainError
from pinlab.fractals import sample_points
from pinlab.harmonic import EnergyResult, riesz_constant
from pinlab.phases import (PhaseFunction, _coord_sum, _norm, _outer,
                           pairwise_value, torus_wrap)
from pinlab.pinned import _trapz_weights, default_t_grid
from pinlab.rng import batches, rng_for


def dense_pinned_density(mu, phi, pin_x, mollifier, t_grid=None,
                         mc_samples: int = 0, seed: int = 0):
    """(values, stderr, mass_stderr, t_grid) from full kernel matrices."""
    pin = np.asarray(pin_x, float)
    eps = mollifier.epsilon
    if mc_samples == 0:
        phi_vals = np.asarray(phi.value(pin[None, :], mu.points))
        weights = mu.weights
    else:
        atoms = sample_points(mu, mc_samples, seed)
        phi_vals = np.asarray(phi.value(pin[None, :], mu.points[atoms]))
        weights = np.full(mc_samples, 1.0 / mc_samples)
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


def dense_chain_exact(mu, phi, pin, k, mollifier, t_axes) -> np.ndarray:
    """Exact `chain_density` values from the dense (atom x atom) kernel matrix
    of every link at every t-node, contracted link by link from the last."""
    w = mu.weights
    n = len(mu)
    if k > 1:
        phi_aa = pairwise_value(phi, mu.points, mu.points)
    g = np.ones((n,))
    for link in range(k, 1, -1):
        ax = t_axes[link - 1]
        tail = g.shape[1:]
        g_flat = g.reshape(n, -1)
        out = np.empty((n, len(ax), g_flat.shape[1]))
        for a, t_val in enumerate(ax):
            kern = mollifier(t_val - phi_aa) * w[None, :]
            out[:, a, :] = kern @ g_flat
        g = out.reshape((n, len(ax)) + tail)
    phi_pin = np.asarray(phi.value(pin[None, :], mu.points))
    kern0 = mollifier(t_axes[0][:, None] - phi_pin[None, :]) * w[None, :]
    return (kern0 @ g.reshape(n, -1)).reshape((len(t_axes[0]),) + g.shape[1:])


def dense_chain_mc(mu, phi, pin, k, mollifier, t_axes, mc_samples, seed):
    """(values, stderr, mass_stderr) of Monte Carlo `chain_density` from the
    full (draw x node) bump factors of every link."""
    shape = tuple(len(ax) for ax in t_axes)
    acc = np.zeros(shape)
    acc_sq = np.zeros(shape)
    mass_sum = 0.0
    mass_sq = 0.0
    axis_w = [_trapz_weights(len(ax), float(ax[1] - ax[0])) for ax in t_axes]
    for b, _, size in batches(mc_samples):
        rng = rng_for(seed, 3, b)
        idx = rng.choice(len(mu), size=(size, k), p=mu.weights)
        chain_pts = mu.points[idx]                       # (size, k, d)
        prev = np.broadcast_to(pin, chain_pts[:, 0].shape)
        gaps = np.empty((size, k))
        for i in range(k):
            gaps[:, i] = np.asarray(phi.value(prev, chain_pts[:, i]))
            prev = chain_pts[:, i]
        factors = [mollifier(ax[None, :] - gaps[:, i, None]) for i, ax in enumerate(t_axes)]
        per_mass = np.ones(size)
        for i, f in enumerate(factors):
            per_mass *= f @ axis_w[i]
        mass_sum += per_mass.sum()
        mass_sq += (per_mass ** 2).sum()
        acc += sum_outer(factors)
        acc_sq += sum_outer([f ** 2 for f in factors])
    values = acc / mc_samples
    var = np.maximum(acc_sq / mc_samples - values ** 2, 0.0) / mc_samples
    mass_mean = mass_sum / mc_samples
    mass_var = max(mass_sq / mc_samples - mass_mean ** 2, 0.0) / mc_samples
    return values, np.sqrt(var), float(np.sqrt(mass_var))


def sum_outer(factors) -> np.ndarray:
    """sum_s f_1[s, :] x ... x f_k[s, :] for any k, via einsum's sublist form."""
    operands = []
    for i, f in enumerate(factors):
        operands += [f, [0, i + 1]]
    return np.einsum(*operands, list(range(1, len(factors) + 1)), optimize=True)


def loop_ball_mass(mu, x, r):
    """Mass of the closed ball B(x, r) under the atom weights."""
    x = np.asarray(x, dtype=float)
    dist = np.sqrt(((mu.points - x) ** 2).sum(axis=1))
    return float(mu.weights[dist <= r].sum())


def loop_frostman_exponent_fit(mu, scales, probes, seed):
    """(slope, constant, sups) of `frostman_exponent_fit`, its sups taken
    one probe centre at a time."""
    scales = np.asarray(sorted(set(float(s) for s in scales)))
    rng = rng_for(seed, 0)
    if probes >= len(mu):
        idx = np.arange(len(mu))
    else:
        idx = np.unique(rng.choice(len(mu), size=probes, replace=True, p=mu.weights))
    sups = np.zeros(len(scales))
    for i in idx:
        dist = np.sqrt(((mu.points - mu.points[i]) ** 2).sum(axis=1))
        for k, r in enumerate(scales):
            sups[k] = max(sups[k], mu.weights[dist <= r].sum())
    slope, _ = np.polyfit(np.log(scales), np.log(sups), 1)
    return float(slope), float(np.max(sups / scales ** slope)), sups


def loop_frostman_constant(mu, f):
    """max mass(B(x,r)) / r^s over strided atoms x and f's construction scales r."""
    scales = f.scale ** np.arange(1, f.level_n + 1)
    stride = max(1, len(mu) // 64)
    best = 0.0
    for x in mu.points[::stride]:
        dist = np.sqrt(((mu.points - x) ** 2).sum(axis=1))
        for r in scales:
            mass = mu.weights[dist <= r].sum()
            best = max(best, mass / r ** mu.exponent_s)
    return best


def dense_window_mass(lam, mu, phi, t_nodes, eps):
    """(n_pins, n_t) matrix of sum_y mu_y 1[|phi(x,y) - t| <= eps]."""
    t_nodes = np.asarray(t_nodes, float)
    out = np.empty((len(lam), len(t_nodes)))
    gaps = pairwise_value(phi, lam.points, mu.points)
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
        gaps = pairwise_value(phi, measures[i - 1].points, measures[j - 1].points)
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
        gaps_aa = pairwise_value(phi, mu.points, mu.points)
    for link in range(k, 1, -1):
        kern = (np.abs(gaps_aa - t[link - 1]) <= eps).astype(float)
        g = kern @ (mu.weights * g)
    gaps_pin = pairwise_value(phi, lam.points, mu.points)
    kern0 = (np.abs(gaps_pin - t[0]) <= eps).astype(float)
    m_x = kern0 @ (mu.weights * g)
    return float(lam.weights @ m_x ** 2)


def nested_composed_density(mu, phi, pin_x, k, mollifier, t):
    """The composed averaging operator at one gap vector t: g_0(pin) for
    g_k = 1, g_{i-1}(y) = sum_z w_z rho_eps(t_i - phi(y, z)) g_i(z),
    evaluated innermost-out on the atoms, N^2 per link.  It is the exact
    chain sum that `chain_density` tabulates on a grid."""
    pin = np.asarray(pin_x, float)
    pts, w = mu.points, mu.weights
    g = np.ones(len(pts))
    for link in range(k, 1, -1):
        g = mollifier(t[link - 1] - pairwise_value(phi, pts, pts)) @ (w * g)
    kern0 = mollifier(t[0] - np.asarray(phi.value(pin[None, :], pts)))
    return float(kern0 @ (w * g))


def loop_deposit_gaussian(points, masses, side_n, pad=4, sigma_cells=1.0):
    """Atoms deposited one at a time as unit-mass Gaussian bumps on the
    pad*side_n periodic grid."""
    h = 1.0 / side_n
    n_tot = pad * side_n
    sigma = sigma_cells * h
    reach = int(math.ceil(5.0 * sigma_cells))
    offsets = np.arange(-reach, reach + 1)
    d = points.shape[1]
    dens = np.zeros((n_tot,) * d)
    cells = np.floor(points / h).astype(int)
    for p, w, c in zip(points, masses, cells):
        axes_vals, axes_idx = [], []
        for j in range(d):
            idx = c[j] + offsets
            nodes = idx * h
            vals = np.exp(-0.5 * ((nodes - p[j]) / sigma) ** 2)
            axes_vals.append(vals)
            axes_idx.append(np.mod(idx, n_tot))
        block = axes_vals[0]
        for v in axes_vals[1:]:
            block = np.multiply.outer(block, v)
        dens[np.ix_(*axes_idx)] += block * (w / block.sum())
    return dens


def series_center_energy(points, masses, gamma, terms=60):
    """int_{|xi| < 1} |lambda^(xi)|^2 |xi|^-gamma dxi in d = 1..3 from the pair
    distances: sum_xy m_x m_y |S^(d-1)| sum_n (-1)^n s_n (2 pi |x - y|)^(2n) /
    (d - gamma + 2n), where s_n are the series coefficients of the sphere
    mean of e^(i z omega): cos z, J_0(z) and sin z / z.  The terms are built
    by their ratios; 60 of them reach below 1e-30 for distances up to 2 sqrt(3)."""
    d = points.shape[1]
    z2 = (2.0 * np.pi) ** 2 * ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
    area = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[d]
    term = np.ones_like(z2)
    total = term / (d - gamma)
    for n in range(1, terms):
        ratio = {1: (2 * n - 1) * (2 * n), 2: 4 * n * n, 3: (2 * n) * (2 * n + 1)}[d]
        term = term * (-z2 / ratio)
        total = total + term / (d - gamma + 2 * n)
    return area * float(masses @ total @ masses)


def dense_riesz_double_sum(points, masses, gamma):
    """sum over atom pairs at positive distance of m_x m_y |x - y|^(gamma - d)."""
    d = points.shape[1]
    n = len(points)
    kern = 0.0
    chunk = max(1, 4_000_000 // max(n, 1))
    for i0 in range(0, n, chunk):
        sl = slice(i0, min(i0 + chunk, n))
        diff = points[sl, None, :] - points[None, :, :]
        dist = np.sqrt((diff ** 2).sum(-1))
        # dist == 0 is the excluded diagonal: inf^(gamma-d) = 0 drops it
        block = np.where(dist > 0, dist, np.inf) ** (gamma - d)
        kern += float((masses[sl, None] * masses[None, :] * block).sum())
    return kern


def cdist_row_sums(points, block_sums, block=1 << 20):
    """block_sums(dist, i0), one value (or a stack of them) per row, over the
    distances from each block of rows points[i0:i0 + rows] to every point,
    taken from scipy's cdist and joined along the last axis."""
    rows = max(1, block // len(points))
    return np.concatenate([block_sums(cdist(points[i0:i0 + rows], points), i0)
                           for i0 in range(0, len(points), rows)], axis=-1)


def meshgrid_freq_norms(d, side_n):
    """`harmonic.freq_norms` from full meshgrid copies of the axes."""
    axes = [np.fft.fftfreq(side_n) * side_n] * d
    grids = np.meshgrid(*axes, indexing="ij")
    return np.sqrt(sum(g ** 2 for g in grids))


def meshgrid_rfft_shells(d, side_n, pad):
    """|xi| on the rfftn layout of the (pad side_n)^d grid, from full meshgrid
    copies of axes scaled by 1/pad, and one (geometric mid, mask) pair per
    dyadic shell, built one shell at a time."""
    n_tot = pad * side_n
    axes = [np.fft.fftfreq(n_tot) * n_tot / pad] * (d - 1) + \
           [np.arange(n_tot // 2 + 1) / pad]
    grids = np.meshgrid(*axes, indexing="ij")
    fn = np.sqrt(sum(x ** 2 for x in grids))
    shells = []
    for m in range(0, int(math.floor(math.log2(side_n / 4.0)))):
        lo, hi = 2.0 ** m, 2.0 ** (m + 1)
        shells.append((math.sqrt(lo * hi), (fn >= lo) & (fn < hi)))
    return fn, shells


def rfftn_box(full, k):
    """The part of an array on the rfftn layout of an n^d grid at the
    integer frequencies |k_i| < k: the full axes at 0..k-1, n-k+1..n-1, the
    last axis at 0..k-1."""
    n = full.shape[0]
    keep = np.r_[0:k, n - k + 1:n]
    return full[np.ix_(*[keep] * (full.ndim - 1) + [np.arange(k)])]


def embed_box(box, starts, n):
    """The periodic n^d grid that is zero but for `box`, whose cell j sits at
    (starts + j) mod n."""
    grid = np.zeros((n,) * box.ndim)
    grid[np.ix_(*[(s + np.arange(b)) % n for s, b in zip(starts, box.shape)])] = box
    return grid


def reference_energy_integral(lam, gamma, side_n, pad=4, sigma_cells=1.0):
    """`energy_integral` built on the three reference pieces above: the
    per-atom deposit, the pair-distance series centre and the dense Riesz
    double sum."""
    d = lam.d
    masses = lam.weights
    dens = loop_deposit_gaussian(lam.points, masses, side_n, pad, sigma_cells)
    hat = np.fft.rfftn(dens)
    n_tot = pad * side_n
    fn, shells = meshgrid_rfft_shells(d, side_n, pad)
    sigma = sigma_cells / side_n
    decon = np.exp((2.0 * np.pi ** 2 * sigma ** 2) * fn ** 2)
    power = (np.abs(hat) * decon) ** 2
    dup = np.full(hat.shape[-1], 2.0)
    dup[0] = 1.0
    if n_tot % 2 == 0:
        dup[-1] = 1.0
    power = power * dup
    cell = (1.0 / pad) ** d
    radii = [mid for mid, _ in shells]
    incs = [float((power[sel] * fn[sel] ** (-gamma)).sum() * cell) for _, sel in shells]
    low_part = series_center_energy(lam.points, masses, gamma)
    kernel_value = riesz_constant(gamma, d) * dense_riesz_double_sum(lam.points, masses, gamma)
    return EnergyResult(low_part + float(np.sum(incs)), kernel_value,
                        np.array(radii), np.array(incs))


def chunked_oscillatory_G(phi, psi, s, xi, zeta, t=0.0, quad_n=48,
                          e_bounds=(0.0, 1.0)):
    """One (s, xi, zeta) triple of `oscillatory_G` as the complex exponential
    of the whole phase, summed over chunks of about 4M (x, y) pairs."""
    xi = np.asarray(xi, float)
    zeta = np.asarray(zeta, float)
    lo, hi = float(e_bounds[0]), float(e_bounds[1])
    gn, gw = np.polynomial.legendre.leggauss(quad_n)
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gn
    wts = 0.5 * (hi - lo) * gw
    g1, g2 = np.meshgrid(nodes, nodes, indexing="ij")
    pts = np.stack([g1.ravel(), g2.ravel()], axis=1)
    w2 = (wts[:, None] * wts[None, :]).ravel()
    phase_y = pts @ zeta
    phase_x = pts @ xi
    acc = 0.0 + 0.0j
    chunk = max(1, 4_000_000 // len(pts))
    for i0 in range(0, len(pts), chunk):
        sl = slice(i0, min(i0 + chunk, len(pts)))
        pv = np.asarray(phi.value(pts[sl][:, None, :], pts[None, :, :]))
        ps = np.asarray(psi(pts[sl][:, None, :], pts[None, :, :])) if psi is not None else 1.0
        phase = (pv - t) * s + phase_y[None, :] - phase_x[sl, None]
        acc += (w2[sl, None] * w2[None, :] * ps * np.exp(2j * np.pi * phase)).sum()
    return complex(acc)


def masked_bump_raw(u):
    """`profiles.bump_raw` evaluated only on the entries inside the support,
    through a boolean mask; every other entry stays 0."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    v = u / 2.0
    inside = np.abs(v) < 1.0
    if np.any(inside):
        out[inside] = np.exp(-1.0 / (1.0 - v[inside] ** 2))
    if out.ndim == 0:
        return float(out)
    return out


# -- the distance phases as three separate classes, before they shared one
#    Euclidean-family class written on its difference vector ----------------

class Euclidean(PhaseFunction):
    kind = "euclidean"

    def value(self, x, y):
        return _norm(x, y, np.subtract)

    def grad_x(self, x, y):
        return (x - y) / self.value(x, y)[..., None]

    def grad_y(self, x, y):
        return -self.grad_x(x, y)

    def mixed_hessian(self, x, y):
        r = self.value(x, y)[..., None]
        u = (x - y) / r
        eye = np.eye(x.shape[-1])
        return (_outer(u) - eye) / r[..., None]

    def forbidden(self, x, y):
        return self.value(x, y) == 0.0

    def forbidden_distance(self, x, y):
        return self.value(x, y)


class ScaledEuclidean(PhaseFunction):
    kind = "scaled_euclidean"

    def __init__(self, dimension_d: int, factor: float):
        super().__init__(dimension_d)
        if factor == 0.0:
            raise DomainError("scale factor must be nonzero")
        self.factor = float(factor)

    def value(self, x, y):
        return _norm(x, y, lambda a, b: a - self.factor * b)

    def grad_x(self, x, y):
        return (x - self.factor * y) / self.value(x, y)[..., None]

    def grad_y(self, x, y):
        return -self.factor * self.grad_x(x, y)

    def mixed_hessian(self, x, y):
        a = self.factor
        r = self.value(x, y)[..., None]
        u = (x - a * y) / r
        eye = np.eye(x.shape[-1])
        return a * (_outer(u) - eye) / r[..., None]

    def forbidden(self, x, y):
        return self.value(x, y) == 0.0

    def forbidden_distance(self, x, y):
        return self.value(x, y)


class FlatTorus(PhaseFunction):
    """Euclidean metric on the unit torus; matches Euclidean when |x-y|_inf < 1/2."""

    kind = "flat_torus"

    def value(self, x, y):
        return _norm(x, y, lambda a, b: torus_wrap(a - b))

    def grad_x(self, x, y):
        return torus_wrap(x - y) / self.value(x, y)[..., None]

    def grad_y(self, x, y):
        return -self.grad_x(x, y)

    def mixed_hessian(self, x, y):
        r = self.value(x, y)[..., None]
        u = torus_wrap(x - y) / r
        eye = np.eye(x.shape[-1])
        return (_outer(u) - eye) / r[..., None]

    def forbidden(self, x, y):
        w = torus_wrap(x - y)
        on_cut = (np.abs(np.abs(w) - 0.5) == 0.0).any(axis=-1)
        return (self.value(x, y) == 0.0) | on_cut

    def forbidden_distance(self, x, y):
        w = torus_wrap(x - y)
        r = np.sqrt(_coord_sum(w, w, np.multiply))
        cut_margin = functools.reduce(np.minimum, (0.5 - np.abs(w[..., j])
                                                   for j in range(w.shape[-1])))
        return np.minimum(r, cut_margin)
