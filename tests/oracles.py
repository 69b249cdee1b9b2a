"""Dense reference implementations kept as test oracles.

These are the (node x atom) kernel-matrix evaluation of `pinned_density`,
the (draw x node) factor evaluation of Monte Carlo `chain_density` with its
einsum outer-product sum, the per-atom loop of `measure_mollify`, the
(pin x t x atom) indicator tensor of `configs._window_mass`, the tuple
enumeration of exact `config_count` and the hand-written recursion of exact
`chain_tuple_count` that the package used before clamped tensor-window
deposition, sorted prefix sums and the graph contraction `configs._contract`
replaced them, plus exact `composed_operator_density` as it was before its
phi and psi matrices were built once for all links.  The energy-integral
pieces are the per-atom Gaussian deposit, the complex polar centre sum over
the full circle of angles and the dense Riesz double sum, with the per-atom
Schur row loop, as they were before the blocked real-arithmetic versions
replaced them.  They touch every pair or tuple, or rebuild what the
package shares, so they are slow and memory-hungry, but they are simple
enough to trust.
"""

import math

import numpy as np

from pinlab.fractals import sample_points
from pinlab.harmonic import EnergyResult, riesz_constant
from pinlab.phases import pairwise_value
from pinlab.pinned import _phi_matrix, _trapz_weights, default_t_grid
from pinlab.profiles import bump_profile
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


def loop_measure_mollify(mu, theta, grid_n):
    """(density, cell size) of mu * rho_theta on the periodic grid_n^d grid,
    one atom at a time: a sampled bump at the cell centres, normalized."""
    d = mu.d
    h = 1.0 / grid_n
    reach = int(math.ceil(2.0 * theta / h)) + 1
    offsets = np.arange(-reach, reach + 1)
    dens = np.zeros((grid_n,) * d)
    centers = (np.floor(mu.points / h)).astype(int)
    for p, w, c in zip(mu.points, mu.weights, centers):
        axes_vals = []
        axes_idx = []
        for j in range(d):
            idx = c[j] + offsets
            nodes = (idx + 0.5) * h
            vals = bump_profile((nodes - p[j]) / theta) / theta
            axes_vals.append(vals)
            axes_idx.append(np.mod(idx, grid_n))
        block = axes_vals[0]
        for v in axes_vals[1:]:
            block = np.multiply.outer(block, v)
        total = block.sum() * h ** d
        block = block * (w / total)
        dens[np.ix_(*axes_idx)] += block
    return dens, h


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


def complex_center_energy(points, masses, gamma, r0=1.0, n_rad=48, n_ang=128):
    """int_{|xi| < r0} |lambda^(xi)|^2 |xi|^-gamma dxi by polar quadrature
    over all n_ang angles, the transform taken as complex exponential sums."""
    p = 2.0 - gamma
    gn, gw = np.polynomial.legendre.leggauss(n_rad)
    u = (gn + 1.0) / 2.0 * r0 ** p
    wu = gw / 2.0 * r0 ** p
    r = u ** (1.0 / p)
    th = (np.arange(n_ang) + 0.5) * (2.0 * np.pi / n_ang)
    xi = np.stack([np.outer(r, np.cos(th)), np.outer(r, np.sin(th))], axis=-1)
    xi_flat = xi.reshape(-1, 2)
    power = np.empty(len(xi_flat))
    chunk = max(1, 8_000_000 // max(len(points), 1))
    for i0 in range(0, len(xi_flat), chunk):
        sl = slice(i0, min(i0 + chunk, len(xi_flat)))
        phase = xi_flat[sl] @ points.T
        hat = np.exp(-2j * np.pi * phase) @ masses
        power[sl] = np.abs(hat) ** 2
    ang_int = power.reshape(len(r), n_ang).sum(axis=1) * (2.0 * np.pi / n_ang)
    return float((wu * ang_int).sum() / p)


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


def reference_energy_integral(lam, gamma, side_n, g_values=None, pad=4,
                              sigma_cells=1.0):
    """`energy_integral` built on the three reference pieces above: the
    per-atom deposit, the complex full-circle centre sum (d = 2) and the
    dense Riesz double sum."""
    d = lam.d
    g = np.ones(len(lam)) if g_values is None else np.asarray(g_values, float)
    masses = lam.weights * g
    dens = loop_deposit_gaussian(lam.points, masses, side_n, pad, sigma_cells)
    hat = np.fft.rfftn(dens)
    n_tot = pad * side_n
    axes = [np.fft.fftfreq(n_tot) * n_tot / pad] * (d - 1) + \
           [np.arange(n_tot // 2 + 1) / pad]
    grids = np.meshgrid(*axes, indexing="ij")
    fn = np.sqrt(sum(x ** 2 for x in grids))
    sigma = sigma_cells / side_n
    decon = np.exp((2.0 * np.pi ** 2 * sigma ** 2) * fn ** 2)
    power = (np.abs(hat) * decon) ** 2
    dup = np.full(hat.shape[-1], 2.0)
    dup[0] = 1.0
    if n_tot % 2 == 0:
        dup[-1] = 1.0
    power = power * dup
    cell = (1.0 / pad) ** d
    radii, incs = [], []
    for m in range(0, int(math.floor(math.log2(side_n / 4.0)))):
        lo, hi = 2.0 ** m, 2.0 ** (m + 1)
        sel = (fn >= lo) & (fn < hi)
        radii.append(math.sqrt(lo * hi))
        incs.append(float((power[sel] * fn[sel] ** (-gamma)).sum() * cell))
    if d == 2:
        low_part = complex_center_energy(lam.points, masses, gamma)
    else:
        amp_zero = float(power.flat[0])
        ring = (fn >= 0.75) & (fn < 1.25)
        ring_mean = float(power[ring].mean()) if np.any(ring) else amp_zero
        b_coef = ring_mean - amp_zero
        low_part = 4.0 * np.pi * (amp_zero / (3.0 - gamma) + b_coef / (5.0 - gamma))
    kernel_value = riesz_constant(gamma, d) * dense_riesz_double_sum(lam.points, masses, gamma)
    return EnergyResult(low_part + float(np.sum(incs)), kernel_value,
                        np.array(radii), np.array(incs))


def loop_schur_kernel_sup(lam, gamma):
    """sup over atoms x of sum_{y != x} w_y |x - y|^(gamma - d), one row at a time."""
    best = 0.0
    pts, w, d = lam.points, lam.weights, lam.d
    for i in range(len(lam)):
        dist = np.sqrt(((pts - pts[i]) ** 2).sum(1))
        dist[i] = np.inf
        vals = np.where(dist > 0, dist, np.inf) ** (gamma - d)
        best = max(best, float((w * vals).sum()))
    return best


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
