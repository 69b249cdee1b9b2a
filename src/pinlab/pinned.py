"""Mollified pinned measures, chain measures, and their L2 functionals.

The pinned measure nu_x is the pushforward of mu under y -> phi(x, y); its
mollification at scale eps evaluates as

    nu_x * rho_eps (t) = (1/eps) * sum_y w_y rho((t - phi(x, y)) / eps)

on a uniform t-grid.  The bump vanishes outside (-2 eps, 2 eps), so each atom
is deposited only onto the grid nodes of its support window
(`_support_windows`) and scattered into the grid with `np.bincount`: work and
memory grow with atoms x window, not atoms x grid, and every nonzero kernel
value is the one a full (node x atom) matrix would hold.  Chain measures push
forward (k+1)-tuples with consecutive gaps, mollified by the tensor product
of 1-d bumps.  Everything downstream (mass, L2 energy, Cauchy-Schwarz support
bounds) is a weighted grid sum with trapezoid weights; using the same weights
everywhere makes the discrete Cauchy-Schwarz inequality exact, so
`support_measure >= cs_lower_bound` holds literally, not just up to
quadrature error.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, CoverageError, DomainError, ResolutionError
from .fractals import FrostmanMeasure, sample_points
from .profiles import bump_l2_constant, bump_profile
from .rng import batches, rng_for

#: Ceiling on chain-density grid nodes.
GRID_BUDGET = 2_000_000

#: Default grid step as a fraction of eps.  The C-infinity bump integrates on
#: a uniform grid with aliasing error ~3e-6 at eps/8, ~1e-7 at eps/16; the
#: mass contract (1 within 1e-6 in exact mode) needs the finer default.
STEP_DIVISOR = 16

#: Kernel values evaluated per block of support windows, and entries per block
#: of `harmonic`'s energy sums; bounds the temporaries of each block.
DEPOSIT_BLOCK = 1 << 20


@dataclass(frozen=True)
class Mollifier:
    """Unit-mass C-infinity bump at scale epsilon, supported on (-2 eps, 2 eps)."""

    epsilon: float
    profile: callable = field(default=None, repr=False)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise DomainError("epsilon must be positive")
        if self.profile is None:
            object.__setattr__(self, "profile", bump_profile)

    def __call__(self, u):
        """rho_eps(u) = profile(u / eps) / eps."""
        return self.profile(np.asarray(u, float) / self.epsilon) / self.epsilon

    @property
    def support_radius(self) -> float:
        return 2.0 * self.epsilon

    def l2_norm_sq(self) -> float:
        """int rho_eps^2 for the shipped profile (a tabulated constant / eps)."""
        return bump_l2_constant() / self.epsilon


def default_t_grid(phi_values, epsilon: float, step_divisor: int = STEP_DIVISOR):
    """Uniform grid covering [min phi - 4 eps, max phi + 4 eps] at eps/divisor."""
    dt = epsilon / step_divisor
    lo = float(np.min(phi_values)) - 4.0 * epsilon
    hi = float(np.max(phi_values)) + 4.0 * epsilon
    n = int(math.ceil((hi - lo) / dt)) + 1
    return lo + dt * np.arange(n)


def _trapz_weights(n: int, dt: float) -> np.ndarray:
    w = np.full(n, dt)
    w[0] = w[-1] = dt / 2.0
    return w


@dataclass(frozen=True)
class PinnedDensity:
    pin_x: np.ndarray
    epsilon: float
    t_grid: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    mc_samples: int = 0
    mass_stderr: float = 0.0

    @property
    def dt(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])

    def trapz_weights(self) -> np.ndarray:
        return _trapz_weights(len(self.t_grid), self.dt)


@dataclass(frozen=True)
class ChainDensity:
    pin_x: np.ndarray
    k: int
    epsilon: float
    t_axes: tuple          # k 1-d node arrays
    values: np.ndarray     # shape (len(ax_1), ..., len(ax_k))
    stderr: np.ndarray
    mc_samples: int = 0
    mass_stderr: float = 0.0

    def axis_weights(self):
        return [_trapz_weights(len(ax), float(ax[1] - ax[0])) for ax in self.t_axes]

    def weight_grid(self) -> np.ndarray:
        ws = self.axis_weights()
        out = ws[0]
        for w in ws[1:]:
            out = np.multiply.outer(out, w)
        return out


def _check_resolution(dt: float, epsilon: float) -> None:
    if dt > epsilon / 2.0:
        raise ResolutionError(f"grid step {dt} too coarse for epsilon {epsilon}")


def _support_windows(t_grid, centers, mollifier: Mollifier):
    """Yield (rows, idx, kern) per block of centers, with `kern[r, j] =
    mollifier(t_grid[idx[r, j]] - centers[r])` on each center's window.

    A window starts at node floor((c - 2 eps - t0) / dt) and spans
    ceil(4 eps / dt) + 3 nodes, at least one node of margin past each end of
    the support; nodes off the grid are clipped and carry kernel 0.  So every
    nonzero kernel value on the grid appears exactly once.
    """
    n = len(t_grid)
    t0 = float(t_grid[0])
    dt = float(t_grid[1] - t_grid[0])
    reach = mollifier.support_radius
    width = int(math.ceil(2.0 * reach / dt)) + 3
    offsets = np.arange(width)
    rows = max(1, DEPOSIT_BLOCK // width)
    for r0 in range(0, len(centers), rows):
        sl = slice(r0, min(r0 + rows, len(centers)))
        c = centers[sl]
        first = np.floor((c - reach - t0) / dt).astype(np.int64)
        idx = first[:, None] + offsets[None, :]
        inside = (idx >= 0) & (idx < n)
        np.clip(idx, 0, n - 1, out=idx)
        kern = mollifier(t_grid[idx] - c[:, None])
        if not inside.all():
            kern[~inside] = 0.0
        yield sl, idx, kern


def pinned_density(mu: FrostmanMeasure, phi, pin_x, mollifier: Mollifier,
                   t_grid=None, mc_samples: int = 0, seed: int = 0) -> PinnedDensity:
    """Mollified pinned density on a uniform t-grid.

    Exact mode (mc_samples = 0) sums over the measure's atoms; Monte Carlo
    mode averages over seeded draws and carries per-node standard errors.
    Each atom or draw is deposited onto its support window only; Monte Carlo
    mode also scatters the squared kernel and sums each draw's trapezoid mass
    over its window.
    """
    if len(mu) == 0:
        raise DomainError("empty measure")
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
    _check_resolution(dt, eps)
    if dt <= 0 or np.abs(np.diff(t_grid) - dt).max() > 1e-6 * dt:
        raise DomainError("t_grid must be increasing and uniformly spaced")

    n = len(t_grid)
    values = np.zeros(n)
    sq = np.zeros(n) if mc_samples else None
    per_mass = np.empty(len(phi_vals)) if mc_samples else None
    tw = _trapz_weights(n, dt)
    for sl, idx, kern in _support_windows(t_grid, phi_vals, mollifier):
        nodes = idx.ravel()
        values += np.bincount(nodes, (kern * weights[sl, None]).ravel(), n)
        if mc_samples:
            sq += np.bincount(nodes, (kern ** 2 * weights[sl, None]).ravel(), n)
            per_mass[sl] = (kern * tw[idx]).sum(axis=1)
    if mc_samples:
        var = np.maximum(sq - values ** 2, 0.0) / mc_samples
        stderr = np.sqrt(var)
        mass_se = float(per_mass.std() / np.sqrt(mc_samples))
    else:
        stderr = np.zeros(n)
        mass_se = 0.0
    return PinnedDensity(pin, eps, t_grid, values, stderr, mc_samples, mass_se)


def density_mass(nu) -> float:
    """Trapezoid mass; raises CoverageError if the grid clips the support."""
    if isinstance(nu, PinnedDensity):
        vals = nu.values
        edge = max(float(vals[0]), float(vals[-1]))
        tw = nu.trapz_weights()
        mass = float(vals @ tw)
    else:
        vals = nu.values
        edge = 0.0
        for ax in range(nu.k):
            edge = max(edge, float(np.abs(np.take(vals, 0, axis=ax)).max()),
                       float(np.abs(np.take(vals, -1, axis=ax)).max()))
        mass = float((vals * nu.weight_grid()).sum())
    if edge > 1e-9:
        raise CoverageError(f"density leaks past the grid boundary (edge value {edge:.3e})")
    return mass


def l2_energy(pin_weights, densities, beta=None) -> float:
    """sum_x lambda_w(x) * int beta(t) nu_x(t)^2 dt over a shared grid."""
    pin_weights = np.asarray(pin_weights, float)
    if len(pin_weights) != len(densities):
        raise DomainError("one weight per density required")
    ref = densities[0]
    total = 0.0
    for w, nu in zip(pin_weights, densities):
        if isinstance(nu, PinnedDensity):
            if len(nu.t_grid) != len(ref.t_grid) or nu.epsilon != ref.epsilon:
                raise DomainError("densities must share grid and epsilon")
            b = 1.0 if beta is None else np.asarray(beta(nu.t_grid), float)
            total += w * float((b * nu.values ** 2) @ nu.trapz_weights())
        else:
            b = 1.0 if beta is None else _beta_grid(beta, nu)
            total += w * float((b * nu.values ** 2 * nu.weight_grid()).sum())
    return total


def _beta_grid(beta, chain: ChainDensity) -> np.ndarray:
    out = np.ones(chain.values.shape)
    for ax, nodes in enumerate(chain.t_axes):
        shape = [1] * chain.k
        shape[ax] = len(nodes)
        out = out * np.asarray(beta(nodes), float).reshape(shape)
    return out


def cs_lower_bound(nu, beta=None) -> float:
    """mass^2 / int beta nu^2 -- a lower bound for the pinned set's measure.

    Cauchy-Schwarz on the grid weights makes this a certified bound for
    `support_measure(nu, 0)` whenever beta = 1 on the support.  Zero energy
    returns +inf.
    """
    mass = density_mass(nu)
    if abs(mass - 1.0) > 0.05:
        raise DomainError(f"density mass {mass} further than 5% from 1")
    energy = l2_energy([1.0], [nu], beta)
    if energy == 0.0:
        return math.inf
    return mass ** 2 / energy


def support_measure(nu, threshold: float = 0.0) -> float:
    """Grid-weight measure of {nu > threshold} (trapezoid convention)."""
    if isinstance(nu, PinnedDensity):
        return float(nu.trapz_weights()[nu.values > threshold].sum())
    return float(nu.weight_grid()[nu.values > threshold].sum())


def _phi_matrix(phi, A, B, chunk: int = 2_000_000):
    """phi(a, b) for all atom pairs, chunked over rows."""
    from .phases import pairwise_value
    return pairwise_value(phi, A, B, chunk)


def chain_density(mu: FrostmanMeasure, phi, pin_x, k: int, mollifier: Mollifier,
                  t_axes=None, mc_samples: int = 0, seed: int = 0,
                  grid_budget: int = GRID_BUDGET) -> ChainDensity:
    """Mollified k-link chain density on a tensor t-grid.

    Exact mode contracts the atom-pair kernel matrices link by link (the
    nested-sum expansion of the composed operator); Monte Carlo mode samples
    chains (x^2, ..., x^{k+1}) and deposits the tensor-product bump.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    pin = np.asarray(pin_x, float)
    eps = mollifier.epsilon
    if t_axes is None:
        phi_pin = np.asarray(phi.value(pin[None, :], mu.points))
        pair_lo, pair_hi = _pair_range(phi, mu)
        lo = min(float(phi_pin.min()), pair_lo)
        hi = max(float(phi_pin.max()), pair_hi)
        axis = default_t_grid(np.array([lo, hi]), eps, step_divisor=4)
        t_axes = (axis,) * k
    t_axes = tuple(np.asarray(ax, float) for ax in t_axes)
    if len(t_axes) != k:
        raise DomainError("need one t-axis per link")
    nodes = 1
    for ax in t_axes:
        _check_resolution(float(ax[1] - ax[0]), eps)
        nodes *= len(ax)
    if nodes > grid_budget:
        raise BudgetError(f"chain grid of {nodes} nodes exceeds budget {grid_budget}")

    if mc_samples == 0:
        values = _chain_exact(mu, phi, pin, k, mollifier, t_axes)
        stderr = np.zeros(values.shape)
        mass_se = 0.0
    else:
        values, stderr, mass_se = _chain_mc(mu, phi, pin, k, mollifier,
                                            t_axes, mc_samples, seed)
    return ChainDensity(pin, k, eps, t_axes, values, stderr, mc_samples, mass_se)


def _pair_range(phi, mu, cap: int = 1024):
    pts = mu.points if len(mu) <= cap else mu.points[:: max(1, len(mu) // cap)]
    m = _phi_matrix(phi, pts, pts)
    return float(m.min()), float(m.max())


def _chain_exact(mu, phi, pin, k, mollifier, t_axes) -> np.ndarray:
    w = mu.weights
    n = len(mu)
    if k > 1:
        phi_aa = _phi_matrix(phi, mu.points, mu.points)
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


def _chain_mc(mu, phi, pin, k, mollifier, t_axes, mc_samples, seed):
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
        acc += _sum_outer(factors)
        acc_sq += _sum_outer([f ** 2 for f in factors])
    values = acc / mc_samples
    var = np.maximum(acc_sq / mc_samples - values ** 2, 0.0) / mc_samples
    mass_mean = mass_sum / mc_samples
    mass_var = max(mass_sq / mc_samples - mass_mean ** 2, 0.0) / mc_samples
    return values, np.sqrt(var), float(np.sqrt(mass_var))


def _sum_outer(factors) -> np.ndarray:
    """sum_s f_1[s, :] x ... x f_k[s, :] for any k, via einsum's sublist form."""
    operands = []
    for i, f in enumerate(factors):
        operands += [f, [0, i + 1]]
    return np.einsum(*operands, list(range(1, len(factors) + 1)), optimize=True)


def composed_operator_density(mu: FrostmanMeasure, phi, pin_x, k: int,
                              mollifier: Mollifier, t, mc_samples: int = 0,
                              seed: int = 0, psi=None) -> float:
    """Nested-operator evaluation of the chain density at a single gap vector.

    Evaluates g_k = 1, g_{i-1}(y) = sum_z w_z rho_eps(t_i - phi(y, z))
    psi(y, z) g_i(z) innermost-out and returns g_0(pin).  Exact mode uses the
    atoms, N^2 per link; mc_samples > 0 replaces each layer's sum with an
    independent weighted draw (unbiased by independence across layers).
    """
    t = np.atleast_1d(np.asarray(t, float))
    if len(t) != k:
        raise DomainError("need one gap value per link")
    pin = np.asarray(pin_x, float)
    if mc_samples == 0:
        pts, w = mu.points, mu.weights
        g = np.ones(len(pts))
        if k > 1:
            gaps = _phi_matrix(phi, pts, pts)
            weight = 1.0 if psi is None else np.asarray(psi(pts[:, None, :], pts[None, :, :]))
        for link in range(k, 1, -1):
            g = (mollifier(t[link - 1] - gaps) * weight) @ (w * g)
        weight0 = 1.0 if psi is None else np.asarray(psi(pin[None, :], pts))
        kern0 = mollifier(t[0] - np.asarray(phi.value(pin[None, :], pts))) * weight0
        return float(kern0 @ (w * g))
    total = 0.0
    for b, _, size in batches(mc_samples):
        rng = rng_for(seed, 4, b)
        layers = [mu.points[rng.choice(len(mu), size=size, p=mu.weights)]
                  for _ in range(k)]
        g = np.ones(size)
        for link in range(k, 1, -1):
            kern = mollifier(t[link - 1] -
                             np.asarray(phi.value(layers[link - 2], layers[link - 1])))
            if psi is not None:
                kern = kern * np.asarray(psi(layers[link - 2], layers[link - 1]))
            g = np.full(size, float(np.mean(kern * g)))
        kern0 = mollifier(t[0] - np.asarray(phi.value(pin[None, :], layers[0])))
        if psi is not None:
            kern0 = kern0 * np.asarray(psi(pin[None, :], layers[0]))
        total += float(np.mean(kern0 * g)) * size
    return total / mc_samples


def measure_mollify(mu: FrostmanMeasure, theta: float, grid_n: int):
    """Gridded mu * rho_theta on [0,1)^d via the tensor-product mollifier.

    Returns (grid density array, cell size).  Total mass is preserved to
    1e-8: each atom deposits a normalized sampled bump.
    """
    if theta <= 0:
        raise DomainError("theta must be positive")
    d = mu.d
    h = 1.0 / grid_n
    if h > theta / 4.0:
        raise ResolutionError(f"grid step {h} too coarse for theta {theta}")
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
        if total <= 0:
            continue
        block = block * (w / (total))
        dens[np.ix_(*axes_idx)] += block
    return dens, h
