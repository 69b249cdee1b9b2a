"""Mollified pinned measures, chain measures, and their L2 functionals.

The pinned measure nu_x is the pushforward of mu under y -> phi(x, y); its
mollification at scale eps evaluates as

    nu_x * rho_eps (t) = (1/eps) * sum_y w_y rho((t - phi(x, y)) / eps)

on a uniform t-grid.  Chain measures push forward (k+1)-tuples with
consecutive gaps, mollified by the tensor product of 1-d bumps; a pinned
density is the one-link chain, so one type, `ChainDensity`, holds both and
one rule checks their axes and node budget (`_check_axes`).  Every kernel
is evaluated on support windows only: the bump vanishes outside (-2 eps,
2 eps), so each gap gets one window per axis of min(ceil(4 eps / dt) + 3,
axis length) nodes, its start clamped into the axis (`_window_width`), so
that the window holds every grid node of the support and never leaves the
grid.  One evaluator, `_window_bumps`, writes a block's window nodes and
rho_eps values, bit for bit the mollifier's, into scratch arrays reused
across blocks.
Pinned densities and Monte Carlo chains deposit through `_deposit`: the k
window kernels multiply into one tensor block per batch of rows, scattered
into the grid with `np.bincount`, so work and memory grow with rows x
window^k, not rows x grid.  Exact chains contract link by link from the last
(`_chain_exact`), in numpy alone.  The last link, where the partial sum is
1, is a pinned density from every atom, scattered with `np.bincount`; on a
pair table symmetric to the bit it evaluates one triangle and adds each
pair's window to the later row as well (`np.add.at`).  Each link before it
scatters a block's windows into a dense (atom x (y, node)) kernel and takes
one GEMM with the partial sums.  So kernel evaluations grow with atoms^2 x
window (half that on a symmetric table), not atoms^2 x axis length.  Either
way every nonzero kernel value is the one a full (node x row) matrix would
hold, and every blocked loop walks `rng.row_blocks`: a block holds at most
`rng.BLOCK` window entries, or one row.
Monte Carlo mode draws atoms of mu and deposits each distinct atom drawn
once, weighted count / draws (`monte_carlo_rows`), so its work grows with
min(draws, atoms); chains are one row each, and a caller that deposits one
sample at several eps draws and groups it once.  With row weights w_r:
stderr^2 = (sum_r w_r kernel_r^2 - values^2) / draws per node, and the mass
stderr is the weighted std of the rows' trapezoid masses m_r,
sqrt(sum_r w_r (m_r - sum_s w_s m_s)^2 / draws).
Everything downstream (mass, L2 energy, Cauchy-Schwarz support bounds) is
written once for every k, as grid sums with the axes' trapezoid weights
contracted from the last axis (`_integrate`); using the same weights
everywhere makes the discrete Cauchy-Schwarz inequality exact, so
`support_measure >= cs_lower_bound` holds literally, not just up to
quadrature error.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, CoverageError, DomainError, ResolutionError
from .fractals import FrostmanMeasure, sample_points
from .phases import pairwise_value
from .profiles import _bump_in_place, bump_norm_constant, bump_profile
from .rng import batches, block_rows, rng_for, row_blocks

#: Ceiling on the grid nodes of any density, pinned or chain.
GRID_BUDGET = 2_000_000

#: Default grid step as a fraction of eps.  The C-infinity bump integrates on
#: a uniform grid with aliasing error ~3e-6 at eps/8, ~1e-7 at eps/16; the
#: mass contract (1 within 1e-6 in exact mode) needs the finer default.
STEP_DIVISOR = 16


@dataclass(frozen=True)
class Mollifier:
    """Unit-mass C-infinity bump at scale epsilon, supported on (-2 eps, 2 eps)."""

    epsilon: float

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise DomainError(f"epsilon must be positive and finite, got {self.epsilon}")

    def __call__(self, u):
        """rho_eps(u) = bump_profile(u / eps) / eps."""
        return bump_profile(np.asarray(u, float) / self.epsilon) / self.epsilon

    @property
    def support_radius(self) -> float:
        return 2.0 * self.epsilon


def default_t_grid(phi_values, epsilon: float, step_divisor: int = STEP_DIVISOR):
    """Uniform grid covering [min phi - 4 eps, max phi + 4 eps] at eps/divisor;
    BudgetError, before anything is allocated, above GRID_BUDGET nodes."""
    dt = epsilon / step_divisor
    lo = float(np.min(phi_values)) - 4.0 * epsilon
    hi = float(np.max(phi_values)) + 4.0 * epsilon
    n = int(math.ceil((hi - lo) / dt)) + 1
    if n > GRID_BUDGET:
        raise BudgetError(f"grid of {n} nodes exceeds budget {GRID_BUDGET}")
    return lo + dt * np.arange(n)


def _trapz_weights(n: int, dt: float) -> np.ndarray:
    w = np.full(n, dt)
    w[0] = w[-1] = dt / 2.0
    return w


@dataclass(frozen=True)
class ChainDensity:
    """Mollified density on the tensor grid of k uniform t-axes; a pinned
    density is the one-link chain, its t-grid the only axis."""

    epsilon: float
    t_axes: tuple          # k 1-d node arrays
    values: np.ndarray     # shape (len(ax_1), ..., len(ax_k))
    stderr: np.ndarray
    mass_stderr: float = 0.0

    @property
    def k(self) -> int:
        return len(self.t_axes)

    @property
    def t_grid(self) -> np.ndarray:
        return self.t_axes[0]

    def axis_weights(self):
        return [_trapz_weights(len(ax), float(ax[1] - ax[0])) for ax in self.t_axes]


def _axis_step(ax) -> float:
    """The step of the 1-d axis `ax`, which must be increasing and uniform:
    every step within 1e-6 of the first, which windows and trapezoid
    weights assume; DomainError otherwise."""
    dt = float(ax[1] - ax[0]) if len(ax) > 1 else 0.0
    if not (dt > 0 and np.abs(np.diff(ax) - dt).max() <= 1e-6 * dt):
        raise DomainError("t-axes must be increasing and uniformly spaced")
    return dt


def _check_axes(t_axes, epsilon: float) -> None:
    """At most GRID_BUDGET grid nodes; each axis increasing and uniform
    (`_axis_step`), its step at most eps/2."""
    nodes = math.prod(len(ax) for ax in t_axes)
    if nodes > GRID_BUDGET:
        raise BudgetError(f"grid of {nodes} nodes exceeds budget {GRID_BUDGET}")
    for ax in t_axes:
        dt = _axis_step(ax)
        if dt > epsilon / 2.0:
            raise ResolutionError(f"grid step {dt} too coarse for epsilon {epsilon}")


def _window_width(ax, reach: float) -> int:
    """Nodes per support window on the uniform axis `ax`: from the node at
    or below gap - reach, ceil(2 reach / dt) + 3 nodes hold every node within
    `reach` of the gap, with one to spare for rounding; capped at the axis
    length."""
    return min(int(math.ceil(2.0 * reach / float(ax[1] - ax[0]))) + 3, len(ax))


def _window_bumps(gaps, ax, width: int, mollifier: Mollifier, nodes, kern):
    """Each gap's support window of `width` nodes on the uniform axis `ax`
    and the mollifier on it, written into the flat scratch arrays `nodes`
    (any integer type) and `kern`.

    Returns their leading (len(gaps), width) views: node first + o and
    rho_eps(ax[first + o] - gap), o < width, where first = floor((gap -
    reach - t0) / dt) is clamped into [0, len - width] so that the window
    never leaves the axis; every node within reach = 2 eps of the gap lies
    in it.  The kernel takes `Mollifier.__call__`'s operations in their
    order, in place, the bump's own steps through `bump_raw`'s helper
    `_bump_in_place`, so each value is bit for bit mollifier(ax[first + o]
    - gap): one division by 2 eps gives the bump values that / eps, then /
    2, give.
    """
    rows = len(gaps)
    nodes = nodes[:rows * width].reshape(rows, width)
    kern = kern[:rows * width].reshape(rows, width)
    eps = mollifier.epsilon
    dt = float(ax[1] - ax[0])
    first = np.clip(np.floor((gaps - 2.0 * eps - ax[0]) / dt), 0, len(ax) - width)
    np.add(first.astype(np.int64)[:, None], np.arange(width), out=nodes)
    np.take(ax, nodes, out=kern, mode="clip")
    kern -= gaps[:, None]
    kern /= 2.0 * eps
    _bump_in_place(kern)
    kern *= bump_norm_constant()
    kern /= eps
    return nodes, kern


def _tensor_block(idx, vals, shape):
    """Tensor products of per-axis windows and their flat indices on a grid.

    `idx[i]` and `vals[i]` (rows x w_i) hold each row's window nodes on axis i
    and its factor there.  Returns the (rows, w_1 * ... * w_k) products and
    the matching raveled flat indices into a grid of `shape`; with one axis
    the products are `vals[0]` itself.
    """
    k = len(idx)
    rows = len(idx[0])
    shapes = [(rows,) + (1,) * i + (-1,) + (1,) * (k - 1 - i) for i in range(k)]
    block = functools.reduce(np.multiply, [v.reshape(s) for v, s in zip(vals, shapes)])
    flat = idx[0].reshape(shapes[0])
    for j, n, s in zip(idx[1:], shape[1:], shapes[1:]):
        flat = flat * n + j.reshape(s)
    return block.reshape(rows, -1), flat.ravel()


def _deposit(gaps, weights, t_axes, mollifier: Mollifier, draws: int = 0):
    """(values, stderr, mass_stderr) of sum_r weights[r] prod_i rho_eps(t_i - gaps[r, i])
    on the tensor grid of the k uniform `t_axes`, for gap vectors of shape (n, k).

    Row r's window on axis i is `_window_bumps`', written into scratch
    arrays sized for the largest of the `row_blocks`; each block is
    scattered with one `np.bincount`.
    `draws` = 0 is exact.  Otherwise the rows are the outcomes of that many
    Monte Carlo draws, each weighted by its share of them: the same pass
    scatters the weighted squared kernels and takes each row's trapezoid
    mass, for the stderrs of the module rule.
    """
    n = len(gaps)
    reach = mollifier.support_radius
    shape = tuple(len(ax) for ax in t_axes)
    widths = [_window_width(ax, reach) for ax in t_axes]
    per_row = math.prod(widths)
    tws = [_trapz_weights(len(ax), float(ax[1] - ax[0])) for ax in t_axes]
    size = math.prod(shape)
    values = np.zeros(size)
    sq = np.zeros(size)
    per_mass = np.ones(n)
    rows = min(n, block_rows(per_row))
    node_bufs = [np.empty(rows * w, np.int64) for w in widths]
    kern_bufs = [np.empty(rows * w) for w in widths]
    scratch = np.empty(rows * per_row)
    for sl in row_blocks(n, per_row):
        idx, kern = zip(*[_window_bumps(gaps[sl, i], ax, w, mollifier, nb, kb)
                          for i, (ax, w, nb, kb)
                          in enumerate(zip(t_axes, widths, node_bufs, kern_bufs))])
        block, flat = _tensor_block(idx, kern, shape)
        tmp = scratch[:block.size].reshape(block.shape)
        np.multiply(block, weights[sl, None], out=tmp)
        values += np.bincount(flat, tmp.ravel(), size)
        if draws:
            for f, j, tw in zip(kern, idx, tws):
                part = scratch[:f.size].reshape(f.shape)
                np.take(tw, j, out=part, mode="clip")
                part *= f
                per_mass[sl] *= part.sum(axis=1)
            np.square(block, out=tmp)
            tmp *= weights[sl, None]
            sq += np.bincount(flat, tmp.ravel(), size)
    values = values.reshape(shape)
    if not draws:
        return values, np.zeros(shape), 0.0
    stderr = np.sqrt(np.maximum(sq.reshape(shape) - values ** 2, 0.0) / draws)
    spread = weights @ (per_mass - weights @ per_mass) ** 2
    return values, stderr, float(np.sqrt(spread / draws))


def monte_carlo_rows(mu: FrostmanMeasure, mc_samples: int, seed: int):
    """(points, weights) of the rows a Monte Carlo pinned density deposits
    for the atoms `sample_points(mu, mc_samples, seed)` draws: each distinct
    atom once, weighted count / draws."""
    atoms, counts = np.unique(sample_points(mu, mc_samples, seed), return_counts=True)
    return mu.points[atoms], counts / mc_samples


def pinned_density(mu: FrostmanMeasure, phi, pin_x, mollifier: Mollifier,
                   t_grid=None, mc_samples: int = 0, seed: int = 0,
                   rows=None) -> ChainDensity:
    """Mollified pinned density on a uniform t-grid: the one-link chain.

    Exact mode (mc_samples = 0) sums over the measure's atoms; Monte Carlo
    mode averages over seeded atom draws and carries per-node standard
    errors.  Each atom, or distinct drawn atom, is deposited onto its
    support window only (`_deposit` with one link).  `rows`, if given, is
    `monte_carlo_rows(mu, mc_samples, seed)` computed beforehand, so that a
    caller depositing one sample at several eps draws it once.
    """
    if len(mu) == 0:
        raise DomainError("empty measure")
    if mc_samples < 0:
        raise DomainError(f"mc_samples must be >= 0, got {mc_samples}")
    pin = np.asarray(pin_x, float)
    eps = mollifier.epsilon
    if mc_samples == 0:
        points, weights = mu.points, mu.weights
    else:
        points, weights = rows if rows is not None else monte_carlo_rows(mu, mc_samples, seed)
    phi_vals = np.asarray(phi.value(pin[None, :], points))
    if t_grid is None:
        t_grid = default_t_grid(phi_vals, eps)
    t_axes = (np.asarray(t_grid, float),)
    _check_axes(t_axes, eps)
    values, stderr, mass_se = _deposit(phi_vals[:, None], weights, t_axes,
                                       mollifier, mc_samples)
    return ChainDensity(eps, t_axes, values, stderr, mass_se)


def _integrate(nu: ChainDensity, grid_values) -> float:
    """Trapezoid integral of an array on nu's grid, contracted from the last axis."""
    for w in reversed(nu.axis_weights()):
        grid_values = grid_values @ w
    return float(grid_values)


def density_mass(nu: ChainDensity) -> float:
    """Trapezoid mass; raises CoverageError if the grid clips the support."""
    edge = max(float(np.abs(np.take(nu.values, [0, -1], axis=ax)).max())
               for ax in range(nu.k))
    if edge > 1e-9:
        raise CoverageError(f"density leaks past the grid boundary (edge value {edge:.3e})")
    return _integrate(nu, nu.values)


def l2_energy(pin_weights, densities) -> float:
    """sum_x lambda_w(x) * int nu_x(t)^2 dt over a shared grid and epsilon."""
    pin_weights = np.asarray(pin_weights, float)
    if not densities or len(pin_weights) != len(densities):
        raise DomainError("need at least one density and one weight per density")
    ref = densities[0]
    total = 0.0
    for w, nu in zip(pin_weights, densities):
        if (nu.values.shape != ref.values.shape or nu.epsilon != ref.epsilon
                or not all(map(np.array_equal, nu.t_axes, ref.t_axes))):
            raise DomainError("densities must share grid and epsilon")
        total += w * _integrate(nu, nu.values ** 2)
    return total


def cs_lower_bound(nu: ChainDensity) -> float:
    """mass^2 / int nu^2 -- a lower bound for the pinned set's measure.

    Cauchy-Schwarz on the grid weights makes this a certified bound for
    `support_measure(nu)`.  Zero energy returns +inf.
    """
    mass = density_mass(nu)
    if abs(mass - 1.0) > 0.05:
        raise DomainError(f"density mass {mass} further than 5% from 1")
    energy = l2_energy([1.0], [nu])
    if energy == 0.0:
        return math.inf
    return mass ** 2 / energy


def support_measure(nu: ChainDensity) -> float:
    """Grid-weight measure of {nu > 0} (trapezoid convention)."""
    weights = functools.reduce(np.multiply.outer, nu.axis_weights())
    return float(weights[nu.values > 0].sum())


def chain_density(mu: FrostmanMeasure, phi, pin_x, k: int, mollifier: Mollifier,
                  t_axes=None, mc_samples: int = 0, seed: int = 0) -> ChainDensity:
    """Mollified k-link chain density on a tensor t-grid.

    Default axes span the pin's gaps and `_pair_range`, which holds one
    block of pair rows at a time.  Exact mode contracts the atom-pair
    kernels link by link (the nested-sum expansion of the composed
    operator), each pair's kernel built on its clamped support window only
    (`_chain_exact`), so its cost does not grow as eps shrinks; Monte Carlo
    mode samples chains (x^2, ..., x^{k+1}) and deposits the tensor-product
    bump on each chain's clamped windows (`_deposit`), so it holds no
    (atom x atom) table at all.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if mc_samples < 0:
        raise DomainError(f"mc_samples must be >= 0, got {mc_samples}")
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
    _check_axes(t_axes, eps)

    if mc_samples == 0:
        values = _chain_exact(mu, phi, pin, k, mollifier, t_axes)
        stderr = np.zeros(values.shape)
        mass_se = 0.0
    else:
        values, stderr, mass_se = _chain_mc(mu, phi, pin, k, mollifier,
                                            t_axes, mc_samples, seed)
    return ChainDensity(eps, t_axes, values, stderr, mass_se)


def _pair_range(phi, mu):
    """(min, max) of phi over the pairs of every atom, or of every
    (len // 1024)-th one beyond 1024 atoms, from `phi.value` on the
    `row_blocks` of the table.  `value` computes each pair on its own, per
    coordinate and not by a matrix product, so no bit depends on the
    block."""
    pts = mu.points if len(mu) <= 1024 else mu.points[:: len(mu) // 1024]
    lo, hi = np.inf, -np.inf
    for sl in row_blocks(len(pts), len(pts)):
        m = np.asarray(phi.value(pts[sl, None], pts[None]))
        lo, hi = np.minimum(lo, m.min()), np.maximum(hi, m.max())
    return float(lo), float(hi)


def _chain_exact(mu, phi, pin, k, mollifier, t_axes) -> np.ndarray:
    """Exact chain values, contracted link by link from the last.

    g_k = 1 and g_{i-1}(y, t_i, ...) = sum_z w_z rho_eps(t_i - phi(y, z))
    g_i(z, ...), then the pin link contracts g_1 the same way with
    phi(pin, z).  The last link, where g = 1, is a pinned density from
    every atom (`_last_link`); each link before it is one GEMM with g per
    block of rows (`_outer_link`).  For k >= 2 the (atom x atom) table of
    phi is one `pairwise_value` call.
    """
    w = mu.weights
    widths = [_window_width(ax, mollifier.support_radius) for ax in t_axes]
    phi_pin = np.asarray(phi.value(pin[None, :], mu.points))[None, :]
    if k == 1:
        values = _last_link(phi_pin, w, t_axes[0], widths[0], mollifier, False)
    else:
        phi_aa = pairwise_value(phi, mu.points, mu.points)
        g = _last_link(phi_aa, w, t_axes[-1], widths[-1], mollifier,
                       np.array_equal(phi_aa, phi_aa.T))
        for ax, wd in zip(reversed(t_axes[1:-1]), reversed(widths[1:-1])):
            g = _outer_link(phi_aa, w, ax, wd, mollifier, g)
        values = _outer_link(phi_pin, w, t_axes[0], widths[0], mollifier, g)
    return values.reshape(tuple(len(ax) for ax in t_axes))


def _link_windows(gaps, ax, width: int, mollifier: Mollifier, triangle: bool = False):
    """Yield (sl, idx, vals) for each of the `row_blocks` of `gaps` (rows, n):
    the windows (`_window_bumps`) of the pairs (y, z), y in sl and z >= y0,
    shaped (n - y0, block rows, width), column by column, in two scratch
    arrays reused across blocks; y0 = sl.start with `triangle`, else 0."""
    m_all, n = gaps.shape
    cap = min(m_all, block_rows(n * width)) * n * width
    nodes, kern = np.empty(cap, np.int64), np.empty(cap)
    for sl in row_blocks(m_all, n * width):
        y0 = sl.start if triangle else 0
        idx, vals = _window_bumps(gaps[sl, y0:].T.ravel(), ax, width, mollifier, nodes, kern)
        shape = (n - y0, sl.stop - sl.start, width)
        yield sl, idx.reshape(shape), vals.reshape(shape)


def _last_link(gaps, weights, ax, width: int, mollifier: Mollifier, triangle: bool):
    """(rows, len(ax)) sums sum_z weights[z] rho_eps(ax - gaps[y, z]) over
    each pair's window, for `gaps` of shape (rows, n).

    Each block of `_link_windows` is scattered by one `np.bincount`.  With
    `triangle` (gaps square and symmetric to the bit) a block meets only
    the columns from its own first row on: a pair (y, z) past the block is
    the pair (z, y) too, with the same window, so one `np.add.at` adds it,
    weighted weights[y], to the later row z.
    """
    m_all, n = gaps.shape
    length = len(ax)
    out = np.zeros(m_all * length)
    for sl, idx, vals in _link_windows(gaps, ax, width, mollifier, triangle):
        m = sl.stop - sl.start
        if triangle:
            later = length * np.arange(sl.stop, n)[:, None, None]
            np.add.at(out, (idx[m:] + later).ravel(), (vals[m:] * weights[sl, None]).ravel())
        vals *= weights[n - len(vals):, None, None]     # columns z >= y0
        idx += (length * np.arange(m))[:, None]
        out[sl.start * length:sl.stop * length] += np.bincount(idx.ravel(), vals.ravel(),
                                                               m * length)
    return out.reshape(m_all, length)


def _outer_link(gaps, weights, ax, width: int, mollifier: Mollifier, g):
    """(rows, len(ax) * M) sums sum_z weights[z] rho_eps(ax - gaps[y, z]) g[z]
    for `gaps` of shape (rows, n) and g of shape (n, M).

    Each block of `_link_windows` is scattered into a dense (n, block rows x
    len(ax)) kernel, zero off the windows, whose transpose takes one GEMM
    with g.
    """
    m_all, n = gaps.shape
    length = len(ax)
    out = np.empty((m_all, length * g.shape[1]))
    dense = np.zeros(n * min(m_all, block_rows(n * width)) * length)
    for sl, idx, vals in _link_windows(gaps, ax, width, mollifier):
        m = sl.stop - sl.start
        # the window of pair (y, z) is [z, y]: row z, columns from y * len(ax)
        idx += (np.arange(n) * (m * length))[:, None, None] + (length * np.arange(m))[:, None]
        vals *= weights[:, None, None]
        block = dense[:n * m * length]
        block[idx.ravel()] = vals.ravel()
        out[sl] = (block.reshape(n, m * length).T @ g).reshape(m, -1)
        block[idx.ravel()] = 0.0
    return out


def _chain_mc(mu, phi, pin, k, mollifier, t_axes, mc_samples, seed):
    gaps = np.empty((mc_samples, k))
    for b, start, size in batches(mc_samples):
        rng = rng_for(seed, 3, b)
        idx = rng.choice(len(mu), size=(size, k), p=mu.weights)
        chain_pts = mu.points[idx]                       # (size, k, d)
        prev = np.broadcast_to(pin, chain_pts[:, 0].shape)
        for i in range(k):
            gaps[start:start + size, i] = np.asarray(phi.value(prev, chain_pts[:, i]))
            prev = chain_pts[:, i]
    return _deposit(gaps, np.full(mc_samples, 1.0 / mc_samples), t_axes, mollifier, mc_samples)
