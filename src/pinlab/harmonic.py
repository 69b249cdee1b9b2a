"""Desk-scale checks of the harmonic-analysis inputs.

Covers the dyadic frequency partition, sphere-measure Fourier decay, the
fractal energy integral in both Fourier and kernel form (with the classical
Riesz-kernel constant; Mattila, Fourier Analysis and Hausdorff Dimension,
2015, ch. 3), the mollified averaging operator with its Sobolev ratios, and
the separated-frequency oscillatory integral.
The energy's |xi| < 1 centre has one rule for d = 1..3 and every gamma:
sphere integrals of exact atom sums at fixed nodes in |xi|^2, expanded in
Legendre polynomials whose moments against |xi|^-gamma are closed forms.

Grid conventions: fields live on [0,1)^d sampled at idx/n, treated
periodically; their Fourier coefficients are the forward FFT / n^d, so
discrete Parseval reads mean |f|^2 = sum |f_hat|^2.  Measure arrays (mass per
cell) transform without normalization, so the zero mode is the total mass.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, DomainError, ResolutionError
from .fractals import FrostmanMeasure
from .phases import _norm, pairwise_value
from .pinned import Mollifier, _tensor_block
from .profiles import smooth_step
from .rng import block_rows, rng_for, row_blocks


class ResolutionWarning(UserWarning):
    """A requested frequency is beyond what the quadrature resolves."""


# -- frequency grids ---------------------------------------------------------

#: Bytes of the largest array of a sphere raster, an energy deposit box or
#: one stage of their transforms; `_check_budget` refuses more.
BYTE_BUDGET = 1 << 28


def freq_norms(d: int, side_n: int) -> np.ndarray:
    """|xi| at every integer frequency of the periodic grid of side_n^d nodes,
    in FFT order."""
    return np.sqrt(sum(k ** 2 for k in np.ix_(*[np.fft.fftfreq(side_n) * side_n] * d)))


def _shell_top(side_n: int) -> int:
    """m_top = floor(log2(side_n/4)): the dyadic shells 2^m <= |xi| < 2^(m+1),
    m < m_top, end at 2^m_top <= side_n/4.  ResolutionError for fewer than
    two shells."""
    if side_n < 16:
        raise ResolutionError(f"side_n {side_n} gives fewer than two shells; need side_n >= 16")
    return int(math.floor(math.log2(side_n / 4.0)))


def _rfft_shells(d: int, side_n: int, pad: int):
    """|xi| at frequency spacing 1/pad (pad a power of two, so the scaling is
    exact) on the part of the rfftn layout of the (pad side_n)^d periodic grid
    that the shells read, and a (geometric mid, mask) pair for each dyadic
    shell 2^m <= |xi| < 2^(m+1), m < `_shell_top(side_n)`.  That part keeps
    the integer frequencies |k_i| < k = pad 2^m_top on every axis, the box
    `_rfft_box` returns: the full axes in rfftn order 0..k-1, n-k+1..n-1
    (n = pad side_n), the last axis 0..k-1."""
    m_top = _shell_top(side_n)
    n, k = pad * side_n, pad * 2 ** m_top
    full = np.fft.fftfreq(n) * n
    axes = [np.concatenate([full[:k], full[n - k + 1:]])] * (d - 1) + [np.arange(k + 0.0)]
    fn = sum(x ** 2 for x in np.ix_(*axes))
    np.sqrt(fn, out=fn)
    fn /= pad
    return fn, [(math.sqrt(2.0 ** m * 2.0 ** (m + 1)), (fn >= 2.0 ** m) & (fn < 2.0 ** (m + 1)))
                for m in range(m_top)]


def _fft_lines(src, fill, nodes, n: int, cols, fft) -> np.ndarray:
    """fft(line)[cols] for each line along the last axis of `src`, taken as
    the length-n line that holds its values at `nodes` and its `fill` value
    (`fill` has a unit last axis) elsewhere; in `row_blocks` of lines."""
    out = np.empty(src.shape[:-1] + (len(cols),), complex)
    lines = np.empty((block_rows(n), n), src.dtype)
    for sl in row_blocks(math.prod(src.shape[:-1]), n):
        at = np.unravel_index(np.arange(sl.start, sl.stop), src.shape[:-1])
        buf = lines[:sl.stop - sl.start]
        buf[:] = fill[at]
        buf[:, nodes] = src[at]
        out[at] = fft(buf)[:, cols]
    return out


def _rfft_box(box: np.ndarray, starts, n: int, k: int) -> np.ndarray:
    """np.fft.rfftn of the periodic n^d grid that is zero but for `box`, whose
    cell j sits at (starts + j) mod n, at the frequencies |k_i| < k alone (k
    <= n/2): the full axes in rfftn order 0..k-1, n-k+1..n-1, the last axis
    0..k-1.

    The axes go in rfftn's order (the last by rfft, then the others from
    last to first), each by `_fft_lines` on lines that hold the box's values
    at their nodes and, elsewhere, what rfftn's lines hold there: the
    transform so far of the all-zero grid (rfft gives a zero line some -0.0
    imaginary parts).  So every kept value has the bits of the same 1-d
    transforms in rfftn.
    """
    d = box.ndim
    keep = np.r_[0:k, n - k + 1:n]
    box = box[None]     # a leading unit axis gives every line a leading index
    zero = np.zeros((1,) * (d + 1))     # constant along the axes still to go
    for axis in range(d, 0, -1):
        fft, cols = (np.fft.rfft, keep[:k]) if axis == d else (np.fft.fft, keep)
        fill = np.moveaxis(np.broadcast_to(zero, box.shape), axis, -1)[..., :1]
        nodes = (starts[axis - 1] + np.arange(box.shape[axis])) % n
        box = np.moveaxis(_fft_lines(np.moveaxis(box, axis, -1), fill, nodes, n, cols, fft),
                          -1, axis)
        if axis > 1:
            z = np.moveaxis(zero, axis, -1)
            zero = np.moveaxis(_fft_lines(z[..., :0], z, nodes[:0], n, cols, fft), -1, axis)
    return box[0]


def _check_budget(what: str, spans, n: int, k: int) -> None:
    """BudgetError, before anything is allocated, when a box of `spans` cells
    on the periodic n^d grid (float) or one stage of its `_rfft_box`
    transform at k (complex) takes more than BYTE_BUDGET bytes."""
    shape = [int(s) for s in spans]     # Python ints: no overflow
    largest = 8 * math.prod(shape)
    for axis in range(len(shape) - 1, -1, -1):
        shape[axis] = k if axis == len(shape) - 1 else 2 * k - 1
        largest = max(largest, 16 * math.prod(shape))
    if largest > BYTE_BUDGET:
        raise BudgetError(f"{what} box of {' x '.join(str(s) for s in spans)} cells on the "
                          f"{n}^{len(shape)} grid needs {largest} bytes, exceeds budget "
                          f"{BYTE_BUDGET}")


def _square_grid(axis: np.ndarray) -> np.ndarray:
    """The points (axis[i], axis[j]) in row-major (i, j) order, shape (m^2, 2)."""
    return np.stack([np.repeat(axis, len(axis)), np.tile(axis, len(axis))], axis=1)


def l2_norm(field: np.ndarray) -> float:
    """L2(dx) norm on the unit box."""
    return float(np.sqrt(np.mean(np.abs(field) ** 2)))


def sobolev_norm(field: np.ndarray, gamma: float) -> float:
    """H^gamma norm via the weight (1 + |xi|^2)^(gamma/2)."""
    field = np.asarray(field)
    hat = np.fft.fftn(field.astype(complex)) / field.size
    w = (1.0 + freq_norms(field.ndim, field.shape[0]) ** 2) ** (gamma / 2.0)
    return float(np.sqrt(np.sum((w * np.abs(hat)) ** 2)))


def random_band_limited(side_n: int, band: float, seed: int) -> np.ndarray:
    """Real unit-L2-norm side_n^2 field, flat random spectrum in |xi| <= band."""
    if side_n < 1:
        raise DomainError(f"side_n must be >= 1, got {side_n}")
    rng = rng_for(seed, 8)
    shape = (side_n, side_n)
    hat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    hat[freq_norms(2, side_n) > band] = 0.0
    field = np.real(np.fft.ifftn(hat) * side_n ** 2)
    return field / l2_norm(field)


# -- Littlewood-Paley partition ---------------------------------------------

@dataclass(frozen=True)
class LPPartition:
    """alpha_0 + sum_{j=1..j_max} alpha(2^-j xi) telescopes to 1.

    chi(r) steps from 1 (r <= 1) to 0 (r >= 2); alpha0(xi) = chi(|xi|/2) is
    supported in |xi| < 4 and the band profile alpha(xi) = chi(|xi|/2) -
    chi(|xi|) in the annulus 1 <= |xi| <= 4, inside the stated 1/2 <= |xi| <= 4.
    The sum equals chi(2^-(j_max+1) |xi|), identically 1 for |xi| <= 2^(j_max+1).
    """

    j_max: int

    @staticmethod
    def chi(r):
        return 1.0 - smooth_step(np.asarray(r, float) - 1.0)

    def alpha0(self, xi_norm):
        return self.chi(np.asarray(xi_norm, float) / 2.0)

    def alpha(self, xi_norm):
        r = np.asarray(xi_norm, float)
        return self.chi(r / 2.0) - self.chi(r)

    def band_profile(self, xi_norm, j: int):
        if not (0 <= j <= self.j_max):
            raise DomainError(f"band {j} outside 0..{self.j_max}")
        if j == 0:
            return self.alpha0(xi_norm)
        return self.alpha(np.asarray(xi_norm, float) / 2.0 ** j)

    def partition_sum(self, xi_norm):
        return sum(self.band_profile(xi_norm, j) for j in range(self.j_max + 1))


# -- sphere measure decay ----------------------------------------------------

class DecayFit(NamedTuple):
    slope: float
    shell_radii: np.ndarray
    shell_max: np.ndarray
    flagged: bool


SHELL_RADIUS = 0.25     # of the sphere about the box centre in `surface_measure_decay`


def rasterize_sphere_shell(d: int, side_n: int) -> np.ndarray:
    """Unit-mass thin shell of the sphere |x - 1/2| = SHELL_RADIUS (mass-exact).

    Cells are weighted by a tent profile across the 2-cell shell width; a
    hard indicator leaves lattice-quantization spikes that bias the decay
    maxima upward at high frequency.  The side_n^d raster is the one array
    of that size: every step after the sum of squares works in place.
    """
    h = 1.0 / side_n
    offsets = (np.arange(side_n) + 0.5) * h - 0.5
    mass = sum(g ** 2 for g in np.ix_(*[offsets] * d))
    np.sqrt(mass, out=mass)
    mass -= SHELL_RADIUS
    np.abs(mass, out=mass)
    mass /= h
    np.subtract(1.0, mass, out=mass)
    np.maximum(0.0, mass, out=mass)
    total = mass.sum()
    if total == 0:
        raise DomainError("shell missed every grid cell")
    mass /= total
    return mass


def surface_measure_decay(d: int, side_n: int) -> DecayFit:
    """Fourier decay of the sphere measure: per-dyadic-shell max and log slope.

    The fit runs over shells inside [8, side_n/4] for d = 2 and [4, side_n/4]
    for d = 3; a flagged result signals a grid too coarse for the stated
    range (side_n < 256 in d = 2, < 64 in d = 3).  The raster's transform is
    `_rfft_box` of the shell's own box at the frequencies the shells read; a
    raster past BYTE_BUDGET is a BudgetError before it is built.
    """
    if d not in (2, 3):
        raise DomainError("surface decay is implemented for d in {2, 3}")
    k = 2 ** _shell_top(side_n)
    _check_budget("decay", (side_n,) * d, side_n, k)
    fn, shells = _rfft_shells(d, side_n, 1)
    flagged = side_n < (256 if d == 2 else 64)
    mass = rasterize_sphere_shell(d, side_n)
    # only the box of the shell's nonzero cells is transformed
    nz = [np.flatnonzero(mass.any(axis=tuple(b for b in range(d) if b != a))) for a in range(d)]
    amag = np.abs(_rfft_box(mass[tuple(slice(i[0], i[-1] + 1) for i in nz)],
                            [i[0] for i in nz], side_n, k))
    radii, maxima = [], []
    for _, sel in shells:
        vals = amag[sel]
        j = int(np.argmax(vals))
        # abscissa = frequency where the max is attained: the extremum drifts
        # inside the shell, and pinning it to the shell midpoint biases slopes
        radii.append(float(fn[sel][j]))
        maxima.append(float(vals[j]))
    radii, maxima = np.array(radii), np.array(maxima)
    mids = np.array([mid for mid, _ in shells])
    r_lo = 8.0 if d == 2 else 4.0
    keep = (mids >= r_lo) & (mids <= side_n / 4)
    if keep.sum() < 2:
        keep = mids >= 1.0
        flagged = True
    slope, _ = np.polyfit(np.log(radii[keep]), np.log(maxima[keep]), 1)
    return DecayFit(float(slope), radii, maxima, flagged)


# -- fractal energy integral -------------------------------------------------

def riesz_constant(gamma: float, d: int) -> float:
    """c with int |g lambda^|^2 |xi|^-gamma = c * II |x-y|^(gamma-d) g g dl dl."""
    return np.pi ** (gamma - d / 2.0) * math.gamma((d - gamma) / 2.0) / math.gamma(gamma / 2.0)


class EnergyResult(NamedTuple):
    fourier_value: float
    kernel_value: float
    shell_radii: np.ndarray
    shell_increments: np.ndarray


# energy deposit: a PAD-times-wider grid (PAD a power of two), bumps SIGMA_CELLS cells wide
PAD = 4
SIGMA_CELLS = 1.0


def _atom_box(points: np.ndarray, side_n: int):
    """(starts, spans) of the smallest box of cells that `deposit_gaussian`'s
    windows touch: per axis, from the lowest window node to the highest, or
    the whole axis from 0 when that reaches the PAD side_n nodes."""
    h, n_grid = 1.0 / side_n, PAD * side_n
    reach = int(math.ceil(5.0 * SIGMA_CELLS))
    lo = np.floor(points.min(axis=0) / h).astype(int) - reach
    spans = np.floor(points.max(axis=0) / h).astype(int) + reach + 1 - lo
    whole = spans >= n_grid
    return np.where(whole, 0, lo), np.where(whole, n_grid, spans)


def deposit_gaussian(points: np.ndarray, masses: np.ndarray, side_n: int):
    """(box, starts): mass per cell of the atoms deposited as unit-mass
    Gaussian bumps on the periodic grid of (PAD side_n)^d cells of side h =
    1/side_n, node i at i h, kept on the `_atom_box` the bumps touch; box
    cell j is grid node (starts + j) mod PAD side_n, and every node outside
    the box holds 0.

    Each atom p puts the tensor product of exp(-(node - p_j)^2 / 2 sigma^2),
    sigma = SIGMA_CELLS h, on the 2 reach + 1 nodes around its cell on every
    axis, reach = ceil(5 SIGMA_CELLS), scaled to sum to the atom's mass;
    each of the `row_blocks` of atoms is scattered by one unbuffered
    `np.add.at`, so a window that wraps onto itself adds every repeat.
    """
    h = 1.0 / side_n
    sigma = SIGMA_CELLS * h
    n_grid = PAD * side_n
    reach = int(math.ceil(5.0 * SIGMA_CELLS))
    offsets = np.arange(-reach, reach + 1)
    n, d = points.shape
    starts, spans = _atom_box(points, side_n)
    shape = tuple(int(s) for s in spans)
    dens = np.zeros(math.prod(shape))
    for sl in row_blocks(n, len(offsets) ** d):
        p = points[sl]
        idx = np.floor(p / h).astype(int)[:, :, None] + offsets      # (atoms, d, window)
        vals = np.exp(-0.5 * ((idx * h - p[:, :, None]) / sigma) ** 2)
        block, flat = _tensor_block(list((idx - starts[:, None]).transpose(1, 0, 2) % n_grid),
                                    list(vals.transpose(1, 0, 2)), shape)
        block *= (masses[sl] / block.sum(axis=1))[:, None]
        np.add.at(dens, flat, block.ravel())
    return dens.reshape(shape), starts


# |xi| < 1 of the energy integral: Gauss-Legendre nodes in v = |xi|^2, and
# directions on half of S^(d-1) (32 angles in d = 2, 16 cos(theta) x 32 phi
# in d = 3), exact to about 1e-13 for atoms in the unit box
CENTER_NODES = 20


def _sphere_directions(d: int):
    """Directions on half of S^(d-1) and weights that integrate an even
    function over the whole sphere: the point 1 (weight 2) in d = 1, a
    half-circle trapezoid in d = 2, Gauss-Legendre in cos(theta) on [0, 1]
    times a trapezoid in phi in d = 3."""
    if d == 1:
        return np.ones((1, 1)), np.array([2.0])
    if d == 2:
        th = (np.arange(32) + 0.5) * (np.pi / 32)
        return np.stack([np.cos(th), np.sin(th)], axis=1), np.full(32, np.pi / 16)
    if d == 3:
        ct, cw = np.polynomial.legendre.leggauss(16)
        ct = (ct + 1.0) / 2.0
        st, ph = np.sqrt(1.0 - ct ** 2), np.arange(32) * (np.pi / 16)
        dirs = np.stack([np.outer(st, np.cos(ph)), np.outer(st, np.sin(ph)),
                         np.repeat(ct[:, None], 32, axis=1)], axis=-1)
        return dirs.reshape(-1, 3), np.repeat(cw * (np.pi / 16), 32)
    raise DomainError(f"the energy centre is implemented for d in 1..3, got d = {d}")


def _center_energy(points, masses, gammas) -> list:
    """int_{|xi| < 1} |g lambda^(xi)|^2 |xi|^-gamma dxi for each gamma, from
    one pass over the atoms (d = 1..3, else DomainError).

    In v = |xi|^2 the centre is 1/2 int_0^1 A(sqrt v) v^a dv, a = (d - 2 -
    gamma)/2, where A(r), the sphere integral of |g lambda^|^2 at radius r,
    is smooth in v.  A is taken at fixed Gauss-Legendre nodes in v, as exact
    cosine and sine atom sums over blocks of frequencies (real masses make
    |g lambda^|^2 even, so half the sphere's directions suffice), and
    expanded in Legendre polynomials; each term integrates in closed form,
    int_0^1 P_k(2v - 1) v^a dv = prod_{j<k} (a - j) / prod_{j=1..k+1} (a + j).
    """
    d = points.shape[1]
    dirs, dw = _sphere_directions(d)
    x, w = np.polynomial.legendre.leggauss(CENTER_NODES)
    xi = (np.sqrt((x + 1.0) / 2.0)[:, None, None] * dirs).reshape(-1, d)
    power = np.empty(len(xi))
    for sl in row_blocks(len(xi), len(points)):
        ph = (xi[sl] @ points.T) * (2.0 * np.pi)
        re = np.cos(ph) @ masses
        power[sl] = re ** 2 + (np.sin(ph, out=ph) @ masses) ** 2
    sphere = power.reshape(CENTER_NODES, len(dw)) @ dw
    k = np.arange(CENTER_NODES)
    coef = (k + 0.5) * (np.polynomial.legendre.legvander(x, CENTER_NODES - 1).T @ (w * sphere))
    centres = []
    for a in (d - 2.0 - np.asarray(gammas, float)) / 2.0:
        moments = np.cumprod(np.append(1.0, a - k[:-1])) / np.cumprod(a + k + 1.0)
        # one 1-d product per gamma, so a stack rounds as its scalar calls do
        centres.append(0.5 * float(coef @ moments))
    return centres


def _riesz_row_sums(points: np.ndarray, weights: np.ndarray, gamma) -> np.ndarray:
    """sum_j w_j |x_i - x_j|^(gamma - d) over the atoms j at positive distance
    from x_i; a 1-d array of gammas gives one row of sums per gamma from one
    pass over the distances.  The distances are symmetric to the bit, as
    (a - b)^2 = (b - a)^2, so the pass covers one triangle: each `row_blocks`
    block meets only the columns from its own start on, adds K w to its own
    rows and w^T K, over the columns past the block, to the later rows."""
    expo = np.atleast_1d(np.asarray(gamma, float)) - points.shape[1]
    n = len(points)
    sums = np.zeros((len(expo), n))
    for sl in row_blocks(n, n):
        dist = _norm(points[sl, None], points[None, sl.start:], np.subtract)
        # zero distances (diagonal, coincident atoms) drop out: inf^(gamma - d) = 0, gamma < d
        dist[dist == 0.0] = np.inf
        kern = np.empty_like(dist)
        for row, e in zip(sums, expo):
            np.power(dist, e, out=kern)
            row[sl] += kern @ weights[sl.start:]
            row[sl.stop:] += weights[sl] @ kern[:, sl.stop - sl.start:]
    return sums.reshape(np.shape(gamma) + (n,))


def energy_integral(lam: FrostmanMeasure, gamma, side_n: int, g_values=None):
    """Truncated energy int_{|xi|<=side_n/4} |g lambda^|^2 |xi|^-gamma, two ways.

    Fourier side: the centre |xi| < 1, where the |xi|^-gamma singularity
    defeats a lattice Riemann sum, from `_center_energy`; beyond it, atoms
    deposited as Gaussian bumps on a PAD-times-wider periodic grid (frequency
    spacing 1/PAD) and kept on the box they touch, transformed by
    `_rfft_box` at the frequencies the shells read, deconvolved by the exact
    Gaussian factor, and summed with the Riemann weight.  A box or spectrum
    past BYTE_BUDGET is a BudgetError before either is built.  Kernel side:
    the Riesz-constant-weighted double sum over distinct atoms.  Dyadic
    shell increments of the Fourier sum are returned for the convergence
    diagnostics.  d = 1..3.  A scalar gamma gives one EnergyResult; a 1-d
    array of gammas gives a list of them, sharing the centre pass, the
    deposit, the transform, the shell masks and one pass over the atom-pair
    distances.
    """
    gammas = np.atleast_1d(np.asarray(gamma, float))
    if gammas.ndim != 1 or len(gammas) == 0:
        raise DomainError(f"gamma must be a scalar or a nonempty 1-d array, got {gamma!r}")
    for gm in gammas:
        if not (0.0 < gm < lam.d):
            raise DomainError(f"gamma {gm} outside (0, {lam.d})")
    d = lam.d
    g = np.ones(len(lam)) if g_values is None else np.asarray(g_values, float)
    masses = lam.weights * g
    # the centre comes first: it rejects d >= 4 before a grid box is sized
    centres = _center_energy(lam.points, masses, gammas)
    k = PAD * 2 ** _shell_top(side_n)
    _check_budget("energy", _atom_box(lam.points, side_n)[1], PAD * side_n, k)
    fn, shells = _rfft_shells(d, side_n, PAD)
    power = np.abs(_rfft_box(*deposit_gaussian(lam.points, masses, side_n), PAD * side_n, k))
    decon = fn ** 2
    decon *= 2.0 * np.pi ** 2 * (SIGMA_CELLS / side_n) ** 2
    power *= np.exp(decon, out=decon)
    power **= 2
    # rfft stores half the spectrum: double every kept column but 0 (the
    # Nyquist column, PAD side_n / 2, lies past the shells)
    power[..., 1:] *= 2.0
    radii = np.array([mid for mid, _ in shells])
    shells = [(power[sel], fn[sel]) for _, sel in shells]
    del fn, power, decon
    cell = (1.0 / PAD) ** d
    results = []
    for gm, centre, row_sums in zip(gammas, centres, _riesz_row_sums(lam.points, masses, gammas)):
        incs = [float((p * f ** (-gm)).sum() * cell) for p, f in shells]
        results.append(EnergyResult(centre + float(np.sum(incs)),
                                    riesz_constant(gm, d) * float(masses @ row_sums),
                                    radii.copy(), np.array(incs)))
    return results[0] if np.ndim(gamma) == 0 else results


def shell_profile_verdict(increments) -> str:
    """Classify a shell-increment profile: "growing" when last/first >= 2,
    else "converging" when the last two shells have ratio <= 1.05."""
    inc = np.asarray(increments, float)
    if len(inc) < 3:
        raise DomainError("need at least three shells")
    if inc[-1] / inc[0] >= 2.0:
        return "growing"
    if inc[-1] / inc[-2] <= 1.05:
        return "converging"
    return "undecided"


# -- generalized Radon transform ----------------------------------------------

def radon_apply_stack(phi, psi, eps: float, t: float, fields) -> list:
    """T_eps,t f(x) = eps^-1 int rho((t - phi(x,y))/eps) f(y) psi(x,y) dy by
    quadrature over the grid in y for each x (d = 2), for several fields at
    once (the kernel is field-independent, so one kernel serves them all).

    Without psi, a phase of x - y alone (euclidean, flat_torus) makes T a
    convolution: its kernel is tabulated once on the grid offsets and applied
    by FFT, zero-padded to 2n per axis for euclidean and periodic for
    flat_torus.  Other phases and psi-weighted calls use `_radon_direct`.
    """
    fields = [np.asarray(f) for f in fields]
    if not fields:
        raise DomainError("radon_apply_stack needs at least one field")
    n = fields[0].shape[0]
    for f in fields:
        if f.ndim != 2 or f.shape != (n, n):
            raise DomainError("radon_apply_stack expects square d=2 fields of one size")
    if eps < 2.0 / n:
        # 2/side_n puts >= 8 grid nodes across the mollifier support, the
        # coarsest the y-quadrature stays trustworthy
        raise ResolutionError(f"eps {eps} below the resolvable 2/side_n = {2.0 / n}")
    if psi is not None or phi.kind not in ("euclidean", "flat_torus"):
        return _radon_direct(phi, psi, eps, t, fields)
    h = 1.0 / n
    # kernel at offsets i - j of x = i h from y = j h: periodic on the torus,
    # else padded to 2n so that the circular convolution is the linear one
    if phi.kind == "flat_torus":
        k, size = np.arange(n), n
    else:
        k, size = np.arange(1 - n, n), 2 * n
    dist = np.asarray(phi.value(_square_grid(k * h), np.zeros(2))).reshape(len(k), len(k))
    kern = np.zeros((size, size))
    kern[np.ix_(k % size, k % size)] = Mollifier(eps)(t - dist) * h ** 2
    stack = np.stack(fields)
    if np.iscomplexobj(stack):
        out = np.fft.ifft2(np.fft.fft2(stack, s=kern.shape) * np.fft.fft2(kern))
    else:
        out = np.fft.irfft2(np.fft.rfft2(stack, s=kern.shape) * np.fft.rfft2(kern),
                            s=kern.shape)
    return list(out[:, :n, :n])


def _radon_direct(phi, psi, eps: float, t: float, fields) -> list:
    """T_eps,t by direct quadrature over the (n^2 x n^2) pair matrix."""
    n = fields[0].shape[0]
    h = 1.0 / n
    pts = _square_grid(np.arange(n) * h)
    phi.check_domain(pts, pts)
    any_complex = any(np.iscomplexobj(f) for f in fields)
    fmat = np.stack([f.ravel() for f in fields], axis=1)
    if not any_complex:
        fmat = fmat.real.astype(float)
    moll = Mollifier(eps)
    out = np.zeros((n * n, len(fields)), dtype=complex if any_complex else float)
    for sl in row_blocks(n * n, n * n):
        kern = moll(t - pairwise_value(phi, pts[sl], pts))
        if psi is not None:
            kern = kern * np.asarray(psi(pts[sl][:, None, :], pts[None, :, :]))
        out[sl] = kern @ fmat * h ** 2
    return [out[:, i].reshape(n, n) for i in range(len(fields))]


class SobolevRatioRow(NamedTuple):
    eps: float
    field_index: int
    ratio: float


def radon_sobolev_ratio(phi, psi, t: float, eps_list, fields, gamma: float = 0.5):
    """Table of ||T_eps f||_{H^gamma} / ||f||_{L2} and per-field max/min.

    Returns (rows, summary) where summary maps field_index to the max/min
    ratio across eps -- the epsilon-uniformity diagnostic.  A ratio of 0 (T_eps
    f vanishes, as when phi stays 2 eps or more away from t on every grid
    pair) is a DomainError naming t.
    """
    rows = []
    for eps in eps_list:
        transformed = radon_apply_stack(phi, psi, float(eps), t, list(fields))
        for fi, (f, tf) in enumerate(zip(fields, transformed)):
            ratio = sobolev_norm(tf, gamma) / l2_norm(f)
            if ratio == 0.0:
                raise DomainError(f"t = {t}: T_eps f vanishes at eps = {eps} (field {fi}), "
                                  "so the eps-uniformity ratio is undefined")
            rows.append(SobolevRatioRow(float(eps), fi, ratio))
    summary = {}
    for fi in range(len(fields)):
        vals = [r.ratio for r in rows if r.field_index == fi]
        summary[fi] = max(vals) / min(vals)
    return rows, summary


# -- oscillatory integral -----------------------------------------------------

def oscillatory_G(phi, psi, s, xi, zeta, t: float = 0.0, quad_n: int = 48):
    """Tensor Gauss-Legendre quadrature over the unit box of the
    separated-frequency integral

        G(s, xi, zeta) = II exp(2 pi i ((phi(x,y) - t) s + y.zeta - x.xi))
                            psi(x, y) dx dy        (d = 2 only)

    for one triple (s scalar, xi and zeta of shape (2,)) or m stacked ones (s,
    xi, zeta of shapes (m,), (m, 2), (m, 2); m values).  G = sum_x u_x (K_s v)_x
    with u = w e^(-2 pi i x.xi), v = w e^(2 pi i y.zeta), K_s = psi e^(2 pi i s
    (phi - t)).  A first blocked pass of psi keeps the x nodes whose psi row
    is not identically zero and the y nodes whose psi column is not (every
    node without psi); the sum runs over kept rows x kept columns only.  Per
    block of kept x rows (`row_blocks`), 2 pi (phi - t) and psi are
    tabulated once; per distinct s, psi cos and psi sin take one GEMM each
    with v's stacked real and imaginary columns.  DomainError for
    other shapes, a quad_n outside the integers 1..64 or a non-finite input;
    a ResolutionWarning for each triple with a frequency
    beyond quad_n/4 (its value is quadrature-limited).
    """
    single = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, float))
    xi, zeta = np.atleast_2d(np.asarray(xi, float)), np.atleast_2d(np.asarray(zeta, float))
    if s.ndim != 1 or xi.shape != (len(s), 2) or zeta.shape != (len(s), 2):
        raise DomainError("oscillatory_G supports d = 2 only, with equal stacked lengths; "
                          f"got s {s.shape}, xi {xi.shape}, zeta {zeta.shape}")
    if not isinstance(quad_n, (int, np.integer)) or not 1 <= quad_n <= 64:
        raise DomainError(f"quad_n must be an integer in 1..64, got {quad_n!r}")
    if not np.isfinite(np.concatenate([s, xi.ravel(), zeta.ravel(), [t]])).all():
        raise DomainError("oscillatory_G needs finite s, xi, zeta and t")
    tops = np.maximum(np.abs(np.hstack([xi, zeta])).max(axis=1), np.abs(s))
    for top in tops[tops > quad_n / 4.0]:
        warnings.warn(f"frequency {top} beyond quad_n/4 = {quad_n / 4}; "
                      "result is quadrature-limited", ResolutionWarning, stacklevel=2)
    gn, gw = np.polynomial.legendre.leggauss(quad_n)
    nodes, wts = 0.5 + 0.5 * gn, 0.5 * gw
    pts = _square_grid(nodes)
    phi.check_domain(pts, pts)
    w2 = np.outer(wts, wts).ravel()
    keep_x = keep_y = slice(None)
    if psi is not None:
        # pairs where psi vanishes add nothing: drop its all-zero rows and columns
        keep_x, keep_y = np.zeros(len(pts), bool), np.zeros(len(pts), bool)
        for sl in row_blocks(len(pts), len(pts)):
            nz = np.broadcast_to(np.asarray(psi(pts[sl, None, :], pts[None, :, :])),
                                 (sl.stop - sl.start, len(pts))) != 0
            keep_x[sl] = nz.any(axis=1)
            keep_y |= nz.any(axis=0)
    px, py = pts[keep_x], pts[keep_y]
    u = w2[keep_x, None] * np.exp(-2j * np.pi * (px @ xi.T))
    v = w2[keep_y, None] * np.exp(2j * np.pi * (py @ zeta.T))
    groups = [np.flatnonzero(s == sv) for sv in np.unique(s)]
    acc = np.zeros(len(s), complex)
    for sl in row_blocks(len(px), len(py)):
        x, y = px[sl, None, :], py[None, :, :]
        phase = (np.asarray(phi.value(x, y)) - t) * (2.0 * np.pi)
        ps = 1.0 if psi is None else np.asarray(psi(x, y))
        for idx in groups:
            arg, k = phase * s[idx[0]], len(idx)
            vc = np.hstack([v[:, idx].real, v[:, idx].imag])
            a, b = (np.cos(arg) * ps) @ vc, (np.sin(arg, out=arg) * ps) @ vc
            kv = (a[:, :k] - b[:, k:]) + 1j * (a[:, k:] + b[:, :k])
            acc[idx] += (u[sl, idx] * kv).sum(axis=0)
    return complex(acc[0]) if single else acc
