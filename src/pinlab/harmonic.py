"""Desk-scale checks of the harmonic-analysis inputs.

Covers the dyadic frequency partition, sphere-measure Fourier decay, the
fractal energy integral in both Fourier and kernel form (with the classical
Riesz-kernel constant), the Schur-test kernel bound, the mollified averaging
operator with its Sobolev ratios, and the separated-frequency oscillatory
integral.

Grid conventions: fields live on [0,1)^d sampled at idx/n, treated
periodically; `hat` returns Fourier coefficients (forward FFT / n^d), so
discrete Parseval reads mean |f|^2 = sum |f_hat|^2.  Measure arrays (mass per
cell) transform without normalization, so the zero mode is the total mass.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ResolutionError
from .fractals import FrostmanMeasure
from .phases import _norm, pairwise_value
from .pinned import DEPOSIT_BLOCK, Mollifier, _periodic_deposit
from .profiles import smooth_step
from .rng import rng_for


class ResolutionWarning(UserWarning):
    """A requested frequency is beyond what the quadrature resolves."""


# -- spectral grid ----------------------------------------------------------

@dataclass
class SpectralGrid:
    """Complex field on the periodic grid idx/side_n in [0,1)^d."""

    dimension_d: int
    side_n: int
    values: np.ndarray

    @classmethod
    def from_values(cls, values: np.ndarray) -> "SpectralGrid":
        values = np.asarray(values)
        return cls(values.ndim, values.shape[0], values.astype(complex))

    def hat(self) -> np.ndarray:
        return np.fft.fftn(self.values) / self.side_n ** self.dimension_d

    @classmethod
    def from_hat(cls, hat: np.ndarray) -> "SpectralGrid":
        n = hat.shape[0]
        vals = np.fft.ifftn(hat) * n ** hat.ndim
        return cls(hat.ndim, n, vals)

    def roundtrip_error(self) -> float:
        back = SpectralGrid.from_hat(self.hat()).values
        scale = max(float(np.abs(self.values).max()), 1e-300)
        return float(np.abs(back - self.values).max()) / scale

    def parseval_error(self) -> float:
        phys = float(np.mean(np.abs(self.values) ** 2))
        spec = float(np.sum(np.abs(self.hat()) ** 2))
        return abs(phys - spec) / max(phys, 1e-300)


def freq_norms(d: int, side_n: int) -> np.ndarray:
    """|xi| at every integer frequency of the periodic grid of side_n^d nodes,
    in FFT order."""
    axes = [np.fft.fftfreq(side_n) * side_n] * d
    grids = np.meshgrid(*axes, indexing="ij")
    return np.sqrt(sum(g ** 2 for g in grids))


def l2_norm(field: np.ndarray) -> float:
    """L2(dx) norm on the unit box."""
    return float(np.sqrt(np.mean(np.abs(field) ** 2)))


def sobolev_norm(field: np.ndarray, gamma: float) -> float:
    """H^gamma norm via the weight (1 + |xi|^2)^(gamma/2)."""
    g = SpectralGrid.from_values(field)
    w = (1.0 + freq_norms(g.dimension_d, g.side_n) ** 2) ** (gamma / 2.0)
    return float(np.sqrt(np.sum((w * np.abs(g.hat())) ** 2)))


def random_band_limited(side_n: int, band: float, seed: int, d: int = 2) -> np.ndarray:
    """Real unit-L2-norm field with flat random spectrum supported in |xi| <= band."""
    rng = rng_for(seed, 8)
    shape = (side_n,) * d
    hat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    hat[freq_norms(d, side_n) > band] = 0.0
    field = np.real(np.fft.ifftn(hat) * side_n ** d)
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
        total = self.alpha0(xi_norm)
        for j in range(1, self.j_max + 1):
            total = total + self.alpha(np.asarray(xi_norm, float) / 2.0 ** j)
        return total


def lp_project(field: np.ndarray, partition: LPPartition, j: int) -> np.ndarray:
    """Frequency-side multiplier application of band j (0 = low band)."""
    g = SpectralGrid.from_values(field)
    mult = partition.band_profile(freq_norms(g.dimension_d, g.side_n), j)
    out = np.fft.ifftn(mult * np.fft.fftn(g.values))
    if np.isrealobj(field):
        return np.real(out)
    return out


# -- sphere measure decay ----------------------------------------------------

class DecayFit(NamedTuple):
    slope: float
    shell_radii: np.ndarray
    shell_max: np.ndarray
    flagged: bool


def rasterize_sphere_shell(d: int, side_n: int, radius: float = 0.25) -> np.ndarray:
    """Unit-mass thin spherical shell on the grid (mass-exact normalization).

    Cells are weighted by a tent profile across the 2-cell shell width; a
    hard indicator leaves lattice-quantization spikes that bias the decay
    maxima upward at high frequency.
    """
    h = 1.0 / side_n
    axes = [(np.arange(side_n) + 0.5) * h] * d
    grids = np.meshgrid(*axes, indexing="ij")
    r = np.sqrt(sum((g - 0.5) ** 2 for g in grids))
    mass = np.maximum(0.0, 1.0 - np.abs(r - radius) / h)
    total = mass.sum()
    if total == 0:
        raise DomainError("shell missed every grid cell")
    return mass / total


def surface_measure_decay(d: int, side_n: int, radius: float = 0.25) -> DecayFit:
    """Fourier decay of the sphere measure: per-dyadic-shell max and log slope.

    The fit runs over shells inside [8, side_n/4] for d = 2 and [4, side_n/4]
    for d = 3; a flagged result signals a grid too coarse for the stated
    range (side_n < 256 in d = 2, < 64 in d = 3).
    """
    if d not in (2, 3):
        raise DomainError("surface decay is implemented for d in {2, 3}")
    flagged = side_n < (256 if d == 2 else 64)
    mass = rasterize_sphere_shell(d, side_n, radius)
    hat = np.fft.rfftn(mass)
    # frequency norms for the rfft layout
    axes = [np.fft.fftfreq(side_n) * side_n] * (d - 1) + [np.arange(side_n // 2 + 1).astype(float)]
    grids = np.meshgrid(*axes, indexing="ij")
    fn = np.sqrt(sum(g ** 2 for g in grids))
    m_hi = int(math.floor(math.log2(side_n / 4)))
    radii, maxima, mids = [], [], []
    amag = np.abs(hat)
    for m in range(0, m_hi):
        lo, hi = 2.0 ** m, 2.0 ** (m + 1)
        sel = (fn >= lo) & (fn < hi)
        if not np.any(sel):
            continue
        vals = amag[sel]
        k = int(np.argmax(vals))
        # abscissa = frequency where the max is attained: the extremum drifts
        # inside the shell, and pinning it to the shell midpoint biases slopes
        radii.append(float(fn[sel][k]))
        maxima.append(float(vals[k]))
        mids.append(math.sqrt(lo * hi))
    radii = np.array(radii)
    maxima = np.array(maxima)
    mids = np.array(mids)
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


def deposit_gaussian(points: np.ndarray, masses: np.ndarray, side_n: int,
                     pad: int = 4, sigma_cells: float = 1.0) -> np.ndarray:
    """Deposit atoms on the pad*side_n grid (cell 1/side_n) as unit-mass
    Gaussian bumps, each a tensor product on its window of wrapped nodes."""
    h = 1.0 / side_n
    sigma = sigma_cells * h
    return _periodic_deposit(points, masses, h, pad * side_n, int(math.ceil(5.0 * sigma_cells)),
                             0, lambda u: np.exp(-0.5 * (u / sigma) ** 2))


def _center_energy_exact(points, masses, gamma: float, r0: float = 1.0,
                         n_rad: int = 48, n_ang: int = 128) -> float:
    """int_{|xi| < r0} |g lambda^(xi)|^2 |xi|^-gamma dxi by polar quadrature.

    The transform is evaluated exactly as an atom sum; the radial weight
    r^(1-gamma) is absorbed by the substitution u = r^(2-gamma).  Real masses
    make the power even in xi, so only the angles in [0, pi) are evaluated, as
    cosine and sine sums over blocks of frequencies, and their sum is doubled.
    """
    assert n_ang % 2 == 0
    p = 2.0 - gamma
    gn, gw = np.polynomial.legendre.leggauss(n_rad)
    u = (gn + 1.0) / 2.0 * r0 ** p
    wu = gw / 2.0 * r0 ** p
    r = u ** (1.0 / p)
    th = (np.arange(n_ang // 2) + 0.5) * (2.0 * np.pi / n_ang)
    xi_flat = np.stack([np.outer(r, np.cos(th)), np.outer(r, np.sin(th))], axis=-1).reshape(-1, 2)
    power = np.empty(len(xi_flat))
    rows = max(1, DEPOSIT_BLOCK // max(len(points), 1))
    for i0 in range(0, len(xi_flat), rows):
        ph = (xi_flat[i0:i0 + rows] @ points.T) * (2.0 * np.pi)
        re = np.cos(ph) @ masses
        power[i0:i0 + rows] = re ** 2 + (np.sin(ph, out=ph) @ masses) ** 2
    ang_int = power.reshape(len(r), n_ang // 2).sum(axis=1) * (4.0 * np.pi / n_ang)
    return float((wu * ang_int).sum() / p)


def _row_sums(points: np.ndarray, block_sums) -> np.ndarray:
    """block_sums(dist, i0), one value (or a stack of them) per row, over
    blocks of at most `DEPOSIT_BLOCK` distances from points[i0:i1] to every
    point, joined along the last axis; block_sums may overwrite dist.  Squares
    add in coordinate order, as in scipy's cdist: a GEMM expansion would blur
    the dyadic distances `schur_dyadic_majorant` reads from the exponent."""
    rows = max(1, DEPOSIT_BLOCK // len(points))
    return np.concatenate([
        block_sums(_norm(points[i0:i0 + rows, None], points[None], np.subtract), i0)
        for i0 in range(0, len(points), rows)], axis=-1)


def _riesz_row_sums(points: np.ndarray, weights: np.ndarray, gamma) -> np.ndarray:
    """sum_j w_j |x_i - x_j|^(gamma - d) over the atoms j at positive distance
    from x_i; a 1-d array of gammas gives one row of sums per gamma from one
    pass over the distances."""
    expo = np.atleast_1d(np.asarray(gamma, float)) - points.shape[1]

    def block_sums(dist, _):
        # zero distances (diagonal, coincident atoms) drop out: inf^(gamma - d) = 0, gamma < d
        dist[dist == 0.0] = np.inf
        buf = np.empty_like(dist)
        return np.stack([np.power(dist, e, out=buf) @ weights for e in expo])

    return _row_sums(points, block_sums).reshape(np.shape(gamma) + (len(points),))


def energy_integral(lam: FrostmanMeasure, gamma, side_n: int,
                    g_values=None, pad: int = 4, sigma_cells: float = 1.0):
    """Truncated energy int_{|xi|<=side_n/4} |g lambda^|^2 |xi|^-gamma, two ways.

    Fourier side: atoms deposited as Gaussian bumps on a pad-times-wider
    periodic grid (frequency spacing 1/pad), transformed, deconvolved by the
    exact Gaussian factor, and summed with the Riemann weight.  Kernel side:
    the Riesz-constant-weighted double sum over distinct atoms.  Dyadic shell
    increments of the Fourier sum are returned for the convergence
    diagnostics.  A scalar gamma gives one EnergyResult; a 1-d array of
    gammas gives a list of them, sharing the deposit, the transform, the
    shell masks and one pass over the atom-pair distances.
    """
    gammas = np.atleast_1d(np.asarray(gamma, float))
    if gammas.ndim != 1 or len(gammas) == 0:
        raise DomainError(f"gamma must be a scalar or a nonempty 1-d array, got {gamma!r}")
    for gm in gammas:
        if not (0.0 < gm < lam.d):
            raise DomainError(f"gamma {gm} outside (0, {lam.d})")
    if side_n < 16:
        raise ResolutionError(f"side_n {side_n} gives fewer than two shells; need side_n >= 16")
    d = lam.d
    g = np.ones(len(lam)) if g_values is None else np.asarray(g_values, float)
    masses = lam.weights * g
    dens = deposit_gaussian(lam.points, masses, side_n, pad, sigma_cells)
    hat = np.fft.rfftn(dens)
    n_tot = pad * side_n
    axes = [np.fft.fftfreq(n_tot) * n_tot / pad] * (d - 1) + \
           [np.arange(n_tot // 2 + 1) / pad]
    grids = np.meshgrid(*axes, indexing="ij")
    fn = np.sqrt(sum(x ** 2 for x in grids))
    sigma = sigma_cells / side_n
    decon = np.exp((2.0 * np.pi ** 2 * sigma ** 2) * fn ** 2)
    # rfft stores half the spectrum; double all columns but 0 and an even n_tot's Nyquist
    dup = np.full(hat.shape[-1], 2.0)
    dup[[0, -1] if n_tot % 2 == 0 else 0] = 1.0
    power = (np.abs(hat) * decon) ** 2 * dup
    cell = (1.0 / pad) ** d
    radii, shells = [], []
    for m in range(0, int(math.floor(math.log2(side_n / 4.0)))):
        lo, hi = 2.0 ** m, 2.0 ** (m + 1)
        sel = (fn >= lo) & (fn < hi)
        radii.append(math.sqrt(lo * hi))
        shells.append((power[sel], fn[sel]))
    results = []
    for gm, row_sums in zip(gammas, _riesz_row_sums(lam.points, masses, gammas)):
        incs = [float((p * f ** (-gm)).sum() * cell) for p, f in shells]
        # |xi| < 1: the |xi|^-gamma singularity defeats the lattice Riemann sum;
        # integrate it exactly from direct atom sums in polar coordinates (d = 2),
        # falling back to a smooth quadratic-in-radius model otherwise
        if d == 2:
            low_part = _center_energy_exact(lam.points, masses, gm)
        else:
            amp_zero = float(power.flat[0])
            ring = (fn >= 0.75) & (fn < 1.25)
            ring_mean = float(power[ring].mean()) if np.any(ring) else amp_zero
            b_coef = ring_mean - amp_zero
            low_part = 4.0 * np.pi * (amp_zero / (3.0 - gm) + b_coef / (5.0 - gm))
        results.append(EnergyResult(low_part + float(np.sum(incs)),
                                    riesz_constant(gm, d) * float(masses @ row_sums),
                                    np.array(radii), np.array(incs)))
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


# -- Schur test ---------------------------------------------------------------

def schur_kernel_sup(lam: FrostmanMeasure, gamma: float) -> float:
    """sup over atoms x of sum_{y != x} w_y |x - y|^(gamma - d)."""
    if not (0.0 < gamma < lam.d):
        raise DomainError(f"gamma {gamma} outside (0, {lam.d})")
    return float(_riesz_row_sums(lam.points, lam.weights, gamma).max())


def schur_dyadic_majorant(lam: FrostmanMeasure, gamma: float) -> float:
    """sup over atoms of sum_j 2^((j+1)(d-gamma)) lambda(B(x, 2^-j)).

    Shell-by-shell domination of the direct kernel sum: on the shell
    2^-(j+1) <= |x-y| <= 2^-j the kernel is at most 2^((j+1)(d-gamma)).
    The balls exclude x itself, and the shells run from j = 0 to
    ceil(-log2 r_min) + 1 for the distance r_min from x to its nearest other
    atom (floored at 1e-300, so coincident atoms stop at j = 998).  Atom y
    thus adds w_y times the partial sum of the shell weights up to
    J = max{j : |x - y| <= 2^-j}, read exactly from the binary exponent of
    |x - y|.  A sum of shell weights past the float range (coincident atoms
    with d - gamma above about 1) raises DomainError naming the two atoms.
    """
    d = lam.d

    def shell_sums(dist, i0):
        self_pairs = (np.arange(len(dist)), i0 + np.arange(len(dist)))
        dist[self_pairs] = np.inf
        gap = dist.min(axis=1)
        gap[np.isinf(gap)] = 1.0            # a lone atom
        j_stop = np.array([max(0, math.ceil(-math.log2(max(g, 1e-300)))) + 1
                           for g in gap], dtype=np.int32)[:, None]
        # |x - y| = f 2^e with f in [0.5, 1) is within 2^-j for j <= -e, and
        # for j = 1 - e too when f = 0.5; beyond distance 1 no ball holds y
        mant, shell = np.frexp(dist)
        np.negative(shell, out=shell)
        shell += mant == 0.5
        np.minimum(shell, j_stop, out=shell)
        np.copyto(shell, j_stop, where=dist == 0.0)
        shell[self_pairs] = -1
        np.maximum(shell, -1, out=shell)
        top = int(j_stop.max())
        try:
            with np.errstate(over="ignore"):
                sums = np.cumsum([2.0 ** ((j + 1) * (d - gamma)) for j in range(top + 1)])
        except OverflowError:
            sums = np.array([np.inf])
        if not np.isfinite(sums[-1]):
            i = int(np.argmax(j_stop))
            near = "coincide" if gap[i] == 0.0 else f"lie {gap[i]:.3g} apart"
            raise DomainError(f"atoms {i0 + i} and {int(np.argmin(dist[i]))} {near}: the "
                              f"shell weights 2^((j+1)(d - gamma)) up to j = {top} pass "
                              f"the float range at d - gamma = {d - gamma:g}")
        # shell -1 (in no ball) reads the trailing 0
        return np.append(sums, 0.0)[shell] @ lam.weights

    return float(_row_sums(lam.points, shell_sums).max(initial=0.0))


# -- generalized Radon transform ----------------------------------------------

def radon_apply_stack(phi, psi, eps: float, t: float, fields) -> list:
    """Apply T_eps,t to several fields at once (the kernel is field-independent,
    so one kernel serves them all).

    Without psi, a phase of x - y alone (euclidean, flat_torus) makes T a
    convolution: its kernel is tabulated once on the grid offsets and applied
    by FFT, zero-padded to 2n per axis for euclidean and periodic for
    flat_torus.  Other phases and psi-weighted calls use `_radon_direct`.
    """
    fields = [np.asarray(f) for f in fields]
    n = fields[0].shape[0]
    for f in fields:
        if f.ndim != 2 or f.shape != (n, n):
            raise DomainError("radon_apply expects square d=2 fields of one size")
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
    gx, gy = np.meshgrid(k * h, k * h, indexing="ij")
    dist = phi.value(np.stack([gx, gy], axis=-1), np.zeros(2))
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
    axis = np.arange(n) * h
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    any_complex = any(np.iscomplexobj(f) for f in fields)
    fmat = np.stack([f.ravel() for f in fields], axis=1)
    if not any_complex:
        fmat = fmat.real.astype(float)
    moll = Mollifier(eps)
    out = np.zeros((n * n, len(fields)), dtype=complex if any_complex else float)
    rows = max(1, 4_000_000 // (n * n))
    for i0 in range(0, n * n, rows):
        sl = slice(i0, min(i0 + rows, n * n))
        vals = pairwise_value(phi, pts[sl], pts)
        vals -= t
        np.negative(vals, out=vals)
        kern = moll(vals)
        if psi is not None:
            kern = kern * np.asarray(psi(pts[sl][:, None, :], pts[None, :, :]))
        out[sl] = kern @ fmat * h ** 2
    return [out[:, i].reshape(n, n) for i in range(len(fields))]


def radon_apply(phi, psi, eps: float, t: float, field: np.ndarray) -> np.ndarray:
    """T f(x) = eps^-1 int rho((t - phi(x,y))/eps) f(y) psi(x,y) dy by
    quadrature over the grid in y for each x (d = 2); see `radon_apply_stack`."""
    return radon_apply_stack(phi, psi, eps, t, [field])[0]


class SobolevRatioRow(NamedTuple):
    eps: float
    field_index: int
    ratio: float


def radon_sobolev_ratio(phi, psi, t: float, eps_list, fields, gamma: float = 0.5):
    """Table of ||T_eps f||_{H^gamma} / ||f||_{L2} and per-field max/min.

    Returns (rows, summary) where summary maps field_index to the max/min
    ratio across eps -- the epsilon-uniformity diagnostic.
    """
    rows = []
    for eps in eps_list:
        transformed = radon_apply_stack(phi, psi, float(eps), t, list(fields))
        for fi, (f, tf) in enumerate(zip(fields, transformed)):
            rows.append(SobolevRatioRow(float(eps), fi,
                                        sobolev_norm(tf, gamma) / l2_norm(f)))
    summary = {}
    for fi in range(len(fields)):
        vals = [r.ratio for r in rows if r.field_index == fi]
        summary[fi] = max(vals) / min(vals)
    return rows, summary


# -- oscillatory integral -----------------------------------------------------

def oscillatory_G(phi, psi, s, xi, zeta, t: float = 0.0,
                  quad_n: int = 48, e_bounds=(0.0, 1.0)):
    """Tensor Gauss-Legendre quadrature of the separated-frequency integral

        G(s, xi, zeta) = II exp(2 pi i ((phi(x,y) - t) s + y.zeta - x.xi))
                            psi(x, y) dx dy        (d = 2 only)

    for one triple (s scalar, xi and zeta of shape (2,)) or m stacked ones (s,
    xi, zeta of shapes (m,), (m, 2), (m, 2); m values).  G = sum_x u_x (K_s v)_x
    with u = w e^(-2 pi i x.xi), v = w e^(2 pi i y.zeta), K_s = psi e^(2 pi i s
    (phi - t)): per block of at most DEPOSIT_BLOCK (x, y) pairs, 2 pi (phi - t)
    and psi are tabulated once; per distinct s, psi cos and psi sin take one
    GEMM each with v's stacked real and imaginary columns.  DomainError for
    other shapes, a quad_n outside the integers 1..64, a non-finite input or
    e_bounds lo >= hi; a ResolutionWarning for each triple with a frequency
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
    lo, hi = float(e_bounds[0]), float(e_bounds[1])
    finite = np.isfinite(np.concatenate([s, xi.ravel(), zeta.ravel(), [t, lo, hi]])).all()
    if not (finite and lo < hi):
        raise DomainError(f"need finite inputs and e_bounds lo < hi, got e_bounds ({lo}, {hi})")
    tops = np.maximum(np.abs(np.hstack([xi, zeta])).max(axis=1), np.abs(s))
    for top in tops[tops > quad_n / 4.0]:
        warnings.warn(f"frequency {top} beyond quad_n/4 = {quad_n / 4}; "
                      "result is quadrature-limited", ResolutionWarning, stacklevel=2)
    gn, gw = np.polynomial.legendre.leggauss(quad_n)
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gn
    wts = 0.5 * (hi - lo) * gw
    pts = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 2)
    w2 = np.outer(wts, wts).ravel()
    u = w2[:, None] * np.exp(-2j * np.pi * (pts @ xi.T))
    v = w2[:, None] * np.exp(2j * np.pi * (pts @ zeta.T))
    groups = [np.flatnonzero(s == sv) for sv in np.unique(s)]
    acc = np.zeros(len(s), complex)
    rows = max(1, DEPOSIT_BLOCK // len(pts))
    for i0 in range(0, len(pts), rows):
        x, y = pts[i0:i0 + rows, None, :], pts[None, :, :]
        phase = (np.asarray(phi.value(x, y)) - t) * (2.0 * np.pi)
        ps = 1.0 if psi is None else np.asarray(psi(x, y))
        for idx in groups:
            arg, k = phase * s[idx[0]], len(idx)
            vc = np.hstack([v[:, idx].real, v[:, idx].imag])
            a, b = (np.cos(arg) * ps) @ vc, (np.sin(arg, out=arg) * ps) @ vc
            kv = (a[:, :k] - b[:, k:]) + 1j * (a[:, k:] + b[:, :k])
            acc[idx] += (u[i0:i0 + rows, idx] * kv).sum(axis=0)
    return complex(acc[0]) if single else acc
