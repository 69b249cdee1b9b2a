"""Distance-type phase functions with gradients and mixed Hessians.

Shipped kinds: euclidean |x-y|, scaled_euclidean |x-a*y|, dot_product x.y,
flat_torus (Euclidean metric on R^d/Z^d), sphere_geodesic_chart (round-sphere
geodesic distance pulled back through one stereographic chart, restricted to
a cap).  All point arguments are arrays of shape (..., d) and broadcast; the
scalar case is shape (d,).

The degeneracy check is the determinant of the (d+1)x(d+1) bordered matrix

    [ 0            grad_x phi ]
    [ -(grad_y phi)^T   d2 phi/dx_i dy_j ]

whose nonvanishing on level sets {phi = t}, t != 0, is what the downstream
operator bounds ask of a phase.
"""

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .fractals import FrostmanMeasure
from .profiles import plateau, smooth_step
from .rng import batches, rng_for, row_blocks


class PhaseEval(NamedTuple):
    value: float
    grad_x: np.ndarray
    grad_y: np.ndarray
    mixed_hessian: np.ndarray
    forbidden: bool


class ScanResult(NamedTuple):
    forbidden_mass_estimate: float
    min_grad_norm: float
    min_ma_det_abs: float


class PhaseFunction:
    """Base contract; subclasses fill in the analytic maps."""

    kind = "abstract"

    def __init__(self, dimension_d: int):
        if dimension_d < 1:
            raise DomainError("dimension must be >= 1")
        self.dimension_d = dimension_d

    # subclasses implement value/grad_x/grad_y/mixed_hessian/forbidden/
    # forbidden_distance on broadcast (..., d) arrays

    def check_domain(self, x, y) -> None:
        """Raise DomainError if (x, y) falls outside the kind's chart."""

    def evaluate(self, x, y) -> PhaseEval:
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        self.check_domain(x, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            return PhaseEval(
                float(self.value(x, y)),
                np.asarray(self.grad_x(x, y)),
                np.asarray(self.grad_y(x, y)),
                np.asarray(self.mixed_hessian(x, y)),
                bool(self.forbidden(x, y)),
            )


def bordered_matrix(gx, gy, hess) -> np.ndarray:
    """Stacked bordered Monge-Ampere matrices from gradients and Hessians."""
    gx = np.asarray(gx, float)
    gy = np.asarray(gy, float)
    hess = np.asarray(hess, float)
    d = gx.shape[-1]
    shape = hess.shape[:-2]
    m = np.zeros(shape + (d + 1, d + 1))
    m[..., 0, 1:] = gx
    m[..., 1:, 0] = -gy
    m[..., 1:, 1:] = hess
    return m


def monge_ampere_det(phi: PhaseFunction, x, y) -> float:
    """Determinant of the bordered matrix at one pair; forbidden input raises."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    phi.check_domain(x, y)
    if phi.forbidden(x, y):
        raise DomainError("Monge-Ampere determinant undefined on the forbidden set")
    return float(monge_ampere_det_many(phi, x, y))


def monge_ampere_det_many(phi: PhaseFunction, X, Y) -> np.ndarray:
    m = bordered_matrix(phi.grad_x(X, Y), phi.grad_y(X, Y), phi.mixed_hessian(X, Y))
    return np.linalg.det(m)


def _outer(u):
    return u[..., :, None] * u[..., None, :]


def _coord_sum(x, y, term):
    """sum_j term(x_j, y_j) over the last axis, added in coordinate order: the
    rounding of `term(x, y).sum(axis=-1)` without numpy's slow reduction over
    a length-d last axis.  Like numpy, the sum starts from +0.0."""
    x, y = np.asarray(x), np.asarray(y)
    return sum(term(x[..., j], y[..., j]) for j in range(x.shape[-1]))


def _norm(x, y, diff):
    """sqrt(sum_j diff(x_j, y_j)^2), rounded as `np.sqrt((diff(x, y) ** 2).sum(axis=-1))`."""
    return np.sqrt(_coord_sum(x, y, lambda a, b: diff(a, b) ** 2))


class Euclidean(PhaseFunction):
    """|x - factor * y|; factor = 1 is the Euclidean distance.  Subclasses
    change the difference vector `_diff`, and every map is written on it."""

    kind = "euclidean"
    factor = 1.0

    def _diff(self, x, y):
        return x - self.factor * y

    def value(self, x, y):
        return _norm(x, y, self._diff)

    def grad_x(self, x, y):
        return self._diff(x, y) / self.value(x, y)[..., None]

    def grad_y(self, x, y):
        return -self.factor * self.grad_x(x, y)

    def mixed_hessian(self, x, y):
        r = self.value(x, y)[..., None]
        u = self._diff(x, y) / r
        eye = np.eye(x.shape[-1])
        return self.factor * (_outer(u) - eye) / r[..., None]

    def forbidden(self, x, y):
        return self.value(x, y) == 0.0

    def forbidden_distance(self, x, y):
        return self.value(x, y)


class ScaledEuclidean(Euclidean):
    kind = "scaled_euclidean"

    def __init__(self, dimension_d: int, factor: float):
        super().__init__(dimension_d)
        if factor == 0.0:
            raise DomainError("scale factor must be nonzero")
        self.factor = float(factor)


class DotProduct(PhaseFunction):
    kind = "dot_product"

    def value(self, x, y):
        return _coord_sum(x, y, np.multiply)

    def grad_x(self, x, y):
        return np.broadcast_arrays(x, y)[1].copy()

    def grad_y(self, x, y):
        return self.grad_x(y, x)

    def mixed_hessian(self, x, y):
        shape = np.broadcast_shapes(x.shape, y.shape)[:-1]
        return np.broadcast_to(np.eye(x.shape[-1]), shape + (x.shape[-1],) * 2).copy()

    def forbidden(self, x, y):
        nx = _coord_sum(x, x, np.multiply)
        ny = _coord_sum(y, y, np.multiply)
        return (nx == 0.0) | (ny == 0.0)

    def forbidden_distance(self, x, y):
        yb = np.broadcast_arrays(x, y)[1]
        nx = np.sqrt(_coord_sum(x, x, np.multiply))
        ny = np.sqrt(_coord_sum(yb, yb, np.multiply))
        return np.minimum(np.broadcast_arrays(nx, ny)[0], ny)


def torus_wrap(diff):
    """Componentwise representative of diff in [-1/2, 1/2)."""
    return diff - np.round(diff)


class FlatTorus(Euclidean):
    """Euclidean metric on the unit torus; matches Euclidean when |x-y|_inf < 1/2."""

    kind = "flat_torus"

    def _diff(self, x, y):
        return torus_wrap(x - y)

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


class SphereGeodesicChart(PhaseFunction):
    """Geodesic distance on the unit d-sphere through one stereographic chart.

    Cube coordinates p in [0,1]^d are centered to q = p - 1/2 and mapped to
    sigma(q) = (2q, 1-|q|^2)/(1+|q|^2); the chart is restricted to the cap
    |q| <= cap_radius so no pair is antipodal.
    """

    kind = "sphere_geodesic_chart"

    def __init__(self, dimension_d: int, cap_radius: float = 0.75):
        super().__init__(dimension_d)
        self.cap_radius = float(cap_radius)

    def check_domain(self, x, y) -> None:
        for p in (x, y):
            q = np.asarray(p, float) - 0.5
            if np.any(np.sqrt((q ** 2).sum(axis=-1)) > self.cap_radius + 1e-12):
                raise DomainError(f"point outside the chart cap: cap_radius {self.cap_radius}")

    @staticmethod
    def _embed(p):
        q = p - 0.5
        s = 1.0 + (q ** 2).sum(axis=-1, keepdims=True)
        return np.concatenate([2.0 * q / s, (2.0 - s) / s], axis=-1)

    @staticmethod
    def _jacobian(p):
        """(..., d+1, d) derivative of the embedding."""
        q = p - 0.5
        d = q.shape[-1]
        s = 1.0 + (q ** 2).sum(axis=-1)[..., None, None]
        eye = np.eye(d)
        top = (2.0 / s) * (eye - 2.0 * q[..., :, None] * q[..., None, :] / s)
        bot = -4.0 * q[..., None, :] / s ** 2
        return np.concatenate([top, bot], axis=-2)

    def _cosine(self, x, y):
        return _coord_sum(self._embed(x), self._embed(y), np.multiply)

    def value(self, x, y):
        return np.arccos(np.clip(self._cosine(x, y), -1.0, 1.0))

    def grad_x(self, x, y):
        f = self._cosine(x, y)
        jf = np.einsum("...kj,...k->...j", self._jacobian(x), self._embed(y))
        return -jf / np.sqrt(np.maximum(1.0 - f ** 2, 0.0))[..., None]

    def grad_y(self, x, y):
        return self.grad_x(y, x)

    def mixed_hessian(self, x, y):
        f = self._cosine(x, y)[..., None, None]
        jx = self._jacobian(x)
        jy = self._jacobian(y)
        fxy = np.einsum("...ki,...kj->...ij", jx, jy)
        fx = np.einsum("...kj,...k->...j", jx, self._embed(y))
        fy = np.einsum("...kj,...k->...j", jy, self._embed(x))
        g = np.maximum(1.0 - f ** 2, 0.0)
        return -fxy / np.sqrt(g) - f * fx[..., :, None] * fy[..., None, :] / g ** 1.5

    def forbidden(self, x, y):
        return self._cosine(x, y) >= 1.0 - 1e-14

    def forbidden_distance(self, x, y):
        return _norm(x, y, np.subtract)


def pairwise_value(phi: PhaseFunction, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """phi(a, b) for all rows of A against all rows of B, (len(A), len(B)).

    The euclidean and scaled_euclidean kinds go through a GEMM expansion of
    |a - factor b|^2, which is several times faster than broadcast subtraction
    at grid scale, and dot_product is one GEMM; each is one product over all
    of A, formed in place, so its bits do not depend on any block size.  Other
    kinds, the flat torus among them, broadcast `value` over `row_blocks` of A.
    Dispatch reads `phi.kind`, never the class: FlatTorus subclasses Euclidean
    but has no such expansion.
    """
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    if phi.kind in ("euclidean", "scaled_euclidean"):
        Bs = phi.factor * B
        out = A @ Bs.T
        out *= -2.0
        out += (A ** 2).sum(axis=1)[:, None] + (Bs ** 2).sum(axis=1)[None, :]
        np.maximum(out, 0.0, out=out)
        return np.sqrt(out, out=out)
    if phi.kind == "dot_product":
        return A @ B.T
    out = np.empty((len(A), len(B)))
    for sl in row_blocks(len(A), len(B)):
        out[sl] = np.asarray(phi.value(A[sl][:, None, :], B[None, :, :]))
    return out


_KINDS = {
    "euclidean": Euclidean,
    "scaled_euclidean": ScaledEuclidean,
    "dot_product": DotProduct,
    "flat_torus": FlatTorus,
    "sphere_geodesic_chart": SphereGeodesicChart,
}


def phase_function(kind: str, dimension_d: int, **params) -> PhaseFunction:
    """Factory; params: factor (scaled_euclidean), cap_radius (sphere chart)."""
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise DomainError(f"unknown phase kind {kind!r}; have {sorted(_KINDS)}") from None
    return cls(dimension_d, **params)


@dataclass(frozen=True)
class CutoffPair:
    """psi kills a neighborhood of the forbidden set (and the box boundary,
    so oscillatory integrands stay compactly supported); beta is a smooth
    plateau over the observed range of phi values."""

    psi: Callable
    beta: Callable


def build_cutoffs(phi: PhaseFunction, e_bounds, neighborhood_radius: float,
                  t_range) -> CutoffPair:
    """Smooth cutoffs around the forbidden set and over the t-window.

    psi(x, y) = W(x) W(y) S(dist_to_forbidden / radius - 1) where S steps from
    0 to 1 over [radius, 2*radius] and W is a plateau equal to 1 on the
    e_bounds box, vanishing 0.1 outside it; beta falls to 0 over a tenth of
    the t-window's length outside it.
    """
    if neighborhood_radius <= 0:
        raise DomainError("neighborhood_radius must be positive")
    lo, hi = float(e_bounds[0]), float(e_bounds[1])
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not t1 > t0:
        raise DomainError("empty t_range")
    def window(p):
        return np.prod(plateau(p, lo, hi, 0.1), axis=-1)

    def psi(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        gate = smooth_step(phi.forbidden_distance(x, y) / neighborhood_radius - 1.0)
        return window(x) * window(y) * gate

    def beta(t):
        return plateau(t, t0, t1, 0.1 * (t1 - t0))

    return CutoffPair(psi, beta)


def nondegeneracy_scan(phi: PhaseFunction, mu: FrostmanMeasure, pair_count: int,
                       tolerance: float, seed: int,
                       exclude_self: bool = False) -> ScanResult:
    """Monte Carlo estimate of the mu x mu mass near the forbidden set.

    Pairs are drawn independently from the atom weights (exclude_self redraws
    the second point to a different atom, the natural convention for
    non-atomic targets).  Off the tolerance-neighborhood the minimum gradient
    norms and |Monge-Ampere| determinant are tracked.
    """
    if pair_count < 1:
        raise DomainError("pair_count must be >= 1")
    near = 0
    min_grad = np.inf
    min_det = np.inf
    n = len(mu)
    for b, _, size in batches(pair_count):
        rng = rng_for(seed, 2, b)
        i = rng.choice(n, size=size, p=mu.weights)
        j = rng.choice(n, size=size, p=mu.weights)
        if exclude_self:
            clash = i == j
            while np.any(clash):
                j[clash] = rng.choice(n, size=int(clash.sum()), p=mu.weights)
                clash = i == j
        X, Y = mu.points[i], mu.points[j]
        dist = np.asarray(phi.forbidden_distance(X, Y))
        bad = dist <= tolerance
        near += int(bad.sum())
        if np.any(~bad):
            Xo, Yo = X[~bad], Y[~bad]
            gx = np.sqrt((np.asarray(phi.grad_x(Xo, Yo)) ** 2).sum(axis=-1))
            gy = np.sqrt((np.asarray(phi.grad_y(Xo, Yo)) ** 2).sum(axis=-1))
            min_grad = min(min_grad, float(gx.min()), float(gy.min()))
            dets = np.abs(monge_ampere_det_many(phi, Xo, Yo))
            min_det = min(min_det, float(dets.min()))
    return ScanResult(near / pair_count, min_grad, min_det)
