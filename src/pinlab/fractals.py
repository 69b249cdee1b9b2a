"""Fractal cell sets of prescribed dimension and their natural measures.

Two generator families cover any target dimension in (0, d]:

* ``build_product_cantor`` -- d-fold products of a middle-gap Cantor set with
  contraction ratio a, dimension d*log(2)/log(1/a);
* ``build_subdivision_fractal`` -- seeded random b-adic subdivision keeping m
  of the b^d children of every retained cell, dimension log(m)/log(b).

A level-n cell is a d-tuple of digit strings.  Digit c at level l occupies
offset c*(1-scale)/(b-1)*scale^(l-1) with side scale^l, which reduces to the
usual b-adic tiling when scale = 1/b and leaves the familiar gaps when
scale < 1/b.

A measure is its weighted atoms (`FrostmanMeasure`): the natural measure
puts each level-n cell's mass on the cell's centre, and a Monte Carlo draw
(`sample_points`) is a list of atom indices.  Every ball mass -- one ball,
the sups of the exponent fit, the probed Frostman constant -- is a sum of
the atom weights in the closed ball, from one kernel (`_ball_masses`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError
from .rng import rng_for

#: Default ceiling on retained-cell counts for generators.
CELL_BUDGET = 10_000_000


@dataclass(frozen=True)
class CellFractal:
    """Level-n cell approximation of a compact subset of [0,1]^d."""

    dimension_d: int
    base_b: int
    scale: float            # per-level contraction; 1/base_b for b-adic tilings
    level_n: int
    keep_m: int             # retained children per cell; count at level l is keep_m**l
    digits: np.ndarray      # (n_cells, dimension_d, level_n) digit array, base base_b
    target_dim: float

    def __post_init__(self):
        if not (0.0 < self.scale <= 1.0 / self.base_b):
            raise DomainError(f"scale {self.scale} must lie in (0, 1/b]")
        if self.digits.shape != (len(self.digits), self.dimension_d, self.level_n):
            raise DomainError("digit array shape mismatch")

    @property
    def cell_side(self) -> float:
        return self.scale ** self.level_n

    def cells_at_level(self, level: int) -> np.ndarray:
        """Distinct digit prefixes of length `level` (ancestors of the cells)."""
        if not (1 <= level <= self.level_n):
            raise DomainError(f"level {level} outside 1..{self.level_n}")
        prefix = self.digits[:, :, :level]
        flat = prefix.reshape(len(prefix), -1)
        return np.unique(flat, axis=0).reshape(-1, self.dimension_d, level)

    def cell_count_at_level(self, level: int) -> int:
        return len(self.cells_at_level(level))

    def origins(self) -> np.ndarray:
        """(n_cells, d) lower corners of the level-n cells."""
        stride = (1.0 - self.scale) / (self.base_b - 1) if self.base_b > 1 else 0.0
        powers = self.scale ** np.arange(self.level_n)
        return (self.digits * powers[None, None, :]).sum(axis=2) * stride

    def centers(self) -> np.ndarray:
        return self.origins() + 0.5 * self.cell_side


@dataclass(frozen=True)
class FrostmanMeasure:
    """Weighted atoms of a probability measure on [0,1]^d; every estimator,
    exact or Monte Carlo, pushes these atoms forward."""

    points: np.ndarray      # (N, d)
    weights: np.ndarray     # (N,)
    exponent_s: float

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1 within 1e-12")
        if np.any(self.weights < 0):
            raise DomainError("weights must be nonnegative")

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)


def build_product_cantor(d: int, ratio_a: float, level_n: int) -> CellFractal:
    """d-fold product of middle-(1-2a) Cantor sets, level n.

    Every cell keeps both endpoint children per axis, so keep_m = 2**d and
    target_dim = d*log(2)/log(1/a).
    """
    if not (0.0 < ratio_a < 0.5):
        raise DomainError(f"ratio_a {ratio_a} outside (0, 1/2)")
    if level_n < 1 or d < 1:
        raise DomainError("need d >= 1 and level_n >= 1")
    count = 2 ** (d * level_n)
    if count > CELL_BUDGET:
        raise BudgetError(f"cell count 2^{d * level_n} exceeds budget {CELL_BUDGET}")
    digits_1d = np.stack(np.meshgrid(*([np.arange(2)] * level_n), indexing="ij"),
                         axis=-1).reshape(-1, level_n)
    per_axis = [digits_1d] * d
    idx = np.stack(np.meshgrid(*[np.arange(len(a)) for a in per_axis], indexing="ij"),
                   axis=-1).reshape(-1, d)
    digits = np.stack([per_axis[j][idx[:, j]] for j in range(d)], axis=1).astype(np.uint8)
    target = d * np.log(2.0) / np.log(1.0 / ratio_a)
    return CellFractal(d, 2, ratio_a, level_n, 2 ** d, digits, target)


def build_subdivision_fractal(d: int, base_b: int, keep_m: int, level_n: int,
                              seed: int) -> CellFractal:
    """Random b-adic subdivision keeping m of the b^d children per cell."""
    if not (1 <= keep_m <= base_b ** d):
        raise DomainError(f"keep_m {keep_m} outside 1..{base_b ** d}")
    if level_n < 1 or d < 1 or base_b < 2:
        raise DomainError("need d >= 1, base_b >= 2, level_n >= 1")
    if keep_m ** level_n > CELL_BUDGET:
        raise BudgetError(f"cell count {keep_m}^{level_n} exceeds budget {CELL_BUDGET}")
    rng = rng_for(seed, 0)
    child_digits = np.stack(np.meshgrid(*([np.arange(base_b)] * d), indexing="ij"),
                            axis=-1).reshape(-1, d).astype(np.uint8)
    cells = np.zeros((1, d, 0), dtype=np.uint8)
    for _ in range(level_n):
        grown = []
        for cell in cells:
            pick = rng.choice(base_b ** d, size=keep_m, replace=False)
            pick.sort()
            for p in pick:
                grown.append(np.concatenate([cell, child_digits[p][:, None]], axis=1))
        cells = np.array(grown, dtype=np.uint8)
    target = np.log(keep_m) / np.log(base_b) if keep_m > 1 else 0.0
    return CellFractal(d, base_b, 1.0 / base_b, level_n, keep_m, cells, target)


def natural_measure(f: CellFractal) -> FrostmanMeasure:
    """Equal mass keep_m**-n on each level-n cell, held by the cell's centre;
    exponent = target dimension."""
    pts = f.centers()
    w = np.full(len(pts), 1.0 / len(pts))
    return FrostmanMeasure(pts, w, exponent_s=f.target_dim)


def probe_frostman_constant(mu: FrostmanMeasure, f: CellFractal) -> float:
    """max mass(B(x,r)) / r^s over every max(1, len // 64)-th atom x and
    the construction scales r of the fractal f that mu lives on."""
    scales = f.scale ** np.arange(1, f.level_n + 1)
    masses = _ball_masses(mu, mu.points[::max(1, len(mu) // 64)], scales)
    return max(float(masses[:, k].max()) / r ** mu.exponent_s
               for k, r in enumerate(scales))


def _check_atoms(count: int, what: str) -> None:
    """BudgetError, before anything is allocated, past CELL_BUDGET atoms."""
    if count > CELL_BUDGET:
        raise BudgetError(f"{what} of {count} atoms exceeds budget {CELL_BUDGET}")


def uniform_grid_measure(d: int, per_side: int) -> FrostmanMeasure:
    """Lebesgue atoms: per_side^d equal-weight cell centers tiling [0, 1]^d."""
    _check_atoms(per_side ** d, "uniform grid")
    axis = (np.arange(per_side) + 0.5) * (1.0 / per_side)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    w = np.full(len(pts), 1.0 / len(pts))
    return FrostmanMeasure(pts, w, exponent_s=float(d))


#: Centre and radius of `circle_measure`'s circle, ends of `segment_measure`'s
#: segment.
CIRCLE_CENTER = (0.5, 0.5)
CIRCLE_RADIUS = 0.25
SEGMENT_ENDS = ((0.25, 0.5), (0.75, 0.5))


def circle_measure(n_atoms: int) -> FrostmanMeasure:
    """Uniform atoms on the circle of CIRCLE_RADIUS about CIRCLE_CENTER; a
    1-dimensional measure in the plane."""
    _check_atoms(n_atoms, "circle")
    th = 2.0 * np.pi * np.arange(n_atoms) / n_atoms
    cx, cy = CIRCLE_CENTER
    r = CIRCLE_RADIUS
    pts = np.stack([cx + r * np.cos(th), cy + r * np.sin(th)], axis=1)
    w = np.full(n_atoms, 1.0 / n_atoms)
    return FrostmanMeasure(pts, w, exponent_s=1.0)


def segment_measure(n_atoms: int) -> FrostmanMeasure:
    """Uniform atoms on the segment SEGMENT_ENDS; a 1-dimensional measure in
    the plane."""
    if n_atoms < 1:
        raise DomainError(f"need n_atoms >= 1, got {n_atoms}")
    _check_atoms(n_atoms, "segment")
    u = (np.arange(n_atoms) + 0.5) / n_atoms
    p0, p1 = np.asarray(SEGMENT_ENDS, float)
    pts = np.outer(1.0 - u, p0) + np.outer(u, p1)
    w = np.full(n_atoms, 1.0 / n_atoms)
    return FrostmanMeasure(pts, w, exponent_s=1.0)


def _ball_masses(mu: FrostmanMeasure, centres, radii) -> np.ndarray:
    """(centres, radii) matrix of the exact masses of the closed Euclidean
    balls B(x, r) under the atom weights."""
    centres = np.asarray(centres, dtype=float)
    out = np.empty((len(centres), len(radii)))
    for i, x in enumerate(centres):
        dist = np.sqrt(((mu.points - x) ** 2).sum(axis=1))
        for k, r in enumerate(radii):
            out[i, k] = mu.weights[dist <= r].sum()
    return out


def ball_mass(mu: FrostmanMeasure, x, r: float) -> float:
    """Exact mass of the closed Euclidean ball B(x, r) under the atom weights."""
    if r <= 0:
        raise DomainError("r must be positive")
    return float(_ball_masses(mu, [x], [r])[0, 0])


def frostman_exponent_fit(mu: FrostmanMeasure, scales, probes: int, seed: int):
    """Least-squares slope of log sup_x mass(B(x,r)) against log r.

    Probe centers are drawn from the measure's own atoms (weight-biased,
    deterministic per seed).  Returns (exponent, constant) with the constant
    the empirical max of mass / r^exponent over all probed pairs.
    """
    scales = np.asarray(sorted(set(float(s) for s in scales)))
    if len(scales) < 2:
        raise DomainError("need at least two distinct scales")
    rng = rng_for(seed, 0)
    if probes >= len(mu):
        idx = np.arange(len(mu))
    else:
        idx = np.unique(rng.choice(len(mu), size=probes, replace=True, p=mu.weights))
    sups = _ball_masses(mu, mu.points[idx], scales).max(axis=0, initial=0.0)
    slope, intercept = np.polyfit(np.log(scales), np.log(sups), 1)
    const = float(np.max(sups / scales ** slope))
    return float(slope), const


def box_dimension_estimate(f: CellFractal) -> float:
    """Slope of log cell-count against level, in the geometric base 1/scale.

    Counts are keep_m**level exactly, so the fit returns
    log(keep_m)/log(1/scale) up to float error.
    """
    if f.level_n < 3:
        raise DomainError("need level_n >= 3")
    levels = np.arange(1, f.level_n + 1)
    counts = np.array([f.cell_count_at_level(int(l)) for l in levels], dtype=float)
    slope, _ = np.polyfit(levels * np.log(1.0 / f.scale), np.log(counts), 1)
    return float(slope)


def sample_points(mu: FrostmanMeasure, count: int, seed: int) -> np.ndarray:
    """Indices of `count` weight-biased atom draws, with replacement; the
    same seed gives the same draws."""
    if count < 1:
        raise DomainError("count must be >= 1")
    return rng_for(seed, 1).choice(len(mu), size=count, replace=True, p=mu.weights)


# -- serialization ----------------------------------------------------------

def save_cells(f: CellFractal, path) -> None:
    """Line format: header `d b n m target_dim`, then one cell per line.

    Each line holds d digit groups (one per axis, level-1 digit first),
    digits within a group separated by commas, groups by spaces.  Only
    level-n cells are stored; ancestors are digit prefixes.
    """
    with open(path, "w") as fh:
        fh.write(f"{f.dimension_d} {f.base_b} {f.level_n} {f.keep_m} {float(f.target_dim)!r}\n")
        for cell in f.digits:
            fh.write(" ".join(",".join(str(int(c)) for c in axis) for axis in cell) + "\n")


def save_measure(mu: FrostmanMeasure, path) -> None:
    """CSV with header x_1,...,x_d,weight."""
    d = mu.d
    with open(path, "w") as fh:
        fh.write(",".join(f"x_{j + 1}" for j in range(d)) + ",weight\n")
        for p, w in zip(mu.points, mu.weights):
            fh.write(",".join(repr(float(c)) for c in p) + f",{float(w)!r}\n")
