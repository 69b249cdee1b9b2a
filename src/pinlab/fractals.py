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
"""

from dataclasses import dataclass, replace

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
    """Weighted point representation of a probability measure on [0,1]^d.

    `mode` records how mass is spread inside cells: "atoms" keeps everything
    at the stored points, "cell_uniform" means each point stands for a uniform
    density over the cell of side `cell_side` centered there (relevant when
    sampling or depositing on grids; `ball_mass` always uses the points).
    """

    points: np.ndarray      # (N, d)
    weights: np.ndarray     # (N,)
    exponent_s: float
    frostman_constant_C: float = 1.0
    cell_side: float = 0.0
    mode: str = "atoms"

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


@dataclass(frozen=True)
class PointSample:
    """Monte Carlo draw from a measure; identical seed gives identical sample."""

    points: np.ndarray
    weights: np.ndarray
    atoms: np.ndarray | None = None     # the drawn atoms; None when jittered

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1 within 1e-12")


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


def natural_measure(f: CellFractal, mode: str = "atoms") -> FrostmanMeasure:
    """Equal mass keep_m**-n on each level-n cell; exponent = target dimension."""
    if mode not in ("atoms", "cell_uniform"):
        raise DomainError(f"unknown measure mode {mode!r}")
    pts = f.centers()
    w = np.full(len(pts), 1.0 / len(pts))
    mu = FrostmanMeasure(pts, w, exponent_s=f.target_dim, cell_side=f.cell_side, mode=mode)
    return replace(mu, frostman_constant_C=_probe_frostman_constant(mu, f))


def _probe_frostman_constant(mu: FrostmanMeasure, f: CellFractal) -> float:
    """max mass(B(x,r)) / r^s over strided atoms and construction scales."""
    scales = f.scale ** np.arange(1, f.level_n + 1)
    stride = max(1, len(mu) // 64)
    best = 0.0
    for x in mu.points[::stride]:
        dist = np.sqrt(((mu.points - x) ** 2).sum(axis=1))
        for r in scales:
            mass = mu.weights[dist <= r].sum()
            best = max(best, mass / r ** mu.exponent_s)
    return best


def uniform_grid_measure(d: int, per_side: int, box_lo=0.0, box_hi=1.0) -> FrostmanMeasure:
    """Lebesgue atoms: per_side^d equal-weight cell centers tiling [box_lo, box_hi]^d."""
    if not box_lo < box_hi:
        raise DomainError(f"need box_lo < box_hi, got {box_lo} and {box_hi}")
    side = (box_hi - box_lo) / per_side
    axis = box_lo + (np.arange(per_side) + 0.5) * side
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    w = np.full(len(pts), 1.0 / len(pts))
    return FrostmanMeasure(pts, w, exponent_s=float(d), cell_side=side, mode="atoms")


#: Centre of `circle_measure`'s circle and ends of `segment_measure`'s segment.
CIRCLE_CENTER = (0.5, 0.5)
SEGMENT_ENDS = ((0.25, 0.5), (0.75, 0.5))


def circle_measure(n_atoms: int, radius: float = 0.25) -> FrostmanMeasure:
    """Uniform atoms on the circle about CIRCLE_CENTER; a 1-dimensional
    measure in the plane."""
    th = 2.0 * np.pi * np.arange(n_atoms) / n_atoms
    cx, cy = CIRCLE_CENTER
    pts = np.stack([cx + radius * np.cos(th), cy + radius * np.sin(th)], axis=1)
    w = np.full(n_atoms, 1.0 / n_atoms)
    return FrostmanMeasure(pts, w, exponent_s=1.0)


def segment_measure(n_atoms: int) -> FrostmanMeasure:
    """Uniform atoms on the segment SEGMENT_ENDS; a 1-dimensional measure in
    the plane."""
    if n_atoms < 1:
        raise DomainError(f"need n_atoms >= 1, got {n_atoms}")
    u = (np.arange(n_atoms) + 0.5) / n_atoms
    p0, p1 = np.asarray(SEGMENT_ENDS, float)
    pts = np.outer(1.0 - u, p0) + np.outer(u, p1)
    w = np.full(n_atoms, 1.0 / n_atoms)
    return FrostmanMeasure(pts, w, exponent_s=1.0)


def ball_mass(mu: FrostmanMeasure, x, r: float) -> float:
    """Exact mass of the closed Euclidean ball B(x, r) under the atom weights."""
    if r <= 0:
        raise DomainError("r must be positive")
    x = np.asarray(x, dtype=float)
    dist = np.sqrt(((mu.points - x) ** 2).sum(axis=1))
    return float(mu.weights[dist <= r].sum())


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
    sups = np.zeros(len(scales))
    for i in idx:
        dist = np.sqrt(((mu.points - mu.points[i]) ** 2).sum(axis=1))
        for k, r in enumerate(scales):
            sups[k] = max(sups[k], mu.weights[dist <= r].sum())
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


def sample_points(mu: FrostmanMeasure, count: int, seed: int) -> PointSample:
    """Draw `count` points from the measure (atom draws, jittered in cell-uniform mode)."""
    if count < 1:
        raise DomainError("count must be >= 1")
    rng = rng_for(seed, 1)
    idx = rng.choice(len(mu), size=count, replace=True, p=mu.weights)
    pts = mu.points[idx].copy()
    if mu.mode == "cell_uniform" and mu.cell_side > 0:
        jitter = rng.uniform(-0.5, 0.5, size=pts.shape) * mu.cell_side
        pts = pts + jitter
        idx = None
    w = np.full(count, 1.0 / count)
    return PointSample(pts, w, idx)


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


def load_cells(path) -> CellFractal:
    with open(path) as fh:
        head = fh.readline().split()
        d, b, n, m = (int(x) for x in head[:4])
        target = float(head[4])
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            axes = [[int(c) for c in grp.split(",")] for grp in line.split()]
            rows.append(axes)
    digits = np.array(rows, dtype=np.uint8)
    scale = 1.0 / b if m == 1 else float(m) ** (-1.0 / target)
    return CellFractal(d, b, scale, n, m, digits, target)


def save_measure(mu: FrostmanMeasure, path) -> None:
    """CSV with header x_1,...,x_d,weight."""
    d = mu.d
    with open(path, "w") as fh:
        fh.write(",".join(f"x_{j + 1}" for j in range(d)) + ",weight\n")
        for p, w in zip(mu.points, mu.weights):
            fh.write(",".join(repr(float(c)) for c in p) + f",{float(w)!r}\n")


def load_measure(path, exponent_s: float = 1.0) -> FrostmanMeasure:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    pts, w = data[:, :-1], data[:, -1]
    return FrostmanMeasure(pts, w / w.sum() if abs(w.sum() - 1) > 1e-12 else w,
                           exponent_s=exponent_s)
