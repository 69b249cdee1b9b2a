"""Experiment orchestration: configs, threshold sweeps, exceptional-set probes.

Configuration files are flat `key = value` text (one key per line, `#`
comments).  Every run echoes its resolved configuration, seed, and library
versions into a manifest; data files are byte-reproducible functions of
(config, seed).

The sweep's verdict rule is a frozen convention (see `verdict_from_series`):
a pinned-set size trajectory over a shrinking epsilon schedule is SHRINKING
when it decreases monotonically and loses at least `shrink_total` (default
30%) over the sweep, STABLE when the final two epsilon steps change by at
most `stable_tol` (default 20%).  The cumulative reading of the 30% is
deliberate: the canonical dimension-1.0 product Cantor shrinks 10-20% per
step at desk scales (its arithmetic structure caps the blow-up rate), so a
per-step 30% rule would miss exactly the sub-threshold sets the sweep exists
to flag.
"""

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .configs import hinge_count_integrated, sort_gaps
from .errors import ConfigError, DomainError, PinlabError, RegressionMismatch
from .fractals import (FrostmanMeasure, build_product_cantor,
                       build_subdivision_fractal, circle_measure,
                       natural_measure, uniform_grid_measure)
from .phases import build_cutoffs, phase_function
from .pinned import (Mollifier, cs_lower_bound, default_t_grid, density_mass,
                     l2_energy, monte_carlo_rows, pinned_density,
                     support_measure)
from .rng import parallel_map, rng_for


# -- configuration -----------------------------------------------------------

def parse_config_text(text: str) -> dict:
    """Flat `key = value` lines; later keys override earlier ones."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected `key = value`, got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def load_config(path) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        return parse_config_text(fh.read())


def parse_number(tok: str, key: str) -> float:
    """Parse a float, allowing dyadic tokens like 2^-5; a malformed token is
    a ConfigError naming its config key."""
    tok = tok.strip()
    base, caret, exp = tok.partition("^")
    try:
        val = float(base) ** float(exp) if caret else float(tok)
    except (ValueError, ArithmeticError):
        val = None
    if not isinstance(val, float):     # None, or complex from e.g. -2^0.5
        raise ConfigError(f"config key {key!r}: bad number {tok!r}")
    return val


def cfg_float(cfg, key, default=None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config key {key!r}")
        return default
    return parse_number(cfg[key], key)


def cfg_int(cfg, key, default=None) -> int:
    val = cfg_float(cfg, key, default)
    if not math.isfinite(val) or val != int(val):
        raise ConfigError(f"config key {key!r} must be an integer")
    return int(val)


def cfg_mc_samples(cfg) -> int:
    """`mc_samples`, checked before the sweep's or probe's cells turn errors into rows."""
    val = cfg_int(cfg, "mc_samples", 0)
    if val < 0:
        raise ConfigError(f"config key 'mc_samples' must be >= 0, got {val}")
    return val


def cfg_str(cfg, key, default=None) -> str:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config key {key!r}")
        return default
    return cfg[key]


def cfg_floats(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config key {key!r}")
        return list(default)
    return [parse_number(tok, key) for tok in cfg[key].replace(",", " ").split()]


def build_phase(cfg, d: int):
    kind = cfg_str(cfg, "phase", "euclidean")
    params = {}
    if kind == "scaled_euclidean":
        params["factor"] = cfg_float(cfg, "phase_factor", 3.0)
    if kind == "sphere_geodesic_chart":
        params["cap_radius"] = cfg_float(cfg, "cap_radius", 0.75)
    return phase_function(kind, d, **params)


def build_generator(cfg, seed: int, target_dim: float | None = None):
    """(CellFractal | None, FrostmanMeasure) per the generator spec in the config."""
    d = cfg_int(cfg, "d", 2)
    level = cfg_int(cfg, "level", 5)
    family = cfg_str(cfg, "generator", "product_cantor")
    mode = cfg_str(cfg, "measure_mode", "atoms")
    if family == "circle":
        return None, circle_measure(cfg_int(cfg, "n_atoms", 512),
                                    radius=cfg_float(cfg, "radius", 0.25))
    if family == "uniform":
        return None, uniform_grid_measure(d, cfg_int(cfg, "per_side", 32),
                                          cfg_float(cfg, "box_lo", 0.0),
                                          cfg_float(cfg, "box_hi", 1.0))
    if family == "product_cantor":
        if target_dim is None and "ratio_a" in cfg:
            a = cfg_float(cfg, "ratio_a")
        else:
            dim = target_dim if target_dim is not None else cfg_float(cfg, "target_dim")
            if dim >= d:
                frac = build_subdivision_fractal(d, 2, 2 ** d, level, seed)
                return frac, natural_measure(frac, mode)
            a = 2.0 ** (-d / dim)
        frac = build_product_cantor(d, a, level)
    elif family == "subdivision":
        frac = build_subdivision_fractal(d, cfg_int(cfg, "base_b", 2),
                                         cfg_int(cfg, "keep_m", 3), level, seed)
    else:
        raise ConfigError(f"unknown generator {family!r}")
    return frac, natural_measure(frac, mode)


def hinge_setup(cfg, phi, mu: FrostmanMeasure, lam_points, gaps):
    """(lam, beta, t_nodes) of an integrated hinge count: the uniform pin
    measure on lam_points, and the plateau beta over the range of the
    observed `gaps` with `hinge_t_nodes` (>= 2) t-nodes reaching 0.05 past it."""
    n_t = cfg_int(cfg, "hinge_t_nodes", 96)
    if n_t < 2:
        raise ConfigError(f"config key 'hinge_t_nodes' must be >= 2, got {n_t}")
    lam = FrostmanMeasure(lam_points, np.full(len(lam_points), 1.0 / len(lam_points)),
                          exponent_s=mu.exponent_s)
    t_lo, t_hi = float(np.min(gaps)), float(np.max(gaps))
    beta = build_cutoffs(phi, (0.0, 1.0), 0.05, (t_lo, t_hi)).beta
    t_nodes = np.linspace(t_lo - 0.05, t_hi + 0.05, n_t)
    return lam, beta, t_nodes


def draw_pins(cfg, mu: FrostmanMeasure, seed: int, count: int):
    """Pin set per policy: distinct weight-biased atoms of mu, or a fixed point."""
    if count < 1:
        raise ConfigError(f"config key 'pins' must be >= 1, got {count}")
    policy = cfg_str(cfg, "pin_policy", "mu")
    if policy == "fixed":
        coords = cfg_floats(cfg, "pin")
        if len(coords) != mu.d:
            raise ConfigError(f"config key 'pin' needs d = {mu.d} coordinates, got {len(coords)}")
        return np.tile(np.asarray(coords, float), (count, 1))
    if policy != "mu":
        raise ConfigError(f"unknown pin_policy {policy!r}")
    rng = rng_for(seed, 9)
    count = min(count, len(mu))
    idx = rng.choice(len(mu), size=count, replace=False, p=mu.weights)
    return mu.points[idx]


# -- verdict rule -------------------------------------------------------------

def verdict_from_series(values, stable_tol: float = 0.2, shrink_total: float = 0.3,
                        shrink_mode: str = "cumulative") -> str:
    """Pure classification of an epsilon-refinement trajectory.

    SHRINKING: monotone decreasing at every step and, under the default
    cumulative mode, total decline >= shrink_total (per_step mode instead
    requires every step to lose >= shrink_total).  STABLE: the final two
    steps change by <= stable_tol.  Anything else: MIXED.
    """
    v = np.asarray(values, float)
    if len(v) < 2:
        raise DomainError("need at least two epsilon steps")
    steps = v[1:] / v[:-1]
    monotone = bool(np.all(steps < 1.0))
    if shrink_mode == "cumulative":
        shrinking = monotone and (v[-1] / v[0] <= 1.0 - shrink_total)
    elif shrink_mode == "per_step":
        shrinking = monotone and bool(np.all(steps <= 1.0 - shrink_total))
    else:
        raise DomainError(f"unknown shrink_mode {shrink_mode!r}")
    if shrinking:
        return "SHRINKING"
    if abs(v[-1] - v[-2]) / max(abs(v[-2]), 1e-300) <= stable_tol:
        return "STABLE"
    return "MIXED"


# -- threshold sweep -----------------------------------------------------------

@dataclass
class SweepReport:
    rows: list = field(default_factory=list)            # per (dim, pin, eps)
    energy_rows: list = field(default_factory=list)     # per (dim, eps)
    verdicts: dict = field(default_factory=dict)        # dim -> verdict
    annotations: dict = field(default_factory=dict)     # dim -> exceptional bound etc.


def sweep_threshold(cfg: dict, seed: int | None = None, jobs: int = 1) -> SweepReport:
    """Pinned-set size trajectories across dimensions straddling (d+1)/2.

    For every target dimension and pin: the cs lower bound and support of the
    mollified pinned density along the epsilon schedule; per (dim, eps) the
    pin-averaged L2 energy and the integrated hinge count, whose pins' gaps
    are sorted once per dimension.  Verdicts classify the median-over-pins
    cs trajectory.  Module errors abort the affected cell only.
    """
    seed = cfg_int(cfg, "seed", 0) if seed is None else seed
    d = cfg_int(cfg, "d", 2)
    dims = cfg_floats(cfg, "dims", [1.0, 1.6, 1.8])
    if len(dims) < 2:
        raise ConfigError("sweep needs >= 2 target dims")
    eps_list = cfg_floats(cfg, "epsilons", [2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7])
    if len(eps_list) < 2:
        raise ConfigError("sweep needs >= 2 epsilon values")
    n_pins = cfg_int(cfg, "pins", 12)
    mc_samples = cfg_mc_samples(cfg)
    stable_tol = cfg_float(cfg, "stable_tol", 0.2)
    shrink_total = cfg_float(cfg, "shrink_total", 0.3)
    shrink_mode = cfg_str(cfg, "shrink_mode", "cumulative")
    hinge_pins = cfg_int(cfg, "hinge_pins", 48)
    if hinge_pins < 1:
        raise ConfigError("sweep needs hinge_pins >= 1")
    step_div = cfg_int(cfg, "t_step_divisor", 16)
    if step_div < 1:
        raise ConfigError(f"config key 't_step_divisor' must be >= 1, got {step_div}")

    report = SweepReport()
    threshold = (d + 1) / 2.0
    for dim in dims:
        report.annotations[dim] = {
            "threshold": threshold,
            "above_threshold": dim > threshold,
            "exceptional_bound": d + 1 - dim,
        }
        frac, mu = build_generator(cfg, seed, target_dim=dim)
        phi = build_phase(cfg, d)
        pins = draw_pins(cfg, mu, seed, n_pins)
        ref_vals = np.asarray(phi.value(pins[:, None, :], mu.points[None, :, :]))

        def cell(args, _mu=mu, _phi=phi, _ref=ref_vals, _dim=dim):
            pin_i, eps = args
            try:
                grid = default_t_grid(_ref, eps, step_div)
                nu = pinned_density(_mu, _phi, pins[pin_i], Mollifier(eps),
                                    t_grid=grid, mc_samples=mc_samples,
                                    seed=seed + 17 * pin_i)
                return {"dim": _dim, "pin": pin_i, "eps": eps,
                        "mass": density_mass(nu),
                        "cs_lower_bound": cs_lower_bound(nu),
                        "support": support_measure(nu),
                        "density": nu, "error": ""}
            except PinlabError as exc:
                return {"dim": _dim, "pin": pin_i, "eps": eps, "mass": math.nan,
                        "cs_lower_bound": math.nan, "support": math.nan,
                        "density": None, "error": str(exc)}

        tasks = [(pi, eps) for eps in eps_list for pi in range(len(pins))]
        cells = parallel_map(cell, tasks, jobs)
        for c in cells:
            row = {k: c[k] for k in ("dim", "pin", "eps", "mass",
                                     "cs_lower_bound", "support", "error")}
            report.rows.append(row)

        lam_idx = rng_for(seed, 10).choice(len(mu), size=min(hinge_pins, len(mu)),
                                           replace=False)
        lam, beta, t_nodes = hinge_setup(cfg, phi, mu, mu.points[lam_idx], ref_vals)
        lam_gaps = sort_gaps(lam, mu, phi)
        for eps in eps_list:
            dens = [c["density"] for c in cells if c["eps"] == eps and c["density"] is not None]
            energy = l2_energy(np.full(len(dens), 1.0 / len(dens)), dens) if dens else math.nan
            try:
                hinge = hinge_count_integrated(lam, mu, phi, beta, eps, t_nodes,
                                               sorted_gaps=lam_gaps)
            except PinlabError:
                hinge = math.nan
            report.energy_rows.append({"dim": dim, "eps": eps,
                                       "l2_energy": energy, "hinge_integrated": hinge})
        del lam_gaps    # (pins x atoms) x 2: free it before the next dim's densities

        series = []
        for eps in eps_list:
            vals = [c["cs_lower_bound"] for c in cells
                    if c["eps"] == eps and not math.isnan(c["cs_lower_bound"])]
            series.append(np.median(vals) if vals else math.nan)
        if any(math.isnan(s) for s in series):
            report.verdicts[dim] = "ERROR"
        else:
            report.verdicts[dim] = verdict_from_series(series, stable_tol,
                                                       shrink_total, shrink_mode)
    return report


# -- exceptional-set probe ------------------------------------------------------

@dataclass
class ProbeReport:
    rows: list = field(default_factory=list)        # per (eps, pin): support
    flagged_fraction: dict = field(default_factory=dict)   # eps -> fraction
    persistent_pins: list = field(default_factory=list)
    floor: float = 0.0


def exceptional_probe(cfg: dict, seed: int | None = None, jobs: int = 1) -> ProbeReport:
    """Empirical CDF of pinned-support estimates over many pins.

    Flags pins whose support estimate falls below the configured floor;
    persistent pins stay below the floor at every epsilon.  One task per pin
    draws its Monte Carlo sample once and deposits it at every epsilon; the
    rows come out by epsilon, then pin, whatever `jobs` is.
    """
    seed = cfg_int(cfg, "seed", 0) if seed is None else seed
    n_pins = cfg_int(cfg, "pins", 50)
    if n_pins < 50:
        raise ConfigError("exceptional_probe needs >= 50 pins")
    floor = cfg_float(cfg, "floor", 0.05)
    eps_list = cfg_floats(cfg, "epsilons", [2.0 ** -4, 2.0 ** -5, 2.0 ** -6])
    mc_samples = cfg_mc_samples(cfg)

    frac, mu = build_generator(cfg, seed)
    phi = build_phase(cfg, mu.d)
    pins = draw_pins(cfg, mu, seed, n_pins)
    report = ProbeReport(floor=floor)
    below = np.zeros(len(pins), dtype=int)

    def one(pin_i):
        # the pin's sample does not depend on eps: draw and group it once
        rows = monte_carlo_rows(mu, mc_samples, seed + 13 * pin_i) if mc_samples else None
        out = []
        for eps in eps_list:
            try:
                nu = pinned_density(mu, phi, pins[pin_i], Mollifier(eps),
                                    mc_samples=mc_samples, rows=rows)
                out.append((support_measure(nu), ""))
            except PinlabError as exc:
                out.append((math.nan, str(exc)))
        return out

    per_pin = parallel_map(one, range(len(pins)), jobs)
    for ei, eps in enumerate(eps_list):
        for pin_i, cells in enumerate(per_pin):
            sup, err = cells[ei]
            report.rows.append({"eps": eps, "pin": pin_i, "support": sup, "error": err})
    for eps in eps_list:
        sups = np.array([r["support"] for r in report.rows if r["eps"] == eps])
        flags = sups < floor
        report.flagged_fraction[eps] = float(np.mean(flags))
        below += flags.astype(int)
    report.persistent_pins = [int(i) for i in np.nonzero(below == len(eps_list))[0]]
    return report


# -- output & regression --------------------------------------------------------

def write_csv(path, header, rows) -> None:
    """Deterministic CSV: floats via repr, newline-normalized."""
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_manifest(out_dir, command: str, cfg: dict, seed: int) -> None:
    import scipy
    payload = {
        "command": command,
        "config": dict(sorted(cfg.items())),
        "seed": seed,
        "versions": {"pinlab": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    write_json(os.path.join(out_dir, "manifest.json"), payload)


def regression_check(out_dir, csv_names, freeze: bool, rtol: float = 1e-9) -> None:
    """Freeze or compare the run's CSVs against out_dir/golden copies.

    Comparison is numeric cell-by-cell at relative tolerance rtol; any
    mismatch raises RegressionMismatch carrying a diff table.  A golden/
    directory that lacks one of the CSVs raises it too, naming them.
    """
    golden_dir = os.path.join(out_dir, "golden")
    if freeze:
        os.makedirs(golden_dir, exist_ok=True)
        for name in csv_names:
            src = os.path.join(out_dir, name)
            with open(src) as fh:
                data = fh.read()
            with open(os.path.join(golden_dir, name), "w") as fh:
                fh.write(data)
        return
    if not os.path.isdir(golden_dir):
        return
    missing = [name for name in csv_names
               if not os.path.exists(os.path.join(golden_dir, name))]
    if missing:
        raise RegressionMismatch("golden file(s) missing: " + ", ".join(missing))
    diffs = []
    for name in csv_names:
        cur = _read_csv(os.path.join(out_dir, name))
        gold = _read_csv(os.path.join(golden_dir, name))
        if len(cur) != len(gold):
            diffs.append((name, "row count", len(gold), len(cur)))
            continue
        for ri, (crow, grow) in enumerate(zip(cur, gold)):
            for ci, (cv, gv) in enumerate(zip(crow, grow)):
                if _cell_differs(cv, gv, rtol):
                    diffs.append((f"{name}:{ri}:{ci}", "value", gv, cv))
    if diffs:
        lines = [f"  {loc}: {kind} golden={g!r} current={c!r}"
                 for loc, kind, g, c in diffs[:20]]
        raise RegressionMismatch(
            f"{len(diffs)} regression difference(s) vs golden:\n" + "\n".join(lines),
            diff_rows=diffs)


def _read_csv(path):
    with open(path) as fh:
        return [row for row in csv.reader(fh)]


def _cell_differs(cur: str, gold: str, rtol: float) -> bool:
    if cur == gold:
        return False
    try:
        a, b = float(cur), float(gold)
    except ValueError:
        return True
    if math.isnan(a) and math.isnan(b):
        return False
    return abs(a - b) > rtol * max(abs(a), abs(b), 1e-300)
