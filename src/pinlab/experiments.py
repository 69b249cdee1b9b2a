"""Experiment orchestration: configs, threshold sweeps, exceptional-set probes.

Configuration files are flat `key = value` text (one key per line, `#`
comments); `KEYS` gives every key's kind, domain and default, and `read_key`
reads them.  Every run echoes its resolved configuration, seed, and library
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


@dataclass(frozen=True)
class Key:
    """One config key: how its text is read, which values it takes and the
    config text that stands in when it is missing (None: none)."""
    kind: str                   # int, float, numbers, word or words
    domain: str                 # "[lo, hi)"-style interval, or the allowed words
    default: str | None = None
    least: int = 1              # fewest values of a list


#: Every key the package reads.  A number must lie in its interval (an open
#: infinite end admits every finite value; below 2^53 every integer parses
#: exactly); a word must be one of the listed words, or anything when the
#: domain is "any".  Lists are space- or comma-separated.
KEYS = {
    "seed": Key("int", "[0, 2^53)", "0"),
    "regression_rtol": Key("float", "[0, inf)", "1e-9"),
    "generator": Key("word", "product_cantor subdivision uniform circle", "product_cantor"),
    "d": Key("int", "[1, inf)", "2"),
    "level": Key("int", "[1, inf)", "5"),
    "ratio_a": Key("float", "(0, 0.5)"),
    "target_dim": Key("float", "(0, inf)"),
    "base_b": Key("int", "[2, inf)", "2"),
    "keep_m": Key("int", "[1, inf)", "3"),
    "per_side": Key("int", "[1, inf)", "32"),
    "box_lo": Key("float", "(-inf, inf)", "0"),
    "box_hi": Key("float", "(-inf, inf)", "1"),
    "n_atoms": Key("int", "[1, inf)", "512"),
    "radius": Key("float", "(0, inf)", "0.25"),
    "phase": Key("word", "euclidean scaled_euclidean dot_product flat_torus "
                 "sphere_geodesic_chart", "euclidean"),
    "phase_factor": Key("float", "(-inf, inf)", "3"),
    "cap_radius": Key("float", "(0, 1)", "0.75"),
    "pin_policy": Key("word", "mu fixed", "mu"),
    "pin": Key("numbers", "(-inf, inf)"),
    "pins": Key("int", "[1, inf)"),
    "epsilons": Key("numbers", "(0, inf)"),
    "mc_samples": Key("int", "[0, inf)", "0"),
    "write_densities": Key("word", "any", "first"),
    "k": Key("int", "[1, inf)", "2"),
    "epsilon": Key("float", "(0, inf)", "2^-3"),
    "t": Key("float", "(0, inf)", "0.5"),
    "hinge_t_nodes": Key("int", "[2, inf)", "96"),
    "edges": Key("words", "any"),
    "vertices": Key("int", "[1, inf)"),
    "t_assignment": Key("words", "any"),
    "lift": Key("int", "[0, 1]", "0"),
    "which": Key("words", "lp decay energy radon osc", "lp decay energy"),
    "lp_side_n": Key("int", "[2, inf)", "256"),
    "j_max": Key("int", "[0, 1023]"),
    "decay_side_n_d2": Key("int", "[16, inf)", "512"),
    "decay_side_n_d3": Key("int", "[16, inf)", "128"),
    "segment_atoms": Key("int", "[1, inf)", "4096"),
    "energy_side_n": Key("int", "[16, inf)", "512"),
    "gammas": Key("numbers", "(0, 2)", "1.2 0.8"),
    "radon_side_n": Key("int", "[1, inf)", "128"),
    "radon_band": Key("float", "(0, inf)", "1.45"),
    "n_fields": Key("int", "[1, inf)", "5"),
    "quad_n": Key("int", "[1, 64]", "48"),
    "dims": Key("numbers", "(0, inf)", "1.0 1.6 1.8", least=2),
    "hinge_pins": Key("int", "[1, inf)", "48"),
    "t_step_divisor": Key("int", "[2, inf)", "16"),
    "stable_tol": Key("float", "[0, inf)", "0.2"),
    "shrink_total": Key("float", "[0, 1)", "0.3"),
    "shrink_mode": Key("word", "cumulative per_step", "cumulative"),
    "floor": Key("float", "[0, inf)", "0.05"),
}


def load_config(path) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        cfg = parse_config_text(fh.read())
    for key in cfg:
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    return cfg


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


def read_key(cfg, key, default=None):
    """Config `key` read by its KEYS row, `default` (config text) replacing the
    row's: one value, or a list for the kinds numbers and words.  A missing
    key, too few values or one outside the domain is a ConfigError naming it."""
    row = KEYS[key]
    text = cfg.get(key, row.default if default is None else default)
    if text is None:
        raise ConfigError(f"missing config key {key!r}")
    many = row.kind in ("numbers", "words")
    toks = text.replace(",", " ").split() if many else [text]
    if len(toks) < row.least:
        raise ConfigError(f"config key {key!r} needs at least {row.least} "
                          f"value(s), got {len(toks)}")
    vals = [_read_token(row, key, tok) for tok in toks]
    return vals if many else vals[0]


def _read_token(row: Key, key: str, tok: str):
    if row.kind in ("word", "words"):
        if row.domain == "any" or tok in row.domain.split():
            return tok
        raise ConfigError(f"config key {key!r} must be one of {row.domain}, got {tok!r}")
    val = parse_number(tok, key)
    lo, hi = (parse_number(end, key) for end in row.domain[1:-1].split(","))
    if ((lo < val) if row.domain[0] == "(" else (lo <= val)) and \
            ((val < hi) if row.domain[-1] == ")" else (val <= hi)) and \
            (row.kind != "int" or val.is_integer()):
        return int(val) if row.kind == "int" else val
    what = "an integer" if row.kind == "int" else "a number"
    raise ConfigError(f"config key {key!r} must be {what} in {row.domain}, got {tok!r}")


def build_phase(cfg, d: int, *points):
    """The configured phase in dimension d, its domain checked once on each
    (n, d) array of `points` it will be evaluated on (a sphere chart's cap
    must hold them all)."""
    kind = read_key(cfg, "phase")
    params = {}
    if kind == "scaled_euclidean":
        params["factor"] = read_key(cfg, "phase_factor")
        if params["factor"] == 0:     # an interval cannot say "nonzero"
            raise ConfigError(f"config key 'phase_factor' must be nonzero, "
                              f"got {cfg['phase_factor']!r}")
    if kind == "sphere_geodesic_chart":
        params["cap_radius"] = read_key(cfg, "cap_radius")
    phi = phase_function(kind, d, **params)
    for p in points:
        phi.check_domain(p, p)
    return phi


def build_generator(cfg, seed: int, target_dim: float | None = None):
    """(CellFractal | None, FrostmanMeasure) per the generator spec in the config."""
    d = read_key(cfg, "d")
    family = read_key(cfg, "generator")
    if family == "circle":
        return None, circle_measure(read_key(cfg, "n_atoms"), radius=read_key(cfg, "radius"))
    if family == "uniform":
        return None, uniform_grid_measure(d, read_key(cfg, "per_side"),
                                          read_key(cfg, "box_lo"), read_key(cfg, "box_hi"))
    level = read_key(cfg, "level")
    if family == "product_cantor":
        if target_dim is None and "ratio_a" in cfg:
            a = read_key(cfg, "ratio_a")
        else:
            dim = target_dim if target_dim is not None else read_key(cfg, "target_dim")
            if dim >= d:
                frac = build_subdivision_fractal(d, 2, 2 ** d, level, seed)
                return frac, natural_measure(frac)
            a = 2.0 ** (-d / dim)
        frac = build_product_cantor(d, a, level)
    else:   # subdivision
        frac = build_subdivision_fractal(d, read_key(cfg, "base_b"),
                                         read_key(cfg, "keep_m"), level, seed)
    return frac, natural_measure(frac)


def hinge_setup(cfg, phi, mu: FrostmanMeasure, lam_points, gaps):
    """(lam, beta, t_nodes) of an integrated hinge count: the uniform pin
    measure on lam_points, and the plateau beta over the range of the
    observed `gaps` with `hinge_t_nodes` t-nodes reaching 0.05 past it."""
    n_t = read_key(cfg, "hinge_t_nodes")
    lam = FrostmanMeasure(lam_points, np.full(len(lam_points), 1.0 / len(lam_points)),
                          exponent_s=mu.exponent_s)
    t_lo, t_hi = float(np.min(gaps)), float(np.max(gaps))
    beta = build_cutoffs(phi, (0.0, 1.0), 0.05, (t_lo, t_hi)).beta
    t_nodes = np.linspace(t_lo - 0.05, t_hi + 0.05, n_t)
    return lam, beta, t_nodes


def draw_pins(cfg, mu: FrostmanMeasure, seed: int, count: int):
    """Pin set per policy: distinct weight-biased atoms of mu, or a fixed point."""
    if read_key(cfg, "pin_policy") == "fixed":
        coords = read_key(cfg, "pin")
        if len(coords) != mu.d:
            raise ConfigError(f"config key 'pin' needs d = {mu.d} coordinates, got {len(coords)}")
        return np.tile(np.asarray(coords, float), (count, 1))
    rng = rng_for(seed, 9)
    count = min(count, len(mu))
    idx = rng.choice(len(mu), size=count, replace=False, p=mu.weights)
    return mu.points[idx]


def pinned_setup(cfg, seed: int, count: int, target_dim: float | None = None):
    """(mu, pins, phi) of a pinned run: the configured measure, `count` pins
    drawn from it per policy and the phase, its domain checked on both."""
    _, mu = build_generator(cfg, seed, target_dim)
    pins = draw_pins(cfg, mu, seed, count)
    return mu, pins, build_phase(cfg, mu.d, pins, mu.points)


def pin_table(mu, pins, phi, eps_list, measure, mc_samples: int, seed: int,
              stride: int, grid=None, jobs: int = 1):
    """Cells [eps index][pin index] of `(measure(nu), None)`, nu the pin's
    pinned density at eps on `grid(eps)` (default: its own grid), or of
    `(None, exc)` when a PinlabError aborts the cell.

    One task per pin draws its Monte Carlo sample once, with seed
    `seed + stride * pin`, and deposits it at every eps; the cells come out
    the same whatever `jobs` is.
    """
    def one(pin_i):
        rows = monte_carlo_rows(mu, mc_samples, seed + stride * pin_i) if mc_samples else None
        out = []
        for eps in eps_list:
            try:
                nu = pinned_density(mu, phi, pins[pin_i], Mollifier(eps),
                                    t_grid=None if grid is None else grid(eps),
                                    mc_samples=mc_samples, rows=rows)
                out.append((measure(nu), None))
            except PinlabError as exc:
                out.append((None, exc))
        return out

    per_pin = parallel_map(one, range(len(pins)), jobs)
    return [[cells[ei] for cells in per_pin] for ei in range(len(eps_list))]


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
    are sorted once per dimension.  Each dimension runs one `pin_table`;
    rows come out by epsilon, then pin.  Verdicts classify the
    median-over-pins cs trajectory.  Module errors abort the affected cell
    only, and the energy averages the pins whose cell survived.  Only the
    product Cantor set is built on the target dimension, so any other
    generator is a ConfigError.
    """
    seed = read_key(cfg, "seed") if seed is None else seed
    family = read_key(cfg, "generator")
    if family != "product_cantor":
        raise ConfigError(f"config key 'generator' must be product_cantor in a sweep, "
                          f"got {family!r}")
    d = read_key(cfg, "d")
    dims = read_key(cfg, "dims")
    eps_list = read_key(cfg, "epsilons", "2^-4 2^-5 2^-6 2^-7")
    if len(eps_list) < 2:
        raise ConfigError(f"config key 'epsilons' needs at least 2 values in a sweep, "
                          f"got {len(eps_list)}")
    n_pins = read_key(cfg, "pins", "12")
    mc_samples = read_key(cfg, "mc_samples")
    rule = [read_key(cfg, k) for k in ("stable_tol", "shrink_total", "shrink_mode")]
    hinge_pins = read_key(cfg, "hinge_pins")
    step_div = read_key(cfg, "t_step_divisor")

    report = SweepReport()
    threshold = (d + 1) / 2.0
    for dim in dims:
        report.annotations[dim] = {
            "threshold": threshold,
            "above_threshold": dim > threshold,
            "exceptional_bound": d + 1 - dim,
        }
        mu, pins, phi = pinned_setup(cfg, seed, n_pins, target_dim=dim)
        ref_vals = np.asarray(phi.value(pins[:, None, :], mu.points[None, :, :]))
        table = pin_table(mu, pins, phi, eps_list,
                          lambda nu: (nu, density_mass(nu), cs_lower_bound(nu),
                                      support_measure(nu)),
                          mc_samples, seed, 17, jobs=jobs,
                          grid=lambda eps: default_t_grid(ref_vals, eps, step_div))

        lam_idx = rng_for(seed, 10).choice(len(mu), size=min(hinge_pins, len(mu)),
                                           replace=False)
        lam, beta, t_nodes = hinge_setup(cfg, phi, mu, mu.points[lam_idx], ref_vals)
        lam_gaps = sort_gaps(lam, mu, phi)
        series = []
        for eps, cells in zip(eps_list, table):
            for pin_i, (val, exc) in enumerate(cells):
                _, mass, cs, sup = val or (None, math.nan, math.nan, math.nan)
                report.rows.append({"dim": dim, "pin": pin_i, "eps": eps, "mass": mass,
                                    "cs_lower_bound": cs, "support": sup,
                                    "error": str(exc or "")})
            dens = [val[0] for val, _ in cells if val]
            energy = l2_energy(np.full(len(dens), 1.0 / len(dens)), dens) if dens else math.nan
            try:
                hinge = hinge_count_integrated(lam, mu, phi, beta, eps, t_nodes,
                                               sorted_gaps=lam_gaps)
            except PinlabError:
                hinge = math.nan
            report.energy_rows.append({"dim": dim, "eps": eps,
                                       "l2_energy": energy, "hinge_integrated": hinge})
            cs_vals = [val[2] for val, _ in cells if val and not math.isnan(val[2])]
            series.append(np.median(cs_vals) if cs_vals else math.nan)
        del lam_gaps    # (pins x atoms) x 2: free it before the next dim's densities

        if any(math.isnan(s) for s in series):
            report.verdicts[dim] = "ERROR"
        else:
            report.verdicts[dim] = verdict_from_series(series, *rule)
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
    persistent pins stay below the floor at every epsilon.  A failed cell
    (its error kept in the row) is neither flagged nor counted: the flagged
    fraction is over the cells measured, NaN when none was.  The rows are
    those of one `pin_table`, by epsilon, then pin.
    """
    seed = read_key(cfg, "seed") if seed is None else seed
    n_pins = read_key(cfg, "pins", "50")
    floor = read_key(cfg, "floor")
    eps_list = read_key(cfg, "epsilons", "2^-4 2^-5 2^-6")
    mc_samples = read_key(cfg, "mc_samples")

    mu, pins, phi = pinned_setup(cfg, seed, n_pins)
    if len(pins) < 50:      # mu pins are distinct atoms: at most len(mu) of them
        raise ConfigError(f"config key 'pins' gives {len(pins)} pins ({n_pins} asked, "
                          f"{len(mu)} atoms); a probe needs at least 50")
    table = pin_table(mu, pins, phi, eps_list, support_measure, mc_samples, seed, 13,
                      jobs=jobs)
    report = ProbeReport(floor=floor)
    below = np.zeros(len(pins), dtype=int)
    for eps, cells in zip(eps_list, table):
        rows = [{"eps": eps, "pin": pin_i, "support": math.nan if exc else sup,
                 "error": str(exc or "")} for pin_i, (sup, exc) in enumerate(cells)]
        report.rows += rows
        measured = np.array([exc is None for _, exc in cells])
        flags = measured & (np.array([r["support"] for r in rows]) < floor)
        report.flagged_fraction[eps] = (float(np.mean(flags[measured])) if measured.any()
                                        else math.nan)
        below += flags
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
    payload = {
        "command": command,
        "config": dict(sorted(cfg.items())),
        "seed": seed,
        "versions": {"pinlab": __version__, "numpy": np.__version__},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    write_json(os.path.join(out_dir, "manifest.json"), payload)


def regression_check(out_dir, csv_names, freeze: bool, rtol: float = 1e-9) -> None:
    """Freeze or compare the run's CSVs against out_dir/golden copies.

    Comparison is numeric cell-by-cell at relative tolerance rtol; any
    mismatch, or a row or column count that differs, raises
    RegressionMismatch carrying a diff table.  A golden/
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
            if len(crow) != len(grow):
                diffs.append((f"{name}:{ri}", "column count", len(grow), len(crow)))
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
