"""The benchmark's workloads: CLI steps, their configs and output checks.

Each workload is a list of `pinlab` CLI steps run in one process.  Configs
carry no seed: the workload seed reaches the program only through `--seed`.
An operation is one sweep (dim, pin, eps) cell, one probe (pin, eps) cell,
one config-count eps row, or one other subcommand; a step that fails a
check fails all of its operations.

There are two workloads, not one per step group, so that each run can
measure for 60 s within the time allowed for all runs: on a shared
two-core machine whose speed drifts by 10-20% over minutes, 20-30 s runs
spread too far between seeds.  The split keeps the layers apart:
`sweep-probe` runs every pinned density and never reaches `harmonic` or
`configs.config_count`; `fourier-counts` runs the harmonic battery and the
configuration counts and never reaches `pinned_density`.
"""

import csv
import json
import os
from typing import NamedTuple

#: The seed whose outputs are stored as reference CSVs under `golden/`.
DEFAULT_SEED = 7


class Step(NamedTuple):
    name: str            # output directory, and key of its reference CSVs
    command: str         # pinlab subcommand
    config: str          # config file text
    ops: int             # operations this step attempts
    rows_file: str = ""  # CSV holding one data row per operation
    jobs: int = 1        # --jobs; times one BLAS thread, at most nproc = 2


# The README's threshold sweep: the paper's headline experiment, run on one
# thread as the plain baseline.  Exact pinned densities dominate (~85%), the
# integrated hinge count's window masses take most of the rest.
SWEEP = """\
d = 2
dims = 1.0 1.6 1.8
epsilons = 2^-4 2^-5 2^-6 2^-7
level = 6
pins = 12
"""

# The same pinned-density layer in Monte Carlo mode on a random subdivision
# fractal (3^6 = 729 atoms), spread over a two-thread pool.
PROBE_MC = """\
d = 2
generator = subdivision
base_b = 2
keep_m = 3
level = 6
pins = 60
epsilons = 2^-4 2^-5 2^-6
mc_samples = 4096
"""

# The harmonic battery: Radon operator, energy deposit and FFT, oscillatory
# integral.  It never reaches configs or pinned_density.
FOURIER = """\
which = lp decay energy radon osc
radon_side_n = 96
epsilons = 2^-4 2^-5
n_fields = 5
segment_atoms = 4096
energy_side_n = 512
"""

# Configuration contraction: an exhaustive star on 14^2 = 196 grid atoms
# (196^3 = 7.5M tuples) ...
CONFIG_STAR = """\
d = 2
generator = uniform
per_side = 14
edges = 1-2 1-3
t_assignment = 1-2:0.5 1-3:0.5
epsilons = 2^-3 2^-4 2^-5 2^-6
"""

# ... the pinned lift of a 2-path on 25 atoms (25^5 = 9.8M tuples) ...
CONFIG_LIFT = """\
d = 2
generator = uniform
per_side = 5
edges = 1-2 2-3
t_assignment = 1-2:0.5 2-3:0.5
lift = 1
epsilons = 2^-3
"""

# ... and the k = 2 chain density on the level-5 product Cantor set
# (1024 atoms), exact and by Monte Carlo.
CHAIN = """\
d = 2
generator = product_cantor
target_dim = 1.6
level = 5
k = 2
epsilon = 2^-3
mc_samples = {samples}
"""

WORKLOADS = {
    "sweep-probe": (
        Step("sweep", "sweep", SWEEP, 3 * 12 * 4, "sweep_rows.csv"),
        Step("probe", "probe", PROBE_MC, 60 * 3, "probe_rows.csv", jobs=2),
    ),
    "fourier-counts": (
        Step("fourier", "fourier", FOURIER, 1),
        Step("star", "config-count", CONFIG_STAR, 4, "config_counts.csv"),
        Step("lift", "config-count", CONFIG_LIFT, 1, "config_counts.csv"),
        Step("chain-exact", "chain", CHAIN.format(samples=0), 1),
        Step("chain-mc", "chain", CHAIN.format(samples=16384), 1),
    ),
}

#: Sweep verdicts at DEFAULT_SEED: the (d+1)/2 = 1.5 threshold separates them.
SWEEP_VERDICTS = {"1.0": "SHRINKING", "1.6": "STABLE", "1.8": "STABLE"}


def _rows(out_dir, name):
    with open(os.path.join(out_dir, name), newline="") as fh:
        return list(csv.DictReader(fh))


def check_step(step, out_dir, seed):
    """Problems found in one step's outputs, as strings; empty when correct.

    Every step must write one row per operation and leave the `error`
    column empty; exact sweep rows must conserve mass to 1e-6 and satisfy
    the literal Cauchy-Schwarz bound cs_lower_bound <= support.
    """
    if not step.rows_file:
        return []
    rows = _rows(out_dir, step.rows_file)
    problems = []
    if len(rows) != step.ops:
        problems.append(f"{step.rows_file}: {len(rows)} rows, expected {step.ops}")
    errors = [r["error"] for r in rows if r.get("error")]
    if errors:
        problems.append(f"{step.rows_file}: {len(errors)} error rows, first: {errors[0]}")
    if step.command == "sweep":
        for r in rows:
            mass, cs, sup = (float(r[k]) for k in ("mass", "cs_lower_bound", "support"))
            if not abs(mass - 1.0) <= 1e-6 or not cs <= sup:
                problems.append(f"sweep row {r['dim']}/{r['pin']}/{r['eps']}: "
                                f"mass {mass}, cs_lower_bound {cs}, support {sup}")
        if seed == DEFAULT_SEED:
            with open(os.path.join(out_dir, "summary.json")) as fh:
                verdicts = json.load(fh)["verdicts"]
            if verdicts != SWEEP_VERDICTS:
                problems.append(f"sweep verdicts {verdicts}, expected {SWEEP_VERDICTS}")
    return problems


def output_files(out_dir):
    """The step's deterministic outputs: every CSV and summary.json."""
    return sorted(n for n in os.listdir(out_dir)
                  if n.endswith(".csv") or n == "summary.json")

