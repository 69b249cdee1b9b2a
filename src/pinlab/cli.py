"""Command-line front end.

Every subcommand reads a flat key=value config file, runs deterministically
from (config, seed), and writes CSV data plus a JSON summary and a manifest
into --out.  Exit codes: 0 success, 2 config/domain error, 3 resource
budget exceeded, 4 regression mismatch against frozen golden values.
"""

import argparse
import math
import os
import sys

import numpy as np

from .configs import (EdgeMap, config_count, hinge_count,
                      hinge_count_integrated, lift_t_assignment, pinned_lift,
                      save_edge_map, sort_gaps)
from .errors import (BudgetError, ConfigError, DomainError, PinlabError,
                     RegressionMismatch)
from .experiments import (build_generator, build_phase, exceptional_probe,
                          hinge_setup, load_config, parse_number, pin_table,
                          pinned_setup, read_key, regression_check,
                          sweep_threshold, write_csv, write_json,
                          write_manifest)
from .fractals import (probe_frostman_constant, save_cells, save_measure,
                       segment_measure)
from .harmonic import (LPPartition, energy_integral, freq_norms, oscillatory_G,
                       radon_sobolev_ratio, random_band_limited,
                       surface_measure_decay)
from .phases import build_cutoffs
from .pinned import (Mollifier, chain_density, cs_lower_bound, density_mass,
                     support_measure)


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pinlab",
                                description="pinned distance set laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("gen", "generate a fractal set and its natural measure"),
        ("pinned", "pinned density trajectories for drawn pins"),
        ("chain", "chain density for one pin"),
        ("hinge", "hinge counts over the epsilon schedule"),
        ("config-count", "edge-map configuration count"),
        ("fourier", "harmonic-analysis verification battery"),
        ("sweep", "threshold sweep across target dimensions"),
        ("probe", "exceptional-set probe over many pins"),
    ]:
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", required=True)
        q.add_argument("--seed", type=int, default=None)
        q.add_argument("--out", default="out")
        q.add_argument("--jobs", type=int, default=1)
        q.add_argument("--regression-freeze", action="store_true")
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        cfg = load_config(args.config)
        seed = read_key(cfg if args.seed is None else {"seed": str(args.seed)}, "seed")
        os.makedirs(args.out, exist_ok=True)
        handler = _COMMANDS[args.command]
        csv_names = handler(cfg, seed, args.out, args.jobs)
        write_manifest(args.out, args.command, cfg, seed)
        regression_check(args.out, csv_names, args.regression_freeze)
        return 0
    except RegressionMismatch as exc:
        print(f"regression mismatch: {exc}", file=sys.stderr)
        return 4
    except BudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PinlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_gen(cfg, seed, out, jobs):
    frac, mu = build_generator(cfg, seed)
    if frac is not None:
        save_cells(frac, os.path.join(out, "cells.txt"))
    save_measure(mu, os.path.join(out, "measure.csv"))
    # circle and uniform build no cell fractal, so neither constant nor
    # target dimension was measured for them
    write_json(os.path.join(out, "summary.json"), {
        "atoms": len(mu), "exponent_s": mu.exponent_s,
        "frostman_constant": probe_frostman_constant(mu, frac) if frac is not None else None,
        "target_dim": frac.target_dim if frac is not None else None,
    })
    return ["measure.csv"]


def cmd_pinned(cfg, seed, out, jobs):
    mu, pins, phi = pinned_setup(cfg, seed, read_key(cfg, "pins", "8"))
    eps_list = read_key(cfg, "epsilons", "2^-4 2^-5")
    table = pin_table(mu, pins, phi, eps_list,
                      lambda nu: (nu, [density_mass(nu), cs_lower_bound(nu),
                                       support_measure(nu), nu.mass_stderr]),
                      read_key(cfg, "mc_samples"), seed, 17, jobs=jobs)
    rows = []
    names = ["pinned_summary.csv"]
    for pi in range(len(pins)):
        for ei, eps in enumerate(eps_list):
            val, exc = table[ei][pi]
            if exc is not None:
                raise exc
            nu, summary = val
            rows.append([pi, eps] + summary)
            if pi == 0:
                name = f"density_pin{pi}_eps{ei}.csv"
                write_csv(os.path.join(out, name), ["t", "value", "stderr"],
                          [[float(t), float(v), float(s)] for t, v, s in
                           zip(nu.t_grid, nu.values, nu.stderr)])
                names.append(name)
    write_csv(os.path.join(out, "pinned_summary.csv"),
              ["pin", "eps", "mass", "cs_lower_bound", "support", "mass_stderr"], rows)
    return names


def cmd_chain(cfg, seed, out, jobs):
    mu, pins, phi = pinned_setup(cfg, seed, 1)
    k = read_key(cfg, "k")
    eps = read_key(cfg, "epsilon")
    nu = chain_density(mu, phi, pins[0], k, Mollifier(eps),
                       mc_samples=read_key(cfg, "mc_samples", "4096"), seed=seed)
    grid = np.meshgrid(*nu.t_axes, indexing="ij")
    flat = [g.ravel() for g in grid]
    rows = [list(map(float, tup)) + [float(v), float(s)]
            for *tup, v, s in zip(*flat, nu.values.ravel(), nu.stderr.ravel())]
    write_csv(os.path.join(out, "chain_density.csv"),
              [f"t{i + 1}" for i in range(k)] + ["value", "stderr"], rows)
    write_json(os.path.join(out, "summary.json"), {
        "k": k, "epsilon": eps, "mass": density_mass(nu),
        "mass_stderr": nu.mass_stderr, "support": support_measure(nu),
        "cs_lower_bound": cs_lower_bound(nu),
    })
    return ["chain_density.csv"]


def cmd_hinge(cfg, seed, out, jobs):
    mu, lam_pins, phi = pinned_setup(cfg, seed, read_key(cfg, "pins", "48"))
    eps_list = read_key(cfg, "epsilons", "2^-3 2^-4 2^-5")
    t_mid = read_key(cfg, "t")
    samples = read_key(cfg, "mc_samples")
    gaps = phi.value(lam_pins[:, None, :], mu.points[None, :, :])
    lam, beta, t_nodes = hinge_setup(phi, mu, lam_pins, gaps)
    sorted_gaps = sort_gaps(lam, mu, phi) if samples == 0 else None
    rows = []
    for eps in eps_list:
        single = hinge_count(lam, mu, phi, t_mid, eps, samples, seed, sorted_gaps)
        integ = hinge_count_integrated(lam, mu, phi, beta, eps, t_nodes, samples, seed,
                                       sorted_gaps)
        rows.append([eps, t_mid, single.count_normalized, single.stderr, integ])
    write_csv(os.path.join(out, "hinge.csv"),
              ["eps", "t", "count_normalized", "stderr", "integrated"], rows)
    return ["hinge.csv"]


def _parse_pair(tok, key):
    """An `i-j` vertex pair; anything else is a ConfigError."""
    try:
        i, j = (int(v) for v in tok.split("-"))
    except ValueError:
        raise ConfigError(f"config key {key!r}: bad vertex pair {tok!r}, "
                          "expected i-j") from None
    return i, j


def cmd_config_count(cfg, seed, out, jobs):
    frac, mu = build_generator(cfg, seed)
    phi = build_phase(cfg, mu.d, mu.points)
    edges = frozenset(_parse_pair(tok, "edges") for tok in read_key(cfg, "edges"))
    try:
        em = EdgeMap(max(max(e) for e in edges), edges)
    except DomainError as exc:
        raise ConfigError(f"config key 'edges': {exc}") from None
    t_map = {}
    for tok in read_key(cfg, "t_assignment"):
        pair, sep, val = tok.partition(":")
        if not sep:
            raise ConfigError(f"config key 't_assignment': bad token {tok!r}, "
                              "expected i-j:t")
        t_map[_parse_pair(pair, "t_assignment")] = parse_number(val, "t_assignment")
    eps_list = read_key(cfg, "epsilons", "2^-3")
    samples = read_key(cfg, "mc_samples")
    if read_key(cfg, "lift"):
        t_map = lift_t_assignment(em, t_map)
        em = pinned_lift(em)
        save_edge_map(em, os.path.join(out, "edge_map_lifted.txt"))
    rows = []
    for eps in eps_list:
        c = config_count(em, mu, phi, t_map, eps, samples, seed)
        rows.append([eps, c.count_normalized, c.stderr, c.samples, em.n_edges])
    write_csv(os.path.join(out, "config_counts.csv"),
              ["eps", "count_normalized", "stderr", "samples", "n_edges"], rows)
    return ["config_counts.csv"]


#: Band limit of the `radon` part's random fields.
RADON_BAND = 1.45


def cmd_fourier(cfg, seed, out, jobs):
    """Harmonic battery: LP partition, sphere decay, energy dichotomy,
    Radon Sobolev ratios, oscillatory decay.  `which` selects subsets."""
    which = read_key(cfg, "which")
    names = []
    if "lp" in which:
        side = read_key(cfg, "lp_side_n")
        j_max = read_key(cfg, "j_max", str(int(math.log2(side)) - 1))
        part = LPPartition(j_max)
        fn = freq_norms(2, side)
        sel = fn <= 2.0 ** (j_max - 1)
        dev = np.abs(part.partition_sum(fn[sel]) - 1.0)
        write_csv(os.path.join(out, "lp_partition.csv"),
                  ["j_max", "side_n", "max_abs_deviation"],
                  [[j_max, side, float(dev.max())]])
        names.append("lp_partition.csv")
    if "decay" in which:
        # stated table schema: (shell_or_eps, value, reference, pass); per-shell
        # rows carry the fitted power law as reference, the summary row
        # (shell_or_eps = 0) carries the fitted and theoretical slopes
        tol = {2: 0.05, 3: 0.1}
        for d in (2, 3):
            side = read_key(cfg, f"decay_side_n_d{d}")
            fit = surface_measure_decay(d, side)
            anchor = fit.shell_max[-1] / fit.shell_radii[-1] ** fit.slope
            rows = []
            for r, m in zip(fit.shell_radii, fit.shell_max):
                ref = anchor * r ** fit.slope
                rows.append([r, m, ref, int(0.5 <= m / ref <= 2.0)])
            expected = -(d - 1) / 2.0
            rows.append([0.0, fit.slope, expected,
                         int(abs(fit.slope - expected) <= tol[d] and not fit.flagged)])
            name = f"surface_decay_d{d}.csv"
            write_csv(os.path.join(out, name),
                      ["shell_or_eps", "value", "reference", "pass"], rows)
            names.append(name)
    if "energy" in which:
        lam = segment_measure(read_key(cfg, "segment_atoms"))
        side = read_key(cfg, "energy_side_n")
        gammas = read_key(cfg, "gammas")
        rows = [[gamma, res.fourier_value, res.kernel_value,
                 float(res.shell_increments[-1] / res.shell_increments[-2]),
                 float(res.shell_increments[-1] / res.shell_increments[0])]
                for gamma, res in zip(gammas, energy_integral(lam, np.array(gammas), side))]
        write_csv(os.path.join(out, "energy_shells.csv"),
                  ["gamma", "fourier_value", "kernel_value",
                   "last_over_prev", "last_over_first"], rows)
        names.append("energy_shells.csv")
    if "radon" in which:
        side = read_key(cfg, "radon_side_n")
        phi = build_phase(cfg, 2)
        eps_list = read_key(cfg, "epsilons", "2^-3 2^-4 2^-5 2^-6")
        fields = [random_band_limited(side, RADON_BAND, seed + fi)
                  for fi in range(read_key(cfg, "n_fields"))]
        rows_raw, summary = radon_sobolev_ratio(phi, None, read_key(cfg, "t"),
                                                eps_list, fields)
        rows = []
        for fi in sorted(summary):
            ratios = [r.ratio for r in rows_raw if r.field_index == fi]
            ref = min(ratios)
            for r in rows_raw:
                if r.field_index == fi:
                    rows.append([r.eps, r.ratio, ref, int(r.ratio / ref <= 2.0)])
            rows.append([0.0, summary[fi], 2.0, int(summary[fi] <= 2.0)])
        write_csv(os.path.join(out, "radon_ratios.csv"),
                  ["shell_or_eps", "value", "reference", "pass"], rows)
        names.append("radon_ratios.csv")
    if "osc" in which:
        phi = build_phase(cfg, 2)
        # plateau strictly inside the box so the integrand is compactly
        # supported; otherwise boundary terms spoil the decay
        cuts = build_cutoffs(phi, (0.15, 0.85), 0.05, (0.1, 1.0))
        # (j, k, s): the matched triple, then the separated ones, in one call
        triples = [(2, 2, 4.0), (0, 4, 1.0), (4, 0, 1.0), (0, 4, 2.0)]
        quad_n = read_key(cfg, "quad_n")
        vals = np.abs(oscillatory_G(phi, cuts.psi, np.array([s for _, _, s in triples]),
                                    np.array([[2.0 ** k, 0.0] for _, k, _ in triples]),
                                    np.array([[2.0 ** j, 0.0] for j, _, _ in triples]),
                                    quad_n=quad_n))
        if vals[0] == 0:    # too few nodes: none, or no pair, inside the cutoff
            raise ConfigError(f"config key 'quad_n': the matched |G| is 0 at quad_n = "
                              f"{quad_n}, so the ratios to it are undefined")
        rows = [[j, k, s, v, v / vals[0]] for (j, k, s), v in zip(triples, vals)]
        write_csv(os.path.join(out, "oscillatory_decay.csv"),
                  ["j", "k", "s", "abs_G", "ratio_to_matched"], rows)
        names.append("oscillatory_decay.csv")
    return names


def cmd_sweep(cfg, seed, out, jobs):
    report = sweep_threshold(cfg, seed, jobs)
    write_csv(os.path.join(out, "sweep_rows.csv"),
              ["dim", "pin", "eps", "mass", "cs_lower_bound", "support", "error"],
              [[r["dim"], r["pin"], r["eps"], r["mass"], r["cs_lower_bound"],
                r["support"], r["error"]] for r in report.rows])
    write_csv(os.path.join(out, "sweep_energies.csv"),
              ["dim", "eps", "l2_energy", "hinge_integrated"],
              [[r["dim"], r["eps"], r["l2_energy"], r["hinge_integrated"]]
               for r in report.energy_rows])
    write_json(os.path.join(out, "summary.json"), {
        "verdicts": {repr(k): v for k, v in report.verdicts.items()},
        "annotations": {repr(k): v for k, v in report.annotations.items()},
    })
    return ["sweep_rows.csv", "sweep_energies.csv"]


def cmd_probe(cfg, seed, out, jobs):
    report = exceptional_probe(cfg, seed, jobs)
    write_csv(os.path.join(out, "probe_rows.csv"),
              ["eps", "pin", "support", "error"],
              [[r["eps"], r["pin"], r["support"], r["error"]] for r in report.rows])
    write_json(os.path.join(out, "summary.json"), {
        "floor": report.floor,
        "flagged_fraction": {repr(k): v for k, v in report.flagged_fraction.items()},
        "persistent_pins": report.persistent_pins,
    })
    return ["probe_rows.csv"]


_COMMANDS = {
    "gen": cmd_gen,
    "pinned": cmd_pinned,
    "chain": cmd_chain,
    "hinge": cmd_hinge,
    "config-count": cmd_config_count,
    "fourier": cmd_fourier,
    "sweep": cmd_sweep,
    "probe": cmd_probe,
}


if __name__ == "__main__":
    sys.exit(main())
