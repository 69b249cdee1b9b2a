import glob
import json
import os
import re
import subprocess
import sys
from unittest import mock

import pytest

import pinlab

from pinlab import (ConfigError, DomainError, Mollifier, pinned_density,
                    support_measure, verdict_from_series)
from pinlab import experiments
from pinlab.cli import main as cli_main
from pinlab.experiments import (build_generator, build_phase, cfg_float,
                                cfg_floats, cfg_int, draw_pins,
                                exceptional_probe, parse_config_text,
                                sweep_threshold)


def test_parse_config_text():
    cfg = parse_config_text("""
# comment line
phase = euclidean
level = 5            # trailing comment
epsilons = 2^-3 2^-4
ratio_a = 0.25
""")
    assert cfg["phase"] == "euclidean"
    assert cfg_int(cfg, "level") == 5
    assert cfg_floats(cfg, "epsilons") == [0.125, 0.0625]
    assert cfg_float(cfg, "ratio_a") == 0.25
    assert cfg_float(cfg, "missing", 1.5) == 1.5
    with pytest.raises(ConfigError):
        cfg_float(cfg, "missing")
    with pytest.raises(ConfigError):
        parse_config_text("just a line without equals")
    with pytest.raises(ConfigError):
        cfg_int(parse_config_text("level = 2.5"), "level")


def test_verdict_rule_pure_function():
    assert verdict_from_series([1.0, 0.9, 0.85, 0.84]) == "STABLE"
    assert verdict_from_series([1.0, 0.8, 0.65, 0.55]) == "SHRINKING"
    # monotone but shallow: neither shrinking (cumulative < 30%) nor unstable
    assert verdict_from_series([1.0, 0.95, 0.91, 0.88]) == "STABLE"
    # non-monotone with a big last step
    assert verdict_from_series([1.0, 1.4, 0.9]) == "MIXED"
    # per-step mode requires every step to lose 30%
    assert verdict_from_series([1.0, 0.65, 0.42], shrink_mode="per_step") == "SHRINKING"
    assert verdict_from_series([1.0, 0.8, 0.55], shrink_mode="per_step") == "MIXED"
    with pytest.raises(DomainError):
        verdict_from_series([1.0])
    with pytest.raises(DomainError):
        verdict_from_series([1.0, 0.5], shrink_mode="nope")


def sweep_cfg(**over):
    cfg = {"d": "2", "dims": "1.0 1.8", "epsilons": "2^-3 2^-4 2^-5",
           "level": "4", "pins": "4", "seed": "3"}
    cfg.update({k: str(v) for k, v in over.items()})
    return cfg


def test_sweep_structure_and_annotations():
    rep = sweep_threshold(sweep_cfg())
    assert set(rep.verdicts) == {1.0, 1.8}
    assert rep.annotations[1.8]["exceptional_bound"] == pytest.approx(1.2)
    assert rep.annotations[1.8]["above_threshold"] is True
    assert rep.annotations[1.0]["above_threshold"] is False
    assert len(rep.rows) == 2 * 4 * 3
    assert len(rep.energy_rows) == 2 * 3
    for r in rep.rows:
        if not r["error"]:
            assert r["mass"] == pytest.approx(1.0, abs=1e-6)


def test_sweep_error_cells_isolated():
    # t_step_divisor = 1 makes dt = eps > eps/2: every cell fails, sweep survives
    rep = sweep_threshold(sweep_cfg(t_step_divisor=1))
    assert all(r["error"] for r in rep.rows)
    assert all(v == "ERROR" for v in rep.verdicts.values())


def test_sweep_precondition_errors():
    with pytest.raises(ConfigError):
        sweep_threshold(sweep_cfg(dims="1.5"))
    with pytest.raises(ConfigError):
        sweep_threshold(sweep_cfg(epsilons="2^-3"))


def test_sweep_verdicts_rederivable_from_rows():
    # the verdict is a pure function of the report rows
    import numpy as np
    from pinlab import verdict_from_series
    rep = sweep_threshold(sweep_cfg())
    for dim, verdict in rep.verdicts.items():
        by_eps = {}
        for r in rep.rows:
            if r["dim"] == dim and not r["error"]:
                by_eps.setdefault(r["eps"], []).append(r["cs_lower_bound"])
        series = [float(np.median(by_eps[e])) for e in sorted(by_eps, reverse=True)]
        assert verdict_from_series(series) == verdict


def test_sweep_jobs_invariance():
    r1 = sweep_threshold(sweep_cfg(), jobs=1)
    r2 = sweep_threshold(sweep_cfg(), jobs=4)
    for a, b in zip(r1.rows, r2.rows):
        assert a == b
    assert r1.verdicts == r2.verdicts


def test_sweep_sorts_hinge_gaps_once_per_dim_with_per_eps_values():
    # every hoisted count equals a call that sorts its own gaps, bit for bit
    cfg = sweep_cfg()
    calls, sorts = [], []
    hinge, sort = experiments.hinge_count_integrated, experiments.sort_gaps

    def spy_hinge(*args, **kwargs):
        calls.append((args, kwargs, hinge(*args, **kwargs)))
        return calls[-1][2]

    def spy_sort(*args):
        sorts.append(args)
        return sort(*args)

    with mock.patch.object(experiments, "hinge_count_integrated", spy_hinge), \
            mock.patch.object(experiments, "sort_gaps", spy_sort):
        rep = sweep_threshold(cfg)
    assert len(sorts) == 2 and len(calls) == 2 * 3
    for args, kwargs, value in calls:
        assert kwargs.pop("sorted_gaps") is not None
        assert hinge(*args, **kwargs) == value
    assert [r["hinge_integrated"] for r in rep.energy_rows] == [c[2] for c in calls]


def probe_cfg(**over):
    cfg = {"generator": "circle", "n_atoms": "256", "d": "2",
           "pin_policy": "fixed", "pin": "0.5 0.5", "pins": "50",
           "epsilons": "2^-6 2^-7", "floor": "0.1", "seed": "3"}
    cfg.update({k: str(v) for k, v in over.items()})
    return cfg


def test_probe_circle_toy_flags_everything():
    rep = exceptional_probe(probe_cfg())
    # every pin sits at the center: the pinned set is the single value 1/4
    assert all(v == 1.0 for v in rep.flagged_fraction.values())
    assert len(rep.persistent_pins) == 50


def test_probe_lebesgue_square_flags_nothing():
    cfg = probe_cfg(generator="uniform", per_side="24", pin_policy="mu",
                    floor="0.1", epsilons="2^-5 2^-6")
    rep = exceptional_probe(cfg)
    assert all(v == 0.0 for v in rep.flagged_fraction.values())
    assert rep.persistent_pins == []


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("mc_samples", [0, 300])
def test_probe_rows_equal_per_pin_and_eps_densities(jobs, mc_samples):
    # one task per pin draws its sample once; the rows are still those of
    # one pinned_density call per (pin, eps), in eps-then-pin order
    cfg = probe_cfg(generator="subdivision", base_b="2", keep_m="3", level="4",
                    pin_policy="mu", epsilons="2^-4 2^-5 2^-6",
                    mc_samples=mc_samples)
    rep = exceptional_probe(cfg, seed=7, jobs=jobs)
    _, mu = build_generator(cfg, 7)
    phi = build_phase(cfg, mu.d)
    pins = draw_pins(cfg, mu, 7, 50)
    want = [{"eps": eps, "pin": pi, "error": "",
             "support": support_measure(pinned_density(
                 mu, phi, pins[pi], Mollifier(eps), mc_samples=mc_samples,
                 seed=7 + 13 * pi))}
            for eps in cfg_floats(cfg, "epsilons") for pi in range(len(pins))]
    assert rep.rows == want
    assert len({r["support"] for r in rep.rows}) > 10


def test_probe_needs_fifty_pins():
    with pytest.raises(ConfigError):
        exceptional_probe(probe_cfg(pins="10"))


def write_cfg(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


PINNED_CFG = """
generator = product_cantor
d = 2
ratio_a = 0.3333333333333333
level = 4
phase = euclidean
pins = 3
epsilons = 2^-4 2^-5
seed = 11
"""


def test_cli_pinned_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "p.cfg", PINNED_CFG)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert cli_main(["pinned", "--config", cfg, "--out", out1]) == 0
    assert cli_main(["pinned", "--config", cfg, "--out", out2]) == 0
    for name in ("pinned_summary.csv", "density_pin0_eps0.csv"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b
    man = json.load(open(os.path.join(out1, "manifest.json")))
    assert man["command"] == "pinned" and man["seed"] == 11
    assert set(man["versions"]) == {"pinlab", "numpy", "scipy"}


def test_cli_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, "p.cfg", PINNED_CFG)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert cli_main(["pinned", "--config", cfg, "--out", out1]) == 0
    assert cli_main(["pinned", "--config", cfg, "--out", out2, "--seed", "99"]) == 0
    a = open(os.path.join(out1, "pinned_summary.csv")).read()
    b = open(os.path.join(out2, "pinned_summary.csv")).read()
    assert a != b


def test_cli_exit_codes(tmp_path):
    assert cli_main(["pinned", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "o")]) == 2
    bad = write_cfg(tmp_path, "bad.cfg", "generator = nosuch\nseed = 1\n")
    assert cli_main(["gen", "--config", bad, "--out", str(tmp_path / "o2")]) == 2
    big = write_cfg(tmp_path, "big.cfg",
                    "generator = product_cantor\nd = 2\nratio_a = 0.3\nlevel = 20\nseed = 1\n")
    assert cli_main(["gen", "--config", big, "--out", str(tmp_path / "o3")]) == 3


COUNT_CFG = """
generator = uniform
d = 2
per_side = 4
edges = 1-2 2-3
t_assignment = 1-2:0.5 2-3:0.5
epsilons = 2^-3
"""


@pytest.mark.parametrize("command, body, message", [
    ("sweep", "dims = 1.0 1.8\nepsilons = 2^-4 abc\n",
     "config error: config key 'epsilons': bad number 'abc'"),
    ("config-count", COUNT_CFG.replace("edges = 1-2 2-3", "edges = 1-2 2x3"),
     "config error: config key 'edges': bad vertex pair '2x3', expected i-j"),
    ("config-count", COUNT_CFG.replace("1-2:0.5 2-3:0.5", "1-2:0.5 2-3"),
     "config error: config key 't_assignment': bad token '2-3', expected i-j:t"),
], ids=["epsilons", "edges", "t_assignment"])
def test_cli_malformed_numbers_exit_2(tmp_path, capsys, command, body, message):
    cfg = write_cfg(tmp_path, "bad.cfg", body)
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("command, body, message", [
    ("hinge", "level = 4\ntarget_dim = 1.6\npins = 0\n",
     "config error: config key 'pins' must be >= 1, got 0"),
    ("sweep", "level = 4\nhinge_pins = 0\n", "config error: sweep needs hinge_pins >= 1"),
], ids=["hinge", "sweep"])
def test_cli_zero_pins_exit_2(tmp_path, capsys, command, body, message):
    # both used to reach hinge_setup's 1 / len(pins) and exit 1 with a traceback
    cfg = write_cfg(tmp_path, "zero.cfg", body)
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("command", ["hinge", "sweep"])
@pytest.mark.parametrize("n_t", [1, 0, -1])
def test_cli_too_few_hinge_t_nodes_exit_2(tmp_path, capsys, command, n_t):
    # 1 and 0 used to raise IndexError at t_nodes[1], -1 a numpy ValueError
    cfg = write_cfg(tmp_path, "few.cfg", "level = 3\ntarget_dim = 1.6\npins = 4\n"
                    f"dims = 1.0 1.6\nepsilons = 2^-3 2^-4\nhinge_t_nodes = {n_t}\n")
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: config key 'hinge_t_nodes' must be >= 2, got {n_t}\n")


@pytest.mark.parametrize("command, message", [
    ("sweep", "config error: config key 'mc_samples' must be >= 0, got -5"),
    ("probe", "config error: config key 'mc_samples' must be >= 0, got -5"),
    ("chain", "config error: mc_samples must be >= 0, got -5"),
    ("pinned", "config error: mc_samples must be >= 0, got -5"),
], ids=["sweep", "probe", "chain", "pinned"])
def test_cli_negative_mc_samples_exit_2(tmp_path, capsys, command, message):
    # sweep and probe used to write ERROR rows and exit 0, chain to exit 1
    # with a traceback, pinned to exit 2 without naming the key
    cfg = write_cfg(tmp_path, "neg.cfg", "level = 3\ntarget_dim = 1.6\npins = 50\n"
                    "dims = 1.0 1.6\nmc_samples = -5\n")
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("command, key", [("chain", "epsilon"), ("pinned", "epsilons")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_non_finite_epsilon_exit_2(tmp_path, capsys, command, key, value):
    # these used to end in a ValueError traceback with exit 1
    cfg = write_cfg(tmp_path, "eps.cfg", f"level = 3\ntarget_dim = 1.6\npins = 2\n"
                    f"mc_samples = 0\n{key} = {value}\n")
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: epsilon must be positive and finite, got {value}\n")


@pytest.mark.parametrize("divisor", [0, -2])
def test_cli_sweep_step_divisor_below_one_exit_2(tmp_path, capsys, divisor):
    # 0 used to raise ZeroDivisionError in default_t_grid, with exit 1
    cfg = write_cfg(tmp_path, "div.cfg", f"level = 3\nt_step_divisor = {divisor}\n")
    assert cli_main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: config key 't_step_divisor' must be >= 1, got {divisor}\n")


def test_cli_probe_jobs_invariance(tmp_path):
    # Monte Carlo atom draws, grouped per distinct atom, on a two-thread pool
    cfg = write_cfg(tmp_path, "probe.cfg", "generator = subdivision\nbase_b = 2\n"
                    "keep_m = 3\nlevel = 4\npins = 50\nepsilons = 2^-4 2^-5\n"
                    "mc_samples = 512\n")
    outs = []
    for jobs in ("1", "2"):
        out = str(tmp_path / f"j{jobs}")
        assert cli_main(["probe", "--config", cfg, "--out", out, "--jobs", jobs,
                         "--seed", "7"]) == 0
        outs.append([open(os.path.join(out, name), "rb").read()
                     for name in ("probe_rows.csv", "summary.json")])
    assert outs[0] == outs[1]
    supports = {line.split(b",")[2] for line in outs[0][0].splitlines()[1:]}
    assert len(supports) > 10


@pytest.mark.parametrize("body, message", [
    (COUNT_CFG.replace("epsilons = 2^-3", "epsilons = 0"),
     "config error: need eps > 0 and samples >= 0, got eps=0.0, samples=0"),
    (COUNT_CFG.replace("epsilons = 2^-3", "epsilons = -0.1"),
     "config error: need eps > 0 and samples >= 0, got eps=-0.1, samples=0"),
    (COUNT_CFG + "mc_samples = -5\n",
     "config error: need eps > 0 and samples >= 0, got eps=0.125, samples=-5"),
], ids=["eps_zero", "eps_negative", "samples_negative"])
def test_cli_config_count_bad_eps_or_samples_exit_2(tmp_path, capsys, body, message):
    cfg = write_cfg(tmp_path, "bad.cfg", body)
    assert cli_main(["config-count", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("key, message", [
    ("energy_side_n = 8",
     "config error: side_n 8 gives fewer than two shells; need side_n >= 16"),
    ("segment_atoms = 0", "config error: need n_atoms >= 1, got 0"),
], ids=["side_n_one_shell", "no_atoms"])
def test_cli_fourier_bad_energy_input_exit_2(tmp_path, capsys, key, message):
    cfg = write_cfg(tmp_path, "bad.cfg", f"which = energy\n{key}\n")
    assert cli_main(["fourier", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("body, message", [
    ("which = decay\ndecay_side_n_d2 = 8\n",
     "config error: side_n 8 gives fewer than two shells; need side_n >= 16"),
    ("which = decay\ndecay_side_n_d3 = 15\n",
     "config error: side_n 15 gives fewer than two shells; need side_n >= 16"),
    ("which = radon\nn_fields = 0\n",
     "config error: radon_apply_stack needs at least one field"),
    ("which = radon\nradon_side_n = 0\n", "config error: side_n must be >= 1, got 0"),
], ids=["decay_d2", "decay_d3", "no_fields", "radon_side_zero"])
def test_cli_fourier_bad_sizes_exit_2(tmp_path, capsys, body, message):
    # each used to end in a traceback with exit 1: np.polyfit's TypeError or
    # LinAlgError, an IndexError and a ZeroDivisionError
    cfg = write_cfg(tmp_path, "bad.cfg", body)
    assert cli_main(["fourier", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == message + "\n"


def test_cli_fourier_unknown_part_exit_2(tmp_path, capsys):
    # unknown parts used to be skipped: exit 0 with only manifest.json written
    cfg = write_cfg(tmp_path, "typo.cfg", "which = energi lp osc-typo\n")
    out = tmp_path / "o"
    assert cli_main(["fourier", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: config key 'which' has unknown parts "
                                       "energi osc-typo; choose from lp decay energy radon osc\n")
    assert os.listdir(out) == []


@pytest.mark.parametrize("pin", ["0.5", "0.5 0.5 0.5"], ids=["short", "long"])
def test_cli_fixed_pin_of_wrong_length_exit_2(tmp_path, capsys, pin):
    # in d = 2 one coordinate used to exit 0 with distances |x_1 - y_1|, and
    # three to exit 1 with an IndexError
    cfg = write_cfg(tmp_path, "pin.cfg", "level = 3\ntarget_dim = 1.6\npins = 2\n"
                    f"pin_policy = fixed\npin = {pin}\n")
    assert cli_main(["pinned", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("config error: config key 'pin' needs d = 2 "
                                       f"coordinates, got {len(pin.split())}\n")


def test_cli_fourier_osc_bad_quad_n_exit_2(tmp_path, capsys):
    # quad_n = 0 used to escape as a numpy ValueError traceback with exit 1
    cfg = write_cfg(tmp_path, "bad.cfg", "which = osc\nquad_n = 0\n")
    assert cli_main(["fourier", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: quad_n must be an integer in 1..64, got 0\n"


def test_cli_fourier_osc_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "osc.cfg", "which = osc\nquad_n = 20\nseed = 7\n")
    outs = [str(tmp_path / f"r{run}") for run in (1, 2)]
    for out in outs:
        assert cli_main(["fourier", "--config", cfg, "--out", out]) == 0
    a, b = (open(os.path.join(out, "oscillatory_decay.csv"), "rb").read() for out in outs)
    assert a == b
    lines = a.decode().splitlines()
    assert lines[0] == "j,k,s,abs_G,ratio_to_matched"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["2", "2", "4.0"], ["0", "4", "1.0"], ["4", "0", "1.0"], ["0", "4", "2.0"]]
    assert lines[1].endswith(",1.0")


def test_cli_config_count_over_budget_exit_3(tmp_path, capsys):
    # 1024 atoms on a 2-chain: 1024^3 tuples, past the exact-count budget
    cfg = write_cfg(tmp_path, "big.cfg", COUNT_CFG.replace("per_side = 4", "per_side = 32"))
    assert cli_main(["config-count", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource error: 1073741824 tuples exceed")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_cli_chain_over_grid_budget_exit_3(tmp_path, capsys):
    # three links of 201 nodes at eps = 2^-5: 201^3 grid nodes, past GRID_BUDGET
    cfg = write_cfg(tmp_path, "chain.cfg", "d = 2\ngenerator = product_cantor\n"
                    "target_dim = 1.6\nlevel = 3\nk = 3\nepsilon = 2^-5\nmc_samples = 0\n")
    assert cli_main(["chain", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == ("resource error: chain grid of 8120601 nodes "
                                       "exceeds budget 2000000\n")


def test_config_number_edge_cases():
    for bad in ("2^x", "-2^0.5", "0^-1", "10^400", "1.5.2"):
        with pytest.raises(ConfigError):
            cfg_float({"v": bad}, "v")
    with pytest.raises(ConfigError):
        cfg_int({"seed": "nan"}, "seed")
    assert cfg_floats({"e": "2^-2, 0.5"}, "e") == [0.25, 0.5]


def test_cli_regression_freeze_and_mismatch(tmp_path):
    cfg = write_cfg(tmp_path, "h.cfg", """
generator = product_cantor
d = 2
ratio_a = 0.44
level = 3
phase = euclidean
pins = 8
epsilons = 2^-3
seed = 5
""")
    out = str(tmp_path / "h")
    assert cli_main(["hinge", "--config", cfg, "--out", out,
                     "--regression-freeze"]) == 0
    assert os.path.exists(os.path.join(out, "golden", "hinge.csv"))
    assert cli_main(["hinge", "--config", cfg, "--out", out]) == 0
    cfg2 = write_cfg(tmp_path, "h2.cfg", open(cfg).read().replace("seed = 5", "seed = 6"))
    assert cli_main(["hinge", "--config", cfg2, "--out", out]) == 4


def test_cli_regression_missing_golden_exit_4(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "h.cfg", """
generator = product_cantor
d = 2
ratio_a = 0.44
level = 3
pins = 8
epsilons = 2^-3
seed = 5
""")
    out = tmp_path / "h"
    assert cli_main(["hinge", "--config", cfg, "--out", str(out),
                     "--regression-freeze"]) == 0
    os.remove(out / "golden" / "hinge.csv")
    capsys.readouterr()
    assert cli_main(["hinge", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "regression mismatch: golden file(s) missing: hinge.csv\n"


def test_cli_gen_writes_cells_and_measure(tmp_path):
    cfg = write_cfg(tmp_path, "g.cfg", """
generator = subdivision
d = 2
base_b = 2
keep_m = 3
level = 4
seed = 9
""")
    out = str(tmp_path / "g")
    assert cli_main(["gen", "--config", cfg, "--out", out]) == 0
    from pinlab import load_cells, load_measure
    f = load_cells(os.path.join(out, "cells.txt"))
    assert len(f.digits) == 3 ** 4
    mu = load_measure(os.path.join(out, "measure.csv"))
    assert len(mu) == 3 ** 4
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["atoms"] == 81


def test_cli_sweep_and_probe_outputs(tmp_path):
    scfg = write_cfg(tmp_path, "s.cfg", """
d = 2
dims = 1.0 1.8
epsilons = 2^-3 2^-4
level = 3
pins = 3
seed = 2
""")
    out = str(tmp_path / "s")
    assert cli_main(["sweep", "--config", scfg, "--out", out, "--jobs", "2"]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert set(summary["verdicts"]) == {"1.0", "1.8"}
    rows = open(os.path.join(out, "sweep_rows.csv")).read().splitlines()
    assert rows[0] == "dim,pin,eps,mass,cs_lower_bound,support,error"
    assert len(rows) == 1 + 2 * 3 * 2

    pcfg = write_cfg(tmp_path, "pr.cfg", """
generator = circle
n_atoms = 128
d = 2
pin_policy = fixed
pin = 0.5 0.5
pins = 50
epsilons = 2^-6
floor = 0.1
seed = 2
""")
    pout = str(tmp_path / "pr")
    assert cli_main(["probe", "--config", pcfg, "--out", pout]) == 0
    psum = json.load(open(os.path.join(pout, "summary.json")))
    assert psum["flagged_fraction"]["0.015625"] == 1.0


def test_cli_config_count_and_chain(tmp_path):
    ccfg = write_cfg(tmp_path, "cc.cfg", """
generator = uniform
d = 2
per_side = 4
phase = euclidean
edges = 1-2 2-3
t_assignment = 1-2:0.5 2-3:0.5
epsilons = 2^-3
lift = 1
seed = 1
""")
    out = str(tmp_path / "cc")
    assert cli_main(["config-count", "--config", ccfg, "--out", out]) == 0
    lines = open(os.path.join(out, "config_counts.csv")).read().splitlines()
    assert lines[0] == "eps,count_normalized,stderr,samples,n_edges"
    assert os.path.exists(os.path.join(out, "edge_map_lifted.txt"))

    chcfg = write_cfg(tmp_path, "ch.cfg", """
generator = product_cantor
d = 2
ratio_a = 0.3333333333333333
level = 3
phase = euclidean
k = 2
epsilon = 2^-3
mc_samples = 1024
seed = 4
""")
    chout = str(tmp_path / "ch")
    assert cli_main(["chain", "--config", chcfg, "--out", chout]) == 0
    summary = json.load(open(os.path.join(chout, "summary.json")))
    assert summary["mass"] == pytest.approx(1.0, abs=max(3 * summary["mass_stderr"], 5e-3))


def test_readme_documents_every_config_key():
    """Every key the package reads through a cfg_* accessor has a row in the
    README's key table."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    source = ""
    for path in glob.glob(os.path.join(root, "src", "pinlab", "*.py")):
        with open(path) as fh:
            source += fh.read()
    keys = set(re.findall(r'cfg_\w+\(cfg,\s*f?"([^"]+)"', source))
    keys.remove("decay_side_n_d{d}")
    keys |= {"decay_side_n_d2", "decay_side_n_d3"}
    assert len(keys) > 40 and "hinge_t_nodes" in keys
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    assert sorted(k for k in keys if f"`{k}`" not in readme) == []


def test_cli_run_loads_no_heavy_scipy_module(tmp_path):
    """A fresh process that imports the CLI and runs a sweep and the energy
    battery has not loaded scipy.integrate, special, spatial, optimize,
    linalg or sparse: only the exact chain imports scipy.sparse."""
    sweep = write_cfg(tmp_path, "sweep.cfg", "level = 3\ndims = 1.0 1.6\n"
                      "epsilons = 2^-3 2^-4\npins = 2\nhinge_pins = 4\n")
    energy = write_cfg(tmp_path, "energy.cfg", "which = energy\nsegment_atoms = 256\n"
                       "energy_side_n = 64\n")
    runs = [["sweep", "--config", sweep, "--out", str(tmp_path / "s")],
            ["fourier", "--config", energy, "--out", str(tmp_path / "e")]]
    code = (
        "import json, sys\n"
        "import pinlab.cli\n"
        f"codes = [pinlab.cli.main(argv) for argv in {runs!r}]\n"
        "heavy = ('scipy.integrate', 'scipy.special', 'scipy.spatial',\n"
        "         'scipy.optimize', 'scipy.linalg', 'scipy.sparse')\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                                if m.startswith(heavy))]))\n")
    src = os.path.dirname(os.path.dirname(pinlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert loaded == []
