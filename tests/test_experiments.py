import ast
import csv
import json
import math
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import loop_frostman_constant

import pinlab
import pinlab.cli

from pinlab import (ConfigError, DomainError, Mollifier, cs_lower_bound,
                    default_t_grid, density_mass, l2_energy, pinned_density,
                    support_measure, verdict_from_series)
from pinlab import configs as configs_module
from pinlab import fractals as fractals_module
from pinlab import experiments
from pinlab import harmonic as harmonic_module
from pinlab import pinned as pinned_module
from pinlab.cli import main as cli_main
from pinlab.experiments import (KEYS, Key, build_generator, build_phase, draw_pins,
                                exceptional_probe, hinge_setup, parse_config_text,
                                pinned_setup, read_key, sweep_threshold)


def test_parse_config_text():
    cfg = parse_config_text("""
# comment line
phase = euclidean
level = 5            # trailing comment
epsilons = 2^-3 2^-4
ratio_a = 0.25
""")
    assert cfg["phase"] == "euclidean"
    assert read_key(cfg, "level") == 5
    assert read_key(cfg, "epsilons") == [0.125, 0.0625]
    assert read_key(cfg, "ratio_a") == 0.25
    assert read_key(cfg, "target_dim", "1.5") == 1.5
    with pytest.raises(ConfigError):
        read_key(cfg, "target_dim")
    with pytest.raises(ConfigError):
        parse_config_text("just a line without equals")
    with pytest.raises(ConfigError):
        read_key(parse_config_text("level = 2.5"), "level")


def test_verdict_rule_pure_function():
    assert verdict_from_series([1.0, 0.9, 0.85, 0.84]) == "STABLE"
    assert verdict_from_series([1.0, 0.8, 0.65, 0.55]) == "SHRINKING"
    # monotone but shallow: neither shrinking (cumulative < 30%) nor unstable
    assert verdict_from_series([1.0, 0.95, 0.91, 0.88]) == "STABLE"
    # non-monotone with a big last step
    assert verdict_from_series([1.0, 1.4, 0.9]) == "MIXED"
    with pytest.raises(DomainError):
        verdict_from_series([1.0])


def test_verdict_rule_reads_its_constants_at_call_time(monkeypatch):
    # a 45% cumulative decline shrinks under the frozen 30%, not under 50%,
    # and its last step's 15% change is stable under 20%, not under 10%
    series = [1.0, 0.8, 0.65, 0.55]
    monkeypatch.setattr(experiments, "SHRINK_TOTAL", 0.5)
    assert verdict_from_series(series) == "STABLE"
    monkeypatch.setattr(experiments, "STABLE_TOL", 0.1)
    assert verdict_from_series(series) == "MIXED"


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


def test_sweep_error_cells_isolated(monkeypatch):
    # a 10-node grid budget stops every cell; the sweep survives, each error
    # kept in its cell's row
    monkeypatch.setattr(pinned_module, "GRID_BUDGET", 10)
    rep = sweep_threshold(sweep_cfg())
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


def test_probe_fraction_counts_only_measured_cells(monkeypatch):
    # pins 0.71 to 1.36 from their farthest atom need 491 to 823 nodes at
    # 2^-5: a 650-node budget stops some of them there and all at 2^-6
    monkeypatch.setattr(pinned_module, "GRID_BUDGET", 650)
    cfg = probe_cfg(generator="uniform", per_side="24", pin_policy="mu",
                    floor="1e9", epsilons="2^-4 2^-5 2^-6")
    rep = exceptional_probe(cfg)
    failed = {eps: sum(bool(r["error"]) for r in rep.rows if r["eps"] == eps)
              for eps in rep.flagged_fraction}
    assert failed[2.0 ** -4] == 0 and 0 < failed[2.0 ** -5] < 50 and failed[2.0 ** -6] == 50
    # every measured support is below the floor; a failed cell is not flagged
    assert rep.flagged_fraction[2.0 ** -4] == rep.flagged_fraction[2.0 ** -5] == 1.0
    assert math.isnan(rep.flagged_fraction[2.0 ** -6])
    assert rep.persistent_pins == []


@pytest.mark.parametrize("over, message", [
    ({"pins": "10"}, "gives 10 pins (10 asked, 256 atoms); a probe needs at least 50"),
    # mu pins are distinct atoms: 60 asked of 20 atoms draws 20
    ({"pins": "60", "n_atoms": "20", "pin_policy": "mu"},
     "gives 20 pins (60 asked, 20 atoms); a probe needs at least 50"),
], ids=["asked", "drawn"])
def test_probe_needs_fifty_pins(over, message):
    with pytest.raises(ConfigError, match=f"config key 'pins' {re.escape(message)}"):
        exceptional_probe(probe_cfg(**over))


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
    assert set(man["versions"]) == {"pinlab", "numpy"}


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
     "config error: config key 'pins' must be an integer in [1, inf), got '0'"),
    ("sweep", "level = 4\nhinge_pins = 0\n",
     "config error: unknown config key 'hinge_pins'"),
], ids=["hinge", "sweep"])
def test_cli_zero_pins_exit_2(tmp_path, capsys, command, body, message):
    # both used to reach hinge_setup's 1 / len(pins) and exit 1 with a
    # traceback; the sweep's pin count is now the constant HINGE_PINS
    cfg = write_cfg(tmp_path, "zero.cfg", body)
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("command", ["hinge", "sweep"])
@pytest.mark.parametrize("n_t", [1, 0, -1])
def test_cli_too_few_hinge_t_nodes_exit_2(tmp_path, capsys, command, n_t):
    # 1 and 0 used to raise IndexError at t_nodes[1], -1 a numpy ValueError;
    # the node count is now the constant HINGE_T_NODES, which no config sets
    cfg = write_cfg(tmp_path, "few.cfg", "level = 3\ntarget_dim = 1.6\npins = 4\n"
                    f"dims = 1.0 1.6\nepsilons = 2^-3 2^-4\nhinge_t_nodes = {n_t}\n")
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: unknown config key 'hinge_t_nodes'\n"


@pytest.mark.parametrize("command", ["sweep", "probe", "chain", "pinned"])
def test_cli_negative_mc_samples_exit_2(tmp_path, capsys, command):
    # sweep and probe used to write ERROR rows and exit 0, chain to exit 1
    # with a traceback, pinned to exit 2 without naming the key
    cfg = write_cfg(tmp_path, "neg.cfg", "level = 3\ntarget_dim = 1.6\npins = 50\n"
                    "dims = 1.0 1.6\nmc_samples = -5\n")
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("config error: config key 'mc_samples' must be "
                                       "an integer in [0, inf), got '-5'\n")


@pytest.mark.parametrize("command, key", [("chain", "epsilon"), ("pinned", "epsilons")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_non_finite_epsilon_exit_2(tmp_path, capsys, command, key, value):
    # these used to end in a ValueError traceback with exit 1
    cfg = write_cfg(tmp_path, "eps.cfg", f"level = 3\ntarget_dim = 1.6\npins = 2\n"
                    f"mc_samples = 0\n{key} = {value}\n")
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: config key {key!r} must be a number in (0, inf), got {value!r}\n")


@pytest.mark.parametrize("divisor", [0, -2])
def test_cli_sweep_step_divisor_below_one_exit_2(tmp_path, capsys, divisor):
    # 0 used to raise ZeroDivisionError in default_t_grid, with exit 1; the
    # divisor is now the constant pinned.STEP_DIVISOR, which no config sets
    cfg = write_cfg(tmp_path, "div.cfg", f"level = 3\nt_step_divisor = {divisor}\n")
    assert cli_main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: unknown config key 't_step_divisor'\n"


@pytest.mark.parametrize("generator", ["subdivision", "circle", "uniform"])
def test_cli_sweep_refuses_generator_that_ignores_target_dim(tmp_path, capsys, generator):
    # each used to exit 0, writing one measure's rows under every target
    # dimension while summary.json annotated them as below and above (d+1)/2
    cfg = write_cfg(tmp_path, "gen.cfg", f"generator = {generator}\nlevel = 4\n"
                    "dims = 1.0 1.8\nepsilons = 2^-3 2^-4\npins = 2\n")
    out = tmp_path / "o"
    assert cli_main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: config key 'generator' must be "
                                       f"product_cantor in a sweep, got {generator!r}\n")
    assert os.listdir(out) == []


SUBDIVISION_CFG = "generator = subdivision\nbase_b = 2\nkeep_m = 3\nlevel = 4\n"


@pytest.mark.parametrize("command, body, rows_file, distinct", [
    ("probe", SUBDIVISION_CFG + "pins = 50\nepsilons = 2^-4 2^-5\n", "probe_rows.csv", 10),
    ("pinned", SUBDIVISION_CFG + "pins = 6\nepsilons = 2^-4 2^-5\n",
     "pinned_summary.csv", 11),
    ("sweep", "level = 4\ndims = 1.0 1.8\nepsilons = 2^-4 2^-5\npins = 4\n",
     "sweep_rows.csv", 15),
], ids=["probe", "pinned", "sweep"])
def test_cli_pin_table_jobs_invariance(tmp_path, command, body, rows_file, distinct):
    # Monte Carlo atom draws, grouped per distinct atom, on a two-thread pool:
    # every CSV (each pinned density too) and the summary are byte-identical
    cfg = write_cfg(tmp_path, "run.cfg", body + "mc_samples = 512\n")
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}"
        assert cli_main([command, "--config", cfg, "--out", str(out), "--jobs", jobs,
                         "--seed", "7"]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                     if p.name != "manifest.json"})
    assert outs[0] == outs[1]
    assert (command == "pinned") == ("density_pin0_eps1.csv" in outs[0])
    assert "density_pin1_eps0.csv" not in outs[0]
    supports = {row["support"] for row in
                csv.DictReader(outs[0][rows_file].decode().splitlines())}
    assert len(supports) > distinct


@pytest.mark.parametrize("body, message", [
    (COUNT_CFG.replace("epsilons = 2^-3", "epsilons = 0"),
     "config error: config key 'epsilons' must be a number in (0, inf), got '0'"),
    (COUNT_CFG.replace("epsilons = 2^-3", "epsilons = -0.1"),
     "config error: config key 'epsilons' must be a number in (0, inf), got '-0.1'"),
    (COUNT_CFG + "mc_samples = -5\n",
     "config error: config key 'mc_samples' must be an integer in [0, inf), got '-5'"),
], ids=["eps_zero", "eps_negative", "samples_negative"])
def test_cli_config_count_bad_eps_or_samples_exit_2(tmp_path, capsys, body, message):
    cfg = write_cfg(tmp_path, "bad.cfg", body)
    assert cli_main(["config-count", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("key, message", [
    ("energy_side_n = 8",
     "config error: config key 'energy_side_n' must be an integer in [16, inf), got '8'"),
    ("segment_atoms = 0",
     "config error: config key 'segment_atoms' must be an integer in [1, inf), got '0'"),
], ids=["side_n_one_shell", "no_atoms"])
def test_cli_fourier_bad_energy_input_exit_2(tmp_path, capsys, key, message):
    cfg = write_cfg(tmp_path, "bad.cfg", f"which = energy\n{key}\n")
    assert cli_main(["fourier", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("body, message", [
    ("which = decay\ndecay_side_n_d2 = 8\n",
     "config error: config key 'decay_side_n_d2' must be an integer in [16, inf), got '8'"),
    ("which = decay\ndecay_side_n_d3 = 15\n",
     "config error: config key 'decay_side_n_d3' must be an integer in [16, inf), got '15'"),
    ("which = radon\nn_fields = 0\n",
     "config error: config key 'n_fields' must be an integer in [1, inf), got '0'"),
    ("which = radon\nradon_side_n = 0\n",
     "config error: config key 'radon_side_n' must be an integer in [1, inf), got '0'"),
    # t = 5 is inside t's domain, but no grid pair lies that far apart
    ("which = radon\nradon_side_n = 16\nepsilons = 2^-3\nn_fields = 1\nt = 5\n",
     "config error: t = 5.0: T_eps f vanishes at eps = 0.125 (field 0), so the "
     "eps-uniformity ratio is undefined"),
], ids=["decay_d2", "decay_d3", "no_fields", "radon_side_zero", "radon_vanishes"])
def test_cli_fourier_bad_sizes_exit_2(tmp_path, capsys, body, message):
    # each used to end in a traceback with exit 1: np.polyfit's TypeError or
    # LinAlgError, an IndexError and two ZeroDivisionErrors
    cfg = write_cfg(tmp_path, "bad.cfg", body)
    assert cli_main(["fourier", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("command, body, message", [
    ("gen", "level = 3\ntarget_dim = 0\n",
     "config key 'target_dim' must be a number in (0, inf), got '0'"),
    ("sweep", "level = 3\ndims = 0 1.6\n",
     "config key 'dims' must be a number in (0, inf), got '0'"),
    ("gen", "generator = circle\nn_atoms = 0\n",
     "config key 'n_atoms' must be an integer in [1, inf), got '0'"),
    ("gen", "generator = uniform\nper_side = 0\n",
     "config key 'per_side' must be an integer in [1, inf), got '0'"),
    ("fourier", "which = lp\nlp_side_n = 0\n",
     "config key 'lp_side_n' must be an integer in [2, inf), got '0'"),
    ("fourier", "which = lp\nj_max = -1\n",
     "config key 'j_max' must be an integer in [0, 1023], got '-1'"),
], ids=["target_dim", "dims", "n_atoms", "per_side", "lp_side_n", "j_max"])
def test_cli_zero_sizes_exit_2(tmp_path, capsys, command, body, message):
    # the first five used to end in a traceback with exit 1 (four
    # ZeroDivisionErrors and a math domain error); j_max = -1 exited 0 with
    # the empty partition's deviation 1.0
    cfg = write_cfg(tmp_path, "zero.cfg", body)
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_cli_fourier_unknown_part_exit_2(tmp_path, capsys):
    # unknown parts used to be skipped: exit 0 with only manifest.json written
    cfg = write_cfg(tmp_path, "typo.cfg", "which = energi lp osc-typo\n")
    out = tmp_path / "o"
    assert cli_main(["fourier", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: config key 'which' must be one of "
                                       "lp decay energy radon osc, got 'energi'\n")
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
    assert capsys.readouterr().err == ("config error: config key 'quad_n' must be an "
                                       "integer in [1, 64], got '0'\n")


def test_cli_fourier_osc_quad_n_1_error_is_the_only_stderr_line(tmp_path):
    # in a fresh process, where no pytest capture holds back the
    # ResolutionWarnings that the run used to print before its error
    cfg = write_cfg(tmp_path, "bad.cfg", "which = osc\nquad_n = 1\n")
    src = os.path.dirname(os.path.dirname(pinlab.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "pinlab.cli", "fourier", "--config", cfg,
                           "--out", str(tmp_path / "o")], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: config key 'quad_n': ")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_cli_fourier_osc_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "osc.cfg", "which = osc\nquad_n = 20\nseed = 7\n")
    outs = [str(tmp_path / f"r{run}") for run in (1, 2)]
    for out in outs:
        # a run that succeeds still warns of its quadrature-limited triples
        with pytest.warns(harmonic_module.ResolutionWarning, match="beyond quad_n/4 = 5.0"):
            assert cli_main(["fourier", "--config", cfg, "--out", out]) == 0
    a, b = (open(os.path.join(out, "oscillatory_decay.csv"), "rb").read() for out in outs)
    assert a == b
    lines = a.decode().splitlines()
    assert lines[0] == "j,k,s,abs_G,ratio_to_matched"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["2", "2", "4.0"], ["0", "4", "1.0"], ["4", "0", "1.0"], ["0", "4", "2.0"]]
    assert lines[1].endswith(",1.0")


@pytest.mark.parametrize("command, body, message", [
    ("gen", "generator = uniform\nper_side = 11\n", "uniform grid of 121 atoms"),
    ("gen", "generator = uniform\nd = 3\nper_side = 5\n", "uniform grid of 125 atoms"),
    ("gen", "generator = circle\nn_atoms = 101\n", "circle of 101 atoms"),
    ("fourier", "which = energy\nsegment_atoms = 101\n", "segment of 101 atoms"),
], ids=["uniform", "uniform_d3", "circle", "segment"])
def test_cli_simple_measure_over_cell_budget_exit_3(tmp_path, capsys, monkeypatch, command,
                                                    body, message):
    # counted before allocation: per_side = 100000, n_atoms = 1e10 and
    # segment_atoms = 1e10 used to exit 1 with numpy's _ArrayMemoryError
    monkeypatch.setattr(fractals_module, "CELL_BUDGET", 100)
    cfg = write_cfg(tmp_path, "big.cfg", body)
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"resource error: {message} exceeds budget 100\n"
    cfg = write_cfg(tmp_path, "fits.cfg", "generator = uniform\nper_side = 10\n")
    assert cli_main(["gen", "--config", cfg, "--out", str(tmp_path / "p")]) == 0


def test_cli_config_count_over_budget_exit_3(tmp_path, capsys):
    # 1024 atoms on a 2-chain: 1024^3 tuples, past the exact-count budget
    cfg = write_cfg(tmp_path, "big.cfg", COUNT_CFG.replace("per_side = 4", "per_side = 32"))
    assert cli_main(["config-count", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource error: 1073741824 tuples exceed")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("which, message, ran", [
    ("decay", "decay box of 128 x 128 x 128 cells on the 128^3 grid needs 16777216 bytes",
     [("raster", 2)]),
    ("energy", "energy box of 266 x 11 cells on the 2048^2 grid needs 8380416 bytes", []),
])
def test_cli_fourier_over_byte_budget_exit_3(tmp_path, capsys, monkeypatch, which, message, ran):
    # the largest array is sized before any is allocated: at a 4 MiB budget
    # the d = 2 decay (2 MiB raster) still runs, the d = 3 raster and the
    # energy's box spectrum (1023 x 512 complex) are refused unbuilt
    monkeypatch.setattr(harmonic_module, "BYTE_BUDGET", 1 << 22)
    built = []
    raster, deposit = harmonic_module.rasterize_sphere_shell, harmonic_module.deposit_gaussian
    monkeypatch.setattr(harmonic_module, "rasterize_sphere_shell",
                        lambda d, side: built.append(("raster", d)) or raster(d, side))
    monkeypatch.setattr(harmonic_module, "deposit_gaussian",
                        lambda *args: built.append(("deposit",)) or deposit(*args))
    cfg = write_cfg(tmp_path, "f.cfg", f"which = {which}\n")
    assert cli_main(["fourier", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"resource error: {message}, exceeds budget 4194304\n"
    assert built == ran


@pytest.mark.parametrize("command, body, nodes", [
    ("pinned", "epsilons = 2^-30\n", 14080792795),
    ("pinned", "epsilons = 2^-19\n", 6875517),
    ("chain", "k = 1\nepsilon = 2^-30\n", 3520198200),
], ids=["pinned_2^-30", "pinned_2^-19", "chain_2^-30"])
def test_cli_density_over_grid_budget_exit_3(tmp_path, capsys, command, body, nodes):
    # the default t-grid is counted before it is allocated: at 2^-30 pinned
    # and chain used to exit 1 with a numpy MemoryError of 105 and 26 GiB,
    # and at 2^-19 pinned ran a grid past the budget the chain kept
    cfg = write_cfg(tmp_path, "fine.cfg", "level = 1\ntarget_dim = 1.6\npins = 2\n" + body)
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (f"resource error: grid of {nodes} nodes "
                                       "exceeds budget 2000000\n")


def test_cli_sweep_keeps_grid_budget_error_in_its_cells(tmp_path):
    # a MemoryError is not a PinlabError, so the 2^-30 grids used to end
    # the whole sweep with exit 1
    cfg = write_cfg(tmp_path, "s.cfg", "level = 1\ndims = 1.0 1.6\n"
                    "epsilons = 2^-3 2^-30\npins = 2\n")
    out = tmp_path / "o"
    assert cli_main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "sweep_rows.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    for r in rows:
        if float(r["eps"]) == 2.0 ** -3:
            assert r["error"] == "" and abs(float(r["mass"]) - 1.0) < 1e-6
        else:
            assert re.fullmatch(r"grid of \d+ nodes exceeds budget 2000000", r["error"])
            assert math.isnan(float(r["mass"]))
    assert json.load(open(out / "summary.json"))["verdicts"] == {"1.0": "ERROR",
                                                                 "1.6": "ERROR"}


def test_cli_probe_past_grid_budget_writes_nan_fraction(tmp_path):
    # every 2^-30 cell holds the budget error: its fraction used to read 0.0
    cfg = write_cfg(tmp_path, "p.cfg", "generator = circle\nn_atoms = 128\npins = 60\n"
                    "epsilons = 2^-4 2^-30\nfloor = 1e9\n")
    out = tmp_path / "o"
    assert cli_main(["probe", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "probe_rows.csv") as fh:
        rows = [r for r in csv.DictReader(fh) if float(r["eps"]) == 2.0 ** -30]
    assert len(rows) == 60
    assert all(re.fullmatch(r"grid of \d+ nodes exceeds budget 2000000", r["error"])
               for r in rows)
    summary = json.load(open(out / "summary.json"))
    assert summary["flagged_fraction"]["0.0625"] == 1.0
    assert math.isnan(summary["flagged_fraction"][repr(2.0 ** -30)])
    assert summary["persistent_pins"] == []


def test_cli_chain_over_grid_budget_exit_3(tmp_path, capsys):
    # three links of 201 nodes at eps = 2^-5: 201^3 grid nodes, past GRID_BUDGET
    cfg = write_cfg(tmp_path, "chain.cfg", "d = 2\ngenerator = product_cantor\n"
                    "target_dim = 1.6\nlevel = 3\nk = 3\nepsilon = 2^-5\nmc_samples = 0\n")
    assert cli_main(["chain", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == ("resource error: grid of 8120601 nodes "
                                       "exceeds budget 2000000\n")


def test_config_number_edge_cases():
    for bad in ("2^x", "-2^0.5", "0^-1", "10^400", "1.5.2"):
        with pytest.raises(ConfigError):
            read_key({"floor": bad}, "floor")
    with pytest.raises(ConfigError):
        read_key({"seed": "nan"}, "seed")
    assert read_key({"epsilons": "2^-2, 0.5"}, "epsilons") == [0.25, 0.5]


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


HINGE_CFG = """
generator = product_cantor
d = 2
ratio_a = 0.44
level = 3
pins = 8
epsilons = 2^-3
seed = 5
"""


@pytest.mark.parametrize("samples", [0, 200])
def test_cli_hinge_sorts_gaps_once_per_exact_run(tmp_path, samples):
    # the sort depends on neither eps nor t, so an exact run sorts once for
    # both counts at every eps (Monte Carlo sorts none), and hinge.csv holds
    # what counts that sort for themselves give
    path = write_cfg(tmp_path, "h.cfg", HINGE_CFG.replace("2^-3", "2^-3 2^-4 2^-5")
                     + f"mc_samples = {samples}\n")
    calls = []

    def spy(lam, mu, phi, sort=configs_module.sort_gaps):
        calls.append(len(lam))
        return sort(lam, mu, phi)

    out = tmp_path / "o"
    with mock.patch.object(pinlab.cli, "sort_gaps", spy), \
            mock.patch.object(configs_module, "sort_gaps", spy):
        assert cli_main(["hinge", "--config", path, "--out", str(out)]) == 0
    assert len(calls) == (samples == 0)
    cfg = experiments.load_config(path)
    mu, pins, phi = pinned_setup(cfg, 5, read_key(cfg, "pins", "48"))
    gaps = phi.value(pins[:, None, :], mu.points[None, :, :])
    lam, beta, t_nodes = hinge_setup(phi, mu, pins, gaps)
    rows = []
    for eps in read_key(cfg, "epsilons"):
        single = configs_module.hinge_count(lam, mu, phi, 0.5, eps, samples, 5)
        rows.append([eps, 0.5, single.count_normalized, single.stderr,
                     configs_module.hinge_count_integrated(lam, mu, phi, beta, eps, t_nodes,
                                                           samples, 5)])
    experiments.write_csv(tmp_path / "hinge.csv",
                          ["eps", "t", "count_normalized", "stderr", "integrated"], rows)
    assert (out / "hinge.csv").read_bytes() == (tmp_path / "hinge.csv").read_bytes()


@pytest.mark.parametrize("generator", ["product_cantor", "subdivision", "circle", "uniform"])
def test_cli_gen_frostman_constant_is_probed_or_null(tmp_path, generator):
    # circle and uniform used to write the dataclass default 1.0, which
    # nothing measured; the cell fractals keep their probed constant bit
    # for bit
    path = write_cfg(tmp_path, "g.cfg", f"generator = {generator}\nlevel = 4\n"
                     "target_dim = 1.6\nn_atoms = 64\nper_side = 8\nseed = 9\n")
    out = tmp_path / "o"
    assert cli_main(["gen", "--config", path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    frac, mu = build_generator(experiments.load_config(path), 9)
    assert summary["atoms"] == len(mu)
    if frac is None:
        assert summary["frostman_constant"] is None and summary["target_dim"] is None
    else:
        assert summary["frostman_constant"] == loop_frostman_constant(mu, frac)
        assert summary["frostman_constant"] == {"product_cantor": 1.875,
                                                "subdivision": 5.000000000000002}[generator]


def test_cli_regression_missing_golden_exit_4(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "h.cfg", HINGE_CFG)
    out = tmp_path / "h"
    assert cli_main(["hinge", "--config", cfg, "--out", str(out),
                     "--regression-freeze"]) == 0
    os.remove(out / "golden" / "hinge.csv")
    capsys.readouterr()
    assert cli_main(["hinge", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "regression mismatch: golden file(s) missing: hinge.csv\n"


def test_cli_regression_column_count_change_exit_4(tmp_path, capsys):
    # rows paired cell by cell used to pass when the current run had a column
    # more than the golden, whose cells all match
    cfg = write_cfg(tmp_path, "h.cfg", HINGE_CFG)
    out = tmp_path / "h"
    assert cli_main(["hinge", "--config", cfg, "--out", str(out),
                     "--regression-freeze"]) == 0
    golden = out / "golden" / "hinge.csv"
    with open(golden) as fh:
        rows = list(csv.reader(fh))
    with open(golden, "w", newline="") as fh:
        csv.writer(fh).writerows(row[:-1] for row in rows)
    capsys.readouterr()
    assert cli_main(["hinge", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    width = len(rows[0])
    assert err.startswith(f"regression mismatch: {len(rows)} regression difference(s)")
    assert f"hinge.csv:0: column count golden={width - 1} current={width}\n" in err


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
    cells = open(os.path.join(out, "cells.txt")).read().splitlines()
    assert cells[0].split()[:4] == ["2", "2", "4", "3"] and len(cells) == 1 + 3 ** 4
    atoms = np.loadtxt(os.path.join(out, "measure.csv"), delimiter=",", skiprows=1)
    assert atoms.shape == (3 ** 4, 3) and atoms[:, 2].sum() == pytest.approx(1.0)
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


def test_readme_key_table_is_keys():
    """The README's key table has one row per KEYS entry and no other, each
    giving the entry's kind and domain, and its default where it has one."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "README.md")) as fh:
        rows = [[c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
                for line in fh if line.startswith("| `")]
    rows = [r for r in rows if len(r) == 6]
    table = {r[0].strip("`"): r for r in rows}
    assert len(table) == len(rows) and sorted(table) == sorted(KEYS)
    for key, (_, _, kind, domain, default, _) in table.items():
        row = KEYS[key]
        least = f", at least {row.least} values" if row.least > 1 else ""
        assert (kind, domain) == (row.kind, f"`{row.domain}`{least}"), key
        assert row.default is None or default == f"`{row.default}`", key


def _config_keys(text):
    """The keys of config text, or none when it is not config text."""
    try:
        return set(parse_config_text(text))
    except ConfigError:
        return set()


def _keys_set_in(path):
    """Keys of the config texts and config dicts (str keys, str values) that
    a Python file holds as literals."""
    keys = set()
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            keys |= _config_keys(node.value)
        elif isinstance(node, ast.Dict) and node.keys and all(
                isinstance(n, ast.Constant) and isinstance(n.value, str)
                for n in node.keys + node.values):
            keys |= {n.value for n in node.keys}
    return keys


def test_every_key_is_set_by_an_experiment():
    """Every KEYS row is set by a config of an acceptance criterion, a demo,
    a benchmark workload or a README config block: a key no experiment sets
    is a constant."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    demos = os.path.join(root, "demos")
    paths = [os.path.join(root, "tests", "test_acceptance.py"),
             os.path.join(root, "bench", "workloads.py")]
    paths += [os.path.join(demos, name) for name in sorted(os.listdir(demos))
              if name.endswith(".py")]
    keys = set().union(*map(_keys_set_in, paths))
    with open(os.path.join(root, "README.md")) as fh:
        for lang, block in re.findall(r"^```(\w*)\n(.*?)^```", fh.read(), re.S | re.M):
            keys |= set() if lang else _config_keys(block)
    assert sorted(set(KEYS) - keys) == []


def test_every_export_is_used_outside_the_unit_tests():
    """Every name `pinlab/__init__.py` exports is named by `src/` other than
    at its own `def` or `class` line, by a demo, an acceptance criterion, the
    README or a file of `bench/`: a name only unit tests call is not API."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    src = os.path.dirname(pinlab.__file__)

    def texts(folder, suffix=""):
        paths = [os.path.join(folder, n) for n in sorted(os.listdir(folder)) if n.endswith(suffix)]
        return [open(p).read() for p in paths if os.path.isfile(p)]

    with open(os.path.join(src, "__init__.py")) as fh:
        init = fh.read()
    exports = [alias.name for node in ast.parse(init).body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    users = "\n".join([t for t in texts(src, ".py") if t != init]
                      + texts(os.path.join(root, "demos"), ".py")
                      + texts(os.path.join(root, "bench"))
                      + texts(os.path.join(root, "tests"), "test_acceptance.py")
                      + texts(root, "README.md"))
    unused = [name for name in exports
              if not re.search(rf"\b{name}\b", re.sub(rf"^(def|class) {name}\b", "",
                                                     users, flags=re.M))]
    assert unused == []


def _bounds(row):
    lo, hi = (experiments.parse_number(end, "end") for end in row.domain[1:-1].split(","))
    return lo, hi, row.domain[0] == "(", row.domain[-1] == ")"


NUMERIC_KEYS = sorted(k for k, row in KEYS.items() if row.kind in ("int", "float", "numbers"))


def _text(row, token):
    """Config text holding `token`, padded with the default's first values
    when the list needs more than one."""
    return " ".join([token] + (row.default or "").split()[:row.least - 1])


@pytest.mark.parametrize("key", NUMERIC_KEYS)
@settings(max_examples=25)
@given(data=st.data())
def test_key_value_inside_domain_comes_back_unchanged(key, data):
    row = KEYS[key]
    lo, hi, open_lo, open_hi = _bounds(row)
    if row.kind == "int":
        val = data.draw(st.integers(int(max(lo, -1e9)), int(min(hi, 1e9))))
        token = str(val)
    else:
        val = data.draw(st.floats(lo, hi, exclude_min=open_lo, exclude_max=open_hi,
                                  allow_nan=False, allow_infinity=False))
        token = repr(val)
    got = read_key({key: _text(row, token)}, key)
    assert (got[0] if row.kind == "numbers" else got) == val
    assert type(val) is type(got[0] if row.kind == "numbers" else got)


def _outside(row):
    """NaN, both infinities and the nearest value past each finite bound."""
    lo, hi, open_lo, open_hi = _bounds(row)

    def past(end, way):
        return end + way if row.kind == "int" else float(np.nextafter(end, way * math.inf))

    out = [math.nan, math.inf, -math.inf]
    if math.isfinite(lo):
        out.append(lo if open_lo else past(lo, -1))
    if math.isfinite(hi):
        out.append(hi if open_hi else past(hi, 1))
    return out


#: The numeric keys that became constants, with the rows they had: a config
#: setting one is refused whatever its value.
RETIRED_KEYS = {
    "regression_rtol": Key("float", "[0, inf)"),
    "box_lo": Key("float", "(-inf, inf)"),
    "box_hi": Key("float", "(-inf, inf)"),
    "radius": Key("float", "(0, inf)"),
    "phase_factor": Key("float", "(-inf, inf)"),
    "cap_radius": Key("float", "(0, 1)"),
    "hinge_t_nodes": Key("int", "[2, inf)"),
    "vertices": Key("int", "[1, inf)"),
    "radon_band": Key("float", "(0, inf)"),
    "hinge_pins": Key("int", "[1, inf)"),
    "t_step_divisor": Key("int", "[2, inf)"),
    "stable_tol": Key("float", "[0, inf)"),
    "shrink_total": Key("float", "[0, 1)"),
}


@pytest.mark.parametrize("key, val", [(k, v) for k in NUMERIC_KEYS for v in _outside(KEYS[k])]
                         + [(k, v) for k, row in RETIRED_KEYS.items() for v in _outside(row)])
def test_key_value_outside_domain_is_a_config_error_naming_it(tmp_path, key, val):
    if key in RETIRED_KEYS:
        path = write_cfg(tmp_path, "c.cfg", f"{key} = {float(val)!r}\n")
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            experiments.load_config(path)
        return
    with pytest.raises(ConfigError, match=f"config key '{key}' must be"):
        read_key({key: _text(KEYS[key], repr(float(val)))}, key)


@pytest.mark.parametrize("command, body, argv, key", [
    ("pinned", "mc_samples = 64\nseed = -1\n", [], "seed"),
    ("pinned", "mc_samples = 64\n", ["--seed", "-1"], "seed"),
    ("probe", "pins = 50\nfloor = nan\n", [], "floor"),
    ("probe", "generator = circle\nn_atoms = 20\npins = 60\n", [], "pins"),
    ("hinge", "t = nan\n", [], "t"),
    ("fourier", "which = radon\nt = nan\n", [], "t"),
    ("sweep", "epsilons = 2^-3 -0.0625\n", [], "epsilons"),
    ("pinned", "mc_sample = 64\n", [], "mc_sample"),
    ("config-count", COUNT_CFG + "lift = 2\n", [], "lift"),
    ("sweep", "d = -1\n", [], "d"),
    # in d = 2 every atom lies inside the 0.75 cap, so only a fixed pin leaves it
    ("pinned", "phase = sphere_geodesic_chart\npin_policy = fixed\npin = 1.4 0.5\n", [],
     "phase"),
    ("probe", "generator = circle\nn_atoms = 128\npins = 60\n", ["--jobs", "0"], "jobs"),
    ("probe", "generator = circle\nn_atoms = 128\npins = 60\n", ["--jobs", "-1"], "jobs"),
    # one Gauss-Legendre node sits on psi's zero diagonal: every |G| is 0
    ("fourier", "which = osc\nquad_n = 1\n", [], "quad_n"),
    ("fourier", "which = osc\nquad_n = 1\nphase = flat_torus\n", [], "quad_n"),
    ("config-count", COUNT_CFG.replace("1-2 2-3\n", "2-1\n"), [], "edges"),
    ("config-count", COUNT_CFG.replace("1-2 2-3\n", "1-1\n"), [], "edges"),
    ("config-count", COUNT_CFG.replace("1-2 2-3\n", "0-1\n"), [], "edges"),
    # a repeated pair, in either order, used to replace the earlier gap
    ("config-count", COUNT_CFG.replace("1-2 2-3\n", "1-2\n").replace("2-3:0.5", "1-2:0.7"),
     [], "t_assignment"),
    ("config-count", COUNT_CFG.replace("1-2 2-3\n", "1-2\n").replace("2-3:0.5", "2-1:0.7"),
     [], "t_assignment"),
    # the keys that became constants: any value is an unknown key
    ("hinge", "regression_rtol = nan\n", [], "regression_rtol"),
    ("gen", "generator = uniform\nper_side = 4\nbox_lo = 1\n", [], "box_lo"),
    ("gen", "generator = uniform\nper_side = 4\nbox_hi = 0\n", [], "box_hi"),
    ("gen", "generator = circle\nradius = 0.25\n", [], "radius"),
    ("pinned", "phase = scaled_euclidean\nphase_factor = nan\n", [], "phase_factor"),
    ("pinned", "phase = scaled_euclidean\nphase_factor = 0\n", [], "phase_factor"),
    ("fourier", "which = osc\nquad_n = 8\nphase = sphere_geodesic_chart\n"
     "cap_radius = 0.1\n", [], "cap_radius"),
    ("fourier", "which = radon\nradon_side_n = 16\nepsilons = 2^-3\n"
     "phase = sphere_geodesic_chart\ncap_radius = 0.1\n", [], "cap_radius"),
    ("pinned", "write_densities = all\n", [], "write_densities"),
    ("hinge", "hinge_t_nodes = 8\n", [], "hinge_t_nodes"),
    ("config-count", COUNT_CFG + "vertices = 3\n", [], "vertices"),
    ("fourier", "which = radon\nradon_band = -1\n", [], "radon_band"),
    ("sweep", "hinge_pins = 4\n", [], "hinge_pins"),
    ("sweep", "t_step_divisor = 1\n", [], "t_step_divisor"),
    ("sweep", "stable_tol = nan\n", [], "stable_tol"),
    ("sweep", "shrink_total = 5\n", [], "shrink_total"),
    ("sweep", "shrink_mode = per_step\n", [], "shrink_mode"),
], ids=["seed_key", "seed_flag", "floor_nan", "probe_pins_capped", "hinge_t_nan",
        "radon_t_nan", "negative_eps", "typo", "lift_2", "d_negative", "cap_measure",
        "jobs_0", "jobs_negative", "quad_n_1", "quad_n_1_torus", "edges_2-1", "edges_1-1",
        "edges_0-1", "t_assignment_repeat", "t_assignment_reversed", "rtol_nan", "box",
        "box_hi", "radius", "phase_factor_nan",
        "phase_factor_zero", "cap_osc", "cap_radon", "write_densities", "hinge_t_nodes", "vertices", "radon_band", "hinge_pins",
        "step_divisor_1", "stable_tol_nan", "shrink_total_5", "shrink_mode"])
def test_cli_bad_key_exits_2_with_one_line_naming_it(tmp_path, capsys, command, body,
                                                     argv, key):
    # each used to exit 0, exit 1 with a traceback, or exit 2 without the key
    cfg = write_cfg(tmp_path, "bad.cfg", "level = 3\ntarget_dim = 1.6\n" + body)
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert re.search(rf"\b{key}\b", err), err


#: The three callers of `experiments.pin_table`: config text (seed included)
#: and the Monte Carlo seed stride of each.
TABLE_RUNS = {
    "pinned": (PINNED_CFG, 17),
    "sweep": ("d = 2\ndims = 1.0 1.8\nepsilons = 2^-3 2^-4 2^-5\nlevel = 4\npins = 4\n"
              "seed = 3\n", 17),
    "probe": (SUBDIVISION_CFG + "pins = 50\nepsilons = 2^-4 2^-5 2^-6\nseed = 7\n", 13),
}


def _table_setups(cfg):
    """(dim, mu, pins, phi) per target dimension of a pin-table run, built
    step by step; dim is None outside a sweep."""
    seed = read_key(cfg, "seed")
    for dim in read_key(cfg, "dims") if "dims" in cfg else [None]:
        _, mu = build_generator(cfg, seed, target_dim=dim)
        yield dim, mu, draw_pins(cfg, mu, seed, read_key(cfg, "pins")), build_phase(cfg, 2)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("mc_samples", [0, 300])
@pytest.mark.parametrize("command", ["pinned", "sweep", "probe"])
def test_pin_table_rows_are_one_density_per_pin_and_eps(tmp_path, command, mc_samples,
                                                        jobs):
    # one sample_points call per pin, seeded seed + stride * pin, not one per
    # (pin, eps); yet every row, and every pinned density CSV, is that of one
    # pinned_density call per (pin, eps) drawing its own sample
    body, stride = TABLE_RUNS[command]
    path = write_cfg(tmp_path, "t.cfg", body + f"mc_samples = {mc_samples}\n")
    cfg = experiments.load_config(path)
    seed = read_key(cfg, "seed")
    draws = []
    sample = pinlab.pinned.sample_points

    def spy(mu, count, seed):
        draws.append(seed)
        return sample(mu, count, seed)

    out = tmp_path / "o"
    with mock.patch.object(pinlab.pinned, "sample_points", spy):
        assert cli_main([command, "--config", path, "--out", str(out),
                         "--jobs", str(jobs)]) == 0
    rows, want_draws = [], []
    for dim, mu, pins, phi in _table_setups(cfg):
        ref = phi.value(pins[:, None, :], mu.points[None, :, :])
        want_draws += [seed + stride * pi for pi in range(len(pins))] if mc_samples else []
        for ei, eps in enumerate(read_key(cfg, "epsilons")):
            for pi, pin in enumerate(pins):
                grid = None if dim is None else default_t_grid(ref, eps)
                nu = pinned_density(mu, phi, pin, Mollifier(eps), t_grid=grid,
                                    mc_samples=mc_samples, seed=seed + stride * pi)
                mass, cs, sup = density_mass(nu), cs_lower_bound(nu), support_measure(nu)
                rows.append({"pinned": [pi, eps, mass, cs, sup, nu.mass_stderr],
                             "sweep": [dim, pi, eps, mass, cs, sup, ""],
                             "probe": [eps, pi, sup, ""]}[command])
                if command == "pinned" and pi == 0:
                    name = f"density_pin{pi}_eps{ei}.csv"
                    experiments.write_csv(tmp_path / name, ["t", "value", "stderr"],
                                          [[float(t), float(v), float(s)] for t, v, s in
                                           zip(nu.t_grid, nu.values, nu.stderr)])
                    assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
    assert sorted(draws) == sorted(want_draws)
    if command == "pinned":
        rows.sort(key=lambda r: r[0])     # pin, then eps
    name = {"pinned": "pinned_summary.csv", "sweep": "sweep_rows.csv",
            "probe": "probe_rows.csv"}[command]
    got = (out / name).read_text()
    experiments.write_csv(tmp_path / name, got.splitlines()[0].split(","), rows)
    assert got == (tmp_path / name).read_text()
    # the rows differ from pin to pin: every cs bound, or > 10 probe supports
    col, least = {"pinned": (3, len(rows)), "sweep": (4, len(rows)), "probe": (2, 11)}[command]
    assert len({r[col] for r in rows}) >= least


@pytest.mark.parametrize("command", ["pinned", "sweep", "probe"])
def test_pin_table_failed_cell_stays_in_its_cell(tmp_path, capsys, command):
    # pinned_density fails at (pin 1, first eps), the first failure by eps,
    # and at (pin 0, second eps), the first by pin
    path = write_cfg(tmp_path, "t.cfg", TABLE_RUNS[command][0])
    cfg = experiments.load_config(path)
    dim, mu, pins, phi = next(_table_setups(cfg))
    eps_list = read_key(cfg, "epsilons")
    bad = {(1, eps_list[0]): "no density at pin 1, eps 0",
           (0, eps_list[1]): "no density at pin 0, eps 1"}
    real = experiments.pinned_density

    def failing(mu, phi, pin_x, mollifier, **kwargs):
        for (pi, eps), message in bad.items():
            if np.array_equal(pin_x, pins[pi]) and mollifier.epsilon == eps:
                raise DomainError(message)
        return real(mu, phi, pin_x, mollifier, **kwargs)

    with mock.patch.object(experiments, "pinned_density", failing):
        if command == "pinned":
            assert cli_main([command, "--config", path, "--out", str(tmp_path / "o"),
                             "--jobs", "2"]) == 2
            assert capsys.readouterr().err == "config error: no density at pin 0, eps 1\n"
            return
        run = sweep_threshold if command == "sweep" else exceptional_probe
        rep = run(cfg, jobs=2)
    failed = {(r["pin"], r["eps"]): r for r in rep.rows
              if r.get("dim", dim) == dim and r["error"]}
    assert {k: r["error"] for k, r in failed.items()} == bad
    assert all(math.isnan(r["support"]) for r in failed.values())
    assert sum(1 for r in rep.rows if r["error"]) == 2
    if command == "sweep":
        # the energy at each failed eps averages the other pins' densities
        ref = phi.value(pins[:, None, :], mu.points[None, :, :])
        for (pi, eps) in bad:
            dens = [pinned_density(mu, phi, pin, Mollifier(eps),
                                   t_grid=default_t_grid(ref, eps))
                    for pj, pin in enumerate(pins) if pj != pi]
            row, = (r for r in rep.energy_rows if (r["dim"], r["eps"]) == (dim, eps))
            assert row["l2_energy"] == l2_energy(np.full(len(dens), 1.0 / len(dens)), dens)


def test_cli_run_loads_no_heavy_scipy_module(tmp_path):
    """A fresh process that imports the CLI and runs a sweep, the energy
    battery and an exact chain has not loaded any scipy module."""
    sweep = write_cfg(tmp_path, "sweep.cfg", "level = 3\ndims = 1.0 1.6\n"
                      "epsilons = 2^-3 2^-4\npins = 2\n")
    energy = write_cfg(tmp_path, "energy.cfg", "which = energy\nsegment_atoms = 256\n"
                       "energy_side_n = 64\n")
    chain = write_cfg(tmp_path, "chain.cfg", "level = 3\ntarget_dim = 1.6\nk = 3\n"
                      "mc_samples = 0\n")
    runs = [["sweep", "--config", sweep, "--out", str(tmp_path / "s")],
            ["fourier", "--config", energy, "--out", str(tmp_path / "e")],
            ["chain", "--config", chain, "--out", str(tmp_path / "c")]]
    code = (
        "import json, sys\n"
        "import pinlab.cli\n"
        f"codes = [pinlab.cli.main(argv) for argv in {runs!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                                if m.startswith('scipy'))]))\n")
    src = os.path.dirname(os.path.dirname(pinlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert loaded == []
