"""The benchmark's span tracer (`bench/spans.py`) names package functions and
reads their arguments and results by name; renaming any of them would break
the traced benchmark runs, not the package.  These tests execute the tracer's
source without installing it (and without writing bytecode under `bench/`)
and check every name it relies on."""

import importlib
import inspect
import os
import types

import numpy as np
import pytest

from pinlab import (Mollifier, chain_density, circle_measure, phase_function,
                    pinned_density)

PHI = phase_function("euclidean", 2)
SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("bench_spans")
    with open(SPANS) as fh:
        exec(compile(fh.read(), SPANS, "exec"), module.__dict__)
    return module


def test_every_traced_layer_resolves(spans):
    for name in spans.LAYERS:
        importlib.import_module("pinlab." + name.rsplit(".", 1)[0])
        assert callable(spans._resolve(name)), name


@pytest.mark.parametrize("name, params", [
    ("pinned.pinned_density", {"mu", "mc_samples"}),
    ("pinned.chain_density", {"mu", "mc_samples"}),
    ("configs.config_count", {"samples", "measures", "em"}),
    ("configs.hinge_count_integrated", {"samples", "lam", "mu", "eps", "t_nodes", "phi"}),
])
def test_counters_read_existing_parameters(spans, name, params):
    importlib.import_module("pinlab." + name.rsplit(".", 1)[0])
    assert params <= set(inspect.signature(spans._resolve(name)).parameters)


def test_results_expose_the_counted_grids(spans):
    # the work counters read a pinned result's t_grid and a chain's t_axes
    mu = circle_measure(32)
    pin = np.array([0.5, 0.5])
    nu = pinned_density(mu, PHI, pin, Mollifier(2.0 ** -3))
    assert len(nu.t_grid) == len(nu.values)
    assert spans._count_pinned({"mu": mu, "mc_samples": 0}, nu) == {
        "kernel_evals": len(nu.values) * len(mu)}
    ch = chain_density(mu, PHI, pin, 2, Mollifier(2.0 ** -3), mc_samples=16)
    assert len(ch.t_axes) == 2
    assert spans._count_chain({"mu": mu, "mc_samples": 16}, ch) == {
        "kernel_evals": 16 * sum(ch.values.shape)}


def test_counters_accept_the_sweep_and_probe_calls(spans):
    # the sweep passes its pins' sorted gaps to hinge_count_integrated with
    # a scalar eps, and the probe passes each pin's drawn rows to
    # pinned_density: the traced wrappers bind those calls and count them
    from unittest import mock

    from pinlab import configs, experiments, pinned

    tracer = spans.Tracer()
    hinge = tracer.wrap("configs.hinge_count_integrated", configs.hinge_count_integrated,
                        spans._count_hinge_integrated)
    dens = tracer.wrap("pinned.pinned_density", pinned.pinned_density, spans._count_pinned)
    sweep_cfg = {"d": "2", "dims": "1.0 1.8", "epsilons": "2^-3 2^-4", "level": "3",
                 "pins": "2"}
    probe_cfg = {"d": "2", "generator": "circle", "n_atoms": "64", "pins": "50",
                 "epsilons": "2^-4 2^-5", "mc_samples": "32"}
    with mock.patch.object(experiments, "hinge_count_integrated", hinge), \
            mock.patch.object(experiments, "pinned_density", dens), \
            mock.patch.object(experiments, "HINGE_PINS", 4), \
            mock.patch.object(experiments, "HINGE_T_NODES", 8):
        experiments.sweep_threshold(sweep_cfg, seed=7)
        experiments.exceptional_probe(probe_cfg, seed=7, jobs=2)
    out = tracer.summary()
    assert out["configs.hinge_count_integrated.calls"] == 2 * 2
    # 4 calls of 4 pins x 8 t-nodes x 64 atoms
    assert out["configs.hinge_count_integrated.window_tests"] == 4 * 4 * 8 * 64
    assert 0 < out["configs.hinge_count_integrated.hit_share"] < 1
    assert out["pinned.pinned_density.calls"] == 2 * 2 * 2 + 50 * 2
    assert out["pinned.pinned_density.kernel_evals"] > 0
