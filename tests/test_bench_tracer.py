"""The benchmark's span tracer (`bench/spans.py`) names package functions and
reads their arguments and results by name; renaming any of them would break
the traced benchmark runs, not the package.  These tests execute the tracer's
source without installing it (and without writing bytecode under `bench/`)
and check every name it relies on."""

import importlib
import inspect
import os
import types

import pytest

from pinlab import ChainDensity, PinnedDensity

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


def test_results_expose_the_counted_grids():
    assert "t_grid" in PinnedDensity.__dataclass_fields__
    assert "t_axes" in ChainDensity.__dataclass_fields__
