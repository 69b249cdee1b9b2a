"""Span tracing of pinlab's layers, installed from outside the package.

`install()` wraps the public functions named in `LAYERS` and rebinds every
name in every loaded `pinlab` module that holds the original, so callers
that imported a function by name (`from .pinned import pinned_density`) go
through the wrapper too.  It must run before any `Mollifier` is built: a
mollifier binds `pinned.bump_profile` once, in `__post_init__`.

Each wrapper records a span (name, start, end, parent) in memory.  Parents
come from a thread-local stack; tasks of `rng.parallel_map` run as spans
whose parent is the enclosing `parallel_map` span, so work on pool threads
nests under it.  Work counters are computed from each call's arguments and
return value after the span has ended; the time spent counting is taken
out of the enclosing spans (see `Tracer._exclude`).
"""

import functools
import inspect
import math
import sys
import threading
import time

import numpy as np


def _resolve(name):
    module, func = name.rsplit(".", 1)
    return getattr(sys.modules["pinlab." + module], func)


# -- work counters: (bound arguments, return value) -> {counter: int} --------

def _count_bump(a, out):
    return {"evals": int(np.size(out)), "nonzero": int(np.count_nonzero(out))}


def _count_pinned(a, nu):
    per_node = a["mc_samples"] or len(a["mu"])
    return {"kernel_evals": len(nu.t_grid) * per_node}


def _count_chain(a, nu):
    n = len(a["mu"])
    lens = [len(ax) for ax in nu.t_axes]
    if a["mc_samples"]:
        return {"kernel_evals": a["mc_samples"] * sum(lens)}
    # link 1 pairs the pin with every atom, each later link every atom pair
    return {"kernel_evals": lens[0] * n + sum(m * n * n for m in lens[1:])}


def _count_hinge_integrated(a, _):
    if a["samples"]:
        return {}   # counters cover the exact (window-sum) mode only
    lam, mu, eps = a["lam"], a["mu"], a["eps"]
    t_nodes = np.asarray(a["t_nodes"], float)
    # the unwrapped function, so that counting records no spans
    pairwise = inspect.unwrap(sys.modules["pinlab.phases"].pairwise_value)
    gaps = pairwise(a["phi"], lam.points, mu.points)
    hits = sum(int(np.count_nonzero(np.abs(gaps - t) <= eps)) for t in t_nodes)
    return {"window_tests": len(lam) * len(t_nodes) * len(mu), "hits": hits}


def _count_config(a, _):
    if a["samples"]:
        return {"tuples": int(a["samples"])}
    measures = a["measures"]
    if not isinstance(measures, (list, tuple)):
        measures = [measures] * a["em"].vertex_count
    return {"tuples": math.prod(len(m) for m in measures)}


def _count_radon(a, _):
    n = np.asarray(a["fields"][0]).shape[0]
    return {"pair_evals": (n * n) ** 2}


def _count_pairwise(a, _):
    return {"pairs": len(a["A"]) * len(a["B"])}


def _count_atoms(a, mu):
    return {"atoms": len(mu)}


#: Traced functions as `<module>.<function>`, with their work counters.
LAYERS = {
    "profiles.bump_profile": _count_bump,
    "pinned.pinned_density": _count_pinned,
    "pinned.chain_density": _count_chain,
    "configs.hinge_count_integrated": _count_hinge_integrated,
    "configs.config_count": _count_config,
    "harmonic.radon_apply_stack": _count_radon,
    "harmonic.energy_integral": None,
    "harmonic.deposit_gaussian": None,
    "harmonic.oscillatory_G": None,
    "harmonic.surface_measure_decay": None,
    "phases.pairwise_value": _count_pairwise,
    "fractals.build_product_cantor": None,
    "fractals.build_subdivision_fractal": None,
    "fractals.natural_measure": _count_atoms,
    "fractals.sample_points": None,
    "rng.parallel_map": None,
    "experiments.sweep_threshold": None,
    "experiments.exceptional_probe": None,
    "experiments.build_generator": None,
    "experiments.write_csv": None,
    "experiments.regression_check": None,
    "cli.main": None,
}

TASK = "rng.parallel_map.task"


class Span:
    __slots__ = ("name", "parent", "start", "end", "counters",
                 "excluded", "direct_excluded", "children")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counters = None
        self.excluded = 0.0         # counting time anywhere inside this span
        self.direct_excluded = 0.0  # ... of which spent after a direct child ended
        self.children = []


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, parent):
        span = Span(name, parent)
        with self._lock:
            self.spans.append(span)
            if parent is not None:
                parent.children.append(span)
        self._stack().append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    def _exclude(self, span, seconds):
        """Take counting time out of the enclosing spans.  It stops at a
        pool task: the tasks of a multi-threaded parallel_map overlap, so
        their counting time is not a share of the map's wall time."""
        with self._lock:
            if span.parent is not None:
                span.parent.direct_excluded += seconds
            p = span.parent
            while p is not None:
                p.excluded += seconds
                if p.name == TASK and p.parent.counters["jobs"] > 1:
                    break
                p = p.parent

    def wrap(self, name, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = self._open(name, stack[-1] if stack else None)
            try:
                if name == "rng.parallel_map":
                    result = self._parallel_map(span, fn, sig, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                t0 = time.perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counters = counter(bound.arguments, result)
                self._exclude(span, time.perf_counter() - t0)
            return result

        return traced

    def _parallel_map(self, span, fn, sig, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        task_fn = bound.arguments["fn"]
        span.counters = {"jobs": int(bound.arguments["jobs"])}

        def task(item):
            # pool threads start with an empty stack: re-parent explicitly
            t = self._open(TASK, span)
            try:
                return task_fn(item)
            finally:
                self._close(t)

        bound.arguments["fn"] = task
        return fn(*bound.args, **bound.kwargs)

    def install(self):
        """Wrap every function in LAYERS and rebind it in all pinlab modules."""
        import pinlab.cli  # noqa: F401  loads every module that holds a layer
        modules = [m for k, m in sys.modules.items()
                   if (k == "pinlab" or k.startswith("pinlab.")) and m is not None]
        for name, counter in LAYERS.items():
            orig = _resolve(name)
            wrapped = self.wrap(name, orig, counter)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)

    def dump(self):
        """Spans as [name, start, end, parent index or None, counters]."""
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        return [[sp.name, sp.start, sp.end,
                 None if sp.parent is None else index[id(sp.parent)], sp.counters]
                for sp in self.spans]

    def summary(self):
        """Per-layer totals `<layer>.{s,self_s,calls,<counter>...}` and the
        derived shares: useful over attempted kernel evaluations and window
        tests, and parallel_map's efficiency, task time / (jobs x wall)."""
        out = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for sp in self.spans:
            dur = sp.end - sp.start
            if sp.name == TASK:
                add(TASK + "_s", dur)
                continue
            add(sp.name + ".s", dur - sp.excluded)
            add(sp.name + ".self_s",
                dur - _covered(sp.children) - sp.direct_excluded)
            add(sp.name + ".calls", 1)
            for k, v in (sp.counters or {}).items():
                add(f"{sp.name}.{k}", v)
            if sp.name == "rng.parallel_map":
                add("rng.parallel_map.worker_s", sp.counters["jobs"] * dur)

        def share(num, den):
            return out.get(num, 0) / out[den] if out.get(den) else 0.0

        out["profiles.bump_profile.nonzero_share"] = share(
            "profiles.bump_profile.nonzero", "profiles.bump_profile.evals")
        out["configs.hinge_count_integrated.hit_share"] = share(
            "configs.hinge_count_integrated.hits",
            "configs.hinge_count_integrated.window_tests")
        out["rng.parallel_map.efficiency"] = share(
            TASK + "_s", "rng.parallel_map.worker_s")
        out["fractals.atoms"] = out.get("fractals.natural_measure.atoms", 0)
        return out


def _covered(children):
    """Length of the union of the children's intervals."""
    total, reach = 0.0, -math.inf
    for c in sorted(children, key=lambda c: c.start):
        lo = max(c.start, reach)
        if c.end > lo:
            total += c.end - lo
            reach = c.end
    return total


#: Exact work counters; they must repeat exactly between runs of one seed.
COUNTERS = ("profiles.bump_profile.evals", "profiles.bump_profile.nonzero",
            "pinned.pinned_density.calls", "pinned.pinned_density.kernel_evals",
            "pinned.chain_density.kernel_evals",
            "configs.hinge_count_integrated.window_tests",
            "configs.hinge_count_integrated.hits",
            "configs.config_count.tuples", "harmonic.radon_apply_stack.pair_evals",
            "phases.pairwise_value.pairs", "fractals.atoms")
