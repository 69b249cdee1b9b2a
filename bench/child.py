"""One benchmark process: import pinlab, load the configs, run the CLI steps.

    python3 bench/child.py SPEC.json T_SPAWN

SPEC.json names the checkout root, the steps' argv lists and config paths,
whether to trace and where to write the result.  T_SPAWN is the parent's
`time.monotonic()` just before it started this process, so `setup_s` covers
interpreter start, `import pinlab.cli` and config loading.  With
`setup_only` the process stops there.
"""

import json
import os
import resource
import sys
import time
import traceback
import warnings


def environment(root):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "pinlab": os.path.relpath(sys.modules["pinlab"].__file__, root)}


def run_steps(main, steps):
    """Exit code per step; an exception escaping the CLI counts as exit 1."""
    codes = []
    for step in steps:
        try:
            codes.append(main(step["argv"]))
        except Exception:
            traceback.print_exc()
            codes.append(1)
    return codes


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    t_spawn = float(sys.argv[2])
    root = spec["root"]
    import pinlab.cli
    from pinlab.experiments import load_config
    for step in spec["steps"]:
        load_config(step["config"])
    result = {"setup_s": time.monotonic() - t_spawn}
    if not os.path.abspath(pinlab.cli.__file__).startswith(os.path.join(root, "src", "")):
        sys.exit(f"pinlab imported from {pinlab.cli.__file__}, not from {root}/src")
    result["env"] = environment(root)
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cpu0, t0 = time.process_time(), time.perf_counter()
            codes = run_steps(pinlab.cli.main, spec["steps"])
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
        result.update(
            wall_s=wall, cpu_s=cpu, exit_codes=codes,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            warnings=sorted({f"{w.category.__name__}: {w.message}" for w in caught}))
        if tracer is not None:
            result["layers"] = tracer.summary()
            result["spans"] = tracer.dump()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
