"""Run one workload of pinlab's CLI and print its metrics as JSON.

    python3 bench/run.py --workload sweep-probe --seed 7 --seconds 60 --trace 0

Every process starts fresh (`child.py`), so peak memory and CPU time are
per run.  The run first takes SETUP_SAMPLES set-up times, then repeats the
workload until `--seconds` would be exceeded (at least once).  `--trace 0`
reports the medians of the end-to-end metrics named in BENCHMARK.json;
`--trace 1` runs untraced/traced pairs and reports the per-layer metrics of
the traced runs and the tracing overhead.  Every run checks its outputs
(see `workloads.check_step`); at DEFAULT_SEED the CLI also compares its
CSVs with the references in `golden/` at its own regression rtol of 1e-9.
The last line printed is
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`;
the line before it records the environment and the sample counts.

`--write-golden` instead runs the workload once at DEFAULT_SEED and stores
its CSVs as the new references.
"""

import argparse
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from spans import COUNTERS, LAYERS
from workloads import DEFAULT_SEED, WORKLOADS, check_step, output_files

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")

#: Set-up times measured per run; the median is reported.
SETUP_SAMPLES = 5
#: One BLAS thread: the sweep stays a single-threaded baseline, and
#: jobs x BLAS threads <= nproc for the two-job probe on two cores.
BLAS_THREADS = 1
#: A run ends within this many seconds whatever --seconds says.
TIME_LIMIT_S = 170


def golden_path(workload):
    return os.path.join(BENCH, "golden", workload + ".json.gz")


def git_sha():
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, name, seed, golden=None):
        self.name = name
        self.steps = WORKLOADS[name]
        self.seed = seed
        self.golden = golden
        self.dir = os.path.join(WORK, name)
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                        OMP_NUM_THREADS=str(BLAS_THREADS),
                        MKL_NUM_THREADS=str(BLAS_THREADS))
        self.attempted = self.failed = 0
        self.problems = []
        self.reference = {}     # step name -> {file: bytes} of the first run
        self.child_env = None
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.configs = {}
        for step in self.steps:
            path = os.path.join(self.dir, step.name + ".cfg")
            with open(path, "w") as fh:
                fh.write(step.config)
            self.configs[step.name] = path
        self.count = 0

    def spawn(self, steps, trace=False, setup_only=False):
        """Run child.py on `steps`; its result dict, or None if it died."""
        self.count += 1
        tag = f"{self.count:03d}"
        spec = {"root": ROOT, "steps": steps, "trace": trace,
                "setup_only": setup_only,
                "result": os.path.join(self.dir, tag + ".result.json")}
        spec_path = os.path.join(self.dir, tag + ".spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        with open(os.path.join(self.dir, tag + ".log"), "w") as log:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(BENCH, "child.py"), spec_path,
                     repr(t_spawn)], env=self.env, stdout=log, stderr=log,
                    timeout=max(1.0, self.deadline - t_spawn))
            except subprocess.TimeoutExpired:
                self.problems.append(f"process {tag} killed at the time limit")
                return None
        if proc.returncode != 0 or not os.path.exists(spec["result"]):
            self.problems.append(f"process {tag} exited {proc.returncode}, see {log.name}")
            return None
        with open(spec["result"]) as fh:
            result = json.load(fh)
        self.child_env = result["env"]
        return result

    def setup_time(self):
        steps = [{"argv": [], "config": self.configs[s.name]}
                 for s in self.steps]
        result = self.spawn(steps, setup_only=True)
        return None if result is None else result["setup_s"]

    def iteration(self, trace=False):
        """Run every step once in a fresh process and check the outputs."""
        it_dir = os.path.join(self.dir, f"{self.count + 1:03d}{'t' if trace else ''}")
        steps = []
        for step in self.steps:
            out = os.path.join(it_dir, step.name)
            os.makedirs(out)
            for fname, text in (self.golden or {}).get(step.name, {}).items():
                os.makedirs(os.path.join(out, "golden"), exist_ok=True)
                with open(os.path.join(out, "golden", fname), "w") as fh:
                    fh.write(text)
            steps.append({"config": self.configs[step.name], "argv": [
                step.command, "--config", self.configs[step.name], "--out", out,
                "--seed", str(self.seed), "--jobs", str(step.jobs)]})
        result = self.spawn(steps, trace=trace)
        codes = result["exit_codes"] if result else [None] * len(steps)
        for step, code in zip(self.steps, codes):
            out = os.path.join(it_dir, step.name)
            problems = [f"exit code {code}"] if code != 0 else self.check(step, out)
            self.attempted += step.ops
            if problems:
                self.failed += step.ops
                self.problems += [f"{step.name}: {p}" for p in problems]
        return result

    def check(self, step, out):
        problems = check_step(step, out, self.seed)
        files = {}
        for fname in output_files(out):
            with open(os.path.join(out, fname), "rb") as fh:
                files[fname] = fh.read()
        ref = self.reference.setdefault(step.name, files)
        if files != ref:
            problems.append("outputs differ from the first run of this seed")
        if self.golden is not None:
            csvs = {f for f in files if f.endswith(".csv")}
            if csvs != set(self.golden.get(step.name, {})):
                problems.append(f"reference CSVs {sorted(self.golden.get(step.name, {}))} "
                                f"do not match outputs {sorted(csvs)}")
        return problems

    def measure(self, seconds, trace):
        """Repeat iterations (untraced, or untraced/traced pairs) until the
        next one, if as slow as the slowest so far, would end after
        `seconds`; returns their results."""
        setup = [self.setup_time() for _ in range(SETUP_SAMPLES)]
        end = min(time.monotonic() + seconds, self.deadline)
        runs, durations = [], []
        while True:
            t0 = time.monotonic()
            pair = [self.iteration()] + ([self.iteration(trace=True)] if trace else [])
            durations.append(time.monotonic() - t0)
            if None in pair:
                break
            runs.append(pair)
            if time.monotonic() + max(durations) > end:
                break
        return [s for s in setup if s is not None], runs


def check_counters(traced):
    """Problems if an exact work counter differs between traced runs."""
    problems = []
    for name in COUNTERS:
        values = {r["layers"].get(name, 0) for r in traced}
        if len(values) > 1:
            problems.append(f"counter {name} differs between runs: {sorted(values)}")
    return problems


def metric_value(name, traced, runs, error_share):
    if name == "error_share":
        return error_share
    if name == "bench.trace_overhead_share":
        return statistics.median(t["wall_s"] / u["wall_s"] - 1.0 for u, t in runs)
    if name.rsplit(".", 1)[0] not in LAYERS and name != "fractals.atoms":
        raise SystemExit(f"error: per-layer metric {name!r} names no traced layer")
    return statistics.median(r["layers"].get(name, 0) for r in traced)


def report(bench, run, setup, runs, trace):
    untraced = [pair[0] for pair in runs]
    error_share = run.failed / run.attempted
    if trace:
        traced = [pair[1] for pair in runs]
        run.problems += check_counters(traced)
        metrics = {m["name"]: {"value": metric_value(m["name"], traced, runs, error_share),
                               "unit": m["unit"]} for m in bench["per_layer"]}
        samples = {"traced": len(traced)}
    else:
        values = {"setup_s": setup}
        for key in ("wall_s", "cpu_s", "peak_rss_mib"):
            values[key] = [r[key] for r in untraced]
        metrics = {}
        for m in bench["end_to_end"]:
            if m["name"] not in values:
                raise SystemExit(f"error: no measurement for metric {m['name']!r}")
            metrics[m["name"]] = {"value": statistics.median(values[m["name"]]),
                                  "unit": m["unit"]}
        samples = {k: len(v) for k, v in values.items()}
    warnings = sorted({w for r in untraced for w in r["warnings"]})
    info = {"workload": run.name, "seed": run.seed, "trace": int(trace),
            "jobs": {s.name: s.jobs for s in run.steps}, "nproc": os.cpu_count(),
            "git_sha": git_sha(), "env": run.child_env, "samples": samples,
            "warnings": warnings, "problems": run.problems}
    result = {"correct": run.failed == 0 and not run.problems,
              "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    with open(os.path.join(run.dir, "record.json"), "w") as fh:
        json.dump({"info": info, "result": result, "setup_s": setup,
                   "runs": [[{k: v for k, v in r.items() if k != "spans"} for r in pair]
                            for pair in runs]}, fh, indent=1)
    return info, result


def write_golden(name):
    run = Run(name, DEFAULT_SEED)
    run.iteration()
    if run.failed or run.problems:
        raise SystemExit(f"error: reference run failed: {run.problems}")
    golden = {step: {f: data.decode() for f, data in files.items() if f.endswith(".csv")}
              for step, files in run.reference.items()}
    with gzip.open(golden_path(name), "wt") as fh:
        json.dump(golden, fh, sort_keys=True)
    print(f"wrote {os.path.relpath(golden_path(name), ROOT)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true")
    args = p.parse_args()
    for need in ("BENCHMARK.json", os.path.join("src", "pinlab", "cli.py")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit(f"error: {need} not found under {ROOT}")
    if args.write_golden:
        return write_golden(args.workload)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    golden = None
    if args.seed == DEFAULT_SEED:
        with gzip.open(golden_path(args.workload), "rt") as fh:
            golden = json.load(fh)
    run = Run(args.workload, args.seed, golden)
    setup, runs = run.measure(args.seconds, bool(args.trace))
    if not runs or not setup:
        sys.exit(f"error: no complete run: {run.problems}")
    info, result = report(bench, run, setup, runs, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
