"""Self-tests of the benchmark; not part of the tier-1 suite.

    python3 -m pytest bench -q      # about two minutes on two cores
"""

import gzip
import json
import os
import subprocess
import sys

import pytest

from run import BENCH, ROOT, Run, check_counters, golden_path
from spans import COUNTERS
from workloads import DEFAULT_SEED, WORKLOADS, check_step


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_repeat_exactly(workload):
    run = Run(workload, 3)
    first = run.iteration(trace=True)
    second = run.iteration(trace=True)
    assert run.failed == 0 and not run.problems, run.problems
    assert not check_counters([first, second])
    assert any(first["layers"].get(name) for name in COUNTERS)


def test_result_line_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    out = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                          "--workload", "fourier-counts", "--seed", "11", "--seconds", "1",
                          "--trace", "0"], capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == sum(s.ops for s in WORKLOADS["fourier-counts"])
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in bench["end_to_end"]}


def test_reference_mismatch_fails_the_step():
    with gzip.open(golden_path("fourier-counts"), "rt") as fh:
        golden = json.load(fh)
    text = golden["star"]["config_counts.csv"]
    header, first, *rest = text.split("\n")
    cells = first.split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    golden["star"]["config_counts.csv"] = "\n".join([header, ",".join(cells)] + rest)
    run = Run("fourier-counts", DEFAULT_SEED, golden)
    run.iteration()
    star = WORKLOADS["fourier-counts"][1]
    assert run.failed == star.ops
    assert run.problems == ["star: exit code 4"]


def test_sweep_checks_catch_bad_rows(tmp_path):
    step = WORKLOADS["sweep-probe"][0]
    good = "1.0,0,0.0625,0.9999999985,0.99,1.45,"
    rows = [good] * (step.ops - 2) + ["1.0,1,0.0625,0.9999,0.99,1.45,",
                                      "1.0,2,0.0625,1.0,1.5,1.45,boom"]
    (tmp_path / "sweep_rows.csv").write_text(
        "dim,pin,eps,mass,cs_lower_bound,support,error\n" + "\n".join(rows) + "\n")
    problems = check_step(step, str(tmp_path), seed=1)
    assert len(problems) == 3
    assert "1 error rows, first: boom" in problems[0]
