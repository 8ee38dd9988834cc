"""The benchmark's own tests, at tiny sizes (--smoke).

    python3 -m pytest perfbench

They are not part of the package's test suite.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from common import ProcResult
from reference import CheckFailure, Point
from workloads import FULL, check_potential_row, oneshot_cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_declared_metrics(workload, trace):
    out = _run("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stdout
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _run("--workload", "oneshot-cli", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_reference_accepts_the_rounded_value_and_rejects_1e_9_off():
    p = {"geometry": "cp", "a": 1.5, "alpha": 1.0, "beta": 0.25}
    pt = Point("cp", 1.5, 0.3, 1.0, 0.25)
    (ve, _), (vm, _) = pt.v_parts()
    row = [0.3, float(ve), float(vm), float(ve + vm), float(pt.force()[0])]
    check_potential_row(row, p)
    row[3] *= 1 + 1e-9
    with pytest.raises(CheckFailure):
        check_potential_row(row, p)


def test_refusal_turned_traceback_is_a_failure():
    refusal = next(op for op in oneshot_cli(random.Random(3), FULL)
                   if op.name == "refuse_outside")
    ok = ProcResult(0.2, 0.2, 30.0, 2, b"", "OutOfDomain: z=9 is not...\n")
    refusal.check(ok, None)
    crashed = ProcResult(0.2, 0.2, 30.0, 1, b"",
                         "Traceback (most recent call last):\n  ...\n")
    with pytest.raises(CheckFailure):
        refusal.check(crashed, None)
