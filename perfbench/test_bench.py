"""Self-test of the benchmark on tiny workloads (about a minute):

    python3 -m pytest -q perfbench/test_bench.py

Tiny sizes: Sklyanin degree 4, invariants degree 3, cocycles on C2xC2 and
C3xC3, report at degree 4.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402  (every workload, listed or not)
COUNTS = ("_calls", "_distinct", "basis_size", "normal_words",
          "coeff_height_bits", "cache_hit_ratio")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def tiny(workload, trace, *extra):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[0])["meta"]
    return meta, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    meta, result = tiny(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("python", "nproc", "seed", "commit", "source_sha256"):
        assert meta[key] not in (None, "")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_across_traced_runs(workload):
    runs = [tiny(workload, 1)[1] for _ in range(2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    counts = [{n: m["value"] for n, m in r["metrics"].items()
               if n.endswith(COUNTS)} for r in runs]
    assert counts[0] == counts[1]
    assert runs[0]["metrics"]["cyclo.mul_calls"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_expected_answer_counts_as_a_failure(workload):
    meta, result = tiny(workload, 0, "--corrupt-expected")
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    assert meta["fail_ratio"] == result["failed"] / result["attempted"]
    if workload == "sklyanin-gb":       # a Hilbert value off by one
        assert "binom(d+3,3)" in meta["errors"][0]


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".perfbench_runs" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "report", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
