"""Self-test of the benchmark harness at its smallest size (``--smoke``).

    python3 -m pytest bench/test_harness.py -q        # from the repo root

It checks that every metric of BENCHMARK.json is emitted with its unit on
every workload, in both modes, and no metric it does not list; that a
verify-sweep failure counts as a baseline defect only when every failed
report is the known one; that the seed argument is honoured; and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402

END_TO_END, PER_LAYER = bench.declared_metrics(ROOT)


def _run(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            os.path.join("bench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0",
            "--trace", str(trace),
            "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def _record(workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(bench.OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, 1, trace)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(final["correct"], bool)
    assert final["attempted"] >= 1 and 0 <= final["failed"] <= final["attempted"]
    expected = PER_LAYER if trace else END_TO_END
    assert final["metrics"].keys() == expected.keys()
    for name, metric in final["metrics"].items():
        assert metric["unit"] == expected[name], name
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
        assert metric["value"] > 0 or trace, name
    record = _record(workload, 1, trace)
    assert record["undeclared_metrics"] == []
    if not trace:
        # Metrics defined only on some workloads are written out, with units.
        for name, unit in bench.REPORTED_ONLY.items():
            assert record["metrics"][name]["unit"] == unit


def test_benchmark_json_names_the_harness_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_verify_sweep_defect_needs_every_failed_report_known():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    op_id = "poisson-mehler@0.3,0.6,0.3,q=0.9"
    assert workloads.is_baseline_defect("verify-sweep", op_id, ("pm-series-vs-product",))
    assert not workloads.is_baseline_defect("verify-sweep", op_id, ("pm-shifted-parameter",))
    assert not workloads.is_baseline_defect(
        "verify-sweep", op_id, ("pm-series-vs-product", "pm-shifted-parameter")
    )
    assert not workloads.is_baseline_defect("verify-sweep", op_id)


def test_seed_is_honoured():
    digests = []
    for seed in (1, 1, 2):
        proc = _run("near-gaussian", seed, 0)
        assert proc.returncode == 0, proc.stderr
        record = _record("near-gaussian", seed, 0)
        assert record["env"]["seed"] == seed
        digests.append(record["digest"])
    assert digests[0] == digests[1], "the same seed gave different inputs or outputs"
    assert digests[0] != digests[2], "a different seed gave the same inputs"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("cli", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
