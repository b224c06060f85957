"""Smoke test of the benchmark itself: both workloads at the tiny size.

    python -m pytest perfbench

Checks the output contract against BENCHMARK.json, that every output check
passes, that the exact counters repeat across two traced runs with the same
seed, and that the benchmark refuses to run without the curvewave sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAMED = {
    "cli": {
        "cli-halfwave": {"wall_s", "transform_s", "matrix_s", "report_s", "truncation_s"},
        "cli-variable-wave": {"wall_s", "matrix_s", "report_s"},
    },
    "library": {
        "frame-n1024": {"wall_s", "roundtrip_ms_p50", "roundtrip_ms_p75", "column_ms_p50"},
        "transport": {"wall_s", "ray_ms_p50", "ray_ms_p90", "predicted_s", "warp_column_ms_p50"},
    },
}


def bench(root: Path, workload: str, trace: int, seed: int = 3):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def parse(lines):
    report = json.loads(lines[-2])["report"]
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1, report["failures"]
    return report, last


def check_metrics(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    code, lines = bench(ROOT, workload, trace=0)
    assert code == 0, lines
    report, last = parse(lines)
    check_metrics(last["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert {part: set(m) for part, m in report["parts"].items()} == NAMED[workload]
    assert report["failed_frac"] == 0.0
    prov = report["provenance"]
    assert prov["threads"]["CURVEWAVE_THREADS"] == str(prov["nproc"])
    assert prov["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        code, lines = bench(ROOT, workload, trace=1)
        assert code == 0, lines
        _, last = parse(lines)
        check_metrics(last["metrics"], SPEC["per_layer"])
        runs.append(last["metrics"])
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] in ("count", "bytes", "ratio")} for m in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench(tmp_path, WORKLOADS[0], trace=0)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
