"""Tiny-size runs of every workload through the benchmark's command line.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["gen-data", "train", "eval"])
def test_tiny_untraced_run_reports_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_traced_run_reports_every_per_layer_metric():
    proc = _run("--workload", "eval", "--seed", "3", "--seconds", "0.5",
                "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    info = json.loads(next(ln for ln in lines if ln.startswith("# info "))[len("# info "):])
    assert info["unwrapped"] == []
    assert set(info["tracing_overhead"]) == {"stage_rate", "query_p50_ms", "query_tail_ms"}
    assert set(info["layer_sources"]) == set(declared)


def test_same_seed_gives_same_inputs_and_answers():
    digests = []
    for _ in range(2):
        proc = _run("--workload", "gen-data", "--seed", "5", "--seconds", "0.2",
                    "--trace", "0", "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        info = json.loads(next(ln for ln in proc.stdout.splitlines()
                               if ln.startswith("# info "))[len("# info "):])
        digests.append(info["digests"]["gen-data_datasets"])
    assert digests[0] == digests[1]


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "gen-data", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_declared_metrics_match_the_code():
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import run

    declared = _declared()
    assert [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]] == [
        (k, unit, better) for k, (unit, better) in run.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (name, unit, better) for name, unit, better in layers.PER_LAYER]
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOAD_NAMES)
