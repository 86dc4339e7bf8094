"""The benchmark's own test: every workload at a tiny size, plus live checks.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import BY_NAME, DEFAULT_SEED, REFERENCE_DIGESTS, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_mirrors_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _ in tracer.LAYER_METRICS]
    assert sorted(REFERENCE_DIGESTS) == sorted(
        (w.name, tiny) for w in WORKLOADS for tiny in (False, True))


@pytest.mark.parametrize("name", sorted(BY_NAME))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(name, trace):
    for seed in (DEFAULT_SEED, 7):
        report, result = _bench(name, seed, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
        listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
        for m in listed:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                       for line in report), m["name"]


@pytest.fixture
def tiny_setup(tmp_path):
    def make(name, seed):
        return worker.setup(BY_NAME[name], seed, str(tmp_path), tiny=True)
    return make


@pytest.mark.parametrize("seed,corrupt_op", [(DEFAULT_SEED, 2), (7, 0)])
def test_a_corrupted_output_counts_as_failed(tiny_setup, tmp_path, seed, corrupt_op):
    # With the default seed the stored digest catches the damage; with any
    # other seed the invariant checks must.
    workload = BY_NAME["optimize-paper"]
    cli, config, _ = tiny_setup(workload.name, seed)
    expected = REFERENCE_DIGESTS[(workload.name, True)] if seed == DEFAULT_SEED else None
    walls, _, attempted, failed = worker.measure(
        cli, workload, config, str(tmp_path / "out"), 0.0,
        worker.Checker(expected), corrupt_op=corrupt_op)
    assert attempted == len(walls) + 1 and failed == 1


def test_invariants_catch_inconsistent_outputs(tiny_setup, tmp_path):
    workload = BY_NAME["catalog-wide"]
    cli, config, _ = tiny_setup(workload.name, 7)
    good = str(tmp_path / "good")
    assert cli.main([workload.command, "--config", config, "--out", good]) == 0
    assert check.invariant_errors(good) is None

    bad = str(tmp_path / "bad")
    shutil.copytree(good, bad)
    path = os.path.join(bad, "summary.json")
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    finals = summary["points"][1]["final_shares"]
    finals["0"] = finals["0"] + 0.5
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    assert "final share" in check.invariant_errors(bad)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    name = os.path.basename(HERE)
    shutil.copytree(HERE, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join(name, "run.py"), "--workload",
         "optimize-paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
