"""Self-test of the benchmark: ``pytest bench -q`` (about 30 s).

Runs ``bench/run.py --smoke`` (each workload at about 1/20 of its size,
one pass) and checks the contract other code relies on: every metric in
``BENCHMARK.json`` is printed with its unit, a wrong output fails the run,
the seed reaches the inputs, and a run leaves tracked files alone.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def results(cwd: str = ROOT) -> dict:
    with open(os.path.join(cwd, "bench", "out", "results.json"),
              encoding="utf-8") as f:
        return json.load(f)


def git_status() -> str:
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def checkout_copy(tmp_path, with_library: bool) -> str:
    """The files a benchmark checkout holds, copied under ``tmp_path``."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=ignore)
    if with_library:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                        ignore=ignore)
    return str(tmp_path)


@pytest.fixture(scope="module")
def traced_run():
    in_git = shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git"))
    before = git_status() if in_git else None
    proc = run_bench("--trace")
    after = git_status() if in_git else None
    return proc, results(), before, after


def test_every_metric_is_printed_with_its_unit(traced_run):
    proc, doc, _before, _after = traced_run
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        pattern = (rf"^\s+{re.escape(metric['name'])}\s+\S+\s+"
                   rf"{re.escape(metric['unit'])}(\s|$)")
        assert re.search(pattern, proc.stdout, re.M), metric["name"]
    for name, outcome in doc["workloads"].items():
        assert outcome["metrics"]["error_rate"]["median"] == 0.0, name


def test_run_leaves_tracked_files_alone(traced_run):
    _proc, _doc, before, after = traced_run
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before


def test_seed_changes_the_inputs(traced_run):
    _proc, seed42, _before, _after = traced_run
    proc = run_bench("--seed", "7")
    assert proc.returncode == 0, proc.stderr
    seed7 = results()
    for name, outcome in seed7["workloads"].items():
        assert outcome["failed"] == 0, name
        assert (outcome["inputs_sha256"]
                != seed42["workloads"][name]["inputs_sha256"]), name


def test_tampered_reference_fails_the_run(tmp_path):
    checkout = checkout_copy(tmp_path, with_library=True)
    path = os.path.join(checkout, "bench", "reference",
                        "serve-chaos.seed42.json")
    with open(path, encoding="utf-8") as f:
        reference = json.load(f)
    reference["smoke"] = {item: "0" * 64 for item in reference["smoke"]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(reference, f)
    proc = run_bench("--workload", "serve-chaos", cwd=checkout)
    assert proc.returncode == 1
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False
    outcome = results(checkout)["workloads"]["serve-chaos"]
    assert outcome["metrics"]["error_rate"]["median"] == 1.0


def test_refuses_to_run_without_the_library(tmp_path):
    checkout = checkout_copy(tmp_path, with_library=False)
    proc = run_bench(cwd=checkout)
    assert proc.returncode != 0
    assert proc.stdout == ""
