"""Golden-log determinism: fixed-seed runs must reproduce committed event
logs *byte for byte*.

The files under ``tests/golden/`` were generated before the kernel fast
paths landed (scalar ``uniform_rate``, ``call_in`` deferred callbacks,
batched tag accounting, the single-pass fair-share loops).  Any optimisation that changes a float expression,
an accumulation order, or a queue tie-break shows up here as a diff --
which is exactly the regression this suite exists to catch.

Regenerate (only when an *intentional* semantic change lands) with::

    PYTHONPATH=src python -m repro run terasort --scale 0.05 --seed 42 \
        --events tests/golden/terasort_s005_seed42.jsonl
    PYTHONPATH=src python -m repro run terasort --scale 0.05 --seed 42 \
        --faults examples/faults/node-loss.json \
        --events tests/golden/terasort_s005_seed42_nodeloss.jsonl
    PYTHONPATH=src python -m repro serve --plan tests/golden/serve_plan.json \
        --scheduler fair --nodes 2 --cores 8 --max-queue 2 --max-wait 300 \
        --out tests/golden/serve_fair_q2_w300.json
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
REPO_ROOT = Path(__file__).parent.parent


def _run_and_read(tmp_path, extra_args):
    out = tmp_path / "events.jsonl"
    code = main(
        ["run", "terasort", "--scale", "0.05", "--seed", "42",
         "--events", str(out)] + extra_args
    )
    assert code == 0
    return out.read_bytes()


def _golden_bytes(name):
    path = GOLDEN_DIR / name
    if not path.exists():
        pytest.skip(f"golden log {name} not present")
    return path.read_bytes()


class TestGoldenLogs:
    def test_terasort_event_log_bit_identical(self, tmp_path, capsys):
        fresh = _run_and_read(tmp_path, [])
        assert fresh == _golden_bytes("terasort_s005_seed42.jsonl")

    def test_terasort_with_node_loss_bit_identical(self, tmp_path, capsys):
        plan = REPO_ROOT / "examples" / "faults" / "node-loss.json"
        if not plan.exists():
            pytest.skip("node-loss example plan not present")
        fresh = _run_and_read(tmp_path, ["--faults", str(plan)])
        assert fresh == _golden_bytes("terasort_s005_seed42_nodeloss.jsonl")


class TestForkedGoldenLogs:
    """The fork engine's correctness contract: a run that diverges in a
    copy-on-write child after the shared setup prefix must write the SAME
    BYTES as a from-scratch run -- against the committed goldens, so fork
    and non-fork paths are held to one reference."""

    def test_forked_event_log_bit_identical(self, tmp_path, capsys):
        fresh = _run_and_read(tmp_path, ["--fork"])
        assert fresh == _golden_bytes("terasort_s005_seed42.jsonl")

    def test_forked_node_loss_bit_identical(self, tmp_path, capsys):
        # The fault plan is a *divergence* on the fork path: the injector
        # is wired in the child, not in the shared prefix.
        plan = REPO_ROOT / "examples" / "faults" / "node-loss.json"
        if not plan.exists():
            pytest.skip("node-loss example plan not present")
        fresh = _run_and_read(tmp_path, ["--fork", "--faults", str(plan)])
        assert fresh == _golden_bytes("terasort_s005_seed42_nodeloss.jsonl")



class TestServeGoldenReport:
    """A chaos-free serve under both admission limits must reproduce the
    committed ``repro.service/1`` report byte for byte.  The plan sheds
    for both reasons (queue length and estimated wait), so either limit
    changing its arithmetic or its order shows up here."""

    def test_fair_serve_with_admission_limits_bit_identical(self, tmp_path,
                                                            capsys):
        out = tmp_path / "report.json"
        assert main(["serve", "--plan", str(GOLDEN_DIR / "serve_plan.json"),
                     "--scheduler", "fair", "--nodes", "2", "--cores", "8",
                     "--max-queue", "2", "--max-wait", "300",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == _golden_bytes("serve_fair_q2_w300.json")
