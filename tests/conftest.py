"""Suite-wide settings: a hypothesis profile and a clean-checkout guard.

The guard: the tests must leave the checkout's tracked files alone.

Tests write their outputs under ``tmp_path``.  A test that writes into the
repository instead (for example ``repro bench`` without ``--out``, which
defaults to the tracked ``BENCH_kernel.json``) makes ``git status`` differ
after the run, and this guard turns that into an error.  Outside a git
checkout, or without git, the guard does nothing.
"""

import os
import subprocess

import pytest
from hypothesis import settings

#: A larger budget for the kernel differential storms, selected with
#: ``--hypothesis-profile=kernel-ci`` (see .github/workflows/ci.yml).
settings.register_profile("kernel-ci", max_examples=2000, deadline=None)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracked_status():
    """``git status --porcelain`` over tracked files, or None without git."""
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout if proc.returncode == 0 else None


@pytest.fixture(scope="session", autouse=True)
def tracked_files_unchanged():
    before = _tracked_status()
    yield
    if before is None:
        return
    after = _tracked_status()
    if after is not None and after != before:
        pytest.fail(
            "the test suite changed tracked files in the checkout:\n"
            f"before:\n{before or '(clean)'}\nafter:\n{after or '(clean)'}",
            pytrace=False,
        )
