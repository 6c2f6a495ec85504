"""Smoke test: the quick narrative demos run to completion.

``train_synthetic.py`` is left out; it trains for about a minute.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(demo: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.fixture(scope="module")
def demo_run():
    """``run_demo``, run once per demo for the tests of this module."""
    return functools.cache(run_demo)


@pytest.mark.parametrize("demo", ["autodiff_basics", "parse_and_split",
                                  "routing_walkthrough", "verify_gradients"])
def test_demo_exits_cleanly(demo, demo_run):
    proc = demo_run(demo)
    assert proc.returncode == 0, proc.stderr


def test_verify_gradients_prints_each_row_once(demo_run):
    out = demo_run("verify_gradients").stdout
    rows = [line.split()[1] for line in out.splitlines()
            if line.startswith(("PASS", "FAIL"))]
    assert len(rows) == len(set(rows)), rows
    assert f"all {len(rows)} checks passed" in out
