"""Smoke test: the scripts under benchmarks/ still run against the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


def test_layer_microbenchmarks_run():
    pytest.importorskip("pytest_benchmark")
    benches = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "benchmarks").glob("bench_*.py"))
    done = run("-m", "pytest", "-q", "-p", "no:cacheprovider", *benches, "--benchmark-disable")
    assert done.returncode == 0, done.stdout + done.stderr


def test_paper_scale_replay_passes():
    done = run("benchmarks/paper_scale.py", "--p", "0", "--eps", "0.1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["passed"] is True
    assert result["k_eps"] == 99
