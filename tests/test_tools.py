"""Smoke test: the scripts under benchmarks/ still run against the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


def test_paper_scale_replay_passes():
    done = run("benchmarks/paper_scale.py", "--p", "0", "--eps", "0.1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["passed"] is True
    assert result["k_eps"] == 99


def test_sensitivity_smoke():
    done = run("benchmarks/sensitivity.py", "--seed", "0", "--perturb", "1",
               "--cell", "matrix-exact rosenbrock/exact/0_0", "--cell", "matrix-qn beale/lsr1/1_1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [ln.split(" | ")[0].split()[:2] for ln in lines[:2]] == [
        ["matrix-exact", "rosenbrock/exact/0_0"], ["matrix-qn", "beale/lsr1/1_1"]]
    assert all(ln.count(" | ") == 2 for ln in lines[:2])
    assert lines[2].startswith("fragile cells: ") and lines[2].endswith(" of 2")
    assert lines[-2].startswith("solved: unperturbed ")
    assert lines[-1].startswith("total iterations: unperturbed ")


def test_compact_accuracy_smoke():
    done = run("benchmarks/compact_accuracy.py", "--seed", "0", "--cell", "beale/lsr1/1_1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert all(ln.startswith("off beale/lsr1/1_1 ") for ln in lines[:-1])
    products, off = lines[-1].split(", ")
    assert products.startswith("products: ") and int(products.split()[-1]) > 0
    assert off.startswith("off by more than 1e-09 relative: ")
    assert int(off.split()[-1]) == len(lines) - 1
