"""The benchmark harness against the current package."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_passes():
    # bench/tracer.py wraps the package's functions and binds arguments by
    # name (u, dx_new, dy_new, psi, apply_a, evolve, on_step), so a signature
    # change that breaks the benchmark fails here
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
