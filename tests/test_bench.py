"""The benchmark harness against the current package."""

import json
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


_TRACED_MARCH = r"""
import json, os, sys
root, out = sys.argv[1], sys.argv[2]
sys.path[:0] = [os.path.join(root, "bench"), os.path.join(root, "src")]
from adaptspec import experiments
import tracer

t = tracer.Tracer()
tracer.install(t)
studies = ((1, dict(T=0.003)), (2, dict(T=0.02)), (5, dict(T=0.01)), (6, dict(T=0.02, n_ref=240)))
steps = 0
for example, overrides in studies:
    config = experiments.example_config(example, **overrides)
    records = experiments.run(config, out=os.path.join(out, "example%d.csv" % example))
    steps += len(records) if example != 2 else 0
metrics, absent = tracer.layer_metrics(t)
print(json.dumps({"steps_1d": steps, "metrics": metrics}))
"""


def test_tracer_sees_every_layer_through_the_march(tmp_path):
    # the per-layer metrics come from wrappers that bench/tracer.py swaps into
    # the package's module namespaces; a march that bound orchestrate_step or
    # p_adapt_step_2d at import time would bypass them and read 0 silently
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_MARCH, ROOT, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    m = report["metrics"]
    assert report["steps_1d"] == 3 + 2 + 2
    assert m["adapt.orchestrate_step.calls"] == report["steps_1d"]
    assert m["adapt.phase.evolve_s"] > 0
    assert m["experiments.phase.log_s"] > 0
    assert m["adapt.p_adapt_step_2d.s"] > 0
    assert m["expm.generator_applies"] > 0
