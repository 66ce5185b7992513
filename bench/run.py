"""Outside-in benchmark for adaptspec.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a source checkout; the package is imported from
./src.  Each measured run of a workload is a fresh interpreter
(bench/child.py) with one BLAS thread, so every lru cache starts cold as it
does for a CLI user.  Runs repeat until --seconds is spent and each metric is
the median over the runs.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced runs and prints the per-layer metrics read from the traced ones.
Every run must finish with finite logged values and each study's final error
inside its bound (workloads.py); a run that raises or misses the bound
counts as a failed operation.  The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics.  --smoke marches
every workload a few steps in both modes and checks that each metric named
in BENCHMARK.json is emitted with its unit.  See bench/README.md for the
workloads and the metric map.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, studies

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3  # import-only interpreters per run, besides the measured ones
GRACE_S = 90  # a child still running this long after the deadline is killed
BLAS_THREADS = "1"

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_error": "rel",
    "mean_dof": "count",
}


def _unit(name):
    if name.endswith((".calls", "_builds", "_trials")) or name in (
        "adapt.moves", "adapt.refines", "adapt.coarsens", "expm.generator_applies",
        "expm.applies_per_call",
    ):
        return "count"
    if name.endswith(("_ratio", "overhead_frac")):
        return "ratio"
    if name.endswith("norm_drift_max"):
        return "rel"
    return "s"


class Failure(Exception):
    pass


class Bench:
    def __init__(self, root, workload, seed, smoke=False):
        self.src = os.path.join(root, "src")
        self.out_dir = os.path.join(root, ".bench_out", str(os.getpid()))
        self.studies = studies(workload, seed, smoke)
        self.env = dict(os.environ)
        self.env.pop("PYTHONPATH", None)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        self.setups = []
        self.attempted = 0
        self.failed = 0
        self.versions = None

    def child(self, deadline, trace=False, probe=False):
        """One fresh interpreter; every call is an attempted operation."""
        self.attempted += 1
        try:
            return self._child(deadline, trace, probe)
        except Failure:
            self.failed += 1
            raise

    def _child(self, deadline, trace, probe):
        spec = {
            "src": self.src,
            "studies": self.studies,
            "trace": trace,
            "probe": probe,
            "out_dir": self.out_dir,
        }
        os.makedirs(self.out_dir, exist_ok=True)
        timeout = max(5.0, deadline + GRACE_S - time.monotonic())
        spec["spawned"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise Failure("run exceeded %.0f s" % timeout)
        if proc.returncode != 0:
            raise Failure("run exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise Failure("run printed no report")
        self.setups.append(report["setup_s"] * report["setup_speed"])
        if not probe:
            self._gate(report)
            self.versions = report["env"]
        return report

    def _gate(self, report):
        for study, fp in zip(self.studies, report["studies"]):
            if not fp["finite"]:
                raise Failure("example %d logged a non-finite value" % fp["example"])
            if study["error_bound"] is not None and not fp["error"] <= study["error_bound"]:
                raise Failure("example %d: final error %.3e above bound %.1e"
                              % (fp["example"], fp["error"], study["error_bound"]))

    def measure(self, seconds, trace):
        """Repeat runs until the deadline; return (untraced, traced) reports."""
        deadline = time.monotonic() + seconds
        plain, traced = [], []
        try:
            if not trace:
                for _ in range(SETUP_PROBES):
                    self.child(deadline, probe=True)
            while True:
                t0 = time.monotonic()
                for is_traced in (False, True) if trace else (False,):
                    report = self.child(deadline, trace=is_traced)
                    (traced if is_traced else plain).append(report)
                if time.monotonic() + (time.monotonic() - t0) > deadline:
                    break
        except Failure as exc:
            print("bench: failed: %s" % exc, file=sys.stderr)
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(self.out_dir))
            except OSError:  # another run still uses it
                pass
        return plain, traced


def _fingerprints(report):
    return [{k: v for k, v in fp.items() if k not in ("finite", "dof_sum")}
            for fp in report["studies"]]


def _scaled(reports, key):
    """Median over runs of a time, scaled to the reference speed."""
    return statistics.median(r[key] * r["speed"] for r in reports)


def end_to_end(bench, plain):
    studies_ = plain[0]["studies"]
    errors = [fp["error"] for fp in studies_]
    return {
        "wall_s": _scaled(plain, "wall_s"),
        "cpu_s": _scaled(plain, "cpu_s"),
        "setup_s": statistics.median(bench.setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        # several studies: geometric mean, so a change in either one shows
        "final_error": math.exp(sum(math.log(e) for e in errors) / len(errors)),
        "mean_dof": sum(fp["dof_sum"] for fp in studies_) / sum(fp["steps"] for fp in studies_),
    }


def per_layer(plain, traced):
    out = {}
    for n in traced[0]["layers"]:
        scale = (lambda r: r["speed"]) if _unit(n) == "s" else (lambda r: 1)
        out[n] = statistics.median(r["layers"][n] * scale(r) for r in traced)
    out["trace.overhead_frac"] = _scaled(traced, "wall_s") / _scaled(plain, "wall_s")
    return out


def run(workload, seed, seconds, trace, root, smoke=False):
    """Measure one workload; return (result dict, fingerprint of the first run)."""
    bench = Bench(root, workload, seed, smoke)
    plain, traced = bench.measure(seconds, trace)
    reports = plain + traced
    fingerprints = [_fingerprints(r) for r in reports]
    same = all(fp == fingerprints[0] for fp in fingerprints)
    if not same:
        print("bench: fingerprints differ between runs", file=sys.stderr)
    ok = bool(plain) and (bool(traced) or not trace) and bench.failed == 0 and same
    metrics, absent = {}, []
    if ok:
        values = per_layer(plain, traced) if trace else end_to_end(bench, plain)
        metrics = {n: {"value": v, "unit": END_TO_END.get(n) or _unit(n)}
                   for n, v in values.items()}
        if trace:
            absent = traced[0]["absent"]
    print("bench: env %s" % json.dumps(dict(
        bench.versions or {}, python=sys.version.split()[0],
        blas_threads=int(BLAS_THREADS), nproc=os.cpu_count(),
        runs=len(reports), setup_samples=len(bench.setups),
        unscaled_wall_s=statistics.median(r["wall_s"] for r in reports) if reports else None,
        speed=statistics.median(r["speed"] for r in reports) if reports else None,
    )))
    print("bench: fingerprint %s" % json.dumps(fingerprints[0] if fingerprints else None))
    if absent:
        print("bench: absent (reported as 0) %s" % json.dumps(absent))
    result = {"correct": ok, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": metrics}
    return result, (fingerprints[0] if fingerprints else None)


def smoke(root):
    """Every workload a few steps, both modes; check names, units, fingerprints."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        fingerprints = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, fp = run(workload, 0, 0, trace, root, smoke=True)
            fingerprints.append(fp)
            if not result["correct"]:
                problems.append("%s trace=%d: not correct" % (workload, trace))
                continue
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append("%s: %s not emitted" % (workload, metric["name"]))
                elif got["unit"] != metric["unit"]:
                    problems.append("%s: %s has unit %s, expected %s"
                                    % (workload, metric["name"], got["unit"], metric["unit"]))
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("%s: not in BENCHMARK.json: %s" % (workload, sorted(extra)))
        if fingerprints[0] != fingerprints[1]:
            problems.append("%s: traced and untraced fingerprints differ" % workload)
    for p in problems:
        print("smoke: %s" % p)
    print("smoke: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick self-check, all workloads")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "adaptspec", "__init__.py")):
        print("bench: no package source at %s" % os.path.join(root, "src", "adaptspec"),
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    result, _ = run(args.workload, args.seed, args.seconds, args.trace, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
