"""One measured run of a workload, in a fresh interpreter.

Started by run.py with a JSON spec as its only argument.  It imports the
package from the spec's source tree, builds each study's configuration,
optionally installs the span tracer, and marches the studies through
`experiments.run`, the path a CLI user takes.  The last line of its standard
output is a JSON report: set-up time, wall and CPU time of the marches, peak
resident memory, and a fingerprint of each study's endpoint.
"""

import hashlib
import json
import math
import os
import resource
import signal
import sys
import time


def _dof(rec):
    if rec.order_x is not None:
        return (rec.order_x + 1) * (rec.order_y + 1)
    return rec.order + 1


def _finite(rec):
    values = (rec.error, rec.freq, rec.ext)
    return all(v is None or math.isfinite(v) for v in values)


def _fingerprint(example, records):
    last = records[-1]
    counts = {}
    for rec in records:
        for action in rec.actions:
            counts[action] = counts.get(action, 0) + 1
    sequence = "\n".join(";".join(rec.actions) for rec in records)
    return {
        "example": example,
        "steps": len(records),
        "N": last.order,
        "Nx": last.order_x,
        "Ny": last.order_y,
        "beta": last.beta,
        "x_left": last.x_left,
        "error": last.error,
        "actions": counts,
        "action_hash": hashlib.sha256(sequence.encode()).hexdigest()[:16],
    }


class SpeedProbe:
    """Samples the machine's current speed while a study runs.

    Every PERIOD seconds a SIGALRM handler times a fixed reference kernel
    (small numpy products and an interpreted loop, independent of the
    package).  The kernel's time rises and falls with the CPU share the host
    gives this process, so wall * mean(KERNEL_REF / kernel time) is the wall
    time the same work would take at the reference speed.
    """

    PERIOD = 0.025
    KERNEL_REF = 3.0e-4  # seconds; the kernel's time on an uncontended core

    def __init__(self, numpy):
        self.a = numpy.random.default_rng(0).standard_normal((64, 64))
        self.v = numpy.ones(64)
        self.norm = numpy.linalg.norm
        self.samples = []
        self._kernel()  # first call pays for lazy numpy set-up

    def _kernel(self):
        v = self.v
        for _ in range(40):
            v = self.a @ v
            v = v / self.norm(v)
            acc = 0
            for j in range(40):
                acc += j * j
        return v

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self):
        return sum(self.samples)

    def burst(self, n=30):
        """Time n kernels now; for a span too short to sample, like set-up."""
        for _ in range(n):
            self._sample(None, None)

    def factor(self):
        """Mean of KERNEL_REF / kernel time: 1 at the reference speed."""
        return sum(self.KERNEL_REF / c for c in self.samples) / len(self.samples)


def _config(experiments, study):
    """The study's configuration, perturbed parameters scaled from the pinned ones."""
    config = experiments.example_config(study["example"], **study["overrides"])
    scaled = {}
    for name, factor in study["scale"].items():
        owner = config if hasattr(config, name) else config.controller
        scaled[name] = getattr(owner, name) * factor
    return experiments.example_config(study["example"], **study["overrides"], **scaled)


def _blas_name(numpy):
    try:
        return numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def main(spec):
    src = spec["src"]
    sys.path.insert(0, src)
    import numpy
    import scipy

    import adaptspec
    from adaptspec import experiments

    if not os.path.abspath(adaptspec.__file__).startswith(os.path.join(src, "")):
        raise RuntimeError("imported adaptspec from %s, not from %s" % (adaptspec.__file__, src))
    configs = [_config(experiments, study) for study in spec["studies"]]
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    setup_s = time.monotonic() - spec["spawned"]
    probe = SpeedProbe(numpy)
    probe.burst()
    report = {"setup_s": setup_s, "setup_speed": probe.factor()}
    if spec["probe"]:
        return report

    wall = cpu = 0.0
    studies = []
    probe.samples = []
    for study, config in zip(spec["studies"], configs):
        out = os.path.join(spec["out_dir"], "example%d.csv" % study["example"])
        spent = probe.spent()
        with probe:
            t0, c0 = time.perf_counter(), time.process_time()
            records = experiments.run(config, out=out)
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
        wall -= probe.spent() - spent
        cpu -= probe.spent() - spent
        fp = _fingerprint(study["example"], records)
        fp["finite"] = all(_finite(rec) for rec in records)
        fp["dof_sum"] = sum(_dof(rec) for rec in records)
        studies.append(fp)
    if not probe.samples:  # studies shorter than one sampling period
        probe.burst()
    report.update(
        wall_s=wall,
        cpu_s=cpu,
        speed=probe.factor(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        studies=studies,
        env={
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_name(numpy),
        },
    )
    if tracer is not None:
        metrics, absent = tracing.layer_metrics(tracer)
        report.update(layers=metrics, absent=absent)
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
