"""The benchmark's workloads: which packaged studies run, at which horizon,
how a seed perturbs them, and the accuracy each must reach.

Seed 0 runs the pinned operating points unchanged (apart from the horizon).
Any other seed multiplies each named parameter's pinned value by
1 + PERTURB * u with u uniform in [-1, 1].  PERTURB is small on purpose: example 5's moving trigger
(mu = 1.0002) is a 2e-4 dead zone, and a larger change flips translation
decisions, so the run's work and error would depend on the seed more than on
the code under test.  The studies receive only the resulting overrides.
"""

import random

PERTURB = 1e-4

# Each study: (example, horizon and other fixed overrides, parameters the seed
# perturbs, bound on the final weighted relative error).  Error bounds sit
# about ten times above the values measured at seed 0, so they catch a lost
# order of accuracy, not roundoff.
WORKLOADS = {
    "laguerre-track": [
        (3, {"T": 1.0}, ("a", "b"), 1e-8),
    ],
    "hermite-moving": [
        (5, {"T": 0.5}, ("k", "zeta"), 3e-9),
    ],
    "doublewell-refine": [
        (6, {"T": 0.1}, ("k", "zeta", "drive_freq"), 1e-6),
    ],
    # Examples 1 and 2 fix their targets in code and have no physical
    # parameter in their configuration, so the seed moves the order
    # controller's thresholds instead.
    "bounded-tensor": [
        (2, {}, ("eta", "eta0"), 3e-13),
        (1, {}, ("eta",), 1e-7),
    ],
}

# Horizons for the smoke mode: a few steps each, enough to reach every layer.
SMOKE_T = {1: 0.005, 2: 0.03, 3: 0.005, 5: 0.02, 6: 0.02}



def studies(workload, seed, smoke=False):
    """The study list for one run.

    Each study is a dict: example, overrides (fixed values), scale (factor
    per perturbed parameter, applied to the package's pinned value by
    child.py) and error_bound.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    out = []
    for example, fixed, perturbed, bound in WORKLOADS[workload]:
        overrides = dict(fixed)
        scale = {name: 1.0 + PERTURB * (2.0 * rng.random() - 1.0) if seed else 1.0
                 for name in perturbed}
        if smoke:  # a few steps prove nothing about accuracy: no error bound
            overrides["T"] = SMOKE_T[example]
            bound = None
        out.append({"example": example, "overrides": overrides, "scale": scale,
                    "error_bound": bound})
    return out
