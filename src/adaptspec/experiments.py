"""Packaged accuracy/cost studies: six examples, per-step CSV logs, sweeps.

Each example_config() factory pins one study's operating point (basis,
controller thresholds, step size, horizon).  run() marches it and writes
one CSV row per step; sweep() re-runs a config over a parameter grid and
tabulates the endpoint of every cell.  Nothing draws randomness, so
reruns are bit-identical and the CSVs double as regression artifacts.
"""

import csv
import dataclasses
import itertools
import math
import typing
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

import numpy as np
from scipy.special import erfc

from .adapt import AdaptiveState, ControllerConfig, _march, _step_count, scale_step
from .basis import (
    BasisDescriptor,
    Family,
    SpectralExpansion,
    nodes_weights,
    to_coefficients,
    to_values,
)
from .indicators import frequency_indicator, relative_error, relative_error_2d
from .schrodinger import (
    SchrodingerProblem,
    adapt_schrodinger_run,
    gaussian_packet,
    propagate_step,
)
from .solvers import (
    EvolutionProblem,
    advection_rhs,
    solve_collocation,
    track_function,
    track_function_2d,
)

__all__ = [
    "CSV_COLUMNS",
    "ExperimentConfig",
    "example_config",
    "load_config_file",
    "run",
    "sweep",
    "write_csv",
]

CSV_COLUMNS = ("t", "error", "freq", "ext", "N", "Nx", "Ny", "beta", "xL", "actions")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a reproduction run needs, in one hashable bundle.

    a/b parameterize the decaying-envelope targets (examples 3-4), zeta/k
    the wave packet (5-6), v_* and drive_* the double-well potential and
    its time-periodic forcing (6).  n_ref is the order of example 6's
    fixed-order reference march.
    """

    example: int
    controller: ControllerConfig
    family: Family
    order: int
    order_y: int = None
    beta0: float = 1.0
    x_left0: float = 0.0
    dt: float = 1e-3
    T: float = 1.0
    out: str = None
    a: float = 0.0
    b: float = 0.0
    zeta: float = 0.3
    k: float = 1.0
    n_ref: int = 600
    v_depth: float = 10.0
    v_sharp: float = 10.0
    drive_amp: float = 25.0
    drive_freq: float = 10.0

    def __post_init__(self):
        if self.example not in _RUNNERS:
            raise ValueError("example must be 1..6, got %r" % (self.example,))
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if not (0 < self.dt < math.inf and 0 < self.T < math.inf):
            raise ValueError("dt and T must be positive and finite")
        for name in ("beta0", "x_left0", "a", "b", "zeta", "k", "v_depth", "v_sharp",
                     "drive_amp", "drive_freq"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if self.beta0 <= 0 or self.zeta <= 0:
            raise ValueError("beta0 and zeta must be positive")
        if self.n_ref < 1:
            raise ValueError("n_ref must be >= 1")


# ---------------------------------------------------------------------------
# configuration plumbing

def _parse_bool(text):
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean, got %r" % (text,))


def _schema(cls):
    """Config-file parser per plain field of a config dataclass.

    The parser is the field's type, with X | None read as X and bool as
    _parse_bool; fields holding objects (example, controller, family) are
    not configurable from a file.
    """
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        if f.name in ("example", "controller", "family"):
            continue
        kinds = [t for t in typing.get_args(hints[f.name]) if t is not type(None)]
        kind = kinds[0] if kinds else hints[f.name]
        schema[f.name] = _parse_bool if kind is bool else kind
    return schema


_CONTROLLER_FIELDS = frozenset(_schema(ControllerConfig))
_EXPERIMENT_FIELDS = frozenset(_schema(ExperimentConfig))
_SCHEMA = {**_schema(ControllerConfig), **_schema(ExperimentConfig)}


def load_config_file(path):
    """Read line-based key=value overrides ('#' comments, blank lines ok)."""
    overrides = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key:
                raise ValueError("%s:%d: expected key=value" % (path, lineno))
            if key not in _SCHEMA:
                raise ValueError("%s:%d: unknown key %r" % (path, lineno, key))
            overrides[key] = _SCHEMA[key](value)
    return overrides


# Published operating points.  Values not named by a study stay at the
# ControllerConfig defaults; eta0 mirrors eta where only one threshold
# was quoted (the coarsening side is inactive or symmetric there).
_FACTORY_DEFAULTS = {
    1: (
        dict(eta=1.5, gamma=1.1, n_max=3, scaling=False, moving=False),
        dict(family=Family.CHEBYSHEV, order=10, dt=1e-3, T=2.0),
    ),
    2: (
        dict(eta=1.1, eta0=1.1, gamma=1.1, n_max=3, scaling=False, moving=False),
        dict(family=Family.LEGENDRE, order=36, order_y=36, dt=0.01, T=5.0),
    ),
    3: (
        dict(
            eta=1.2,
            eta0=1.2,
            gamma=1.05,
            n_max=3,
            q=0.95,
            nu=1.0 / 0.95,
            beta_lo=0.3,
            beta_hi=10.0,
            moving=False,
        ),
        dict(family=Family.LAGUERRE_FN, order=50, beta0=4.0, dt=1e-3, T=5.0, a=2.0, b=0.7),
    ),
    4: (
        dict(
            eta=1.2,
            eta0=1.2,
            gamma=1.05,
            n_max=3,
            q=0.95,
            nu=1.0 / 0.95,
            beta_lo=0.3,
            beta_hi=10.0,
            moving=False,
        ),
        dict(family=Family.LAGUERRE_FN, order=50, beta0=4.0, dt=1e-3, T=5.0, a=0.5, b=0.5),
    ),
    5: (
        dict(
            eta=1.1,
            eta0=1.1,
            gamma=1.05,
            n_max=6,
            q=0.95,
            nu=1.0 / 0.95,
            beta_lo=0.3,
            beta_hi=2.0,
            mu=1.0002,
            delta=0.005,
            d_max=0.1,
        ),
        dict(family=Family.HERMITE_FN, order=50, beta0=1.0, dt=0.005, T=1.0, zeta=0.3, k=1.0),
    ),
    6: (
        dict(
            eta=1.025,
            eta0=1.025,
            gamma=1.0,
            n_max=20,
            q=0.95,
            nu=1.0 / 0.95,
            beta_lo=0.3,
            beta_hi=2.0,
            moving=False,
        ),
        dict(
            family=Family.HERMITE_FN,
            order=200,
            beta0=1.3,
            dt=0.01,
            T=1.0,
            zeta=0.3,
            k=1.0,
            n_ref=600,
        ),
    ),
}


def example_config(example, **overrides):
    """Build the pinned configuration for one example, with overrides.

    Override keys use the canonical field names (controller fields like
    eta/gamma/d_max and experiment fields like order/dt/T); None values
    are ignored so callers can pass optional CLI arguments wholesale.
    """
    if example not in _FACTORY_DEFAULTS:
        raise ValueError("example must be 1..6, got %r" % (example,))
    ctrl, exp = (dict(d) for d in _FACTORY_DEFAULTS[example])
    for name, value in overrides.items():
        if value is None:
            continue
        if name in _CONTROLLER_FIELDS:
            ctrl[name] = value
        elif name in _EXPERIMENT_FIELDS:
            exp[name] = value
        else:
            raise ValueError("unknown configuration key %r" % (name,))
    return ExperimentConfig(example=example, controller=ControllerConfig(**ctrl), **exp)


# ---------------------------------------------------------------------------
# runners

def _logger(target):
    """A record list and the on_step callback that appends each step to it,
    with t and the error against target(x, t), or target(X, Y, t) for a
    tensor run, filled in.
    """
    records = []

    def log(t, u, rec):
        if rec.order_x is None:
            error = relative_error(u, lambda x: target(x, t))
        else:
            error = relative_error_2d(u, lambda X, Y: target(X, Y, t))
        records.append(dataclasses.replace(rec, t=t, error=error))

    return records, log


def _run_example_1(cfg):
    def analytic(x, t):
        return np.cos((t + 1.0) * (x + 2.0))

    d0 = BasisDescriptor(cfg.family, cfg.order)
    u0 = to_coefficients(analytic(nodes_weights(d0).nodes, 0.0), d0)
    problem = EvolutionProblem(
        rhs=advection_rhs,
        dt=cfg.dt,
        T=cfg.T,
        boundary=(-1, lambda s: np.cos(3.0 * (s + 1.0))),
    )
    records, log = _logger(analytic)
    u, _ = solve_collocation(problem, cfg.controller, u0, on_step=log)
    return records, u


def _run_example_2(cfg):
    def target(X, Y, t):
        w = 5.0 - 2.0 * abs(t - 2.5)
        p = 10.0 - 4.0 * abs(t - 2.5)
        return np.cos(w * X * Y) + np.abs(Y) ** p * np.sin(4.0 * w * X)

    dx0 = BasisDescriptor(cfg.family, cfg.order)
    dy0 = BasisDescriptor(cfg.family, cfg.order_y if cfg.order_y is not None else cfg.order)
    records, log = _logger(target)
    u, _ = track_function_2d(target, cfg.controller, dx0, dy0, cfg.dt, cfg.T, on_step=log)
    return records, u


def _tracking_runner(cfg, target):
    d0 = BasisDescriptor(cfg.family, cfg.order, beta=cfg.beta0, x_left=cfg.x_left0)
    records, log = _logger(target)
    u, _ = track_function(target, cfg.controller, d0, cfg.dt, cfg.T, on_step=log)
    return records, u


def _run_example_3(cfg):
    a, b = cfg.a, cfg.b
    return _tracking_runner(cfg, lambda x, t: np.exp(-x / (b * t + a)) * np.cos(x))


def _run_example_4(cfg):
    a, b = cfg.a, cfg.b
    return _tracking_runner(cfg, lambda x, t: np.exp(-(b * t + a) * x) * np.cos(x))


def _run_example_5(cfg):
    target = lambda x, t: gaussian_packet(x, t, cfg.zeta, cfg.k)
    problem = SchrodingerProblem(psi0=lambda x: target(x, 0.0), dt=cfg.dt, T=cfg.T)
    d0 = BasisDescriptor(cfg.family, cfg.order, beta=cfg.beta0, x_left=cfg.x_left0)
    records, log = _logger(target)
    u, _ = adapt_schrodinger_run(problem, cfg.controller, d0, on_step=log)
    return records, u


def _example_6_potentials(depth, sharp, amp, omega):
    def V(x):
        return -depth * (np.exp(-sharp * (x - 1.0) ** 2) + np.exp(-sharp * (x + 1.0) ** 2))

    def V_ex(x, t):
        return amp * np.sin(omega * t) * erfc(-x)

    return V, V_ex


def _example_6_start(cfg):
    """Example 6's problem and its initial space, of order cfg.order."""
    V, V_ex = _example_6_potentials(cfg.v_depth, cfg.v_sharp, cfg.drive_amp, cfg.drive_freq)
    problem = SchrodingerProblem(
        psi0=lambda x: gaussian_packet(x, 0.0, cfg.zeta, cfg.k),
        V=V,
        V_ex=V_ex,
        dt=cfg.dt,
        T=cfg.T,
    )
    d0 = BasisDescriptor(cfg.family, cfg.order, beta=cfg.beta0, x_left=cfg.x_left0)
    return problem, d0


@lru_cache(maxsize=2)
def _reference_trajectory_6(ref):
    """Example 6 yardstick: scaling-only march at the fixed reference order.

    ref is the configuration `_reference_key_6` derives.  Each step
    propagates, then runs the scaling controller, exactly as
    adapt_schrodinger_run does with only scaling on, but without the
    per-step indicators nobody reads.  Cached on ref so the three adaptive
    variants compared against it pay for it once.
    """
    problem, d0 = _example_6_start(ref)
    u = to_coefficients(np.asarray(problem.psi0(nodes_weights(d0).nodes), dtype=complex), d0)
    f = frequency_indicator(u)
    # exterior_ref is read only by the moving controller, which is off
    state = AdaptiveState(freq_ref=f, scale_ref=f, exterior_ref=math.nan, refine_factor=ref.controller.eta)

    def step(u, state, t, t_next):
        psi = propagate_step(u.coefficients, u.descriptor, problem, t)
        return scale_step(SpectralExpansion(u.descriptor, psi), state, ref.controller)

    trajectory = []
    _march(u, state, step, ref.dt, ref.T, lambda t, u, rec: trajectory.append(u))
    return tuple(trajectory)


def _reference_key_6(cfg):
    """cfg with the fields the reference march does not read reset."""
    c = cfg.controller
    scaling = ControllerConfig(
        p_adaptivity=False, moving=False, q=c.q, nu=c.nu, beta_lo=c.beta_lo, beta_hi=c.beta_hi
    )
    return dataclasses.replace(
        cfg, controller=scaling, family=Family.HERMITE_FN, order=cfg.n_ref, order_y=None,
        out=None, a=0.0, b=0.0,
    )


def _run_example_6(cfg):
    _step_count(cfg.dt, cfg.T)  # refuse a fractional horizon before the reference march
    reference = _reference_trajectory_6(_reference_key_6(cfg))
    problem, d0 = _example_6_start(cfg)
    # Refinement may grow the order, but never past what the yardstick resolves.
    n_abs = cfg.n_ref if cfg.controller.n_abs is None else min(cfg.controller.n_abs, cfg.n_ref)
    controller = dataclasses.replace(cfg.controller, n_abs=n_abs)
    # the step ending at t is reference step t/dt - 1
    records, log = _logger(lambda x, t: to_values(reference[round(t / cfg.dt) - 1], x))
    u, _ = adapt_schrodinger_run(problem, controller, d0, on_step=log)
    return records, u


_RUNNERS = {
    1: _run_example_1,
    2: _run_example_2,
    3: _run_example_3,
    4: _run_example_4,
    5: _run_example_5,
    6: _run_example_6,
}


# ---------------------------------------------------------------------------
# CSV output

def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return ""
    return "%.17g" % value


# the StepRecord fields behind the CSV columns but the last (the actions)
_CELLS = attrgetter("t", "error", "freq", "ext", "order", "order_x", "order_y", "beta", "x_left")


def _row(rec):
    return (*map(_fmt, _CELLS(rec)), ";".join(rec.actions))


def write_csv(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(_row(rec))


def _summary(cfg, last):
    if last.order_x is not None:
        size = "Nx=%d Ny=%d" % (last.order_x, last.order_y)
    else:
        size = "N=%d" % last.order
    tail = "" if last.beta is None else " beta=%.6g" % last.beta
    return "example %d: t=%.6g error=%.6e %s%s" % (cfg.example, last.t, last.error, size, tail)


def run(config, out=None):
    """March one configured example; write its CSV; print the endpoint."""
    records, u = _RUNNERS[config.example](config)
    path = out or config.out or ("example%d.csv" % config.example)
    write_csv(path, records)
    print(_summary(config, records[-1]))
    return records


# ---------------------------------------------------------------------------
# sweeps

def _cell_text(row):
    error, beta, order, status = row
    if status != "ok":
        return status
    if beta is None:
        return "%.3e / N=%d" % (error, order)
    return "%.3e / %.4g / %d" % (error, beta, order)


def sweep(config, grid, out=None):
    """Re-run `config` across a 1- or 2-axis parameter grid.

    grid maps field names (e.g. eta, gamma, eta0) to value lists; every
    combination becomes one cell holding (error, beta, N) at the horizon.
    A cell that raises is recorded as failed and the sweep moves on.
    """
    axes = [(name, tuple(values)) for name, values in grid.items()]
    if not axes or any(len(values) == 0 for _, values in axes):
        raise ValueError("sweep grid must be nonempty")
    names = tuple(name for name, _ in axes)
    for name in names:
        if name not in _CONTROLLER_FIELDS and name not in _EXPERIMENT_FIELDS:
            raise ValueError("unknown configuration key %r" % (name,))

    results = []
    for combo in itertools.product(*(values for _, values in axes)):
        overrides = dict(zip(names, combo))
        ctrl_over = {k: v for k, v in overrides.items() if k in _CONTROLLER_FIELDS}
        exp_over = {k: v for k, v in overrides.items() if k in _EXPERIMENT_FIELDS}
        try:
            cell_cfg = dataclasses.replace(
                config,
                controller=dataclasses.replace(config.controller, **ctrl_over),
                **exp_over,
            )
            records, u = _RUNNERS[cell_cfg.example](cell_cfg)
            last = records[-1]
            results.append((combo, (last.error, last.beta, last.order, "ok")))
        except Exception as exc:  # keep sweeping; the table records the loss
            results.append((combo, (None, None, None, "failed: %s" % exc)))

    path = out or config.out or ("sweep%d.csv" % config.example)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ("error", "beta", "N", "status"))
        for combo, row in results:
            error, beta, order, status = row
            writer.writerow(
                tuple(_fmt(v) for v in combo)
                + (_fmt(error), _fmt(beta), _fmt(order), status)
            )

    if len(axes) == 2:
        cols = axes[1][1]
        header = ["%s \\ %s" % names] + ["%g" % c for c in cols]
        print("  ".join("%-24s" % h for h in header))
        by_combo = dict(results)
        for r in axes[0][1]:
            cells = [_cell_text(by_combo[(r, c)]) for c in cols]
            print("  ".join("%-24s" % c for c in ["%g" % r] + cells))
    else:
        for combo, row in results:
            print("%s=%g  %s" % (names[0], combo[0], _cell_text(row)))
    return path
