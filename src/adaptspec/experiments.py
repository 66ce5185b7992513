"""Packaged accuracy/cost studies (the table _STUDIES), per-step CSV logs, sweeps.

Each example_config() factory pins one study's operating point (basis,
controller thresholds, step size, horizon).  run() marches it and writes
one CSV row per step (a 1-D run's errors in one pass per stretch of steps
in one space); sweep() re-runs a config over a parameter grid and
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

from .adapt import ControllerConfig, _march, _sample, _step_count, initial_state, scale_step
from .basis import BasisDescriptor, Family, SpectralExpansion, _apply_real, evaluate_all
from .indicators import _relative_errors, relative_error_2d
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

    a/b parameterize the decaying-envelope targets (examples 3-4; a + b*t
    must be positive on [0, T]), zeta/k the wave packet (5-6), v_* and
    drive_* the double-well potential (v_sharp >= 0) and its time-periodic
    forcing (6).  n_ref is the order of the fixed-order reference march of
    a study whose pinned experiment names it (6).
    """

    example: int
    controller: ControllerConfig
    family: Family
    order: int
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
        pinned = _study(self.example)[2]
        _step_count(self.dt, self.T)
        for f in dataclasses.fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError("%s must be finite, got %r" % (f.name, getattr(self, f.name)))
        if self.beta0 <= 0 or self.zeta <= 0:
            raise ValueError("beta0 and zeta must be positive")
        for name, low in (("order", 0), ("n_ref", 1), ("v_sharp", 0)):
            if getattr(self, name) < low:
                raise ValueError("%s must be >= %d" % (name, low))
        if {"a", "b"} <= pinned.keys() and min(self.a, self.a + self.b * self.T) <= 0:
            raise ValueError("a + b*t must be positive on [0, T], got a=%g b=%g" % (self.a, self.b))
        lo, hi = self.controller.beta_lo, self.controller.beta_hi
        if self.controller.scaling and not lo <= self.beta0 <= hi:
            raise ValueError("beta0=%g outside the scaling range [%g, %g]" % (self.beta0, lo, hi))
        top, cap = _order_ceiling(self)
        if top is not None and self.order > top:
            raise ValueError("order=%d exceeds the order ceiling %s=%d" % (self.order, cap, top))


def _order_ceiling(cfg):
    """(order, name) of the lowest ceiling on cfg's orders, or (None, None): n_abs,
    and n_ref if the study's pinned experiment names it (its yardstick's order)."""
    ceilings = [(cfg.controller.n_abs, "n_abs")]
    if "n_ref" in _study(cfg.example)[2]:
        ceilings.append((cfg.n_ref, "n_ref"))
    return min(((c, name) for c, name in ceilings if c is not None), default=(None, None))


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
            try:
                overrides[key] = _SCHEMA[key](value)
            except ValueError as exc:
                raise ValueError("%s:%d: %s: %s" % (path, lineno, key, exc)) from None
    return overrides


def _override(config, overrides):
    """config with overrides applied, each to the controller or the experiment
    that owns its field.  None values are skipped; an unknown key is refused.
    """
    ctrl, exp = {}, {}
    for name, value in overrides.items():
        if name not in _SCHEMA:
            raise ValueError("unknown configuration key %r" % (name,))
        if value is not None:
            (ctrl if name in _CONTROLLER_FIELDS else exp)[name] = value
    controller = dataclasses.replace(config.controller, **ctrl)
    return dataclasses.replace(config, controller=controller, **exp)


def example_config(example, **overrides):
    """Build the pinned configuration for one example, with overrides.

    Override keys use the canonical field names (controller fields like
    eta/gamma/d_max and experiment fields like order/dt/T); None values
    are ignored so callers can pass optional CLI arguments wholesale.
    """
    _, ctrl, exp = _study(example)
    return _override(ExperimentConfig(example, ControllerConfig(**ctrl), **exp), overrides)


# ---------------------------------------------------------------------------
# runners

def _logger(target, rows=None):
    """The on_step callback, and a function returning the records with t and
    the error against target(x, t), or target(X, Y, t) in 2-D, filled in.
    1-D errors take one pass per stretch of steps in one space, against
    rows(x, ts): the target's values at x for the stretch's times ts.
    """
    rows = rows or (lambda x, ts: np.stack([target(x, t) for t in ts]))
    records, run = [], []  # run: (t, u, rec) of the steps since the space last changed

    def flush():
        if run:
            ts, us, recs = zip(*run)
            for r, t, e in zip(recs, ts, _relative_errors(us, lambda x: rows(x, ts))):
                records.append(dataclasses.replace(r, t=t, error=e))
            run.clear()
        return records

    def log(t, u, rec):
        if rec.order_x is not None:
            error = relative_error_2d(u, lambda X, Y: target(X, Y, t))
            records.append(dataclasses.replace(rec, t=t, error=error))
            return
        if run and run[-1][1].descriptor != u.descriptor:
            flush()
        run.append((t, u, rec))

    return log, flush


def _start(cfg):
    """The study's one starting space: cfg's family, order, beta0 and x_left0.
    Example 2 starts on it along both axes."""
    return BasisDescriptor(cfg.family, cfg.order, beta=cfg.beta0, x_left=cfg.x_left0)


def _run_example_1(cfg):
    def analytic(x, t):
        return np.cos((t + 1.0) * (x + 2.0))

    u0 = _sample(lambda x: analytic(x, 0.0), 0.0, _start(cfg))
    problem = EvolutionProblem(
        rhs=advection_rhs,
        dt=cfg.dt,
        T=cfg.T,
        boundary=(-1, lambda s: np.cos(3.0 * (s + 1.0))),
    )
    log, logged = _logger(analytic)
    solve_collocation(problem, cfg.controller, u0, on_step=log)
    return logged()


def _run_example_2(cfg):
    def target(X, Y, t):
        w = 5.0 - 2.0 * abs(t - 2.5)
        p = 10.0 - 4.0 * abs(t - 2.5)
        return np.cos(w * X * Y) + np.abs(Y) ** p * np.sin(4.0 * w * X)

    log, logged = _logger(target)
    track_function_2d(target, cfg.controller, _start(cfg), _start(cfg), cfg.dt, cfg.T, on_step=log)
    return logged()


def _tracking_runner(cfg, target):
    log, logged = _logger(target)
    track_function(target, cfg.controller, _start(cfg), cfg.dt, cfg.T, on_step=log)
    return logged()


def _run_example_3(cfg):
    a, b = cfg.a, cfg.b
    return _tracking_runner(cfg, lambda x, t: np.exp(-x / (b * t + a)) * np.cos(x))


def _run_example_4(cfg):
    a, b = cfg.a, cfg.b
    return _tracking_runner(cfg, lambda x, t: np.exp(-(b * t + a) * x) * np.cos(x))


def _packet_problem(cfg, V=None, V_ex=None):
    """cfg's wave packet (zeta, k) at t=0 in the potentials V and V_ex, on cfg's dt and T."""
    psi0 = lambda x: gaussian_packet(x, 0.0, cfg.zeta, cfg.k)
    return SchrodingerProblem(psi0=psi0, V=V, V_ex=V_ex, dt=cfg.dt, T=cfg.T)


def _run_example_5(cfg):
    log, logged = _logger(lambda x, t: gaussian_packet(x, t, cfg.zeta, cfg.k))
    problem, d0 = _packet_problem(cfg), _start(cfg)
    adapt_schrodinger_run(problem, cfg.controller, d0, on_step=log)
    return logged()


def _example_6_potentials(depth, sharp, amp, omega):
    def V(x):
        return -depth * (np.exp(-sharp * (x - 1.0) ** 2) + np.exp(-sharp * (x + 1.0) ** 2))

    def V_ex(x, t):
        return amp * np.sin(omega * t) * erfc(-x)

    return V, V_ex


def _example_6_start(cfg):
    """Example 6's problem and its initial space, of order cfg.order."""
    V, V_ex = _example_6_potentials(cfg.v_depth, cfg.v_sharp, cfg.drive_amp, cfg.drive_freq)
    return _packet_problem(cfg, V, V_ex), _start(cfg)


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
    u = _sample(problem.psi0, 0.0, d0)
    state = initial_state(u, ref.controller)

    def step(u, state, t, t_next):
        psi = propagate_step(u.coefficients, u.descriptor, problem, t)
        return scale_step(SpectralExpansion(u.descriptor, psi), state, ref.controller)[:3]

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
        cfg, controller=scaling, family=Family.HERMITE_FN, order=cfg.n_ref, out=None, a=0.0, b=0.0,
    )


def _run_example_6(cfg):
    reference = _reference_trajectory_6(_reference_key_6(cfg))
    problem, d0 = _example_6_start(cfg)
    # Refinement may grow the order, but never past what the yardstick resolves.
    controller = dataclasses.replace(cfg.controller, n_abs=_order_ceiling(cfg)[0])

    def rows(x, ts):
        # the step ending at t is reference step t/dt - 1; one evaluation per space
        refs = [reference[round(t / cfg.dt) - 1] for t in ts]
        E = {d: evaluate_all(d, x).T for d in {ref.descriptor for ref in refs}}
        return np.stack([_apply_real(E[ref.descriptor], ref.coefficients) for ref in refs])

    log, logged = _logger(None, rows)
    adapt_schrodinger_run(problem, controller, d0, on_step=log)
    return logged()


# example -> (runner, pinned controller, pinned experiment).  Values not named
# by a study stay at the ControllerConfig defaults; eta0 mirrors eta where only
# one threshold was quoted (the coarsening side is inactive or symmetric
# there).  Examples 3 and 4 share one controller operating point.
_TRACKING = dict(
    eta=1.2, eta0=1.2, gamma=1.05, n_max=3, q=0.95, nu=1.0 / 0.95, beta_lo=0.3, beta_hi=10.0,
    moving=False,
)
_STUDIES = {
    1: (
        _run_example_1,
        dict(eta=1.5, gamma=1.1, n_max=3, scaling=False, moving=False),
        dict(family=Family.CHEBYSHEV, order=10, dt=1e-3, T=2.0),
    ),
    2: (
        _run_example_2,
        dict(eta=1.1, eta0=1.1, gamma=1.1, n_max=3, scaling=False, moving=False),
        dict(family=Family.LEGENDRE, order=36, dt=0.01, T=5.0),
    ),
    3: (
        _run_example_3,
        _TRACKING,
        dict(family=Family.LAGUERRE_FN, order=50, beta0=4.0, dt=1e-3, T=5.0, a=2.0, b=0.7),
    ),
    4: (
        _run_example_4,
        _TRACKING,
        dict(family=Family.LAGUERRE_FN, order=50, beta0=4.0, dt=1e-3, T=5.0, a=0.5, b=0.5),
    ),
    5: (
        _run_example_5,
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
        _run_example_6,
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


def _study(example):
    """The table entry of one study; any other example is refused."""
    if example not in _STUDIES:
        raise ValueError("example must be one of %s, got %r" % (tuple(_STUDIES), example))
    return _STUDIES[example]


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


def _size_text(last):
    if last.order_x is not None:
        return "Nx=%d Ny=%d" % (last.order_x, last.order_y)
    return "N=%d" % last.order


def _summary(cfg, last):
    tail = "" if last.beta is None else " beta=%.6g" % last.beta
    size = _size_text(last)
    return "example %d: t=%.6g error=%.6e %s%s" % (cfg.example, last.t, last.error, size, tail)


def run(config, out=None):
    """March one configured example; write its CSV; print the endpoint."""
    records = _STUDIES[config.example][0](config)
    path = out or config.out or ("example%d.csv" % config.example)
    write_csv(path, records)
    print(_summary(config, records[-1]))
    return records


# ---------------------------------------------------------------------------
# sweeps

def _cell_text(last):
    """The endpoint of one sweep cell: its last StepRecord, or the failure text."""
    if isinstance(last, str):
        return last
    if last.beta is None:
        return "%.3e / %s" % (last.error, _size_text(last))
    return "%.3e / %.4g / %s" % (last.error, last.beta, _size_text(last))


# the StepRecord fields behind the sweep CSV's endpoint columns
_SWEEP_CELLS = attrgetter("error", "beta", "order", "order_x", "order_y")


def sweep(config, grid, out=None):
    """Re-run `config` across a 1- or 2-axis parameter grid.

    grid maps field names (e.g. eta, gamma, eta0) to value lists; every
    combination becomes one cell holding (error, beta, N or Nx and Ny) at
    the horizon.  A cell that raises is recorded as failed and the sweep
    moves on.
    """
    axes = [(name, tuple(values)) for name, values in grid.items()]
    if not axes or any(len(values) == 0 for _, values in axes):
        raise ValueError("sweep grid must be nonempty")
    names = tuple(name for name, _ in axes)
    _override(config, dict.fromkeys(names))  # refuse an unknown axis before any cell runs

    results = []
    for combo in itertools.product(*(values for _, values in axes)):
        try:
            cell = _override(config, dict(zip(names, combo)))
            results.append((combo, _STUDIES[config.example][0](cell)[-1]))
        except Exception as exc:  # keep sweeping; the table records the loss
            results.append((combo, "failed: %s" % exc))

    path = out or config.out or ("sweep%d.csv" % config.example)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ("error", "beta", "N", "Nx", "Ny", "status"))
        for combo, last in results:
            if isinstance(last, str):
                cells = ("",) * 5 + (last,)
            else:
                cells = (*map(_fmt, _SWEEP_CELLS(last)), "ok")
            # axis values as typed: a float's shortest round-trip text
            axis = (repr(float(v)) if isinstance(v, float) else _fmt(v) for v in combo)
            writer.writerow((*axis, *cells))

    if len(axes) == 2:
        cols = axes[1][1]
        header = ["%s \\ %s" % names] + ["%g" % c for c in cols]
        print("  ".join("%-24s" % h for h in header))
        by_combo = dict(results)
        for r in axes[0][1]:
            cells = [_cell_text(by_combo[(r, c)]) for c in cols]
            print("  ".join("%-24s" % c for c in ["%g" % r] + cells))
    else:
        for combo, last in results:
            axis = "  ".join("%s=%g" % pair for pair in zip(names, combo))
            print("%s  %s" % (axis, _cell_text(last)))
    return path
