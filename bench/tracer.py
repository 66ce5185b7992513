"""Span tracer for the package's layers, installed from outside the package.

`install` replaces every public function of the layer modules with a wrapper
that records a span (name, start, end, parent).  The replacement is made in
every adaptspec module namespace that holds the function, so calls between
modules are seen as well as calls from the benchmark.  A few wrappers also
wrap a callable argument (the evolve step, the generator inside the matrix
exponential, the logging callback) or read the return value (controller
actions, norm drift).  Spans stay in memory until `layer_metrics` reduces
them when the run ends.
"""

import inspect
import sys
import time

import numpy as np

LAYERS = ("basis", "indicators", "adapt", "expm", "schrodinger", "solvers", "experiments")

# Private names wrapped as well, because a metric needs them as parent spans.
EXTRA = {"experiments": ("_reference_trajectory_6",)}

# lru caches read through cache_info(): metric prefix -> (module, attribute).
CACHES = {
    "basis.core": ("basis", "_core"),
    "basis.transform": ("basis", "_transform_matrix"),
    "adapt.cross": ("adapt", "_cross_matrix_cached"),
    "schrodinger.collocation": ("schrodinger", "_collocation_matrices"),
}

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, tag]
        self.stack = []
        self.generator_applies = 0
        self.norm_drift_max = 0.0
        self.actions = []  # actions returned by the controllers
        self.wrapped = set()

    def span(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.spans.append(rec)
        self.stack.append(idx)
        rec[1] = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = _clock()
            self.stack.pop()

    # -- hooks on arguments and results

    def _wrap_evolve(self, evolve):
        return lambda w: self.span("adapt.phase.evolve", evolve, w)

    def _wrap_on_step(self, on_step):
        if on_step is None:
            return None
        return lambda *a: self.span("experiments.phase.log", on_step, *a)

    def _wrap_apply(self, apply_a):
        def counted(v):
            self.generator_applies += 1
            return apply_a(v)

        return counted

    def _norm_drift(self, bound, result, rec):
        n_in = float(np.linalg.norm(bound.arguments["psi"]))
        if n_in > 0.0:
            drift = abs(float(np.linalg.norm(result)) / n_in - 1.0)
            self.norm_drift_max = max(self.norm_drift_max, drift)

    def _controller(self, position):
        def post(bound, result, rec):
            self.actions.extend(result[position])

        return post

    def _axis_down(self, bound, result, rec):
        # An order drop on either axis marks a 2-D coarsening trial.
        u = bound.arguments["u"]
        rec[4] = (
            bound.arguments["dx_new"].order < u.descriptor_x.order
            or bound.arguments["dy_new"].order < u.descriptor_y.order
        )

    def hooks(self):
        """Per qualified name: (argument wrappers, result reader)."""
        return {
            "adapt.orchestrate_step": ({"evolve": self._wrap_evolve}, None),
            "expm.expm_action": ({"apply_a": self._wrap_apply}, None),
            "schrodinger.propagate_step": ({}, self._norm_drift),
            "schrodinger.adapt_schrodinger_run": ({"on_step": self._wrap_on_step}, None),
            "solvers.track_function": ({"on_step": self._wrap_on_step}, None),
            "solvers.track_function_2d": ({"on_step": self._wrap_on_step}, None),
            "solvers.solve_collocation": ({"on_step": self._wrap_on_step}, None),
            "adapt.move_step": ({}, self._controller(2)),
            "adapt.scale_step": ({}, self._controller(2)),
            "adapt.p_adapt_step": ({}, self._controller(2)),
            "adapt.p_adapt_step_2d": ({}, self._controller(3)),
            "adapt.resample_2d": ({}, self._axis_down),
        }

    def wrapper(self, name, fn, arg_hooks, post):
        if not arg_hooks and post is None:
            def plain(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)

            return plain

        sig = inspect.signature(fn)

        def hooked(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            for arg, wrap in arg_hooks.items():
                if arg in bound.arguments:
                    bound.arguments[arg] = wrap(bound.arguments[arg])
            idx = len(self.spans)
            result = self.span(name, fn, *bound.args, **bound.kwargs)
            if post is not None:
                post(bound, result, self.spans[idx])
            return result

        return hooked


def _targets(package):
    """(qualified name, function) of every function to wrap."""
    for layer in LAYERS:
        mod = sys.modules.get("%s.%s" % (package, layer))
        if mod is None:
            continue
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                yield "%s.%s" % (layer, attr), fn
        for attr in EXTRA.get(layer, ()):
            if callable(getattr(mod, attr, None)):
                yield "%s.%s" % (layer, attr), getattr(mod, attr)


def install(tracer, package="adaptspec"):
    """Wrap every layer function in every namespace of the package."""
    hooks = tracer.hooks()
    namespaces = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
    for qualname, fn in list(_targets(package)):
        arg_hooks, post = hooks.get(qualname, ({}, None))
        wrapped = tracer.wrapper(qualname, fn, arg_hooks, post)
        tracer.wrapped.add(qualname)
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)


def cache_counters(package="adaptspec"):
    """Builds and hits of the package's lru caches; absent caches are None."""
    out = {}
    for prefix, (layer, attr) in CACHES.items():
        fn = getattr(sys.modules.get("%s.%s" % (package, layer)), attr, None)
        info = getattr(fn, "cache_info", None)
        out[prefix] = None if info is None else info()
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, package="adaptspec"):
    """Reduce spans and counters to the per-layer metrics.

    Returns (metrics, absent): metrics maps name -> value; absent lists the
    metrics whose source no longer exists (reported as 0).
    """
    spans = tracer.spans
    n = len(spans)
    calls, total, child = {}, {}, [0.0] * n
    children = [[] for _ in range(n)]
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (t1 - t0)
        if parent >= 0:
            child[parent] += t1 - t0
            children[parent].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    # Split each orchestrated step into phases by its direct children: a
    # controller call opens a phase, and the calls after it (split-point and
    # reference renewal) belong to it; the closing frequency (and exterior)
    # evaluation is the record phase.
    markers = {
        "adapt.phase.evolve": "evolve",
        "adapt.move_step": "move",
        "adapt.scale_step": "scale",
        "adapt.p_adapt_step": "order",
    }
    phase = dict.fromkeys(("evolve", "move", "scale", "order", "record"), 0.0)
    orch_self = 0.0
    for i in range(n):
        if spans[i][0] != "adapt.orchestrate_step":
            continue
        orch_self += dur(i) - child[i]
        names = [spans[k][0] for k in children[i]]
        freq = [j for j, name in enumerate(names) if name == "indicators.frequency_indicator"]
        record_from = freq[-1] if freq else len(names)
        current = None
        for j, k in enumerate(children[i]):
            current = "record" if j >= record_from else markers.get(names[j], current)
            if current is not None:
                phase[current] += dur(k)
    phase["order"] += total.get("adapt.p_adapt_step_2d", 0.0)

    # 2-D coarsening trials: order-dropping resamples inside the 2-D order
    # step, except its last resample, which applies the decision.
    trials_2d = 0
    for i in range(n):
        if spans[i][0] == "adapt.p_adapt_step_2d":
            resamples = [k for k in children[i] if spans[k][0] == "adapt.resample_2d"]
            trials_2d += sum(1 for k in resamples[:-1] if spans[k][4])

    reference_s = sum(
        dur(i)
        for i in range(n)
        if spans[i][0] == "schrodinger.adapt_schrodinger_run"
        and spans[i][3] >= 0
        and spans[spans[i][3]][0] == "experiments._reference_trajectory_6"
    )

    count = lambda prefix: sum(1 for a in tracer.actions if a.startswith(prefix))
    scale_ok = count("scale_")
    coarsen_ok = count("coarsen")
    expm_calls = calls.get("expm.expm_action", 0)

    m = {}
    for fn in ("nodes_weights", "evaluate_all", "to_coefficients", "differentiate"):
        m["basis.%s.calls" % fn] = calls.get("basis." + fn, 0)
        m["basis.%s.s" % fn] = total.get("basis." + fn, 0.0)
    for fn in ("exterior_error_indicator", "relative_error", "relative_error_2d",
               "frequency_indicator"):
        m["indicators.%s.calls" % fn] = calls.get("indicators." + fn, 0)
        m["indicators.%s.s" % fn] = total.get("indicators." + fn, 0.0)
    for key, value in phase.items():
        m["adapt.phase.%s_s" % key] = value
    m["experiments.phase.log_s"] = total.get("experiments.phase.log", 0.0)
    m["adapt.orchestrate_step.calls"] = calls.get("adapt.orchestrate_step", 0)
    m["adapt.orchestrate_step.self_s"] = orch_self
    m["adapt.resample.calls"] = calls.get("adapt.resample", 0)
    m["adapt.resample.s"] = total.get("adapt.resample", 0.0)
    m["adapt.moves"] = count("move")
    m["adapt.refines"] = count("refine")
    m["adapt.coarsens"] = coarsen_ok
    m["adapt.scale_trials"] = calls.get("adapt.rescale", 0)
    m["adapt.scale_accept_ratio"] = _ratio(scale_ok, calls.get("adapt.rescale", 0))
    m["adapt.coarsen_accept_ratio"] = _ratio(coarsen_ok, calls.get("adapt.coarsen", 0) + trials_2d)
    m["adapt.p_adapt_step_2d.s"] = total.get("adapt.p_adapt_step_2d", 0.0)
    m["solvers.rk3_step.calls"] = calls.get("solvers.rk3_step", 0)
    m["solvers.rk3_step.s"] = total.get("solvers.rk3_step", 0.0)
    m["expm.expm_action.calls"] = expm_calls
    m["expm.expm_action.s"] = total.get("expm.expm_action", 0.0)
    m["expm.generator_applies"] = tracer.generator_applies
    m["expm.applies_per_call"] = _ratio(tracer.generator_applies, expm_calls)
    m["schrodinger.propagate_step.calls"] = calls.get("schrodinger.propagate_step", 0)
    m["schrodinger.propagate_step.s"] = total.get("schrodinger.propagate_step", 0.0)
    m["schrodinger.norm_drift_max"] = tracer.norm_drift_max
    m["experiments.reference_s"] = reference_s

    absent = []
    for prefix, info in cache_counters(package).items():
        if info is None:
            absent += [prefix + "_builds", prefix + "_hit_ratio"]
            m[prefix + "_builds"] = 0
            m[prefix + "_hit_ratio"] = 0.0
        else:
            m[prefix + "_builds"] = info.misses
            m[prefix + "_hit_ratio"] = _ratio(info.hits, info.hits + info.misses)
    if "experiments._reference_trajectory_6" not in tracer.wrapped:
        absent.append("experiments.reference_s")
    return m, absent
