"""Invariants of the three controllers over random expansions, states and configs.

Seeded loops draw expansions in four families (Hermite functions with
complex coefficients, Laguerre functions, Legendre, Chebyshev), reference
states around the expansion's own indicators, and controller thresholds
and bounds; every draw must keep each controller's caps and dead zone,
and the reading each controller hands back must equal the indicator of
the expansion it returns.
"""

from collections import Counter

import numpy as np
import numpy.testing as npt

from adaptspec import BasisDescriptor, Family, SpectralExpansion, nodes_weights, to_values
from adaptspec import basis
from adaptspec.adapt import (
    AdaptiveState,
    ControllerConfig,
    move_step,
    orchestrate_step,
    p_adapt_step,
    refine,
    scale_step,
)
from adaptspec.indicators import exterior_error_indicator, frequency_indicator

CASES = 100
FAMILIES = (Family.HERMITE_FN, Family.LAGUERRE_FN, Family.LEGENDRE, Family.CHEBYSHEV)


def draw_expansion(rng, family):
    n = int(rng.integers(2, 41))
    if family in (Family.HERMITE_FN, Family.LAGUERRE_FN):
        d = BasisDescriptor(
            family, n, beta=float(rng.uniform(0.5, 2.0)), x_left=float(rng.uniform(-1.0, 1.0))
        )
    else:
        d = BasisDescriptor(family, n)
    c = rng.standard_normal(n + 1)
    if family is Family.HERMITE_FN:
        c = c + 1j * rng.standard_normal(n + 1)
    return SpectralExpansion(d, c * rng.uniform(0.5, 1.0) ** np.arange(n + 1))


def draw_config(rng, order):
    n_min = int(rng.integers(0, order + 1))
    n_abs = None if rng.random() < 0.3 else max(n_min, order + int(rng.integers(-3, 9)))
    beta_lo, beta_hi = rng.uniform(0.4, 0.9), rng.uniform(1.1, 2.2)
    return ControllerConfig(
        eta=rng.uniform(1.01, 2.0),
        eta0=rng.uniform(1.01, 2.0),
        gamma=rng.uniform(1.0, 1.5),
        n_max=int(rng.integers(0, 9)),
        n_min=n_min,
        n_abs=n_abs,
        q=rng.uniform(0.8, 0.99),
        nu=rng.uniform(1.01, 1.5),
        beta_lo=beta_lo,
        beta_hi=beta_hi,
        mu=rng.uniform(1.0001, 1.5),
        delta=rng.uniform(0.005, 0.05),
        d_max=rng.uniform(0.0, 0.2),
    )


def draw_state(rng, u, config):
    # references scattered around the expansion's own indicators, so the
    # draws fall on both sides of every trigger
    f = frequency_indicator(u)
    e = 0.0 if u.descriptor.bounded else exterior_error_indicator(u)
    spread = lambda: 10.0 ** rng.uniform(-1.5, 1.0)
    return AdaptiveState(
        freq_ref=f * spread(),
        scale_ref=f * spread(),
        exterior_ref=e * spread(),
        refine_factor=config.eta * config.gamma ** int(rng.integers(0, 4)),
    )


def cases(seed, families=FAMILIES):
    rng = np.random.default_rng(seed)
    for i in range(CASES):
        u = draw_expansion(rng, families[i % len(families)])
        config = draw_config(rng, u.descriptor.order)
        yield rng, u, draw_state(rng, u, config), config


def test_order_rule_caps_and_dead_zone(monkeypatch):
    seen = Counter()
    for rng, u, state, config in cases(101):
        limit = basis.MAX_ORDER
        if rng.random() < 0.25:
            # an order limit just above the start, often below n_abs
            limit = u.descriptor.order + int(rng.integers(0, 3))
        cap = limit if config.n_abs is None else min(config.n_abs, limit)
        f = frequency_indicator(u)
        with monkeypatch.context() as m:
            m.setattr(basis, "MAX_ORDER", limit)
            v, st, actions, reading = p_adapt_step(u, state, config)
            _, _, again, _ = p_adapt_step(v, st, config)
            # a reading passed in is the one the rule would have taken
            w, st_f, actions_f, reading_f = p_adapt_step(u, state, config, f)
        refines, coarsens = actions.count("refine"), actions.count("coarsen")
        assert refines + coarsens == len(actions)
        assert refines <= config.n_max and coarsens <= 1 and not (refines and coarsens)
        assert v.descriptor.order == u.descriptor.order + refines - coarsens
        assert reading == frequency_indicator(v)
        assert (w.descriptor, st_f, actions_f, reading_f) == (v.descriptor, st, actions, reading)
        assert np.array_equal(w.coefficients, v.coefficients)
        if refines:
            assert v.descriptor.order <= cap
            seen["capped" if v.descriptor.order == cap else "refined"] += 1
        seen["coarsened"] += coarsens
        if not actions and f < state.freq_ref / config.eta0 and u.descriptor.order > config.n_min:
            seen["coarsen rejected"] += 1
        if actions:
            assert st.freq_ref == frequency_indicator(v)
        if u.descriptor.bounded:
            assert scale_step(u, state, config)[3] is None and move_step(u, state, config)[3] is None
        assert again == [], (actions, again)
    assert min(seen[k] for k in ("capped", "refined", "coarsened", "coarsen rejected")) > 0, seen


def test_scaling_keeps_beta_in_bounds_and_dead_zone():
    seen = Counter()
    for rng, u, state, config in cases(202, FAMILIES[:2]):
        v, st, actions, reading = scale_step(u, state, config)
        assert set(actions) <= {"scale_down", "scale_up"} and len(set(actions)) <= 1
        assert reading == frequency_indicator(v)
        beta0, beta = u.descriptor.beta, v.descriptor.beta
        f = frequency_indicator(u)
        direction = config.q if f > config.nu * state.scale_ref else 1.0 / config.q
        if f > config.nu * state.scale_ref or f < state.scale_ref:
            # the walk ended on a trial that did not help, not on a bound
            seen["trial rejected"] += config.beta_lo <= direction * beta <= config.beta_hi
        if config.beta_lo <= beta0 <= config.beta_hi:
            assert config.beta_lo <= beta <= config.beta_hi
            # the walk ended within one ratio of a bound
            seen["near bound"] += not (
                config.beta_lo <= config.q * beta and beta / config.q <= config.beta_hi
            )
        seen.update(actions[:1])
        steps = actions.count("scale_down") - actions.count("scale_up")
        npt.assert_allclose(beta, beta0 * config.q**steps, rtol=1e-12)
        if actions:
            assert st.scale_ref == frequency_indicator(v)
        _, _, again, _ = scale_step(v, st, config)
        assert again == [], (actions, again)
    assert min(seen[k] for k in ("scale_down", "scale_up", "near bound", "trial rejected")) > 0, seen


def test_moving_stays_within_d_max_and_dead_zone():
    seen = Counter()
    for rng, u, state, config in cases(303, FAMILIES[:2]):
        v, st, actions, reading = move_step(u, state, config)
        assert set(actions) <= {"move"}
        assert reading == exterior_error_indicator(v)
        moved = v.descriptor.x_left - u.descriptor.x_left
        assert 0.0 <= moved <= config.d_max * (1 + 1e-12)
        npt.assert_allclose(moved, len(actions) * config.delta, rtol=1e-12, atol=1e-15)
        if actions:
            assert st.exterior_ref == exterior_error_indicator(v)
            # stopped by the budget, or by the indicator falling back
            budget = (len(actions) + 1) * config.delta > config.d_max * (1 + 1e-12)
            seen["at d_max" if budget else "settled"] += 1
        _, _, again, _ = move_step(v, st, config)
        assert again == [], (actions, again)
    assert min(seen[k] for k in ("at d_max", "settled")) > 0, seen


def test_orchestrated_record_holds_the_indicators_of_the_returned_expansion():
    # the record reuses the controllers' readings; each must be the fresh
    # indicator of the expansion the step returns
    seen = Counter()
    for rng, u, state, config in cases(505):
        v, _, rec = orchestrate_step(u, state, config, evolve=lambda w: w)
        assert rec.freq == frequency_indicator(v)
        if v.descriptor.bounded:
            assert rec.ext is None
        else:
            assert rec.ext == exterior_error_indicator(v)
        moves = rec.actions.count("move")
        seen["no move"] += not moves
        seen["moved only"] += 0 < moves == len(rec.actions)
        seen["moved, then changed"] += 0 < moves < len(rec.actions)
        seen["order"] += any(a in ("refine", "coarsen") for a in rec.actions)
    assert min(seen.values()) > 0 and len(seen) == 4, seen


def test_refine_is_exact():
    rng = np.random.default_rng(404)
    for i in range(CASES):
        u = draw_expansion(rng, FAMILIES[i % len(FAMILIES)])
        v = refine(u)
        assert v.descriptor.order == u.descriptor.order + 1
        assert np.array_equal(v.coefficients[:-1], u.coefficients) and v.coefficients[-1] == 0
        x = nodes_weights(v.descriptor).nodes
        scale = np.abs(u.coefficients).max()
        npt.assert_allclose(to_values(v, x), to_values(u, x), rtol=0, atol=1e-12 * scale)
