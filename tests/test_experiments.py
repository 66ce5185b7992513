"""Experiment harness: config plumbing, CSV contract, sweep, CLI."""

import csv
import dataclasses
import math
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from adaptspec import cli, experiments
from adaptspec.adapt import StepRecord
from adaptspec.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    example_config,
    load_config_file,
)

TOKENS_1D = {"refine", "coarsen", "scale_up", "scale_down", "move"}
TOKENS_2D = {"refine_x", "refine_y", "coarsen_x", "coarsen_y"}


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# configuration

def test_example_config_pins_published_operating_points():
    cfg = example_config(3)
    assert cfg.controller.eta == 1.2
    assert cfg.controller.beta_hi == 10.0
    assert cfg.controller.moving is False
    assert cfg.beta0 == 4.0 and cfg.order == 50 and cfg.T == 5.0
    cfg = example_config(5)
    assert cfg.controller.mu == 1.0002 and cfg.controller.d_max == 0.1
    assert cfg.controller.beta_hi == 2.0
    cfg = example_config(6)
    assert cfg.controller.gamma == 1.0 and cfg.n_ref == 600


def test_example_config_overrides_route_to_the_right_layer():
    cfg = example_config(3, eta=2.0, order=40, T=1.0, scaling=False)
    assert cfg.controller.eta == 2.0
    assert cfg.controller.scaling is False
    assert cfg.order == 40 and cfg.T == 1.0
    # None overrides are skipped so CLI args can be passed wholesale
    assert example_config(3, eta=None).controller.eta == 1.2


def test_example_config_rejects_unknown_keys_and_bad_ids():
    with pytest.raises(ValueError, match="unknown configuration key"):
        example_config(3, shoe_size=11)
    for bad in (0, 7, "3"):
        with pytest.raises(ValueError):
            example_config(bad)


def test_the_study_set_is_read_from_the_study_table(monkeypatch, capsys):
    # a study added to the table is accepted everywhere and named in every
    # refusal; no range of ids is written out anywhere else
    monkeypatch.setitem(experiments._STUDIES, 7, experiments._STUDIES[3])
    seventh = example_config(7)
    assert seventh.example == 7
    refusal = r"example must be one of \(1, 2, 3, 4, 5, 6, 7\), got 8$"
    with pytest.raises(ValueError, match=refusal):
        example_config(8)
    with pytest.raises(ValueError, match=refusal):
        ExperimentConfig(8, seventh.controller, seventh.family, 4)
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["run", "--example", "8"])
    assert "{1,2,3,4,5,6,7}" in capsys.readouterr().err


def test_experiment_config_validation():
    ctrl = example_config(3).controller
    from adaptspec.basis import Family

    with pytest.raises(ValueError):
        ExperimentConfig(example=3, controller=ctrl, family=Family.LAGUERRE_FN,
                         order=50, dt=-1e-3)
    with pytest.raises(ValueError):
        ExperimentConfig(example=3, controller=ctrl, family=Family.LAGUERRE_FN,
                         order=50, beta0=0.0)
    for dt, T in ((0.0, 1.0), (1e-3, math.inf), (1e-3, math.nan), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="positive and finite"):
            ExperimentConfig(example=3, controller=ctrl, family=Family.LAGUERRE_FN,
                             order=50, dt=dt, T=T)


def test_an_integer_experiment_field_refuses_a_non_integer():
    # refused when configured, not later inside the run
    for example, name, value in ((3, "order", math.inf), (6, "n_ref", math.inf),
                                 (1, "order", 12.5), (3, "n_max", math.inf)):
        with pytest.raises(ValueError, match="%s must be an integer" % name):
            example_config(example, **{name: value})
    with pytest.raises(ValueError, match="zeta must be finite"):
        example_config(5, zeta=math.inf)


def test_experiment_config_refuses_a_start_above_the_order_ceiling(capsys):
    # n_abs is a hard ceiling, and example 6 never passes its yardstick's order
    with pytest.raises(ValueError, match="order=50 exceeds the order ceiling n_abs=20"):
        example_config(3, T=0.05, n_abs=20)
    with pytest.raises(ValueError, match="order=200 exceeds the order ceiling n_ref=100"):
        example_config(6, T=0.02, n_ref=100)
    with pytest.raises(ValueError, match="order=200 exceeds the order ceiling n_ref=199"):
        example_config(6, n_ref=199)
    assert cli.main(["run", "--example", "3", "--nabs", "20"]) == 2
    assert "n_abs=20" in capsys.readouterr().err
    # a start at the ceiling is accepted; only example 6 reads n_ref
    assert example_config(3, n_abs=50).controller.n_abs == 50
    assert example_config(6, n_ref=200).order == 200
    assert example_config(6, order=100, n_abs=100, n_ref=100).order == 100
    assert example_config(5, n_ref=10).order == 50


def test_the_order_ceiling_is_read_from_the_study_table(monkeypatch):
    # a study whose pinned experiment names n_ref is refused a start above it
    # and its runner clamps n_abs to it; no example id is tested anywhere
    _, ctrl, exp = experiments._STUDIES[6]
    monkeypatch.setitem(experiments._STUDIES, 7, (experiments._run_example_6, ctrl, exp))
    with pytest.raises(ValueError, match="order=200 exceeds the order ceiling n_ref=100"):
        example_config(7, n_ref=100)
    with pytest.raises(ValueError, match="order=200 exceeds the order ceiling n_abs=150"):
        example_config(7, n_abs=150, n_ref=180)
    assert experiments._order_ceiling(example_config(7, n_ref=230)) == (230, "n_ref")
    assert experiments._order_ceiling(example_config(7, n_abs=210, n_ref=230)) == (210, "n_abs")
    assert experiments._order_ceiling(example_config(3)) == (None, None)

    seen = []
    monkeypatch.setattr(experiments, "_reference_trajectory_6", lambda ref: ())
    monkeypatch.setattr(experiments, "adapt_schrodinger_run",
                        lambda problem, controller, d0, on_step: seen.append(controller.n_abs))
    for overrides in (dict(n_ref=230), dict(n_ref=230, n_abs=210), dict(n_ref=230, n_abs=500)):
        experiments._run_example_6(example_config(7, T=0.02, **overrides))
    assert seen == [230, 210, 230]


def test_a_low_start_order_keeps_the_default_floor(tmp_path, capsys):
    # example 5 from order 2: with a floor of 0 the first step coarsens to
    # N=1 and the run ends there, with a larger error than at N=2
    out = str(tmp_path / "r.csv")
    kept = experiments.run(example_config(5, order=2, T=0.1), out=out)
    dropped = experiments.run(example_config(5, order=2, T=0.1, n_min=0), out=out)
    assert min(rec.order for rec in kept) == 2 and kept[-1].order == 2
    assert dropped[-1].order == 1
    assert kept[-1].error < dropped[-1].error


def test_a_negative_start_order_is_refused_when_configured(capsys):
    with pytest.raises(ValueError, match="order must be >= 0"):
        example_config(2, order=-1)
    assert cli.main(["run", "--example", "2", "--order", "-1"]) == 2
    assert "order must be >= 0" in capsys.readouterr().err


def test_a_start_the_order_controller_cannot_leave_is_refused(tmp_path, capsys):
    # below order 2 the order rule never refines, so with it on such a start is refused
    for order in (0, 1):
        with pytest.raises(ValueError, match="order must be >= 2 with p_adaptivity on"):
            example_config(1, order=order)
        assert cli.main(["run", "--example", "2", "--order", str(order)]) == 2
        assert "the order rule never refines" in capsys.readouterr().err
    out = str(tmp_path / "r.csv")
    argv = ["run", "--example", "1", "--no-padaptivity", "--order", "1", "--T", "0.01"]
    assert cli.main(argv + ["--out", out]) == 0
    assert _read(out)[-1]["N"] == "1"


def test_order_y_is_not_a_setting(tmp_path, capsys):
    # one start order serves both axes of example 2: no flag or key sets the y axis alone
    with pytest.raises(SystemExit) as raised:
        cli.main(["run", "--example", "2", "--ordery", "40"])
    assert raised.value.code == 2
    assert "unrecognized arguments: --ordery 40" in capsys.readouterr().err
    path = tmp_path / "c.txt"
    path.write_text("order_y=40\n")
    assert cli.main(["run", "--example", "2", "--config", str(path)]) == 2
    assert "unknown key 'order_y'" in capsys.readouterr().err
    with pytest.raises(ValueError, match="unknown configuration key 'order_y'"):
        example_config(2, order_y=40)


def test_example_2_starts_square_at_the_configured_order(monkeypatch):
    # --order 50 starts the tensor run at 50x50
    starts = []
    monkeypatch.setattr(experiments, "track_function_2d",
                        lambda target, ctrl, dx0, dy0, dt, T, on_step: starts.append((dx0, dy0)))
    for order in (36, 50):
        experiments._run_example_2(example_config(2, order=order))
    assert [(dx.order, dy.order) for dx, dy in starts] == [(36, 36), (50, 50)]


def test_a_horizon_is_refused_when_configured(capsys):
    # the march's rule, at configuration time: nothing is built or marched
    with pytest.raises(ValueError, match="integer number of steps"):
        example_config(3, T=0.0105)
    assert cli.main(["run", "--example", "3", "--T", "0.0105"]) == 2
    assert "integer number of steps" in capsys.readouterr().err


def test_a_bounded_study_refuses_a_scaled_or_shifted_start(tmp_path, capsys):
    # examples 1-2 build their start from beta0 and x_left0 like the others
    for example, overrides in ((1, dict(beta0=2.0)), (1, dict(x_left0=3.0)), (2, dict(beta0=2.0))):
        with pytest.raises(ValueError, match="bounded families require beta == 1 and x_left == 0"):
            experiments.run(example_config(example, T=0.02, **overrides), out=str(tmp_path / "r.csv"))
    assert cli.main(["run", "--example", "2", "--xleft0", "3", "--T", "0.02"]) == 2
    assert "bounded families" in capsys.readouterr().err


def test_a_study_starts_inside_its_scaling_range(capsys):
    with pytest.raises(ValueError, match=re.escape("beta0=4 outside the scaling range [0.3, 3]")):
        example_config(3, T=0.2, beta_hi=3.0)
    with pytest.raises(ValueError, match=re.escape("beta0=4 outside the scaling range [5, 10]")):
        example_config(3, T=0.2, beta_lo=5.0)
    assert cli.main(["run", "--example", "3", "--T", "0.2", "--betahi", "3"]) == 2
    assert "scaling range" in capsys.readouterr().err
    # the range is read only while scaling is on; its edges are inside
    assert example_config(3, beta_hi=3.0, scaling=False).beta0 == 4.0
    assert example_config(3, beta_hi=4.0).beta0 == example_config(3, beta_lo=4.0).beta0 == 4.0


@pytest.mark.parametrize("example", [3, 4])
def test_an_envelope_not_positive_on_the_horizon_is_refused(example, capsys):
    # a + b*t must stay positive on [0, T]: at t=0 (a <= 0) or by t=T (b pulls it down)
    for overrides in (dict(a=0.0), dict(a=-1.0), dict(a=2.0, b=-10.0, T=0.5), dict(a=1.0, b=-1.0)):
        with pytest.raises(ValueError, match=r"a \+ b\*t must be positive on \[0, T\]"):
            example_config(example, **overrides)
    assert cli.main(["run", "--example", str(example), "--a", "-1", "--T", "0.01"]) == 2
    assert "usage:" in capsys.readouterr().err
    # positive at both ends is positive throughout, however b leans
    assert example_config(example, a=2.0, b=-1.0, T=1.0).b == -1.0
    # a study whose pinned experiment does not name a and b does not read them
    assert example_config(5, a=-1.0).a == -1.0


def test_a_negative_well_sharpness_is_refused(capsys):
    # v_sharp < 0 makes the wells grow without bound; 0 is a flat well and runs
    with pytest.raises(ValueError, match="v_sharp must be >= 0"):
        example_config(6, v_sharp=-10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", "--example", "6", "--vsharp", "-10", "--T", "0.02"]) == 2
    assert "v_sharp must be >= 0" in capsys.readouterr().err
    assert example_config(6, v_sharp=0.0).v_sharp == 0.0


def test_reference_march_equals_the_scaling_only_adaptive_run():
    # the direct propagate-then-scale march must reproduce what the full
    # orchestrated run with only scaling on produces, bit for bit
    from adaptspec.basis import BasisDescriptor
    from adaptspec.schrodinger import SchrodingerProblem, adapt_schrodinger_run, gaussian_packet

    cfg = example_config(6, n_ref=60, order=60, T=0.5)
    key = experiments._reference_key_6(cfg)
    march = experiments._reference_trajectory_6(key)
    V, V_ex = experiments._example_6_potentials(
        cfg.v_depth, cfg.v_sharp, cfg.drive_amp, cfg.drive_freq
    )
    problem = SchrodingerProblem(
        psi0=lambda x: gaussian_packet(x, 0.0, cfg.zeta, cfg.k), V=V, V_ex=V_ex, dt=cfg.dt, T=cfg.T
    )
    ctrl = cfg.controller
    controller = experiments.ControllerConfig(
        p_adaptivity=False, scaling=True, moving=False,
        q=ctrl.q, nu=ctrl.nu, beta_lo=ctrl.beta_lo, beta_hi=ctrl.beta_hi,
    )
    d0 = BasisDescriptor(cfg.family, 60, beta=cfg.beta0, x_left=cfg.x_left0)
    run = []
    adapt_schrodinger_run(problem, controller, d0, on_step=lambda t, u, rec: run.append(u))
    assert len(march) == len(run) == 50
    assert any(a.descriptor.beta != cfg.beta0 for a in run)  # scaling did act
    for a, b in zip(march, run):
        assert a.descriptor == b.descriptor
        assert np.array_equal(a.coefficients, b.coefficients)


def test_reference_key_6_groups_the_runs_that_share_a_reference_march():
    # criterion 9's three variants march against one reference; anything the
    # reference march reads gives a new key, so a new cache entry
    key = experiments._reference_key_6(example_config(6, T=0.1))
    for variant in (dict(scaling=False), dict(p_adaptivity=False), dict(order=150, eta=1.1)):
        assert experiments._reference_key_6(example_config(6, T=0.1, **variant)) == key
    changes = (
        dict(q=0.9), dict(nu=1.1), dict(beta_lo=0.2), dict(beta_hi=3.0), dict(dt=0.005),
        dict(T=0.2), dict(zeta=0.4), dict(k=2.0), dict(v_depth=5.0), dict(v_sharp=5.0),
        dict(drive_amp=10.0), dict(drive_freq=5.0), dict(n_ref=500), dict(beta0=1.2),
    )
    for change in changes:
        assert experiments._reference_key_6(example_config(6, **{"T": 0.1, **change})) != key, change


def test_load_config_file(tmp_path):
    path = tmp_path / "overrides.txt"
    path.write_text(
        "# comment line\n"
        "eta = 1.3\n"
        "n_max=5   # trailing comment\n"
        "\n"
        "scaling=false\n"
    )
    got = load_config_file(path)
    assert got == {"eta": 1.3, "n_max": 5, "scaling": False}

    bad = tmp_path / "bad.txt"
    bad.write_text("eta=1.3\nshoe_size=11\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        load_config_file(bad)
    bad.write_text("just words\n")
    with pytest.raises(ValueError, match="expected key=value"):
        load_config_file(bad)


def test_config_file_values_that_fail_to_parse_name_file_line_and_key(tmp_path):
    path = tmp_path / "c.txt"
    for line, reason in (("eta=", "could not convert"), ("n_abs=none", "invalid literal"),
                         ("scaling=maybe", "expected a boolean")):
        path.write_text("# overrides\n" + line + "\n")
        key = line.split("=")[0]
        with pytest.raises(ValueError, match=re.escape("c.txt:2: %s: " % key) + reason):
            load_config_file(path)


def test_config_schema_covers_every_plain_field():
    # every dataclass field that holds a plain value is a config-file key,
    # parsed as its type (X | None as X, bool through _parse_bool)
    import dataclasses

    from adaptspec.adapt import ControllerConfig

    names = {f.name for cls in (ControllerConfig, ExperimentConfig) for f in dataclasses.fields(cls)}
    plain = names - {"indicator", "example", "controller", "family"}
    assert set(experiments._SCHEMA) == plain
    ints = {"n_max", "n_min", "n_abs", "order", "n_ref"}
    bools = {"p_adaptivity", "scaling", "moving"}
    for name, parser in experiments._SCHEMA.items():
        if name in bools:
            assert parser is experiments._parse_bool
        elif name in ints:
            assert parser is int
        else:
            assert parser is float


def test_config_file_refuses_unknown_and_object_keys(tmp_path):
    path = tmp_path / "c.txt"
    # the output path is the CLI's --out and run's argument, not a configuration key
    for line in ("m=12", "m_ref=48", "indicator=none", "family=hermite_function", "example=3",
                 "out=run.csv"):
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config_file(path)


def test_cli_value_flags_parse_as_their_config_keys(tmp_path):
    from adaptspec import cli

    args = cli.build_parser().parse_args(
        ["run", "--example", "3", "--nmax", "4", "--nabs", "90", "--eta", "1.5", "--T", "0.5"]
    )
    assert (args.n_max, args.n_abs, args.eta, args.T) == (4, 90, 1.5, 0.5)
    assert type(args.n_max) is int and type(args.eta) is float
    # every config key is a flag on both subcommands, read as its file line reads
    texts = {int: "7", float: "0.25", experiments._parse_bool: "false"}
    for command in ("run", "sweep"):
        for key, parse in experiments._SCHEMA.items():
            flag = "--" + ("no-" if parse is experiments._parse_bool else "") + key.replace("_", "")
            argv = [command, "--example", "3", flag]
            if parse is not experiments._parse_bool:
                argv.append(texts[parse])
            value = getattr(cli.build_parser().parse_args(argv), key)
            path = tmp_path / "c.txt"
            path.write_text("%s=%s\n" % (key, texts[parse]))
            expected = load_config_file(path)[key]
            assert value == expected and type(value) is type(expected), (command, key)


def test_cli_flag_spellings_keep_their_fields(capsys):
    # the full spellings the command line has always taken, and the field each sets
    spellings = {
        "--eta": "eta", "--eta0": "eta0", "--gamma": "gamma", "--q": "q", "--nu": "nu",
        "--mu": "mu", "--delta": "delta", "--dmax": "d_max", "--nmax": "n_max",
        "--nmin": "n_min", "--nabs": "n_abs", "--order": "order", "--beta0": "beta0",
        "--dt": "dt", "--T": "T", "--nref": "n_ref",
    }
    for flag, dest in spellings.items():
        args = cli.build_parser().parse_args(["run", "--example", "3", flag, "2"])
        assert getattr(args, dest) == experiments._SCHEMA[dest]("2"), flag
    assert cli.build_parser().parse_args(["run", "--example", "3", "--out", "2"]).out == "2"
    switches = {"--no-scaling": "scaling", "--no-moving": "moving", "--no-padapt": "p_adaptivity"}
    for flag, dest in switches.items():
        args = cli.build_parser().parse_args(["sweep", "--example", "3", flag])
        assert getattr(args, dest) is False, flag
    # each is an option of its own, not an abbreviation of a longer one
    for command in ("run", "sweep"):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert set(spellings) | set(switches) | {"--out"} <= listed


def test_cli_refuses_abbreviated_flags(capsys):
    for argv in (["run", "--example", "5", "--drivef", "5"], ["sweep", "--exa", "3"],
                 ["run", "--example", "3", "--no-padaptiv"], ["--he"]):
        with pytest.raises(SystemExit) as raised:
            cli.build_parser().parse_args(argv)
        assert raised.value.code == 2, argv
    assert "unrecognized arguments" in capsys.readouterr().err
    args = cli.build_parser().parse_args(["run", "--example", "5", "--drivefreq", "5", "--no-padapt"])
    assert (args.example, args.drive_freq, args.p_adaptivity) == (5, 5.0, False)


def test_example_6_refuses_a_fractional_horizon_before_the_reference_march(tmp_path):
    misses = experiments._reference_trajectory_6.cache_info().misses
    with pytest.raises(ValueError, match="integer number of steps"):
        experiments.run(example_config(6, T=0.105), out=str(tmp_path / "r.csv"))
    assert experiments._reference_trajectory_6.cache_info().misses == misses


def test_example_6_keeps_a_user_order_cap_below_the_reference_order(tmp_path):
    # the reference order caps refinement from above; a lower n_abs still holds
    def orders(**overrides):
        cfg = example_config(6, T=0.02, n_ref=230, **overrides)
        return [rec.order for rec in experiments.run(cfg, out=str(tmp_path / "r.csv"))]

    assert orders(n_abs=210) == [210, 210]
    assert orders() == orders(n_abs=500) == [220, 230]


# ---------------------------------------------------------------------------
# run() and the CSV contract

def test_run_writes_pinned_schema_and_is_bit_identical(tmp_path):
    cfg = example_config(3, T=0.02)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    experiments.run(cfg, out=str(p1))
    experiments.run(cfg, out=str(p2))
    assert p1.read_bytes() == p2.read_bytes()

    with open(p1, newline="") as fh:
        header = next(csv.reader(fh))
    assert tuple(header) == CSV_COLUMNS

    rows = _read(p1)
    assert len(rows) == 20
    ts = [float(r["t"]) for r in rows]
    assert ts == sorted(ts) and ts[0] > 0.0
    for r in rows:
        float(r["error"]), float(r["freq"]), float(r["ext"])
        int(r["N"])
        float(r["beta"]), float(r["xL"])
        assert r["Nx"] == "" and r["Ny"] == ""
    # full precision survives the round trip
    assert "." in rows[0]["error"] and len(rows[0]["error"]) > 12


def test_run_prints_final_summary(tmp_path, capsys):
    cfg = example_config(3, T=0.02)
    experiments.run(cfg, out=str(tmp_path / "r.csv"))
    out = capsys.readouterr().out
    assert out.startswith("example 3:")
    assert "error=" in out and "N=" in out and "beta=" in out


def test_bounded_1d_run_leaves_unbounded_columns_empty(tmp_path):
    cfg = example_config(1, T=0.01)
    experiments.run(cfg, out=str(tmp_path / "r.csv"))
    rows = _read(tmp_path / "r.csv")
    for r in rows:
        assert r["ext"] == "" and r["beta"] == "" and r["xL"] == ""
        int(r["N"])


def test_2d_run_fills_per_axis_columns(tmp_path):
    cfg = example_config(2, T=0.05)
    experiments.run(cfg, out=str(tmp_path / "r.csv"))
    rows = _read(tmp_path / "r.csv")
    for r in rows:
        int(r["Nx"]), int(r["Ny"])
        float(r["freq"]), float(r["ext"])  # per-axis frequency indicators
        assert r["N"] == "" and r["beta"] == "" and r["xL"] == ""
        for token in filter(None, r["actions"].split(";")):
            assert token in TOKENS_2D


def test_2d_run_actions_pinned(tmp_path):
    # the x axis reads roundoff from the start and, under the refine floor,
    # never acts; the y axis refines three times and coarsens once, in turn
    experiments.run(example_config(2, T=0.1), out=str(tmp_path / "r.csv"))
    refine_y3 = "refine_y;refine_y;refine_y"
    assert [r["actions"] for r in _read(tmp_path / "r.csv")] == [refine_y3, "coarsen_y"] * 5


def test_2d_run_on_open_grids_equals_full_grids(tmp_path, monkeypatch):
    # example 2's target and yardstick receive open grids; expanding them to
    # full (nx, ny) arrays, as meshgrid gives without sparse=True, must leave
    # the CSV unchanged byte for byte (its decisions sit at roundoff)
    from adaptspec import indicators, solvers

    cfg = example_config(2, T=0.1)
    experiments.run(cfg, out=str(tmp_path / "open.csv"))

    def on_full_grids(f):
        return lambda X, Y, *t: f(*(np.ascontiguousarray(a) for a in np.broadcast_arrays(X, Y)), *t)

    monkeypatch.setattr(
        experiments,
        "track_function_2d",
        lambda target, *args, **kw: solvers.track_function_2d(on_full_grids(target), *args, **kw),
    )
    monkeypatch.setattr(
        experiments,
        "relative_error_2d",
        lambda u, reference: indicators.relative_error_2d(u, on_full_grids(reference)),
    )
    experiments.run(cfg, out=str(tmp_path / "full.csv"))
    assert (tmp_path / "open.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


def test_recorded_actions_respect_controller_invariants(tmp_path):
    cfg = example_config(5, T=0.05)
    experiments.run(cfg, out=str(tmp_path / "r.csv"))
    rows = _read(tmp_path / "r.csv")
    ctrl = cfg.controller
    saw_any = False
    for r in rows:
        tokens = [t for t in r["actions"].split(";") if t]
        saw_any = saw_any or bool(tokens)
        assert set(tokens) <= TOKENS_1D
        assert tokens.count("coarsen") <= 1
        assert tokens.count("refine") <= ctrl.n_max
        assert tokens.count("move") * ctrl.delta <= ctrl.d_max + 1e-12
    assert saw_any


def _logged_run(monkeypatch, example, march_name, **overrides):
    """Run an example with its march's on_step spied on: (cfg, [(t, u)], records)."""
    seen = []
    march = getattr(experiments, march_name)

    def spy(*args, on_step, **kwargs):
        def both(t, u, rec):
            seen.append((t, u))
            on_step(t, u, rec)

        return march(*args, on_step=both, **kwargs)

    monkeypatch.setattr(experiments, march_name, spy)
    cfg = example_config(example, **overrides)
    records = experiments._STUDIES[example][0](cfg)
    return cfg, seen, records


def _runs(seen):
    """Lengths of the runs of consecutive steps in one space."""
    lengths = [1]
    for (_, a), (_, b) in zip(seen, seen[1:]):
        if a.descriptor == b.descriptor:
            lengths[-1] += 1
        else:
            lengths.append(1)
    return lengths


@pytest.mark.parametrize(
    "example, march_name, T, target",
    [
        # the space changes at nearly every step
        (5, "adapt_schrodinger_run", 0.5,
         lambda cfg: lambda x, t: experiments.gaussian_packet(x, t, cfg.zeta, cfg.k)),
        # long runs of one space
        (1, "solve_collocation", 0.5, lambda cfg: lambda x, t: np.cos((t + 1.0) * (x + 2.0))),
    ],
)
def test_logger_fills_every_step_from_one_error_pass_per_run(monkeypatch, example, march_name,
                                                             T, target):
    from adaptspec.indicators import relative_error

    cfg, seen, records = _logged_run(monkeypatch, example, march_name, T=T)
    f = target(cfg)
    runs = _runs(seen)
    assert len(records) == len(seen) == round(T / cfg.dt)
    assert (len(runs) > 0.8 * len(seen)) if example == 5 else (max(runs) >= 300), runs
    for rec, (t, u) in zip(records, seen):
        assert rec.t == t and rec.order == u.descriptor.order
        assert rec.error == relative_error(u, lambda x: f(x, t))


@pytest.mark.parametrize(
    "rec",
    [
        StepRecord(("refine", "move"), 0.125, ext=0.25, order=12, beta=1.5, x_left=-0.75),
        StepRecord(("coarsen_y",), 0.5, ext=0.0625, order_x=20, order_y=18),
        # every field set, each to its own value, so a field the direct
        # construction drops or misplaces cannot pass for a default
        StepRecord(**{f.name: "value of " + f.name for f in dataclasses.fields(StepRecord)}),
    ],
    ids=["1d", "2d", "every-field"],
)
def test_filled_record_is_replace_field_for_field(rec):
    got, want = rec.filled(0.75, 3e-9), dataclasses.replace(rec, t=0.75, error=3e-9)
    for f in dataclasses.fields(StepRecord):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def _example_6_rows(monkeypatch, **overrides):
    """Example 6 with its steps spied on: (cfg, records, [(t, u, reference at t)])."""
    cfg, seen, records = _logged_run(monkeypatch, 6, "adapt_schrodinger_run", **overrides)
    reference = experiments._reference_trajectory_6(experiments._reference_key_6(cfg))
    assert len(records) == len(seen) == round(cfg.T / cfg.dt)
    return cfg, records, [(t, u, reference[round(t / cfg.dt) - 1]) for t, u in seen]


def _fine_rule_error(u, ref):
    """The yardstick on u's own oversampled rule (order 2N+2), ref evaluated there."""
    from adaptspec import to_values
    from adaptspec.indicators import relative_error

    return relative_error(u, lambda x: to_values(ref, x))


def test_example_6_error_is_taken_on_the_reference_rule_up_to_the_oversampling_limit(
        monkeypatch):
    from adaptspec import evaluate_all, node_values, nodes_weights

    # the first step refines to order 59; n_ref=200 leaves 12 rows up to the limit, 48 past it
    cfg, records, rows = _example_6_rows(monkeypatch, order=40, n_ref=200, T=0.6)
    on_rule = [2 * u.descriptor.order + 2 <= ref.descriptor.order for _, u, ref in rows]
    assert any(on_rule) and not all(on_rule), [u.descriptor.order for _, u, _ in rows]
    for rec, (t, u, ref), inside in zip(records, rows, on_rule):
        assert rec.t == t and u.descriptor.x_left == ref.descriptor.x_left == 0.0
        if not inside:
            assert rec.error == _fine_rule_error(u, ref)
            continue
        # u at the reference's nodes, complex coefficients as one two-column real product
        r = nodes_weights(ref.descriptor)
        c = u.coefficients
        v = evaluate_all(u.descriptor, r.nodes).T @ np.column_stack([c.real, c.imag])
        uv, fv = v[:, 0] + 1j * v[:, 1], node_values(ref)
        num2, den2 = r.weights @ np.abs(uv - fv) ** 2, r.weights @ np.abs(fv) ** 2
        assert rec.error == math.sqrt(float(num2) / float(den2))


def test_example_6_error_agrees_with_the_fine_rule_yardstick(monkeypatch):
    _, records, rows = _example_6_rows(monkeypatch, T=0.1)
    for rec, (_, u, ref) in zip(records, rows):
        assert 2 * u.descriptor.order + 2 <= ref.descriptor.order  # all on the reference rule
        want = _fine_rule_error(u, ref)
        assert abs(rec.error - want) <= 1e-7 * want, (rec.t, rec.error, want)


def test_example_6_builds_rules_for_its_working_orders_and_the_reference_only(monkeypatch):
    from functools import lru_cache

    from adaptspec import basis

    built, core = [], basis._core.__wrapped__

    @lru_cache(maxsize=256)
    def counted(family, order):
        built.append((family, order))
        return core(family, order)

    monkeypatch.setattr(basis, "_core", counted)
    cfg, records, _ = _example_6_rows(monkeypatch, T=0.1)
    working = {cfg.order} | {rec.order for rec in records}
    assert len(working) == 7 and max(working) < cfg.n_ref
    assert sorted(built) == [(cfg.family, n) for n in sorted(working | {cfg.n_ref})]


# ---------------------------------------------------------------------------
# sweep()

def test_sweep_single_cell_matches_run(tmp_path):
    cfg = example_config(3, T=0.02)
    records = experiments.run(cfg, out=str(tmp_path / "run.csv"))
    path = experiments.sweep(cfg, {"eta": [1.2]}, out=str(tmp_path / "sweep.csv"))
    rows = _read(path)
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    assert float(rows[0]["error"]) == records[-1].error
    assert int(rows[0]["N"]) == records[-1].order
    assert float(rows[0]["beta"]) == records[-1].beta


def test_sweep_names_every_axis_of_each_cell(tmp_path, capsys):
    cfg = example_config(3, T=0.01)
    experiments.sweep(cfg, {"eta": [1.2, 1.5], "gamma": [1.05], "eta0": [1.2, 2.0]},
                      out=str(tmp_path / "s3.csv"))
    lines = capsys.readouterr().out.splitlines()
    cells = [(eta, eta0) for eta in (1.2, 1.5) for eta0 in (1.2, 2.0)]
    assert len(lines) == 4
    for line, cell in zip(lines, cells):
        assert line.startswith("eta=%g  gamma=1.05  eta0=%g  " % cell), line
    # one axis: the axis and the cell, as before
    last = experiments.run(cfg, out=str(tmp_path / "r.csv"))[-1]
    capsys.readouterr()
    experiments.sweep(cfg, {"eta": [1.2]}, out=str(tmp_path / "s1.csv"))
    assert capsys.readouterr().out == "eta=1.2  %s\n" % experiments._cell_text(last)


def test_cli_sweep_default_grids():
    def grid(*argv):
        return cli._sweep_grid(cli.build_parser().parse_args(["sweep", *argv]))

    assert grid("--example", "4") == {"eta0": [1.2, 1.5, 2.0, 4.0]}
    for example in ("3", "5"):
        assert grid("--example", example) == {
            "eta": [1.2, 1.5, 2.0, 4.0], "gamma": [1.05, 1.1, 1.2, 1.5]
        }
    assert grid("--example", "4", "--etas", "1.3") == {"eta": [1.3]}


def test_sweep_grid_layout_and_failure_isolation(tmp_path):
    cfg = example_config(3, T=0.02)
    path = experiments.sweep(
        cfg, {"eta": [0.5, 1.2], "gamma": [1.05, 1.1]}, out=str(tmp_path / "s.csv")
    )
    rows = _read(path)
    assert len(rows) == 4
    by_cell = {(r["eta"], r["gamma"]): r for r in rows}
    assert by_cell[("0.5", "1.05")]["status"].startswith("failed")
    ok = by_cell[("1.2", "1.05")]
    assert ok["status"] == "ok" and float(ok["error"]) < 1e-6

    with pytest.raises(ValueError, match="nonempty"):
        experiments.sweep(cfg, {"eta": []})
    with pytest.raises(ValueError, match="unknown configuration key"):
        experiments.sweep(cfg, {"shoe_size": [11]})


# ---------------------------------------------------------------------------
# CLI

def _cli(*argv):
    # the child imports the package this suite imported, installed or not
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "adaptspec", *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_readme_cli_commands_parse():
    # a documented flag cannot disappear unnoticed; parsing marches nothing
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        block = fh.read().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("adaptspec ")]
    assert len(commands) >= 5
    for argv in commands:
        args = cli.build_parser().parse_args(argv[1:])
        assert args.command == argv[1]


def test_readme_library_example_runs(capsys):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        block = fh.read().split("## Library use", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    order, beta, x_left = capsys.readouterr().out.split()
    assert int(order) >= 50 and float(beta) > 0 and math.isfinite(float(x_left))


def test_readme_flag_table_matches_the_parser():
    # the table lists exactly the flags derived from the config schema, and
    # each row's flags parse into the fields that row names
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        section = fh.read().split("### Flags", 1)[1].split("\n### ", 1)[0]
    listed = {}
    for line in section.splitlines():
        if line.startswith("| `--"):
            flags, fields = line.split("|")[1:3]
            listed.update(zip(re.findall(r"--[\w-]+", flags), re.findall(r"`(\w+)`", fields)))
    derived = {("--no-" if parse is experiments._parse_bool else "--") + key.replace("_", "")
               for key, parse in experiments._SCHEMA.items()}
    assert set(listed) == derived | {"--out"}  # and the one flag the CLI declares itself
    for flag, field in listed.items():
        argv = ["run", "--example", "3", flag] + ([] if flag.startswith("--no-") else ["1"])
        assert getattr(cli.build_parser().parse_args(argv), field) is not None, flag


def test_cli_run_roundtrip(tmp_path):
    out = tmp_path / "cli.csv"
    proc = _cli("run", "--example", "3", "--T", "0.02", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("example 3:")
    rows = _read(out)
    assert len(rows) == 20


def test_cli_rejects_invalid_configurations(tmp_path):
    proc = _cli("run", "--example", "3", "--eta", "0.9")
    assert proc.returncode != 0
    assert "usage:" in proc.stderr and "eta" in proc.stderr

    proc = _cli("run", "--example", "9")
    assert proc.returncode != 0 and "usage:" in proc.stderr

    missing = _cli("run", "--example", "1", "--config", str(tmp_path / "nope.txt"))
    assert missing.returncode != 0 and "usage:" in missing.stderr


def test_cli_refuses_an_infinite_horizon(tmp_path):
    proc = _cli("run", "--example", "3", "--T", "inf", "--out", str(tmp_path / "inf.csv"))
    assert proc.returncode == 2, proc.stderr
    assert "usage:" in proc.stderr and "positive and finite" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_refuses_bad_physical_parameters(tmp_path, capsys):
    # caught as usage errors before the march, not as a traceback at t=0
    path = tmp_path / "bad.txt"
    for line in ("zeta=nan", "zeta=0", "zeta=-0.3", "k=inf", "x_left0=nan", "drive_amp=inf", "beta_hi=inf"):
        path.write_text(line + "\n")
        assert cli.main(["run", "--example", "5", "--config", str(path)]) == 2, line
        assert line.split("=")[0] in capsys.readouterr().err
    for value in ("nan", "inf"):
        assert cli.main(["run", "--example", "5", "--dmax", value]) == 2, value
        assert "d_max" in capsys.readouterr().err


def test_cli_no_adapt_freezes_every_controller(tmp_path):
    out = tmp_path / "frozen.csv"
    proc = _cli("run", "--example", "3", "--T", "0.02", "--no-adapt", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = _read(out)
    assert all(r["actions"] == "" for r in rows)
    assert {r["N"] for r in rows} == {"50"}
    assert {float(r["beta"]) for r in rows} == {4.0}


def test_cli_config_file_layered_under_flags(tmp_path):
    cfg_file = tmp_path / "c.txt"
    cfg_file.write_text("T=0.02\norder=40\n")
    out = tmp_path / "r.csv"
    proc = _cli("run", "--example", "3", "--config", str(cfg_file),
                "--order", "30", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = _read(out)
    assert len(rows) == 20          # T came from the file
    assert rows[0]["N"] == "30"     # flag beat the file


def test_cli_sweep_on_a_tensor_example_reports_both_orders(tmp_path):
    out = tmp_path / "sweep2.csv"
    proc = _cli("sweep", "--example", "2", "--T", "0.02", "--etas", "1.1,1.2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    last = experiments.run(example_config(2, T=0.02, eta=1.2), out=str(tmp_path / "r.csv"))[-1]
    rows = _read(out)
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert [r["eta"] for r in rows] == ["1.1", "1.2"]  # as typed, not 1.1000000000000001
    assert (rows[1]["N"], rows[1]["Nx"], rows[1]["Ny"]) == ("", str(last.order_x), str(last.order_y))
    assert "Nx=%d Ny=%d" % (last.order_x, last.order_y) in proc.stdout


def test_cli_sweep_writes_table(tmp_path):
    out = tmp_path / "table.csv"
    proc = _cli("sweep", "--example", "3", "--T", "0.02",
                "--etas", "1.2,1.5", "--gammas", "1.05", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = _read(out)
    assert len(rows) == 2
    assert all(r["status"] == "ok" for r in rows)
    assert "1.2" in proc.stdout and "1.5" in proc.stdout
