"""Experiment harness: config plumbing, CSV contract, sweep, CLI."""

import csv
import math
import subprocess
import sys

import numpy as np
import pytest

from adaptspec import cli, experiments
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


def test_reference_march_equals_the_scaling_only_adaptive_run():
    # the direct propagate-then-scale march must reproduce what the full
    # orchestrated run with only scaling on produces, bit for bit
    from adaptspec.basis import BasisDescriptor
    from adaptspec.schrodinger import SchrodingerProblem, adapt_schrodinger_run, gaussian_packet

    cfg = example_config(6, n_ref=60, T=0.5)
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
        "out=run.csv\n"
    )
    got = load_config_file(path)
    assert got == {"eta": 1.3, "n_max": 5, "scaling": False, "out": "run.csv"}

    bad = tmp_path / "bad.txt"
    bad.write_text("eta=1.3\nshoe_size=11\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        load_config_file(bad)
    bad.write_text("just words\n")
    with pytest.raises(ValueError, match="expected key=value"):
        load_config_file(bad)


def test_config_schema_covers_every_plain_field():
    # every dataclass field that holds a plain value is a config-file key,
    # parsed as its type (X | None as X, bool through _parse_bool)
    import dataclasses

    from adaptspec.adapt import ControllerConfig

    names = {f.name for cls in (ControllerConfig, ExperimentConfig) for f in dataclasses.fields(cls)}
    plain = names - {"indicator", "example", "controller", "family"}
    assert set(experiments._SCHEMA) == plain
    ints = {"n_max", "n_min", "n_abs", "order", "order_y", "n_ref"}
    bools = {"p_adaptivity", "scaling", "moving"}
    for name, parser in experiments._SCHEMA.items():
        if name in bools:
            assert parser is experiments._parse_bool
        elif name in ints:
            assert parser is int
        else:
            assert parser is (str if name == "out" else float)


def test_config_file_refuses_unknown_and_object_keys(tmp_path):
    path = tmp_path / "c.txt"
    for line in ("m=12", "m_ref=48", "indicator=none", "family=hermite_function", "example=3"):
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config_file(path)


def test_cli_value_flags_parse_as_their_config_keys():
    from adaptspec import cli

    args = cli.build_parser().parse_args(
        ["run", "--example", "3", "--nmax", "4", "--nabs", "90", "--eta", "1.5", "--T", "0.5"]
    )
    assert (args.n_max, args.n_abs, args.eta, args.T) == (4, 90, 1.5, 0.5)
    assert type(args.n_max) is int and type(args.eta) is float
    assert {dest for _, dest, _ in cli._VALUE_FLAGS} <= set(experiments._SCHEMA)


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
    # each axis trial resamples from the previous one; zero-padded refine
    # trials round differently and change these decisions (example 2's tail
    # sits at roundoff)
    experiments.run(example_config(2, T=0.1), out=str(tmp_path / "r.csv"))
    refine_y3 = "refine_y;refine_y;refine_y"
    assert [r["actions"] for r in _read(tmp_path / "r.csv")] == [
        refine_y3,
        "coarsen_y",
        refine_y3,
        "refine_x;refine_x;refine_x;coarsen_y",
        "coarsen_x;" + refine_y3,
        "coarsen_x;coarsen_y",
        refine_y3,
        "coarsen_y",
        refine_y3,
        "coarsen_y",
    ]


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
    return subprocess.run(
        [sys.executable, "-m", "adaptspec", *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )


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
    for line in ("zeta=nan", "zeta=0", "zeta=-0.3", "k=inf", "x_left0=nan", "drive_amp=inf"):
        path.write_text(line + "\n")
        assert cli.main(["run", "--example", "5", "--config", str(path)]) == 2, line
        assert line.split("=")[0] in capsys.readouterr().err
    assert cli.main(["run", "--example", "5", "--dmax", "nan"]) == 2
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


def test_cli_sweep_writes_table(tmp_path):
    out = tmp_path / "table.csv"
    proc = _cli("sweep", "--example", "3", "--T", "0.02",
                "--etas", "1.2,1.5", "--gammas", "1.05", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = _read(out)
    assert len(rows) == 2
    assert all(r["status"] == "ok" for r in rows)
    assert "1.2" in proc.stdout and "1.5" in proc.stdout
