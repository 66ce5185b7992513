"""Command-line front end: march one example (`run`) or a grid (`sweep`).

Every plain field of ControllerConfig and ExperimentConfig is a flag named
"--" + the field name without underscores (d_max -> --dmax, n_ref -> --nref),
parsed as its config-file key is; a boolean field is a --no-<flag> switch
(p_adaptivity also answers to --no-padapt).  The field's docstring holds its
meaning.  Precedence per option: packaged example default < --config file <
flag.  --out, the CSV path, is the front end's own flag, not a configuration value.
"""

import argparse
import sys

from . import experiments


def _float_list(text):
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated numbers, got %r" % text)
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


# the controller fields a sweep may vary, each through a --<name>s grid flag
_SWEEP_AXES = ("eta", "gamma", "eta0")
# the grid swept when no axis is given: eta x gamma, but example 4 studies coarsening
_DEFAULT_GRID = {"eta": [1.2, 1.5, 2.0, 4.0], "gamma": [1.05, 1.1, 1.2, 1.5]}
_DEFAULT_GRIDS = {4: {"eta0": [1.2, 1.5, 2.0, 4.0]}}


def _add_common(parser):
    parser.add_argument("--example", type=int, required=True, choices=experiments._STUDIES,
                        help="which packaged study to run")
    parser.add_argument("--config", help="key=value file applied before other flags")
    parser.add_argument("--out", help="output CSV path (default example<id>.csv or sweep<id>.csv)")
    for key, parse in experiments._SCHEMA.items():
        owner = "ControllerConfig" if key in experiments._CONTROLLER_FIELDS else "ExperimentConfig"
        flag, field = key.replace("_", ""), "%s.%s" % (owner, key)
        if parse is experiments._parse_bool:
            names = ["--no-" + flag] + (["--no-padapt"] if key == "p_adaptivity" else [])
            parser.add_argument(*names, dest=key, action="store_false", default=None,
                                help="turn off " + field)
        else:
            parser.add_argument("--" + flag, dest=key, type=parse, default=None, help=field)
    parser.add_argument("--no-adapt", action="store_true",
                        help="disable all three controllers")


def build_parser():
    parser = argparse.ArgumentParser(prog="adaptspec", allow_abbrev=False,
                                     description="adaptive spectral method reproductions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", allow_abbrev=False, help="march one example, write per-step CSV")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", allow_abbrev=False,
                             help="tabulate endpoints over a parameter grid")
    _add_common(p_sweep)
    for name in _SWEEP_AXES:
        p_sweep.add_argument("--%ss" % name, type=_float_list, default=None,
                             help="comma-separated %s grid" % name)
    return parser


def _collect_overrides(args):
    overrides = experiments.load_config_file(args.config) if args.config else {}
    for key in experiments._SCHEMA:
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    if args.no_adapt:
        overrides.update(scaling=False, moving=False, p_adaptivity=False)
    return overrides


def _sweep_grid(args):
    grid = {name: getattr(args, name + "s") for name in _SWEEP_AXES if getattr(args, name + "s")}
    return grid or _DEFAULT_GRIDS.get(args.example, _DEFAULT_GRID)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = experiments.example_config(args.example, **_collect_overrides(args))
        if args.command == "run":
            experiments.run(config, args.out)
        else:
            experiments.sweep(config, _sweep_grid(args), args.out)
    except (ValueError, OSError) as exc:
        parser.print_usage(sys.stderr)
        print("adaptspec: error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
