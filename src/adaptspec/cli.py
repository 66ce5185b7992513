"""Command-line front end: march one example (`run`) or a grid (`sweep`).

Precedence per option: packaged example default < --config file < flag.
"""

import argparse
import sys

from . import experiments

# flag, example_config override key (the argparse dest) and help text of
# the plain value flags; each value is parsed as its config-file key is.
_VALUE_FLAGS = (
    ("--eta", "eta", "refinement threshold multiplier"),
    ("--eta0", "eta0", "coarsening threshold divisor"),
    ("--gamma", "gamma", "growth factor applied to eta after refining"),
    ("--q", "q", "scale-contraction ratio (trial beta -> q*beta)"),
    ("--nu", "nu", "scaling trigger multiplier"),
    ("--mu", "mu", "moving trigger multiplier"),
    ("--delta", "delta", "translation increment"),
    ("--dmax", "d_max", "max translation per step"),
    ("--nmax", "n_max", "max order increments per step"),
    ("--nmin", "n_min", "order floor"),
    ("--nabs", "n_abs", "hard order ceiling"),
    ("--order", "order", "initial expansion order"),
    ("--beta0", "beta0", "initial scaling factor"),
    ("--dt", "dt", "time step"),
    ("--T", "T", "final time"),
    ("--nref", "n_ref", "example 6 reference order"),
)


def _float_list(text):
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated numbers, got %r" % text)
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _add_common(parser):
    parser.add_argument("--example", type=int, required=True, choices=range(1, 7),
                        help="which packaged study to run (1-6)")
    parser.add_argument("--config", help="key=value file applied before other flags")
    for flag, dest, help_text in _VALUE_FLAGS:
        parser.add_argument(flag, dest=dest, type=experiments._SCHEMA[dest], default=None,
                            help=help_text)
    parser.add_argument("--no-scaling", dest="scaling", action="store_false", default=None,
                        help="disable the scaling controller")
    parser.add_argument("--no-moving", dest="moving", action="store_false", default=None,
                        help="disable the translation controller")
    parser.add_argument("--no-padapt", dest="p_adaptivity", action="store_false", default=None,
                        help="disable order adaptivity")
    parser.add_argument("--no-adapt", action="store_true",
                        help="disable all three controllers")
    parser.add_argument("--out", default=None, help="output CSV path")


def build_parser():
    parser = argparse.ArgumentParser(prog="adaptspec",
                                     description="adaptive spectral method reproductions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="march one example, write per-step CSV")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="tabulate endpoints over a parameter grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--etas", type=_float_list, default=None,
                         help="comma-separated eta grid")
    p_sweep.add_argument("--gammas", type=_float_list, default=None,
                         help="comma-separated gamma grid")
    p_sweep.add_argument("--eta0s", type=_float_list, default=None,
                         help="comma-separated eta0 grid")
    return parser


def _collect_overrides(args):
    overrides = {}
    if args.config:
        overrides.update(experiments.load_config_file(args.config))
    for dest in [key for _, key, _ in _VALUE_FLAGS] + ["scaling", "moving", "p_adaptivity"]:
        value = getattr(args, dest)
        if value is not None:
            overrides[dest] = value
    if args.no_adapt:
        overrides.update(scaling=False, moving=False, p_adaptivity=False)
    return overrides


def _sweep_grid(args):
    grid = {}
    if args.etas:
        grid["eta"] = args.etas
    if args.gammas:
        grid["gamma"] = args.gammas
    if args.eta0s:
        grid["eta0"] = args.eta0s
    if grid:
        return grid
    if args.example == 4:
        return {"eta0": [1.2, 1.5, 2.0, 4.0]}
    return {"eta": [1.2, 1.5, 2.0, 4.0], "gamma": [1.05, 1.1, 1.2, 1.5]}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = experiments.example_config(args.example, **_collect_overrides(args))
        if args.command == "run":
            experiments.run(config, out=args.out)
        else:
            experiments.sweep(config, _sweep_grid(args), out=args.out)
    except (ValueError, OSError) as exc:
        parser.print_usage(sys.stderr)
        print("adaptspec: error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
