"""Command-line interface.

Verbs:
  run         execute a scheme x depth x coupling sweep from a config file
  plane       sample the (lambda1, lambda2) contraction plane to CSV
  richardson  run restarted-acceleration experiments on linear Richardson

Exit codes: 0 success, 1 configuration error, 2 I/O error.  Solver failures
(stagnation/divergence in a sweep) are results, not errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .aa_theory import SpectralPair, richardson_aa_experiment, sample_planes
from .config import ConfigError, default_config, load_config
from .sweep import emit_report, run_sweep


def _cmd_run(args) -> int:
    if args.config is None:
        config = default_config(args.scenario or "test1")
    elif args.scenario is not None:
        raise ConfigError("--scenario and --config exclude each other: "
                          "the configuration file names its scenario")
    else:
        config = load_config(args.config)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    os.makedirs(config.out_dir, exist_ok=True)  # a bad directory fails before the sweep
    report = run_sweep(config)
    paths = emit_report(report, config.out_dir)
    with open(paths["txt"]) as fh:
        sys.stdout.write(fh.read())
    print(f"report written to {paths['csv']} and {paths['txt']}")
    return 0


def _cmd_plane(args) -> int:
    rect = (args.l1_min, args.l1_max, args.l2_min, args.l2_max)
    try:
        sample = sample_planes(rect, args.resolution)
    except ValueError as exc:  # a resolution below 2 or a non-finite bound
        raise ConfigError(str(exc)) from exc
    sample.write_csv(args.out)
    frac = float(np.mean(sample.converging))
    print(f"sampled {args.resolution}x{args.resolution} plane over {rect}; "
          f"{100 * frac:.1f}% of it converges; wrote {args.out}")
    return 0


def _cmd_richardson(args) -> int:
    try:  # non-finite, zero or degenerate eigenvalues, or fewer than one block
        pair = SpectralPair(args.lam1, args.lam2)
        result = richardson_aa_experiment(pair, args.blocks)
        bound = result.bound
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"eigenvalues ({pair.lam1:g}, {pair.lam2:g}): "
          f"4-step bound r = {bound:.6g}")
    print(f"{'iter':>6} {'accelerated':>14} {'plain':>14}")
    for k, i in enumerate(range(0, 4 * args.blocks + 1, 4)):
        print(f"{i:>6} {result.aa_errors[k]:>14.6e} {result.plain_errors[k]:>14.6e}")
    worst = np.max(result.block_ratios) if len(result.block_ratios) else 0.0
    print(f"worst observed 4-step ratio: {worst:.6g} (bound {bound:.6g})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="porosplit",
        description="fixed-stress splitting schemes with Anderson acceleration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a benchmark sweep")
    p_run.add_argument("--config", help="INI configuration file")
    p_run.add_argument("--scenario", choices=("test1", "test2"),
                       help="built-in scenario, test1 by default; not with --config")
    p_run.add_argument("--out", help="output directory override")
    p_run.set_defaults(func=_cmd_run)

    p_plane = sub.add_parser("plane", help="sample the contraction plane")
    p_plane.add_argument("--l1-min", type=float, default=-1.0)
    p_plane.add_argument("--l1-max", type=float, default=1.0)
    p_plane.add_argument("--l2-min", type=float, default=-1.0)
    p_plane.add_argument("--l2-max", type=float, default=1.0)
    p_plane.add_argument("--resolution", type=int, default=200)
    p_plane.add_argument("--out", default="plane.csv")
    p_plane.set_defaults(func=_cmd_plane)

    p_rich = sub.add_parser("richardson", help="linear acceleration experiment")
    p_rich.add_argument("--lam1", type=float, default=1.5)
    p_rich.add_argument("--lam2", type=float, default=0.5)
    p_rich.add_argument("--blocks", type=int, default=30,
                        help="number of 4-iteration blocks")
    p_rich.set_defaults(func=_cmd_richardson)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
