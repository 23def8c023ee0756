"""Command line entry point.

Subcommands mirror the experiment kinds plus ``export``. Exit codes:
0 ok, 2 config error, 3 numerical abort, 4 invariant violation.

Any config key can be overridden from the environment with the SUPERCRIT_
prefix, e.g. SUPERCRIT_SEED=7 or SUPERCRIT_N=64. Keys match config fields
case-insensitively; variables that name no field are ignored.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .config import KINDS, ConfigError, ExperimentConfig, parse_config, with_overrides
from .runner import (
    EXIT_CONFIG,
    EXIT_FOR_OUTCOME,
    EXIT_OK,
    export_plot_data,
    run_experiment,
)

ENV_PREFIX = "SUPERCRIT_"

_FIELD_BY_LOWER = {f.name.lower(): f.name for f in fields(ExperimentConfig)}


def _env_overrides(environ=os.environ) -> dict:
    """Config overrides from SUPERCRIT_<KEY> variables, keyed by field name."""
    out = {}
    for key, value in environ.items():
        if key.startswith(ENV_PREFIX):
            name = _FIELD_BY_LOWER.get(key[len(ENV_PREFIX):].lower())
            if name is not None:
                out[name] = value
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercrit",
        description="Numerical laboratory for supercritical wave and NLS dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in KINDS:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--output", default="runs", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        # accepted for old scripts; ladder members run in lockstep in one thread
        p.add_argument("--jobs", type=int, default=1, help="ignored")
    p = sub.add_parser("export", help="emit tidy plot CSV for an experiment")
    p.add_argument("experiment_id")
    p.add_argument("--output", default="runs", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "export":
        try:
            sys.stdout.write(export_plot_data(args.experiment_id, args.output))
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        return EXIT_OK

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    env = _env_overrides()
    if env:
        text = text + "\n" + "\n".join(f"{k} = {v}" for k, v in sorted(env.items()))
    try:
        cfg = with_overrides(parse_config(text, kind=args.command), seed=args.seed)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    manifest = run_experiment(cfg, args.output)
    print(f"{manifest.experiment_id} {manifest.outcome}")
    return EXIT_FOR_OUTCOME[manifest.outcome]


if __name__ == "__main__":
    raise SystemExit(main())
