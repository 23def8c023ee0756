"""Command line entry point.

Subcommands mirror the experiment kinds plus ``export``. Exit codes:
0 ok, 2 config error, 3 numerical abort, 4 invariant violation.

Any config key can be overridden from the environment with the SUPERCRIT_
prefix, e.g. SUPERCRIT_SEED=7 or SUPERCRIT_N=64. Keys match config fields
case-insensitively; variables that name no field are ignored. Overrides are
read after the config file as ``key = value`` lines, the environment's in
sorted order and then ``--seed``; the last line setting a key wins, so
``--seed`` beats the environment, which beats the file. An error in an
override names its source (``SUPERCRIT_<KEY>`` or ``--seed``), not a line.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from dataclasses import fields

from .config import KINDS, ConfigError, ExperimentConfig, parse_config
from .runner import (
    EXIT_CONFIG,
    EXIT_FOR_OUTCOME,
    EXIT_OK,
    export_plot_data,
    run_experiment,
)

ENV_PREFIX = "SUPERCRIT_"

_FIELD_BY_LOWER = {f.name.lower(): f.name for f in fields(ExperimentConfig)}

# (glibc mallopt parameter, value): M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 64 MiB
_HEAP_POLICY = ((-3, 32 << 20), (-1, 64 << 20))


def _set_heap_policy():
    """Serve blocks below 32 MiB from the heap and keep up to 64 MiB of freed top.

    A run allocates and frees field-sized temporaries (128 KiB to a few MiB)
    at every step. glibc's default serves blocks from 128 KiB up by mmap and
    returns them at free, so each one page-faults afresh, unless an earlier
    large block happened to raise glibc's dynamic thresholds. Fixed
    thresholds make every run reuse its heap. Where the C library has no
    mallopt (not glibc), this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    # no loadable C library (TypeError: Windows takes no None), or no mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _HEAP_POLICY:
        mallopt(param, value)


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
    _set_heap_policy()

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

    overrides = [(f"{ENV_PREFIX}{k.upper()}", f"{k} = {v}")
                 for k, v in sorted(_env_overrides().items())]
    if args.seed is not None:
        overrides.append(("--seed", f"seed = {args.seed}"))
    try:
        cfg = parse_config(text, args.command, overrides)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    manifest = run_experiment(cfg, args.output)
    print(f"{manifest.experiment_id} {manifest.outcome}")
    return EXIT_FOR_OUTCOME[manifest.outcome]


if __name__ == "__main__":
    raise SystemExit(main())
