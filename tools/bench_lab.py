"""Layer and end-to-end timings of the assumption lab, for one or two source trees.

Run from the repository root:

    python3 tools/bench_lab.py --src src --out BENCH_11.json
    python3 tools/bench_lab.py --before /path/to/parent/src --src src --out BENCH_11.json

Each tree is measured in a fresh interpreter; ``--before`` adds a "before"
column next to the "after" column of ``--src``. Every row records

* ``wall_s``      median of REPEATS perf_counter timings, after one warm-up;
* ``mpoints``     points handed to the nonlinearity evaluators (F, f, f' and,
                  where the tree has one, the spec's jet), counted in an
                  untimed pass;
* ``peak_bytes``  tracemalloc peak of one untimed pass.

Rows:

* ``layer.nonlinearity.separate``  F, f and f' of oscillating_sin:q=2, each on
  the same 2^20 points;
* ``layer.nonlinearity.jet``       ``spec.jet(u, 2)`` on those points (null in a
  tree without jets);
* ``layer.sweep.H11+H22``          H11 and H22 of oscillating_sin:q=2 at R = 2,
  d = 3, n = 1M, seed 0: every sample plan of both constants;
* ``e2e.check-assumptions.d<d>``   the CLI ``check-assumptions`` for
  oscillating_sin:q=2 with d = 1, 2, 3, config file to published directory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

REPEATS = 3
SPEC = "oscillating_sin:q=2"
LAYER_POINTS = 1 << 20
SWEEP = {"R": 2.0, "d": 3, "n_random": 1_000_000, "seed": 0}


def _counting(spec, counter):
    """The spec with every evaluator field counting the points it is handed."""
    def wrap(fn):
        def counted(u, *args):
            counter[0] += getattr(u, "size", 1)
            return fn(u, *args)
        return counted

    fields = {f.name: wrap(getattr(spec, f.name)) for f in dataclasses.fields(spec)
              if callable(getattr(spec, f.name))}
    return dataclasses.replace(spec, **fields)


def _measure(run, make_spec):
    """wall_s, mpoints and peak_bytes of run(spec); make_spec() builds a fresh spec."""
    run(make_spec())  # warm-up: imports, caches
    times = []
    for _ in range(REPEATS):
        spec = make_spec()
        start = time.perf_counter()
        run(spec)
        times.append(time.perf_counter() - start)
    counter = [0]
    run(_counting(make_spec(), counter))
    tracemalloc.start()
    try:
        run(make_spec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"wall_s": statistics.median(times), "mpoints": counter[0] / 1e6,
            "peak_bytes": peak}


def _sweep(lab, spec):
    if hasattr(lab, "_wave_constants"):  # one fused sweep per plan
        return lab._wave_constants(spec, SWEEP["R"], SWEEP["d"], ["H11", "H22"],
                                   SWEEP["n_random"], SWEEP["seed"])
    return [lab.estimate_remainder_constant(spec, SWEEP["R"], SWEEP["n_random"], SWEEP["seed"]),
            lab.estimate_taylor_constant(spec, SWEEP["R"], SWEEP["d"], SWEEP["n_random"],
                                         SWEEP["seed"])]


def _cli_run(cli, d):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "assume.cfg")
        with open(cfg, "w") as fh:
            fh.write(f"nonlinearity = {SPEC}\nd = {d}\nseed = 0\n")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["check-assumptions", "--config", cfg, "--output", tmp])
    if code != 0:
        raise RuntimeError(f"check-assumptions d={d} exited {code}")


def worker(src: str) -> dict:
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np
    from supercrit import assumption_lab, cli, config, nonlinearity

    rows = {}
    u = np.random.default_rng(0).uniform(-2.0, 2.0, LAYER_POINTS)
    base = nonlinearity.from_selection(SPEC)
    rows["layer.nonlinearity.separate"] = _measure(
        lambda s: (s.F(u), s.f(u), s.fprime(u)), lambda: base)
    rows["layer.nonlinearity.jet"] = (
        _measure(lambda s: s.jet(u, 2), lambda: base) if hasattr(base, "jet") else None)
    with np.errstate(over="ignore", invalid="ignore"):
        rows["layer.sweep.H11+H22"] = _measure(lambda s: _sweep(assumption_lab, s), lambda: base)

    # the CLI builds its spec from the config; route that through the given spec
    real = config.from_selection
    for d in (1, 2, 3):
        def run(spec, d=d):
            config.from_selection = lambda name: spec
            try:
                _cli_run(cli, d)
            finally:
                config.from_selection = real

        rows[f"e2e.check-assumptions.d{d}"] = _measure(run, lambda: base)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="source tree measured as 'after'")
    parser.add_argument("--before", help="source tree measured as 'before'")
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.src)))
        return 0

    def measure(src):
        out = subprocess.run([sys.executable, __file__, "--worker", "--src", src],
                             check=True, capture_output=True, text=True).stdout
        return json.loads(out.splitlines()[-1])

    columns = {"after": measure(args.src)}
    if args.before:
        columns = {"before": measure(args.before), **columns}
    import numpy
    result = {
        "script": "tools/bench_lab.py",
        "machine": {"python": platform.python_version(), "numpy": numpy.__version__,
                    "platform": platform.platform(), "cpus": os.cpu_count()},
        "repeats": REPEATS,
        "spec": SPEC,
        "layer_points": LAYER_POINTS,
        "sweep": SWEEP,
        "rows": {name: {col: rows[name] for col, rows in columns.items()}
                 for name in columns["after"]},
    }
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
