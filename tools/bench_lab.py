"""Layer and end-to-end timings of the assumption lab, the wave and NLS steppers and
the wave and NLS diagnostics records, for one or two source trees.

Run from the repository root:

    python3 tools/bench_lab.py --src src --out BENCH_<n>.json
    python3 tools/bench_lab.py --before /path/to/parent/src --src src --out BENCH_<n>.json

Each tree is measured in ROUNDS fresh interpreters, and every number is the
median across them. ``--before`` adds a "before" column next to the "after"
column of ``--src``; the two trees' interpreters then alternate, the tree that
goes first switching each round, so that a drift in host speed falls on both
columns alike instead of reading as a change. Every row records

* ``wall_s``      median of REPEATS perf_counter timings, after one warm-up,
                  with each round's value in ``wall_s_rounds``; a step row
                  times STEPS consecutive steps and reports wall_s per step;
* ``mpoints``     points handed to the nonlinearity evaluators (F, f, f' and
                  the spec's jet; Fs, Fs' and Fs'' for an NLS spec), counted in
                  an untimed pass;
* ``peak_bytes``  tracemalloc peak of one untimed pass, made after every
                  ``lru_cache`` of the measured tree is emptied, so that it
                  counts the tables a cold run builds (such as the NLS
                  propagator and the Parseval multipliers), which the warm-up
                  and counting passes would otherwise have left allocated;

and every end-to-end row also

* ``minflt``      median minor page faults of the timed runs, from
                  ``getrusage(RUSAGE_SELF).ru_minflt`` around each run.

An end-to-end row's ``wall_s`` is not a claim: three rounds of three runs do
not resolve a 15% change on a host whose speed drifts, so the JSON marks it
under ``not_a_claim``. Its ``mpoints`` and ``peak_bytes`` are exact.

Rows:

* ``layer.nonlinearity.separate``  F, f and f' of oscillating_sin:q=2, each on
  the same 2^20 points;
* ``layer.nonlinearity.jet``       ``spec.jet(u, 2)`` on those points;
* ``layer.sweep.H11+H22``          H11 and H22 of oscillating_sin:q=2 at R = 2,
  d = 3, n = 1M, seed 0: every sample plan of both constants;
* ``layer.sweep.ClaimA``           ``find_convexity_shift`` of nls_cubic at R = 2,
  n = 200k, seed 0: every window of the complex sample plan;
* ``layer.sweep.Gronw6+H222``      Gronw6 and H222 of nls_cubic at R = 2, d = 3,
  n = 400k, seed 0, from one ``_nls_constants`` call;
* ``layer.step.wave``              impulse steps of defocusing_exp:m=1 on the
  grid and data of the ``wave3d`` workload (d = 3, N = 64), its member built by
  the runner's ``_base_config`` and ``_bump``; each spec's member is built at
  its first call, which then makes STEPS steps, and each later call advances
  it by STEPS more, so wall_s is a later step's (a call's time over STEPS)
  and peak_bytes the peak of STEPS later steps, while mpoints, from the
  counting spec's only call, counts STEPS steps and the opening kick's
  evaluation of f (made by the member or by its first step);
* ``layer.step.nls``               Strang steps of the ``nls-ladder``
  workload's reference member (nls_coercive_exp at d = 2, N = 128), built by
  the runner's ``_base_config`` and ``_bump`` and measured as the wave steps
  are, so mpoints also counts the opening rotation's Fs' of the member;
* ``layer.record.wave``            one diagnostics record of that member's initial
  state, as a simulate-wave run makes it: the energies (F on the grid, Parseval
  sums of the half spectra), the boundary shares (shell and spectral
  tail) and the sup norm; each call observes a new record
  of the same state, and mpoints also counts the set-up's f where the member
  makes the opening kick;
* ``layer.record.nls``             one record of a weak-strong run of the
  ``nls-ladder`` workload (nls_coercive_exp at d = 2, N = 128): the energies
  of the reference and its three ladder members, built at t = 0 as
  ``gronwall_ladder`` builds them, the reference's boundary shares where the
  time loop takes them, and the ``NlsGronwall`` rows of the members; as for
  the wave record, each call observes new records of the same states, and
  mpoints also counts the members' set-up.

Both record rows run ``stepping.integrate(members, schedule, observers)``
on members whose stepper ends the run at its first step, so a call is the
initial record as the time loop makes it, in whatever order the tree under
test builds and observes the members' records.
* ``e2e.check-assumptions``        the CLI run of the ``assume`` workload of
  ``bench/workloads.py`` (check-assumptions, oscillating_sin:q=2, whose
  constants are taken at d = 3 only), config file to published directory;
* ``e2e.weak-strong.nls``          the CLI run of the ``nls-ladder`` workload
  (weak-strong, nls_coercive_exp at d = 2, N = 128, T = 0.5, dt = 0.005);
* ``e2e.simulate-wave.d3``         the CLI run of the ``wave3d`` workload
  (simulate-wave, defocusing_exp:m=1 at d = 3, N = 64, T = 1: 45 steps);
* ``e2e.simulate-wave.m2``         that run with defocusing_exp:m=2, whose F and
  f take fourth and third powers;
* ``e2e.weak-strong.wave.d3``      a weak-strong run of the ``wave3d``
  workload's config at T = 0.5 (23 steps): the reference and the default
  ladder's three members stepped in lockstep, with ``WaveGronwall`` reading
  each member's u_t and f(u), and the potential integrals of its energies,
  at every record;
* ``e2e.simulate-nls``             the default simulate-nls of nls_coercive_exp
  at d = 2, N = 128 (L = 40, radius 5, T = 0.5, dt = 1e-3: 500 steps of one
  state), which no workload runs.

Every e2e config is a workload's at seed 0, or a kind's defaults at seed 0.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
from workloads import WORKLOADS  # noqa: E402

REPEATS = 3
ROUNDS = 3
# consecutive steps per timing of a step row: one 0.7-1.1 ms NLS step timed
# alone spread its rounds by 50%, so a step row times this many and divides
STEPS = 50
SPEC = "oscillating_sin:q=2"
LAYER_POINTS = 1 << 20
SWEEP = {"R": 2.0, "n_random": 1_000_000, "seed": 0}
NLS_SPEC = "nls_cubic"
SHIFT_SWEEP = {"R": 2.0, "n_random": 200_000, "seed": 0}
NLS_SWEEP = {"R": 2.0, "n_random": 400_000, "seed": 0}
WAVE_SPEC = "defocusing_exp:m=1"
# e2e row: (subcommand, config text), each a workload's config at seed 0
E2E = {
    "e2e.check-assumptions": (WORKLOADS["assume"].command, WORKLOADS["assume"].config_text(0)),
    "e2e.weak-strong.nls": (WORKLOADS["nls-ladder"].command,
                            WORKLOADS["nls-ladder"].config_text(0)),
    "e2e.simulate-wave.d3": (WORKLOADS["wave3d"].command, WORKLOADS["wave3d"].config_text(0)),
    # a later line of a config overrides an earlier one
    "e2e.simulate-wave.m2": (WORKLOADS["wave3d"].command, WORKLOADS["wave3d"].config_text(0)
                             + "nonlinearity = defocusing_exp:m=2\n"),
    "e2e.weak-strong.wave.d3": ("weak-strong", WORKLOADS["wave3d"].config_text(0) + "T = 0.5\n"),
    "e2e.simulate-nls": ("simulate-nls", "nonlinearity = nls_coercive_exp\nd = 2\nN = 128\n"
                                         "seed = 0\n"),
}


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


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _clear_caches():
    """Empty every lru_cache of the measured tree's modules."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "supercrit":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _measure(run, make_spec, faults=False, per=1):
    """wall_s, mpoints and peak_bytes of run(spec), and with ``faults`` minflt;
    make_spec() builds a fresh spec. wall_s is a timing over ``per``, the
    steps a call makes. The traced pass starts with the tree's caches empty."""
    run(make_spec())  # warm-up: imports, caches
    times, minflt = [], []
    for _ in range(REPEATS):
        spec = make_spec()
        f0, start = _minflt(), time.perf_counter()
        run(spec)
        times.append(time.perf_counter() - start)
        minflt.append(_minflt() - f0)
    counter = [0]
    run(_counting(make_spec(), counter))
    _clear_caches()
    tracemalloc.start()
    try:
        run(make_spec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = {"wall_s": statistics.median(times) / per, "mpoints": counter[0] / 1e6,
           "peak_bytes": peak}
    if faults:
        row["minflt"] = statistics.median(minflt)
    return row


def _wave_run(config, runner, wave_integrator, spec):
    """The schedule and the one impulse member of the wave3d workload's config
    with spec, at rest."""
    cfg = config.parse_config(WORKLOADS["wave3d"].config_text(0), "simulate-wave")
    base = runner._base_config(cfg, spec)
    return base, [wave_integrator.member(base, runner._bump(cfg, base.grid))]


def _stepper(make_member):
    """run(spec): STEPS steps of the member make_member(spec).

    Each spec gets its member at its first call, so a measured call is STEPS
    steps, each state dropped as the loop of a run drops it."""
    members = {}

    def run(spec):
        if spec not in members:
            members[spec] = make_member(spec)
        stepper, state = members.pop(spec)
        for _ in range(STEPS):
            state = stepper(state)
        members[spec] = stepper, state
    return run


class _Recorded(Exception):
    pass


class _RecordOnly:
    """A stepper that ends the run at its first step, so that integrate makes
    one record: every other attribute is the wrapped stepper's."""

    def __init__(self, stepper):
        self.stepper = stepper

    def __getattr__(self, name):
        return getattr(self.stepper, name)

    def __call__(self, state):
        raise _Recorded


def _record(make_run, stepping, make_observer):
    """run(spec): the initial record of make_run(spec)'s (schedule, members),
    observed by make_observer(spec, grid), through stepping.integrate.

    Each spec gets its members at its first call, and each call observes new
    Records of their states, so a measured call is one record."""
    runs = {}

    def run(spec):
        if spec not in runs:
            base, members = make_run(spec)
            runs[spec] = base, [(_RecordOnly(stepper), state) for stepper, state in members]
        base, members = runs[spec]
        try:
            stepping.integrate(members, base, [make_observer(spec, base.grid)])
        except _Recorded:
            pass
    return run


def _nls_run(config, runner, nls_integrator, field_core, spec, ladder):
    """The schedule, reference and ladder members of the nls-ladder workload's
    config with spec, built as gronwall_ladder builds them."""
    cfg = config.parse_config(WORKLOADS["nls-ladder"].config_text(0), "weak-strong")
    base = runner._base_config(cfg, spec)
    u0 = runner._bump(cfg, base.grid)
    pert = field_core.bump_field(base.grid, 1.0, 0.8 * cfg.radius)
    return base, [nls_integrator.member(base, u0)] + [
        nls_integrator.member(base, u0 + eps * pert) for eps in ladder]


def _cli_run(cli, kind, text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "bench.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([kind, "--config", cfg, "--output", tmp])
    if code != 0:
        raise RuntimeError(f"{kind} exited {code} for {text!r}")


def worker(src: str) -> dict:
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np
    from supercrit import (assumption_lab, cli, config, field_core, nls_integrator,
                           nonlinearity, runner, stepping, wave_integrator, weak_strong)

    rows = {}
    u = np.random.default_rng(0).uniform(-2.0, 2.0, LAYER_POINTS)
    base = nonlinearity.from_selection(SPEC)
    nls = nonlinearity.from_selection(NLS_SPEC)
    rows["layer.nonlinearity.separate"] = _measure(
        lambda s: (s.F(u), s.f(u), s.fprime(u)), lambda: base)
    rows["layer.nonlinearity.jet"] = _measure(lambda s: s.jet(u, 2), lambda: base)
    with np.errstate(over="ignore", invalid="ignore"):
        rows["layer.sweep.H11+H22"] = _measure(
            lambda s: assumption_lab._wave_constants(s, **SWEEP), lambda: base)
    rows["layer.sweep.ClaimA"] = _measure(
        lambda s: assumption_lab.find_convexity_shift(s, **SHIFT_SWEEP), lambda: nls)
    rows["layer.sweep.Gronw6+H222"] = _measure(
        lambda s: assumption_lab._nls_constants(s, **NLS_SWEEP), lambda: nls)
    wave = nonlinearity.from_selection(WAVE_SPEC)

    def wave_run(spec):
        return _wave_run(config, runner, wave_integrator, spec)

    rows["layer.step.wave"] = _measure(_stepper(lambda spec: wave_run(spec)[1][0]),
                                       lambda: wave, per=STEPS)
    rows["layer.record.wave"] = _measure(
        _record(wave_run, stepping, lambda spec, grid: stepping.DiagnosticTrace()),
        lambda: wave)
    ladder_spec = nonlinearity.from_selection(
        config.parse_config(WORKLOADS["nls-ladder"].config_text(0), "weak-strong").nonlinearity)

    def nls_run(spec, ladder=config.DEFAULT_LADDER):
        return _nls_run(config, runner, nls_integrator, field_core, spec, ladder)

    rows["layer.step.nls"] = _measure(_stepper(lambda spec: nls_run(spec, ())[1][0]),
                                      lambda: ladder_spec, per=STEPS)
    rows["layer.record.nls"] = _measure(
        _record(nls_run, stepping, weak_strong.NlsGronwall), lambda: ladder_spec)

    # the CLI builds its spec from the config; route that through the given spec
    real = config.from_selection

    def e2e(kind, text):
        def run(spec):
            config.from_selection = lambda _: spec
            try:
                _cli_run(cli, kind, text)
            finally:
                config.from_selection = real
        return run

    for name, (kind, text) in E2E.items():
        spec = nonlinearity.from_selection(config.parse_config(text, kind).nonlinearity)
        rows[name] = _measure(e2e(kind, text), lambda: spec, faults=True)
    return rows


def _median_rows(runs: list) -> dict:
    """Each row's fields as their median over the workers' runs, plus the rounds' wall_s."""
    out = {}
    for name, row in runs[0].items():
        out[name] = {key: statistics.median(run[name][key] for run in runs) for key in row}
        out[name]["wall_s_rounds"] = [run[name]["wall_s"] for run in runs]
    return out


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

    trees = {"before": args.before, "after": args.src} if args.before else {"after": args.src}
    rounds = {col: [] for col in trees}
    for k in range(ROUNDS):
        for col in (list(trees) if k % 2 == 0 else list(trees)[::-1]):
            rounds[col].append(measure(trees[col]))
    columns = {col: _median_rows(runs) for col, runs in rounds.items()}
    import numpy
    result = {
        "script": "tools/bench_lab.py",
        "machine": {"python": platform.python_version(), "numpy": numpy.__version__,
                    "platform": platform.platform(), "cpus": os.cpu_count()},
        "repeats": REPEATS,
        "rounds": ROUNDS,
        "steps_per_timing": STEPS,
        "spec": SPEC,
        "layer_points": LAYER_POINTS,
        "sweep": SWEEP,
        "nls_spec": NLS_SPEC,
        "shift_sweep": SHIFT_SWEEP,
        "nls_sweep": NLS_SWEEP,
        "wave_spec": WAVE_SPEC,
        "e2e_configs": {name: {"command": kind, "config": text}
                        for name, (kind, text) in E2E.items()},
        "not_a_claim": {name: ["wall_s", "wall_s_rounds"] for name in E2E},
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
