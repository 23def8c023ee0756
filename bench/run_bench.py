"""Benchmark of the supercrit CLI: three fixed workloads, end to end or traced.

Run from the repository root:

    python3 bench/run_bench.py --workload wave3d --seed 0 --seconds 30 --trace 0
    python3 bench/run_bench.py --workload all

Every experiment goes through ``supercrit.cli.main`` in this process, one at a
time (a closed loop with one client). Each run's output is checked; see
``workloads.py``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``   median over fresh interpreters of importing ``supercrit.cli``
                and parsing the workload config;
* ``run_s``     median wall seconds of one CLI experiment, config file to
                published directory;
* ``cpu_s``     median process CPU seconds of the same calls (all threads);
* ``peak_mib``  tracemalloc peak of one experiment, in its own untimed pass;
* ``ok_frac``   runs that passed every check over runs attempted.

``--trace 1`` alternates untraced and traced experiments and reports the
per-layer metrics of ``tracer.layer_metrics`` plus ``tracing.overhead_s``,
traced minus untraced median ``run_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import tracer
from workloads import RECORDED_FFT_CALLS, WORKLOADS, payload_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 15
MIN_SAMPLES = 3
MIN_TRACED = 2
ENV_PREFIX = "SUPERCRIT_"
TIME_UNITS = ("s", "ms")

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_mib": "MiB", "ok_frac": "fraction",
}
PER_LAYER_UNITS = {
    "fft.calls": "count", "fft.self_s": "s",
    "fft.mbytes_computed": "MB", "fft.gflop_computed": "GFLOP",
    "wave_integrator.steps": "count", "wave_integrator.records": "count",
    "wave_integrator.ffts_per_step": "1/step", "wave_integrator.step_ms": "ms",
    "wave_integrator.snapshot_mib": "MiB",
    "nls_integrator.steps": "count", "nls_integrator.ffts_per_step": "1/step",
    "nls_integrator.linear_flow_s": "s", "nls_integrator.nonlinear_flow_s": "s",
    "nls_integrator.snapshot_mib": "MiB",
    "field_core.calls": "count", "field_core.self_s": "s", "field_core.fft_calls": "count",
    "nonlinearity.calls": "count", "nonlinearity.mpoints": "Mpoint",
    "nonlinearity.self_s": "s",
    "assumption_lab.estimates": "count", "assumption_lab.self_s": "s",
    "assumption_lab.mpoints": "Mpoint", "assumption_lab.mpoints_per_estimate": "Mpoint",
    "weak_strong.calls": "count", "weak_strong.self_s": "s",
    "weak_strong.fft_calls": "count", "weak_strong.mpoints": "Mpoint",
    "runner.body_s": "s", "runner.publish_s": "s",
    "runner.payload_kib": "KiB", "runner.trajectories": "count",
    "cli.parse_s": "s",
    "tracing.overhead_s": "s",
}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import supercrit.cli
from supercrit.config import parse_config
with open(sys.argv[1]) as fh:
    parse_config(fh.read(), kind=sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# preconditions and environment record
# ---------------------------------------------------------------------------

def _load_program():
    """Import supercrit from this checkout's src/, never from site-packages."""
    if not (SRC / "supercrit" / "cli.py").is_file():
        raise BenchError(f"program source not found: expected {SRC / 'supercrit'}")
    sys.path.insert(0, str(SRC))
    import supercrit.cli

    if SRC.resolve() not in Path(supercrit.cli.__file__).resolve().parents:
        raise BenchError(f"imported supercrit from {supercrit.cli.__file__}, not {SRC}")
    return supercrit.cli


def _check_declared():
    """The metrics BENCHMARK.json declares must be the ones this script reports."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    spec = json.loads(path.read_text())
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            raise BenchError(f"BENCHMARK.json {key} does not match the metrics reported")
    unknown = {w["name"] for w in spec["workloads"]} ^ set(WORKLOADS)
    if unknown:
        raise BenchError(f"BENCHMARK.json workloads differ from workloads.py: {sorted(unknown)}")


def _blas_threads() -> str:
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _caches() -> dict:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (Path(index, f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level}{kind[0].lower()}"] = size
    return out or {"unknown": ""}


def environment() -> dict:
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    pocketfft = importlib.util.find_spec("numpy.fft._pocketfft_umath") is not None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "fft_backend": "numpy.fft (pocketfft)" if pocketfft else "numpy.fft",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

class Session:
    """Runs one workload's experiments through the CLI and checks each one."""

    def __init__(self, cli, workload, seed: int):
        self.cli, self.workload, self.seed = cli, workload, seed
        self.out_dir = OUT / "runs"
        self.config = OUT / f"{workload.name}.cfg"
        self.config.write_text(workload.config_text(seed))
        self.attempted = self.failed = 0
        self.digest = None

    def run(self):
        """One CLI experiment; returns (wall seconds, CPU seconds)."""
        wl = self.workload
        argv = [wl.command, "--config", str(self.config), "--output", str(self.out_dir),
                "--jobs", str(wl.jobs)]
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        rc, error = None, None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.cli.main(argv)
        except (Exception, SystemExit):
            error = traceback.format_exc(limit=-3)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.record(rc, error, stdout.getvalue(), stderr.getvalue())
        return wall, cpu

    def record(self, rc, error, stdout: str, stderr: str):
        self.attempted += 1
        problems = self.check(rc, error, stdout, stderr)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed ({self.workload.name}, run {self.attempted}): {p}", file=sys.stderr)

    def check(self, rc, error, stdout: str, stderr: str) -> list:
        if error is not None:
            return [f"CLI raised {error}"]
        words = stdout.split()
        if rc != 0 or len(words) != 2 or words[1] != "ok":
            return [f"exit code {rc}, output {stdout.strip()!r}, stderr {stderr.strip()[-300:]!r}"]
        exp_dir = self.out_dir / words[0]
        digest = payload_digest(str(exp_dir))
        if self.digest is None:
            self.digest = digest
        problems = [] if digest == self.digest else ["payload differs from the first run's"]
        return problems + self.workload.check(str(exp_dir), self.seed)

    def fail(self, problem: str):
        """A failure found across runs rather than in one of them."""
        self.failed += 1
        print(f"check failed ({self.workload.name}): {problem}", file=sys.stderr)


def setup_seconds(session: Session) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(session.config), session.workload.command],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip()))
    return samples


def peak_pass(session: Session) -> float:
    """tracemalloc peak of one experiment; tracemalloc slows it, so it is not timed."""
    gc.collect()
    tracemalloc.start()
    try:
        session.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2.0 ** 20


def end_to_end(session: Session, seconds: float) -> dict:
    setup = setup_seconds(session)
    peak = peak_pass(session)
    walls, cpus = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < MIN_SAMPLES:
        wall, cpu = session.run()
        walls.append(wall)
        cpus.append(cpu)
    n = len(walls)
    ok = (session.attempted - session.failed) / session.attempted
    return {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} interpreters"),
        "run_s": (statistics.median(walls), f"median of {n} runs"),
        "cpu_s": (statistics.median(cpus), f"median of {n} runs"),
        "peak_mib": (peak, "one untimed tracemalloc pass"),
        "ok_frac": (ok, f"fail_frac {1.0 - ok:g} = {session.failed}/{session.attempted}"),
    }


def per_layer(session: Session, seconds: float) -> dict:
    t = tracer.Tracer()
    untraced, traced, layers = [], [], []
    spans = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_TRACED:
        untraced.append(session.run()[0])
        failed = session.failed
        t.install()
        try:
            traced.append(session.run()[0])
        finally:
            t.uninstall()
        spans = t.take()
        if session.failed == failed:     # a failed run may lack the spans measured
            layers.append(tracer.layer_metrics(spans))
    if not layers:
        return {name: (0.0, "no traced run passed its checks") for name in PER_LAYER_UNITS}

    counts = [name for name in layers[0] if PER_LAYER_UNITS[name] not in TIME_UNITS]
    for i, run in enumerate(layers[1:], start=2):
        moved = [f"{k} {layers[0][k]!r} -> {run[k]!r}" for k in counts if run[k] != layers[0][k]]
        if moved:
            session.fail(f"traced run {i} counts differ from run 1: {'; '.join(moved)}")
    recorded = RECORDED_FFT_CALLS[session.workload.name]
    if layers[0]["fft.calls"] != recorded:
        print(f"note: fft.calls {layers[0]['fft.calls']} differs from the {recorded} "
              "recorded when the benchmark was defined", file=sys.stderr)

    out = {}
    for name in PER_LAYER_UNITS:
        if name == "tracing.overhead_s":
            continue
        values = [run[name] for run in layers]
        if PER_LAYER_UNITS[name] in TIME_UNITS:
            out[name] = (float(statistics.median(values)), f"median of {len(values)} traced runs")
        else:
            out[name] = (values[0], "exact count")
    overhead = statistics.median(traced) - statistics.median(untraced)
    out["tracing.overhead_s"] = (
        overhead, f"traced {statistics.median(traced):.4f} s - untraced "
                  f"{statistics.median(untraced):.4f} s run_s ({len(traced)}/{len(untraced)} runs)")
    trace_file = OUT / f"trace-{session.workload.name}.json"
    trace_file.write_text(json.dumps(tracer.span_records(spans)))
    return out


def bench(cli, name: str, seed: int, seconds: float, trace: bool) -> tuple:
    session = Session(cli, WORKLOADS[name], seed)
    metrics = per_layer(session, seconds) if trace else end_to_end(session, seconds)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for metric, (value, note) in metrics.items():
        print(f"{name:12s} {metric:38s} {value:14.6g} {units[metric]:8s} {note}")
    result = {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()}
    return session, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        overrides = sorted(k for k in os.environ if k.startswith(ENV_PREFIX))
        if overrides:
            raise BenchError(
                f"refusing to run with {', '.join(overrides)} set: the CLI turns every "
                f"{ENV_PREFIX}* variable into a config key, so the workloads would not be "
                "the ones defined. Unset them and run again."
            )
        if not 0 <= args.seed < 2 ** 63:
            raise BenchError(f"--seed {args.seed} must lie in [0, 2**63)")
        cli = _load_program()
        _check_declared()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            session, result = bench(cli, name, args.seed, args.seconds, bool(args.trace))
            attempted += session.attempted
            failed += session.failed
            if len(names) == 1:
                metrics = result
            else:
                metrics.update({f"{name}.{k}": v for k, v in result.items()})
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / "runs", ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
