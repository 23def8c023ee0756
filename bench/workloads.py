"""The three benchmark workloads and the checks each run's output must pass.

Each workload is one config file run through the public CLI. The benchmark
seed becomes the config's ``seed`` key; nothing else depends on it. Why each
workload exists is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

# check-assumptions values for oscillating_sin:q=2 at the config's default
# seed (0), measured when the benchmark was defined. Both sups are attained on
# the deterministic grid part of the sample plan.
ASSUME_DEFAULT_SEED = 0
ASSUME_RECORDED = {"H11": 72.3453877460765, "H22": 695.2322716815003}
ASSUME_TIGHT_RTOL = 1e-9
# Other seeds draw other random samples; the estimator itself accepts a sup
# that moves by up to 5% under sample doubling, so hold them to that.
ASSUME_SEED_RTOL = 0.05

# Exact transform counts per experiment when the benchmark was defined. A
# program change may move them on purpose, so a difference is reported, not
# failed; within one invocation counts must repeat exactly.
RECORDED_FFT_CALLS = {"wave3d": 221, "nls-ladder": 2113, "assume": 0}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # CLI subcommand
    config: str         # config text without the seed line
    jobs: int
    check: Callable[[str, int], list]   # (experiment dir, seed) -> problems

    def config_text(self, seed: int) -> str:
        return f"{self.config}seed = {seed}\n"


def _read_csv(path: str) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(r[key]) for r in rows] for key in rows[0]}


def _check_wave3d(exp_dir: str, seed: int) -> list:
    trace = _read_csv(f"{exp_dir}/trace.csv")
    energy = trace["E_total"]
    drift = max(abs(e - energy[0]) for e in energy) / abs(energy[0])
    leak = max(trace["leakage"])
    problems = []
    if not drift <= 1e-6:
        problems.append(f"relative energy drift {drift:.3e} > 1e-6")
    if not leak < 1e-6:
        problems.append(f"leakage {leak:.3e} >= 1e-6")
    return problems


def _check_ladder(exp_dir: str, seed: int) -> list:
    """The ladder checks of acceptance criterion 6, plus the NLS defect sign."""
    with open(f"{exp_dir}/summary.json") as fh:
        members = json.load(fh)["members"]
    g0 = [m["G0_over_eps_sq"] for m in members]
    amp = [m["sup_G_over_G0"] for m in members]
    problems = []
    if not max(g0) / min(g0) <= 2.0:
        problems.append(f"G0/eps^2 varies by {max(g0) / min(g0):.3f}x across the ladder")
    spread = (max(amp) - min(amp)) / min(amp)
    if not spread < 0.5:
        problems.append(f"sup G / G0 spread {spread:.3f} >= 0.5")
    for m in members:
        if not m["remainder_min"] >= 0.0:
            problems.append(f"remainder_min {m['remainder_min']:.3e} < 0 at eps={m['epsilon']:g}")
    return problems


def _check_assume(exp_dir: str, seed: int) -> list:
    with open(f"{exp_dir}/report.json") as fh:
        reports = json.load(fh)
    if not isinstance(reports, list):
        return [f"no report list: {reports}"]
    problems = [f"{r['inequality']} does not hold" for r in reports if r["holds"] is not True]
    values = {r["inequality"]: r["constant"]["value"] for r in reports if r["constant"]}
    rtol = ASSUME_TIGHT_RTOL if seed == ASSUME_DEFAULT_SEED else ASSUME_SEED_RTOL
    for key, recorded in ASSUME_RECORDED.items():
        value = values.get(key)
        if value is None or not abs(value - recorded) <= rtol * recorded:
            problems.append(f"{key} = {value!r}, recorded {recorded!r} (rtol {rtol:g})")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wave3d",
            "simulate-wave",
            "nonlinearity = defocusing_exp:m=1\nd = 3\nN = 64\nL = 10\nradius = 1.5\nT = 1\n",
            1,
            _check_wave3d,
        ),
        Workload(
            "nls-ladder",
            "weak-strong",
            "nonlinearity = nls_coercive_exp\nd = 2\nN = 128\nL = 40\nradius = 5\n"
            "T = 0.5\ndt = 0.005\n",
            1,
            _check_ladder,
        ),
        Workload(
            "assume",
            "check-assumptions",
            "nonlinearity = oscillating_sin:q=2\n",
            1,
            _check_assume,
        ),
    )
}


def payload_digest(exp_dir: str) -> str:
    """sha256 over every payload file; the manifest holds timestamps and is left out."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(exp_dir)):
        if name == "manifest.json":
            continue
        h.update(name.encode() + b"\0")
        with open(f"{exp_dir}/{name}", "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
