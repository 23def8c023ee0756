"""Experiment orchestration: dispatch, persistence, manifests, export.

Every experiment writes into output_dir/<experiment_id>/ atomically (temp
directory, then rename). Payload files are byte-reproducible for identical
configs; wall-clock timestamps and the run's telemetry (the Python and numpy
versions) live only in the manifest.

Every integrating kind (simulate-wave, simulate-nls, weak-strong,
appendix-construct and identity-check) is judged by one boundary rule,
``stepping.Boundary.reached``, on the run's member 0: a run that reached the
periodic box's boundary ends as leakage_flag (exit 3), whatever its other
verdicts. Its payload is still written: the trace's ``leakage`` and ``tail``
columns, or a ``boundary`` entry holding the largest shares.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import shutil
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .assumption_lab import UnboundedEstimateError, classify
from .config import (DEFAULT_LADDER, KINDS, ConfigError, ExperimentConfig, serialize_config,
                     validate)
from .field_core import AmplitudeError, bump_field, l2_norm_sq
from .nonlinearity import NlsNonlinearitySpec
from .stepping import BlowUpError, RunSchedule, integrate, run_single
from .wave_integrator import WeakIdentity, member as wave_member
from .nls_integrator import member as nls_member
from .weak_strong import (
    appendix_construction,
    gronwall_ladder,
    ladder_problems,
    ladder_ratios,
    uniform_integrability_probe,
)

__all__ = ["RunManifest", "run_experiment", "export_plot_data"]

OUTCOME_OK = "ok"
OUTCOME_BLOWUP = "aborted_blowup"
OUTCOME_LEAKAGE = "leakage_flag"
OUTCOME_VIOLATION = "invariant_violation"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4

EXIT_FOR_OUTCOME = {
    OUTCOME_OK: EXIT_OK,
    OUTCOME_BLOWUP: EXIT_NUMERICAL,
    OUTCOME_LEAKAGE: EXIT_NUMERICAL,
    OUTCOME_VIOLATION: EXIT_INVARIANT,
}


@dataclass
class RunManifest:
    experiment_id: str
    config: str
    version: str
    started_at: str
    finished_at: str
    outcome: str
    telemetry: dict


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _telemetry() -> dict:
    """What the manifest records of the run beside its outcome: the Python and
    numpy versions."""
    return {"python": platform.python_version(), "numpy": np.__version__}


# ---------------------------------------------------------------------------
# experiment bodies: each returns (outcome, {filename: bytes})
# ---------------------------------------------------------------------------

def _base_config(cfg: ExperimentConfig, spec) -> RunSchedule:
    """cfg's run schedule with the nonlinearity spec; it holds no initial data."""
    return RunSchedule(cfg.grid(), spec, cfg.effective_dt(), cfg.T, cfg.stride)


def _bump(cfg: ExperimentConfig, grid) -> np.ndarray:
    """cfg's initial u: the bump of its amplitude and radius (wave data start at rest)."""
    return bump_field(grid, cfg.amplitude, cfg.radius)


def _judged(boundary, outcome: str) -> str:
    """outcome, or leakage_flag if the run reached the box boundary."""
    return OUTCOME_LEAKAGE if boundary.reached else outcome


def _do_check_assumptions(cfg: ExperimentConfig):
    try:
        reports = classify(cfg.spec(), R=cfg.R, seed=cfg.seed)
    except UnboundedEstimateError as exc:
        return OUTCOME_VIOLATION, {"report.json": _json_bytes({"error": str(exc)})}
    payload = [asdict(r) for r in reports]
    outcome = OUTCOME_OK if all(r.holds for r in reports) else OUTCOME_VIOLATION
    return outcome, {"report.json": _json_bytes(payload)}


def _do_simulate(cfg: ExperimentConfig):
    base = _base_config(cfg, cfg.spec())
    member = nls_member if isinstance(base.spec, NlsNonlinearitySpec) else wave_member
    # the bump is built in the member call, so it is gone once the member has started
    _, trace, boundary = run_single(lambda run: member(run, _bump(cfg, run.grid)), base)
    return _judged(boundary, OUTCOME_OK), {"trace.csv": trace.to_csv().encode()}


def _do_weak_strong(cfg: ExperimentConfig):
    """Reference vs perturbed-data ladder; one Gronwall trace per epsilon."""
    ladder = cfg.ladder or DEFAULT_LADDER
    base = _base_config(cfg, cfg.spec())
    summary = {"ladder": list(ladder), "members": []}

    def data(grid):
        # built in the ladder's call, so the bump and the perturbation go once
        # the members are built: the perturbation's norm is taken here
        pert = bump_field(grid, 1.0, 0.8 * cfg.radius)
        summary["pert_l2_sq"] = l2_norm_sq(pert, grid)
        return _bump(cfg, grid), pert

    traces, boundary = gronwall_ladder(base, data, ladder, seed=cfg.seed)

    grid = base.grid
    volume = grid.N ** grid.d * grid.cell_volume
    outcome = OUTCOME_VIOLATION if ladder_problems(ladder, traces, volume) else OUTCOME_OK
    files = {}
    summary["boundary"] = asdict(boundary)
    g0, amp = ladder_ratios(ladder, traces)
    for i, (eps, tr) in enumerate(zip(ladder, traces)):
        files[f"{i}.json"] = _json_bytes(tr.as_dict())
        files[f"{i}.csv"] = tr.to_csv().encode()
        member = {
            "epsilon": eps,
            "G0": float(tr.G[0]),
            "G0_over_eps_sq": float(g0[i]),
            "sup_G_over_G0": float(amp[i]),
            "fitted_C": tr.fitted_C,
        }
        if tr.remainder_min is not None:
            member["remainder_min"] = tr.remainder_min
        summary["members"].append(member)
    files["summary.json"] = _json_bytes(summary)
    return _judged(boundary, outcome), files


def _do_appendix_construct(cfg: ExperimentConfig):
    base = _base_config(cfg, cfg.spec())
    report, samples, boundary = appendix_construction(base, _bump(cfg, base.grid),
                                                      tuple(cfg.ladder))
    probe = uniform_integrability_probe(samples)
    payload = asdict(report)
    payload["uniform_integrability"] = asdict(probe)
    payload["boundary"] = asdict(boundary)
    holds = report.monotone_l2 and report.monotone_force and report.bounded_drift and probe.holds
    outcome = OUTCOME_OK if holds else OUTCOME_VIOLATION
    return _judged(boundary, outcome), {"report.json": _json_bytes(payload)}


def _do_identity_check(cfg: ExperimentConfig):
    """The weak multiplier identity on the configured run."""
    base = _base_config(cfg, cfg.spec())
    _, (rep,), boundary = integrate([wave_member(base, _bump(cfg, base.grid))], base,
                                    [WeakIdentity(base.grid)])
    results = {
        "weak_identity_residual": rep.residual,
        "weak_identity_scale": rep.scale,
        "weak_identity_quadrature_error": rep.quadrature,
        "boundary": asdict(boundary),
    }
    outcome = OUTCOME_OK if rep.holds else OUTCOME_VIOLATION
    return _judged(boundary, outcome), {"identities.json": _json_bytes(results)}


# bodies in KINDS order; both simulate kinds share one body
_DISPATCH = dict(zip(KINDS, (
    _do_check_assumptions,
    _do_simulate,
    _do_simulate,
    _do_weak_strong,
    _do_appendix_construct,
    _do_identity_check,
), strict=True))


def run_experiment(cfg: ExperimentConfig, output_dir: str) -> RunManifest:
    """Validate cfg, run, then atomically publish output_dir/<experiment_id>/.

    An invalid cfg raises ConfigError with config.validate's messages before
    any work. A blow-up or potential overflow in any kind publishes
    abort.json with the outcome aborted_blowup.
    """
    if errors := validate(cfg):
        raise ConfigError(errors)
    started = _now()
    try:
        outcome, files = _DISPATCH[cfg.kind](cfg)
    except (BlowUpError, AmplitudeError) as exc:
        t_last = getattr(exc, "t_last", None)
        outcome = OUTCOME_BLOWUP
        files = {"abort.json": _json_bytes({"error": str(exc), "t_last": t_last})}
    manifest = RunManifest(
        experiment_id=cfg.experiment_id(),
        config=serialize_config(cfg),
        version=__version__,
        started_at=started,
        finished_at=_now(),
        outcome=outcome,
        telemetry=_telemetry(),
    )

    target = os.path.join(output_dir, manifest.experiment_id)
    os.makedirs(output_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".tmp-", dir=output_dir)
    aside = tmp + ".old"  # the previous result, kept until the swap is done
    try:
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        with open(os.path.join(tmp, "manifest.json"), "wb") as fh:
            fh.write(_json_bytes(asdict(manifest)))
        if os.path.isdir(target):
            os.replace(target, aside)
        os.replace(tmp, target)
    except BaseException:
        if os.path.isdir(aside):
            os.replace(aside, target)
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(aside, ignore_errors=True)
    return manifest


# ---------------------------------------------------------------------------
# plot-ready export
# ---------------------------------------------------------------------------

def export_plot_data(experiment_id: str, output_dir: str) -> str:
    """Collect every trace in the experiment dir into one tidy long CSV."""
    exp_dir = os.path.join(output_dir, experiment_id)
    if not os.path.isdir(exp_dir):
        raise FileNotFoundError(f"no experiment directory {exp_dir}")
    rows = []
    for name in sorted(os.listdir(exp_dir)):
        if not name.endswith(".csv"):
            continue
        prefix = name[:-4]
        with open(os.path.join(exp_dir, name)) as fh:
            header = fh.readline().strip().split(",")
            for line in fh:
                vals = line.strip().split(",")
                t = vals[header.index("t")]
                for col, val in zip(header, vals):
                    if col == "t":
                        continue
                    series = col if prefix == "trace" else f"{prefix}/{col}"
                    rows.append((series, t, val))
    if not rows:
        raise FileNotFoundError(f"experiment {experiment_id} has no trace files")
    lines = ["series,t,value"] + [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"
