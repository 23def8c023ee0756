"""Experiment orchestration: dispatch, persistence, manifests, export.

Every experiment writes into output_dir/<experiment_id>/ atomically (temp
directory, then rename). Payload files are byte-reproducible for identical
configs; wall-clock timestamps live only in the manifest.
"""

from __future__ import annotations

import datetime
import json
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .assumption_lab import UnboundedEstimateError, classify, verify_nls_cancellation
from .config import DEFAULT_LADDER, KINDS, ExperimentConfig, serialize_config
from .field_core import AmplitudeError, bump_field, l2_norm_sq
from .nonlinearity import (
    NlsNonlinearitySpec,
    beta_cutoff,
    builtin_catalog,
    find_truncation_abscissae,
    truncate,
)
from .stepping import BlowUpError, integrate
from .wave_integrator import (
    WaveRunConfig,
    WeakIdentity,
    max_leakage,
    member as wave_member,
    run as wave_run,
)
from .nls_integrator import NlsRunConfig, run as nls_run
from .weak_strong import (
    appendix_construction,
    gronwall_ladder,
    ladder_problems,
    uniform_integrability_probe,
)

__all__ = ["RunManifest", "run_experiment", "export_plot_data"]

LEAKAGE_LIMIT = 1e-6

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

    def as_dict(self) -> dict:
        return self.__dict__.copy()


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# experiment bodies: each returns (outcome, {filename: bytes})
# ---------------------------------------------------------------------------

def _base_config(cfg: ExperimentConfig, spec):
    """The wave or NLS run config of spec's equation for cfg's bump data."""
    grid = cfg.grid()
    u0 = bump_field(grid, cfg.amplitude, cfg.radius)
    common = dict(grid=grid, spec=spec, dt=cfg.effective_dt(), T=cfg.T,
                  diagnostics_stride=cfg.stride)
    if isinstance(spec, NlsNonlinearitySpec):
        return NlsRunConfig(u0=u0.astype(complex), **common)
    return WaveRunConfig(u0=u0, u1=np.zeros_like(u0), **common)


def _do_check_assumptions(cfg: ExperimentConfig):
    try:
        reports = classify(cfg.spec(), R=cfg.R, d=max(cfg.d, 3), seed=cfg.seed)
    except UnboundedEstimateError as exc:
        return OUTCOME_VIOLATION, {"report.json": _json_bytes({"error": str(exc)})}
    payload = [r.as_dict() for r in reports]
    outcome = OUTCOME_OK if all(r.holds for r in reports) else OUTCOME_VIOLATION
    return outcome, {"report.json": _json_bytes(payload)}


def _do_simulate(cfg: ExperimentConfig):
    base = _base_config(cfg, cfg.spec())
    _, trace = (nls_run if isinstance(base, NlsRunConfig) else wave_run)(base)
    outcome = OUTCOME_LEAKAGE if max_leakage(trace) > LEAKAGE_LIMIT else OUTCOME_OK
    return outcome, {"trace.csv": trace.to_csv().encode()}


def _do_weak_strong(cfg: ExperimentConfig):
    """Reference vs perturbed-data ladder; one Gronwall trace per epsilon."""
    ladder = cfg.ladder or DEFAULT_LADDER
    grid = cfg.grid()
    pert = bump_field(grid, 1.0, 0.8 * cfg.radius)
    base = _base_config(cfg, cfg.spec())
    traces = gronwall_ladder(base, pert, ladder, seed=cfg.seed)

    pert_g0 = l2_norm_sq(pert, grid)
    files = {}
    summary = {"ladder": list(ladder), "members": []}
    outcome = OUTCOME_VIOLATION if ladder_problems(ladder, traces) else OUTCOME_OK
    for i, (eps, tr) in enumerate(zip(ladder, traces)):
        files[f"{i}.json"] = _json_bytes(tr.as_dict())
        files[f"{i}.csv"] = tr.to_csv().encode()
        member = {
            "epsilon": eps,
            "G0": float(tr.G[0]),
            "G0_over_eps_sq": float(tr.G[0] / eps ** 2),
            "sup_G_over_G0": float(np.max(tr.G) / max(tr.G[0], 1e-300)),
            "fitted_C": tr.fitted_C,
        }
        if tr.remainder_min is not None:
            member["remainder_min"] = tr.remainder_min
            if tr.remainder_min < -1e-9 * grid.N ** grid.d * grid.cell_volume:
                outcome = OUTCOME_VIOLATION
        summary["members"].append(member)
    summary["pert_l2_sq"] = pert_g0
    files["summary.json"] = _json_bytes(summary)
    return outcome, files


def _do_appendix_construct(cfg: ExperimentConfig):
    base = _base_config(cfg, cfg.spec())
    report, samples = appendix_construction(base, tuple(cfg.ladder))
    slope, target, vacuous = uniform_integrability_probe(samples, seed=cfg.seed)
    payload = report.as_dict()
    payload["uniform_integrability"] = {
        "slope": slope,
        "target": target,
        "vacuous": vacuous,
    }
    ok = (
        report.monotone_l2
        and report.monotone_force
        and all(d <= 1e-6 for d in report.energy_drift)
        and (vacuous or slope >= target - 0.1)
    )
    return (OUTCOME_OK if ok else OUTCOME_VIOLATION), {
        "report.json": _json_bytes(payload)
    }


def _do_identity_check(cfg: ExperimentConfig):
    """The algebraic identity suite: cancellation, cutoff knots, truncation."""
    results = {}
    ok = True

    # (a) complex cancellation identity on every NLS catalog entry
    cancel = {}
    for spec in builtin_catalog():
        if isinstance(spec, NlsNonlinearitySpec):
            rep = verify_nls_cancellation(spec, samples=100_000, seed=cfg.seed)
            cancel[spec.name] = rep.holds
            ok = ok and rep.holds
    results["cancellation"] = cancel

    # (b) C1 continuity of the saturation cutoff at its knots
    eps = 1e-7
    knots = {}
    for k in (0.5, 1.0, 2.0):
        for s0 in (k, 2.0 * k):
            left = (beta_cutoff(s0, k) - beta_cutoff(s0 - eps, k)) / eps
            right = (beta_cutoff(s0 + eps, k) - beta_cutoff(s0, k)) / eps
            knots[f"k={k:g},s={s0:g}"] = abs(left - right)
            ok = ok and abs(left - right) < 1e-6
    results["beta_knot_derivative_jumps"] = knots

    # (c) truncation agrees exactly on the interior window
    spec = cfg.spec()
    if isinstance(spec, NlsNonlinearitySpec):
        spec = builtin_catalog()[0]
    level = find_truncation_abscissae(spec, 2.0)
    trunc = truncate(spec, level)
    s = np.linspace(level.r_minus, level.r_plus, 1001)
    interior = float(np.max(np.abs(trunc.f(s) - spec.f(s))))
    results["truncation_interior_max_diff"] = interior
    ok = ok and interior == 0.0

    # (d) multiplier identity on a short run
    base = _base_config(cfg, spec)
    _, (res,) = integrate([wave_member(base)], base, [WeakIdentity(spec, base.grid)])
    results["weak_identity_residual"] = res
    ok = ok and res < 1e-4

    return (OUTCOME_OK if ok else OUTCOME_VIOLATION), {
        "identities.json": _json_bytes(results)
    }


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
    """Run, then atomically publish output_dir/<experiment_id>/.

    A blow-up or potential overflow in any kind publishes abort.json with
    the outcome aborted_blowup.
    """
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
            fh.write(_json_bytes(manifest.as_dict()))
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
