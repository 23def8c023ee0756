"""Acceptance suite: one test per criterion, one printed verdict line each.

Every test prints ``criterion N (label): PASS|FAIL`` before asserting, so a
plain pytest run documents the full scorecard. Parameters are desk scale; the
whole module stays well under five minutes.
"""

import json
import os

import numpy as np
import pytest

from supercrit.assumption_lab import (
    UnboundedEstimateError,
    estimate_remainder_constant,
    estimate_taylor_constant,
    find_convexity_shift,
    verify_growth_bound,
    verify_nls_cancellation,
    verify_nls_coercivity,
    verify_potential_lower_bound,
    verify_sign_condition,
)
from supercrit.cli import main
from supercrit.config import parse_config, serialize_config
from supercrit.field_core import GridSpec, bump_field
from supercrit.nls_integrator import NlsRunConfig, run as nls_run
from supercrit.nonlinearity import (
    AssumptionClass,
    NlsNonlinearitySpec,
    NonlinearitySpec,
    beta_cutoff,
    builtin_catalog,
    find_truncation_abscissae,
    from_selection,
    truncate,
)
from supercrit.stepping import integrate
from supercrit.wave_integrator import (
    WaveRunConfig,
    WeakIdentity,
    member as wave_member,
    run as wave_run,
)
from supercrit.weak_strong import (
    ForceSamples,
    appendix_construction,
    gronwall_ladder,
    ladder_problems,
    uniform_integrability_probe,
)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> bool:
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    return ok


def _wave_config(N, T, amplitude, spec, dt_factor=0.25, radius=1.0,
                 stride=None):
    grid = GridSpec(1, N, 8.0)
    u0 = bump_field(grid, amplitude, radius)
    kw = {} if stride is None else {"diagnostics_stride": stride}
    return WaveRunConfig(grid, spec, dt_factor * grid.h, T, u0,
                         np.zeros_like(u0), **kw)


def _observe(cfg, observer):
    """Run cfg alone and return what the observer made of it."""
    _, (result,) = integrate([wave_member(cfg)], cfg, [observer])
    return result


# ---------------------------------------------------------------------------
# 1. algebraic identities
# ---------------------------------------------------------------------------

def test_criterion_1_algebraic_identities():
    problems = []

    # phase-pairing cancellation, exact on random complex pairs
    for spec in builtin_catalog():
        if isinstance(spec, NlsNonlinearitySpec):
            rep = verify_nls_cancellation(spec, samples=100_000, tol=1e-12)
            if not rep.holds:
                problems.append(f"cancellation fails for {spec.name}")

    # saturation cutoff: matching one-sided derivatives at both knots
    h = 1e-7
    for k in (0.5, 1.0, 2.0):
        for knot in (k, 2.0 * k, -k, -2.0 * k):
            left = (beta_cutoff(knot, k) - beta_cutoff(knot - h, k)) / h
            right = (beta_cutoff(knot + h, k) - beta_cutoff(knot, k)) / h
            if abs(right - left) >= 1e-6:
                problems.append(f"cutoff kink at knot {knot} for k={k}")

    # truncated force and potential agree exactly inside the window
    for name in ("defocusing_exp:m=1", "oscillating_sin:q=1",
                 "oscillating_sin:q=2", "pure_power:p=2"):
        spec = from_selection(name)
        level = find_truncation_abscissae(spec, 2.0)
        cut = truncate(spec, level)
        u = np.linspace(level.r_minus, level.r_plus, 1001)
        if np.max(np.abs(cut.f(u) - spec.f(u))) != 0.0:
            problems.append(f"truncated force differs inside window: {name}")
        if np.max(np.abs(cut.F(u) - spec.F(u))) != 0.0:
            problems.append(f"truncated potential differs inside window: {name}")

    ok = _verdict(1, "algebraic identity suite", not problems,
                  "; ".join(problems))
    assert ok, problems


# ---------------------------------------------------------------------------
# 2. assumption suite over the whole catalog
# ---------------------------------------------------------------------------

def test_criterion_2_assumption_suite():
    # Expected red: the q=1 oscillating entry carries a jump in f' at the
    # origin, so its Taylor constant grows with the sample count instead of
    # stabilizing. The failure is reported, not masked.
    failures = []
    for spec in builtin_catalog():
        if isinstance(spec, NonlinearitySpec):
            if spec.assumption_class == AssumptionClass.DEFOCUSING:
                if not verify_sign_condition(spec).holds:
                    failures.append(f"{spec.name}: sign condition")
            else:
                if not verify_potential_lower_bound(spec, C=1.0).holds:
                    failures.append(f"{spec.name}: potential lower bound")
                level = find_truncation_abscissae(spec, 2.0)
                cut = truncate(spec, level)
                if not verify_potential_lower_bound(cut, C=1.0).holds:
                    failures.append(f"{spec.name}: truncated lower bound")
            if spec.q is not None and spec.C_growth is not None:
                if not verify_growth_bound(spec).holds:
                    failures.append(f"{spec.name}: growth bound")
            c11 = estimate_remainder_constant(spec, R=2.0)
            if not (np.isfinite(c11.value) and c11.stable):
                failures.append(
                    f"{spec.name}: remainder constant unstable "
                    f"(value {c11.value:.4g})"
                )
            if spec.q is not None:
                try:
                    c22 = estimate_taylor_constant(spec, R=2.0, d=3)
                except UnboundedEstimateError as exc:
                    failures.append(f"{spec.name}: {exc}")
                else:
                    if not (np.isfinite(c22.value) and c22.stable):
                        failures.append(
                            f"{spec.name}: Taylor constant unstable "
                            f"(value {c22.value:.4g})"
                        )
        else:
            if not verify_nls_cancellation(spec).holds:
                failures.append(f"{spec.name}: cancellation")
            if spec.coercivity_constant is not None:
                if not verify_nls_coercivity(spec).holds:
                    failures.append(f"{spec.name}: coercivity")
            a1 = find_convexity_shift(spec, R=2.0)
            a2 = find_convexity_shift(spec, R=2.0, n_random=400_000)
            spread = abs(a2.value - a1.value)
            if not (np.isfinite(a1.value) and a1.stable
                    and spread <= 0.05 * max(a1.value, a2.value, 1e-3)):
                failures.append(
                    f"{spec.name}: convexity shift unstable "
                    f"({a1.value:.4g} vs {a2.value:.4g})"
                )

    ok = _verdict(2, "assumption suite", not failures, "; ".join(failures))
    assert ok, failures


# ---------------------------------------------------------------------------
# 3. conservation
# ---------------------------------------------------------------------------

def test_criterion_3_conservation():
    spec = from_selection("defocusing_exp:m=1")
    wave_drifts = []
    for factor in (0.25, 0.125):
        _, trace = wave_run(_wave_config(256, 1.0, 0.5, spec, dt_factor=factor))
        E = np.asarray(trace.column("E_total"))
        wave_drifts.append(float(np.max(np.abs(E - E[0])) / abs(E[0])))
    wave_ratio = wave_drifts[0] / wave_drifts[1]

    grid = GridSpec(1, 512, 80.0)
    nspec = from_selection("nls_coercive_exp")
    u0 = bump_field(grid, 0.5, 3.0).astype(complex)
    mass_drift, ham_drifts = 0.0, []
    for dt in (1e-3, 5e-4):
        _, trace = nls_run(NlsRunConfig(grid, nspec, dt, 1.0, u0))
        mass = np.asarray(trace.column("mass"))
        H = np.asarray(trace.column("H_total"))
        mass_drift = max(mass_drift,
                         float(np.max(np.abs(mass - mass[0])) / mass[0]))
        ham_drifts.append(float(np.max(np.abs(H - H[0])) / abs(H[0])))
    ham_ratio = ham_drifts[0] / ham_drifts[1]

    ok = (
        wave_drifts[0] < 1e-6
        and 3.0 < wave_ratio < 5.0
        and mass_drift < 1e-12
        and ham_drifts[0] < 1e-6
        and 3.0 < ham_ratio < 5.0
    )
    _verdict(3, "conservation", ok,
             f"wave drift {wave_drifts[0]:.2e} ratio {wave_ratio:.2f}; "
             f"mass {mass_drift:.2e}; Ham {ham_drifts[0]:.2e} "
             f"ratio {ham_ratio:.2f}")
    assert ok


# ---------------------------------------------------------------------------
# 4. weak-form identity residual and convergence order
# ---------------------------------------------------------------------------

def test_criterion_4_weak_identity():
    spec = from_selection("defocusing_exp:m=1")
    residuals = []
    for N in (256, 512, 1024):
        cfg = _wave_config(N, 1.0, 0.5, spec, stride=1)
        residuals.append(_observe(cfg, WeakIdentity(spec, cfg.grid)))
    orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    ok = residuals[0] < 1e-4 and all(o >= 2.0 for o in orders)
    _verdict(4, "weak identity", ok,
             f"residual {residuals[0]:.2e}; orders "
             + ", ".join(f"{o:.3f}" for o in orders))
    assert ok


# ---------------------------------------------------------------------------
# 5. energy expansion
# ---------------------------------------------------------------------------

def test_criterion_5_energy_expansion():
    spec = from_selection("defocusing_exp:m=1")
    residuals = []
    for N in (128, 256, 512):
        grid = GridSpec(1, N, 8.0)
        u0 = bump_field(grid, 0.5, 1.0)
        pert = bump_field(grid, 1.0, 0.8)
        cfg = WaveRunConfig(grid, spec, 0.25 * grid.h, 0.5, u0,
                            np.zeros_like(u0))
        # the eps = 0 member is the reference itself
        pert_tr, self_tr = gronwall_ladder(cfg, pert, (1e-2, 0.0))
        residuals.append(pert_tr.expansion_residual)
    orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    self_residual = self_tr.expansion_residual
    ok = all(o >= 2.0 for o in orders) and self_residual == 0.0
    _verdict(5, "energy expansion", ok,
             "orders " + ", ".join(f"{o:.3f}" for o in orders)
             + f"; self residual {self_residual}")
    assert ok


# ---------------------------------------------------------------------------
# 6. discrepancy ladder with fitted certificate
# ---------------------------------------------------------------------------

LADDER = (1e-1, 1e-2, 1e-3)


def _wave_ladder(spec_name, dt_factor):
    grid = GridSpec(1, 256, 8.0)
    spec = from_selection(spec_name)
    u0 = bump_field(grid, 0.5, 1.0)
    pert = bump_field(grid, 1.0, 0.8)
    base = WaveRunConfig(grid, spec, dt_factor * grid.h, 1.0, u0,
                         np.zeros_like(u0))
    return gronwall_ladder(base, pert, LADDER)


def _nls_ladder(dt):
    grid = GridSpec(1, 512, 80.0)
    spec = from_selection("nls_coercive_exp")
    u0 = bump_field(grid, 0.5, 3.0).astype(complex)
    pert = bump_field(grid, 1.0, 2.4)
    base = NlsRunConfig(grid, spec, dt, 1.0, u0)
    return gronwall_ladder(base, pert, LADDER)


def _ladder_checks(name, coarse, fine, problems):
    problems.extend(f"{name}: {p}" for p in ladder_problems(LADDER, coarse))
    for tr1, tr2 in zip(coarse, fine):
        c1, c2 = tr1.fitted_C, tr2.fitted_C
        if abs(c1 - c2) > 0.2 * max(abs(c1), abs(c2), 1e-6):
            problems.append(f"{name}: certificate moved {c1:.4g} -> {c2:.4g}")


def test_criterion_6_gronwall_ladder():
    problems = []
    for name in ("defocusing_exp:m=1", "oscillating_sin:q=1"):
        _ladder_checks(name, _wave_ladder(name, 0.25),
                       _wave_ladder(name, 0.125), problems)
    _ladder_checks("nls_coercive_exp", _nls_ladder(1e-3), _nls_ladder(5e-4),
                   problems)
    ok = _verdict(6, "weak-strong Gronwall ladder", not problems,
                  "; ".join(problems))
    assert ok, problems


# ---------------------------------------------------------------------------
# 7. truncation ladder construction and integrability probe
# ---------------------------------------------------------------------------

def test_criterion_7_truncation_construction():
    grid = GridSpec(1, 256, 8.0)
    spec = from_selection("oscillating_sin:q=1")
    u0 = bump_field(grid, 3.0 * np.e, 1.0)
    base = WaveRunConfig(grid, spec, grid.h / 32.0, 0.5, u0,
                         np.zeros_like(u0))
    report, _ = appendix_construction(base, (1.0, 2.0, 4.0, 8.0))
    worst_drift = max(report.energy_drift)

    probe_grid = GridSpec(3, 32, 8.0)
    p0 = bump_field(probe_grid, 3.0, 1.0)
    probe_cfg = WaveRunConfig(probe_grid, spec,
                              0.25 * probe_grid.h / np.sqrt(3.0), 0.5, p0,
                              np.zeros_like(p0))
    samples = _observe(probe_cfg, ForceSamples(spec, probe_grid))
    slope, target, vacuous = uniform_integrability_probe(samples, trials=200)

    ok = (
        report.monotone_l2
        and report.monotone_force
        and worst_drift <= 1e-6
        and not vacuous
        and slope >= target - 0.1
    )
    _verdict(7, "truncation ladder construction", ok,
             f"drift {worst_drift:.2e}; probe slope {slope:.3f} "
             f"vs target {target:.3f}")
    assert ok


# ---------------------------------------------------------------------------
# 8. determinism and CLI contract
# ---------------------------------------------------------------------------

WAVE_CFG = ("kind = simulate-wave\nnonlinearity = defocusing_exp:m=1\n"
            "N = 128\nL = 8.0\nT = 0.25\namplitude = 0.5\n")


def _payload(exp_dir):
    return {
        name: (exp_dir / name).read_bytes()
        for name in sorted(os.listdir(exp_dir))
        if name != "manifest.json"
    }


def test_criterion_8_determinism_and_cli(tmp_path, capsys):
    problems = []
    cfg_path = tmp_path / "wave.cfg"
    cfg_path.write_text(WAVE_CFG)

    out1, out2 = tmp_path / "a", tmp_path / "b"
    if main(["simulate-wave", "--config", str(cfg_path),
             "--output", str(out1)]) != 0:
        problems.append("clean run did not exit 0")
    if main(["simulate-wave", "--config", str(cfg_path),
             "--output", str(out2)]) != 0:
        problems.append("repeat run did not exit 0")
    dirs1, dirs2 = list(out1.iterdir()), list(out2.iterdir())
    if not (len(dirs1) == len(dirs2) == 1
            and dirs1[0].name == dirs2[0].name
            and _payload(dirs1[0]) == _payload(dirs2[0])):
        problems.append("repeated runs are not byte-identical")

    cfg = parse_config(WAVE_CFG)
    if parse_config(serialize_config(cfg)) != cfg:
        problems.append("config round trip broken")

    bad = tmp_path / "bad.cfg"
    bad.write_text("kind = simulate-wave\nN = 100\n")
    if main(["simulate-wave", "--config", str(bad)]) != 2:
        problems.append("config error did not exit 2")

    leaky = tmp_path / "leaky.cfg"
    leaky.write_text("kind = simulate-nls\nnonlinearity = nls_cubic\n"
                     "N = 128\nL = 8.0\nT = 1.0\namplitude = 0.5\n"
                     "radius = 1.0\n")
    if main(["simulate-nls", "--config", str(leaky),
             "--output", str(tmp_path / "runs")]) != 3:
        problems.append("boundary leakage did not exit 3")

    unstable = tmp_path / "unstable.cfg"
    unstable.write_text("kind = check-assumptions\n"
                        "nonlinearity = oscillating_sin:q=1\nR = 1.0\n")
    if main(["check-assumptions", "--config", str(unstable),
             "--output", str(tmp_path / "runs")]) != 4:
        problems.append("invariant violation did not exit 4")

    manifest = json.loads((dirs1[0] / "manifest.json").read_text())
    if manifest["outcome"] != "ok":
        problems.append("manifest outcome not ok")

    capsys.readouterr()  # drop CLI chatter before the verdict line
    ok = _verdict(8, "determinism and CLI contract", not problems,
                  "; ".join(problems))
    assert ok, problems
