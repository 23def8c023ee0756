"""Discrepancy functionals, certificate fitting, and the truncation ladder."""

import numpy as np
import pytest
from dataclasses import replace

from supercrit.assumption_lab import find_convexity_shift
from supercrit.field_core import GridSpec, bump_field, l2_norm_sq
from supercrit.nls_integrator import NlsRunConfig, run as nls_run
from supercrit.nonlinearity import from_selection
from supercrit.wave_integrator import WaveRunConfig, run as wave_run
from supercrit.weak_strong import (
    GronwallTrace,
    appendix_construction,
    energy_expansion,
    gronwall_trace_nls,
    gronwall_trace_wave,
    ladder_problems,
    lemma_main33_probe,
    uniform_integrability_probe,
)


def wave_pair(eps=1e-2, N=128, T=0.5, spec_name="defocusing_exp:m=1"):
    grid = GridSpec(1, N, 8.0)
    spec = from_selection(spec_name)
    u0 = bump_field(grid, 0.5, 1.0)
    pert = bump_field(grid, 1.0, 0.8)
    cfg = WaveRunConfig(grid, spec, 0.25 * grid.h, T, u0, np.zeros_like(u0))
    u_traj, _ = wave_run(cfg)
    v_traj, _ = wave_run(replace(cfg, u0=u0 + eps * pert))
    return u_traj, v_traj, spec, pert


def test_fitted_certificate_reproduces_exponential():
    times = np.linspace(0.0, 2.0, 101)
    G = 0.25 * np.exp(0.8 * times)
    trace = GronwallTrace(times, G, G, G, G, 0.0, 0.0)
    from supercrit.weak_strong import _fit_certificate

    C, G0 = _fit_certificate(times, G)
    assert C == pytest.approx(0.8, rel=1e-6)
    assert G0 == pytest.approx(0.25, rel=1e-10)


def test_identical_trajectories_give_zero_discrepancy():
    u_traj, _, spec, _ = wave_pair()
    tr = gronwall_trace_wave(u_traj, u_traj, spec)
    assert np.all(tr.G == 0.0)
    assert tr.fitted_C == 0.0
    _, _, residual = energy_expansion(u_traj, u_traj, spec)
    assert residual == 0.0


def test_expansion_residual_shrinks_under_refinement():
    residuals = []
    for N in (128, 256):
        u_traj, v_traj, spec, _ = wave_pair(N=N)
        _, _, r = energy_expansion(u_traj, v_traj, spec)
        residuals.append(r)
    assert residuals[1] < residuals[0] / 3.0


def test_initial_discrepancy_scales_with_perturbation():
    g0 = []
    for eps in (1e-2, 1e-3):
        u_traj, v_traj, spec, _ = wave_pair(eps=eps)
        tr = gronwall_trace_wave(u_traj, v_traj, spec)
        g0.append(tr.G[0])
    assert g0[0] / g0[1] == pytest.approx(100.0, rel=1e-6)


def test_wave_trace_serialization():
    u_traj, v_traj, spec, _ = wave_pair()
    tr = gronwall_trace_wave(u_traj, v_traj, spec)
    d = tr.as_dict()
    assert set(d) >= {"times", "G", "w_l2", "I", "J", "fitted_C", "fitted_G0"}
    csv = tr.to_csv()
    assert csv.startswith("t,G,w_l2,I,J,bound")
    assert len(csv.strip().split("\n")) == len(tr.times) + 1


def test_mismatched_trajectories_rejected():
    u_traj, v_traj, spec, _ = wave_pair(T=0.5)
    u_short, _, _, _ = wave_pair(T=0.25)
    with pytest.raises(ValueError):
        gronwall_trace_wave(u_traj, u_short, spec)


def test_nls_trace_with_valid_shift_has_nonnegative_defect():
    grid = GridSpec(1, 256, 32.0)
    spec = from_selection("nls_coercive_exp")
    A = find_convexity_shift(spec, R=2.0, n_random=50_000).value
    u0 = bump_field(grid, 0.5, 2.0).astype(complex)
    pert = bump_field(grid, 1.0, 1.5)
    cfg = NlsRunConfig(grid, spec, 1e-3, 0.25, u0)
    u_traj, _ = nls_run(cfg)
    v_traj, _ = nls_run(replace(cfg, u0=u0 + 1e-2 * pert))
    tr = gronwall_trace_nls(u_traj, v_traj, spec, A)
    assert tr.remainder_min is not None
    assert tr.remainder_min >= -1e-9
    assert tr.G[0] == pytest.approx(
        sum(tr.G[:1]), rel=1e-12
    )  # sanity: scalar access


def test_ladder_must_be_increasing():
    grid = GridSpec(1, 64, 8.0)
    spec = from_selection("oscillating_sin:q=1")
    u0 = bump_field(grid, 1.0, 1.0)
    base = WaveRunConfig(grid, spec, 0.25 * grid.h, 0.25, u0, np.zeros_like(u0))
    with pytest.raises(ValueError):
        appendix_construction(base, (2.0, 1.0, 4.0))
    with pytest.raises(ValueError):
        appendix_construction(base, (1.0, 2.0))


def test_truncation_ladder_discrepancies_decrease():
    grid = GridSpec(1, 128, 8.0)
    spec = from_selection("oscillating_sin:q=1")
    u0 = bump_field(grid, 3.0 * np.e, 1.0)
    base = WaveRunConfig(grid, spec, grid.h / 16.0, 0.5, u0, np.zeros_like(u0))
    report, ref_traj = appendix_construction(base, (1.0, 2.0, 4.0))
    assert np.array_equal(ref_traj.us[-1], wave_run(base)[0].us[-1])
    assert report.monotone_l2 and report.monotone_force
    assert report.l2_discrepancy[0] > report.l2_discrepancy[-1]
    assert all(d <= 1e-5 for d in report.energy_drift)
    d = report.as_dict()
    assert d["ladder"] == [1.0, 2.0, 4.0]


def test_ladder_problems_flag_each_check():
    times = np.linspace(0.0, 1.0, 5)
    flat, growing = np.ones(5), np.linspace(1.0, 2.0, 5)

    def trace(G):
        return GronwallTrace(times, G, G, G, G, 0.0, 0.0)

    ladder = (1e-1, 1e-2)
    assert ladder_problems(ladder, [trace(1e-2 * flat), trace(1e-4 * flat)]) == []
    (g0,) = ladder_problems(ladder, [trace(1e-2 * flat), trace(1e-3 * flat)])
    assert "G0/eps^2" in g0
    (spread,) = ladder_problems(ladder, [trace(1e-2 * flat), trace(1e-4 * growing)])
    assert "sup G / G0" in spread
    # a zero perturbation carries no discrepancy to scale
    assert len(ladder_problems((0.0, 1e-1), [trace(0.0 * flat), trace(1e-2 * flat)])) == 2


def test_uniform_integrability_probe_slope():
    grid = GridSpec(1, 128, 8.0)
    spec = from_selection("oscillating_sin:q=1")
    u0 = bump_field(grid, 3.0, 1.0)
    cfg = WaveRunConfig(grid, spec, 0.25 * grid.h, 0.5, u0, np.zeros_like(u0))
    traj, _ = wave_run(cfg)
    slope, target, vacuous = uniform_integrability_probe(traj, spec, trials=200)
    assert not vacuous
    assert slope >= target - 0.1


def test_uniform_integrability_probe_vacuous_on_zero_field():
    grid = GridSpec(1, 64, 8.0)
    spec = from_selection("pure_power:p=2")
    z = np.zeros(grid.shape)
    cfg = WaveRunConfig(grid, spec, 0.25 * grid.h, 0.25, z, z)
    traj, _ = wave_run(cfg)
    _, _, vacuous = uniform_integrability_probe(traj, spec, trials=50)
    assert vacuous


def test_lemma_probe_reports_finite_constant():
    u_traj, v_traj, spec, _ = wave_pair()
    out = lemma_main33_probe(u_traj, v_traj, spec)
    assert set(out) == {"C", "finite", "lhs_max", "rhs_max"}
    assert np.isfinite(out["C"])
