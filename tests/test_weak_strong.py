"""Discrepancy functionals, certificate fitting, and the truncation ladder."""

import numpy as np
import pytest
from dataclasses import replace

from supercrit.assumption_lab import find_convexity_shift
from supercrit.field_core import GridSpec, bump_field, l2_norm_sq
from supercrit.nls_integrator import NlsRunConfig, member as nls_member
from supercrit.nonlinearity import from_selection
from supercrit.stepping import integrate
from supercrit.wave_integrator import WaveRunConfig, member as wave_member, run as wave_run
from supercrit.weak_strong import (
    ForceSamples,
    GronwallTrace,
    NlsGronwall,
    appendix_construction,
    gronwall_ladder,
    ladder_problems,
    uniform_integrability_probe,
)


def wave_ladder(ladder=(1e-2,), N=128, T=0.5, spec_name="defocusing_exp:m=1"):
    """Gronwall traces of u0 + eps * pert against u0, one per eps."""
    grid = GridSpec(1, N, 8.0)
    spec = from_selection(spec_name)
    u0 = bump_field(grid, 0.5, 1.0)
    pert = bump_field(grid, 1.0, 0.8)
    cfg = WaveRunConfig(grid, spec, 0.25 * grid.h, T, u0, np.zeros_like(u0))
    return gronwall_ladder(cfg, pert, ladder)


def force_samples(cfg):
    _, (samples,) = integrate([wave_member(cfg)], cfg, [ForceSamples(cfg.spec, cfg.grid)])
    return samples


def test_fitted_certificate_reproduces_exponential():
    times = np.linspace(0.0, 2.0, 101)
    G = 0.25 * np.exp(0.8 * times)
    trace = GronwallTrace(times, G, G, G, G, 0.0, 0.0)
    from supercrit.weak_strong import _fit_certificate

    C, G0 = _fit_certificate(times, G)
    assert C == pytest.approx(0.8, rel=1e-6)
    assert G0 == pytest.approx(0.25, rel=1e-10)


def test_identical_trajectories_give_zero_discrepancy():
    (tr,) = wave_ladder(ladder=(0.0,))
    assert np.all(tr.G == 0.0)
    assert tr.fitted_C == 0.0
    assert tr.expansion_residual == 0.0


def test_expansion_residual_shrinks_under_refinement():
    residuals = [wave_ladder(N=N)[0].expansion_residual for N in (128, 256)]
    assert residuals[1] < residuals[0] / 3.0


def test_initial_discrepancy_scales_with_perturbation():
    g0 = [tr.G[0] for tr in wave_ladder(ladder=(1e-2, 1e-3))]
    assert g0[0] / g0[1] == pytest.approx(100.0, rel=1e-6)


def test_wave_trace_serialization():
    (tr,) = wave_ladder()
    d = tr.as_dict()
    assert set(d) >= {"times", "G", "w_l2", "I", "J", "fitted_C", "fitted_G0"}
    csv = tr.to_csv()
    assert csv.startswith("t,G,w_l2,I,J,bound")
    assert len(csv.strip().split("\n")) == len(tr.times) + 1


def test_nls_trace_with_valid_shift_has_nonnegative_defect():
    grid = GridSpec(1, 256, 32.0)
    spec = from_selection("nls_coercive_exp")
    A = find_convexity_shift(spec, R=2.0, n_random=50_000).value
    u0 = bump_field(grid, 0.5, 2.0).astype(complex)
    pert = bump_field(grid, 1.0, 1.5)
    cfg = NlsRunConfig(grid, spec, 1e-3, 0.25, u0)
    members = [nls_member(cfg), nls_member(replace(cfg, u0=u0 + 1e-2 * pert))]
    _, (pieces,) = integrate(members, cfg, [NlsGronwall(spec, grid)])
    (tr,) = pieces.traces(A)
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
    report, samples = appendix_construction(base, (1.0, 2.0, 4.0))
    # the probe's samples come from the untruncated reference
    final_force = np.abs(spec.f(wave_run(base)[0].last.u)).ravel()
    assert np.array_equal(samples.absf[-1], final_force)
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
    slope, target, vacuous = uniform_integrability_probe(force_samples(cfg), trials=200)
    assert not vacuous
    assert slope >= target - 0.1


def test_uniform_integrability_probe_vacuous_on_zero_field():
    grid = GridSpec(1, 64, 8.0)
    spec = from_selection("pure_power:p=2")
    z = np.zeros(grid.shape)
    cfg = WaveRunConfig(grid, spec, 0.25 * grid.h, 0.25, z, z)
    _, _, vacuous = uniform_integrability_probe(force_samples(cfg), trials=50)
    assert vacuous
