"""Wave steppers: reversibility, conservation, and run diagnostics."""

import numpy as np
import pytest

from supercrit.field_core import GridSpec, WaveState, bump_field
from supercrit.nonlinearity import AssumptionClass, NonlinearitySpec, from_selection
from supercrit.stepping import BlowUpError, DiagnosticTrace, integrate
from supercrit.wave_integrator import (
    WaveRunConfig,
    WeakIdentity,
    max_leakage,
    member,
    run,
    step,
)


def make_config(N=128, L=8.0, amplitude=0.5, T=0.5, spec=None, **kw):
    grid = GridSpec(1, N, L)
    u0 = bump_field(grid, amplitude, 1.0)
    spec = spec if spec is not None else from_selection("defocusing_exp:m=1")
    dt = kw.pop("dt", 0.25 * grid.h)
    return WaveRunConfig(grid, spec, dt, T, u0, np.zeros_like(u0), **kw)


def test_cfl_gate():
    grid = GridSpec(1, 64, 8.0)
    u0 = bump_field(grid, 0.5, 1.0)
    with pytest.raises(ValueError):
        WaveRunConfig(grid, from_selection("pure_power:p=2"), grid.h, 1.0,
                      u0, np.zeros_like(u0))


def test_step_time_reversible():
    cfg = make_config()
    state = WaveState(cfg.grid, cfg.u0, cfg.u1, 0.0)
    fwd = step(state, cfg)
    back = step(WaveState(cfg.grid, fwd.u, -fwd.ut, 0.0), cfg)
    assert np.allclose(back.u, state.u, atol=1e-13)
    assert np.allclose(back.ut, -state.ut, atol=1e-13)


def test_zero_data_is_fixed_point():
    grid = GridSpec(1, 64, 8.0)
    z = np.zeros(grid.shape)
    cfg = WaveRunConfig(grid, from_selection("pure_power:p=2"),
                        0.25 * grid.h, 0.25, z, z)
    end, trace = run(cfg)
    assert np.all(end.last.u == 0.0)
    assert trace.column("E_total")[-1] == 0.0


def test_methods_agree_at_small_dt():
    final = {}
    for method in ("impulse", "verlet"):
        cfg = make_config(T=0.25, dt=0.02 * 8.0 / 128, method=method)
        end, _ = run(cfg)
        final[method] = end.last.u
    assert np.max(np.abs(final["impulse"] - final["verlet"])) < 1e-6


def test_impulse_agrees_with_verlet_oracle_in_3d():
    grid = GridSpec(3, 16, 8.0)
    u0 = bump_field(grid, 0.5, 2.5)
    out = {}
    for method in ("impulse", "verlet"):
        cfg = WaveRunConfig(grid, from_selection("defocusing_exp:m=1"), 0.005, 0.25,
                            u0, np.zeros_like(u0), diagnostics_stride=5, method=method)
        out[method] = run(cfg)
    (end, trace), (oracle, oracle_trace) = out["impulse"], out["verlet"]
    # verlet's own O(dt^2) error sets the scale: about 3e-8 on u, 3e-5 on E
    assert np.max(np.abs(end.last.u - oracle.last.u)) < 1e-6
    assert np.max(np.abs(end.last.ut - oracle.last.ut)) < 1e-5
    for name in ("E_total", "E_kinetic", "E_gradient", "E_potential"):
        ours, ref = trace.column(name), oracle_trace.column(name)
        assert np.max(np.abs(ours - ref)) < 1e-4 * np.max(np.abs(ref)), name


def test_impulse_costs_two_transforms_per_step_and_one_per_record(monkeypatch):
    calls = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
        def counted(*args, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_fn)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    grid = GridSpec(2, 16, 8.0)
    u0 = bump_field(grid, 0.5, 2.0)
    dt = 0.05
    cfg = WaveRunConfig(grid, from_selection("defocusing_exp:m=1"), dt, 10 * dt,
                        u0, np.zeros_like(u0), diagnostics_stride=3)
    end, _ = run(cfg)
    assert cfg.steps() == 10 and len(end) == 5
    # three transforms set up the spectral state from (u0, u1); the trace's
    # energies come from the half spectra, so a plain run's records cost none
    assert len(calls) == 3 + 2 * cfg.steps()

    class ReadsVelocity:
        def observe(self, records):
            records[0].ut

        def result(self):
            return None

    calls.clear()
    integrate([member(cfg)], cfg, [ReadsVelocity()])
    # an observer that reads the physical u_t costs one inverse transform
    assert len(calls) == 3 + 2 * cfg.steps() + len(end)


def test_impulse_exact_on_nearly_linear_problem():
    # cubic force at amplitude 1e-8 is negligible, so the split flow is the
    # exact linear propagator and energy drift sits at rounding level
    cfg = make_config(amplitude=1e-8, T=1.0, spec=from_selection("pure_power:p=3"))
    _, trace = run(cfg)
    E = trace.column("E_total")
    assert np.max(np.abs(E - E[0])) / abs(E[0]) < 1e-12


def test_energy_drift_quarters_under_dt_halving():
    drifts = []
    for factor in (0.25, 0.125):
        cfg = make_config(N=128, T=1.0, dt=factor * 8.0 / 128)
        _, trace = run(cfg)
        E = trace.column("E_total")
        drifts.append(np.max(np.abs(E - E[0])) / abs(E[0]))
    assert 3.0 < drifts[0] / drifts[1] < 5.0


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        run(make_config(method="rk4"))


def test_blow_up_detected_for_focusing_force():
    focusing = NonlinearitySpec(
        name="focusing_quintic",
        F=lambda u: -np.asarray(u, float) ** 6 / 6.0,
        f=lambda u: -np.asarray(u, float) ** 5,
        fprime=lambda u: -5.0 * np.asarray(u, float) ** 4,
        assumption_class=AssumptionClass.DEFOCUSING,
    )
    # huge stride: the overflow is hit between diagnostics records, so the
    # non-finite state itself trips the abort
    cfg = make_config(N=64, amplitude=8.0, T=4.0, spec=focusing,
                      dt=0.25 * 8.0 / 64, diagnostics_stride=10 ** 9)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        run(cfg)
    assert info.value.t_last >= 0.0


def test_trace_columns_and_csv():
    cfg = make_config(T=0.25, diagnostics_stride=4)
    _, trace = run(cfg)
    assert trace.columns == ("t", "E_total", "E_kinetic", "E_gradient",
                             "E_potential", "leakage", "sup_norm")
    csv = trace.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == ",".join(trace.columns)
    assert len(lines) == len(trace.rows) + 1
    assert max_leakage(trace) >= 0.0


def test_trace_column_lookup_errors():
    trace = DiagnosticTrace(("t", "x"))
    trace.add(0.0, 1.0)
    assert trace.column("x") == [1.0]
    with pytest.raises(ValueError):
        trace.column("missing")


def weak_identity(cfg):
    _, (residual,) = integrate([member(cfg)], cfg, [WeakIdentity(cfg.spec, cfg.grid)])
    return residual


def test_weak_identity_residual_small_and_needs_snapshots():
    assert weak_identity(make_config(N=256, T=1.0, diagnostics_stride=1)) < 1e-4
    with pytest.raises(ValueError):
        weak_identity(make_config(T=0.05))


def test_snapshot_times_cover_final_time():
    cfg = make_config(T=0.5)
    end, trace = run(cfg)
    times = trace.column("t")
    assert times[0] == 0.0 and len(times) == len(end)
    assert end.last.t == times[-1] == pytest.approx(0.5, abs=cfg.dt)
    assert end.last.state.is_finite()
