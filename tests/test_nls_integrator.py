"""Split-step integrator: substep exactness, conservation, plane-wave oracle."""

import numpy as np
import pytest

from supercrit.field_core import GridSpec, NlsState, bump_field, l2_norm_sq
from supercrit.nls_integrator import (
    NlsRunConfig,
    linear_flow,
    member,
    nonlinear_flow,
    run,
    strang_step,
)
from supercrit.nonlinearity import (
    AssumptionClass,
    NlsNonlinearitySpec,
    from_selection,
)
from supercrit.stepping import BlowUpError, Record


def make_config(N=128, L=16.0, T=0.5, dt=1e-3, amplitude=0.5, radius=2.0,
                spec=None, **kw):
    grid = GridSpec(1, N, L)
    u0 = bump_field(grid, amplitude, radius).astype(complex)
    spec = spec if spec is not None else from_selection("nls_cubic")
    return NlsRunConfig(grid, spec, dt, T, u0, **kw)


def test_dt_accuracy_gate():
    grid = GridSpec(1, 64, 8.0)
    with pytest.raises(ValueError):
        NlsRunConfig(grid, from_selection("nls_cubic"), 2.0 * grid.h, 1.0,
                     np.zeros(grid.shape, complex))


def test_linear_flow_is_unitary_and_invertible():
    grid = GridSpec(1, 64, 8.0)
    rng = np.random.default_rng(3)
    u = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    state = NlsState(grid, u, 0.0)
    moved = linear_flow(state, 0.37)
    assert l2_norm_sq(moved.u, grid) == pytest.approx(l2_norm_sq(u, grid), rel=1e-13)
    back = linear_flow(moved, -0.37)
    assert np.allclose(back.u, u, atol=1e-13)


def test_nonlinear_flow_preserves_modulus_pointwise():
    grid = GridSpec(1, 64, 8.0)
    spec = from_selection("nls_coercive_exp")
    u = bump_field(grid, 1.5, 2.0).astype(complex) * np.exp(0.3j)
    moved = nonlinear_flow(NlsState(grid, u, 0.0), 0.21, spec)
    assert np.allclose(np.abs(moved.u), np.abs(u), atol=1e-14)


def test_nonlinear_flow_aborts_on_singular_phase():
    singular = NlsNonlinearitySpec(
        name="singular",
        Fs=lambda s: np.log(np.asarray(s, float)),
        Fsprime=lambda s: 1.0 / np.asarray(s, float),
        Fsprime2=lambda s: -1.0 / np.asarray(s, float) ** 2,
        assumption_class=AssumptionClass.NLS_SUBCRIT,
    )
    grid = GridSpec(1, 32, 8.0)
    u = bump_field(grid, 1.0, 1.0).astype(complex)  # vanishes outside the bump
    with np.errstate(divide="ignore"), pytest.raises(BlowUpError):
        nonlinear_flow(NlsState(grid, u, 0.0), 0.1, singular)


def test_plane_wave_oracle_exact():
    """Constant-modulus single modes are integrated exactly by the splitting.

    For u0 = A exp(i k x) the true solution only rotates the global phase with
    rate |k|^2 + F'(|A|^2 / 2); both substeps realize their share exactly.
    """
    grid = GridSpec(1, 64, 8.0)
    spec = from_selection("nls_cubic")
    A, m = 0.7, 3
    k = 2.0 * np.pi * m / grid.L
    u0 = A * np.exp(1j * k * grid.axis())
    cfg = NlsRunConfig(grid, spec, 1e-3, 0.5, u0)
    end, _ = run(cfg)
    rate = k ** 2 + spec.Fsprime(0.5 * A ** 2)
    exact = u0 * np.exp(1j * rate * end.last.t)
    assert np.max(np.abs(end.last.u - exact)) < 1e-11


def test_mass_conserved_to_machine_precision():
    cfg = make_config(T=1.0, dt=5e-3)
    _, trace = run(cfg)
    mass = trace.column("mass")
    assert np.max(np.abs(mass - mass[0])) / mass[0] < 1e-13


def test_hamiltonian_drift_scales_quadratically():
    drifts = []
    for dt in (2e-3, 1e-3):
        _, trace = run(make_config(T=0.5, dt=dt))
        H = trace.column("H_total")
        drifts.append(np.max(np.abs(H - H[0])) / abs(H[0]))
    assert drifts[0] < 1e-6
    assert 3.0 < drifts[0] / drifts[1] < 5.0


def test_strang_step_advances_time():
    cfg = make_config()
    state = NlsState(cfg.grid, cfg.u0, 0.0)
    nxt = strang_step(state, cfg)
    assert nxt.t == pytest.approx(cfg.dt)
    assert nxt.u.shape == state.u.shape


def test_dt_field_matches_plane_wave_rate():
    grid = GridSpec(1, 64, 8.0)
    spec = from_selection("nls_cubic")
    A, m = 0.4, 2
    k = 2.0 * np.pi * m / grid.L
    u0 = A * np.exp(1j * k * grid.axis())
    first = Record(*member(NlsRunConfig(grid, spec, 1e-3, 0.01, u0)))
    rate = k ** 2 + spec.Fsprime(0.5 * A ** 2)
    expected = 1j * rate * first.u
    assert np.max(np.abs(first.ut - expected)) < 1e-10


def test_trace_columns():
    _, trace = run(make_config(T=0.1))
    assert trace.columns == ("t", "mass", "H_total", "H_gradient",
                             "H_potential", "leakage", "sup_norm")
    assert np.all(trace.column("leakage") >= 0.0)
