"""Split-step integrator: substep exactness, conservation, plane-wave oracle."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from supercrit import config, field_core, nls_integrator, runner, weak_strong
from supercrit.cli import main
from supercrit.field_core import GridSpec, NlsState, bump_field, l2_norm_sq, nls_energy
from supercrit.nls_integrator import (
    accuracy_error,
    linear_flow,
    member,
    nonlinear_flow,
    strang_step,
)
from supercrit.nonlinearity import (
    AssumptionClass,
    NlsNonlinearitySpec,
    _sin_cos,
    density,
    from_selection,
)
from supercrit.stepping import BlowUpError, Record, RunSchedule, integrate, run_single

SINGULAR = NlsNonlinearitySpec(
    name="singular",
    Fs=lambda s: np.log(np.asarray(s, float)),
    Fsprime=lambda s: 1.0 / np.asarray(s, float),
    Fsprime2=lambda s: -1.0 / np.asarray(s, float) ** 2,
    assumption_class=AssumptionClass.NLS_SUBCRIT,
)


def make_config(N=128, L=16.0, T=0.5, dt=1e-3, amplitude=0.5, radius=2.0,
                spec=None, **kw):
    grid = GridSpec(1, N, L)
    u0 = bump_field(grid, amplitude, radius).astype(complex)
    spec = spec if spec is not None else from_selection("nls_cubic")
    return RunSchedule(grid, spec, dt, T, **kw), u0


def starting(u0):
    """The run_single member of the NLS stepper from u = u0."""
    return lambda cfg: member(cfg, u0)


def test_dt_accuracy_gate():
    grid = GridSpec(1, 64, 8.0)
    cfg = RunSchedule(grid, from_selection("nls_cubic"), 2.0 * grid.h, 1.0)
    with pytest.raises(ValueError):
        member(cfg, np.zeros(grid.shape, complex))


def test_dt_accuracy_gate_reads_the_requested_dt_not_the_step():
    # 100 steps of dt = h and 5e-10 of one more: each of the 100 steps taken
    # is 5e-12 (relative) longer than h, more than the gate's 1e-12 allowance
    grid = GridSpec(1, 64, 8.0)
    cfg = RunSchedule(grid, from_selection("nls_cubic"), grid.h, grid.h * (100 + 5e-10))
    assert cfg.steps() == 100 and accuracy_error(cfg.step(), grid.h)
    stepper, _ = member(cfg, bump_field(grid, 0.5, 1.0).astype(complex))
    assert stepper.dt == cfg.step()


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


@pytest.mark.parametrize("name", ["nls_cubic", "nls_coercive_exp"])
def test_stepper_rotation_is_the_kernels_and_unimodular(name):
    # a state keeps the tangent of its half rotation's half angle, and a step
    # rebuilds the opening rotation in the new u's buffer and the closing one
    # in the old u's; both are bitwise the kernel's on the angle phase dt/2
    grid = GridSpec(2, 32, 16.0)
    u = bump_field(grid, 2.5, 4.0).astype(complex) * np.exp(0.7j * grid.coords()[1])
    cfg = RunSchedule(grid, from_selection(name), 0.05, 1.0)
    stepper, state = member(cfg, u)
    half = 0.5 * cfg.step()

    def rotation(phase):
        sin, cos = _sin_cos(phase * half)
        rot = np.empty(phase.shape, complex)
        rot.real, rot.imag = cos, sin
        assert np.abs(np.abs(rot) - 1.0).max() <= 1e-15
        return rot

    for _ in range(2):
        tan = np.tan(state.phase * half * 0.5)
        assert np.array_equal(state.tan.view(np.int64), tan.view(np.int64))
        v = np.fft.ifftn(nls_integrator._propagate(np.fft.fftn(state.u * rotation(state.phase)),
                                                   stepper.prop))
        v *= rotation(cfg.spec.Fsprime(density(v)))
        state = stepper(state)  # overwrites the old state's arrays
        assert np.array_equal(state.u.view(np.int64), v.view(np.int64))


@pytest.mark.parametrize("name", ["nls_cubic", "nls_coercive_exp"])
def test_strang_step_allocates_only_the_new_states_arrays(name):
    # the rotations are built in the new u's buffer and in the old u's, so a
    # step allocates the new u, phase and tangent, 32 bytes per point, and at
    # its peak the density and Fs' temporaries beside the new u and phase
    grid = GridSpec(2, 128, 40.0)
    stepper, state = member(RunSchedule(grid, from_selection(name), 0.005, 0.5),
                            bump_field(grid, 1.0, 5.0))
    state = stepper(state)
    tracemalloc.start()
    try:
        new = stepper(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points = grid.N ** grid.d
    # between steps a state holds u, phase and tangent only
    assert sum(a.nbytes for a in vars(new).values() if isinstance(a, np.ndarray)) == 32 * points
    assert peak <= 40 * points + 4096


def test_member_does_not_write_a_complex_u0():
    # the first step overwrites its state's u, so member copies a u0 it was
    # handed, whole or as a view
    grid = GridSpec(1, 64, 8.0)
    u0 = bump_field(grid, 1.0, 2.0).astype(complex)
    kept = u0.copy()
    for given in (u0, u0[:]):
        stepper, state = member(RunSchedule(grid, from_selection("nls_cubic"), 0.01, 0.1), given)
        stepper(state)
        assert np.array_equal(u0, kept)


def test_nonlinear_flow_aborts_on_singular_phase():
    grid = GridSpec(1, 32, 8.0)
    u = bump_field(grid, 1.0, 1.0).astype(complex)  # vanishes outside the bump
    with np.errstate(divide="ignore"), pytest.raises(BlowUpError):
        nonlinear_flow(NlsState(grid, u, 0.0), 0.1, SINGULAR)


def test_stepper_aborts_on_singular_phase(tmp_path, monkeypatch, capsys):
    grid = GridSpec(1, 32, 8.0)
    u0 = bump_field(grid, 1.0, 1.0).astype(complex)  # vanishes outside the bump
    with np.errstate(divide="ignore"), pytest.raises(BlowUpError) as info:
        member(RunSchedule(grid, SINGULAR, 1e-2, 0.1), u0)
    assert info.value.t_last == 0.0

    # a phase that turns singular mid-run aborts at the last record
    calls = []

    def fails_on_fifth_call(s):
        calls.append(1)
        return np.full_like(s, np.inf if len(calls) == 5 else 1.0)

    spec = dataclasses.replace(from_selection("nls_cubic"), Fsprime=fails_on_fifth_call)
    cfg = RunSchedule(grid, spec, 1e-2, 0.1, diagnostics_stride=2)
    with pytest.raises(BlowUpError) as info:
        integrate([member(cfg, u0 + 1.0)], cfg)
    # call 1 is the start, call k + 1 ends step k: step 4 fails, step 2 was recorded
    assert info.value.t_last == pytest.approx(2 * cfg.step())

    # through the CLI: a phase singular at 0 is refused when the config is
    # parsed, and one singular where the data reach aborts the run
    away = dataclasses.replace(
        SINGULAR, name="singular_away_from_0", Fs=lambda s: np.asarray(s, float),
        Fsprime=lambda s: np.where(np.asarray(s, float) > 1e-3, np.inf, 1.0))
    specs = {spec.name: spec for spec in (SINGULAR, away)}
    select = config.from_selection
    monkeypatch.setattr(config, "from_selection", lambda name: specs.get(name) or select(name))
    path = tmp_path / "singular.cfg"
    for name, code, message in (("singular", 2, "Fs or Fs' is not finite at 0"),
                                ("singular_away_from_0", 3, "aborted_blowup")):
        path.write_text(f"nonlinearity = {name}\nN = 64\nL = 16\nT = 0.1\n")
        assert main(["simulate-nls", "--config", str(path), "--output", str(tmp_path)]) == code
        out, err = capsys.readouterr()
        assert message in out + err


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
    cfg = RunSchedule(grid, spec, 1e-3, 0.5)
    end, _, _ = run_single(starting(u0), cfg)
    rate = k ** 2 + spec.Fsprime(0.5 * A ** 2)
    exact = u0 * np.exp(1j * rate * end.t)
    assert np.max(np.abs(end.u - exact)) < 1e-11


def test_mass_conserved_to_machine_precision():
    cfg, u0 = make_config(T=1.0, dt=5e-3)
    _, trace, _ = run_single(starting(u0), cfg)
    mass = trace.column("mass")
    assert np.max(np.abs(mass - mass[0])) / mass[0] < 1e-13


def test_hamiltonian_drift_scales_quadratically():
    drifts = []
    for dt in (2e-3, 1e-3):
        cfg, u0 = make_config(T=0.5, dt=dt)
        _, trace, _ = run_single(starting(u0), cfg)
        H = trace.column("H_total")
        drifts.append(np.max(np.abs(H - H[0])) / abs(H[0]))
    assert drifts[0] < 1e-6
    assert 3.0 < drifts[0] / drifts[1] < 5.0


def test_strang_step_advances_time():
    cfg, u0 = make_config()
    state = NlsState(cfg.grid, u0, 0.0)
    nxt = strang_step(state, cfg)
    assert nxt.t == pytest.approx(cfg.step())
    assert nxt.u.shape == state.u.shape


@pytest.mark.parametrize("name", ["nls_cubic", "nls_coercive_exp"])
@pytest.mark.parametrize("d", [1, 2])
def test_stepper_matches_strang_step_oracle(name, d):
    grid = GridSpec(d, 64 if d == 1 else 32, 16.0)
    u0 = bump_field(grid, 1.5, 4.0).astype(complex) * np.exp(0.4j * grid.coords()[0])
    cfg = RunSchedule(grid, from_selection(name), 0.02, 20 * 0.02)
    (last,), _, _ = integrate([member(cfg, u0)], cfg)
    oracle = NlsState(grid, u0, 0.0)
    for _ in range(20):
        oracle = strang_step(oracle, cfg)
    assert cfg.steps() == 20 and last.t == pytest.approx(oracle.t, rel=1e-14)
    assert np.max(np.abs(last.u - oracle.u)) < 1e-10
    assert last.energy == pytest.approx(nls_energy(oracle, cfg.spec), rel=1e-10)


def test_nls_ladder_keeps_its_step_count():
    grid = GridSpec(2, 16, 40.0)
    cfg = RunSchedule(grid, from_selection("nls_coercive_exp"), 0.005, 0.5)
    assert cfg.steps() == 100 and cfg.step() == 0.005


def ladder_config(steps=10, stride=3):
    grid = GridSpec(2, 16, 16.0)
    u0 = bump_field(grid, 1.0, 4.0).astype(complex)
    cfg = RunSchedule(grid, from_selection("nls_coercive_exp"), 0.02, steps * 0.02,
                      diagnostics_stride=stride)
    return cfg, u0, bump_field(grid, 1.0, 3.0), (1e-1, 1e-2, 1e-3)


def test_ladder_transforms_two_per_step_one_per_record(monkeypatch):
    # the nls-ladder workload's run: 2 transforms per member step, and per
    # record 2 for the reference (u_hat, then u_t in its buffer) and 1 per
    # member (w_hat). A read of u_hat after u_t took it would add an fftn
    calls = {}
    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    cfg = config.parse_config("nonlinearity = nls_coercive_exp\nd = 2\nN = 128\nL = 40\n"
                              "radius = 5\nT = 0.5\ndt = 0.005\n", "weak-strong")
    outcome, _ = runner._do_weak_strong(cfg)
    members, steps, records = 4, 100, 101
    assert outcome == "ok"
    assert calls == {"fftn": members * steps + records + (members - 1) * records,
                     "ifftn": members * steps + records}
    assert sum(calls.values()) == 1305


def test_nls_u_t_takes_the_record_spectrum_and_a_later_read_recomputes_it(monkeypatch):
    grid = GridSpec(2, 32, 8.0)
    stepper, state = member(RunSchedule(grid, from_selection("nls_coercive_exp"), 0.01, 0.02),
                            bump_field(grid, 0.5, 1.0) * np.exp(0.5j * grid.coords()[0]))
    rec = Record(stepper, state)
    uh = rec.uh
    ut = rec.ut
    # u_t is made in the spectrum's buffer, which the record no longer holds
    assert ut is uh and "uh" not in vars(rec)
    lap = np.fft.ifftn(-grid.wavenumber_sq() * np.fft.fftn(rec.u))
    assert np.array_equal(ut, -1j * (lap - rec.u * state.phase))
    calls = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **k: calls.append(1) or fftn(*a, **k))
    assert np.array_equal(rec.uh, np.fft.fftn(rec.u)) and rec.uh is not ut
    assert len(calls) == 2  # the record's new spectrum and the check's
    assert rec.ut is ut


def test_nls_ladder_sums_no_energy_column(monkeypatch):
    # the Gronwall observer reads each record's potential integral only, so
    # no record of an NLS ladder sums a mass or gradient energy
    calls = []
    energy = nls_integrator._SpectralStrang.energy

    def counted(self, rec):
        calls.append(rec.t)
        return energy(self, rec)

    monkeypatch.setattr(nls_integrator._SpectralStrang, "energy", counted)
    cfg, u0, pert, ladder = ladder_config()
    traces, _ = weak_strong.gronwall_ladder(cfg, lambda grid: (u0, pert), ladder)
    assert len(traces) == len(ladder) and len(traces[0].times) == 5
    assert calls == []


def test_ladder_evaluates_phase_once_per_member_and_step(monkeypatch):
    calls = {"run": 0, "shift": 0}
    where = ["run"]
    cfg, u0, pert, ladder = ladder_config(stride=1)
    fsprime = cfg.spec.Fsprime

    def counted(s):
        calls[where[0]] += 1
        return fsprime(s)

    shift = weak_strong.find_convexity_shift

    def counted_shift(*args, **kwargs):
        where[0] = "shift"
        try:
            return shift(*args, **kwargs)
        finally:
            where[0] = "run"

    monkeypatch.setattr(weak_strong, "find_convexity_shift", counted_shift)
    base = dataclasses.replace(cfg, spec=dataclasses.replace(cfg.spec, Fsprime=counted))
    weak_strong.gronwall_ladder(base, lambda grid: (u0, pert), ladder)
    # records, forces and the derivative of f reuse the stepper's phase
    assert calls["run"] == (cfg.steps() + 1) * (1 + len(ladder))


def test_dt_field_matches_plane_wave_rate():
    grid = GridSpec(1, 64, 8.0)
    spec = from_selection("nls_cubic")
    A, m = 0.4, 2
    k = 2.0 * np.pi * m / grid.L
    u0 = A * np.exp(1j * k * grid.axis())
    first = Record(*member(RunSchedule(grid, spec, 1e-3, 0.01), u0))
    rate = k ** 2 + spec.Fsprime(0.5 * A ** 2)
    expected = 1j * rate * first.u
    assert np.max(np.abs(first.ut - expected)) < 1e-10


def test_nls_record_reads_one_cached_wavenumber_table():
    # u_t and the Parseval gradient read one |xi|^2 table, kept on the rows
    # 0..N/2 of axis 0 the propagator keeps; u_t equals the full-grid formula
    field_core._parseval_multiplier.cache_clear()
    grid = GridSpec(2, 32, 8.0)
    spec = from_selection("nls_cubic")
    stepper, state = member(RunSchedule(grid, spec, 0.01, 0.02), bump_field(grid, 0.5, 1.0))
    rec = Record(stepper, state)
    rec.energy
    lap = np.fft.ifftn(-grid.wavenumber_sq() * np.fft.fftn(rec.u))
    assert np.array_equal(rec.ut, -1j * (lap - rec.force))
    assert field_core._parseval_multiplier.cache_info().currsize == 1
    table = field_core._parseval_multiplier(grid, False)
    assert stepper.ksq is table and table.shape == (17, 32)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("block", [1 << 10, 1 << 14, 1 << 16])
def test_propagate_is_the_whole_table_product_bitwise(monkeypatch, d, block):
    # the propagator and the u_t |xi|^2 keep rows 0..N/2 of every axis but
    # the last; in chunks of about block points they multiply a spectrum as
    # the whole tables do
    monkeypatch.setattr(field_core, "_BLOCK", block)
    grid = GridSpec(d, 16, 8.0)
    rng = np.random.default_rng(d)
    uh = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    ksq = grid.wavenumber_sq()
    for table, whole in ((nls_integrator._propagator(grid, 0.01), np.exp(1j * ksq * 0.01)),
                         (field_core._parseval_multiplier(grid, False), ksq)):
        ours = nls_integrator._propagate(uh.copy(), table)
        assert np.array_equal(ours.view(np.int64), (uh * whole).view(np.int64))


def test_d3_propagator_and_gradient_weight_keep_a_quarter_of_the_spectrum():
    # at d = 3 both tables keep rows 0..N/2 of axes 0 and 1: (N/2+1)^2 N
    # points of 16 B and of 8 B, where tables kept on axis 0 only held
    # (N/2+1) N^2
    N = 32
    grid = GridSpec(3, N, 20.0)
    stepper, _ = member(RunSchedule(grid, from_selection("nls_cubic"), 0.01, 0.02),
                        bump_field(grid, 0.5, 2.0))
    assert stepper.prop.nbytes + stepper.ksq.nbytes == (N // 2 + 1) ** 2 * N * 24


def test_trace_columns():
    cfg, u0 = make_config(T=0.1)
    _, trace, _ = run_single(starting(u0), cfg)
    assert trace.columns == ("t", "mass", "H_total", "H_gradient",
                             "H_potential", "leakage", "tail", "sup_norm")
    assert np.all(trace.column("leakage") >= 0.0)
