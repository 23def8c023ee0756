"""Wave steppers: reversibility, conservation, and run diagnostics."""

import tracemalloc

import numpy as np
import pytest

from supercrit import field_core, nls_integrator, runner, wave_integrator
from supercrit.config import parse_config
from supercrit.field_core import GridSpec, WaveState, bump_field
from supercrit.nonlinearity import AssumptionClass, NonlinearitySpec, from_selection
from supercrit.runner import run_experiment
from supercrit.stepping import (
    BlowUpError,
    Boundary,
    DiagnosticTrace,
    Record,
    RunSchedule,
    integrate,
    run_single,
)
from supercrit.wave_integrator import (
    Verlet,
    WeakIdentity,
    member,
    stability_error,
    stable_dt,
)


def make_config(N=128, L=8.0, amplitude=0.5, T=0.5, spec=None, **kw):
    """A 1-D run schedule and its bump u0 (at rest)."""
    grid = GridSpec(1, N, L)
    u0 = bump_field(grid, amplitude, 1.0)
    spec = spec if spec is not None else from_selection("defocusing_exp:m=1")
    dt = kw.pop("dt", 0.25 * grid.h)
    return RunSchedule(grid, spec, dt, T, **kw), u0


def starting(u0, u1=None):
    """The run_single member of the impulse stepper from u = u0, u_t = u1."""
    return lambda cfg: member(cfg, u0, u1)


def test_cfl_gate():
    grid = GridSpec(1, 64, 8.0)
    cfg = RunSchedule(grid, from_selection("pure_power:p=2"), grid.h, 1.0)
    with pytest.raises(ValueError):
        member(cfg, np.zeros(grid.shape))


def test_cfl_gate_reads_the_requested_dt_not_the_step():
    # T is 100 steps of the bound and 5e-10 of one more, so the run takes 100
    # steps, each 5e-12 (relative) longer than the bound, more than its 1e-12
    # rounding allowance; the dt asked for is within the bound, so it runs
    grid = GridSpec(1, 64, 8.0)
    dt = stable_dt(grid.h, grid.d)
    cfg = RunSchedule(grid, from_selection("defocusing_exp:m=1"), dt, dt * (100 + 5e-10))
    assert cfg.steps() == 100 and stability_error(cfg.step(), grid.h, grid.d)
    stepper, _ = member(cfg, bump_field(grid, 0.5, 1.0))
    assert stepper.dt == cfg.step()


def test_step_time_reversible():
    cfg, u0 = make_config()
    state = WaveState(cfg.grid, u0, np.zeros_like(u0), 0.0)
    verlet = Verlet(cfg)
    fwd = verlet(state)
    back = verlet(WaveState(cfg.grid, fwd.u, -fwd.ut, 0.0))
    assert np.allclose(back.u, state.u, atol=1e-13)
    assert np.allclose(back.ut, -state.ut, atol=1e-13)


def test_zero_data_is_fixed_point():
    grid = GridSpec(1, 64, 8.0)
    z = np.zeros(grid.shape)
    cfg = RunSchedule(grid, from_selection("pure_power:p=2"), 0.25 * grid.h, 0.25)
    end, trace, _ = run_single(starting(z, z), cfg)
    assert np.all(end.u == 0.0)
    assert trace.column("E_total")[-1] == 0.0


def run_verlet(cfg, u0):
    """The Verlet oracle's run of cfg from u0 at rest, shaped like run_single's."""
    return run_single(lambda c: (Verlet(c), WaveState(c.grid, u0, np.zeros_like(u0), 0.0)),
                      cfg)


def test_methods_agree_at_small_dt():
    cfg, u0 = make_config(T=0.25, dt=0.02 * 8.0 / 128)
    (end, _, _), (oracle, _, _) = run_single(starting(u0), cfg), run_verlet(cfg, u0)
    assert np.max(np.abs(end.u - oracle.u)) < 1e-6


def test_impulse_agrees_with_verlet_oracle_in_3d():
    grid = GridSpec(3, 16, 8.0)
    u0 = bump_field(grid, 0.5, 2.5)
    cfg = RunSchedule(grid, from_selection("defocusing_exp:m=1"), 0.005, 0.25,
                      diagnostics_stride=5)
    (end, trace, _), (oracle, oracle_trace, _) = run_single(starting(u0), cfg), run_verlet(cfg, u0)
    # verlet's own O(dt^2) error sets the scale: about 3e-8 on u, 3e-5 on E
    assert np.max(np.abs(end.u - oracle.u)) < 1e-6
    assert np.max(np.abs(end.ut - oracle.ut)) < 1e-5
    for name in ("E_total", "E_kinetic", "E_gradient", "E_potential"):
        ours, ref = trace.column(name), oracle_trace.column(name)
        assert np.max(np.abs(ours - ref)) < 1e-4 * np.max(np.abs(ref)), name


def test_impulse_costs_two_transforms_per_step_and_one_per_record(monkeypatch):
    calls = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    # slabs of 4 lines of 16 points: a forward transform of the kick is 4 rfft
    # calls, one per slab, and d - 1 in-place fft calls
    monkeypatch.setattr(field_core, "_BLOCK", 64)
    slabs = 4
    grid = GridSpec(2, 16, 8.0)
    u0 = bump_field(grid, 0.5, 2.0)
    dt = 0.05
    cfg = RunSchedule(grid, from_selection("defocusing_exp:m=1"), dt, 10 * dt,
                      diagnostics_stride=3)
    _, trace, _ = run_single(starting(u0), cfg)
    records = len(trace.rows)
    assert cfg.steps() == 10 and records == 5
    # three forward transforms set up the spectral state from (u0, u1): two
    # rfftn and the kick's; a step makes one forward (the kick) and one
    # inverse (irfftn's d - 1 per-axis ifft calls and one irfft). The trace's
    # energies come from the half spectra, so a plain run's records cost none.
    kicks = 1 + cfg.steps()
    assert calls.count("rfftn") == 2
    assert calls.count("rfft") == slabs * kicks
    assert calls.count("fft") == (grid.d - 1) * kicks
    assert calls.count("irfft") == cfg.steps()
    assert calls.count("ifft") == (grid.d - 1) * cfg.steps()
    assert len(calls) == 2 + (slabs + grid.d - 1) * kicks + grid.d * cfg.steps()

    class ReadsVelocity:
        def observe(self, ref):
            ref.ut

        def result(self):
            return None

    calls.clear()
    integrate([member(cfg, u0)], cfg, [ReadsVelocity()])
    # an observer that reads the physical u_t costs one inverse transform
    assert calls.count("irfft") == cfg.steps() + records
    assert len(calls) == (2 + (slabs + grid.d - 1) * kicks + grid.d * cfg.steps()
                          + grid.d * records)


def test_impulse_exact_on_nearly_linear_problem():
    # cubic force at amplitude 1e-8 is negligible, so the split flow is the
    # exact linear propagator and energy drift sits at rounding level
    cfg, u0 = make_config(amplitude=1e-8, T=1.0, spec=from_selection("pure_power:p=3"))
    _, trace, _ = run_single(starting(u0), cfg)
    E = trace.column("E_total")
    assert np.max(np.abs(E - E[0])) / abs(E[0]) < 1e-12


def test_energy_drift_quarters_under_dt_halving():
    drifts = []
    for factor in (0.25, 0.125):
        cfg, u0 = make_config(N=128, T=1.0, dt=factor * 8.0 / 128)
        _, trace, _ = run_single(starting(u0), cfg)
        E = trace.column("E_total")
        drifts.append(np.max(np.abs(E - E[0])) / abs(E[0]))
    assert 3.0 < drifts[0] / drifts[1] < 5.0


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
    cfg, u0 = make_config(N=64, amplitude=8.0, T=4.0, spec=focusing,
                          dt=0.25 * 8.0 / 64, diagnostics_stride=10 ** 9)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        run_single(starting(u0), cfg)
    assert info.value.t_last >= 0.0


def test_trace_columns_and_csv():
    cfg, u0 = make_config(T=0.25, diagnostics_stride=4)
    _, trace, _ = run_single(starting(u0), cfg)
    assert trace.columns == ("t", "E_total", "E_kinetic", "E_gradient",
                             "E_potential", "leakage", "tail", "sup_norm")
    csv = trace.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == ",".join(trace.columns)
    assert len(lines) == len(trace.rows) + 1
    assert np.max(trace.column("leakage")) >= 0.0


@pytest.mark.parametrize("kind", ["wave", "nls"])
def test_integrate_keeps_the_largest_boundary_shares_of_the_trace(kind):
    grid = GridSpec(1, 64, 8.0)
    if kind == "wave":
        # the wave reaches the shell at 3L/8 = 3 after t = 2
        u0 = bump_field(grid, 0.5, 1.0)
        cfg = RunSchedule(grid, from_selection("oscillating_sin:q=1"), 0.25 * grid.h, 2.5)
        start = starting(u0)
    else:
        u0 = bump_field(grid, 0.5, 1.0).astype(complex)
        cfg = RunSchedule(grid, from_selection("nls_cubic"), 1e-3, 0.2)
        start = lambda c: nls_integrator.member(c, u0)  # noqa: E731
    _, trace, boundary = run_single(start, cfg)
    assert boundary == Boundary(max(trace.column("leakage")), max(trace.column("tail")))
    assert boundary.leakage > 0.0 and boundary.tail > 0.0
    assert boundary.reached == (boundary.leakage > max(field_core.LEAKAGE_LIMIT, boundary.tail))


def test_boundary_rule_weighs_the_shell_against_the_limit_and_the_tail():
    assert Boundary(2e-6, 1e-7).reached
    assert not Boundary(2e-6, 1e-5).reached  # the shell holds the spectral tail
    assert not Boundary(5e-7, 0.0).reached   # below LEAKAGE_LIMIT
    assert not Boundary(0.0, 0.0).reached


def test_trace_column_lookup_errors():
    trace = DiagnosticTrace(("t", "x"))
    trace.add(0.0, 1.0)
    assert trace.column("x") == [1.0]
    with pytest.raises(ValueError):
        trace.column("missing")


def weak_identity(cfg_and_u0):
    cfg, u0 = cfg_and_u0
    _, (report,), _ = integrate([member(cfg, u0)], cfg, [WeakIdentity(cfg.grid)])
    return report


def test_weak_identity_residual_small_and_needs_snapshots():
    assert weak_identity(make_config(N=256, T=1.0, diagnostics_stride=1)).holds
    with pytest.raises(ValueError):
        weak_identity(make_config(T=0.05))


def test_weak_identity_records_make_no_complex_transform(monkeypatch, tmp_path):
    # |grad u|^2 comes from the record's gradient energy; a full fftn of u per
    # record made 129 of a default identity-check's transforms
    calls = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **k: calls.append(1) or fftn(*a, **k))
    cfg = parse_config("nonlinearity = defocusing_exp:m=1\n", "identity-check")
    assert run_experiment(cfg, str(tmp_path)).outcome == "ok"
    assert calls == []
    # the Verlet oracle's records read their gradient energy too; its
    # leapfrog error leaves a larger residual than the impulse stepper's
    # (1.4e-4 here, against 2.1e-6)
    cfg, u0 = make_config(N=256, T=1.0, diagnostics_stride=1)
    start = WaveState(cfg.grid, u0, np.zeros_like(u0), 0.0)
    _, (report,), _ = integrate([(Verlet(cfg), start)], cfg, [WeakIdentity(cfg.grid)])
    assert report.residual < 1e-3


def test_run_ends_at_T_with_dt_at_most_the_one_asked_for():
    asked = 0.25 * 8.0 / 128
    # T / dt = 44.34: 44 steps of the asked dt would stop at t = 0.6875
    cfg, u0 = make_config(T=44.34 * asked, dt=asked)
    end, trace, _ = run_single(starting(u0), cfg)
    assert cfg.steps() == 45 and cfg.step() <= asked
    assert end.t == trace.column("t")[-1] == pytest.approx(cfg.T, rel=1e-14)
    # a T far below dt is one step of dt = T, not one step of the asked dt
    short, u0 = make_config(T=1e-9, dt=asked)
    end, _, _ = run_single(starting(u0), short)
    assert short.steps() == 1 and end.t == pytest.approx(1e-9, rel=1e-14)


def test_snapshot_times_cover_final_time():
    cfg, u0 = make_config(T=0.5)
    end, trace, _ = run_single(starting(u0), cfg)
    times = trace.column("t")
    assert times[0] == 0.0 and len(times) == len(trace.rows)
    assert end.t == times[-1] == pytest.approx(0.5, abs=cfg.dt)
    assert end.state.is_finite()


@pytest.mark.parametrize("T, stride", [(0.5, 0), (0.5, 1), (0.5, 7), (0.5, 64), (0.5, 10 ** 9),
                                       (1e-9, 0), (44.34 * 0.25 * 8.0 / 128, 5)])
def test_schedule_counts_the_records_integrate_makes(T, stride):
    cfg, u0 = make_config(T=T, diagnostics_stride=stride)
    _, trace, _ = run_single(starting(u0), cfg)
    assert len(trace.rows) == cfg.records()


def test_wave_run_holds_one_state_per_member():
    # the step overwrites its state's spectra; a step that allocated a
    # second state measured 95.4 bytes per grid point here
    grid = GridSpec(3, 32, 8.0)
    u0 = bump_field(grid, 0.5, 1.5)
    cfg = RunSchedule(grid, from_selection("defocusing_exp:m=1"),
                      0.25 * grid.h / np.sqrt(3), 0.5)
    run_single(starting(u0), cfg)  # warm the grid's cached arrays
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        run_single(starting(u0), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / grid.N ** grid.d <= 80.0


def test_wave_record_allocates_at_most_one_field_and_a_third():
    # the energies evaluate F a block at a time (0.51 fields here, one block
    # of field_core._BLOCK points), and the Parseval sums, the leakage and the
    # sup norm allocate none. With a new array per square, a gathered shell
    # and |u| it measured 2.05 fields, and 1.02 with a potential density
    grid = GridSpec(3, 32, 8.0)
    cfg = RunSchedule(grid, from_selection("defocusing_exp:m=1"),
                      0.25 * grid.h / np.sqrt(3), 0.5)
    stepper, state = member(cfg, bump_field(grid, 0.5, 1.5))

    def record():
        rec = Record(stepper, state)
        rec.energy
        DiagnosticTrace().observe(rec)

    record()  # warm the cached energy multipliers
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        record()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / (8 * grid.N ** grid.d) <= 1.3


def _traced_peak(fn):
    """fn()'s result and the bytes its run allocated at its peak beyond those
    alive when it began."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - entry


def test_a_wave_step_and_its_record_allocate_no_field(monkeypatch):
    # the wave3d benchmark's grid, with small residual slabs. The flow's products
    # and its tables' chunks, expanded on axis 1, go into the spent kick, so a
    # step allocates numpy's buffer for casting the real tables to complex
    # (getbufsize() elements), a slab and a few small objects: 0.06 half
    # spectra. A step with a half-size temporary allocated 0.58 here, and a
    # record that built the potential density one field
    monkeypatch.setattr(field_core, "_BLOCK", 1 << 10)
    grid = GridSpec(3, 64, 10.0)
    cfg = RunSchedule(grid, from_selection("defocusing_exp:m=1"),
                      0.25 * grid.h / np.sqrt(3), 1.0)
    stepper, state = member(cfg, bump_field(grid, 0.5, 1.5))

    def record():
        rec = Record(stepper, state)
        rec.energy
        DiagnosticTrace().observe(rec)

    record()  # the first record caches the energy multipliers
    state = stepper(state)  # the first step makes the opening kick
    state, step_bytes = _traced_peak(lambda: stepper(state))
    half = 16 * 64 * 64 * 33  # the complex half spectrum
    assert step_bytes < 0.25 * half
    assert stepper.cos.shape == (33, 33, 33)
    _, record_bytes = _traced_peak(record)
    # F's block temporaries, a few blocks of field_core._BLOCK points, and the
    # gradient weight's chunk, expanded a row at a time here
    assert record_bytes <= 0.2 * 8 * grid.N ** grid.d


def test_wave3d_run_makes_two_transforms_per_step_and_three_at_its_start(monkeypatch):
    # the wave3d workload's run: 45 steps and 46 records, and 93 n-D
    # transforms: 2 rfftn at set-up, 46 kicks (the first step's opening kick
    # and one per step) and 45 inverses. A kick is one rfft per slab of whole
    # last-axis lines and 2 fft, an inverse 2 ifft and an irfft; no record
    # transforms
    calls = {}
    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    steps = []
    step = wave_integrator._SpectralImpulse.__call__
    monkeypatch.setattr(wave_integrator._SpectralImpulse, "__call__",
                        lambda self, s: steps.append(s.t) or step(self, s))
    cfg = parse_config("nonlinearity = defocusing_exp:m=1\nd = 3\nN = 64\nL = 10\n"
                       "radius = 1.5\nT = 1\n", "simulate-wave")
    outcome, files = runner._do_simulate(cfg)
    records = files["trace.csv"].decode().count("\n") - 1
    assert outcome == "ok" and (len(steps), records) == (45, 46)
    kicks, inverses = 46, 45
    slabs = 64 ** 3 // (field_core._BLOCK // 64 * 64)
    assert calls == {"rfftn": 2, "rfft": slabs * kicks, "fft": 2 * kicks,
                     "ifft": 2 * inverses, "irfft": inverses}
    assert calls["rfftn"] + kicks + inverses == 93


def test_member_makes_no_kick_and_members_share_the_flow_tables():
    grid = GridSpec(3, 32, 10.0)
    cfg = RunSchedule(grid, from_selection("defocusing_exp:m=1"), stable_dt(grid.h, 3), 1.0)
    u0 = bump_field(grid, 0.5, 1.5)
    first, _ = member(cfg, u0)  # builds the flow tables
    (stepper, state), member_bytes = _traced_peak(lambda: member(cfg, u0))
    assert state.rh is None
    # u, the half spectra of u and u_t, and the transforms' transients: 2.95
    # half spectra; a member that made the kick and its own tables held 5.2
    half = 16 * 32 * 32 * 17
    assert member_bytes < 3.25 * half
    for ours, theirs in zip((stepper.cos, stepper.sin_om, stepper.om_sin),
                            (first.cos, first.sin_om, first.om_sin)):
        assert ours is theirs and not ours.flags.writeable
    other = RunSchedule(grid, cfg.spec, 0.5 * cfg.dt, 1.0)
    assert member(other, u0)[0].cos is not first.cos


def test_residual_does_not_depend_on_the_block_size(monkeypatch):
    # at d = 3, 256 lines of 16: blocks of 1000 make slabs of 62 lines and a last
    # one of 8; blocks of 10, shorter than a line, make slabs of one line. At
    # d = 1 the slab is the whole line, longer than the block
    spec = from_selection("defocusing_exp:m=1")
    for d, N, block in ((3, 16, 1000), (3, 16, 10), (1, 256, 100)):
        grid = GridSpec(d, N, 8.0)
        u0 = bump_field(grid, 0.7, 2.5) * np.random.default_rng(2).uniform(-1, 1, grid.shape)
        cfg = RunSchedule(grid, spec, stable_dt(grid.h, d), 0.5)
        monkeypatch.setattr(field_core, "_BLOCK", block)
        stepper, state = member(cfg, u0)
        assert stepper.mass == 2.0
        # the half kick, 0.5 dt times the residual's spectrum, which the first
        # step makes from the state's u
        kick = stepper._kick(state.u, np.empty(stepper.half_shape, complex))
        expected = 0.5 * stepper.dt * np.fft.rfftn(spec.f(u0) - stepper.mass * u0)
        assert np.array_equal(kick.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("d, N, blocks", [(1, 256, (10, 20, 1 << 20)),
                                          (3, 16, (10, 300, 1 << 20))])
def test_flow_does_not_depend_on_the_chunk_size(monkeypatch, d, N, blocks):
    # the flow takes whole axis-0 rows of about field_core._BLOCK points a
    # chunk, at most 2/7 of the kick's rows: at d = 3, N = 16 a row is 144
    # points, so the blocks make chunks of one row, two and four; at d = 1 a
    # row is one point, so chunks of 10, 20 and 36
    grid = GridSpec(d, N, 8.0)
    u0 = bump_field(grid, 0.7, 2.5) * np.random.default_rng(3).uniform(-1, 1, grid.shape)
    cfg = RunSchedule(grid, from_selection("defocusing_exp:m=1"), stable_dt(grid.h, d), 0.5)
    states = []
    for block in blocks:
        monkeypatch.setattr(field_core, "_BLOCK", block)
        stepper, state = member(cfg, u0)
        for _ in range(3):
            state = stepper(state)
        states.append(state)
    for state in states[1:]:
        for name in ("u", "uh", "uth", "rh"):
            got, want = getattr(state, name), getattr(states[0], name)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["defocusing_exp:m=1", "pure_power:p=3"])
def test_kick_of_one_non_finite_entry_is_non_finite_everywhere(d, bad, name):
    # a state is judged by its u_t alone: the step's closing kick of a u with
    # one non-finite entry must leave no entry of u_t finite
    grid = GridSpec(d, 16, 8.0)
    cfg = RunSchedule(grid, from_selection(name), stable_dt(grid.h, d), 0.5)
    stepper, state = member(cfg, bump_field(grid, 0.7, 2.5))
    for where in (0, grid.N ** d // 2 + 3, -1):
        u = state.u.copy()
        u.reshape(-1)[where] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            kick = stepper._kick(u, np.empty(stepper.half_shape, complex))
        assert not np.isfinite(kick).any()
    # so a step from a spectrum with one non-finite entry ends non-finite
    state.uh.reshape(-1)[1] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        assert not stepper(state).is_finite()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_at_rest_member_equals_a_zero_field_bitwise(d):
    # rfftn of zeros has -0.0 imaginary parts; the broadcast zero keeps them
    grid = GridSpec(d, 16, 8.0)
    u0 = bump_field(grid, 0.5, 2.0)
    cfg = RunSchedule(grid, from_selection("defocusing_exp:m=1"), 0.05, 0.5)
    (stepper, rest), (_, zero) = member(cfg, u0), member(cfg, u0, np.zeros(grid.shape))
    assert rest.u is not u0 and np.signbit(rest.uth.imag).any()
    assert rest.rh is None and zero.rh is None
    for ours, ref in ((rest.u, zero.u), (rest.uh, zero.uh), (rest.uth, zero.uth)):
        assert np.array_equal(ours.view(np.int64), ref.view(np.int64))
    # the first step makes the opening kick from each state's u
    rest, zero = stepper(rest), stepper(zero)
    for ours, ref in ((rest.u, zero.u), (rest.uh, zero.uh), (rest.uth, zero.uth),
                      (rest.rh, zero.rh)):
        assert np.array_equal(ours.view(np.int64), ref.view(np.int64))


def _full_tables(grid, mass, dt):
    """The impulse stepper's cos, sin_om and om_sin on the whole rfftn half spectrum."""
    om = np.sqrt(grid.wavenumber_sq()[..., :grid.N // 2 + 1] + mass)
    return (np.cos(om * dt),
            np.where(om > 0, np.sin(om * dt) / np.where(om > 0, om, 1.0), dt),
            om * np.sin(om * dt))


def _unmirror(table, n):
    """The table a mirrored one stands for, on all n rows of every axis but the last."""
    rows = np.r_[0:n // 2 + 1, n // 2 - 1:0:-1]
    for axis in range(table.ndim - 1):
        if table.shape[axis] < n:
            table = np.take(table, rows, axis=axis)
    return table


# at d = 3, N = 16 the spent kick limits the flow's chunk to 4 rows
@pytest.mark.parametrize("d, N", [(1, 64), (2, 32), (3, 16), (3, 32)])
@pytest.mark.parametrize("block", [1 << 10, 1 << 14, 1 << 16])
def test_impulse_step_matches_an_allocating_step(monkeypatch, d, N, block):
    monkeypatch.setattr(field_core, "_BLOCK", block)
    grid = GridSpec(d, N, 8.0)
    u0 = bump_field(grid, 0.7, 2.0)
    u1 = bump_field(grid, 0.3, 1.5) * np.random.default_rng(1).uniform(-1, 1, grid.shape)
    cfg = RunSchedule(grid, from_selection("defocusing_exp:m=2"), stable_dt(grid.h, d), 0.5)
    stepper, state = member(cfg, u0, u1)
    cos, sin_om, om_sin = _full_tables(grid, stepper.mass, stepper.dt)
    half_dt = 0.5 * stepper.dt
    uh, uth = state.uh.copy(), state.uth.copy()
    kick = half_dt * np.fft.rfftn(cfg.spec.f(u0) - stepper.mass * u0)
    for _ in range(5):
        # the step as it reads with a new array per operation and whole tables
        uth = uth - kick
        uh, uth = cos * uh + sin_om * uth, cos * uth - om_sin * uh
        u = np.fft.irfftn(uh, s=grid.shape, axes=range(d))
        kick = half_dt * np.fft.rfftn(cfg.spec.f(u) - stepper.mass * u)
        uth = uth - kick
        state = stepper(state)
    # bit for bit, signed zeros included; the stored kick is 0.5 dt times the
    # residual spectrum
    for ours, ref in ((state.u, u), (state.uh, uh), (state.uth, uth), (state.rh, kick)):
        assert np.array_equal(ours.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("d, N, L", [(1, 16, 8.0), (1, 256, 16.0), (2, 8, 3.0), (2, 64, 10.0),
                                     (3, 16, 8.0), (3, 32, 10.0)])
def test_every_stepper_table_equals_its_mirror(d, N, L):
    # |xi|^2 is bitwise even in each frequency, so each table kept on rows
    # 0..N/2 of every axis but the last stands for the whole one
    grid = GridSpec(d, N, L)
    ksq = grid.table_wavenumber_sq(half=True)
    assert ksq.shape == (N // 2 + 1,) * d
    assert np.array_equal(_unmirror(ksq, N), grid.wavenumber_sq()[..., :N // 2 + 1])
    assert np.array_equal(_unmirror(grid.table_wavenumber_sq(half=False), N),
                          grid.wavenumber_sq())
    cfg = RunSchedule(grid, from_selection("defocusing_exp:m=1"), 0.25 * grid.h / np.sqrt(d), 1.0)
    stepper, _ = member(cfg, bump_field(grid, 0.5, 1.0))
    ours = (stepper.cos, stepper.sin_om, stepper.om_sin)
    for table, ref in zip(ours, _full_tables(grid, stepper.mass, stepper.dt)):
        assert table.shape == ksq.shape
        assert np.array_equal(_unmirror(table, N).view(np.int64), ref.view(np.int64))
    prop = nls_integrator._propagator(grid, 0.01)
    ref = np.exp(1j * grid.wavenumber_sq() * 0.01)
    assert prop.shape == (N // 2 + 1,) * (d - 1) + (N,)
    assert np.array_equal(_unmirror(prop, N).view(np.int64), ref.view(np.int64))


def test_d3_flow_tables_and_energy_weight_hold_four_quarter_tables():
    # at d = 3 each table keeps rows 0..N/2 of axes 0 and 1 of the half
    # spectrum: 4 x 33^3 x 8 B = 1.10 MiB at N = 64, where tables kept on
    # axis 0 only held 2.13 MiB
    grid = GridSpec(3, 64, 10.0)
    cfg = RunSchedule(grid, from_selection("defocusing_exp:m=1"), stable_dt(grid.h, 3), 1.0)
    stepper, _ = member(cfg, bump_field(grid, 0.5, 1.5))
    tables = (stepper.cos, stepper.sin_om, stepper.om_sin,
              field_core._parseval_multiplier(grid, True))
    assert sum(table.nbytes for table in tables) == 4 * 33 ** 3 * 8
