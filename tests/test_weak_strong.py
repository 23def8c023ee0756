"""Discrepancy functionals, certificate fitting, and the truncation ladder."""

import tracemalloc
import weakref
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

from supercrit.assumption_lab import find_convexity_shift
from supercrit.field_core import GridSpec, bump_field, l2_norm_sq, parseval_norm_sq
from supercrit import field_core, stepping, weak_strong
from supercrit.nls_integrator import member as nls_member
from supercrit.nonlinearity import density, from_selection, two_star
from supercrit.stepping import RunSchedule, integrate, run_single
from supercrit.wave_integrator import member as wave_member
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
    cfg = RunSchedule(grid, spec, 0.25 * grid.h, T)
    return gronwall_ladder(cfg, u0, pert, ladder)[0]


def force_samples(cfg, u0):
    _, (samples,), _ = integrate([wave_member(cfg, u0)], cfg, [ForceSamples(cfg)])
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


def test_wave_ladder_reader_makes_no_forward_transform(monkeypatch):
    # ||grad w||^2 comes from the members' half spectra by Parseval; an fftn of
    # w per member and record made 141 in a weak-strong run at d = 2, N = 64, T = 1
    calls = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **k: calls.append(1) or fftn(*a, **k))
    traces = wave_ladder(ladder=(1e-2, 1e-3))
    assert calls == [] and len(traces) == 2


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
    cfg = RunSchedule(grid, spec, 1e-3, 0.25)
    members = [nls_member(cfg, u0), nls_member(cfg, u0 + 1e-2 * pert)]
    _, (pieces,), _ = integrate(members, cfg, [NlsGronwall(spec, grid)])
    (tr,) = pieces.traces(A)
    assert tr.remainder_min is not None
    assert tr.remainder_min >= -1e-9
    assert tr.G[0] == pytest.approx(
        sum(tr.G[:1]), rel=1e-12
    )  # sanity: scalar access


def test_wave_ladder_evaluates_the_potential_once_per_state_and_record():
    # J reads the members' potential integrals from their energies; a record
    # that also built each member's potential density evaluated F twice
    grid = GridSpec(1, 128, 8.0)
    base = from_selection("defocusing_exp:m=1")
    points = []

    def counted(u):
        points.append(np.size(u))
        return base.F(u)

    cfg = RunSchedule(grid, replace(base, F=counted), 0.25 * grid.h, 0.25)
    ladder = (1e-1, 1e-2)
    gronwall_ladder(cfg, bump_field(grid, 0.5, 1.0), bump_field(grid, 1.0, 0.8), ladder)
    states = 1 + len(ladder)
    assert sum(points) / (grid.N * states * cfg.records()) == 1.0


def test_nls_ladder_evaluates_the_potential_a_block_at_a_time(monkeypatch):
    # the energies sum F(|u|^2/2) one block at a time and the defect reads
    # them, so no record evaluates the potential on a whole field
    monkeypatch.setattr(field_core, "_BLOCK", 512)
    shift = weak_strong.find_convexity_shift
    monkeypatch.setattr(weak_strong, "find_convexity_shift",
                        lambda *args, **kwargs: shift(*args, n_random=1000, **kwargs))
    grid = GridSpec(2, 64, 16.0)
    base = from_selection("nls_cubic")
    sizes = []

    def counted(s):
        sizes.append(np.size(s))
        return base.Fs(s)

    cfg = RunSchedule(grid, replace(base, Fs=counted), 0.1, 0.2)
    u0 = bump_field(grid, 0.5, 2.0).astype(complex)
    gronwall_ladder(cfg, u0, bump_field(grid, 1.0, 1.5), (1e-1, 1e-2))
    assert grid.N ** grid.d > 512 and sizes and max(sizes) <= 512


def test_nls_gronwall_evaluates_curvature_once_per_record():
    grid = GridSpec(1, 64, 16.0)
    base = from_selection("nls_cubic")
    calls = []

    def counted(s):
        calls.append(np.size(s))
        return base.Fsprime2(s)

    spec = replace(base, Fsprime2=counted)
    u0 = bump_field(grid, 0.5, 2.0).astype(complex)
    pert = bump_field(grid, 1.0, 1.5)
    cfg = RunSchedule(grid, spec, 1e-2, 0.05)
    members = [nls_member(cfg, u0)] + [nls_member(cfg, u0 + eps * pert)
                                       for eps in (1e-1, 1e-2, 1e-3)]
    _, (pieces,), _ = integrate(members, cfg, [NlsGronwall(spec, grid)])
    # one Fs'' of the reference per record, shared by the three members
    assert calls == [grid.N] * len(pieces.times)


class _AllocatingNlsGronwall(NlsGronwall):
    """NlsGronwall's rows with a new array per operation and np.sum's sums, the
    defect from its pointwise density: the oracle of its buffered observe.

    ``scales`` keeps per record and member the integral of |F(v)| + |F(u)|, the
    size of the potential integrals whose difference the defect is."""

    def __init__(self, spec, grid):
        super().__init__(spec, grid)
        self.scales = []

    def observe(self, ref):
        spec, grid = self.spec, self.grid
        u, fu, dtu = ref.u, ref.force, ref.ut
        Pu = spec.potential(u)
        # Fs'' at the density the observer reads: Fs'' keeps the relative
        # accuracy of s as s -> 0, so the ulps by which 0.5 |u|^2 differs move
        # the nearly cancelling drift rate by up to 2.3e-9 of itself here
        curv = spec.Fsprime2(density(u))
        h, n = grid.cell_volume, grid.N ** grid.d
        self.rows.append(rows := [])
        self.scales.append(scales := [])

        def read(rec):
            w = rec.u - u
            Pv = spec.potential(rec.u)
            defect = Pv - Pu - np.real(fu * np.conj(w))
            scales.append(h * float(np.sum(np.abs(Pv) + np.abs(Pu))))
            dfw = ref.state.phase * w + curv * np.real(u * np.conj(w)) * u
            drift = rec.force - fu - dfw
            rows.append((
                h / n * float(np.sum(grid.wavenumber_sq() * np.abs(np.fft.fftn(w)) ** 2)),
                h * float(np.sum(np.abs(w) ** 2)),
                h * float(np.sum(defect)),
                -h * float(np.sum(np.real(drift * np.conj(dtu)))),
            ))
        return read


@pytest.mark.parametrize("name", ["nls_cubic", "nls_coercive_exp"])
def test_nls_gronwall_buffers_give_the_allocating_rows(name):
    grid = GridSpec(2, 32, 16.0)
    spec = from_selection(name)
    u0 = bump_field(grid, 0.8, 4.0).astype(complex)
    pert = bump_field(grid, 1.0, 3.0) * np.exp(1j * grid.coords()[0])
    cfg = RunSchedule(grid, spec, 0.05, 0.5)
    members = [nls_member(cfg, u0)] + [nls_member(cfg, u0 + eps * pert)
                                       for eps in (1e-1, 1e-2, 1e-3)]
    observers = [NlsGronwall(spec, grid), _AllocatingNlsGronwall(spec, grid)]
    _, (ours, ref), _ = integrate(members, cfg, observers)
    assert len(ours.rows) == cfg.records() and len(ours.rows[0]) == 3
    for rows, expected, scale in zip(zip(*ours.rows), zip(*ref.rows), zip(*ref.scales)):
        got, want = np.array(rows), np.array(expected)
        # the defect is a difference of the members' potential integrals, so
        # it keeps their absolute rounding, not digits relative to itself
        # (1.5e-16 of the integrals measured here, 4.3e-11 of the defect itself
        # on nls_cubic at eps = 1e-3)
        assert np.all(np.abs(got[:, 2] - want[:, 2]) <= 1e-15 * np.array(scale))
        np.testing.assert_allclose(got[:, :2], want[:, :2], rtol=1e-13)
        # the drift rate pairs nearly cancelling fields, so its sums keep fewer
        # digits (2.2e-13 measured here)
        np.testing.assert_allclose(got[:, 3], want[:, 3], rtol=1e-11)


def test_no_member_state_outlives_the_run_into_the_shift(monkeypatch):
    states = []

    def watched(members, schedule, observers):
        states.extend(weakref.ref(s) for _, s in members)
        finals, results, boundary = stepping.integrate(members, schedule, observers)
        states.extend(weakref.ref(r.state) for r in finals)
        return finals, results, boundary

    shift = weak_strong.find_convexity_shift

    def checked_shift(*args, **kwargs):
        # the shift's sample plan is the run's largest allocation
        assert [ref() for ref in states] == [None] * 8
        return shift(*args, n_random=1000, **kwargs)

    monkeypatch.setattr(weak_strong, "integrate", watched)
    monkeypatch.setattr(weak_strong, "find_convexity_shift", checked_shift)
    grid = GridSpec(1, 64, 16.0)
    u0 = bump_field(grid, 0.5, 2.0).astype(complex)
    cfg = RunSchedule(grid, from_selection("nls_cubic"), 1e-2, 0.05)
    traces, _ = gronwall_ladder(cfg, u0, bump_field(grid, 1.0, 1.5), (1e-1, 1e-2, 1e-3))
    assert len(traces) == 3


def _alive_at_second_record(monkeypatch, observer, extra=list):
    """Spy on observer's records: which of the states of the first record's
    members, and of the weakrefs extra() gives then, are alive at the second."""
    refs, alive, seen = [], [], []
    observe = observer.observe

    def spied(self, ref):
        seen.append(ref.t)
        if len(seen) == 2:
            alive.extend(r() is not None for r in refs)
        read = observe(self, ref)
        if len(seen) > 1:
            return read
        refs.extend(extra())
        refs.append(weakref.ref(ref.state))
        if read is None:
            return None

        def spied_read(rec):
            refs.append(weakref.ref(rec.state))
            return read(rec)
        return spied_read

    monkeypatch.setattr(observer, "observe", spied)
    return alive


def _wave_base(spec="defocusing_exp:m=1", amplitude=0.5):
    """A wave run schedule and its u0."""
    grid = GridSpec(1, 64, 16.0)
    cfg = RunSchedule(grid, from_selection(spec), 0.25 * grid.h, 0.1, diagnostics_stride=1)
    return cfg, bump_field(grid, amplitude, 2.0)


def _nls_base():
    """An NLS run schedule and its u0."""
    grid = GridSpec(1, 64, 16.0)
    cfg = RunSchedule(grid, from_selection("nls_cubic"), 1e-2, 0.05, diagnostics_stride=1)
    return cfg, bump_field(grid, 0.5, 2.0).astype(complex)


@pytest.mark.parametrize("member, base", [(wave_member, _wave_base), (nls_member, _nls_base)],
                         ids=["wave", "nls"])
def test_single_run_releases_its_initial_state(monkeypatch, member, base):
    alive = _alive_at_second_record(monkeypatch, stepping.DiagnosticTrace)
    cfg, u0 = base()
    run_single(lambda c: member(c, u0), cfg)
    assert alive == [False]


def _ladder(base):
    cfg, u0 = base()
    return gronwall_ladder(cfg, u0, bump_field(cfg.grid, 1.0, 1.5), (0.1, 0.01))


@pytest.mark.parametrize("observer, member, fresh, run", [
    (weak_strong.WaveGronwall, "wave_member", 2, lambda: _ladder(_wave_base)),
    (NlsGronwall, "nls_member", 2, lambda: _ladder(_nls_base)),
    (weak_strong._LadderDiscrepancy, "wave_member", 0,
     lambda: appendix_construction(*_wave_base("oscillating_sin:q=1", 3.0), (1.0, 2.0, 4.0))),
], ids=["wave-ladder", "nls-ladder", "appendix"])
def test_ladder_runs_release_every_initial_field(monkeypatch, observer, member, fresh, run):
    calls = []  # a weakref to the u0 of each member call
    build = getattr(weak_strong, member)

    def spied(cfg, u0, *args):
        calls.append(weakref.ref(u0))
        return build(cfg, u0, *args)

    def extra():
        # each u0 + eps * pert a ladder built for a member; the caller's own
        # u0, the first call's, lives on
        data = [ref for ref in calls[1:] if ref() is not calls[0]()]
        assert len(data) == fresh
        return data

    monkeypatch.setattr(weak_strong, member, spied)
    alive = _alive_at_second_record(monkeypatch, observer, extra)
    run()
    # every member's initial state, and each built u0 + eps * pert
    assert len(alive) == len(calls) + fresh and not any(alive)


def _derived_fields(rec):
    """Weakrefs to rec and to the fields it has cached that are not its state's
    arrays (a wave record's spectrum is its state's own), keyed by name."""
    state_arrays = [a for a in vars(rec.state).values() if isinstance(a, np.ndarray)]
    fields = {name: weakref.ref(value) for name, value in vars(rec).items()
              if name not in ("u", "state") and isinstance(value, np.ndarray)
              and not any(value is a for a in state_arrays)}
    return {"record": weakref.ref(rec), **fields}


@pytest.mark.parametrize("observer, fields, run", [
    (weak_strong.WaveGronwall, {"ut", "force"}, lambda: _ladder(_wave_base)),
    # the energies sum the potential a block at a time, and the Gronwall terms
    # read its integrals from them, so no record builds a potential density;
    # an NLS member's Gronwall terms transform w in their own buffer, so its
    # record caches no field
    (NlsGronwall, set(), lambda: _ladder(_nls_base)),
    (weak_strong._LadderDiscrepancy, {"force"},
     lambda: appendix_construction(*_wave_base("oscillating_sin:q=1", 3.0), (1.0, 2.0, 4.0))),
], ids=["wave-ladder", "nls-ladder", "appendix"])
def test_a_record_holds_one_member_beside_the_reference(monkeypatch, observer, fields, run):
    # when the observer reads member k, member k - 1's record and its derived
    # fields are gone, and when it observes a record, so are the last record's
    last_ref, last_member, alive, names = {}, {}, [], set()
    observe = observer.observe

    def spied(self, ref):
        alive.extend(name for name, r in {**last_ref, **last_member}.items() if r() is not None)
        last_ref.clear()
        last_member.clear()
        read = observe(self, ref)

        def spied_read(rec):
            alive.extend(name for name, r in last_member.items() if r() is not None)
            read(rec)
            last_ref.update({f"ref.{k}": r for k, r in _derived_fields(ref).items()})
            last_member.clear()
            last_member.update(_derived_fields(rec))
            names.update(last_member)
        return spied_read

    monkeypatch.setattr(observer, "observe", spied)
    run()
    assert names == {"record"} | fields
    assert alive == []


class _Recorded(Exception):
    pass


class _RecordOnly:
    """A stepper that ends the run at its first step, so that integrate makes
    one record: every other attribute is the wrapped stepper's."""

    def __init__(self, stepper):
        self.stepper = stepper

    def __getattr__(self, name):
        return getattr(self.stepper, name)

    def __call__(self, state):
        raise _Recorded


def test_nls_ladder_record_holds_one_member_beside_the_reference():
    # one record of a reference and three members: the energies and the
    # Gronwall rows: 7.1 complex fields, 8.1 with a spectrum in each member's
    # record. With every member's fields alive at once it measured 15.1
    grid = GridSpec(2, 64, 40.0)
    spec = from_selection("nls_coercive_exp")
    u0 = bump_field(grid, 0.5, 5.0).astype(complex)
    pert = bump_field(grid, 1.0, 4.0)
    cfg = RunSchedule(grid, spec, 0.005, 0.5)
    members = [nls_member(cfg, u0)] + [nls_member(cfg, u0 + eps * pert)
                                       for eps in (1e-1, 1e-2, 1e-3)]
    members = [(_RecordOnly(stepper), state) for stepper, state in members]

    def record():
        observer = NlsGronwall(spec, grid)
        with pytest.raises(_Recorded):
            integrate(members, cfg, [observer])
        return observer

    record()  # warm the grid's cached arrays
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        observer = record()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / (16 * grid.N ** grid.d) <= 7.5
    assert len(observer.rows) == 1 and len(observer.rows[0]) == 3


def test_nls_gradient_discrepancy_is_closer_to_long_double_than_the_spectra_difference():
    # ||grad w||^2 of the eps = 1e-3 member's first row, from fftn(w), against
    # the spectra difference v_hat - u_hat, which keeps the rounding of both
    # spectra; the reference is taken in long double from the same fields
    grid = GridSpec(2, 128, 40.0)
    spec = from_selection("nls_coercive_exp")
    u0 = bump_field(grid, 1.0, 5.0) * np.exp(0.3j * grid.coords()[0])
    v0 = u0 + 1e-3 * bump_field(grid, 1.0, 4.0)
    cfg = RunSchedule(grid, spec, 0.005, 0.5)
    observer = NlsGronwall(spec, grid)
    with pytest.raises(_Recorded):
        integrate([(_RecordOnly(stepper), state)
                   for stepper, state in (nls_member(cfg, u0), nls_member(cfg, v0))],
                  cfg, [observer])
    got = observer.rows[0][0][0]
    ksq = grid.wavenumber_sq().astype(np.longdouble)
    w = v0.astype(np.clongdouble) - u0.astype(np.clongdouble)
    exact = grid.cell_volume / grid.N ** grid.d * np.sum(ksq * np.abs(np.fft.fftn(w)) ** 2)
    spectra = parseval_norm_sq(np.fft.fftn(v0) - np.fft.fftn(u0), grid, gradient=True)
    assert abs(float((got - exact) / exact)) < abs(float((spectra - exact) / exact)) / 10.0


def test_nls_ladder_peaks_below_64_bytes_per_point_and_state():
    # a state holds u, phase and the rotation's tangent, 32 bytes per point,
    # and a record adds the reference's spectrum, u_t, force and curvature and
    # one member's three buffers: 58.4 measured at d = 2, N = 128, against
    # 70.4 with a rotation in every state and a spectrum in every member's record
    grid = GridSpec(2, 128, 40.0)
    cfg = RunSchedule(grid, from_selection("nls_coercive_exp"), 0.005, 0.05)
    u0, pert = bump_field(grid, 1.0, 5.0), bump_field(grid, 1.0, 4.0)
    ladder = (1e-3, 1e-2, 1e-1)
    gronwall_ladder(cfg, u0, pert, ladder)  # warm the grid's cached tables
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        gronwall_ladder(cfg, u0, pert, ladder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / (grid.N ** grid.d * (1 + len(ladder))) <= 64.0


def test_runs_leave_the_config_fields_unwritten():
    grid = GridSpec(1, 64, 16.0)
    u0, u1 = bump_field(grid, 0.5, 2.0), bump_field(grid, 0.3, 1.5)
    cfg = RunSchedule(grid, from_selection("defocusing_exp:m=1"), 0.25 * grid.h, 0.1)
    nls_cfg = RunSchedule(grid, from_selection("nls_cubic"), 1e-2, 0.05)
    nls_u0 = (u0 + 1j * u1)
    before = u0.copy(), u1.copy(), nls_u0.copy()
    run_single(lambda c: wave_member(c, u0, u1), cfg)
    gronwall_ladder(cfg, u0, bump_field(grid, 1.0, 1.5), (0.1, 0.01))
    appendix_construction(replace(cfg, spec=from_selection("oscillating_sin:q=1")), u0,
                          (1.0, 2.0, 4.0))
    run_single(lambda c: nls_member(c, nls_u0), nls_cfg)
    for field, copy in zip((u0, u1, nls_u0), before):
        assert np.array_equal(field.view(np.int64), copy.view(np.int64))


def test_ladder_must_be_increasing():
    grid = GridSpec(1, 64, 8.0)
    spec = from_selection("oscillating_sin:q=1")
    u0 = bump_field(grid, 1.0, 1.0)
    base = RunSchedule(grid, spec, 0.25 * grid.h, 0.25)
    with pytest.raises(ValueError):
        appendix_construction(base, u0, (2.0, 1.0, 4.0))
    with pytest.raises(ValueError):
        appendix_construction(base, u0, (1.0, 2.0))


def test_truncation_ladder_discrepancies_decrease():
    grid = GridSpec(1, 128, 8.0)
    spec = from_selection("oscillating_sin:q=1")
    u0 = bump_field(grid, 3.0 * np.e, 1.0)
    base = RunSchedule(grid, spec, grid.h / 16.0, 0.5)
    report, samples, _ = appendix_construction(base, u0, (1.0, 2.0, 4.0))
    # the probe's samples come from the untruncated reference
    final_force = np.abs(spec.f(run_single(lambda c: wave_member(c, u0), base)[0].u))
    assert samples.rows[-1][0] == pytest.approx(np.log(np.sum(final_force ** samples.r)),
                                                rel=1e-13)
    assert report.monotone_l2 and report.monotone_force
    assert report.l2_discrepancy[0] > report.l2_discrepancy[-1]
    # two-sided, the drifts read 8.7e-7, 3.8e-6 and 1.44e-5 (the uncut member
    # drifts as the reference does); one-sided, they read 0, 3.8e-6, 3.8e-6
    assert report.bounded_drift and report.reference_drift > 0.0
    assert all(d <= 2e-5 for d in report.energy_drift)
    d = asdict(report)
    assert d["ladder"] == [1.0, 2.0, 4.0]


def test_ladder_problems_flag_each_check():
    times = np.linspace(0.0, 1.0, 5)
    flat, growing = np.ones(5), np.linspace(1.0, 2.0, 5)

    def trace(G):
        return GronwallTrace(times, G, G, G, G, 0.0, 0.0)

    ladder = (1e-1, 1e-2)
    assert ladder_problems(ladder, [trace(1e-2 * flat), trace(1e-4 * flat)], 1.0) == []
    (g0,) = ladder_problems(ladder, [trace(1e-2 * flat), trace(1e-3 * flat)], 1.0)
    assert "G0/eps^2" in g0
    (spread,) = ladder_problems(ladder, [trace(1e-2 * flat), trace(1e-4 * growing)], 1.0)
    assert "sup G / G0" in spread
    # a zero perturbation carries no discrepancy to scale
    assert len(ladder_problems((0.0, 1e-1), [trace(0.0 * flat), trace(1e-2 * flat)], 1.0)) == 2


def test_ladder_problems_report_a_negative_shifted_defect():
    times = np.linspace(0.0, 1.0, 5)
    flat = np.ones(5)

    def trace(eps, remainder_min):
        G = eps ** 2 * flat
        return GronwallTrace(times, G, G, G, G, 0.0, 0.0, remainder_min=remainder_min)

    ladder = (1e-1, 1e-2)
    # rounding below zero is allowed up to 1e-9 times the box volume (here 10)
    assert ladder_problems(ladder, [trace(1e-1, 0.0), trace(1e-2, -5e-9)], 10.0) == []
    (defect,) = ladder_problems(ladder, [trace(1e-1, 0.0), trace(1e-2, -2e-8)], 10.0)
    assert "shifted defect" in defect and "eps=0.01" in defect


def test_uniform_integrability_probe_slope():
    grid = GridSpec(1, 128, 8.0)
    spec = from_selection("oscillating_sin:q=1")
    u0 = bump_field(grid, 3.0, 1.0)
    cfg = RunSchedule(grid, spec, 0.25 * grid.h, 0.5)
    probe = uniform_integrability_probe(force_samples(cfg, u0))
    assert not probe.vacuous and probe.holds
    # a resolved force's norm barely moves when the grid is coarsened (reads 0.005)
    assert 0.0 <= probe.grid_exponent < 0.05
    assert probe.r == two_star(1) / spec.q


def test_force_samples_keep_scalars_per_record():
    # appendix-construct at d = 1, N = 1024, stride 1: the peak grows by 0.98
    # bytes per point and record, the observers' per-record scalars. Keeping
    # |f(u)| of every record in one (records, points) array for a
    # random-union draw grew it by 8.9
    def peak(steps):
        grid = GridSpec(1, 1024, 8.0)
        dt = 0.25 * grid.h
        base = RunSchedule(grid, from_selection("oscillating_sin:q=1"), dt, steps * dt,
                           diagnostics_stride=1)
        u0 = bump_field(grid, 0.5, 1.0)
        tracemalloc.start()
        try:
            _, samples, _ = appendix_construction(base, u0, (1.0, 2.0, 4.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(samples.rows) == base.records()
        return peak

    peak(2)  # leaves one-time imports and caches untraced
    slope = (peak(112) - peak(16)) / (1024 * 96)
    assert slope < 1.5


def test_force_samples_leave_the_force_and_take_one_field_of_scratch():
    # a later observer of the record (the ladder discrepancy) reads ref.force
    grid = GridSpec(3, 32, 8.0)
    samples = ForceSamples(RunSchedule(grid, from_selection("oscillating_sin:q=1"), 0.1, 1.0))
    force = np.random.default_rng(0).standard_normal(grid.shape)
    before = force.copy()
    samples.observe(SimpleNamespace(t=0.0, force=force))  # leaves one-time imports untraced
    tracemalloc.start()
    try:
        samples.observe(SimpleNamespace(t=1.0, force=force))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(force.view(np.int64), before.view(np.int64))
    # |f|^r on the grid and |fbar|^r on the coarse grid, 1 + 1/8 fields
    assert peak < 1.25 * force.nbytes


def probe_of(name, grid, fields, times):
    """The probe of synthetic records: each field is f(u) of one record."""
    samples = ForceSamples(RunSchedule(grid, from_selection(name), 0.1, 1.0))
    for t, force in zip(times, fields):
        samples.observe(SimpleNamespace(t=t, force=force))
    return uniform_integrability_probe(samples)


GROWTHS = ["oscillating_sin:q=1", "pure_power:p=3", "defocusing_exp:m=1"]


@pytest.mark.parametrize("d, N", [(1, 256), (3, 32)])
@pytest.mark.parametrize("moving", [False, True])
@pytest.mark.parametrize("name", GROWTHS)
def test_uniform_integrability_probe_fails_a_one_cell_spike(d, N, moving, name):
    # a spike's norm sits on a set of codimension d, so it reads d
    grid = GridSpec(d, N, 8.0)
    times = np.linspace(0.0, 1.0, 129 if d == 1 else 17)

    def spike(j):
        force = np.zeros(grid.shape)
        force[((j if moving else 3) % N,) * d] = 5.0
        return force

    probe = probe_of(name, grid, map(spike, range(times.size)), times)
    assert not probe.vacuous and not probe.holds
    assert probe.grid_exponent == pytest.approx(d, rel=1e-12)


@pytest.mark.parametrize("d, N", [(1, 256), (3, 32)])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", GROWTHS)
def test_uniform_integrability_probe_fails_heavy_tailed_noise(d, N, seed, name):
    # |Cauchy| noise at every cell and record reads 0.83 (r = 10/9) to d
    grid = GridSpec(d, N, 8.0)
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, 33)
    probe = probe_of(name, grid, (np.abs(rng.standard_cauchy(grid.shape)) for _ in times),
                     times)
    assert not probe.vacuous and not probe.holds


def test_uniform_integrability_probe_is_finite_on_a_huge_force():
    # |f| ~ 1e200 at r = 10: each record's sums are in units of its max |f|
    grid = GridSpec(1, 256, 8.0)
    x = np.arange(grid.N) * grid.h
    times = np.linspace(0.0, 1.0, 9)
    fields = (1e200 * (1.5 + np.sin(2.0 * np.pi * (x - t) / grid.L)) for t in times)
    probe = probe_of("oscillating_sin:q=1", grid, fields, times)
    assert probe.r == 10.0
    assert np.isfinite(probe.norm) and np.isfinite(probe.coarse_norm)
    assert probe.holds and 0.0 <= probe.grid_exponent < 0.01


def test_uniform_integrability_probe_vacuous_on_zero_field():
    grid = GridSpec(1, 64, 8.0)
    spec = from_selection("pure_power:p=2")
    z = np.zeros(grid.shape)
    cfg = RunSchedule(grid, spec, 0.25 * grid.h, 0.25)
    probe = uniform_integrability_probe(force_samples(cfg, z))
    assert probe.vacuous and probe.holds
    assert (probe.norm, probe.coarse_norm) == (0.0, 0.0)


def test_uniform_integrability_probe_vacuous_when_the_bound_does_not_decay():
    # q = 2* = 10 at d = 1: t = 1 - q/2* = 0, so |E|^t gives no decay, and
    # even a spike is no evidence against integrability
    grid = GridSpec(1, 64, 8.0)
    force = np.zeros(grid.shape)
    force[3] = 5.0
    probe = probe_of("pure_power:p=10", grid, (force for _ in range(5)), np.linspace(0, 1, 5))
    assert probe.vacuous and probe.holds and probe.r is None
