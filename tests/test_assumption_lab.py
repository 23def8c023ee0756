"""Sampled inequality verifiers and their stability gates."""

import importlib
import json
import pathlib
import tracemalloc
from dataclasses import asdict, replace
from itertools import chain

import numpy as np
import pytest

from supercrit import assumption_lab, field_core
from supercrit.assumption_lab import (
    DEFAULT_SEED,
    UnboundedEstimateError,
    classify,
    find_convexity_shift,
    verify_nls_cancellation,
    verify_nls_coercivity,
    verify_wave_pointwise,
)
from supercrit.nonlinearity import (
    AssumptionClass,
    NlsNonlinearitySpec,
    NonlinearitySpec,
    from_selection,
    two_star,
)

N_SMALL = 50_000  # keeps unit tests quick; defaults are exercised in acceptance


def _focusing_quartic() -> NonlinearitySpec:
    return NonlinearitySpec(
        name="focusing_quartic",
        F=lambda u: -np.asarray(u, float) ** 4,
        f=lambda u: -4.0 * np.asarray(u, float) ** 3,
        fprime=lambda u: -12.0 * np.asarray(u, float) ** 2,
        assumption_class=AssumptionClass.DEFOCUSING,
    )


def _pointwise(spec) -> dict:
    return {r.inequality: r for r in verify_wave_pointwise(spec, samples=N_SMALL)}


def test_sign_condition_holds_for_defocusing_entries():
    for name in ("defocusing_exp:m=1", "defocusing_exp:m=2", "pure_power:p=2"):
        rep = _pointwise(from_selection(name))["H1"]
        assert rep.holds and not rep.violations


def test_sign_condition_detects_focusing_force():
    reports = verify_wave_pointwise(_focusing_quartic(), samples=N_SMALL)
    # the quartic declares no growth bound, so H1 is its only check
    assert [r.inequality for r in reports] == ["H1"]
    assert not reports[0].holds
    assert reports[0].violations and {"u", "lhs", "rhs"} <= set(reports[0].violations[0])


def test_growth_bound_exact_for_pure_power():
    assert _pointwise(from_selection("pure_power:p=3"))["H2"].holds


def test_growth_bound_holds_for_oscillating():
    for q in (1, 2, 3):
        assert _pointwise(from_selection(f"oscillating_sin:q={q}"))["H2"].holds


def test_potential_lower_bound_unit_constant():
    for q in (1, 2, 3):
        assert _pointwise(from_selection(f"oscillating_sin:q={q}"))["H21"].holds


def _negative_quadratic(assumption_class) -> NonlinearitySpec:
    """F = -2u^2, f = -4u, declared |f| <= |u|: it breaks H1, H21 and H2."""
    return NonlinearitySpec(
        name="negative_quadratic",
        F=lambda u: -2.0 * np.asarray(u, float) ** 2,
        f=lambda u: -4.0 * np.asarray(u, float),
        fprime=lambda u: np.full_like(np.asarray(u, float), -4.0),
        assumption_class=assumption_class,
        q=1.0,
        C_growth=1.0,
    )


@pytest.mark.parametrize("assumption_class, names", [
    (AssumptionClass.DEFOCUSING, ["H1", "H2"]),
    (AssumptionClass.OSCILLATING, ["H21", "H2"]),
])
def test_pointwise_checks_each_fail_on_a_spec_that_breaks_them(assumption_class, names):
    reports = verify_wave_pointwise(_negative_quadratic(assumption_class), samples=N_SMALL)
    assert [r.inequality for r in reports] == names
    for rep in reports:
        assert not rep.holds and len(rep.violations) == 16
        # the first violations in plan order: the grid's, from -8 upwards
        assert rep.violations[0]["u"] == -assumption_lab.SCALAR_RADIUS


def test_remainder_constant_zero_for_convex_potential():
    # |u|^3/3 is convex, so the remainder is nonnegative and the constant is 0
    h11, _ = assumption_lab._wave_constants(from_selection("pure_power:p=2"), 2.0,
                                            N_SMALL, DEFAULT_SEED)
    assert h11.value == 0.0
    assert h11.stable


def test_remainder_constant_finite_and_stable_for_oscillating():
    h11, _ = assumption_lab._wave_constants(from_selection("oscillating_sin:q=1"), 2.0,
                                            200_000, DEFAULT_SEED)
    assert np.isfinite(h11.value) and h11.value > 0.0
    assert h11.stable


def test_remainder_constant_monotone_in_radius():
    spec = from_selection("oscillating_sin:q=2")
    (c1, _), (c2, _) = (assumption_lab._wave_constants(spec, R, N_SMALL, DEFAULT_SEED)
                        for R in (1.0, 2.0))
    assert c1.value <= c2.value * (1.0 + 1e-6)


def test_remainder_worst_pair_reproduces_value():
    spec = from_selection("oscillating_sin:q=1")
    est, _ = assumption_lab._wave_constants(spec, 2.0, N_SMALL, DEFAULT_SEED)
    u, w = est.worst_pair
    ratio = max(0.0, -(spec.F(u + w) - spec.F(u) - spec.f(u) * w)) / w ** 2
    # the reported constant is the max of two passes; the stored pair belongs
    # to the first, so it reproduces at least that pass's value
    assert ratio <= est.value * (1.0 + 1e-10)
    assert ratio >= est.value * (1.0 - 0.06)


@pytest.mark.parametrize("name", ["H11", "H22"])
def test_window_w_sweep_doubles_as_first_sample_pass(monkeypatch, name):
    # four windows plus the doubled sample: the window-W sweep is not redrawn
    draws = []
    real_pairs = assumption_lab._pairs

    def counting_pairs(*args):
        draws.append(args)
        return real_pairs(*args)

    monkeypatch.setattr(assumption_lab, "_pairs", counting_pairs)
    estimates = assumption_lab._wave_constants(from_selection("oscillating_sin:q=2"), 2.0,
                                               N_SMALL, DEFAULT_SEED)
    assert len(draws) == 5
    assert [est.name for est in estimates] == ["H11", "H22"]
    est = {e.name: e for e in estimates}[name]
    assert len(est.evidence["window_sups"]) == 4
    assert est.evidence["window_sups"][0] == est.evidence["sample_sups"][0]


def _flat_pairs(R, W, n_random, seed):
    """The plan of _pairs materialised: meshgrid rows, then the randoms."""
    side = max(8, int(np.sqrt(n_random)))
    uu, ww = np.meshgrid(np.linspace(-R, R, side), np.linspace(-W, W, side),
                         indexing="ij")
    rng = np.random.default_rng(seed)
    ur = rng.uniform(-R, R, n_random)
    wr = rng.uniform(-W, W, n_random)
    return [(np.concatenate([uu.ravel(), ur]), np.concatenate([ww.ravel(), wr]))]


def _flat_complex_pairs(R, W, n_random, seed):
    """The plan of _complex_pairs materialised: grid and randoms, then the |u| <= R filter."""
    rng = np.random.default_rng(seed)
    side = max(8, int(np.sqrt(n_random // 2)))
    re = np.linspace(-1.0, 1.0, side)
    gre, gim = np.meshgrid(re, re, indexing="ij")
    ug = R * (gre + 1j * gim).ravel()
    wg = W * (gre + 1j * gim).ravel()
    ur = rng.uniform(-R, R, n_random) + 1j * rng.uniform(-R, R, n_random)
    wr = rng.uniform(-W, W, n_random) + 1j * rng.uniform(-W, W, n_random)
    u = np.concatenate([ug, ur])
    w = np.concatenate([wg[::-1], wr])
    keep = np.abs(u) <= R
    return [(u[keep], w[keep])]


def _argmax_sup_ratio(ratio, blocks):
    """Reference sweep: one ratio call on the concatenated plan, then argmax per term."""
    pairs = [np.broadcast_arrays(a, b) for a, b in blocks]
    u = np.concatenate([a.ravel() for a, _ in pairs])
    w = np.concatenate([b.ravel() for _, b in pairs])
    out = []
    for num, den in ratio(u, w):
        mask = den > 0
        r = np.where(mask, num / np.where(mask, den, 1.0), 0.0)
        r = np.where(np.isfinite(r), r, 0.0)
        i = int(np.argmax(r))
        if not r[i] > 0.0:
            out.append((0.0, None))
        elif np.iscomplexobj(u):
            out.append((float(r[i]), (str(complex(u[i])), str(complex(w[i])))))
        else:
            out.append((float(r[i]), (float(u[i]), float(w[i]))))
    return out


def _check_matches_reference(monkeypatch, estimate):
    blocked = estimate()
    with monkeypatch.context() as m:
        m.setattr(assumption_lab, "_pairs", _flat_pairs)
        m.setattr(assumption_lab, "_complex_pairs", _flat_complex_pairs)
        m.setattr(assumption_lab, "_sup_ratio", _argmax_sup_ratio)
        reference = estimate()
    assert blocked.value == reference.value
    assert blocked.worst_pair == reference.worst_pair
    assert blocked.evidence == reference.evidence
    assert blocked.stable == reference.stable


# the cases name the constant of the one wave sweep that each compares
def _h11(spec):
    return assumption_lab._wave_constants(spec, 2.0, N_SMALL, DEFAULT_SEED)[0]


def _h22(spec):
    return assumption_lab._wave_constants(spec, 2.0, N_SMALL, DEFAULT_SEED)[1]


# defocusing_exp declares no growth exponent, so it has no H22
@pytest.mark.parametrize("estimate, name", [
    (h, name) for name in ("oscillating_sin:q=1", "oscillating_sin:q=2", "pure_power:p=3")
    for h in (_h11, _h22)
] + [(_h11, "defocusing_exp:m=1")])
def test_blocked_sweep_matches_argmax_over_materialised_plan(monkeypatch, estimate, name):
    spec = from_selection(name)
    _check_matches_reference(monkeypatch, lambda: estimate(spec))


@pytest.mark.parametrize("estimate", [
    lambda spec: assumption_lab._nls_constants(spec, 2.0, N_SMALL, DEFAULT_SEED)[0],
    lambda spec: assumption_lab._nls_constants(spec, 2.0, N_SMALL, DEFAULT_SEED)[1],
    lambda spec: find_convexity_shift(spec, R=2.0, n_random=N_SMALL),
], ids=["Gronw6", "H222", "ClaimA"])
def test_blocked_complex_sweep_matches_argmax(monkeypatch, estimate):
    spec = from_selection("nls_cubic")
    _check_matches_reference(monkeypatch, lambda: estimate(spec))


def test_blocked_sweep_reports_earliest_of_tied_maxima():
    # the maximal ratio 5 sits in grid row 3 (in the first block) and in grid
    # row side - 2 and random sample block + 7 (later blocks)
    side = 2000
    ug, wg = np.arange(side, dtype=float), np.linspace(1.0, 2.0, side)
    block = field_core._BLOCK
    ur, wr = np.arange(3 * block, dtype=float), np.ones(3 * block)
    hits = {(3.0, wg[5]), (side - 2.0, wg[9]), (block + 7.0, 1.0)}

    def ratio(u, w):
        hit = np.zeros(np.broadcast_shapes(u.shape, w.shape), bool)
        for a, b in hits:
            hit |= (u == a) & (w == b)
        return [(np.where(hit, 5.0, 1.0), np.ones(hit.shape))]

    def blocks():
        return chain(assumption_lab._blocks(ug[:, None], wg[None, :]),
                     assumption_lab._blocks(ur, wr))

    assert assumption_lab._sup_ratio(ratio, blocks()) == [(5.0, (3.0, float(wg[5])))]
    assert _argmax_sup_ratio(ratio, blocks()) == [(5.0, (3.0, float(wg[5])))]
    # without the grid hit the random part's hit, in its second block, wins
    hits.discard((3.0, wg[5]))
    hits.discard((side - 2.0, wg[9]))
    assert assumption_lab._sup_ratio(ratio, blocks()) == [(5.0, (block + 7.0, 1.0))]


def test_sup_ratio_judges_each_term_in_its_numerator_and_leaves_den_unwritten():
    # two terms share one den with zero, negative and NaN entries; a grid
    # block's den is a (1, side) row under a (rows, side) numerator
    ug, wg = np.linspace(-1.0, 1.0, 400), np.arange(-150, 150) / 50.0
    ur = np.random.default_rng(5).uniform(-1.0, 1.0, 3000)
    wr = np.random.default_rng(6).choice(wg, 3000)
    dens = []

    def ratio(u, w):
        den = np.where(w == 2.0, np.nan, w)
        dens.append((den, den.copy()))
        return [(np.where(u > 0.9, np.inf, u * u + w), den),
                (np.where(u < -0.9, np.nan, 3.0 * np.cos(u) * w), den)]

    def blocks():
        return chain(assumption_lab._blocks(ug[:, None], wg[None, :]),
                     assumption_lab._blocks(ur, wr))

    got = assumption_lab._sup_ratio(ratio, blocks())
    assert {den.shape for den, _ in dens} >= {(1, len(wg)), (len(ur),)}
    assert all(np.array_equal(den, kept, equal_nan=True) for den, kept in dens)
    assert got == _argmax_sup_ratio(ratio, blocks())
    assert all(value > 0.0 for value, _ in got)


def _broken_scalar_spec():
    """F, f below every H1, H2 and H21 bound on |u - 3| < 0.003 only, so the
    violations of a plan lie in many blocks."""
    def near(u):
        return np.abs(np.asarray(u, float) - 3.0) < 0.003

    return NonlinearitySpec(
        name="broken_near_3",
        F=lambda u: np.where(near(u), -100.0, 0.5 * np.asarray(u, float) ** 2),
        f=lambda u: np.where(near(u), -100.0, np.asarray(u, float)),
        fprime=lambda u: np.ones_like(np.asarray(u, float)),
        assumption_class=AssumptionClass.DEFOCUSING,
        q=1.0,
        C_growth=1.0,
    )


def _broken_coercive_spec():
    """Fs' < 0 near s = 20 and Fs = 0 near s = 30: both coercivity sides fail."""
    return NlsNonlinearitySpec(
        name="broken_coercive",
        Fs=lambda s: np.where(np.abs(np.asarray(s, float) - 30.0) < 0.01, 0.0, s),
        Fsprime=lambda s: np.where(np.abs(np.asarray(s, float) - 20.0) < 0.01, -1.0, 1.0),
        Fsprime2=lambda s: np.zeros_like(np.asarray(s, float)),
        assumption_class=AssumptionClass.NLS_COERCIVE,
        coercivity_constant=160.0,
    )


def _block_size_runs():
    """Every block-evaluated report whose bytes must not depend on _BLOCK."""
    scalar, coercive = _broken_scalar_spec(), _broken_coercive_spec()
    runs = {name: lambda name=name: classify(from_selection(name), n_random=N_SMALL)
            for name in ("oscillating_sin:q=2", "pure_power:p=3", "nls_cubic")}
    oscillating = replace(scalar, assumption_class=AssumptionClass.OSCILLATING)
    runs.update({
        "H1": lambda: verify_wave_pointwise(scalar, samples=N_SMALL),
        "H21": lambda: verify_wave_pointwise(oscillating, samples=N_SMALL),
        "coercive": lambda: [verify_nls_coercivity(coercive, samples=N_SMALL)],
        "Gronw4": lambda: [verify_nls_cancellation(_broken_above(48.0), samples=N_SMALL,
                                                   seed=3)],
    })
    return runs


@pytest.mark.parametrize("block", [1 << 16, 1 << 11])
def test_reports_do_not_depend_on_the_block_size(monkeypatch, block):
    runs = _block_size_runs()
    expected = {name: [asdict(r) for r in run()] for name, run in runs.items()}
    monkeypatch.setattr(field_core, "_BLOCK", block)
    assert {name: [asdict(r) for r in run()] for name, run in runs.items()} == expected
    # every broken spec is caught, so its violation lists are compared: H1
    # and H21 each come with H2
    assert all(r["violations"] for name in ("H1", "H21", "coercive", "Gronw4")
               for r in expected[name])
    assert [len(expected[name]) for name in ("H1", "H21")] == [2, 2]


def test_streamed_random_pairs_equal_one_bulk_draw():
    n = 3 * field_core._BLOCK + 5
    side = max(8, int(np.sqrt(n)))
    blocks = list(assumption_lab._pairs(2.0, 16.0, n, 7))
    grid, randoms = blocks[:-4], blocks[-4:]
    assert [len(u) for u, _ in randoms] == [field_core._BLOCK] * 3 + [5]
    assert sum(len(u) for u, _ in grid) == side
    rng = np.random.default_rng(7)
    ur, wr = rng.uniform(-2.0, 2.0, n), rng.uniform(-16.0, 16.0, n)
    assert np.array_equal(np.concatenate([u for u, _ in randoms]), ur)
    assert np.array_equal(np.concatenate([w for _, w in randoms]), wr)


# 196,613 samples are 12 blocks of 2^14 and a partial block of 5
@pytest.mark.parametrize("n", [1000, N_SMALL, 196_613, 400_000])
def test_streamed_complex_pairs_equal_bulk_plan(n):
    blocks = list(assumption_lab._complex_pairs(2.0, 16.0, n, 7))
    [(u, w)] = _flat_complex_pairs(2.0, 16.0, n, 7)
    assert all(len(ub) == len(wb) > 0 for ub, wb in blocks)
    assert np.concatenate([ub for ub, _ in blocks]).tobytes() == u.tobytes()
    assert np.concatenate([wb for _, wb in blocks]).tobytes() == w.tobytes()


@pytest.mark.parametrize("sweep, bound_mib", [
    (lambda spec: assumption_lab._nls_constants(spec, 2.0, 400_000, DEFAULT_SEED), 24),
    (lambda spec: find_convexity_shift(spec, R=2.0, n_random=200_000), 12),
], ids=["Gronw6+H222", "ClaimA"])
def test_complex_sweep_memory_stays_below_plan_size(sweep, bound_mib):
    # materialised, the plan and its filter peaked at 109 and 27 MiB
    spec = from_selection("nls_cubic")
    tracemalloc.start()
    try:
        sweep(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2 ** 20


def test_taylor_sweep_memory_stays_below_plan_size():
    # materialised, the plans (up to 4M points) and their temporaries peaked
    # at 244 MiB
    spec = from_selection("oscillating_sin:q=2")
    tracemalloc.start()
    try:
        assumption_lab._wave_constants(spec, 2.0, 1_000_000, DEFAULT_SEED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def _peak_bytes(run):
    verify_nls_cancellation(from_selection("nls_cubic"), samples=10)  # imports numpy.random
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["nls_cubic", "nls_coercive_exp"])
def test_cancellation_check_holds_one_block_at_a_time(name):
    # drawing each block beside the last block's arrays, with a new array per
    # polar factor, it peaked at 3.02 MiB
    spec = from_selection(name)
    assert _peak_bytes(lambda: verify_nls_cancellation(spec)) < 2.5 * 2 ** 20


def test_wave_classify_peak_stays_below_3_mib():
    # with 2^16-point blocks and a new array per temporary it peaked at 6.0 MiB
    spec = from_selection("oscillating_sin:q=2")
    assert _peak_bytes(lambda: classify(spec, R=2.0)) < 3 * 2 ** 20


def test_classify_keeps_the_constants_the_benchmark_recorded(monkeypatch):
    # the assume workload checks these to 1e-9; hold them here too, so that a
    # change to the lab's arithmetic is caught by the tests, not only the benchmark
    monkeypatch.syspath_prepend(pathlib.Path(__file__).resolve().parents[1] / "bench")
    workloads = importlib.import_module("workloads")
    reports = classify(from_selection("oscillating_sin:q=2"), seed=workloads.ASSUME_DEFAULT_SEED)
    assert all(r.holds for r in reports)
    values = {r.inequality: r.constant.value for r in reports if r.constant}
    for name, recorded in workloads.ASSUME_RECORDED.items():
        assert values[name] == pytest.approx(recorded, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("verify, name", [
    (verify_wave_pointwise, "defocusing_exp:m=1"),
    (verify_wave_pointwise, "pure_power:p=3"),
    (verify_wave_pointwise, "oscillating_sin:q=2"),
    (verify_nls_coercivity, "nls_coercive_exp"),
], ids=["H1", "H1+H2", "H21+H2", "coercive"])
def test_scalar_verifier_peak_stays_below_2_mib(verify, name):
    # with the whole plan and its temporaries held at once: 3.8 to 4.5 MiB
    spec = from_selection(name)
    assert _peak_bytes(lambda: verify(spec, samples=100_000)) < 2 * 2 ** 20


def test_grid_u_terms_evaluated_once_per_distinct_value():
    # jet points by order: the ratios read a jet of u + w and one of u, and
    # only H22 reads f(u + w) and f'(u)
    points = {}
    base = from_selection("oscillating_sin:q=2")

    def counted(u, order):
        points[order] = points.get(order, 0) + np.size(u)
        return base.jet(u, order)

    def plain(key):
        def unused(u):
            raise AssertionError(f"{key} evaluated outside the jet")
        return unused

    spec = replace(base, fused_jet=counted, **{k: plain(k) for k in ("F", "f", "fprime")})

    def plan_points(n):  # (distinct grid u, all grid pairs) plus n randoms
        side = max(8, int(np.sqrt(n)))
        return side + n, side * side + n

    # four window sweeps at n plus the doubled sample at 2n
    (u1, uw1), (u2, uw2) = plan_points(N_SMALL), plan_points(2 * N_SMALL)
    distinct_u, pairs = 4 * u1 + u2, 4 * uw1 + uw2
    # H11 alone, for a spec without a growth exponent
    assumption_lab._wave_constants(replace(spec, q=None), 2.0, N_SMALL, DEFAULT_SEED)
    assert points == {0: pairs, 1: distinct_u}
    # H11 and H22 together: each distinct u and each u + w once for both
    points.clear()
    assumption_lab._wave_constants(spec, 2.0, N_SMALL, DEFAULT_SEED)
    assert points == {1: pairs, 2: distinct_u}


@pytest.mark.parametrize("name, expected", [
    ("pure_power:p=3", {"f": 125_000}),
    ("oscillating_sin:q=2", {"jet 1": 125_000}),
    ("defocusing_exp:m=1", {"f": 125_000}),
])
def test_classify_evaluates_the_scalar_plan_once(monkeypatch, name, expected):
    # the default plan: 25,000 grid points and 100,000 uniforms; H1 and H2
    # share one f per block, H21 and H2 one jet of order 1
    points = {}
    base = from_selection(name)

    def counted(key, g):
        def run(u, *order):
            tag = " ".join([key, *map(str, order)])
            points[tag] = points.get(tag, 0) + np.size(u)
            return g(u, *order)
        return run

    spec = replace(base, fused_jet=base.fused_jet and counted("jet", base.fused_jet),
                   **{k: counted(k, getattr(base, k)) for k in ("F", "f", "fprime")})
    monkeypatch.setattr(assumption_lab, "_wave_constants", lambda *args: [])
    reports = classify(spec)
    assert all(r.holds for r in reports)
    assert points == expected


def _counting(monkeypatch, plan_name):
    draws = []
    real = getattr(assumption_lab, plan_name)

    def counted(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(assumption_lab, plan_name, counted)
    return draws


def test_classify_draws_each_plan_once_for_all_its_constants(monkeypatch):
    pairs = _counting(monkeypatch, "_pairs")
    complex_pairs = _counting(monkeypatch, "_complex_pairs")
    scalar = _counting(monkeypatch, "_scalar_plan")
    classify(from_selection("oscillating_sin:q=2"), n_random=N_SMALL)
    assert len(pairs) == 5  # four windows and the doubled sample, for H11 and H22
    assert len(scalar) == 1  # one sweep for H21 and H2
    reports = {r.inequality: r for r in classify(from_selection("nls_cubic"),
                                                 n_random=20_000)}
    windows = len(reports["ClaimA"].constant.evidence["window_sups"])
    assert len(complex_pairs) == windows + 2  # n and 2n, for Gronw6 and H222


def _power_spec(name, k, q):
    """F = sign * u^k for even k, declaring growth exponent q (no growth constant)."""
    sign = -1.0 if name.startswith("focusing") else 1.0
    return NonlinearitySpec(
        name=name,
        F=lambda u: sign * np.asarray(u, float) ** k,
        f=lambda u: sign * k * np.asarray(u, float) ** (k - 1),
        fprime=lambda u: sign * k * (k - 1) * np.asarray(u, float) ** (k - 2),
        assumption_class=AssumptionClass.DEFOCUSING,
        q=q,
    )


def test_fused_sweep_raises_h11_before_h22():
    # -u^12 breaks both: its remainder over w^2 grows like w^10, its Taylor
    # term over |w|^6 like w^5
    with pytest.raises(UnboundedEstimateError, match="remainder constant for focusing"):
        classify(_power_spec("focusing_u12", 12, 2.0), R=1.0, n_random=N_SMALL)
    # u^12 is convex (H11 = 0) and breaks only H22
    with pytest.raises(UnboundedEstimateError, match="Taylor constant for defocusing"):
        classify(_power_spec("defocusing_u12", 12, 2.0), R=1.0, n_random=N_SMALL)


def test_unbounded_remainder_detected():
    with pytest.raises(UnboundedEstimateError):
        assumption_lab._wave_constants(_focusing_quartic(), 1.0, N_SMALL, DEFAULT_SEED)


def test_taylor_constant_smooth_entry():
    _, h22 = assumption_lab._wave_constants(from_selection("oscillating_sin:q=2"), 1.0,
                                            200_000, DEFAULT_SEED)
    assert np.isfinite(h22.value)
    assert h22.stable


def test_taylor_constant_flags_derivative_jump():
    # q=1 has a force with a derivative jump at the origin, so the sampled sup
    # keeps climbing as the plan is refined and the gate must report unstable
    _, h22 = assumption_lab._wave_constants(from_selection("oscillating_sin:q=1"), 1.0,
                                            500_000, DEFAULT_SEED)
    assert not h22.stable


def test_phase_bound_finite_stable_and_worst_pair_reproduces_value():
    spec = from_selection("nls_cubic")
    # the default sample size: smaller plans miss the sup often enough that
    # the doubled sample moves it by more than 5%
    est, _ = assumption_lab._nls_constants(spec, 2.0, 400_000, DEFAULT_SEED)
    assert np.isfinite(est.value) and est.value > 0.0
    assert est.stable
    u, w = (complex(z) for z in est.worst_pair)
    num = abs(np.real((spec.force(u) - spec.force(u + w)) * np.conj(1j * w)))
    ratio = num / (abs(w) ** 2 + abs(w) ** two_star(3))
    # as for H11, the pair belongs to the first of the two passes
    assert ratio <= est.value * (1.0 + 1e-10)
    assert ratio >= est.value * (1.0 - 0.06)


def _nls_spec(name, Fs, Fsprime, Fsprime2) -> NlsNonlinearitySpec:
    def real(g):
        return lambda s: g(np.asarray(s, float))

    return NlsNonlinearitySpec(name, real(Fs), real(Fsprime), real(Fsprime2),
                               AssumptionClass.NLS_SUBCRIT)


def test_claim_a_fails_for_concave_density():
    # F(s) = -s^1.5 needs a shift A that grows with the w-window, so the
    # window doubling never settles and the verdict must say so
    concave = _nls_spec("concave", lambda s: -s ** 1.5, lambda s: -1.5 * s ** 0.5,
                        lambda s: -0.75 / np.sqrt(s))
    with np.errstate(divide="ignore"):  # F''(0) is infinite
        reports = classify(concave, R=1.0, n_random=20_000)
    rep = {r.inequality: r for r in reports}["ClaimA"]
    assert not rep.constant.stable
    assert not rep.holds


def test_nls_taylor_constant_fails_for_kinked_density():
    # F'(s) = |s - 1| jumps in F'' at s = 1, so the Taylor remainder over
    # |w|^2 is unbounded near the kink and the sup climbs with the sample size
    kinked = _nls_spec("kinked", lambda s: 0.5 * (s - 1.0) * np.abs(s - 1.0),
                       lambda s: np.abs(s - 1.0), lambda s: np.sign(s - 1.0))
    rep = {r.inequality: r for r in classify(kinked, R=1.0, n_random=20_000)}["H222"]
    assert not rep.holds
    v_n, v_2n = rep.constant.evidence["sample_sups"]
    assert abs(v_2n - v_n) > 0.05 * max(v_n, v_2n)
    assert rep.constant.value == max(v_n, v_2n)


def test_zero_sup_names_no_worst_pair():
    # the cubic density is convex, so ClaimA is 0 on every sample and no
    # sample attains it; the same holds for H11 of a convex potential
    rep = {r.inequality: r for r in classify(from_selection("nls_cubic"),
                                             n_random=20_000)}["ClaimA"]
    assert rep.constant.value == 0.0
    assert rep.constant.worst_pair is None
    assert json.loads(json.dumps(asdict(rep)))["constant"]["worst_pair"] is None
    h11, _ = assumption_lab._wave_constants(from_selection("pure_power:p=2"), 2.0,
                                            N_SMALL, DEFAULT_SEED)
    assert (h11.value, h11.worst_pair) == (0.0, None)


def test_nls_cancellation_identity_machine_exact():
    for name in ("nls_coercive_exp", "nls_cubic"):
        rep = verify_nls_cancellation(from_selection(name), samples=N_SMALL)
        assert rep.holds and not rep.violations


@pytest.mark.parametrize("name", ["nls_coercive_exp", "nls_cubic"])
def test_nls_cancellation_holds_at_every_seed(name):
    # scaled by |lhs| + |rhs| alone, the tolerance failed nls_coercive_exp at
    # seeds 4, 6 and 11: there |f(u + w)| is about 3,400 while each pairing is
    # about 0.44, so rounding on the terms' scale exceeded it
    spec = from_selection(name)
    assert [seed for seed in range(20)
            if not verify_nls_cancellation(spec, samples=100_000, seed=seed).holds] == []


def test_nls_cancellation_detects_broken_force():
    broken = NlsNonlinearitySpec(
        name="broken",
        Fs=lambda s: np.asarray(s, float),
        # returns a constant complex phase factor: f(u) conj(u) is not real
        Fsprime=lambda s: np.full_like(np.asarray(s, float), 1.0) * (1.0 + 0.0j),
        Fsprime2=lambda s: np.zeros_like(np.asarray(s, float)),
        assumption_class=AssumptionClass.NLS_SUBCRIT,
    )
    broken = NlsNonlinearitySpec(
        name="broken",
        Fs=broken.Fs,
        Fsprime=lambda s: 1j * np.ones_like(np.asarray(s, float)),
        Fsprime2=broken.Fsprime2,
        assumption_class=AssumptionClass.NLS_SUBCRIT,
    )
    rep = verify_nls_cancellation(broken, samples=1000)
    assert not rep.holds


def _bulk_cancellation(spec, samples, seed):
    """verify_nls_cancellation on one bulk draw of every sample, as a reference."""
    rng = np.random.default_rng(seed)
    r = 5.0 * np.sqrt(rng.uniform(0.0, 1.0, (2, samples)))
    th = rng.uniform(0.0, 2.0 * np.pi, (2, samples))
    u = r[0] * np.exp(1j * th[0])
    w = r[1] * np.exp(1j * th[1])
    fu, fv = spec.force(u), spec.force(u + w)
    lhs = assumption_lab._dot(fu - fv, 1j * w)
    rhs = assumption_lab._dot(fu, 1j * w) + assumption_lab._dot(fv, 1j * u)
    scale = 1.0 + np.abs(fu) * np.abs(w) + np.abs(fv) * (np.abs(u) + np.abs(w))
    bad = np.abs(lhs - rhs) > 1e-12 * scale
    return [{"u": [float(u[i].real), float(u[i].imag)],
             "w": [float(w[i].real), float(w[i].imag)],
             "lhs": float(lhs[i]), "rhs": float(rhs[i])}
            for i in np.flatnonzero(bad)[:16]]


def _broken_above(s_broken):
    """f(u) conj(u) is not real where Fs' turns imaginary, above s_broken."""
    return NlsNonlinearitySpec(
        name="broken_above",
        Fs=lambda s: np.asarray(s, float),
        Fsprime=lambda s: np.where(np.asarray(s) > s_broken, 1j, 1.0),
        Fsprime2=lambda s: np.zeros_like(np.asarray(s, float)),
        assumption_class=AssumptionClass.NLS_SUBCRIT,
    )


# The 196,613 samples are 12 blocks of 2^14 and 5 more: above s = 48 the 43
# violations of seed 3 start in the first block and run past 16 in the fifth;
# above s = 49 the 8 violations lie in seven blocks, from the second to the
# twelfth
@pytest.mark.parametrize("s_broken", [0.0, 48.0, 49.0])
def test_streamed_cancellation_reports_the_bulk_violations(s_broken):
    spec = _broken_above(s_broken)
    n = 196_613
    rep = verify_nls_cancellation(spec, samples=n, seed=3)
    assert rep.violations == _bulk_cancellation(spec, n, 3)
    assert len(rep.violations) == (8 if s_broken == 49.0 else 16) and not rep.holds


def test_nls_check_assumptions_peak_stays_below_10_mib():
    # materialised, the 100k Gronw4 samples and their temporaries peaked at
    # 15.3 MiB, above every streamed sweep of the run
    spec = from_selection("nls_cubic")
    verify_nls_cancellation(spec, samples=10)  # imports numpy.random (0.7 MiB)
    tracemalloc.start()
    try:
        classify(spec, R=2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_nls_coercivity_holds_on_declared_range():
    rep = verify_nls_coercivity(from_selection("nls_coercive_exp"), samples=N_SMALL)
    assert rep.holds


def test_nls_coercivity_diverges_near_zero_density(monkeypatch):
    # the quotient behaves like 1/sqrt(s): pushing the plan toward 0 must
    # break any fixed constant
    monkeypatch.setattr(assumption_lab, "COERCIVITY_S_MIN", 1e-9)
    rep = verify_nls_coercivity(from_selection("nls_coercive_exp"), samples=N_SMALL)
    assert not rep.holds


def test_convexity_shift_nonnegative_and_finite():
    for name in ("nls_cubic", "nls_coercive_exp"):
        est = find_convexity_shift(from_selection(name), R=2.0, n_random=N_SMALL)
        assert est.value >= 0.0
        assert np.isfinite(est.value)


def test_classify_report_sets_match_class():
    def kinds(name):
        return {r.inequality
                for r in classify(from_selection(name), R=1.0, n_random=20_000)}

    assert {"H1", "H2", "H11", "H22"} <= kinds("pure_power:p=2")
    assert {"H21", "H2", "H11", "H22"} <= kinds("oscillating_sin:q=2")
    assert {"Gronw4", "ClaimA", "Gronw6", "H222"} <= kinds("nls_cubic")
    coercive = kinds("nls_coercive_exp")
    assert {"Gronw4", "coercive", "ClaimA"} <= coercive
    # polynomial growth bounds are not applicable to the exponential density
    assert "Gronw6" not in coercive


def test_classify_reports_serialize_for_nls_entries():
    for name in ("nls_cubic", "nls_coercive_exp"):
        for rep in classify(from_selection(name), n_random=20_000):
            json.dumps(asdict(rep))
            assert type(rep.holds) is bool


def test_classify_rejects_unknown_type():
    with pytest.raises(TypeError):
        classify(object())
