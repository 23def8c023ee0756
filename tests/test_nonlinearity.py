"""Catalog evaluators, selection grammar, truncation, and the saturation cutoff."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercrit.nonlinearity import (
    NonlinearitySpec,
    NlsNonlinearitySpec,
    SelectionError,
    TruncationError,
    TruncationLevel,
    _int_power,
    _sin_cos,
    beta_cutoff,
    builtin_catalog,
    density,
    find_truncation_abscissae,
    from_selection,
    truncate,
    two_star,
)

WAVE_SPECS = [s for s in builtin_catalog() if isinstance(s, NonlinearitySpec)]
NLS_SPECS = [s for s in builtin_catalog() if isinstance(s, NlsNonlinearitySpec)]


def central_diff(func, x, h=1e-5):
    return (func(x + h) - func(x - h)) / (2.0 * h)


def test_two_star_values():
    assert two_star(3) == 6.0
    assert two_star(4) == 4.0
    assert two_star(6) == 3.0
    assert two_star(1) == 10.0
    assert two_star(2) == 10.0


def test_catalog_names_unique_and_selectable():
    names = [s.name for s in builtin_catalog()]
    assert len(names) == len(set(names))
    for name in names:
        assert from_selection(name).name == name


@pytest.mark.parametrize("spec", WAVE_SPECS, ids=lambda s: s.name)
def test_force_is_derivative_of_potential(spec):
    # points chosen away from the origin, where some catalog entries have kinks
    for x in (0.31, 0.77, -0.52, 1.21, -1.63):
        assert spec.f(x) == pytest.approx(central_diff(spec.F, x), rel=1e-6, abs=1e-8)
        assert spec.fprime(x) == pytest.approx(central_diff(spec.f, x), rel=1e-5, abs=1e-6)


@pytest.mark.parametrize("spec", NLS_SPECS, ids=lambda s: s.name)
def test_nls_density_derivatives(spec):
    for s in (0.05, 0.4, 1.3, 4.0):
        assert spec.Fsprime(s) == pytest.approx(central_diff(spec.Fs, s), rel=1e-6)
        assert spec.Fsprime2(s) == pytest.approx(central_diff(spec.Fsprime, s), rel=1e-5)


def test_known_potential_values():
    exp1 = from_selection("defocusing_exp:m=1")
    assert exp1.F(1.0) == pytest.approx(np.e - 1.0)
    assert exp1.f(1.0) == pytest.approx(2.0 * np.e)
    osc1 = from_selection("oscillating_sin:q=1")
    assert osc1.F(np.sqrt(np.pi / 2.0)) == pytest.approx(1.0)
    power3 = from_selection("pure_power:p=3")
    assert power3.F(2.0) == pytest.approx(4.0)
    assert power3.f(-2.0) == pytest.approx(-8.0)


def test_nls_force_shape_and_reality():
    spec = from_selection("nls_cubic")
    u = np.array([1.0 + 2.0j, -0.5j, 0.0])
    f = spec.force(u)
    assert np.allclose(f, u * 0.5 * np.abs(u) ** 2)
    # f(u) conj(u) must be real for every entry
    for nspec in NLS_SPECS:
        z = np.exp(1j * 0.7) * np.array([0.2, 1.0, 3.5])
        assert np.allclose(np.imag(nspec.force(z) * np.conj(z)), 0.0, atol=1e-14)


@pytest.mark.parametrize(
    "selection",
    ["nope", "defocusing_exp", "defocusing_exp:m=x", "pure_power:k=2",
     "oscillating_sin:q=2,junk"],
)
def test_selection_errors(selection):
    with pytest.raises(SelectionError):
        from_selection(selection)


def test_truncation_level_validation():
    with pytest.raises(TruncationError):
        TruncationLevel(k=-1.0, r_plus=1.0, r_minus=-1.0)
    with pytest.raises(TruncationError):
        TruncationLevel(k=1.0, r_plus=-1.0, r_minus=-2.0)


def test_defocusing_abscissae_are_symmetric():
    spec = from_selection("defocusing_exp:m=1")
    level = find_truncation_abscissae(spec, 5.0)
    assert level.r_plus == 5.0 and level.r_minus == -5.0


def test_oscillating_abscissae_found_in_scan_window():
    spec = from_selection("oscillating_sin:q=1")
    level = find_truncation_abscissae(spec, 3.0)
    assert 3.0 <= level.r_plus <= 6.0
    assert -6.0 <= level.r_minus <= -3.0
    for r in (level.r_plus, level.r_minus):
        assert r * spec.f(r) >= -r ** 2


def test_truncated_force_constant_beyond_cut():
    spec = from_selection("defocusing_exp:m=1")
    trunc = truncate(spec, TruncationLevel(k=2.0, r_plus=2.0, r_minus=-2.0))
    assert trunc.f(3.0) == pytest.approx(4.0 * np.exp(4.0))
    assert trunc.f(10.0) == trunc.f(3.0)
    assert trunc.f(-5.0) == pytest.approx(float(spec.f(-2.0)))


def test_truncation_exact_on_interior_and_c1_at_cut():
    spec = from_selection("oscillating_sin:q=2")
    level = find_truncation_abscissae(spec, 1.5)
    trunc = truncate(spec, level)
    s = np.linspace(level.r_minus, level.r_plus, 501)
    assert np.max(np.abs(trunc.f(s) - spec.f(s))) == 0.0
    assert np.max(np.abs(trunc.F(s) - spec.F(s))) == 0.0
    # the affine potential extension matches value and slope at the cut
    h = 1e-6
    for r in (level.r_plus, level.r_minus):
        jump = trunc.F(r + h) - 2.0 * trunc.F(r) + trunc.F(r - h)
        assert abs(jump) < 1e-8
        # one-sided curvature makes the central difference first order here
        assert central_diff(trunc.F, r, h=1e-5) == pytest.approx(
            float(spec.f(r)), rel=1e-3, abs=1e-5
        )


def test_truncated_force_is_globally_lipschitz():
    spec = from_selection("defocusing_exp:m=2")
    trunc = truncate(spec, find_truncation_abscissae(spec, 1.0))
    s = np.linspace(-50.0, 50.0, 20001)
    slopes = np.abs(np.diff(trunc.f(s)) / np.diff(s))
    bound = float(np.max(np.abs(spec.fprime(np.linspace(-1.0, 1.0, 2001)))))
    assert np.max(slopes) <= bound * 1.01


def _jet_specs():
    for spec in WAVE_SPECS:
        yield spec
        yield truncate(spec, find_truncation_abscissae(spec, 2.0))


@pytest.mark.parametrize("spec", _jet_specs(), ids=lambda s: s.name)
def test_jet_equals_separate_evaluators_bitwise(spec):
    # 0, +-R (R = 2), values beyond the cut, and |u| where F, f or f' overflow
    u = np.array([0.0, 2.0, -2.0, 0.3, -1.7, 5.0, 40.0, -40.0, 1e200, -1e200, np.inf])
    kept = u.tobytes()
    with np.errstate(all="ignore"):
        separate = [a.tobytes() for a in (spec.F(u), spec.f(u), spec.fprime(u))]
        for order in range(3):
            assert [a.tobytes() for a in spec.jet(u, order)] == separate[:order + 1]
    assert u.tobytes() == kept


@pytest.mark.parametrize("m", [1, 2])
def test_defocusing_exp_in_place_evaluators_equal_the_formula(m):
    spec, p = from_selection(f"defocusing_exp:m={m}"), 2 * m
    u = np.random.default_rng(m).uniform(-1.5, 1.5, (16, 24))
    u[0, :2] = 0.0, -0.0
    kept = u.copy()
    # powers above 2 are products, not libm's pow, which is 100 times slower
    # on a negative base; they agree with pow to a few ulp
    power = {1: u ** 1, 2: u ** 2, 3: u * u * u, 4: (u * u) * (u * u)}
    for got, want, pow_formula in (
            (spec.F(u), np.expm1(power[p]), np.expm1(u ** p)),
            (spec.f(u), p * power[p - 1] * np.exp(power[p]), p * u ** (p - 1) * np.exp(u ** p))):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        np.testing.assert_allclose(got, pow_formula, rtol=2e-15, atol=0.0)
    assert np.array_equal(u.view(np.int64), kept.view(np.int64))
    # a scalar input still gives a numpy scalar
    assert isinstance(spec.f(0.5), np.float64) and isinstance(spec.F(0.5), np.float64)


@pytest.mark.parametrize("p", [2, 3])
def test_pure_power_potential_is_a_product_of_moduli(p):
    spec = from_selection(f"pure_power:p={p}")
    u = np.random.default_rng(p).uniform(-3.0, 3.0, 1000)
    u[:4] = 0.0, -0.0, 1.0, -1.0
    a = np.abs(u)
    # |u|^(p+1) by products, not libm's pow, 3x slower; they agree to a few ulp
    want = (a * a * a if p == 2 else (a * a) * (a * a)) / (p + 1)
    got = spec.F(u)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    np.testing.assert_allclose(got, a ** (p + 1) / (p + 1), rtol=(p + 1) * 2.3e-16, atol=0.0)
    assert isinstance(spec.F(-0.5), np.float64)


@pytest.mark.parametrize("decades", [0, 100])
def test_density_is_half_the_squared_modulus_within_2_ulp(decades):
    rng = np.random.default_rng(15)
    n = 1 << 16
    u = (rng.normal(size=n) * 10.0 ** rng.uniform(-decades, decades, n)
         + 1j * rng.normal(size=n) * 10.0 ** rng.uniform(-decades, decades, n))
    u[:4] = 0.0, 1.5, 2.5j, -1.0 - 1.0j
    kept = u.copy()
    got = density(u)
    assert got.dtype == float and got.shape == u.shape
    re, im = u.real.astype(np.longdouble), u.imag.astype(np.longdouble)
    exact = (re * re + im * im) / 2
    ulp = np.spacing(exact.astype(float))
    assert float(np.max(np.abs(got - exact) / ulp)) <= 2.0
    # the hypot-and-square formula it replaces is itself up to 4.1 ulp off
    assert float(np.max(np.abs(got - 0.5 * np.abs(u) ** 2) / ulp)) <= 6.0
    assert np.array_equal(u, kept)
    # a real field, and a complex one on a strided layout
    assert np.array_equal(density(u.real), 0.5 * u.real ** 2)
    field = u.reshape(256, 256)
    assert np.array_equal(density(field[:, ::2]), density(field)[:, ::2])


def test_coercive_curvature_is_within_4_ulp_of_long_double():
    # Fs''(s) = e^r (r - 1) / r^3 with r = sqrt(1 + 2s) and r - 1 = 2s / (1 + r),
    # the reference taken in long double from s and the r the evaluator
    # rounds: exp amplifies r's rounding r-fold, which no formula in r can
    # undo, while 2s / (1 + r) does not cancel it near s = 0
    spec = from_selection("nls_coercive_exp")
    s = np.concatenate([np.random.default_rng(16).uniform(0.0, 50.0, 1 << 18),
                        np.linspace(0.0, 50.0, 4097), 10.0 ** -np.arange(1.0, 300.0, 0.5)])
    r = np.sqrt(1.0 + 2.0 * s).astype(np.longdouble)
    want = np.exp(r) * (2 * s.astype(np.longdouble) / (1 + r)) / r ** 3
    got = spec.Fsprime2(s)
    assert float(np.max(np.abs(got - want) / np.spacing(want.astype(float)))) <= 4.0


@pytest.mark.parametrize("s", [1e-4, 1e-8, 1e-12])
def test_coercive_curvature_keeps_its_relative_accuracy_as_the_density_vanishes(s):
    # e^r (r - 1) / r^3 with r - 1 taken from the rounded r was off by 9.6e-13,
    # 1.1e-9 and 1.3e-4 relative at these densities; the exact value is taken
    # in long double from s itself
    spec = from_selection("nls_coercive_exp")
    S = np.longdouble(s)
    r = np.sqrt(1 + 2 * S)
    want = np.exp(r) * (2 * S / (1 + r)) / r ** 3
    got = spec.Fsprime2(np.array([s]))[0]
    assert abs(float((got - want) / want)) <= 5e-16


def test_integer_powers_are_numpys_up_to_2_and_products_above():
    u = np.random.default_rng(5).uniform(-3.0, 3.0, 1000)
    u[:4] = 0.0, -0.0, 1.0, -1.0
    for k in range(9):
        got = _int_power(u, k)
        if k <= 2:
            assert np.array_equal(got.view(np.int64), (u ** k).view(np.int64))
        else:
            np.testing.assert_allclose(got, u ** k, rtol=k * 2.3e-16, atol=0.0)
        assert got is not u and isinstance(_int_power(np.float64(-1.5), k), np.float64)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_oscillating_powers_are_within_a_few_ulp_of_long_double(q):
    # F = sin g, f = (q+1)|u|^q cos g and f' = q(q+1) u|u|^(q-2) cos g
    # - (q+1)^2 |u|^2q sin g, g = u|u|^q, in long double from the same u, at 0,
    # -0 and negative u; an error is measured against the size of the terms
    # times 1 + |g|, as a rounding of g moves sin g and cos g by that much
    spec = from_selection(f"oscillating_sin:q={q}")
    u = np.concatenate([np.linspace(-3.0, 3.0, 6001), [0.0, -0.0, 1e-3, -1e-3],
                        np.random.default_rng(q).uniform(-4.0, 4.0, 1 << 14)])
    U = u.astype(np.longdouble)
    a = np.abs(U)
    g = U * a ** q
    k = 1 + np.abs(g)
    want = {
        "F": (np.sin(g), np.abs(np.sin(g)) + np.abs(g)),
        "f": ((q + 1) * a ** q * np.cos(g), (q + 1) * a ** q * k),
        "fprime": (q * (q + 1) * np.sign(U) * a ** (q - 1) * np.cos(g)
                   - (q + 1) ** 2 * a ** (2 * q) * np.sin(g),
                   (q * (q + 1) * a ** (q - 1) + (q + 1) ** 2 * a ** (2 * q)) * k),
    }
    jet = dict(zip(want, spec.jet(u, 2)))
    eps = np.finfo(float).eps
    for name, (exact, size) in want.items():
        for got in (getattr(spec, name)(u), jet[name]):
            assert np.all(np.abs(got - exact) <= 4 * eps * size), name
            assert np.all(got[u == 0.0] == 0.0), name


# the ranges of _sin_cos's accuracy record, from small angles to 3e8
SIN_COS_RANGES = [(0.002, 0.02), (-8.0, 8.0), (-6e3, 6e3), (-2.2e6, 2.2e6), (-3e8, 3e8)]


@pytest.mark.parametrize("lo, hi", SIN_COS_RANGES)
def test_sin_cos_is_within_a_few_ulp_of_long_double(lo, hi):
    x = np.random.default_rng(11).uniform(lo, hi, 1 << 18)
    sin, cos = _sin_cos(x)
    wide = x.astype(np.longdouble)
    sin_ref, cos_ref = np.sin(wide), np.cos(wide)
    ulp = np.abs(sin - sin_ref) / np.spacing(np.abs(sin_ref.astype(float)))
    assert float(ulp.max()) <= 4.0
    assert float(np.abs(cos - cos_ref).max()) <= 5e-16


def test_sin_cos_gives_the_same_bits_for_every_layout():
    x = np.random.default_rng(12).uniform(-50.0, 50.0, 1000)
    x[:4] = 0.0, -0.0, np.pi, -np.pi / 2
    sin, cos = _sin_cos(x)
    wide = np.zeros(2 * x.size)
    wide[::2] = x
    scalars = [_sin_cos(v) for v in x]
    assert isinstance(scalars[0][0], np.float64)
    aliased = x.copy()
    out = _sin_cos(aliased, out=(aliased, np.empty_like(x)))
    assert out[0] is aliased
    for got in (_sin_cos(wide[::2]), tuple(map(np.array, zip(*scalars))), out):
        assert np.array_equal(got[0].view(np.int64), sin.view(np.int64))
        assert np.array_equal(got[1].view(np.int64), cos.view(np.int64))


def test_sin_cos_stay_within_one():
    # about the points where sin or cos is +-1 or 0, and a spread of angles
    poles = np.pi / 2 * np.arange(-8, 9)
    x = np.concatenate([(poles[:, None] + np.linspace(-1e-6, 1e-6, 2001)).ravel(),
                        np.random.default_rng(13).uniform(-1e4, 1e4, 1 << 16)])
    sin, cos = _sin_cos(x)
    assert np.abs(sin).max() <= 1.0 + 1e-15 and np.abs(cos).max() <= 1.0 + 1e-15
    assert np.abs(sin * sin + cos * cos - 1.0).max() <= 1e-15


def test_oscillating_evaluators_hold_no_more_arrays_than_their_results_need():
    # F, f, f' and the jet of order 2 peak at 2, 3, 4 and 5 field-sized
    # arrays, as they did with libm's sin and cos
    spec = from_selection("oscillating_sin:q=2")
    u = np.random.default_rng(14).uniform(-2.0, 2.0, 1 << 16)
    for run, arrays in ((spec.F, 2), (spec.f, 3), (spec.fprime, 4),
                        (lambda u: spec.jet(u, 2), 5)):
        tracemalloc.start()
        try:
            run(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (arrays + 0.1) * u.nbytes


def test_truncate_rejects_sign_violating_level():
    spec = from_selection("oscillating_sin:q=1")
    # f(2)*2 = 8 cos(4) < -4, so r_plus = 2 violates the sign condition with C=1
    bad = TruncationLevel(k=2.0, r_plus=2.0, r_minus=-2.0)
    with pytest.raises(TruncationError):
        truncate(spec, bad)


@given(
    s=st.floats(-100.0, 100.0, allow_nan=False),
    k=st.floats(0.01, 20.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_beta_cutoff_properties(s, k):
    b = beta_cutoff(s, k)
    assert beta_cutoff(-s, k) == pytest.approx(-b, abs=1e-12)
    assert abs(b) <= min(abs(s), 1.5 * k) + 1e-12
    if abs(s) <= k:
        assert b == pytest.approx(s)
    if abs(s) >= 2.0 * k:
        assert b == pytest.approx(np.sign(s) * 1.5 * k)


def test_beta_cutoff_is_c1_at_knots():
    eps = 1e-7
    for k in (0.5, 1.0, 3.0):
        for s0 in (k, 2.0 * k, -k, -2.0 * k):
            left = (beta_cutoff(s0, k) - beta_cutoff(s0 - eps, k)) / eps
            right = (beta_cutoff(s0 + eps, k) - beta_cutoff(s0, k)) / eps
            assert abs(left - right) < 1e-6


def test_beta_cutoff_monotone():
    s = np.linspace(-10.0, 10.0, 4001)
    assert np.all(np.diff(beta_cutoff(s, 2.0)) >= -1e-12)
