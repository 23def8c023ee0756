"""Config parsing, validation, canonical serialization, and experiment ids."""

import dataclasses

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from supercrit.config import (
    DEFAULT_LADDER,
    KINDS,
    WORK_LIMIT,
    ConfigError,
    ExperimentConfig,
    parse_config,
    serialize_config,
    validate,
    working_set_bytes,
)
from supercrit.nonlinearity import NlsNonlinearitySpec, builtin_catalog
from supercrit.wave_integrator import stable_dt

GOOD = """
kind = simulate-wave
nonlinearity = defocusing_exp:m=1
d = 1
N = 128
L = 8.0
T = 0.5
amplitude = 0.5
"""


def test_round_trip_identity():
    cfg = parse_config(GOOD)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert again.experiment_id() == cfg.experiment_id()


def test_id_ignores_formatting_and_order():
    reordered = "\n".join(sorted(l for l in GOOD.strip().splitlines()))
    commented = GOOD + "\n# trailing comment\n\n"
    base = parse_config(GOOD).experiment_id()
    assert parse_config(reordered).experiment_id() == base
    assert parse_config(commented).experiment_id() == base
    assert len(base) == 16 and int(base, 16) >= 0


def test_id_changes_with_any_parameter():
    base = parse_config(GOOD).experiment_id()
    assert parse_config(GOOD + "seed = 1\n").experiment_id() != base
    assert parse_config(GOOD + "T = 0.25\n").experiment_id() != base


def test_section_headers_are_aliases():
    text = GOOD + "\n[grid]\nN = 256\n[run]\nseed = 9\n[anything]\nL = 4.0\n"
    cfg = parse_config(text)
    assert cfg.N == 256 and cfg.seed == 9 and cfg.L == 4.0


def test_errors_carry_line_numbers_and_accumulate():
    bad = "kind = simulate-wave\nmystery = 1\nN twelve\ndt = fast\n"
    with pytest.raises(ConfigError) as info:
        parse_config(bad)
    messages = info.value.errors
    assert any("line 2" in m and "mystery" in m for m in messages)
    assert any("line 3" in m for m in messages)
    assert any("line 4" in m and "dt" in m for m in messages)


def test_kind_is_required_and_checked():
    with pytest.raises(ConfigError) as info:
        parse_config("N = 64\n")
    assert any("kind" in m for m in info.value.errors)
    with pytest.raises(ConfigError):
        parse_config("kind = make-coffee\nN = 64\n")


def test_subcommand_kind_conflict():
    with pytest.raises(ConfigError) as info:
        parse_config(GOOD, kind="simulate-nls")
    assert any("conflict" in m for m in info.value.errors)


def test_kind_injected_by_subcommand():
    cfg = parse_config("N = 64\nnonlinearity = nls_cubic\n", kind="simulate-nls")
    assert cfg.kind == "simulate-nls"


def test_nonlinearity_class_must_match_kind():
    with pytest.raises(ConfigError):
        parse_config("kind = simulate-nls\nnonlinearity = pure_power:p=2\n")
    with pytest.raises(ConfigError):
        parse_config("kind = simulate-wave\nnonlinearity = nls_cubic\n")


def test_growth_exponent_checked_against_critical_power():
    # p = 7 exceeds the critical exponent 6 in three dimensions
    with pytest.raises(ConfigError) as info:
        parse_config("kind = simulate-wave\nnonlinearity = pure_power:p=7\n"
                     "d = 3\nN = 32\nL = 8.0\n")
    assert any("growth" in m for m in info.value.errors)
    # a subcritical power in the same dimension is accepted
    cfg = ExperimentConfig(kind="simulate-wave", nonlinearity="pure_power:p=3", d=3,
                           N=32)
    assert parse_config(serialize_config(cfg)) == cfg


def test_wave_stability_bound_checked_at_parse():
    with pytest.raises(ConfigError) as info:
        parse_config(GOOD + "dt = 0.05\n")
    assert any("stability" in m for m in info.value.errors)


def test_nls_accuracy_gate_checked_at_parse():
    # weak-strong runs the same Strang integrator, which rejects dt > h
    for kind in ("simulate-nls", "weak-strong"):
        with pytest.raises(ConfigError) as info:
            parse_config(f"kind = {kind}\nnonlinearity = nls_cubic\n"
                         "N = 64\nL = 8.0\ndt = 0.5\n")
        assert any("accuracy gate" in m for m in info.value.errors)


def test_working_set_bound_checked_at_parse():
    # a 1024^3 real field alone takes 8 GiB; parsing allocates no field
    with pytest.raises(ConfigError) as info:
        parse_config("kind = simulate-wave\nd = 3\nN = 1024\n")
    assert any("working set" in m for m in info.value.errors)
    # one state fits at 256^3; the weak-strong reference and three members do not
    parse_config("kind = simulate-wave\nd = 3\nN = 256\n")
    with pytest.raises(ConfigError):
        parse_config("kind = weak-strong\nd = 3\nN = 256\n")
    # the integrability probe keeps scalars per record, so a long
    # appendix-construct is accepted and its estimate ignores T and stride
    ladder = ("kind = appendix-construct\nnonlinearity = oscillating_sin:q=1\n"
              "d = 3\nN = 64\nladder = 1,2,4\n")
    short, long = parse_config(ladder), parse_config(ladder + "stride = 1\nT = 100\n")
    assert working_set_bytes(short) == working_set_bytes(long) == 4 * 160.0 * 64 ** 3
    # the assumption lab allocates no grid field
    parse_config("kind = check-assumptions\nd = 3\nN = 1024\n")


@pytest.mark.parametrize("kind, text", [
    ("simulate-wave", ""),
    ("simulate-nls", "nonlinearity = nls_cubic\n"),
    ("weak-strong", ""),
    ("identity-check", ""),
])
def test_work_bound_checked_at_parse(kind, text):
    # dt = 1e-300 is positive, within every step bound, and T/dt is finite:
    # the run was accepted and stepped until killed
    with pytest.raises(ConfigError) as info:
        parse_config(text + "dt = 1e-300\n", kind)
    assert any("point-steps exceed" in m for m in info.value.errors)
    # the benchmark's runs, 1.2e7 and 6.6e6 point-steps, are accepted
    parse_config("nonlinearity = defocusing_exp:m=1\nd = 3\nN = 64\nL = 10\nradius = 1.5\n"
                 "T = 1\n", "simulate-wave")
    parse_config("nonlinearity = nls_coercive_exp\nd = 2\nN = 128\nL = 40\nradius = 5\n"
                 "T = 0.5\ndt = 0.005\n", "weak-strong")


def test_the_default_ladder_can_be_written_in_a_config():
    # the default was decreasing, so writing it out (0.1,0.01,0.001) exited 2
    written = ",".join(format(eps, "g") for eps in DEFAULT_LADDER)
    cfg = parse_config(f"ladder = {written}\n", "weak-strong")
    assert cfg.ladder == DEFAULT_LADDER == tuple(sorted(DEFAULT_LADDER))


def test_kind_defaults_fill_only_the_keys_a_config_leaves_unset():
    nls = parse_config("nonlinearity = nls_cubic\n", "simulate-nls")
    assert (nls.L, nls.radius, nls.T, nls.effective_dt()) == (40.0, 5.0, 0.5, 1e-3)
    nls = parse_config("nonlinearity = nls_cubic\nL = 8\n", "simulate-nls")
    assert (nls.L, nls.radius, nls.T) == (8.0, 5.0, 0.5)
    wave = parse_config("", "simulate-wave")
    assert (wave.L, wave.radius, wave.T, wave.d) == (8.0, 1.0, 1.0, 1)
    # weak-strong serves both equations, and each takes its own geometry
    ladder = parse_config("nonlinearity = nls_coercive_exp\nT = 0.25\n", "weak-strong")
    assert (ladder.L, ladder.radius, ladder.T) == (40.0, 5.0, 0.25)
    ladder = parse_config("", "weak-strong")
    assert (ladder.L, ladder.radius, ladder.T) == (8.0, 1.0, 1.0)
    assert parse_config("", "check-assumptions").d == 3


def test_ladder_parsing_and_validation():
    cfg = parse_config("kind = appendix-construct\n"
                       "nonlinearity = oscillating_sin:q=1\n"
                       "ladder = 1, 2, 4, 8\n")
    assert cfg.ladder == (1.0, 2.0, 4.0, 8.0)
    with pytest.raises(ConfigError):
        parse_config("kind = appendix-construct\n"
                     "nonlinearity = oscillating_sin:q=1\nladder = 4, 2, 1\n")
    with pytest.raises(ConfigError):
        parse_config("kind = appendix-construct\n"
                     "nonlinearity = oscillating_sin:q=1\nladder = 1, 2\n")


@pytest.mark.parametrize("line, message", [
    ("R = 0", "R=0.0 must be positive"),
    ("R = -1", "R=-1.0 must be positive"),
    ("radius = 0", "radius=0.0 must be positive"),
    ("stride = -3", "stride=-3 must be nonnegative"),
])
def test_radii_and_stride_checked_at_parse(line, message):
    with pytest.raises(ConfigError) as info:
        parse_config(GOOD + line + "\n")
    assert info.value.errors == [message]


def test_effective_dt_defaults():
    wave = parse_config(GOOD)
    assert wave.effective_dt() == pytest.approx(0.25 * wave.L / wave.N)
    nls = parse_config("kind = simulate-nls\nnonlinearity = nls_cubic\nN = 64\n")
    assert nls.effective_dt() == pytest.approx(1e-3)


def test_unknown_nonlinearity_reported():
    with pytest.raises(ConfigError) as info:
        parse_config("kind = simulate-wave\nnonlinearity = cosh_tower\n")
    assert any("cosh_tower" in m and "the catalog has defocusing_exp:m=1," in m
               for m in info.value.errors)


FLOAT_FIELDS = ("L", "dt", "T", "amplitude", "radius", "R")
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def valid_configs(draw):
    """Configs that validate, drawn from combinations validate accepts, so that
    assume() rarely filters one out: a nonlinearity of the kind's equation, a dt
    within the equation's bound, an identity-check T with enough records, and
    a ladder of positive values, at least three for appendix-construct, and a
    T whose run makes at most WORK_LIMIT point-steps."""
    kind = draw(st.sampled_from(KINDS))
    specs = builtin_catalog()
    if kind == "simulate-nls":
        specs = [s for s in specs if isinstance(s, NlsNonlinearitySpec)]
    elif kind in ("simulate-wave", "appendix-construct", "identity-check"):
        specs = [s for s in specs if not isinstance(s, NlsNonlinearitySpec)]
    spec = draw(st.sampled_from(specs))
    d = draw(st.integers(1, 3))
    # three states of d = 3, N = 256 exceed the working-set limit
    N = draw(st.sampled_from([8, 16, 64] if kind in ("weak-strong", "appendix-construct")
                             and d == 3 else [8, 16, 64, 256]))
    L = draw(st.floats(1e-3, 1e6))
    bound = L / N if isinstance(spec, NlsNonlinearitySpec) else stable_dt(L / N, d)
    dt = draw(st.just(0.0) | st.floats(1e-6, 1.0).map(lambda f: f * bound))
    stride = draw(st.integers(0, 10 ** 6))
    T = draw(st.floats(1e-9, 1e6))
    if kind == "identity-check":
        # 64 strides of steps at least, so the run makes 64 records or more
        dt_run = dt or stable_dt(L / N, d)
        T = dt_run * 64 * max(stride, 1) * draw(st.floats(1.0, 100.0))
    ladder = draw(st.lists(st.floats(1e-100, 1e100), unique=True, max_size=4,
                           min_size=3 if kind == "appendix-construct" else 0))
    cfg = ExperimentConfig(
        kind=kind,
        nonlinearity=spec.name,
        d=d,
        N=N,
        L=L,
        dt=dt,
        T=T,
        amplitude=draw(finite),
        radius=draw(positive),
        ladder=tuple(sorted(ladder)),
        R=draw(positive),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
        stride=stride,
    )
    # at most WORK_LIMIT point-steps, the work validate accepts
    states = 1 + (kind in ("weak-strong", "appendix-construct")) * len(ladder or DEFAULT_LADDER)
    T_max = 0.99 * WORK_LIMIT / (states * float(N) ** d) * cfg.effective_dt()
    cfg = dataclasses.replace(cfg, T=min(cfg.T, T_max))
    assume(not validate(cfg))
    return cfg


@given(valid_configs())
def test_round_trip_identity_for_finite_configs(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


@given(valid_configs(), st.sampled_from(FLOAT_FIELDS + ("ladder",)),
       st.sampled_from(["nan", "inf", "-inf"]))
def test_non_finite_values_rejected(cfg, name, bad):
    line = f"ladder = 1,{bad}" if name == "ladder" else f"{name} = {bad}"
    with pytest.raises(ConfigError) as info:
        parse_config(serialize_config(cfg) + line + "\n")
    assert any(m.startswith(f"{name}=") and "finite" in m for m in info.value.errors)
