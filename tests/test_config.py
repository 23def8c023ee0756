"""Config parsing, validation, canonical serialization, and experiment ids."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from supercrit.config import (
    KINDS,
    ConfigError,
    ExperimentConfig,
    parse_config,
    serialize_config,
    validate,
    with_overrides,
)
from supercrit.nonlinearity import builtin_catalog

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
    cfg = parse_config(GOOD)
    assert with_overrides(cfg, seed=1).experiment_id() != cfg.experiment_id()
    assert with_overrides(cfg, T=0.25).experiment_id() != cfg.experiment_id()


def test_section_headers_are_aliases():
    text = GOOD + "\n[grid]\nN = 256\n[run]\nseed = 9\n"
    cfg = parse_config(text)
    assert cfg.N == 256 and cfg.seed == 9


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
    # appendix-construct also keeps the probe's |f(u)| of every record
    ladder = ("kind = appendix-construct\nnonlinearity = oscillating_sin:q=1\n"
              "d = 3\nN = 64\nladder = 1,2,4\n")
    parse_config(ladder)
    with pytest.raises(ConfigError):
        parse_config(ladder + "stride = 1\nT = 100\n")
    # the assumption lab allocates no grid field
    parse_config("kind = check-assumptions\nd = 3\nN = 1024\n")


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


def test_effective_dt_defaults():
    wave = parse_config(GOOD)
    assert wave.effective_dt() == pytest.approx(0.25 * wave.L / wave.N)
    nls = parse_config("kind = simulate-nls\nnonlinearity = nls_cubic\nN = 64\n")
    assert nls.effective_dt() == pytest.approx(1e-3)


def test_unknown_nonlinearity_reported():
    with pytest.raises(ConfigError) as info:
        parse_config("kind = simulate-wave\nnonlinearity = cosh_tower\n")
    assert any("cosh_tower" in m for m in info.value.errors)


FLOAT_FIELDS = ("L", "dt", "T", "amplitude", "radius", "R")
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def valid_configs(draw):
    cfg = ExperimentConfig(
        kind=draw(st.sampled_from(KINDS)),
        nonlinearity=draw(st.sampled_from([s.name for s in builtin_catalog()])),
        d=draw(st.integers(1, 3)),
        N=draw(st.sampled_from([8, 16, 64, 256])),
        L=draw(st.floats(1e-3, 1e6)),
        dt=draw(st.just(0.0) | st.floats(1e-9, 1e-4)),
        T=draw(st.floats(1e-9, 1e6)),
        amplitude=draw(finite),
        radius=draw(finite),
        ladder=tuple(sorted(draw(st.lists(finite, max_size=4, unique=True)))),
        R=draw(finite),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
        stride=draw(st.integers(0, 10 ** 6)),
    )
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
