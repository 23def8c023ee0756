"""End-to-end command line behavior: exit codes, artifacts, determinism."""

import csv
import dataclasses
import json
import os
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from supercrit import cli, config, field_core, runner, wave_integrator, weak_strong
from supercrit.cli import _env_overrides, build_parser, main
from supercrit.config import KINDS, ConfigError, ExperimentConfig, parse_config
from supercrit.nonlinearity import AssumptionClass, NlsNonlinearitySpec, builtin_catalog
from supercrit.runner import export_plot_data, run_experiment
from supercrit.stepping import RunSchedule

WAVE_CONFIG = """
kind = simulate-wave
nonlinearity = defocusing_exp:m=1
N = 128
L = 8.0
T = 0.25
amplitude = 0.5
"""

NLS_LEAKY_CONFIG = """
kind = simulate-nls
nonlinearity = nls_cubic
N = 128
L = 8.0
T = 1.0
amplitude = 0.5
radius = 1.0
"""


@pytest.fixture
def wave_config(tmp_path):
    path = tmp_path / "wave.cfg"
    path.write_text(WAVE_CONFIG)
    return path


def payload_files(exp_dir):
    """Payload bytes by name, excluding the timestamped manifest."""
    return {
        name: (exp_dir / name).read_bytes()
        for name in sorted(os.listdir(exp_dir))
        if name != "manifest.json"
    }


def test_parser_exposes_all_subcommands():
    parser = build_parser()
    for cmd in ("check-assumptions", "simulate-wave", "simulate-nls",
                "weak-strong", "appendix-construct", "identity-check"):
        args = parser.parse_args([cmd, "--config", "x"])
        assert args.command == cmd
        assert args.jobs == 1
    args = parser.parse_args(["export", "abc123"])
    assert args.experiment_id == "abc123"


def test_simulate_wave_end_to_end(tmp_path, wave_config, capsys):
    out = tmp_path / "runs"
    code = main(["simulate-wave", "--config", str(wave_config),
                 "--output", str(out)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    exp_id, outcome = line.split()
    assert outcome == "ok"
    exp_dir = out / exp_id
    manifest = json.loads((exp_dir / "manifest.json").read_text())
    assert manifest["experiment_id"] == exp_id
    assert manifest["outcome"] == "ok"
    assert (exp_dir / "trace.csv").read_text().startswith("t,E_total")


def test_repeated_runs_are_byte_identical(tmp_path, wave_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate-wave", "--config", str(wave_config),
                 "--output", str(out1)]) == 0
    assert main(["simulate-wave", "--config", str(wave_config),
                 "--output", str(out2)]) == 0
    (d1,) = [p for p in out1.iterdir()]
    (d2,) = [p for p in out2.iterdir()]
    assert d1.name == d2.name
    assert payload_files(d1) == payload_files(d2)


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("kind = simulate-wave\nN = 100\nwhat = ever\n")
    assert main(["simulate-wave", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert main(["simulate-wave", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_non_finite_value_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.cfg"
    bad.write_text(WAVE_CONFIG + "T = nan\n")
    assert main(["simulate-wave", "--config", str(bad)]) == 2
    assert "T=nan must be finite" in capsys.readouterr().err


def test_override_errors_name_their_source(tmp_path, capsys, monkeypatch):
    path = tmp_path / "two.cfg"
    path.write_text("nonlinearity = defocusing_exp:m=1\nN = 64\n")
    monkeypatch.setenv("SUPERCRIT_N", "abc")
    assert main(["simulate-wave", "--config", str(path), "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: SUPERCRIT_N: bad value for 'N': 'abc'" in err
    assert "line" not in err
    # an error in the file still names its line
    path.write_text("nonlinearity = defocusing_exp:m=1\nN = x\n")
    assert main(["simulate-wave", "--config", str(path), "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "line 2: bad value for 'N': 'x'" in err and "SUPERCRIT_N: bad value" in err


@pytest.mark.parametrize("extra, records", [("d = 1\nN = 64\nT = 1\n", 33),
                                            ("stride = 10\n", 14)])
def test_identity_check_with_too_few_records_exits_2(tmp_path, capsys, monkeypatch, extra,
                                                     records):
    monkeypatch.setattr(cli, "run_experiment", lambda *args: pytest.fail("run started"))
    path = tmp_path / "short.cfg"
    path.write_text("nonlinearity = defocusing_exp:m=1\n" + extra)
    assert main(["identity-check", "--config", str(path), "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"identity-check makes {records} records" in err and "needs 64" in err


@pytest.mark.parametrize("kind, text, key", [
    ("check-assumptions", "nonlinearity = oscillating_sin:q=2\nR = 0\n", "R"),
    ("check-assumptions", "nonlinearity = nls_cubic\nR = -1\n", "R"),
    ("simulate-wave", "nonlinearity = defocusing_exp:m=1\nstride = -3\n", "stride"),
    ("weak-strong", "nonlinearity = nls_cubic\nradius = 0\n", "radius"),
])
def test_bad_radius_or_stride_exits_2(tmp_path, capsys, monkeypatch, kind, text, key):
    # each ran before it was checked: R ended in a traceback, stride = -3 ran
    # as the auto stride and radius = 0 on an all-zero bump
    monkeypatch.setattr(cli, "run_experiment", lambda *args: pytest.fail("run started"))
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main([kind, "--config", str(path), "--output", str(tmp_path)]) == 2
    assert f"config error: {key}=" in capsys.readouterr().err


@pytest.mark.parametrize("d", [1, 2])
def test_check_assumptions_at_another_d_exits_2(tmp_path, capsys, monkeypatch, d):
    # the constants are taken at d = 3; d = 1, 2 and 3 gave one report under
    # three experiment ids
    monkeypatch.setattr(cli, "run_experiment", lambda *args: pytest.fail("run started"))
    path = tmp_path / "assume.cfg"
    path.write_text(f"nonlinearity = oscillating_sin:q=2\nd = {d}\n")
    assert main(["check-assumptions", "--config", str(path), "--output", str(tmp_path)]) == 2
    assert "check-assumptions takes its constants at d = 3" in capsys.readouterr().err


def test_check_assumptions_of_a_supercritical_power_exits_2(tmp_path, capsys):
    # q = 7 >= 2* = 6 at the lab's d = 3; validated at the config's d = 1, it
    # ended in the lab's ValueError
    path = tmp_path / "assume.cfg"
    path.write_text("nonlinearity = pure_power:p=7\n")
    assert main(["check-assumptions", "--config", str(path), "--output", str(tmp_path)]) == 2
    assert "violates the subcritical growth bound" in capsys.readouterr().err


def test_check_assumptions_defaults_to_d_3():
    text = "nonlinearity = oscillating_sin:q=2\n"
    default = parse_config(text, "check-assumptions")
    assert default.d == 3
    assert default.experiment_id() == parse_config(text + "d = 3\n",
                                                   "check-assumptions").experiment_id()


def test_run_experiment_validates_a_python_built_config(tmp_path):
    # the dataclass's d defaults to 1, where the lab ran at 2* = 10 and gave
    # H22 698.416 against 695.232 from the CLI, which takes d = 3
    cfg = ExperimentConfig(kind="check-assumptions", nonlinearity="oscillating_sin:q=2")
    with pytest.raises(ConfigError, match="check-assumptions takes its constants at d = 3"):
        run_experiment(cfg, str(tmp_path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, ladder", [
    ("oscillating_sin:q=1", "0.001,0.002,0.004"),
    ("oscillating_sin:q=1", "1e200,1e201,1e202"),
    ("oscillating_sin:q=3", "1e200,1e201,1e202"),
    ("defocusing_exp:m=1", "1e200,1e201,1e202"),
])
def test_appendix_construct_ladder_without_a_truncation_exits_2(tmp_path, capsys, monkeypatch,
                                                               name, ladder):
    # no admissible abscissa (near 0, s f(s) = -2 s^2 cos(s^2) < -s^2 for s < 0;
    # at 1e200, s|s| overflows), or f and F overflow at the cut: the run ended
    # in TruncationError or OverflowError (exit 1)
    monkeypatch.setattr(cli, "run_experiment", lambda *args: pytest.fail("run started"))
    path = tmp_path / "ladder.cfg"
    path.write_text(f"nonlinearity = {name}\nN = 64\nladder = {ladder}\n")
    assert main(["appendix-construct", "--config", str(path), "--output", str(tmp_path)]) == 2
    assert "config error: ladder level" in capsys.readouterr().err


@pytest.mark.parametrize("name", [spec.name for spec in builtin_catalog()
                                  if not isinstance(spec, NlsNonlinearitySpec)])
def test_appendix_construct_holds_on_the_wave_defaults(tmp_path, capsys, name):
    path = tmp_path / "ladder.cfg"
    path.write_text(f"nonlinearity = {name}\nladder = 1,2,4\n")
    assert main(["appendix-construct", "--config", str(path), "--output", str(tmp_path)]) == 0
    exp_id = capsys.readouterr().out.split()[0]
    report = json.loads((tmp_path / exp_id / "report.json").read_text())
    probe = report["uniform_integrability"]
    assert set(probe) == {"r", "norm", "coarse_norm", "grid_exponent", "vacuous"}
    assert not probe["vacuous"] and 0.0 <= probe["grid_exponent"] < 0.01
    # the energies only fall, so the one-sided drift read 0.0; no member is
    # truncated, so each drifts as the reference does (3.9e-7 to 2.8e-5)
    assert report["bounded_drift"] and report["boundary"]["leakage"] < field_core.LEAKAGE_LIMIT
    assert report["energy_drift"] == [report["reference_drift"]] * 3
    assert 1e-7 < report["reference_drift"] < 1e-4


def test_appendix_construct_fails_a_potential_that_is_not_the_primitive(tmp_path, capsys,
                                                                        monkeypatch):
    # F_k gains (u - r)^2 beyond each cut r, so a truncated member's energy
    # falls as its peak (3 at t = 0) drops below the cut: the one-sided drift
    # read 0.0 and the run exited 0; the two-sided drifts of the members cut
    # at 1 and 2 read 0.17 and 0.024, against the reference's 5.2e-4
    real = weak_strong.truncate

    def broken(spec, level):
        cut = real(spec, level)

        def F(u):
            u = np.asarray(u, float)
            return cut.F(u) + (u - np.clip(u, level.r_minus, level.r_plus)) ** 2
        return dataclasses.replace(cut, F=F)

    monkeypatch.setattr(weak_strong, "truncate", broken)
    path = tmp_path / "ladder.cfg"
    path.write_text(f"nonlinearity = pure_power:p=3\nN = 128\namplitude = {3 * np.e!r}\n"
                    "ladder = 1,2,4\n")
    assert main(["appendix-construct", "--config", str(path), "--output", str(tmp_path)]) == 4
    exp_id = capsys.readouterr().out.split()[0]
    report = json.loads((tmp_path / exp_id / "report.json").read_text())
    assert not report["bounded_drift"]
    bound = weak_strong.DRIFT_MULTIPLE * report["reference_drift"]
    assert [d > bound for d in report["energy_drift"]] == [True, True, False]


def test_appendix_construct_flags_boundary_leakage_as_simulate_wave_does(tmp_path, capsys):
    # the sup norm climbs from 0.07 at t = 4 to 0.42 at t = 8 as the wave wraps
    # round the box; appendix-construct exited 4 on the drift 2.8e-3
    path = tmp_path / "leaky.cfg"
    for kind in ("simulate-wave", "appendix-construct"):
        path.write_text("nonlinearity = oscillating_sin:q=2\nN = 128\nL = 16\nT = 8\n"
                        "ladder = 1,2,4\n")
        assert main([kind, "--config", str(path), "--output", str(tmp_path)]) == 3
        assert capsys.readouterr().out.split()[1] == "leakage_flag"


def test_appendix_construct_report_does_not_depend_on_the_seed(tmp_path, capsys):
    # the probe's random cell unions drew from the seed; at N = 64 the
    # reference's boundary leakage reads 1.8e-6 and the run exits 3
    path = tmp_path / "ladder.cfg"
    path.write_text("nonlinearity = oscillating_sin:q=1\nN = 128\nladder = 1,2,4\n")
    reports = []
    for seed in ("0", "7"):
        assert main(["appendix-construct", "--config", str(path), "--output", str(tmp_path),
                     "--seed", seed]) == 0
        exp_id = capsys.readouterr().out.split()[0]
        reports.append((tmp_path / exp_id / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("kind, text, step", [
    ("simulate-wave", "nonlinearity = defocusing_exp:m=1\nd = 3\nN = 64\nL = 10\n"
                      "radius = 1.5\nT = 1\n", 1 / 45),
    ("weak-strong", "nonlinearity = nls_coercive_exp\nd = 2\nN = 128\nL = 40\n"
                    "radius = 5\nT = 0.5\ndt = 0.005\n", 0.005),
], ids=["wave3d", "nls-ladder"])
def test_schedule_step_is_T_over_steps_bitwise(kind, text, step):
    cfg = parse_config(text, kind)
    base = runner._base_config(cfg, cfg.spec())
    assert base.step() == base.T / base.steps() == step


@pytest.mark.parametrize("spec, message", [
    ("defocusing_exp:m=1", "stability bound"),
    ("nls_cubic", "'nls_cubic' is not a wave nonlinearity"),
])
def test_identity_check_with_an_unstable_dt_exits_2(tmp_path, capsys, spec, message):
    path = tmp_path / "unstable.cfg"
    path.write_text(f"nonlinearity = {spec}\ndt = 0.1\n")
    assert main(["identity-check", "--config", str(path), "--output", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_identity_check_of_an_nls_nonlinearity_exits_2(tmp_path, capsys, monkeypatch):
    # the run's spec was replaced by defocusing_exp:m=1, and the run exited 0
    # with the weak identity of a force the config never named
    monkeypatch.setattr(cli, "run_experiment", lambda *args: pytest.fail("run started"))
    path = tmp_path / "id.cfg"
    path.write_text("nonlinearity = nls_cubic\nN = 128\n")
    assert main(["identity-check", "--config", str(path), "--output", str(tmp_path)]) == 2
    assert "'nls_cubic' is not a wave nonlinearity" in capsys.readouterr().err


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["pure_power:p=0", "defocusing_exp:m=0"])
def test_a_force_not_finite_at_0_exits_2(tmp_path, capsys, monkeypatch, kind, name):
    # f(0) is 0 * 0^-1 * e, nan: simulate-wave and appendix-construct of
    # p = 0 exited 3 at t = 0, and check-assumptions exited 4 for p = 0 and
    # 0 for m = 0, whose even-sized grid never samples u = 0
    monkeypatch.setattr(cli, "run_experiment", lambda *args: pytest.fail("run started"))
    path = tmp_path / "zero.cfg"
    path.write_text(f"nonlinearity = {name}\nladder = 1,2,4\n")
    assert main([kind, "--config", str(path), "--output", str(tmp_path)]) == 2
    assert f"{name!r}: F or f is not finite at 0" in capsys.readouterr().err


def test_leakage_flag_exits_3(tmp_path, capsys):
    cfg = tmp_path / "leaky.cfg"
    cfg.write_text(NLS_LEAKY_CONFIG)
    code = main(["simulate-nls", "--config", str(cfg),
                 "--output", str(tmp_path / "runs")])
    assert code == 3
    assert "leakage_flag" in capsys.readouterr().out


def _boundary_evidence(exp_dir):
    """The largest (shell, tail) shares a payload holds: the trace's columns,
    or the boundary entry of its JSON report."""
    if (exp_dir / "trace.csv").exists():
        with open(exp_dir / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        return tuple(max(float(r[c]) for r in rows) for c in ("leakage", "tail"))
    (name,) = [n for n in ("summary.json", "report.json", "identities.json")
               if (exp_dir / n).exists()]
    boundary = json.loads((exp_dir / name).read_text())["boundary"]
    return boundary["leakage"], boundary["tail"]


@pytest.mark.parametrize("kind", ["simulate-wave", "weak-strong", "identity-check",
                                  "appendix-construct"])
def test_every_integrating_kind_flags_a_run_that_reaches_the_boundary(tmp_path, capsys,
                                                                       kind):
    # defocusing_exp:m=1 reaches the L/8 shell by T = 4 (shell share 0.205,
    # tail 1.9e-8): weak-strong and identity-check never asked, and exited 0
    path = tmp_path / "far.cfg"
    path.write_text("T = 4\nladder = 1,2,4\n")
    assert main([kind, "--config", str(path), "--output", str(tmp_path)]) == 3
    exp_id, outcome = capsys.readouterr().out.split()
    assert outcome == "leakage_flag"
    shell, tail = _boundary_evidence(tmp_path / exp_id)
    assert shell == pytest.approx(0.205, abs=1e-3) and tail < 1e-7


@pytest.mark.parametrize("N", [32, 64, 128])
def test_an_under_resolved_wave_is_not_flagged_as_leakage(tmp_path, capsys, N):
    # the wave stays within radius + T = 2 of the centre, short of the shell
    # at 3L/8 = 3; at N = 64 the shell read its spectral tail, 1.8e-6, and
    # the run exited 3, while N = 32 (1.1e-7) and N = 128 (1.5e-9) exited 0
    path = tmp_path / "q1.cfg"
    path.write_text(f"nonlinearity = oscillating_sin:q=1\nN = {N}\n")
    assert main(["simulate-wave", "--config", str(path), "--output", str(tmp_path)]) == 0
    shell, tail = _boundary_evidence(tmp_path / capsys.readouterr().out.split()[0])
    assert shell < tail


@pytest.mark.parametrize("d, N", [(1, 256), (2, 64), (3, 32)])
def test_the_default_simulate_nls_stays_off_the_boundary(tmp_path, capsys, d, N):
    # on the wave's L = 8, radius 1 and T = 1 the bump dispersed into the shell
    # (shares 0.20, 0.36 and 0.47) and each run exited 3
    path = tmp_path / "nls.cfg"
    path.write_text(f"nonlinearity = nls_cubic\nd = {d}\nN = {N}\n")
    assert main(["simulate-nls", "--config", str(path), "--output", str(tmp_path)]) == 0
    shell, _ = _boundary_evidence(tmp_path / capsys.readouterr().out.split()[0])
    assert shell < 1e-6


@pytest.mark.parametrize("nonlinearity", ["nls_cubic", "nls_coercive_exp"])
def test_the_default_nls_weak_strong_stays_off_the_boundary(tmp_path, capsys, nonlinearity):
    # on the wave's L = 8, radius 1 and T = 1 the reference reached the shell
    # (share 0.204) and each run exited 3
    path = tmp_path / "ws.cfg"
    path.write_text(f"nonlinearity = {nonlinearity}\n")
    assert main(["weak-strong", "--config", str(path), "--output", str(tmp_path)]) == 0
    exp_dir = tmp_path / capsys.readouterr().out.split()[0]
    shell, _ = _boundary_evidence(exp_dir)
    assert shell < 1e-6
    members = json.loads((exp_dir / "summary.json").read_text())["members"]
    assert all(m["remainder_min"] > 0.0 for m in members)


def test_invariant_violation_exits_4(tmp_path, capsys):
    # the q=1 entry carries a derivative jump, so its Taylor constant is
    # reported unstable and the assumption check flags a violation
    cfg = tmp_path / "assume.cfg"
    cfg.write_text("kind = check-assumptions\n"
                   "nonlinearity = oscillating_sin:q=1\nR = 1.0\n")
    code = main(["check-assumptions", "--config", str(cfg),
                 "--output", str(tmp_path / "runs")])
    assert code == 4
    exp_id, outcome = capsys.readouterr().out.split()
    assert outcome == "invariant_violation"
    # the report shows why: the doubled sample moves the Taylor sup past 5%
    reports = json.loads((tmp_path / "runs" / exp_id / "report.json").read_text())
    h22 = next(r for r in reports if r["inequality"] == "H22")
    assert not h22["holds"]
    evidence = h22["constant"]["evidence"]
    assert len(evidence["window_sups"]) == 4
    v_n, v_2n = evidence["sample_sups"]
    assert abs(v_2n - v_n) > 0.05 * max(v_n, v_2n)


def test_weak_strong_blowup_writes_abort_artifact(tmp_path, capsys):
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text("kind = weak-strong\nN = 64\namplitude = 1000\n")
    out = tmp_path / "runs"
    # the handled overflow must not surface as a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["weak-strong", "--config", str(cfg), "--output", str(out)]) == 3
    exp_id, outcome = capsys.readouterr().out.split()
    assert outcome == "aborted_blowup"
    abort = json.loads((out / exp_id / "abort.json").read_text())
    assert "not finite" in abort["error"]

    # the cubic NLS ladder survives this amplitude, but on the wave's
    # geometry its fitted rate (about 900) overflows the exponential bound of
    # the trace CSV: the bound is written as inf and the ladder checks fail
    cfg.write_text("kind = weak-strong\nnonlinearity = nls_cubic\nN = 64\namplitude = 1000\n"
                   "L = 8\nradius = 1\nT = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["weak-strong", "--config", str(cfg), "--output", str(out)]) == 4
    exp_id, outcome = capsys.readouterr().out.split()
    assert outcome == "invariant_violation"
    assert (out / exp_id / "0.csv").read_text().splitlines()[-1].endswith(",inf")


@pytest.mark.parametrize("ladder", ["0,0.1", "-0.1,0.1", "1e-200,0.1"])
def test_weak_strong_ladder_without_positive_squares_exits_2(tmp_path, capsys, ladder):
    # G0 / eps^2 is undefined for these: eps = 0 wrote NaN into summary.json
    cfg = tmp_path / "ladder.cfg"
    cfg.write_text(f"kind = weak-strong\nN = 64\nT = 0.1\nladder = {ladder}\n")
    out = tmp_path / "runs"
    assert main(["weak-strong", "--config", str(cfg), "--output", str(out)]) == 2
    assert "with positive squares" in capsys.readouterr().err
    assert not out.exists()


def test_weak_strong_ladder_failing_a_check_exits_4(tmp_path, capsys):
    # at eps = 4 the nonlinearity amplifies the discrepancy far more than at
    # eps = 1e-3, so sup G / G0 spreads from 1.34 to 2.83 across the ladder
    cfg = tmp_path / "ladder.cfg"
    cfg.write_text("kind = weak-strong\nN = 128\nladder = 0.001,4.0\n")
    assert main(["weak-strong", "--config", str(cfg),
                 "--output", str(tmp_path / "runs")]) == 4
    assert "invariant_violation" in capsys.readouterr().out


def test_seed_flag_changes_experiment_id(tmp_path, wave_config):
    out = tmp_path / "runs"
    main(["simulate-wave", "--config", str(wave_config), "--output", str(out)])
    main(["simulate-wave", "--config", str(wave_config), "--output", str(out),
          "--seed", "7"])
    assert len(list(out.iterdir())) == 2


def test_environment_overrides(tmp_path, wave_config, monkeypatch):
    monkeypatch.setenv("SUPERCRIT_SEED", "11")
    out = tmp_path / "runs"
    assert main(["simulate-wave", "--config", str(wave_config),
                 "--output", str(out)]) == 0
    (exp_dir,) = out.iterdir()
    manifest = json.loads((exp_dir / "manifest.json").read_text())
    assert "seed = 11" in manifest["config"]


def test_seed_flag_overrides_environment(tmp_path, wave_config, monkeypatch):
    monkeypatch.setenv("SUPERCRIT_SEED", "11")
    out = tmp_path / "runs"
    assert main(["simulate-wave", "--config", str(wave_config), "--output", str(out),
                 "--seed", "7"]) == 0
    (exp_dir,) = out.iterdir()
    manifest = json.loads((exp_dir / "manifest.json").read_text())
    assert "seed = 7" in manifest["config"]


def test_environment_keys_match_fields_case_insensitively(tmp_path, wave_config,
                                                         monkeypatch):
    monkeypatch.setenv("SUPERCRIT_N", "64")
    monkeypatch.setenv("SUPERCRIT_HOME", "/x")
    out = tmp_path / "runs"
    assert main(["simulate-wave", "--config", str(wave_config),
                 "--output", str(out)]) == 0
    (exp_dir,) = out.iterdir()
    manifest = json.loads((exp_dir / "manifest.json").read_text())
    assert "N = 64" in manifest["config"]


FIELD_NAMES = list(ExperimentConfig.__dataclass_fields__)


@given(st.sampled_from(FIELD_NAMES), st.data())
def test_env_key_maps_to_field_in_any_case(name, data):
    cased = "".join(data.draw(st.sampled_from([c.lower(), c.upper()])) for c in name)
    env = {f"SUPERCRIT_{cased}": "v", "PATH": "/bin"}
    assert _env_overrides(env) == {name: "v"}


@given(st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789", min_size=1))
def test_env_keys_naming_no_field_are_ignored(key):
    assume(key.lower() not in {n.lower() for n in FIELD_NAMES})
    assert _env_overrides({f"SUPERCRIT_{key}": "1"}) == {}


def test_export_produces_tidy_csv(tmp_path, wave_config, capsys):
    out = tmp_path / "runs"
    main(["simulate-wave", "--config", str(wave_config), "--output", str(out)])
    (exp_dir,) = out.iterdir()
    capsys.readouterr()
    assert main(["export", exp_dir.name, "--output", str(out)]) == 0
    csv = capsys.readouterr().out
    assert csv.startswith("series,t,value")
    assert "E_total" in csv
    assert main(["export", "feedfacedeadbeef", "--output", str(out)]) == 2


def test_weak_strong_summary_artifacts(tmp_path):
    cfg_text = ("kind = weak-strong\nnonlinearity = defocusing_exp:m=1\n"
                "N = 128\nL = 8.0\nT = 0.25\n")
    cfg = parse_config(cfg_text)
    manifest = run_experiment(cfg, str(tmp_path))
    assert manifest.outcome == "ok"
    exp_dir = tmp_path / manifest.experiment_id
    summary = json.loads((exp_dir / "summary.json").read_text())
    assert summary["ladder"] == [0.001, 0.01, 0.1]
    for member in summary["members"]:
        assert member["G0"] > 0.0
        assert member["sup_G_over_G0"] >= 1.0
    # one trace pair per ladder member
    for i in range(3):
        assert (exp_dir / f"{i}.json").exists()
        assert (exp_dir / f"{i}.csv").exists()
    tidy = export_plot_data(manifest.experiment_id, str(tmp_path))
    assert "0/G" in tidy


def test_identity_check_artifacts(tmp_path):
    cfg = parse_config("kind = identity-check\nN = 128\nL = 8.0\nT = 1.0\n"
                       "amplitude = 0.5\nstride = 1\n")
    manifest = run_experiment(cfg, str(tmp_path))
    assert manifest.outcome == "ok"
    report = json.loads(
        (tmp_path / manifest.experiment_id / "identities.json").read_text()
    )
    assert report["weak_identity_scale"] > 0.0
    assert report["weak_identity_residual"] < (wave_integrator.WEAK_IDENTITY_GATE
                                               + report["weak_identity_quadrature_error"])


WAVE_ENTRIES = [spec.name for spec in builtin_catalog()
                if not isinstance(spec, NlsNonlinearitySpec)]


@pytest.mark.parametrize("text", [f"nonlinearity = {name}\n" for name in WAVE_ENTRIES]
                         + [f"N = 128\nL = 16\nT = {T}\n" for T in (2, 4)],
                         ids=WAVE_ENTRIES + [f"L16-T{T}" for T in (2, 4)])
def test_identity_check_holds_on_correct_runs(tmp_path, text):
    # with the residual scaled by |lhs| + |rhs|, the sides' difference, five
    # defaults read 2.0e-4 to 4.5e-4 and the L = 16 runs 1.7e-4 to 5.0e-3,
    # against a gate of 1e-4: each exited 4
    path = tmp_path / "id.cfg"
    path.write_text(text)
    assert main(["identity-check", "--config", str(path), "--output", str(tmp_path)]) == 0


def test_identity_check_that_wraps_around_the_box_is_flagged_but_still_holds(tmp_path,
                                                                             capsys):
    # at T = 8 the wave wraps around the torus (shell share 0.35, against a
    # tail of 5.4e-4), so the run ends as leakage_flag; the identity is exact
    # on the torus, so its residual still passes the gate (3.4e-5 against an
    # estimate of 4.4e-5)
    path = tmp_path / "id.cfg"
    path.write_text("N = 128\nL = 16\nT = 8\n")
    assert main(["identity-check", "--config", str(path), "--output", str(tmp_path)]) == 3
    exp_id, outcome = capsys.readouterr().out.split()
    assert outcome == "leakage_flag"
    report = json.loads((tmp_path / exp_id / "identities.json").read_text())
    assert report["boundary"]["leakage"] > 0.3 > 1e-3 > report["boundary"]["tail"]
    assert report["weak_identity_residual"] < (wave_integrator.WEAK_IDENTITY_GATE
                                               + report["weak_identity_quadrature_error"])


@pytest.mark.parametrize("name", ["pure_power:p=3", "defocusing_exp:m=1"])
def test_identity_check_fails_a_force_off_by_one_percent(tmp_path, monkeypatch, name):
    # the run steps the true force; only the records the identity reads are off
    force = wave_integrator._SpectralImpulse.force
    monkeypatch.setattr(wave_integrator._SpectralImpulse, "force",
                        lambda self, rec: 1.01 * force(self, rec))
    path = tmp_path / "id.cfg"
    path.write_text(f"nonlinearity = {name}\n")
    assert main(["identity-check", "--config", str(path), "--output", str(tmp_path)]) == 4


def test_rerun_replaces_directory_atomically(tmp_path, monkeypatch):
    cfg = parse_config(WAVE_CONFIG)
    m1 = run_experiment(cfg, str(tmp_path))
    m2 = run_experiment(cfg, str(tmp_path))
    assert m1.experiment_id == m2.experiment_id
    assert len(list(tmp_path.iterdir())) == 1
    assert not any(p.name.startswith(".tmp-") for p in tmp_path.iterdir())

    # a rerun whose final rename fails leaves the previous result in place
    target = tmp_path / m2.experiment_id
    before = {p.name: p.read_bytes() for p in target.iterdir()}
    real_replace = os.replace
    swaps = []

    def failing_swap(src, dst):
        # the first rename onto the target is the new result's; it fails
        if os.fspath(dst) == os.fspath(target) and not swaps:
            swaps.append(src)
            raise OSError("simulated rename failure")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_swap)
    with pytest.raises(OSError, match="simulated"):
        run_experiment(cfg, str(tmp_path))
    assert {p.name: p.read_bytes() for p in target.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == [m2.experiment_id]


def test_oversized_grid_exits_2_before_running(tmp_path, capsys, monkeypatch):
    # a run would allocate 8 GiB per field, so it must never start
    monkeypatch.setattr(cli, "run_experiment", lambda *args: pytest.fail("run started"))
    path = tmp_path / "big.cfg"
    path.write_text("nonlinearity = defocusing_exp:m=1\nd = 3\nN = 1024\n")
    assert main(["simulate-wave", "--config", str(path), "--output", str(tmp_path)]) == 2
    assert "working set" in capsys.readouterr().err


def test_simulate_wave_keeps_no_trajectory(tmp_path):
    path = tmp_path / "wave3d.cfg"
    path.write_text("nonlinearity = defocusing_exp:m=1\nd = 3\nN = 32\nL = 8\nT = 1\n")
    field_bytes = 32 ** 3 * 8
    tracemalloc.start()
    try:
        code = main(["simulate-wave", "--config", str(path), "--output", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # the run takes about 13 fields (16 with a step that allocates a new
    # state); keeping the 29 recorded (u, u_t) pairs would add 58 more
    assert peak < 32 * field_bytes


def test_simulate_wave_holds_only_its_state():
    # a warm run holds the state (u and three half spectra), the stepper's
    # three tables and the cached energy multiplier, with the step's residual
    # on top: 62.8 bytes per point. With u0 and u1 kept in the run config and
    # the full-grid |xi|^2 cached, it measured 79.0
    cfg = parse_config("nonlinearity = defocusing_exp:m=1\nd = 3\nN = 32\nL = 8\n"
                       "radius = 1.5\nT = 0.5\n", "simulate-wave")
    runner._do_simulate(cfg)  # warm the grid's cached arrays
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        runner._do_simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / 32 ** 3 <= 68.0


@pytest.mark.parametrize("kind, text", [
    ("simulate-wave", "nonlinearity = defocusing_exp:m=1\nN = 128\nL = 7.5\nT = 0.25\n"),
    ("simulate-nls", "nonlinearity = nls_cubic\nN = 128\nL = 15.7\nT = 0.05\n"),
    # the NLS Gronwall reads each member's u_t, -|xi|^2 u_hat transformed back
    ("weak-strong", "nonlinearity = nls_cubic\nd = 2\nN = 32\nL = 7.9\nT = 0.05\nradius = 1\n"),
], ids=["simulate-wave", "simulate-nls", "weak-strong-nls"])
def test_runs_build_no_full_grid_wavenumbers(tmp_path, monkeypatch, kind, text):
    calls = []

    def counted(self, _fn=field_core.GridSpec.wavenumber_sq):
        calls.append(self)
        return _fn(self)

    monkeypatch.setattr(field_core.GridSpec, "wavenumber_sq", counted)
    path = tmp_path / "run.cfg"
    # grids no other test uses, so each run also builds its cached Parseval multipliers
    path.write_text(text)
    assert main([kind, "--config", str(path), "--output", str(tmp_path)]) == 0
    assert calls == []


@pytest.mark.parametrize("kind, text", [
    ("simulate-wave", "dt = 1e-320\n"),
    ("simulate-wave", "T = 1e308\n"),
    ("simulate-nls", "nonlinearity = nls_cubic\ndt = 1e-320\n"),
    ("weak-strong", "dt = 1e-320\n"),
    ("identity-check", "dt = 1e-320\n"),
], ids=["simulate-wave", "simulate-wave-T", "simulate-nls", "weak-strong", "identity-check"])
def test_a_step_count_that_overflows_is_a_config_error(tmp_path, capsys, kind, text):
    # dt = 1e-320 is positive and within every step bound, but T/dt is inf
    path = tmp_path / "overflow.cfg"
    path.write_text(text)
    assert main([kind, "--config", str(path), "--output", str(tmp_path)]) == 2
    assert "no finite step count" in capsys.readouterr().err


@pytest.mark.parametrize("text", [WAVE_CONFIG, NLS_LEAKY_CONFIG], ids=["wave", "nls"])
def test_run_configs_hold_no_initial_data(text):
    cfg = parse_config(text)
    base = runner._base_config(cfg, cfg.spec())
    assert type(base) is RunSchedule
    names = [f.name for f in dataclasses.fields(base)]
    assert names == ["grid", "spec", "dt", "T", "diagnostics_stride"]
    assert not any(isinstance(getattr(base, name), np.ndarray) for name in names)


def test_weak_strong_reads_energies_from_the_stepper(tmp_path, monkeypatch):
    calls = []

    def counted(*args, _fn=field_core.wave_energy, **kwargs):
        calls.append(1)
        return _fn(*args, **kwargs)

    for module in (field_core, wave_integrator, weak_strong):
        if hasattr(module, "wave_energy"):
            monkeypatch.setattr(module, "wave_energy", counted)
    path = tmp_path / "ws.cfg"
    path.write_text("nonlinearity = defocusing_exp:m=1\n")
    assert main(["weak-strong", "--config", str(path), "--output", str(tmp_path)]) == 0
    assert calls == []


def test_nls_convexity_shift_covers_the_visited_radius(tmp_path, monkeypatch, capsys):
    # Fs(s) = a b (1 - exp(-s/b)) with s = |u|^2/2 has radial curvature
    # a exp(-s/b) (1 - 2s/b): convex on |u| <= 2 and concave beyond, down to
    # -0.45 a at |u| = 3.5. The run reaches |u| = 3.6, where the shift
    # estimated on |u| <= 2 (about 0.4) leaves the shifted defect negative;
    # the run needs about 0.8.
    a, b = 10.0, 4.0
    density = NlsNonlinearitySpec(
        name="saturating",
        Fs=lambda s: a * b * (1.0 - np.exp(-s / b)),
        Fsprime=lambda s: a * np.exp(-s / b),
        Fsprime2=lambda s: -a / b * np.exp(-s / b),
        assumption_class=AssumptionClass.NLS_SUBCRIT,
    )
    select = config.from_selection
    monkeypatch.setattr(config, "from_selection",
                        lambda name: density if name == "saturating" else select(name))
    path = tmp_path / "ws.cfg"
    path.write_text("nonlinearity = saturating\nN = 128\nL = 16\nT = 0.1\n"
                    "amplitude = 8.5\n")
    code = main(["weak-strong", "--config", str(path), "--output", str(tmp_path)])
    exp_id, _ = capsys.readouterr().out.split()
    summary = json.loads((tmp_path / exp_id / "summary.json").read_text())
    assert [m["remainder_min"] >= 0.0 for m in summary["members"]] == [True] * 3
    assert code == 0


def test_heap_policy_fixes_glibc_thresholds(monkeypatch, tmp_path):
    calls = []
    libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    assert main(["export", "absent", "--output", str(tmp_path)]) == 2
    # M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 64 MiB
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


def _no_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_library, lambda name: object()],
                         ids=["no-library", "no-mallopt"])
def test_heap_policy_is_a_no_op_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli._set_heap_policy() is None
