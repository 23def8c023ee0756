"""End-to-end command line behavior: exit codes, artifacts, determinism."""

import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from supercrit import cli, config, field_core, wave_integrator, weak_strong
from supercrit.cli import _env_overrides, build_parser, main
from supercrit.config import ExperimentConfig, parse_config
from supercrit.nonlinearity import AssumptionClass, NlsNonlinearitySpec
from supercrit.runner import export_plot_data, run_experiment

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


def test_leakage_flag_exits_3(tmp_path, capsys):
    cfg = tmp_path / "leaky.cfg"
    cfg.write_text(NLS_LEAKY_CONFIG)
    code = main(["simulate-nls", "--config", str(cfg),
                 "--output", str(tmp_path / "runs")])
    assert code == 3
    assert "leakage_flag" in capsys.readouterr().out


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
    assert summary["ladder"] == [0.1, 0.01, 0.001]
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
    assert all(report["cancellation"].values())
    assert report["truncation_interior_max_diff"] == 0.0
    assert report["weak_identity_residual"] < 1e-4


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
    # the stepper state and its temporaries take about 17 fields; keeping the
    # 29 recorded (u, u_t) pairs would add 58 more
    assert peak < 32 * field_bytes


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
