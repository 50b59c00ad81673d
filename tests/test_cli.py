"""CLI contract: configs, overrides, reports, CSV, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time

import pytest

from asymflux.cli import (RunConfig, build_spec, config_from_echo, load_config,
                          main)
from asymflux.errors import ConfigError


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out-json", str(out), "--no-timings"])
    return code, json.loads(out.read_text()) if out.exists() else None


# ------------------------------------------------------------------- config

def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(
        "[metric]\nkind = schwarzschild_conformal\nn = 3\nm = 2.0\n"
        "center = 1.0, 0.5, 0.0\n"
        "[schedule]\nstart = 8\nratio = 2\ncount = 5\n"
        "[quadrature]\ndegree = 10\n"
        "[run]\nseed = 3\n")
    cfg = load_config(str(cfg_file))
    assert cfg.kind == "schwarzschild_conformal"
    assert cfg.m == 2.0
    assert cfg.center == (1.0, 0.5, 0.0)
    assert cfg.degree == 10
    # flags override file values
    cfg2 = load_config(str(cfg_file), {"m": 1.0, "degree": 14})
    assert cfg2.m == 1.0
    assert cfg2.degree == 14


def test_config_errors():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.ini")
    with pytest.raises(ConfigError):
        RunConfig(schedule_count=2).validate()
    with pytest.raises(ConfigError):
        RunConfig(degree=99).validate()
    with pytest.raises(ConfigError):
        build_spec(RunConfig(kind="not_a_metric"))


def test_bad_params_value_names_its_key(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(
        "[metric]\nkind = expression\nn = 3\n"
        "[components]\ng_1_1 = 1 + mm/r\ng_2_2 = 1\ng_3_3 = 1\n"
        "[params]\nmm = two\n")
    with pytest.raises(ConfigError, match=r"^bad value for \[params\] mm: 'two'"):
        load_config(str(cfg_file))


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_params_value_is_a_config_error(tmp_path, capsys, value):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(
        "[metric]\nkind = expression\nn = 3\n"
        "[components]\ng_1_1 = (1 + mm/(2*r))^4\ng_2_2 = (1 + mm/(2*r))^4\n"
        "g_3_3 = (1 + mm/(2*r))^4\n"
        f"[params]\nmm = {value}\n")
    with pytest.raises(ConfigError, match="finite"):
        build_spec(load_config(str(cfg_file)))
    assert main(["center", "--config", str(cfg_file), "--degree", "6"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err


def test_boolean_keys_accept_only_boolean_words(tmp_path, capsys):
    cfg_file = tmp_path / "run.ini"
    for word, value in (("1", True), ("Yes", True), ("on", True),
                        ("false", False), ("0", False), ("OFF", False)):
        cfg_file.write_text(f"[run]\nno_timings = {word}\n")
        assert load_config(str(cfg_file)).no_timings is value
    for word in ("maybe", "2", ""):
        cfg_file.write_text(f"[run]\nno_timings = {word}\n")
        with pytest.raises(ConfigError, match=r"\[run\] no_timings"):
            load_config(str(cfg_file))
    assert main(["mass", "--kind", "euclidean", "--n", "3",
                 "--config", str(cfg_file)]) == 2
    assert "config error" in capsys.readouterr().err


def test_expression_metric_from_config(tmp_path):
    import numpy as np

    from asymflux.catalog import metric_jet

    cfg_file = tmp_path / "expr.ini"
    cfg_file.write_text(
        "[metric]\nkind = expression\nn = 3\n"
        "[components]\ng_1_1 = 1 + aa/r\ng_2_2 = 1\ng_3_3 = 1\n"
        "[params]\naa = 2.0\n")
    spec = build_spec(load_config(str(cfg_file)))
    jet = metric_jet(spec, np.array([2.0, 0.0, 0.0]))
    assert jet.g[0, 0] == pytest.approx(2.0)
    assert jet.g[1, 1] == pytest.approx(1.0)


def test_bad_component_key_rejected(tmp_path):
    cfg_file = tmp_path / "bad.ini"
    cfg_file.write_text(
        "[metric]\nkind = expression\nn = 3\n[components]\ng_1_9 = 1\n")
    with pytest.raises(ConfigError):
        build_spec(load_config(str(cfg_file)))


@pytest.mark.parametrize("text", ["1 + (x1", "1 + foo"],
                         ids=["syntax", "unknown-identifier"])
def test_bad_component_text_rejected(tmp_path, text):
    """Components are parsed when the spec is built, so a bad text is a
    configuration error before any computation starts."""
    cfg_file = tmp_path / "bad.ini"
    cfg_file.write_text(
        f"[metric]\nkind = expression\nn = 3\n[components]\ng_1_1 = {text}\n")
    with pytest.raises(ConfigError):
        build_spec(load_config(str(cfg_file)))
    assert main(["mass", "--config", str(cfg_file),
                 "--out-json", str(tmp_path / "out.json")]) == 2


def test_unread_metric_values_rejected(tmp_path, capsys):
    """Components, params and a chart on a catalog kind, which never reads
    them, are a configuration error naming them; the component is not
    parsed."""
    cfg_file = tmp_path / "kottler.ini"
    cfg_file.write_text(
        "[metric]\nkind = kottler\nn = 3\nm = 1\nchart = cartesian\n"
        "[components]\ng_1_1 = garbage(\n[params]\nq = 1\n")
    with pytest.raises(ConfigError, match="components, params, chart"):
        build_spec(load_config(str(cfg_file)))
    assert main(["ah-mass", "--config", str(cfg_file), "--degree", "6"]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_echo_round_trip(tmp_path):
    code, report = run_cli(["mass", "--kind", "schwarzschild_conformal",
                            "--n", "3", "--m", "1", "--degree", "8"], tmp_path)
    assert code == 0
    rebuilt = config_from_echo(report["config"])
    assert rebuilt.kind == "schwarzschild_conformal"
    assert rebuilt.m == 1.0
    assert rebuilt.degree == 8
    # a rerun from the echo produces the same charges
    assert build_spec(rebuilt) == build_spec(rebuilt)


# ------------------------------------------------------------------ commands

def test_mass_schwarzschild(tmp_path):
    code, report = run_cli(["mass", "--kind", "schwarzschild_conformal",
                            "--n", "3", "--m", "1", "--degree", "10"], tmp_path)
    assert code == 0
    assert report["schema_version"] == 1
    by_id = {c["id"]: c for c in report["charges"]}
    assert by_id["mass_classical"]["limit"] == pytest.approx(1.0, abs=1e-3)
    assert by_id["mass_ricci"]["limit"] == pytest.approx(1.0, abs=1e-8)
    assert all(v["passed"] for v in report["verdicts"])


def test_mass_euclidean_is_zero(tmp_path):
    code, report = run_cli(["mass", "--kind", "euclidean", "--n", "3",
                            "--degree", "8"], tmp_path)
    assert code == 0
    for c in report["charges"]:
        assert abs(c["limit"]) < 1e-12


def test_center_command(tmp_path):
    code, report = run_cli(["center", "--kind", "schwarzschild_conformal",
                            "--n", "3", "--m", "1", "--center", "1,0.5,0",
                            "--degree", "10"], tmp_path)
    assert code == 0
    by_id = {c["id"]: c for c in report["charges"]}
    assert by_id["center_classical_0"]["limit"] == pytest.approx(1.0, abs=1e-2)
    assert by_id["center_ricci_1"]["limit"] == pytest.approx(0.5, abs=1e-2)
    assert report["diagnostics"]["rt_status"] == "pass"


def test_ah_mass_kottler(tmp_path):
    code, report = run_cli(["ah-mass", "--kind", "kottler", "--n", "3",
                            "--m", "1", "--kernel", "V0", "--degree", "12"],
                           tmp_path)
    assert code == 0
    by_id = {c["id"]: c for c in report["charges"]}
    assert by_id["ah_mass_0"]["limit"] == pytest.approx(1.0, abs=1e-6)
    assert by_id["ah_ricci_0"]["limit"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("which,kind", [("pohozaev", "hyperbolic_polar"),
                                        ("kernel", "euclidean"),
                                        ("equivalence",
                                         "schwarzschild_conformal")])
def test_verify_commands(tmp_path, which, kind):
    args = ["verify", "--kind", kind, "--n", "3", "--which", which,
            "--degree", "12"]
    if kind == "schwarzschild_conformal":
        args += ["--m", "1"]
    if which == "pohozaev":
        args += ["--annulus", "1,2"]
    code, report = run_cli(args, tmp_path)
    assert code == 0
    assert report["verdicts"]
    assert all(v["passed"] for v in report["verdicts"])


def test_sweep_writes_csv(tmp_path):
    csv_dir = tmp_path / "csv"
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--kind", "schwarzschild_conformal", "--n", "3",
                 "--m", "1", "--degree", "8", "--csv-dir", str(csv_dir),
                 "--out-json", str(out), "--no-timings"])
    assert code == 0
    csv = (csv_dir / "mass_classical.csv").read_text().splitlines()
    assert csv[0] == "r,raw_flux,normalized,quad_error"
    assert len(csv) == 6
    # the normalized series decreases monotonically toward m
    vals = [float(line.split(",")[2]) for line in csv[1:]]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] == pytest.approx(1.0, abs=2e-2)


@pytest.mark.parametrize("rel_tol", [[], ["--rel-tol", "1e-3"]],
                         ids=["default-rel-tol", "rel-tol-1e-3"])
def test_equivalence_verdicts_match_commands(tmp_path, rel_tol):
    """`verify --which equivalence` judges every classical/Ricci pair exactly
    as the pair's own command does, with the same --rel-tol."""
    schw = ["--kind", "schwarzschild_conformal", "--n", "3", "--m", "1",
            "--center", "1,0.5,0"]
    kottler = ["--kind", "kottler", "--n", "3", "--m", "1"]
    cases = [(schw, ("mass", "center"),
              {"mass": "mass_agreement",
               **{f"center[{a}]": f"center_agreement_{a}" for a in range(3)}}),
             (kottler, ("ah-mass",),
              {f"ah_charge[{i}]": f"ah_agreement_{i}" for i in range(4)})]
    for metric, commands, pairs in cases:
        args = [*metric, "--degree", "10", *rel_tol]
        _, eq = run_cli(["verify", "--which", "equivalence", *args], tmp_path)
        own = {}
        for command in commands:
            _, report = run_cli([command, *args], tmp_path)
            own.update({v["id"]: v for v in report["verdicts"]})
        assert len(eq["verdicts"]) == len(pairs)
        for verdict in eq["verdicts"]:
            match = own[pairs[verdict["id"].removeprefix("equivalence:")]]
            for key in ("difference", "budget", "passed"):
                assert verdict[key] == match[key], (verdict["id"], key)


# ----------------------------------------------------------------- exit codes

_SCHW3 = ["--kind", "schwarzschild_conformal", "--n", "3", "--m", "1"]


@pytest.mark.parametrize("argv", [
    pytest.param(["mass", "--kind", "bogus", "--n", "3"], id="bogus-kind"),
    pytest.param(["mass", *_SCHW3, "--ratio", "1"], id="ratio-1"),
    pytest.param(["mass", *_SCHW3, "--start", "-1"], id="start-negative"),
    pytest.param(["ah-mass", "--kind", "kottler", "--n", "3", "--m", "1",
                  "--schedule", "arithmetic", "--step", "0"], id="step-0"),
    pytest.param(["ah-mass", "--kind", "kottler", "--n", "3", "--m", "1",
                  "--kernel", "V9"], id="kernel-V9"),
    pytest.param(["mass", "--kind", "schwarzschild_conformal", "--n", "6",
                  "--m", "1"], id="n-6"),
    pytest.param(["center", *_SCHW3, "--center", "1,x,0"], id="center-text"),
    pytest.param(["center", *_SCHW3, "--center", "1,nan,0"], id="center-nan"),
    pytest.param(["center", *_SCHW3, "--center", "1,inf,0"], id="center-inf"),
    pytest.param(["verify", "--kind", "hyperbolic_polar", "--n", "3",
                  "--which", "pohozaev", "--annulus", "2,1"],
                 id="annulus-reversed"),
    pytest.param(["verify", "--kind", "hyperbolic_polar", "--n", "3",
                  "--which", "pohozaev", "--annulus", "0,1"],
                 id="annulus-zero-polar"),
    pytest.param(["verify", "--kind", "euclidean", "--n", "3",
                  "--which", "pohozaev", "--annulus", "0,1"],
                 id="annulus-zero-flat"),
    pytest.param(["verify", "--kind", "euclidean", "--n", "3",
                  "--which", "pohozaev", "--annulus", "1,inf"],
                 id="annulus-infinite"),
    pytest.param(["mass", *_SCHW3, "--center", "1,2"], id="center-length"),
    pytest.param(["mass", "--kind", "schwarzschild_conformal", "--n", "3",
                  "--m", "nan"], id="m-nan"),
    pytest.param(["mass", *_SCHW3, "--start", "inf"], id="start-inf"),
    pytest.param(["mass", *_SCHW3, "--rel-tol", "nan"], id="rel-tol-nan"),
    pytest.param(["mass", *_SCHW3, "--rel-tol", "-1"], id="rel-tol-negative"),
    pytest.param(["verify", "--kind", "hyperbolic_polar", "--n", "3",
                  "--which", "pohozaev", "--radial-degree", "0"],
                 id="radial-degree-0"),
    pytest.param(["verify", "--kind", "hyperbolic_polar", "--n", "3",
                  "--which", "pohozaev", "--radial-degree", "-3"],
                 id="radial-degree-negative"),
    pytest.param(["mass", "--kind", "kottler", "--n", "3", "--m", "1"],
                 id="mass-on-hyperbolic"),
    pytest.param(["center", "--kind", "kottler", "--n", "3", "--m", "1"],
                 id="center-on-hyperbolic"),
    pytest.param(["ah-mass", "--kind", "euclidean", "--n", "3"],
                 id="ah-mass-on-flat"),
    pytest.param(["verify", *_SCHW3, "--which", "kernel"],
                 id="kernel-non-einstein"),
    pytest.param(["mass", "--kind", "euclidean", "--n", "3", "--threads", "0"],
                 id="threads-0"),
    pytest.param(["mass", "--kind", "euclidean", "--n", "3", "--threads", "-3"],
                 id="threads-negative"),
    pytest.param(["mass", "--kind", "euclidean", "--n", "3", "--m", "2"],
                 id="m-on-euclidean"),
    pytest.param(["ah-mass", "--kind", "kottler", "--n", "3", "--m", "1",
                  "--center", "5,5,5"], id="center-on-kottler"),
    pytest.param(["verify", "--kind", "hyperbolic_polar", "--n", "3", "--m",
                  "1", "--which", "kernel"], id="m-on-hyperbolic-polar"),
])
def test_exit_code_config_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value,code", [
    pytest.param("0", 2, id="env-threads-0"),
    pytest.param("-3", 2, id="env-threads-negative"),
    pytest.param("abc", 2, id="env-threads-text"),
    pytest.param("1.5", 2, id="env-threads-fraction"),
    pytest.param("", 0, id="env-threads-empty"),
])
def test_threads_environment_variable(monkeypatch, capsys, value, code):
    """An ``ASYMFLUX_THREADS`` that is not a positive integer is a
    configuration error, as ``--threads 0`` is; empty means one thread."""
    monkeypatch.setenv("ASYMFLUX_THREADS", value)
    assert main(["mass", "--kind", "euclidean", "--n", "3",
                 "--degree", "6"]) == code
    err = capsys.readouterr().err
    assert ("config error" in err) == (code == 2)
    assert "Traceback" not in err


def test_exit_code_computation_error(capsys):
    # kottler horizon inside the requested annulus -> domain error -> 1
    code = main(["verify", "--kind", "kottler", "--n", "3", "--m", "50",
                 "--which", "pohozaev", "--annulus", "1,2", "--degree", "8"])
    assert code == 1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_huge_radius_is_a_computation_error(capsys):
    # the hyper-dual metric jet overflows at r = 1e300 (inf, then inf * 0)
    code = main(["mass", *_SCHW3, "--count", "3", "--start", "1e300",
                 "--degree", "6"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    pytest.param(["mass", *_SCHW3], id="mass"),
    pytest.param(["ah-mass", "--kind", "kottler", "--n", "3", "--m", "1"],
                 id="ah-mass"),
])
def test_total_time_covers_the_whole_command(monkeypatch, tmp_path, argv):
    """``timings.total_s`` includes the decay diagnostic run after the charges."""
    from asymflux import cli

    decay_rate = cli.decay_rate

    def slow_decay_rate(*args):
        time.sleep(0.5)
        return decay_rate(*args)

    monkeypatch.setattr(cli, "decay_rate", slow_decay_rate)
    out = tmp_path / "out.json"
    assert main(argv + ["--degree", "8", "--out-json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["diagnostics"]["timings"]["total_s"] >= 0.5


# --------------------------------------------------------------- determinism

@pytest.mark.parametrize("args", [
    pytest.param(["mass", *_SCHW3, "--degree", "16"], id="mass"),
    pytest.param(["center", *_SCHW3, "--center", "1,0.5,0", "--degree", "8"],
                 id="center"),
    pytest.param(["ah-mass", "--kind", "kottler", "--n", "3", "--m", "1",
                  "--degree", "8"], id="ah-mass"),
    pytest.param(["verify", "--kind", "hyperbolic_polar", "--n", "3",
                  "--which", "pohozaev", "--degree", "8"],
                 id="verify-pohozaev"),
])
def test_reports_byte_identical_across_threads(tmp_path, args):
    cmd = [sys.executable, "-m", "asymflux.cli", *args, "--no-timings"]
    outs = []
    for threads in ("1", "4"):
        env = dict(os.environ, ASYMFLUX_THREADS=threads)
        res = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert res.returncode == 0
        outs.append(res.stdout)
    assert outs[0] == outs[1]
