"""CLI contract: configs, overrides, reports, CSV, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from asymflux.cli import (RunConfig, build_spec, config_from_echo, load_config,
                          main)
from asymflux.errors import ConfigError
from asymflux.quadrature import sphere_rule


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
    """An index out of range, a digit that is not ASCII, or a key below the
    diagonal, whose message names the upper-triangle key to use."""
    cfg_file = tmp_path / "bad.ini"
    for key, names in (("g_1_9", "out of range"), ("g_1_\u00b2", "use g_i_j"),
                       ("g_2_1", "'g_1_2'")):
        cfg_file.write_text(f"[metric]\nkind = expression\nn = 3\n"
                            f"[components]\n{key} = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=names):
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



@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("lines,code", [
    pytest.param("g_1_1 = 1 + 1/r + x1*0\n[params]\nx1 = 0\nr = 5\n", 2,
                 id="parameter-named-like-a-variable"),
    pytest.param("g_1_1 = 1 + 1/r^1e400\n", 2, id="non-finite-number"),
    pytest.param("g_1_1 = 1 + 1/r^(1e300*1e300)\n", 1,
                 id="non-finite-exponent"),
])
def test_bad_expression_exits_with_one_line(tmp_path, capsys, lines, code):
    """A parameter that shadows a chart variable or a number literal that
    is not finite is a configuration error (2); a constant exponent that
    evaluates to inf is a computation error (1).  Each prints one line and
    no traceback."""
    cfg_file = tmp_path / "bad.ini"
    cfg_file.write_text("[metric]\nkind = expression\nn = 3\n[components]\n"
                        "g_2_2 = 1\ng_3_3 = 1\n" + lines)
    assert main(["mass", "--config", str(cfg_file), "--degree", "6",
                 "--no-timings"]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: " if code == 2 else "error: ")
    assert err.count("\n") == 1

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


def test_config_echo_rejects_unknown_keys(tmp_path):
    """An echo key RunConfig does not have is a ConfigError naming it, but
    the ``threads`` of echoes written while it was a config key is dropped,
    so those reports still rebuild their run."""
    code, report = run_cli(["mass", *_SCHW3, "--degree", "8"], tmp_path)
    assert code == 0
    assert "threads" not in report["config"]
    with pytest.raises(ConfigError, match="bogus"):
        config_from_echo({**report["config"], "bogus": 1})
    with pytest.raises(ConfigError, match="bogus"):
        config_from_echo({"bogus": 1})
    old = {**report["config"], "threads": 2}
    assert config_from_echo(old) == config_from_echo(report["config"])


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


def test_explicit_annulus_equals_the_default(tmp_path):
    """``--annulus`` is read in the units of its default, geodesic radii on
    a hyperbolic metric: on the area chart an explicit ``1,2`` is the
    default annulus, rho in (sinh 1, sinh 2)."""
    args = ["verify", "--kind", "hyperbolic_area", "--n", "3", "--which",
            "pohozaev", "--degree", "8"]
    _, default = run_cli(args, tmp_path, "default.json")
    _, explicit = run_cli(args + ["--annulus", "1,2"], tmp_path,
                          "explicit.json")
    assert (default.pop("config")["annulus"],
            explicit.pop("config")["annulus"]) == ([], [1.0, 2.0])
    assert explicit == default
    assert default["verdicts"][0]["id"].endswith(
        f":{float(np.sinh(1.0))}:{float(np.sinh(2.0))}")


def test_mass_writes_csv(tmp_path):
    """``--csv-dir`` writes one plot-ready CSV per reported series."""
    csv_dir = tmp_path / "csv"
    out = tmp_path / "mass.json"
    code = main(["mass", "--kind", "schwarzschild_conformal", "--n", "3",
                 "--m", "1", "--degree", "8", "--csv-dir", str(csv_dir),
                 "--out-json", str(out), "--no-timings"])
    assert code == 0
    assert sorted(path.name for path in csv_dir.iterdir()) == [
        "mass_classical.csv", "mass_ricci.csv"]
    csv = (csv_dir / "mass_classical.csv").read_text().splitlines()
    assert csv[0] == "r,raw_flux,normalized,quad_error"
    assert len(csv) == 6
    # the normalized series decreases monotonically toward m
    vals = [float(line.split(",")[2]) for line in csv[1:]]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] == pytest.approx(1.0, abs=2e-2)


@pytest.mark.parametrize("degree,want", [
    pytest.param("4", [4] * 5, id="degree-4"),
    pytest.param("16", [16] + [8] * 4, id="degree-16"),
])
def test_samples_name_their_rule(tmp_path, degree, want):
    """Every report sample carries the degree and node count of its
    sphere's rule: ``--degree`` is the first radius's degree and the cap of
    the others, which drop on a centered mass unless the cap is already
    the lowest the pick takes; the CSV keeps its four columns."""
    csv_dir = tmp_path / "csv"
    code, report = run_cli(["mass", *_SCHW3, "--degree", degree,
                            "--csv-dir", str(csv_dir)], tmp_path)
    assert code == 0
    samples = report["charges"][0]["samples"]
    assert [s["degree"] for s in samples] == want
    assert [s["nodes"] for s in samples] == [sphere_rule(3, d).node_count
                                             for d in want]
    csv = (csv_dir / "mass_classical.csv").read_text().splitlines()
    assert csv[0] == "r,raw_flux,normalized,quad_error"


@pytest.mark.parametrize("rel_tol", [[], ["--rel-tol", "1e-3"]],
                         ids=["default-rel-tol", "rel-tol-1e-3"])
def test_equivalence_verdicts_match_commands(tmp_path, rel_tol):
    """`verify --which equivalence` judges every classical/Ricci pair exactly
    as the pair's own command does, with the same --rel-tol."""
    schw = ["--kind", "schwarzschild_conformal", "--n", "3", "--m", "1",
            "--center", "1,0.5,0"]
    # a small mass that charge_series still divides by: centers are reported
    tiny = ["--kind", "schwarzschild_conformal", "--n", "3", "--m", "5e-11",
            "--center", "1,0.5,0"]
    kottler = ["--kind", "kottler", "--n", "3", "--m", "1"]
    centers = {"mass": "mass_agreement",
               **{f"center[{a}]": f"center_agreement_{a}" for a in range(3)}}
    cases = [(schw, ("mass", "center"), centers),
             (tiny, ("mass", "center"), centers),
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


_SCHW3 = ["--kind", "schwarzschild_conformal", "--n", "3", "--m", "1"]
_SCHW5_TRANSLATED = ["--kind", "schwarzschild_conformal", "--n", "5", "--m",
                     "1", "--center", "0.6,-0.5,0.4,0,0"]
_KOTTLER3 = ["--kind", "kottler", "--n", "3", "--m", "1"]
_TAU = {"tau_hat", "tau_threshold", "tau_ok"}
_RT = {"rt_exponent", "rt_expected", "rt_status"}


@pytest.mark.parametrize("argv,keys", [
    pytest.param(["mass", *_SCHW3], _TAU, id="mass"),
    pytest.param(["ah-mass", *_KOTTLER3], _TAU, id="ah-mass"),
    pytest.param(["ah-mass", *_KOTTLER3, "--kernel", "V1"], _TAU,
                 id="ah-mass-V1"),
    pytest.param(["center", *_SCHW3, "--center", "1,0.5,0"], _RT, id="center"),
    pytest.param(["verify", *_SCHW3, "--center", "1,0.5,0", "--which",
                  "equivalence"], _TAU | _RT | {"scal_integrable"},
                 id="equivalence-flat"),
    pytest.param(["verify", "--kind", "schwarzschild_conformal", "--n", "3",
                  "--m", "0", "--which", "equivalence"],
                 _TAU | _RT | {"scal_integrable", "center_skipped"},
                 id="equivalence-massless"),
    pytest.param(["verify", *_KOTTLER3, "--which", "equivalence"],
                 _TAU | {"scal_integrable"}, id="equivalence-hyperbolic"),
])
def test_diagnostic_keys_of_each_command(tmp_path, argv, keys):
    """Each command reports the diagnostics of the hypotheses its charges
    rest on: decay for the masses, parity for the centers, and all of them
    in equivalence reports (parity on flat-type metrics only)."""
    code, report = run_cli(argv + ["--degree", "8"], tmp_path)
    assert code == 0
    assert set(report["diagnostics"]) == keys


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.mark.parametrize("argv,key", [
    pytest.param(["mass", "--kind", "euclidean", "--n", "3"], "tau_hat",
                 id="mass-euclidean"),
    pytest.param(["center", *_SCHW3], "rt_exponent", id="center-even"),
    pytest.param(["verify", "--kind", "hyperbolic_polar", "--n", "3",
                  "--which", "equivalence"], "tau_hat",
                 id="equivalence-background"),
    pytest.param(["verify", "--kind", "schwarzschild_conformal", "--n", "3",
                  "--m", "0", "--which", "equivalence"], "rt_exponent",
                 id="equivalence-massless"),
])
def test_reports_are_strict_json(tmp_path, argv, key):
    """A diagnostic that is inf in the library (an exact background, an
    even metric) is written as null, so a strict parser reads the report."""
    out = tmp_path / "out.json"
    assert main(argv + ["--degree", "8", "--out-json", str(out),
                        "--no-timings"]) == 0
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["diagnostics"][key] is None


# ----------------------------------------------------------------- exit codes


@pytest.mark.parametrize("argv", [
    pytest.param(["mass", "--kind", "bogus", "--n", "3"], id="bogus-kind"),
    pytest.param(["mass", *_SCHW3, "--ratio", "1"], id="ratio-1"),
    pytest.param(["mass", *_SCHW3, "--start", "-1"], id="start-negative"),
    pytest.param(["ah-mass", "--kind", "kottler", "--n", "3", "--m", "1",
                  "--schedule", "arithmetic", "--step", "0"], id="step-0"),
    pytest.param(["ah-mass", "--kind", "kottler", "--n", "3", "--m", "1",
                  "--kernel", "V9"], id="kernel-V9"),
    pytest.param(["ah-mass", "--kind", "kottler", "--n", "3", "--m", "1",
                  "--kernel", "V\u00b2"], id="kernel-superscript-digit"),
    pytest.param(["mass", "--kind", "euclidean", "--n", "3", "--schedule",
                  "arithmetic", "--start", "8", "--step", "1e-300"],
                 id="step-below-resolution"),
    pytest.param(["mass", "--kind", "schwarzschild_conformal", "--n", "3",
                  "--m", "1", "--start", "1e300", "--ratio", "1e10"],
                 id="schedule-overflow"),
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
    pytest.param(["verify", "--kind", "hyperbolic_area", "--n", "3",
                  "--which", "pohozaev", "--annulus", "1,1000"],
                 id="annulus-overflows-the-area-chart"),
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
    pytest.param(["mass", "--kind", "euclidean", "--n", "3", "--m", "2"],
                 id="m-on-euclidean"),
    pytest.param(["ah-mass", "--kind", "kottler", "--n", "3", "--m", "1",
                  "--center", "5,5,5"], id="center-on-kottler"),
    pytest.param(["verify", "--kind", "hyperbolic_polar", "--n", "3", "--m",
                  "1", "--which", "kernel"], id="m-on-hyperbolic-polar"),
    pytest.param(["verify", "--kind", "euclidean", "--n", "3", "--which",
                  "kernel", "--seed", "-1"], id="seed-negative"),
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
    configuration error; empty means one thread."""
    monkeypatch.setenv("ASYMFLUX_THREADS", value)
    assert main(["mass", "--kind", "euclidean", "--n", "3",
                 "--degree", "6"]) == code
    err = capsys.readouterr().err
    assert ("config error" in err) == (code == 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("command,option,target", [
    pytest.param("mass", "--out-json", "missing/x.json", id="out-json-no-dir"),
    pytest.param("mass", "--csv-dir", "a-file", id="csv-dir-is-a-file"),
])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, command,
                                             option, target):
    """An output path that cannot be written exits 2 with one line and
    prints no report."""
    (tmp_path / "a-file").write_text("")
    assert main([command, "--kind", "euclidean", "--n", "3", "--degree", "6",
                 option, str(tmp_path / target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: cannot write ")
    assert err.count("\n") == 1


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", ["hyperbolic_polar", "hyperbolic_area",
                                  "kottler"])
def test_huge_polar_radius_is_a_metric_jet_error(capsys, kind):
    """A polar catalog kind whose sphere radius overflows the metric's
    diagonal (sinh^2 r or rho^2 is inf) fails loudly on the metric jet
    itself, not on a later product: geodesic radius 368 is rho = 1.6e159
    in the area chart."""
    code = main(["ah-mass", "--kind", kind, "--n", "3",
                 *(["--m", "1"] if kind == "kottler" else []),
                 "--start", "368", "--count", "3", "--degree", "6"])
    assert code == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: metric jet not finite on S_r at r = \S+\n",
                        err), err


@pytest.mark.parametrize("n", [4, 5])
def test_kottler_equivalence_has_no_false_warning(tmp_path, n):
    """Kottler's scalar curvature is exactly that of its background, and
    the closed-form curvature of its warped jet says so at n = 4 and 5:
    the integrability proxy passes, no row carries a warning, and the
    report exits 0 (the dense jet's roundoff of order 1 failed the proxy
    here)."""
    code, report = run_cli(["verify", "--which", "equivalence", "--kind",
                            "kottler", "--n", str(n), "--m", "1"], tmp_path)
    assert code == 0
    assert report["diagnostics"]["scal_integrable"] is True
    assert report["verdicts"] and all(
        v["passed"] and not v["warnings"] for v in report["verdicts"])


@pytest.mark.parametrize("argv", [
    pytest.param(["mass", *_SCHW3], id="mass"),
    pytest.param(["ah-mass", "--kind", "kottler", "--n", "3", "--m", "1"],
                 id="ah-mass"),
])
def test_total_time_covers_the_whole_command(monkeypatch, tmp_path, argv):
    """``timings.total_s`` includes the decay diagnostic run after the charges."""
    from asymflux import charges

    diagnostics = charges.hypothesis_diagnostics

    def slow_diagnostics(*args, **kwargs):
        time.sleep(0.5)
        return diagnostics(*args, **kwargs)

    monkeypatch.setattr(charges, "hypothesis_diagnostics", slow_diagnostics)
    out = tmp_path / "out.json"
    assert main(argv + ["--degree", "8", "--out-json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["diagnostics"]["timings"]["total_s"] >= 0.5


def _keys(o):
    """Every key of the nested dicts and lists ``o``."""
    if isinstance(o, dict):
        return set(o).union(*map(_keys, o.values()))
    if isinstance(o, list):
        return set().union(*map(_keys, o))
    return set()


@pytest.mark.parametrize("argv", [
    pytest.param(["mass", *_SCHW3], id="mass"),
    pytest.param(["verify", "--kind", "hyperbolic_polar", "--n", "3",
                  "--which", "pohozaev"], id="verify-pohozaev"),
])
def test_thread_count_is_timed_not_configured(monkeypatch, tmp_path, argv):
    """A timed report records ``ASYMFLUX_THREADS`` next to ``total_s``; a
    ``--no-timings`` report holds no thread count anywhere."""
    monkeypatch.setenv("ASYMFLUX_THREADS", "2")
    out = tmp_path / "out.json"
    assert main(argv + ["--degree", "8", "--out-json", str(out)]) == 0
    timings = json.loads(out.read_text())["diagnostics"]["timings"]
    assert set(timings) == {"total_s", "threads"}
    assert timings["threads"] == 2
    code, report = run_cli(argv + ["--degree", "8"], tmp_path)
    assert code == 0
    assert "threads" not in _keys(report)


@pytest.mark.parametrize("argv", [
    pytest.param(["mass", *_SCHW3], id="mass"),
    pytest.param(["center", *_SCHW3, "--center", "1,0.5,0"], id="center"),
    pytest.param(["ah-mass", "--kind", "kottler", "--n", "3", "--m", "1"],
                 id="ah-mass"),
    pytest.param(["ah-mass", "--kind", "kottler", "--n", "3", "--m", "1",
                  "--kernel", "V1"], id="ah-mass-V1"),
])
def test_charge_commands_make_one_sphere_pass(monkeypatch, tmp_path, argv):
    """Every charge command integrates each of the five scheduled spheres
    once."""
    from asymflux import charges

    calls = []
    integrate = charges.integrate_sphere

    def counting(*args, **kwargs):
        calls.append(args[1])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(charges, "integrate_sphere", counting)
    code, report = run_cli(argv + ["--degree", "4"], tmp_path)
    assert code == 0
    radii = [s["r"] for s in report["charges"][0]["samples"]]
    assert len(radii) == 5
    assert calls == radii


_FLAT_SCHEDULE = 8.0 * 2.0 ** np.arange(5)


@pytest.mark.parametrize("argv,radii", [
    pytest.param(["mass", *_SCHW3, "--center", "1,0.5,0"], _FLAT_SCHEDULE,
                 id="mass"),
    pytest.param(["center", *_SCHW3, "--center", "1,0.5,0"], _FLAT_SCHEDULE,
                 id="center"),
    pytest.param(["ah-mass", "--kind", "kottler", "--n", "3", "--m", "1"],
                 np.sinh(3.0 + 0.75 * np.arange(5)), id="ah-mass"),
    pytest.param(["verify", *_SCHW3, "--center", "1,0.5,0", "--which",
                  "equivalence"], _FLAT_SCHEDULE, id="verify-equivalence"),
])
def test_commands_evaluate_each_sphere_once(monkeypatch, tmp_path, argv,
                                            radii):
    """The charges and every diagnostic of a command come from one node
    pass per scheduled sphere: the nodes of each sphere are evaluated once,
    in schedule order, and no other point is."""
    from asymflux import quadrature

    spheres = []
    evaluate = quadrature._evaluate

    def recording(f, points):
        polar = argv[2] == "kottler"
        spheres.append(points[:, 0] if polar
                       else np.linalg.norm(points, axis=-1))
        return evaluate(f, points)

    monkeypatch.setattr(quadrature, "_evaluate", recording)
    code, _ = run_cli(argv + ["--degree", "4"], tmp_path)
    assert code == 0
    assert len(spheres) == len(radii)
    for r, sphere in zip(radii, spheres):
        assert sphere.size == sphere_rule(3, 4).node_count
        assert np.allclose(sphere, r, rtol=1e-14)


@pytest.mark.parametrize("argv", [
    pytest.param(["center", *_SCHW3, "--center", "1,0.5,0"], id="center"),
    pytest.param(["verify", *_SCHW3, "--which", "equivalence"],
                 id="verify-equivalence"),
])
def test_threads_reach_every_sphere_pass(monkeypatch, tmp_path, argv):
    """``ASYMFLUX_THREADS`` is the thread count of every node evaluation,
    the diagnostic passes included, read once per pass."""
    from asymflux import quadrature

    monkeypatch.setenv("ASYMFLUX_THREADS", "2")
    passes, seen = [], []
    evaluate, count = quadrature._evaluate, quadrature.thread_count

    def recording(f, points):
        passes.append(points.shape[0])
        return evaluate(f, points)

    def counting():
        seen.append(count())
        return seen[-1]

    monkeypatch.setattr(quadrature, "_evaluate", recording)
    monkeypatch.setattr(quadrature, "thread_count", counting)
    code, _ = run_cli(argv + ["--degree", "4"], tmp_path)
    assert code == 0
    assert passes
    assert seen == [2] * len(passes)


def test_thread_count_is_no_config_setting(tmp_path, capsys):
    """``ASYMFLUX_THREADS`` is the one thread setting: ``--help`` lists no
    ``--threads``, which argparse rejects with exit 2, and ``threads`` in
    ``[run]`` is an unknown key, a configuration error."""
    with pytest.raises(SystemExit) as exc:
        main(["mass", "--help"])
    assert exc.value.code == 0
    assert "--threads" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["mass", "--kind", "euclidean", "--n", "3", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("[metric]\nkind = euclidean\n[run]\nthreads = 2\n")
    assert main(["mass", "--config", str(cfg_file)]) == 2
    assert "unknown key 'threads' in [run]" in capsys.readouterr().err


# --------------------------------------------------------------- determinism

@pytest.mark.parametrize("args", [
    pytest.param(["mass", *_SCHW3, "--degree", "16"], id="mass"),
    # 1250 nodes: two 1024-node chunks of n=5, so four threads share them
    pytest.param(["mass", "--kind", "schwarzschild_conformal", "--n", "5",
                  "--m", "1", "--degree", "8"], id="mass-n5"),
    pytest.param(["center", *_SCHW3, "--center", "1,0.5,0", "--degree", "8"],
                 id="center"),
    pytest.param(["ah-mass", "--kind", "kottler", "--n", "3", "--m", "1",
                  "--degree", "8"], id="ah-mass"),
    pytest.param(["verify", "--kind", "hyperbolic_polar", "--n", "3",
                  "--which", "pohozaev", "--degree", "8"],
                 id="verify-pohozaev"),
    pytest.param(["verify", *_SCHW3, "--center", "1,0.5,0", "--which",
                  "equivalence", "--degree", "8"], id="verify-equivalence"),
    # two n=5 chunks: the node data of the charge pass (the parity entries
    # and the decay and scalar-curvature sups) cross the threaded branch
    pytest.param(["center", *_SCHW5_TRANSLATED, "--degree", "8"],
                 id="center-n5"),
    pytest.param(["verify", *_SCHW5_TRANSLATED, "--which", "equivalence",
                  "--degree", "8"], id="verify-equivalence-n5"),
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


# ------------------------------------------------------------- dependencies

_WITHOUT_SCIPY = ("import sys; sys.modules['scipy'] = None; "
                  "from asymflux.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("args", [
    pytest.param(["ah-mass", "--kind", "kottler", "--n", "3", "--m", "1",
                  "--degree", "8"], id="ah-mass"),
    pytest.param(["verify", "--kind", "hyperbolic_polar", "--n", "3",
                  "--which", "pohozaev", "--degree", "8"],
                 id="verify-pohozaev"),
])
def test_runs_without_scipy(args):
    """numpy is the only runtime dependency: with every ``import scipy``
    failing, the sphere rules and the extrapolation still run."""
    res = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *args,
                          "--no-timings"], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


_EXPR_AFTER = ("import sys; from asymflux.cli import main; "
               "code = main(sys.argv[1:]); "
               "print('asymflux.expr' in sys.modules, file=sys.stderr); "
               "sys.exit(code)")


@pytest.mark.parametrize("kind", ["schwarzschild_conformal", "expression"])
def test_expression_language_imported_only_for_expressions(tmp_path, kind):
    """A catalog metric runs without importing the expression language:
    only an expression metric parses and evaluates components."""
    args = ["mass", *_SCHW3, "--degree", "8"]
    if kind == "expression":
        config = tmp_path / "run.ini"
        config.write_text("[metric]\nkind = expression\nn = 3\n"
                          "[components]\ng_1_1 = 1 + 2/r\ng_2_2 = 1\n"
                          "g_3_3 = 1\n")
        args = ["mass", "--config", str(config), "--degree", "8"]
    res = subprocess.run([sys.executable, "-c", _EXPR_AFTER, *args,
                          "--no-timings"], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stderr.strip() == str(kind == "expression")
