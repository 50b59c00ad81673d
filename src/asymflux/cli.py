"""Command-line front end: config handling, orchestration, reports.

Subcommands
-----------

* ``mass``    — classical and Einstein-tensor mass of a flat-type metric
* ``center``  — both center-of-mass versions (needs nonvanishing mass)
* ``ah-mass`` — hyperbolic charges over the kernel basis
* ``verify``  — pohozaev / kernel / equivalence checks
* ``sweep``   — per-radius normalized flux series as plot-ready CSV

Runs are driven by an INI config file; every command-line flag overrides the
corresponding config key.  Reports are JSON (``schema_version`` 1, keys
sorted, timings removable with ``--no-timings`` so identical runs are
byte-identical) plus one CSV per charge with header
``r,raw_flux,normalized,quad_error`` at 17 significant digits.

Exit codes: 0 all charges/checks succeeded, 1 computation or verification
failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import charges as charges_mod
from . import verify as verify_mod
from .catalog import MetricSpec
from .errors import AsymfluxError, ChartMismatchError, ConfigError
from .fields import killing_basis
from .geometry import ChartKind
from .limits import RadialSeries, decay_rate
from .quadrature import sphere_rule, thread_count

__all__ = ["main", "RunConfig", "load_config", "config_from_echo"]

SCHEMA_VERSION = 1
_FMT = "%.17g"


@dataclass
class RunConfig:
    """Fully resolved run parameters (config file plus flag overrides)."""

    kind: str = "euclidean"
    n: int = 3
    m: float = 0.0
    center: tuple = ()
    components: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    chart: str | None = None
    schedule_start: float | None = None
    schedule_ratio: float = 2.0
    schedule_step: float = 0.75
    schedule_kind: str | None = None      # "geometric" | "arithmetic"
    schedule_count: int = 5
    degree: int = 16
    radial_degree: int = 16
    rel_tol: float = 1e-6
    annulus: tuple = ()
    seed: int = 0
    out_json: str | None = None
    csv_dir: str | None = None
    no_timings: bool = False
    threads: int | None = None

    def validate(self):
        """Reject values no run can use.  The default schedule kind depends
        on the metric, so ratio and step are checked unless the other kind
        is set."""
        if self.n not in (3, 4, 5):
            raise ConfigError(f"dimension n must be 3, 4 or 5, got {self.n}")
        if self.schedule_count < 3:
            raise ConfigError("schedule count must be at least 3")
        if self.schedule_start is not None \
                and not 0 < self.schedule_start < np.inf:
            raise ConfigError(f"schedule start must be positive and finite, "
                              f"got {self.schedule_start}")
        if not np.isfinite([self.schedule_ratio, self.schedule_step]).all():
            raise ConfigError("schedule ratio and step must be finite")
        if self.schedule_kind != "arithmetic" and not self.schedule_ratio > 1:
            raise ConfigError(
                f"schedule ratio must exceed 1, got {self.schedule_ratio}")
        if self.schedule_kind != "geometric" and not self.schedule_step > 0:
            raise ConfigError(
                f"schedule step must be positive, got {self.schedule_step}")
        if not 1 <= self.degree <= 60:
            raise ConfigError(f"quadrature degree out of range: {self.degree}")
        if not 1 <= self.radial_degree <= 60:
            raise ConfigError(
                f"radial quadrature degree out of range: {self.radial_degree}")
        if not 0 <= self.rel_tol < np.inf:
            raise ConfigError(f"rel_tol must be in [0, inf), got {self.rel_tol}")
        if self.annulus and not (len(self.annulus) == 2
                                 and self.annulus[0] < self.annulus[1]):
            raise ConfigError(f"annulus must be r0,r1 with r0 < r1, got "
                              f"{','.join(map(str, self.annulus))}")
        return self


_SECTIONS = {
    "metric": {"kind": str, "n": int, "m": float, "center": "floats",
               "chart": str},
    "schedule": {"start": float, "ratio": float, "step": float,
                 "kind": str, "count": int},
    "quadrature": {"degree": int, "radial_degree": int},
    "run": {"rel_tol": float, "annulus": "floats", "seed": int,
            "out_json": str, "csv_dir": str, "no_timings": bool,
            "threads": int},
}

_KEYMAP = {("schedule", k): f"schedule_{k}"
           for k in ("start", "ratio", "step", "kind", "count")}


def _convert(section, key, raw):
    typ = _SECTIONS[section][key]
    try:
        if typ == "floats":
            return tuple(float(t) for t in raw.replace(",", " ").split())
        if typ is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(
            f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Read an INI config file and apply command-line overrides."""
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
        for section in parser.sections():
            if section in ("components", "params"):
                target = cfg.components if section == "components" else cfg.params
                for key, raw in parser.items(section):
                    if section == "params":
                        target[key] = _convert("metric", "m", raw)  # float
                    else:
                        target[key] = raw
                continue
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in _SECTIONS[section]:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                attr = _KEYMAP.get((section, key), key)
                setattr(cfg, attr, _convert(section, key, raw))
    for attr, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, attr, value)
    return cfg.validate()


def config_echo(cfg: RunConfig) -> dict:
    """Flat dictionary echo of the config, embedded into every report."""
    echo = asdict(cfg)
    echo["center"] = list(cfg.center)
    echo["annulus"] = list(cfg.annulus)
    return echo


def config_from_echo(echo: dict) -> RunConfig:
    """Rebuild a RunConfig from a report's config echo (round-trip contract)."""
    data = dict(echo)
    data["center"] = tuple(data.get("center", ()))
    data["annulus"] = tuple(data.get("annulus", ()))
    return RunConfig(**data).validate()


def build_spec(cfg: RunConfig) -> MetricSpec:
    components = None
    if cfg.components:
        components = {}
        for key, text in cfg.components.items():
            name = key.lower().removeprefix("g_").replace("_", "")
            if len(name) != 2 or not name.isdigit():
                raise ConfigError(f"bad component key {key!r}; use g_i_j")
            i, j = int(name[0]) - 1, int(name[1]) - 1
            if not (0 <= i <= j < cfg.n):
                raise ConfigError(f"component indices out of range in {key!r}")
            components[(i, j)] = text
    try:
        return MetricSpec(cfg.kind, cfg.n, m=cfg.m, center=tuple(cfg.center),
                          components=components,
                          params=dict(cfg.params) or None, chart=cfg.chart)
    except (ValueError, AsymfluxError) as exc:
        raise ConfigError(str(exc)) from exc


def schedule_radii(cfg: RunConfig, spec: MetricSpec) -> np.ndarray:
    """Radius schedule in chart coordinates.

    Flat charts default to a geometric schedule ``8 * 2^k``; hyperbolic charts
    to an arithmetic geodesic schedule ``3 + 0.75 k`` (converted to the area
    radius where the chart needs it).
    """
    flat = spec.is_flat_type
    start = cfg.schedule_start if cfg.schedule_start is not None \
        else (8.0 if flat else 3.0)
    kind = cfg.schedule_kind or ("geometric" if flat else "arithmetic")
    k = np.arange(cfg.schedule_count, dtype=float)
    if kind == "geometric":
        natural = start * cfg.schedule_ratio ** k
    elif kind == "arithmetic":
        natural = start + cfg.schedule_step * k
    else:
        raise ConfigError(f"unknown schedule kind {kind!r}")
    return np.sinh(natural) if spec.chart_kind == ChartKind.POLAR_AREA \
        else natural


# ------------------------------------------------------------------ reporting

def _series_entry(charge_id: str, series: RadialSeries) -> dict:
    return {
        "id": charge_id,
        "samples": [{"r": s.r, "raw_flux": s.raw_flux,
                     "normalized": s.normalized, "quad_error": s.quad_error}
                    for s in series.samples],
        "limit": series.limit,
        "limit_error": series.limit_error,
        "model": series.model,
    }


def _write_csv(path: Path, samples: list[dict]):
    lines = ["r,raw_flux,normalized,quad_error"]
    for s in samples:
        lines.append(",".join(_FMT % s[k] for k in
                              ("r", "raw_flux", "normalized", "quad_error")))
    path.write_text("\n".join(lines) + "\n")


class _Json(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, (np.bool_,)):
            return bool(o)
        return super().default(o)


def _emit(report: dict, cfg: RunConfig, timings: dict):
    if not cfg.no_timings:
        report["diagnostics"]["timings"] = timings
    text = json.dumps(report, sort_keys=True, indent=2, cls=_Json)
    if cfg.out_json:
        Path(cfg.out_json).write_text(text + "\n")
    else:
        print(text)
    if cfg.csv_dir:
        outdir = Path(cfg.csv_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for entry in report.get("charges", []):
            _write_csv(outdir / f"{entry['id']}.csv", entry["samples"])


def _base_report(cfg: RunConfig) -> dict:
    return {"schema_version": SCHEMA_VERSION, "config": config_echo(cfg),
            "charges": [], "diagnostics": {}, "verdicts": []}


# ------------------------------------------------------------------- commands

def _paired_entries(report, cfg, labels, suffixes, fields, classical, ricci):
    """Append each classical/Ricci pair of series and its agreement verdict
    (ids: ``labels`` plus the pair's suffix); True if all verdicts passed."""
    for suffix, X, cls, ric in zip(suffixes, fields, classical, ricci):
        cls_id, ric_id, verdict_id = (f"{label}{suffix}" for label in labels)
        report["charges"] += [_series_entry(cls_id, cls),
                              _series_entry(ric_id, ric)]
        diff, budget, ok = verify_mod.agreement(X, cls, ric, cfg.rel_tol)
        report["verdicts"].append({"id": verdict_id, "passed": ok,
                                   "difference": diff, "budget": budget})
    return all(v["passed"] for v in report["verdicts"])


def cmd_mass(cfg: RunConfig) -> tuple[dict, int]:
    spec = build_spec(cfg)
    radii = schedule_radii(cfg, spec)
    rule = sphere_rule(spec.n, cfg.degree)
    report = _base_report(cfg)
    t0 = time.perf_counter()
    X = killing_basis(spec.n, ChartKind.CARTESIAN)[0]
    cls, ric = charges_mod.charge_series(
        spec, radii, rule, [X.kernel], [X], nthreads=cfg.threads)
    timings = {"total_s": time.perf_counter() - t0}
    ok = _paired_entries(report, cfg, (
        "mass_classical", "mass_ricci", "mass_agreement"), [""], [X], cls, ric)
    report["diagnostics"].update(decay_rate(spec, radii).diagnostics)
    return _finish(report, cfg, timings, ok)


def cmd_center(cfg: RunConfig) -> tuple[dict, int]:
    spec = build_spec(cfg)
    radii = schedule_radii(cfg, spec)
    rule = sphere_rule(spec.n, cfg.degree)
    report = _base_report(cfg)
    t0 = time.perf_counter()
    basis = killing_basis(spec.n, ChartKind.CARTESIAN)
    (mass_series, *cls), ric = charges_mod.charge_series(
        spec, radii, rule, [X.kernel for X in basis], basis[1:],
        nthreads=cfg.threads)
    report["charges"].append(_series_entry("mass_classical", mass_series))
    ok = _paired_entries(report, cfg, (
        "center_classical_", "center_ricci_", "center_agreement_"),
        range(spec.n), basis[1:], cls, ric)
    report["diagnostics"].update(
        charges_mod.rt_diagnostics(spec, radii, rule).diagnostics)
    timings = {"total_s": time.perf_counter() - t0}
    return _finish(report, cfg, timings, ok)


def cmd_ah_mass(cfg: RunConfig, kernel: str | None = None) -> tuple[dict, int]:
    spec = build_spec(cfg)
    radii = schedule_radii(cfg, spec)
    rule = sphere_rule(spec.n, cfg.degree)
    report = _base_report(cfg)
    indices = range(spec.n + 1)
    if kernel is not None:
        if not (kernel.startswith("V") and kernel[1:].isdigit()
                and int(kernel[1:]) <= spec.n):
            raise ConfigError(f"unknown kernel selector {kernel!r}; "
                              f"use V0..V{spec.n}")
        indices = [int(kernel[1:])]
    if not spec.is_hyperbolic_type:
        raise ChartMismatchError("hyperbolic mass needs a hyperbolic-type metric")
    t0 = time.perf_counter()
    basis = killing_basis(spec.n, spec.chart_kind)
    fields = [basis[i] for i in indices]
    am, ar = charges_mod.charge_series(
        spec, radii, rule, [X.kernel for X in fields], fields,
        nthreads=cfg.threads)
    ok = _paired_entries(report, cfg, ("ah_mass_", "ah_ricci_", "ah_agreement_"),
                         indices, fields, am, ar)
    timings = {"total_s": time.perf_counter() - t0}
    report["diagnostics"].update(decay_rate(spec, radii).diagnostics)
    return _finish(report, cfg, timings, ok)


def cmd_verify(cfg: RunConfig, which: str) -> tuple[dict, int]:
    spec = build_spec(cfg)
    rule = sphere_rule(spec.n, cfg.degree)
    report = _base_report(cfg)
    t0 = time.perf_counter()
    ok = True
    if which == "pohozaev":
        if cfg.annulus:
            r0, r1 = cfg.annulus
        else:
            r0, r1 = (8.0, 16.0) if spec.is_flat_type else (1.0, 2.0)
            if spec.chart_kind == ChartKind.POLAR_AREA:
                r0, r1 = np.sinh(r0), np.sinh(r1)
        for rep in verify_mod.pohozaev_check(
                spec, killing_basis(spec.n, spec.chart_kind), r0, r1, rule,
                cfg.radial_degree, rel_tol=cfg.rel_tol, nthreads=cfg.threads):
            ok = ok and rep.passed
            report["verdicts"].append(
                {"id": rep.check_id, "passed": rep.passed, "lhs": rep.lhs,
                 "rhs": rep.rhs, "residual": rep.residual,
                 "relative_residual": rep.relative_residual,
                 "context": rep.context})
    elif which == "kernel":
        for X in killing_basis(spec.n, spec.chart_kind):
            rep = verify_mod.kernel_check_lemma22(spec, X, seed=cfg.seed)
            ok = ok and rep.passed
            report["verdicts"].append(
                {"id": rep.check_id, "passed": rep.passed,
                 "max_residual": rep.max_residual,
                 "trace_residual": rep.trace_residual,
                 "einstein_defect": rep.einstein_defect})
    elif which == "equivalence":
        rep = verify_mod.equivalence_report(spec, schedule_radii(cfg, spec),
                                            rule, rel_tol=cfg.rel_tol,
                                            nthreads=cfg.threads)
        ok = rep.passed
        report["diagnostics"].update(rep.diagnostics)
        for row in rep.rows:
            report["verdicts"].append(
                {"id": f"equivalence:{row.charge}", "passed": row.passed,
                 "classical": row.classical, "ricci": row.ricci,
                 "difference": row.difference, "budget": row.budget,
                 "warnings": list(row.warnings)})
    else:
        raise ConfigError(f"unknown verify target {which!r}")
    timings = {"total_s": time.perf_counter() - t0}
    return _finish(report, cfg, timings, ok)


def cmd_sweep(cfg: RunConfig) -> tuple[dict, int]:
    spec = build_spec(cfg)
    radii = schedule_radii(cfg, spec)
    rule = sphere_rule(spec.n, cfg.degree)
    report = _base_report(cfg)
    t0 = time.perf_counter()
    ids = ("mass_classical", "mass_ricci") if spec.is_flat_type \
        else ("ah_mass_0", "ah_ricci_0")
    X = killing_basis(spec.n, spec.chart_kind)[0]
    (cls,), (ric,) = charges_mod.charge_series(
        spec, radii, rule, [X.kernel], [X], nthreads=cfg.threads)
    report["charges"] = [_series_entry(ids[0], cls), _series_entry(ids[1], ric)]
    report["verdicts"] = [{"id": "sweep", "passed": True}]
    timings = {"total_s": time.perf_counter() - t0}
    return _finish(report, cfg, timings, True)


def _finish(report, cfg, timings, ok):
    _emit(report, cfg, timings)
    return report, (0 if ok else 1)


# ----------------------------------------------------------------- arg parsing

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--kind", dest="kind", default=None, help="catalog metric kind")
    p.add_argument("--n", dest="n", type=int, default=None)
    p.add_argument("--m", dest="m", type=float, default=None)
    p.add_argument("--center", dest="center", default=None,
                   help="comma-separated translation of the center")
    p.add_argument("--start", dest="schedule_start", type=float, default=None)
    p.add_argument("--ratio", dest="schedule_ratio", type=float, default=None)
    p.add_argument("--step", dest="schedule_step", type=float, default=None)
    p.add_argument("--schedule", dest="schedule_kind", default=None,
                   choices=["geometric", "arithmetic"])
    p.add_argument("--count", dest="schedule_count", type=int, default=None)
    p.add_argument("--degree", dest="degree", type=int, default=None)
    p.add_argument("--radial-degree", dest="radial_degree", type=int,
                   default=None)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
    p.add_argument("--seed", dest="seed", type=int, default=None)
    p.add_argument("--out-json", dest="out_json", default=None)
    p.add_argument("--csv-dir", dest="csv_dir", default=None)
    p.add_argument("--no-timings", dest="no_timings", action="store_true",
                   default=None)
    p.add_argument("--threads", dest="threads", type=int, default=None)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="asymflux",
        description="Asymptotic invariants of asymptotically flat and "
                    "hyperbolic metrics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("mass", "center", "ah-mass", "verify", "sweep"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "ah-mass":
            p.add_argument("--kernel", default=None,
                           help="kernel selector, e.g. V0 or V2")
        if name == "verify":
            p.add_argument("--which", required=True,
                           choices=["pohozaev", "kernel", "equivalence"])
            p.add_argument("--annulus", default=None,
                           help="r0,r1 for the pohozaev annulus")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config", "kernel", "which")}
    try:
        for key, section in (("center", "metric"), ("annulus", "run")):
            if overrides.get(key) is not None:
                overrides[key] = _convert(section, key, overrides[key])
        cfg = load_config(args.config, overrides)
        if args.command == "mass":
            _, code = cmd_mass(cfg)
        elif args.command == "center":
            _, code = cmd_center(cfg)
        elif args.command == "ah-mass":
            _, code = cmd_ah_mass(cfg, args.kernel)
        elif args.command == "verify":
            _, code = cmd_verify(cfg, args.which)
        else:
            _, code = cmd_sweep(cfg)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AsymfluxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
