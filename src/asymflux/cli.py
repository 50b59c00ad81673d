"""Command-line front end: config handling, orchestration, reports.

Subcommands
-----------

* ``mass``    — classical and Einstein-tensor mass of a flat-type metric
* ``center``  — both center-of-mass versions (needs nonvanishing mass)
* ``ah-mass`` — hyperbolic charges over the kernel basis
* ``verify``  — pohozaev / kernel / equivalence checks

The three charge commands are one function, :func:`cmd_charges`, over
:func:`asymflux.verify.charge_pairs`: they differ only in the basis indices
they ask for, the report ids and the diagnostic they attach.  Any of them
writes its per-radius series as plot-ready CSV with ``--csv-dir``.

Runs are driven by an INI config file; every command-line flag overrides the
corresponding config key.  The worker-thread count is not part of the config:
it is the environment variable ``ASYMFLUX_THREADS`` alone.  Reports are
strict JSON (``schema_version`` 1, keys sorted, a non-finite number written
as ``null``, timings and the thread count removable with ``--no-timings`` so
identical runs are byte-identical at any thread count) plus one CSV per
charge with header ``r,raw_flux,normalized,quad_error`` at 17 significant
digits.

Exit codes: 0 all charges/checks succeeded, 1 computation or verification
failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import charges as charges_mod
from . import verify as verify_mod
from .catalog import FLAT_KINDS, HYPERBOLIC_KINDS, MetricSpec, chart_radius
from .errors import AsymfluxError, ConfigError
from .limits import RadialSeries
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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.annulus and not (len(self.annulus) == 2
                                 and 0 < self.annulus[0] < self.annulus[1]
                                 < np.inf):
            raise ConfigError(f"annulus must be r0,r1 with finite 0 < r0 < r1, "
                              f"got {','.join(map(str, self.annulus))}")
        return self


_SECTIONS = {
    "metric": {"kind": str, "n": int, "m": float, "center": "floats",
               "chart": str},
    "schedule": {"start": float, "ratio": float, "step": float,
                 "kind": str, "count": int},
    "quadrature": {"degree": int, "radial_degree": int},
    "run": {"rel_tol": float, "annulus": "floats", "seed": int,
            "out_json": str, "csv_dir": str, "no_timings": bool},
}

_KEYMAP = {("schedule", k): f"schedule_{k}"
           for k in ("start", "ratio", "step", "kind", "count")}
_FREE_SECTIONS = {"components": str, "params": float}   # any key, one type
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES


def _convert(section, key, raw):
    typ = _FREE_SECTIONS.get(section) or _SECTIONS[section][key]
    try:
        if typ == "floats":
            return tuple(float(t) for t in raw.replace(",", " ").split())
        if typ is bool:
            word = raw.strip().lower()
            if word not in _BOOLEANS:
                raise ValueError(f"use one of {'/'.join(_BOOLEANS)}")
            return _BOOLEANS[word]
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
            if section in _FREE_SECTIONS:
                getattr(cfg, section).update(
                    (key, _convert(section, key, raw))
                    for key, raw in parser.items(section))
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
    """Rebuild a RunConfig from a report's config echo (round-trip contract);
    a key RunConfig does not have is a ConfigError."""
    data = dict(echo)
    # echoes from before ASYMFLUX_THREADS became the only thread setting
    # carry a thread count, which never changed a reported number
    data.pop("threads", None)
    unknown = sorted(set(data) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ConfigError(f"unknown config echo key(s): {', '.join(unknown)}")
    data["center"] = tuple(data.get("center", ()))
    data["annulus"] = tuple(data.get("annulus", ()))
    return RunConfig(**data).validate()


def build_spec(cfg: RunConfig) -> MetricSpec:
    components = None
    if cfg.components:
        components = {}
        for key, text in cfg.components.items():
            name = key.lower().removeprefix("g_").replace("_", "")
            if len(name) != 2 or not (name.isascii() and name.isdigit()):
                raise ConfigError(f"bad component key {key!r}; use g_i_j")
            i, j = int(name[0]) - 1, int(name[1]) - 1
            if not (0 <= i < cfg.n and 0 <= j < cfg.n):
                raise ConfigError(f"component indices out of range in {key!r}")
            if i > j:
                raise ConfigError(f"component {key!r} is below the diagonal; "
                                  f"use 'g_{j + 1}_{i + 1}'")
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
    with np.errstate(over="ignore"):
        if kind == "geometric":
            natural = start * cfg.schedule_ratio ** k
        elif kind == "arithmetic":
            natural = start + cfg.schedule_step * k
        else:
            raise ConfigError(f"unknown schedule kind {kind!r}")
        radii = chart_radius(spec.chart_kind, natural)
    # a step below the resolution of start repeats a radius; a huge start
    # or ratio overflows
    if not (np.isfinite(radii).all() and np.all(np.diff(radii) > 0)):
        raise ConfigError(f"schedule radii must be finite and strictly "
                          f"increasing, got {radii.tolist()}")
    return radii


# ------------------------------------------------------------------ reporting

def _series_entry(charge_id: str, series: RadialSeries) -> dict:
    return {
        "id": charge_id,
        "samples": [{"r": s.r, "raw_flux": s.raw_flux,
                     "normalized": s.normalized, "quad_error": s.quad_error,
                     "degree": s.degree, "nodes": s.nodes}
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


def _strict(o):
    """``o`` with numpy values made Python ones and every non-finite float
    made None, which JSON writes as null: RFC 8259 has no inf or NaN."""
    if isinstance(o, (np.ndarray, np.generic)):
        o = o.tolist()
    if isinstance(o, dict):
        return {key: _strict(value) for key, value in o.items()}
    if isinstance(o, (list, tuple)):
        return [_strict(value) for value in o]
    if isinstance(o, float) and not np.isfinite(o):
        return None
    return o


def _emit(report: dict, cfg: RunConfig, timings: dict):
    if not cfg.no_timings:
        report["diagnostics"]["timings"] = timings
    text = json.dumps(_strict(report), sort_keys=True, indent=2,
                      allow_nan=False)
    try:
        if cfg.out_json:
            Path(cfg.out_json).write_text(text + "\n")
        if cfg.csv_dir:
            outdir = Path(cfg.csv_dir)
            outdir.mkdir(parents=True, exist_ok=True)
            for entry in report.get("charges", []):
                _write_csv(outdir / f"{entry['id']}.csv", entry["samples"])
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename!r}: {exc.strerror}") \
            from exc
    if not cfg.out_json:    # after the files, so a failed write prints nothing
        print(text)


def _base_report(cfg: RunConfig) -> dict:
    return {"schema_version": SCHEMA_VERSION, "config": config_echo(cfg),
            "charges": [], "diagnostics": {}, "verdicts": []}


# ------------------------------------------------------------------- commands

def _require_family(spec: MetricSpec, command: str, flat: bool):
    """Reject a metric of the other family as a configuration error."""
    if spec.is_flat_type != flat:
        family, kinds, chart = ("flat", FLAT_KINDS, "the cartesian chart") \
            if flat else ("hyperbolic", HYPERBOLIC_KINDS, "a polar chart")
        raise ConfigError(
            f"{command} needs a {family}-type metric ({', '.join(kinds)}, or "
            f"an expression metric in {chart}), got "
            f"{spec.kind} in the {spec.chart_kind.value} chart")


def cmd_charges(cfg: RunConfig, command: str,
                kernel: str | None = None) -> tuple[dict, int]:
    """A charge command: one report entry per series and one verdict per
    pair, then the command's diagnostic."""
    spec = build_spec(cfg)
    n = spec.n
    if command in ("mass", "center"):
        _require_family(spec, command, flat=True)
    radii = schedule_radii(cfg, spec)
    rule = sphere_rule(n, cfg.degree)
    # the basis indices and the hypotheses whose diagnostics are reported
    indices, judged = {"mass": ([0], ["decay"]),
                       "center": (range(1, n + 1), ["odd"]),
                       "ah-mass": (range(n + 1), ["decay"])}[command]
    if command == "ah-mass":
        if kernel is not None:
            if not (kernel.startswith("V") and kernel[1:].isascii()
                    and kernel[1:].isdigit() and int(kernel[1:]) <= n):
                raise ConfigError(f"unknown kernel selector {kernel!r}; "
                                  f"use V0..V{n}")
            indices = [int(kernel[1:])]
        _require_family(spec, command, flat=False)
    report = _base_report(cfg)
    t0 = time.perf_counter()
    mass, rows, sups = verify_mod.charge_pairs(
        spec, radii, rule, indices, cfg.rel_tol)
    if command == "center":
        report["charges"].append(_series_entry("mass_classical", mass))
    for row in rows:
        _, cls_id, ric_id, verdict_id = verify_mod.pair_names(row.field)
        report["charges"] += [_series_entry(cls_id, row.classical_series),
                              _series_entry(ric_id, row.ricci_series)]
        report["verdicts"].append({"id": verdict_id, "passed": row.passed,
                                   "difference": row.difference,
                                   "budget": row.budget})
    report["diagnostics"].update(charges_mod.hypothesis_diagnostics(
        spec, radii, {key: sups[key] for key in judged}))
    return _finish(report, cfg, t0, all(v["passed"] for v in report["verdicts"]))


def cmd_verify(cfg: RunConfig, which: str) -> tuple[dict, int]:
    spec = build_spec(cfg)
    rule = sphere_rule(spec.n, cfg.degree)
    report = _base_report(cfg)
    t0 = time.perf_counter()
    ok = True
    if which == "pohozaev":
        # cartesian or geodesic radii, to the chart as in schedule_radii
        with np.errstate(over="ignore"):
            r0, r1 = chart_radius(spec.chart_kind, np.array(cfg.annulus or (
                (8.0, 16.0) if spec.is_flat_type else (1.0, 2.0)))).tolist()
        if not np.isfinite(r1):
            raise ConfigError(f"annulus {','.join(map(str, cfg.annulus))} "
                              f"overflows the {spec.chart_kind.value} chart")
        for rep in verify_mod.pohozaev_check(
                spec, range(spec.n + 1), r0, r1, rule, cfg.radial_degree,
                rel_tol=cfg.rel_tol):
            ok = ok and rep.passed
            report["verdicts"].append(
                {"id": rep.check_id, "passed": rep.passed, "lhs": rep.lhs,
                 "rhs": rep.rhs, "residual": rep.residual,
                 "relative_residual": rep.relative_residual,
                 "context": rep.context})
    elif which == "kernel":
        if spec.kind not in verify_mod.EINSTEIN_LAMBDA:
            raise ConfigError(
                f"verify --which kernel needs an Einstein catalog metric "
                f"({', '.join(verify_mod.EINSTEIN_LAMBDA)}), got {spec.kind}")
        for i in range(spec.n + 1):
            rep = verify_mod.kernel_check_lemma22(spec, i, seed=cfg.seed)
            ok = ok and rep.passed
            report["verdicts"].append(
                {"id": rep.check_id, "passed": rep.passed,
                 "max_residual": rep.max_residual,
                 "trace_residual": rep.trace_residual,
                 "einstein_defect": rep.einstein_defect})
    elif which == "equivalence":
        rep = verify_mod.equivalence_report(spec, schedule_radii(cfg, spec),
                                            rule, rel_tol=cfg.rel_tol)
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
    return _finish(report, cfg, t0, ok)


def _finish(report, cfg, t0, ok):
    """Emit the report, timed from ``t0`` (after set-up) to here, with the
    thread count it ran on."""
    _emit(report, cfg, {"total_s": time.perf_counter() - t0,
                        "threads": thread_count()})
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
    p.add_argument("--degree", dest="degree", type=int, default=None,
                   help="sphere rule degree of the first radius (default "
                        "16); each later radius picks its own rule, never "
                        "above the one before, except on a polar "
                        "expression metric, which keeps this one")
    p.add_argument("--radial-degree", dest="radial_degree", type=int,
                   default=None)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
    p.add_argument("--seed", dest="seed", type=int, default=None)
    p.add_argument("--out-json", dest="out_json", default=None)
    p.add_argument("--csv-dir", dest="csv_dir", default=None)
    p.add_argument("--no-timings", dest="no_timings", action="store_true",
                   default=None)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="asymflux",
        description="Asymptotic invariants of asymptotically flat and "
                    "hyperbolic metrics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("mass", "center", "ah-mass", "verify"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "ah-mass":
            p.add_argument("--kernel", default=None,
                           help="kernel selector, e.g. V0 or V2")
        if name == "verify":
            p.add_argument("--which", required=True,
                           choices=["pohozaev", "kernel", "equivalence"])
            p.add_argument("--annulus", default=None,
                           help="r0,r1 for the pohozaev annulus (geodesic "
                                "radii on hyperbolic metrics)")
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
        if args.command == "verify":
            _, code = cmd_verify(cfg, args.which)
        else:
            _, code = cmd_charges(cfg, args.command,
                                  getattr(args, "kernel", None))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AsymfluxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
