"""asymflux benchmark: four CLI workloads, end to end and layer by layer.

Usage::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src``.
Each timed iteration is one fresh interpreter (``perfbench/worker.py``) that
sets up like the CLI and then runs ``asymflux.cli.main`` once, single
threaded.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON record of the run (drawn inputs, environment, every limit and
limit_error as ``repr``, the ``--no-timings`` report digest, failed checks).
The record is also written under ``perfbench/out/``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (fresh interpreter
to ready: imports, config, spec, sphere rule; median of at least six
set-ups), ``solve_s`` (median wall time of the CLI command), ``peak_rss_mb``
(median peak resident memory of the worker) and ``err_covered`` (share of
results whose true error is within their own error bar).  Both times are
wall times scaled to a reference machine speed (see ``scaled``); the raw
wall times are in the record.  ``--trace 1``
pairs untraced and traced iterations and reports per-layer self times,
counts, errors and the tracing overhead.  The share of failed correctness
checks (``fail_frac``) is ``failed / attempted`` in the result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"

MIN_SETUPS = 6              # set-up samples per untraced run
# Median duration of the worker's speed probe (worker.PROBE_LOOP) on the
# machine the bounds were set on: a 2-vCPU Intel Xeon VM, Python 3.11.
PROBE_REF_S = 2.5e-4
WORKER_TIMEOUT_S = 120.0     # keeps a run with one hung worker under 180 s
COVERAGE_TOLERANCE = 0.03   # traced self times must sum to the wall time
THREAD_VARS = ("ASYMFLUX_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


# ---------------------------------------------------------------- workloads
#
# Every workload runs at degree 16 with the default radius schedule, one
# asymflux thread and one process.  The seed draws the mass m (and the
# center c where the workload has one); the draw ranges keep the default
# schedules inside the metric domains.

@dataclass(frozen=True)
class Workload:
    """One CLI command on seeded inputs.

    ``judge(inputs, report, closed_form)`` returns the correctness checks as
    ``[(name, ok)]`` and the results for ``err_covered`` as
    ``[(id, value, error_bar, exact)]``; ``report`` is None when the
    iteration failed, which fails every check.
    """

    name: str
    argv: tuple                          # CLI command and its own flags
    draw: Callable[[random.Random], dict]
    config: Callable[[dict], str]        # INI text for the drawn inputs
    judge: Callable
    closed_form: tuple | None = None     # (n, r0, r1) of the Pohozaev reference


def _charge_judge(expected):
    """Judge for charge reports; ``expected(inputs)`` maps each charge id to
    ``(exact value, tolerance)``."""
    def judge(inputs, report, closed_form):
        limits = {e["id"]: (e["limit"], e["limit_error"])
                  for e in (report or {}).get("charges", ())}
        checks, rows = [], []
        for charge_id, (exact, tol) in expected(inputs).items():
            value, bar = limits.get(charge_id, (math.nan, math.nan))
            checks.append((charge_id, abs(value - exact) <= tol))
            rows.append((charge_id, value, bar, exact))
        return checks, rows
    return judge


# flat-mass-n5: `mass` on conformal Schwarzschild, n=5, 13122 + 4802 nodes
# per sphere.  Stresses geometry (curvature, christoffel_derivative) and the
# Michel integrand in charges: a 4096-node chunk makes the einsum FLOPs set
# the time.  One kernel and one Killing field, so collapsing the flux
# pipeline across kernels should leave it unchanged; it also carries the
# largest peak memory, which guards against batching more nodes at once.

def _draw_m(rng):
    return {"m": rng.uniform(0.5, 2.0)}


def _flat_config(inp):
    return ("[metric]\nkind = schwarzschild_conformal\nn = 5\n"
            f"m = {inp['m']!r}\n\n[quadrature]\ndegree = 16\n")


def _flat_expected(inp):
    m = inp["m"]
    return {"mass_classical": (m, 1e-3 * m), "mass_ricci": (m, 1e-2 * m)}


# expr-center-n4: `center` on a user `expression` metric, the translated
# conformal Schwarzschild factor (1 + mm/(2|x-c|^2))^2 on each diagonal.
# Stresses expr (parse on every chunk, hyper-dual evaluation) and the
# catalog jets, about 60% of its time; nine series recompute the jets and
# curvature 2n+1 times per radius on 1458-node spheres (under one chunk),
# so per-call overhead matters more than FLOPs.  Known finding at this
# commit, reported and not fixed: err_covered is below 1 here.  At m=1,
# c=(1, 0.5, 0, 0), center_ricci_0 has a true error of 1.8e-10 against a
# limit_error of 6.3e-12.  With every |c_a| drawn in [0.4, 0.8] all four
# center_ricci_a miss, so err_covered reads 5/9 on every seed.

_CENTER_FACTOR = ("(1 + mm/(2*((x1-c1)^2 + (x2-c2)^2 + (x3-c3)^2"
                  " + (x4-c4)^2)))^2")


def _draw_center(rng):
    # |c_a| stays away from 0, where the 1e-12 floor would hide the miss
    inp = {"m": rng.uniform(0.5, 2.0),
           "c": [rng.choice((-1.0, 1.0)) * rng.uniform(0.4, 0.8)
                 for _ in range(4)]}
    # the first sphere is r = 8; keep the center well inside it
    if math.hypot(*inp["c"]) >= 2.0:
        raise ValueError("center too close to the first sphere")
    return inp


def _center_config(inp):
    comps = "".join(f"g_{i}_{i} = {_CENTER_FACTOR}\n" for i in range(1, 5))
    params = "".join(f"c{i + 1} = {c!r}\n" for i, c in enumerate(inp["c"]))
    return ("[metric]\nkind = expression\nn = 4\n\n[components]\n" + comps
            + f"\n[params]\nmm = {inp['m']!r}\n" + params
            + "\n[quadrature]\ndegree = 16\n")


def _center_expected(inp):
    out = {"mass_classical": (inp["m"], 1e-3 * inp["m"])}
    for a, ca in enumerate(inp["c"]):
        out[f"center_classical_{a}"] = out[f"center_ricci_{a}"] = (ca, 1e-2)
    return out


# kottler-charges-n4: `ah-mass` on Kottler, n=4, over all five kernels.
# Covers the polar area chart, the hyper-dual kernel functions and Killing
# fields in fields, and the exp-mode extrapolation in limits; ten series
# with the same per-kernel recomputation as the center workload.

_KOTTLER_START = math.sinh(3.0)   # first radius of the default schedule


def _draw_kottler(rng):
    inp = _draw_m(rng)
    rho, n = _KOTTLER_START, 4
    if 1.0 + rho * rho - 2.0 * inp["m"] * rho ** (-(n - 2)) <= 0.0:
        raise ValueError("kottler metric function non-positive")
    return inp


def _kottler_config(inp):
    return (f"[metric]\nkind = kottler\nn = 4\nm = {inp['m']!r}\n\n"
            "[quadrature]\ndegree = 16\n")


def _kottler_expected(inp):
    m = inp["m"]
    out = {"ah_mass_0": (m, 1e-3 * m), "ah_ricci_0": (m, 1e-2 * m)}
    for i in range(1, 5):
        out[f"ah_mass_{i}"] = out[f"ah_ricci_{i}"] = (0.0, 1e-6)
    return out


# hyp-pohozaev-n4: `verify --which pohozaev` on hyperbolic_polar, n=4, on
# the default annulus (1, 2).  The only workload through integrate_annulus,
# the polar geodesic chart and verify.pohozaev_check: many radial shells and
# signed plus absolute sphere passes use the quadrature layer differently.
# The metric has no parameter, so the seed draws nothing.  Its error bar
# for err_covered is each check's lhs-rhs residual; the exact lhs is the
# closed form for X0 and 0 for X1..X4 (odd parity on the background).

def _pohozaev_judge(inp, report, closed_form):
    verdicts = {v["id"]: v for v in (report or {}).get("verdicts", ())}
    found = [verdicts.get(f"pohozaev:hyperbolic_polar:ah_X{i}:1.0:2.0")
             for i in range(5)]
    exact = [math.nan if closed_form is None else closed_form] + [0.0] * 4
    checks = [(f"pohozaev_X{i}", bool(v and v["passed"]))
              for i, v in enumerate(found)]
    checks.append(("pohozaev_X0_closed_form", found[0] is not None and
                   abs(found[0]["lhs"] - exact[0]) <= 1e-8 * abs(exact[0])))
    rows = [(f"X{i}", v["lhs"] if v else math.nan,
             v["residual"] if v else math.nan, e)
            for i, (v, e) in enumerate(zip(found, exact))]
    return checks, rows


WORKLOADS = {w.name: w for w in (
    Workload("flat-mass-n5", ("mass",), _draw_m, _flat_config,
             _charge_judge(_flat_expected)),
    Workload("expr-center-n4", ("center",), _draw_center, _center_config,
             _charge_judge(_center_expected)),
    Workload("kottler-charges-n4", ("ah-mass",), _draw_kottler,
             _kottler_config, _charge_judge(_kottler_expected)),
    Workload("hyp-pohozaev-n4", ("verify", "--which", "pohozaev"),
             lambda rng: {},
             lambda inp: "[metric]\nkind = hyperbolic_polar\nn = 4\n\n"
                         "[quadrature]\ndegree = 16\n",
             _pohozaev_judge, closed_form=(4, 1.0, 2.0)),
)}


def covered(value, bar, exact) -> bool:
    """``|value - exact| <= bar``; misses where both are below
    ``1e-12 * max(|exact|, 1)`` count as covered."""
    err = abs(value - exact)
    if err <= bar:
        return True
    floor = 1e-12 * max(abs(exact), 1.0)
    return err < floor and bar < floor


# ----------------------------------------------------------------- running

def speed(probes) -> float:
    """Reference probe time over the median probe time of an interval:
    below 1 when the machine ran slower than the reference."""
    return PROBE_REF_S / statistics.median(probes) if probes else 1.0


def scaled(wall: float, probes) -> float:
    """Wall time of an interval at the reference machine speed.

    The machine this runs on is a share of a host whose speed drifts by up
    to 2x within seconds and by 10-20% over minutes, which moves every wall
    time with it.  The worker samples a fixed probe loop every 50 ms; the
    probe time is taken out of the wall time and the rest is scaled by
    ``speed(probes)``.  A change to the program moves the wall time but not
    the probe, so it shows in full.
    """
    return (wall - sum(probes)) * speed(probes)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _run_worker(job: dict) -> dict | None:
    """Run one worker; return its result plus ``setup_s``, or None."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        print(f"worker exited {proc.returncode}: {err[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads(out.strip().splitlines()[-1])
    if not Path(result["module"]).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"asymflux imported from {result['module']}, "
                         f"not from {ROOT / 'src'}")
    result["setup_wall_s"] = result["ready_monotonic"] - start
    result["setup_s"] = scaled(result["setup_wall_s"], result["setup_probes"])
    return result


class Run:
    """Iterations of one workload and seed, with their correctness checks."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.inputs = workload.draw(random.Random(seed))
        OUT.mkdir(parents=True, exist_ok=True)
        stem = f"{workload.name}-seed{seed}"
        self.config = OUT / f"{stem}.ini"
        self.config.write_text(workload.config(self.inputs))
        # the path is echoed in the report, so it must not depend on the seed
        self.report_path = f"perfbench/out/{workload.name}-report.json"
        self.setups = []
        self.iterations = []
        self.failed_checks = []
        self.attempted = 0
        self.first = None        # record of the first iteration with a report

    def job(self, trace=False, setup_only=False) -> dict:
        return {"config": str(self.config),
                "argv": [*self.workload.argv, "--config", str(self.config),
                         "--no-timings", "--out-json", self.report_path],
                "trace": trace, "setup_only": setup_only,
                "closed_form": self.workload.closed_form}

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed_checks.append(name)

    def setup_only(self):
        result = _run_worker(self.job(setup_only=True))
        self.check("setup", result is not None)
        if result is not None:
            self.setups.append(result["setup_s"])

    def solve(self, trace=False) -> dict:
        """One worker iteration; returns its record (with the report)."""
        report_file = ROOT / self.report_path
        report_file.unlink(missing_ok=True)
        start = time.monotonic()
        result = _run_worker(self.job(trace=trace))
        wall = time.monotonic() - start
        ok = result is not None and result["exit_code"] == 0 \
            and report_file.is_file()
        report = json.loads(report_file.read_text()) if ok else None
        closed_form = result.get("closed_form") if result else None
        checks, rows = self.workload.judge(self.inputs, report, closed_form)
        self.check("exit_code", ok)
        for name, good in checks:
            self.check(name, ok and good)
        record = {"trace": trace, "wall_s": wall, "exit_code":
                  result["exit_code"] if result else None}
        if result is not None:
            self.setups.append(result["setup_s"])
            probes = result["solve_probes"]
            record.update(setup_s=result["setup_s"],
                          setup_wall_s=result["setup_wall_s"],
                          solve_s=scaled(result["solve_wall_s"], probes),
                          solve_wall_s=result["solve_wall_s"],
                          speed=speed(probes), probes=len(probes),
                          peak_rss_mb=result["maxrss_kb"] / 1024.0,
                          env=result["env"], trace_summary=result.get("trace"))
        if report is not None:
            digest = hashlib.sha256(report_file.read_bytes()).hexdigest()
            limits = {e["id"]: [repr(e["limit"]), repr(e["limit_error"])]
                      for e in report["charges"]}
            record.update(digest=digest, limits=limits, rows=rows)
            if self.first is None:
                self.first = record
            else:
                self.check("digest_stable", digest == self.first["digest"])
        self.iterations.append(record)
        return record

    def ledger_check(self):
        """Flag a digest that differs from an earlier run of this checkout."""
        if self.first is None:
            return None
        path = OUT / "digests.json"
        ledger = json.loads(path.read_text()) if path.is_file() else {}
        config = hashlib.sha256(self.config.read_bytes()).hexdigest()[:16]
        key = f"{self.workload.name}:{self.seed}:{config}"
        previous = ledger.setdefault(key, self.first["digest"])
        path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
        self.check("digest_matches_earlier_runs",
                    previous == self.first["digest"])
        return previous


def _loop(seconds, step):
    """Call ``step`` at least once, and again while at least half of the
    next call is expected to end within ``seconds``."""
    start = time.monotonic()
    done = 0
    while True:
        step()
        done += 1
        elapsed = time.monotonic() - start
        if elapsed + 0.5 * elapsed / done > seconds:
            return


def _median(values):
    return statistics.median(values) if values else math.nan


def end_to_end(run: Run, seconds: float) -> dict:
    _loop(seconds, run.solve)
    while len(run.setups) < MIN_SETUPS:
        run.setup_only()
    timed = [it for it in run.iterations if "solve_s" in it]
    solve = [it["solve_s"] for it in timed] or \
        [it["wall_s"] for it in run.iterations]
    rss = [it["peak_rss_mb"] for it in timed] or \
        [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0]
    rows = run.first["rows"] if run.first else []
    share = sum(covered(*row[1:]) for row in rows) / len(rows) if rows else 0.0
    return {"setup_s": (_median(run.setups), "s"),
            "solve_s": (_median(solve), "s"),
            "peak_rss_mb": (_median(rss), "MB"),
            "err_covered": (share, "fraction")}


# per-layer metrics: span self times, call counts and node ratios
_SPAN_SELF = ("catalog.metric_jet", "catalog.deviation_jet", "expr.eval_jet",
              "fields.scalar_jet", "fields.vector_jet", "geometry.curvature",
              "geometry.christoffel_derivative", "geometry.inverse_metric",
              "charges.michel_integrand_deviation",
              "quadrature.integrate_annulus", "quadrature.sphere_rule",
              "limits.extrapolate", "limits.decay_rate")
_SPAN_CALLS = ("expr.parse", "quadrature.sphere_rule", "limits.extrapolate")


def _layer_metrics(summary: dict, traced: dict) -> dict:
    """Per-layer metrics of one traced iteration; times are scaled by the
    iteration's ``speed`` like ``solve_s``."""
    self_s, calls, nodes = summary["self_s"], summary["calls"], summary["nodes"]
    factor = traced["speed"]
    quad = nodes.get("quadrature.integrate_sphere", 0) \
        + nodes.get("quadrature.integrate_annulus", 0)

    def per_quad(*spans):
        return sum(nodes.get(s, 0) for s in spans) / quad if quad else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (summary["layer_self_s"][layer] * factor,
                                  "s")
        out[f"{layer}.errors"] = (summary["errors"].get(layer, 0), "count")
    for span in _SPAN_SELF:
        out[f"{span}.self_s"] = (self_s.get(span, 0.0) * factor, "s")
    for span in _SPAN_CALLS:
        out[f"{span}.calls"] = (calls.get(span, 0), "count")
    out["quadrature.nodes"] = (quad, "count")
    out["catalog.jet_nodes_per_quad_node"] = (
        per_quad("catalog.metric_jet", "catalog.deviation_jet"), "ratio")
    out["geometry.curvature_nodes_per_quad_node"] = (
        per_quad("geometry.curvature"), "ratio")
    out["geometry.inverse_nodes_per_quad_node"] = (
        per_quad("geometry.inverse_metric"), "ratio")
    out["trace.solve_s"] = (traced["solve_s"], "s")
    # raw times on both sides: probe time runs inside the spans
    out["trace.coverage"] = (
        sum(summary["layer_self_s"].values()) / traced["solve_wall_s"],
        "ratio")
    return out


def per_layer(run: Run, seconds: float) -> dict:
    pairs = []

    def step():
        plain = run.solve(trace=False)
        traced = run.solve(trace=True)
        pairs.append((plain, traced))

    _loop(seconds, step)
    samples = []
    for plain, traced in pairs:
        if traced.get("trace_summary") is None or "solve_s" not in plain:
            run.check("trace_self_check", False)
            continue
        metrics = _layer_metrics(traced["trace_summary"], traced)
        metrics["trace.overhead_s"] = (traced["solve_s"] - plain["solve_s"],
                                       "s")
        same = plain.get("digest") is not None \
            and plain.get("digest") == traced.get("digest") \
            and plain.get("limits") == traced.get("limits")
        run.check("trace_charges_identical", same)
        run.check("trace_coverage", abs(metrics["trace.coverage"][0] - 1.0)
                   <= COVERAGE_TOLERANCE)
        samples.append(metrics)
    if not samples:
        return {}
    return {name: (_median([s[name][0] for s in samples]), unit)
            for name, (_, unit) in samples[0].items()}


def _environment(run: Run) -> dict:
    env = next((it["env"] for it in run.iterations if "env" in it), {})
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    child = _child_env()
    return {**env, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "thread_vars": {v: child[v] for v in THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "asymflux" / "cli.py").is_file():
        print(f"no asymflux sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics = per_layer(run, args.seconds)
    else:
        metrics = end_to_end(run, args.seconds)
    previous = run.ledger_check()

    record = {
        "workload": run.workload.name, "seed": run.seed, "trace": args.trace,
        "inputs": run.inputs, "environment": _environment(run),
        "digest": run.first["digest"] if run.first else None,
        "earlier_digest": previous,
        "limits": run.first["limits"] if run.first else None,
        "uncovered": [row[0] for row in (run.first or {}).get("rows", ())
                      if not covered(*row[1:])],
        "failed_checks": run.failed_checks,
        "fail_frac": len(run.failed_checks) / max(run.attempted, 1),
        "iterations": [{k: v for k, v in it.items()
                        if k not in ("env", "limits", "rows")}
                       for it in run.iterations],
        "setup_samples": run.setups,
    }
    name = f"{run.workload.name}-seed{run.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not run.failed_checks,
        "attempted": run.attempted,
        "failed": len(run.failed_checks),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
