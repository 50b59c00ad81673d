"""One timed asymflux CLI invocation in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<json job>'`` with ``PYTHONPATH``
pointing at the checkout's ``src``.  The job holds ``config`` (INI file),
``argv`` (CLI arguments), ``trace`` (bool), ``setup_only`` (bool) and
optionally ``closed_form`` (``[n, r0, r1]`` of the hyperbolic Pohozaev
reference).  The worker sets up exactly as the CLI does (import, config,
spec, sphere rule), records the monotonic time at which it was ready, runs
``asymflux.cli.main`` once and prints one JSON line with its measurements.

A speed probe runs from the first line on: every ``PROBE_INTERVAL_S`` of
wall time a timer signal runs a fixed pure-Python loop and records how long
it took.  The probe durations sampled during set-up and during the solve
tell how fast the machine ran over exactly those intervals; ``run.py``
uses them to scale both times to a reference speed.
"""

import json
import resource
import signal
import sys
import time

PROBE_INTERVAL_S = 0.05
PROBE_LOOP = 4000            # iterations of the probe, about 0.25 ms


class SpeedProbe:
    """Durations of a fixed loop, run from a timer signal."""

    def __init__(self):
        self.samples = []
        self._busy = False

    def _probe(self, *_):
        if self._busy:       # a late timer during a probe is dropped
            return
        self._busy = True
        start = time.perf_counter()
        acc = 0.0
        for i in range(PROBE_LOOP):
            acc += i * 0.5
        self.samples.append(time.perf_counter() - start)
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def take(self) -> list:
        """Samples since the last call."""
        out, self.samples = self.samples, []
        return out


def main() -> int:
    probe = SpeedProbe().start()
    job = json.loads(sys.argv[1])
    import asymflux.cli as cli
    from asymflux.quadrature import sphere_rule

    cfg = cli.load_config(job["config"])
    spec = cli.build_spec(cfg)
    sphere_rule(spec.n, cfg.degree)
    ready = time.monotonic()
    result = {"ready_monotonic": ready, "module": cli.__file__,
              "setup_probes": probe.take()}
    if job.get("setup_only"):
        probe.stop()
        print(json.dumps(result))
        return 0

    tracer = None
    if job.get("trace"):
        from tracer import Tracer
        tracer = Tracer().install()
    t0 = time.perf_counter()
    code = cli.main(job["argv"])
    solve_s = time.perf_counter() - t0
    probe.stop()
    result.update(exit_code=code, solve_wall_s=solve_s,
                  solve_probes=probe.take(),
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        result["trace"] = tracer.summary()
    if job.get("closed_form"):
        from asymflux.verify import hyperbolic_pohozaev_closed_form
        result["closed_form"] = hyperbolic_pohozaev_closed_form(
            *job["closed_form"])
    result["env"] = _environment(spec.n, cfg.degree)
    print(json.dumps(result))
    return 0


def _environment(n, degree):
    import numpy
    import scipy
    from asymflux import quadrature

    embedded = max(degree - quadrature._EMBEDDED_STEP, 1)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": quadrature.thread_count(),
        "rule_nodes": quadrature.sphere_rule(n, degree).node_count,
        "embedded_rule_nodes": quadrature.sphere_rule(n, embedded).node_count,
    }


if __name__ == "__main__":
    sys.exit(main())
