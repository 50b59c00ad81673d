"""Acceptance gate: one check per headline claim, each printing PASS/FAIL.

Every criterion states its tolerance inline; the verdict line is emitted
outside pytest's capture so the summary is visible in a plain ``pytest -v``
run.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from asymflux.catalog import MetricSpec, background_of, metric_jet
from asymflux.charges import charge_series, hypothesis_diagnostics
from asymflux.expr import parse, eval_jet
from asymflux.fields import basis_jets
from asymflux.geometry import (ChartKind, SymTensorJet, curvature,
                               divergence_vector)
from asymflux.quadrature import pairwise_sum, sphere_rule
from asymflux.verify import (charge_pairs, hyperbolic_pohozaev_closed_form,
                             kernel_check_lemma22, pohozaev_check,
                             sample_points)
from oracles import (adm_integrand, center_integrand, dscal_adjoint,
                     michel_integrand_deviation)

FLAT_RADII = 8.0 * 2.0 ** np.arange(5)
HYP_S = 3.0 + 0.75 * np.arange(5)


@pytest.fixture
def verdict(capsys):
    def emit(num, label, ok):
        with capsys.disabled():
            print(f"ACCEPTANCE {num}: {label} ... {'PASS' if ok else 'FAIL'}",
                  flush=True)
        assert ok, f"acceptance criterion {num} failed: {label}"
    return emit


def test_acceptance_1_schwarzschild_mass(verdict):
    """classical mass within 1e-3 rel and Einstein-tensor mass within 1e-2
    rel of m, for n in {3,4,5} and m in {1, 2.5}; under 10 s per case."""
    ok = True
    for n in (3, 4, 5):
        rule = sphere_rule(n, 12)
        for m in (1.0, 2.5):
            spec = MetricSpec("schwarzschild_conformal", n, m=m)
            t0 = time.perf_counter()
            _, (cls,), (ric,), _ = charge_series(spec, FLAT_RADII, rule, [0])
            cls, ric = cls.limit, ric.limit
            elapsed = time.perf_counter() - t0
            ok &= abs(cls - m) <= 1e-3 * m
            ok &= abs(ric - m) <= 1e-2 * m
            ok &= elapsed < 10.0
    verdict(1, "Schwarzschild mass, both versions, n=3..5", ok)


def test_acceptance_2_center_of_mass(verdict):
    """translated Schwarzschild center recovered by both versions within
    1e-2 componentwise; Regge-Teitelboim odd-part exponent = 2 +- 0.3."""
    c = (1.0, 0.5, 0.0)
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0, center=c)
    rule = sphere_rule(3, 12)
    ok = True
    for a in range(3):
        # a center divides by the mass of the const_one kernel leading its pass
        _, (cc,), (rc,), _ = charge_series(spec, FLAT_RADII, rule, [a + 1])
        ok &= abs(cc.limit - c[a]) <= 1e-2
        ok &= abs(rc.limit - c[a]) <= 1e-2
    # the parity sups of the center pass
    sups = charge_pairs(spec, FLAT_RADII, rule, range(1, 4))[2]
    rt = hypothesis_diagnostics(spec, FLAT_RADII, {"odd": sups["odd"]})
    ok &= abs(rt["rt_exponent"] - 2.0) <= 0.3
    verdict(2, "center of mass, both versions, RT exponent", ok)


def test_acceptance_3_hyperbolic_mass(verdict):
    """Kottler: scalar charge equals m within 1e-3 rel classically and 1e-2
    rel via the modified Einstein tensor; vector charges below 1e-6."""
    radii = np.sinh(HYP_S)
    ok = True
    for n in (3, 4):
        rule = sphere_rule(n, 14)
        for m in (1.0, 2.0):
            spec = MetricSpec("kottler", n, m=m)
            _, classical, ricci, _ = charge_series(spec, radii, rule,
                                                   range(n + 1))
            limits = [(cls.limit, ric.limit)
                      for cls, ric in zip(classical, ricci)]
            (am, ar), vectors = limits[0], limits[1:]
            ok &= abs(am - m) <= 1e-3 * m
            ok &= abs(ar - m) <= 1e-2 * m
            for am, ar in vectors:
                ok &= abs(am) < 1e-6
                ok &= abs(ar) < 1e-6
    verdict(3, "Kottler hyperbolic charges, n=3,4", ok)


def test_acceptance_4_pohozaev(verdict):
    """boundary/bulk identity on an annulus (r0, 2 r0) for every catalog
    conformal Killing field, relative residual < 1e-6 at degree 30; the
    hyperbolic scalar case matches its closed form within 1e-8 rel."""
    cases = [(MetricSpec("euclidean", 3), 8.0),
             (MetricSpec("hyperbolic_polar", 3), 1.0),
             (MetricSpec("schwarzschild_conformal", 3, m=1.0), 8.0)]
    ok = True
    for spec, r0 in cases:
        rule = sphere_rule(spec.n, 30)
        for i in range(spec.n + 1):
            rep = pohozaev_check(spec, [i], r0, 2.0 * r0, rule)[0]
            ok &= rep.relative_residual < 1e-6
    spec = MetricSpec("hyperbolic_polar", 3)
    rep = pohozaev_check(spec, [0], 1.0, 2.0, sphere_rule(3, 30))[0]
    exact = hyperbolic_pohozaev_closed_form(3, 1.0, 2.0)
    ok &= abs(rep.lhs - exact) <= 1e-8 * abs(exact)
    verdict(4, "Pohozaev identity + hyperbolic closed form", ok)


def test_acceptance_5_kernel_identity(verdict):
    """Hess(div X) + lambda (div X) g vanishes to 1e-8 at 50 random points
    for every basis field, flat (lambda=0) and hyperbolic (lambda=-1)."""
    ok = True
    for kind in ("euclidean", "hyperbolic_polar"):
        spec = MetricSpec(kind, 3)
        for i in range(4):
            rep = kernel_check_lemma22(spec, i, count=50)
            ok &= rep.max_residual < 1e-8
            ok &= rep.lam == (0.0 if kind == "euclidean" else -1.0)
    verdict(5, "kernel identity, 50 random points", ok)


def test_acceptance_6_pairing(verdict):
    """(D Scal)*_b V^(i) = 0 on both backgrounds, and the hyperbolic
    pairing div_b X^(i) = -n V^(i), below 1e-8 at 50 random points for
    i = 0..n and n in {3,4}."""
    rng = np.random.default_rng(7)
    ok = True
    for n in (3, 4):
        for kind, chart in (("euclidean", ChartKind.CARTESIAN),
                            ("hyperbolic_polar", ChartKind.POLAR_GEODESIC)):
            spec = MetricSpec(kind, n)
            pts = sample_points(n, chart, 50, rng)
            jet = metric_jet(spec, pts)
            bun = curvature(jet)
            for i in range(n + 1):
                (vj,), (X,) = basis_jets(pts, chart, [i], [i])
                ok &= np.max(np.abs(dscal_adjoint(jet, vj, bun))) < 1e-8
                if kind == "hyperbolic_polar":
                    div = divergence_vector(X, bun)
                    ok &= np.max(np.abs(div + n * vj.val)) < 1e-8
    verdict(6, "kernel/divergence pairing, i=0..n, n=3,4", ok)


def test_acceptance_7_integrand_specialization(verdict):
    """the general charge integrand reproduces the mass integrand (V = 1)
    and the center integrand (V = x^a) to 1e-12 of scale at 100 points."""
    rng = np.random.default_rng(11)
    n = 3
    x = rng.normal(size=(100, n)) * 4.0
    nu = rng.normal(size=(100, n))
    nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
    value = rng.normal(size=(100, n, n)) * 0.1
    value = value + np.swapaxes(value, -1, -2)
    d = rng.normal(size=(100, n, n, n)) * 0.1
    d = d + np.swapaxes(d, -1, -2)
    eps = SymTensorJet(value, d)
    bjet = metric_jet(MetricSpec("euclidean", n), x)
    ok = True
    (V1,), _ = basis_jets(x, "cartesian", [0], [])
    got = michel_integrand_deviation(V1, eps, bjet, nu)
    want = adm_integrand(eps, nu)
    ok &= np.max(np.abs(got - want)) < 1e-12 * (np.max(np.abs(want)) + 1.0)
    for a in range(n):
        (Va,), _ = basis_jets(x, "cartesian", [a + 1], [])
        got = michel_integrand_deviation(Va, eps, bjet, nu)
        want = center_integrand(eps, a, x, nu)
        ok &= np.max(np.abs(got - want)) < 1e-12 * (np.max(np.abs(want)) + 1.0)
    verdict(7, "integrand specialization, 100 random points", ok)


def _random_expr(rng, depth=0):
    if depth >= 3 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return f"x{rng.integers(1, 4)}"
        return f"{rng.uniform(0.2, 2.0):.3f}"
    roll = rng.random()
    if roll < 0.6:
        op = rng.choice(["+", "-", "*"])
        return (f"({_random_expr(rng, depth + 1)} {op} "
                f"{_random_expr(rng, depth + 1)})")
    fn = rng.choice(["sin", "cos", "tanh"])
    return f"{fn}({_random_expr(rng, depth + 1)})"


def _fd_jet(text, x, h=1e-4):
    n = x.size
    f = lambda y: eval_jet(parse(text, n), y, None, "cartesian").val
    grad = np.empty(n)
    hess = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n); e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2 * h)
        hess[i, i] = (f(x + e) - 2 * f(x) + f(x - e)) / h**2
        for j in range(i):
            ej = np.zeros(n); ej[j] = h
            hess[i, j] = hess[j, i] = (f(x + e + ej) - f(x + e - ej)
                                       - f(x - e + ej) + f(x - e - ej)) / (4 * h**2)
    return grad, hess


def test_acceptance_8_numerics_hygiene(verdict):
    """derivatives vs central differences below 1e-6 rel on 100 random
    expressions; sphere rule exact on polynomials to 1e-12; reports are
    byte-identical across thread counts."""
    rng = np.random.default_rng(23)
    ok = True
    for _ in range(100):
        text = _random_expr(rng)
        x = rng.uniform(-1.5, 1.5, 3)
        out = eval_jet(parse(text, 3), x, None, "cartesian")
        g_fd, h_fd = _fd_jet(text, x)
        scale = max(np.max(np.abs(g_fd)), np.max(np.abs(h_fd)), 1.0)
        ok &= np.max(np.abs(out.grad - g_fd)) <= 1e-6 * scale
        ok &= np.max(np.abs(out.hess - h_fd)) <= 1e-6 * scale

    for n in (3, 4, 5):
        degree = 12
        rule = sphere_rule(n, degree)
        for _ in range(25):
            exps = rng.multinomial(rng.integers(0, degree + 1), np.ones(n) / n)
            got = pairwise_sum(np.prod(rule.units ** exps, axis=-1)
                               * rule.weights)
            if np.any(exps % 2):
                want = 0.0
            else:
                b = (exps + 1) / 2.0
                want = (2.0 * math.prod(map(math.gamma, b))
                        / math.gamma(b.sum()))
            ok &= abs(got - want) <= 1e-12 * max(abs(want), 1.0)

    cmd = [sys.executable, "-m", "asymflux.cli", "mass", "--kind",
           "schwarzschild_conformal", "--n", "3", "--m", "1",
           "--degree", "12", "--no-timings"]
    outs = []
    for threads in ("1", "4"):
        env = dict(os.environ, ASYMFLUX_THREADS=threads)
        res = subprocess.run(cmd, env=env, capture_output=True, text=True)
        ok &= res.returncode == 0
        outs.append(res.stdout)
    ok &= outs[0] == outs[1]
    verdict(8, "AD vs FD, quadrature exactness, determinism", ok)
