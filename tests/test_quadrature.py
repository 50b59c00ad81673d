"""Sphere/annulus quadrature: exactness, determinism, error estimates."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import gamma as sp_gamma

from asymflux.errors import QuadratureError
from asymflux.geometry import ChartKind
from asymflux.quadrature import (integrate_annulus, integrate_sphere, omega,
                                 pairwise_sum, sphere_rule, thread_count)


def monomial_sphere_integral(exponents):
    """Exact integral of prod u_i^{a_i} over S^{n-1} (classic beta formula)."""
    a = np.asarray(exponents)
    if np.any(a % 2):
        return 0.0
    b = (a + 1) / 2.0
    return 2.0 * np.prod(sp_gamma(b)) / sp_gamma(np.sum(b))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_weights_sum_to_sphere_volume(n):
    rule = sphere_rule(n, 20)
    assert pairwise_sum(rule.weights) == pytest.approx(omega(n), rel=1e-14)


def embedding_reference(angles):
    """u_1 = cos theta_1, u_j = sin theta_1 ... sin theta_{j-1} cos theta_j,
    u_n = sin theta_1 ... sin theta_{n-2} sin phi, evaluated in numpy."""
    k = angles.shape[-1]
    out = np.empty(angles.shape[:-1] + (k + 1,))
    sin_prod = np.ones(angles.shape[:-1])
    for j in range(k):
        out[..., j] = sin_prod * np.cos(angles[..., j])
        sin_prod = sin_prod * np.sin(angles[..., j])
    out[..., k] = sin_prod
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rule_units_are_the_embedding_formula(n):
    """The rule nodes come from the hyper-dual embedding, without
    derivatives, on the axes of the product grid; they equal the plain
    formula on every node bit for bit."""
    for degree in (1, 4, 12, 16, 30):
        rule = sphere_rule(n, degree)
        assert np.array_equal(rule.units, embedding_reference(rule.angles))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_moment_exactness(n):
    """Every monomial up to the rule degree integrates exactly."""
    degree = 12
    rule = sphere_rule(n, degree)
    rng = np.random.default_rng(3)
    for _ in range(40):
        total = degree
        exps = rng.multinomial(rng.integers(0, total + 1), np.ones(n) / n)
        vals = np.prod(rule.units ** exps, axis=-1)
        got = pairwise_sum(vals * rule.weights)
        expected = monomial_sphere_integral(exps)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_closed_form_sphere_integrals():
    rule = sphere_rule(3, 24)
    # integral of (1 + u_3^2) over S^2 = 4pi + 4pi/3
    res = integrate_sphere(lambda p: (1.0 + (p[:, 2] / 2.0) ** 2) * 2.0 ** 2,
                           2.0, rule, ChartKind.CARTESIAN)
    expected = 4.0 * (4 * np.pi + 4 * np.pi / 3)  # r^2 area factor, u3 = p3/r
    assert res.value == pytest.approx(expected, rel=1e-12)
    assert res.error_estimate < 1e-10


def test_hyperbolic_sphere_area():
    rule = sphere_rule(3, 10)
    res = integrate_sphere(lambda p: np.sinh(p[:, 0]) ** 2, 1.5, rule,
                           ChartKind.POLAR_GEODESIC)
    assert res.value == pytest.approx(4 * np.pi * np.sinh(1.5) ** 2, rel=1e-12)


def test_annulus_volume():
    rule = sphere_rule(3, 10)
    res = integrate_annulus(lambda p: np.linalg.norm(p, axis=-1) ** 2, 1.0,
                            2.0, rule, radial_degree=12,
                            chart_kind=ChartKind.CARTESIAN)
    assert res.value == pytest.approx(4 * np.pi / 3 * (8 - 1), rel=1e-12)


def test_annulus_hyperbolic_volume():
    rule = sphere_rule(3, 10)
    res = integrate_annulus(lambda p: np.sinh(p[:, 0]) ** 2, 0.5, 1.5, rule,
                            radial_degree=20,
                            chart_kind=ChartKind.POLAR_GEODESIC)
    exact = 4 * np.pi * (np.sinh(2 * 1.5) / 4 - 1.5 / 2
                         - (np.sinh(2 * 0.5) / 4 - 0.5 / 2))
    assert res.value == pytest.approx(exact, rel=1e-10)


def test_refinement_stability():
    f = lambda p: np.exp(-np.linalg.norm(p, axis=-1)) * (1 + p[:, 0] ** 2)
    vals = [integrate_sphere(f, 1.0, sphere_rule(3, d)).value
            for d in (8, 16, 24)]
    assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0]) + 1e-14
    assert vals[2] == pytest.approx(vals[1], rel=1e-10)


def test_error_estimate_brackets_true_error():
    f = lambda p: 1.0 / (2.0 + p[:, 0])
    truth = integrate_sphere(f, 1.0, sphere_rule(3, 40)).value
    res = integrate_sphere(f, 1.0, sphere_rule(3, 12))
    assert abs(res.value - truth) <= 10 * res.error_estimate + 1e-13


def test_nan_integrand_rejected():
    rule = sphere_rule(3, 8)
    def bad(p):
        out = np.ones(p.shape[0])
        out[3] = np.nan
        return out
    with pytest.raises(QuadratureError):
        integrate_sphere(bad, 1.0, rule)


def test_rule_validation():
    with pytest.raises(QuadratureError):
        sphere_rule(6, 10)
    with pytest.raises(QuadratureError):
        sphere_rule(3, 0)
    with pytest.raises(QuadratureError):
        integrate_annulus(lambda p: np.ones(p.shape[0]), 2.0, 1.0,
                          sphere_rule(3, 8))


def test_pairwise_sum_matches_math_fsum():
    import math
    rng = np.random.default_rng(5)
    x = rng.normal(size=1001) * 10.0**rng.integers(-8, 8, 1001)
    assert pairwise_sum(x) == pytest.approx(math.fsum(x), rel=1e-12)


def test_thread_count_reads_the_environment(monkeypatch):
    monkeypatch.delenv("ASYMFLUX_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("ASYMFLUX_THREADS", "3")
    assert thread_count() == 3


@pytest.mark.parametrize("nthreads", [0, -3, 2.7])
def test_bad_thread_count_rejected(nthreads):
    """A library caller's thread count must be a positive integer, as
    ``--threads`` and ``ASYMFLUX_THREADS`` must."""
    with pytest.raises(ValueError, match="positive integer"):
        integrate_sphere(lambda p: p[:, 0], 1.0, sphere_rule(3, 4),
                         nthreads=nthreads)


def test_thread_count_invariance():
    """Bit-identical integrals regardless of the worker count."""
    rule = sphere_rule(4, 30)   # enough nodes for several chunks
    f = lambda p: np.sin(3 * p[:, 0]) * np.exp(p[:, 1]) + p[:, 2] ** 3
    res1 = integrate_sphere(f, 1.0, rule, nthreads=1)
    res4 = integrate_sphere(f, 1.0, rule, nthreads=4)
    assert res1.value == res4.value  # exact equality, not approx
    # column integrands: each column equals its own one-column integral
    cols = lambda p: np.stack([f(p), np.cos(p[:, 1])], axis=-1)
    res1 = integrate_sphere(cols, 1.0, rule, nthreads=1)
    res4 = integrate_sphere(cols, 1.0, rule, nthreads=4)
    assert np.array_equal(res1.value, res4.value)
    assert res1.value[0] == integrate_sphere(f, 1.0, rule).value


def test_thread_env_var():
    code = ("import numpy as np\n"
            "from asymflux.quadrature import sphere_rule, integrate_sphere\n"
            "rule = sphere_rule(3, 30)\n"
            "f = lambda p: np.cos(p[:, 0]) + p[:, 1]**2\n"
            "print(repr(integrate_sphere(f, 2.0, rule).value))\n")
    outs = set()
    for threads in ("1", "3"):
        env = dict(os.environ, ASYMFLUX_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        outs.add(out.stdout.strip())
    assert len(outs) == 1
