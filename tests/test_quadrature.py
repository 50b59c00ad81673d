"""Sphere/annulus quadrature: exactness, determinism, error estimates."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from asymflux.errors import QuadratureError
from asymflux.geometry import ChartKind
from asymflux.hyperdual import HyperDual
from asymflux.quadrature import (SphereRule, _evaluate, _gauss_jacobi,
                                 integrate_annulus, integrate_sphere, omega,
                                 pairwise_sum, sphere_rule, thread_count)
from oracles import sphere_embedding_chain


def monomial_sphere_integral(exponents):
    """Exact integral of prod u_i^{a_i} over S^{n-1} (classic beta formula)."""
    a = np.asarray(exponents)
    if np.any(a % 2):
        return 0.0
    b = (a + 1) / 2.0
    return 2.0 * math.prod(map(math.gamma, b)) / math.gamma(b.sum())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_weights_sum_to_sphere_volume(n):
    rule = sphere_rule(n, 20)
    assert pairwise_sum(rule.weights) == pytest.approx(omega(n), rel=1e-14)


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
def test_gauss_jacobi_rule(a):
    """Every polar rule the sphere rules use (k = 1..31 points, degrees
    1..60): exact on even moments below 2k, mirrored exactly about 0, and
    weights summing to the integral of the weight.  The coefficient
    transform is discretely orthogonal (sum_i t_ji t_li / w_i = mu0 delta_jl)
    and its row j annihilates every power below j."""
    mu0 = math.sqrt(math.pi) * math.gamma(a + 1) / math.gamma(a + 1.5)
    for k in range(1, 32):
        c, w, t = _gauss_jacobi(k, a)
        assert c.shape == w.shape == (k,) and t.shape == (k, k)
        assert np.allclose((t / w) @ t.T, mu0 * np.eye(k), rtol=0, atol=1e-13)
        for j in range(k):
            for p in range(j):
                assert abs(pairwise_sum(t[j] * c ** p)) < 1e-13, (k, j, p)
        assert np.all(np.diff(c) > 0)
        assert np.array_equal(c, -c[::-1])
        assert np.array_equal(w, w[::-1])
        assert pairwise_sum(w) == pytest.approx(mu0, rel=1e-14)
        for p in range(k):
            exact = (math.gamma(p + 0.5) * math.gamma(a + 1)
                     / math.gamma(p + a + 1.5))
            assert pairwise_sum(w * c ** (2 * p)) == pytest.approx(
                exact, rel=1e-13), (k, p)


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
    derivatives, on the axes of the product grid, one angle factor per
    sparse step; they equal the plain formula and the running products of
    the full-width embedding chain on every node bit for bit."""
    for degree in (1, 4, 12, 16, 30):
        rule = sphere_rule(n, degree)
        assert np.array_equal(rule.units, embedding_reference(rule.angles))
        axes = [HyperDual.constant(a, 0, a.shape) for a in rule.angles.T]
        chain = np.stack([u.val for u in sphere_embedding_chain(axes)],
                         axis=-1)
        assert np.array_equal(rule.units, chain)


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
    f = lambda p: np.linalg.norm(p, axis=-1) ** 2
    res = integrate_annulus(lambda r: f, 1.0, 2.0, rule, radial_degree=12,
                            chart_kind=ChartKind.CARTESIAN)
    assert res.value == pytest.approx(4 * np.pi / 3 * (8 - 1), rel=1e-12)


def test_annulus_hyperbolic_volume():
    rule = sphere_rule(3, 10)
    f = lambda p: np.sinh(p[:, 0]) ** 2
    res = integrate_annulus(lambda r: f, 0.5, 1.5, rule, radial_degree=20,
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


# an off-axis direction: integrands along a polar axis hide the odd powers
# of sin(theta) that a polar coefficient sees before the later angles are
# integrated out
OFF_AXIS = {3: [0.48, 0.6, 0.64], 4: [0.3, 0.5, 0.4, 0.7071],
            5: [0.3, 0.4, 0.5, 0.45, 0.5449]}
PROFILES = {"1/(1.3+t)": lambda t: 1.0 / (1.3 + t),
            "1/(2+t)": lambda t: 1.0 / (2.0 + t),
            "exp(3t)": lambda t: np.exp(3.0 * t)}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_error_estimate_bounds_the_true_error(n):
    """At every degree 1..24, on zonal integrands g(u.a) about an off-axis
    unit vector a, the estimate bounds the true error wherever that error
    is above roundoff (16 ulps of sum |w f|).  The truth is the Funk-Hecke
    reduction to one variable: the volume of S^{n-2} times the integral of
    g(t) in the weight (1-t^2)^{(n-3)/2}, by a 60-point Gauss-Jacobi rule."""
    a = np.array(OFF_AXIS[n]) / np.linalg.norm(OFF_AXIS[n])
    c, w, _ = _gauss_jacobi(60, (n - 3) / 2.0)
    eps = np.finfo(float).eps
    checked = 0
    for name, g in PROFILES.items():
        truth = omega(n - 1) * pairwise_sum(w * g(c))
        for degree in range(1, 25):
            rule = sphere_rule(n, degree)
            res = integrate_sphere(lambda p: g(p @ a), 1.0, rule)
            err = abs(res.value - truth)
            l1 = pairwise_sum(np.abs(g(rule.units @ a)) * rule.weights)
            if err > 16 * eps * l1:
                checked += 1
                assert err <= res.error_estimate, (name, degree, err,
                                                   res.error_estimate)
    assert checked >= 40


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lower_errors_read_the_lower_rules(n):
    """The estimates a rule reads for each lower rule from its own nodes
    (``lower_errors``, one per lower rule step down to the degree asked
    for) are, on the zonal integrands above, within a factor 2.5 either way
    of the estimate that lower rule reports on its own nodes, wherever that
    is above roundoff (measured: 0.45 to 1.43 at n = 3..5 from degrees 8,
    12, 16 and 24).  They leave the integral, its estimate and its floor as
    they are, and read each column as it would be read alone."""
    a = np.array(OFF_AXIS[n]) / np.linalg.norm(OFF_AXIS[n])
    eps = np.finfo(float).eps
    checked = 0
    for g in PROFILES.values():
        f = lambda p: g(p @ a)
        for degree in (8, 12, 16, 24):
            rule = sphere_rule(n, degree)
            res = integrate_sphere(f, 1.0, rule, lower=4)
            plain = integrate_sphere(f, 1.0, rule)
            assert (res.value, res.error_estimate, res.floor) == (
                plain.value, plain.error_estimate, plain.floor)
            assert plain.lower_errors == {}
            assert sorted(res.lower_errors) == list(range(4, degree - 1, 2))
            for lower, estimate in res.lower_errors.items():
                low = sphere_rule(n, lower)
                own = integrate_sphere(f, 1.0, low).error_estimate
                l1 = pairwise_sum(np.abs(f(low.units)) * low.weights)
                if own > 64 * eps * l1:
                    checked += 1
                    assert 0.4 <= estimate / own <= 2.5, (degree, lower)
    assert checked >= 40
    cos = lambda p: np.cos(p[:, 1])
    both = integrate_sphere(lambda p: np.stack([cos(p), f(p)], axis=-1),
                            1.0, rule, lower=6).lower_errors
    assert sorted(both) == list(range(6, 23, 2))
    for column, h in enumerate((cos, f)):
        alone = integrate_sphere(h, 1.0, rule, lower=6).lower_errors
        assert sorted(alone) == sorted(both)
        for lower, estimate in alone.items():
            assert both[lower].shape == (2,)
            assert both[lower][column] == estimate
    assert integrate_sphere(f, 1.0, sphere_rule(n, 5), lower=6) \
        .lower_errors == {}


def test_annulus_error_estimate_bounds_the_radial_error():
    """A radial profile the Legendre rule does not resolve at low radial
    degree: the annulus estimate bounds the true error at every radial
    degree where that error is above roundoff."""
    rule = sphere_rule(3, 4)
    f = lambda p: np.exp(3.0 * p[:, 0])
    exact = 4 * np.pi * (np.exp(4.5) - np.exp(1.5)) / 3.0
    checked = 0
    for radial_degree in range(2, 25):
        res = integrate_annulus(lambda r: f, 0.5, 1.5, rule, radial_degree,
                                ChartKind.POLAR_GEODESIC)
        err = abs(res.value - exact)
        if err > 1e-13 * exact:
            checked += 1
            assert err <= res.error_estimate, (radial_degree, err,
                                               res.error_estimate)
    assert checked >= 4


@pytest.mark.parametrize("radial_degree", [1, 8, 16, 60])
def test_annulus_lobatto_rule_is_exact(radial_degree):
    """The radial rule has ``(radial_degree + 2) // 2 + 1`` shells, r0 and
    r1 exactly first and last, and integrates every power of r through its
    degree, ``2k - 3`` for k shells, which is at least ``radial_degree``."""
    rule = sphere_rule(3, 2)
    r0, r1 = 0.3, 1.7          # 1.0 - 0.7 rounds above 0.3
    k = (radial_degree + 2) // 2 + 1
    powers = np.arange(2 * k - 2)
    radii = []

    def shell(r):
        radii.append(r)
        return lambda p: p[:, :1] ** powers

    res = integrate_annulus(shell, r0, r1, rule, radial_degree,
                            ChartKind.POLAR_GEODESIC)
    assert len(radii) == len(res.shells) == k
    assert radii[0] == r0 and radii[-1] == r1
    assert np.all(np.diff(radii) > 0)
    assert 2 * k - 3 >= radial_degree
    exact = omega(3) * (r1 ** (powers + 1) - r0 ** (powers + 1)) / (powers + 1)
    np.testing.assert_allclose(res.value, exact, rtol=1e-13, atol=0)


@pytest.mark.parametrize("chart_kind,r0,r1", [
    (ChartKind.CARTESIAN, 0.3, 1.7),
    (ChartKind.POLAR_GEODESIC, np.sinh(1.0), np.sinh(2.0))])
def test_annulus_end_shells_are_the_boundary_spheres(chart_kind, r0, r1):
    """``shells[0]`` and ``shells[-1]`` are :func:`integrate_sphere` of
    ``shell(r0)`` on S_r0 and of ``shell(r1)`` on S_r1: value, error
    estimate and node data, bit for bit."""
    rule = sphere_rule(3, 8)

    def shell(r):
        def f(p):
            x = p[:, 0] / r + p[:, -1] * r
            return np.stack([np.exp(x), r * np.cos(x)], axis=-1), np.abs(p)
        return f

    res = integrate_annulus(shell, r0, r1, rule, 8, chart_kind)
    for got, r in ((res.shells[0], r0), (res.shells[-1], r1)):
        want = integrate_sphere(shell(r), r, rule, chart_kind)
        for name in ("value", "error_estimate", "node_data"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.nodes_used == want.nodes_used == rule.node_count


def test_one_evaluation_per_node():
    """The integrand sees each node of the rule once and no other point,
    and ``nodes_used`` counts exactly those nodes; an annulus counts the
    nodes of each shell's rule, the given one on the end shells and, for a
    constant, the lowest the pick takes on the interior ones."""
    seen = []

    def f(points):
        seen.append(points.shape[0])
        return np.ones(points.shape[0])

    rule = sphere_rule(4, 16)
    res = integrate_sphere(f, 2.0, rule)
    assert sum(seen) == res.nodes_used == rule.node_count
    seen.clear()
    res = integrate_annulus(lambda r: f, 1.0, 2.0, rule, radial_degree=12)
    assert sum(seen) == res.nodes_used == sum(s.nodes_used for s in res.shells)
    assert [s.degree for s in res.shells] == [16] + [8] * 6 + [16]


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
        integrate_annulus(lambda r: lambda p: np.ones(p.shape[0]), 2.0, 1.0,
                          sphere_rule(3, 8))


def test_pairwise_sum_matches_math_fsum():
    import math
    rng = np.random.default_rng(5)
    x = rng.normal(size=1001) * 10.0**rng.integers(-8, 8, 1001)
    assert pairwise_sum(x) == pytest.approx(math.fsum(x), rel=1e-12)


def _pairwise_tree(rows):
    """The pairwise tree of :func:`pairwise_sum` on a list of rows: adjacent
    pairs added, an odd last row carried to the next level unchanged."""
    while len(rows) > 1:
        m = len(rows) // 2
        rows = [rows[2 * k] + rows[2 * k + 1] for k in range(m)] + rows[2 * m:]
    return rows[0]


@pytest.mark.parametrize("count", [1, 2, 3, 5, 1024, 1025, 4801, 13122])
@pytest.mark.parametrize("columns", [None, 12])
def test_pairwise_sum_reads_its_input_in_place(count, columns):
    """The sum follows its tree bit for bit, leaves the input as it was, and
    returns no row that shares memory with it (1 to 13122 rows, the nodes
    of an n=5 degree-16 sphere, 1-d and 12 columns)."""
    rng = np.random.default_rng(count)
    x = rng.normal(size=(count,) if columns is None else (count, columns))
    before = x.copy()
    got = pairwise_sum(x)
    assert np.array_equal(x, before)
    want = _pairwise_tree(list(x))
    if columns is None:
        assert isinstance(got, float) and got == want
    else:
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, x)
        got[:] = 0.0
        assert np.array_equal(x, before)


def test_pairwise_sum_does_not_copy_its_input():
    """On 13122 x 12 doubles the sum peaks at its first two tree levels,
    about the input's own size: copying the input first took 1.61 times
    it (1.93 MiB against 1.20 MiB)."""
    import tracemalloc

    x = np.random.default_rng(0).normal(size=(13122, 12))
    tracemalloc.start()
    try:
        pairwise_sum(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * x.nbytes


def test_thread_count_reads_the_environment(monkeypatch):
    monkeypatch.delenv("ASYMFLUX_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("ASYMFLUX_THREADS", "3")
    assert thread_count() == 3


def _with_threads(monkeypatch, threads, call, *args):
    """``call(*args)`` with ``ASYMFLUX_THREADS`` set to ``threads``."""
    monkeypatch.setenv("ASYMFLUX_THREADS", threads)
    return call(*args)


def test_thread_count_invariance(monkeypatch):
    """Bit-identical integrals and error estimates regardless of the worker
    count; each column of a column integrand has the value and the
    estimate of its own one-column integral, and an all-zero column an
    estimate of exactly 0."""
    rule = sphere_rule(4, 30)   # enough nodes for several chunks
    f = lambda p: np.sin(3 * p[:, 0]) * np.exp(p[:, 1]) + p[:, 2] ** 3
    res1, res4 = (_with_threads(monkeypatch, threads, integrate_sphere,
                                f, 1.0, rule) for threads in ("1", "4"))
    assert res1.value == res4.value  # exact equality, not approx
    assert res1.error_estimate == res4.error_estimate
    # column integrands: each column equals its own one-column integral
    g = lambda p: np.cos(p[:, 1])
    cols = lambda p: np.stack([f(p), g(p), np.zeros(p.shape[0])], axis=-1)
    res1, res4 = (_with_threads(monkeypatch, threads, integrate_sphere,
                                cols, 1.0, rule) for threads in ("1", "4"))
    assert np.array_equal(res1.value, res4.value)
    assert np.array_equal(res1.error_estimate, res4.error_estimate)
    for k, h in enumerate((f, g)):
        alone = integrate_sphere(h, 1.0, rule)
        assert res1.value[k] == alone.value
        assert res1.error_estimate[k] == alone.error_estimate
    assert res1.error_estimate[2] == 0.0


def test_node_data_come_back_unreduced(monkeypatch):
    """An integrand that returns ``(columns, node_data)`` has its columns
    integrated as alone, and its node data returned in node order, bit for
    bit regardless of the worker count, and never integrated."""
    rule = sphere_rule(4, 30)   # enough nodes for several chunks
    f = lambda p: np.stack([np.sin(3 * p[:, 0]), p[:, 2] ** 3], axis=-1)
    data = lambda p: np.stack([p[:, 0], np.abs(p[:, 1])], axis=-1)
    alone = integrate_sphere(f, 1.0, rule)
    assert alone.node_data is None
    for threads in ("1", "4"):
        res = _with_threads(monkeypatch, threads, integrate_sphere,
                            lambda p: (f(p), data(p)), 1.0, rule)
        assert np.array_equal(res.value, alone.value)
        assert np.array_equal(res.error_estimate, alone.error_estimate)
        assert np.array_equal(res.node_data, data(rule.units))


def test_non_finite_node_data_rejected():
    rule = sphere_rule(3, 6)

    def f(p):
        data = p[:, 0].copy()
        data[5] = np.inf
        return p[:, 1], data

    with pytest.raises(QuadratureError, match="node data not finite at node 5"):
        integrate_sphere(f, 1.0, rule)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_antipode_is_an_involution_onto_minus_the_node(n):
    """The antipode map mirrors every polar index and shifts the azimuth by
    half a turn: it is its own inverse, and the unit vectors of a node and
    its antipode cancel to roundoff (at most 6.1e-16 measured)."""
    for degree in range(4, 25):
        rule = sphere_rule(n, degree)
        antipode = rule.antipode
        assert np.array_equal(antipode[antipode], np.arange(rule.node_count))
        assert np.abs(rule.units[antipode] + rule.units).max() <= 1e-15


@pytest.mark.parametrize("n,chunk", [(3, 8192), (4, 4096), (5, 1024)])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_chunk_follows_jet_footprint(monkeypatch, n, chunk, threads):
    """A chunk holds the largest power of two of nodes whose n^4 metric
    second derivatives fit in 2^20 entries; every chunk but the last is
    full, and the values come back in node order."""
    count = 2 * chunk + 3     # more nodes than one chunk (no n=3 rule has)
    rule = _line_rule(n, count)
    seen = []

    def f(points):
        seen.append(points.shape[0])
        return points[:, 0]

    values = _with_threads(monkeypatch, threads, _evaluate, f, rule.units)[0]
    assert sorted(seen) == [3, chunk, chunk]
    assert np.array_equal(values, np.arange(count))


def _line_rule(n, count):
    """A rule whose node k sits at x_1 = k, for chunking tests."""
    units = np.zeros((count, n))
    units[:, 0] = np.arange(count)
    return SphereRule(n, 1, np.zeros((count, n - 1)), units, np.ones(count))


def test_chunks_land_in_node_order_under_thread_contention(monkeypatch):
    """More workers than cores and a short switch interval: every chunk's
    values and node data land in their own rows of the one output array."""
    count = 24 * 1024 + 5                     # 25 chunks at n=5
    points = _line_rule(5, count).units
    k = np.arange(count, dtype=float)

    def f(p):
        return p[:, 0], np.stack([2.0 * p[:, 0], -p[:, 0]], axis=-1)

    monkeypatch.setenv("ASYMFLUX_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            values, data = _evaluate(f, points)
            assert np.array_equal(values, k)
            assert np.array_equal(data, np.stack([2.0 * k, -k], axis=-1))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_node_data_held_once(monkeypatch, threads):
    """Each chunk's values and node data go into one preallocated array and
    die with the chunk: a pass peaks near one copy of them, not the two
    that concatenating the held chunk parts took."""
    import tracemalloc

    count = 16 * 1024                          # 16 chunks at n=5
    points = _line_rule(5, count).units
    columns = 64                               # 8 MiB of node data

    def f(p):
        return p[:, 0], np.repeat(p[:, :1], columns, axis=-1)

    monkeypatch.setenv("ASYMFLUX_THREADS", threads)
    tracemalloc.start()
    try:
        data = _evaluate(f, points)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.shape == (count, columns)
    assert peak < 1.25 * data.nbytes


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
