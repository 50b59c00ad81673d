"""Metric catalog: closed-form jets, deviations, expression metrics, domains."""

import numpy as np
import pytest

from asymflux.catalog import (FLAT_KINDS, HYPERBOLIC_KINDS, MetricSpec,
                              background_of, chart_radius, coordinate_volume,
                              decay_mode, geodesic_radius, jets, metric_jet)
from asymflux.errors import DomainError
from asymflux.geometry import (ConformalJet, SymTensorJet, WarpedJet,
                               curvature)
from oracles import polar_jets

RNG = np.random.default_rng(11)


def polar_points(n, count, rlo=0.5, rhi=3.0, rng=RNG):
    pts = np.empty((count, n))
    pts[:, 0] = rng.uniform(rlo, rhi, count)
    pts[:, 1:n - 1] = rng.uniform(0.4, np.pi - 0.4, (count, n - 2))
    pts[:, n - 1] = rng.uniform(0, 2 * np.pi, count)
    return pts


# ----------------------------------------------------------------- closed forms

def test_euclidean_jet():
    jet = metric_jet(MetricSpec("euclidean", 4), RNG.normal(size=(5, 4)))
    assert np.allclose(jet.g, np.eye(4))
    assert np.allclose(jet.dg, 0.0)
    assert np.allclose(jet.ddg, 0.0)


def test_schwarzschild_conformal_value():
    # n=3: g_11(10,0,0) = (1 + m/(2*10))^4 with m=1
    jet = metric_jet(MetricSpec("schwarzschild_conformal", 3, m=1.0),
                     np.array([10.0, 0.0, 0.0]))
    assert jet.g[0, 0] == pytest.approx(1.05**4, rel=1e-14)
    assert np.allclose(jet.g, jet.g[0, 0] * np.eye(3))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_schwarzschild_conformal_scalar_flat(n):
    spec = MetricSpec("schwarzschild_conformal", n, m=1.5)
    pts = RNG.normal(size=(10, n)) * 2.0
    pts[:, 0] += 8.0
    bun = curvature(metric_jet(spec, pts))
    assert np.max(np.abs(bun.scal)) < 1e-10


@pytest.mark.parametrize("n,m", [(3, 1.0), (4, 2.0)])
def test_kottler_scalar_curvature(n, m):
    spec = MetricSpec("kottler", n, m=m)
    pts = polar_points(n, 10, rlo=3.0, rhi=8.0)
    bun = curvature(metric_jet(spec, pts))
    assert np.allclose(bun.scal, -n * (n - 1), atol=1e-10)


def test_kottler_mass_zero_is_hyperbolic():
    pts = polar_points(3, 6, rlo=1.0, rhi=4.0)
    a = metric_jet(MetricSpec("kottler", 3, m=0.0), pts)
    b = metric_jet(MetricSpec("hyperbolic_area", 3), pts)
    assert np.allclose(a.g, b.g)
    assert np.allclose(a.dg, b.dg)
    assert np.allclose(a.ddg, b.ddg)


def test_translated_schwarzschild():
    c = (1.0, -2.0, 0.5)
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0, center=c)
    x = np.array([7.0, 1.0, 2.0])
    shifted = metric_jet(spec, x)
    centered = metric_jet(MetricSpec("schwarzschild_conformal", 3, m=1.0),
                          x - np.array(c))
    assert np.allclose(shifted.g, centered.g)
    assert np.allclose(shifted.dg, centered.dg)


@pytest.mark.parametrize("r", [2.0, 8.0, 1e3, 1e6])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_schwarzschild_jets_match_radial_derivatives(n, r):
    """``g = phi(rho) delta`` with ``phi = (1 + m/(2 rho^(n-2)))^(4/(n-2))``
    and ``rho = |x - c|``: every diagonal entry of ``g`` and of ``g - e``
    has gradient ``phi' xhat`` and Hessian
    ``phi'' xhat xhat + (phi'/rho)(I - xhat xhat)``."""
    m, p = 1.0, 4.0 / (n - 2)
    center = np.array([0.7, -0.4, 0.25, 0.1, -0.3][:n])
    spec = MetricSpec("schwarzschild_conformal", n, m=m, center=tuple(center))
    directions = RNG.normal(size=(8, n))
    xhat = directions / np.linalg.norm(directions, axis=-1, keepdims=True)
    g, _, eps = jets(spec, center + r * xhat)
    u = 1.0 + m / (2.0 * r ** (n - 2))
    du = -(n - 2) * m / (2.0 * r ** (n - 1))
    ddu = (n - 2) * (n - 1) * m / (2.0 * r ** n)
    dphi = p * u ** (p - 1) * du
    ddphi = p * (p - 1) * u ** (p - 2) * du ** 2 + p * u ** (p - 1) * ddu
    outer = xhat[:, :, None] * xhat[:, None, :]
    grad = dphi * xhat
    hess = ddphi * outer + (dphi / r) * (np.eye(n) - outer)

    def diagonal(entry):    # entry[..., None, None] on the (i, j) diagonal
        return entry[..., None, None] * np.eye(n)

    for got, want in ((g.g, diagonal(np.full(8, u ** p))),
                      (g.dg, diagonal(grad)), (g.ddg, diagonal(hess)),
                      (eps.d, diagonal(grad))):
        scale = np.max(np.abs(want).reshape(8, -1), axis=1)
        err = np.max(np.abs(got - want).reshape(8, -1), axis=1)
        assert np.all(err <= 1e-14 * scale)


# ------------------------------------------------------------------- domains

def test_schwarzschild_excised_region():
    spec = MetricSpec("schwarzschild_conformal", 3, m=2.0)
    with pytest.raises(DomainError):
        metric_jet(spec, np.array([0.0, 0.0, 0.0]))


def test_kottler_horizon_rejected():
    spec = MetricSpec("kottler", 3, m=1.0)
    with pytest.raises(DomainError):
        metric_jet(spec, np.array([0.5, 1.0, 1.0]))  # f(rho) <= 0 inside


def test_polar_radial_domain():
    with pytest.raises(DomainError):
        metric_jet(MetricSpec("hyperbolic_polar", 3),
                   np.array([-1.0, 1.0, 1.0]))


# --------------------------------------------------------------- chart facts

def test_radial_scales_of_the_charts():
    rho = np.array([0.5, 2.0, 40.0])
    s = geodesic_radius("polar_area", rho)
    assert np.allclose(s, np.log(rho + np.sqrt(1.0 + rho**2)), rtol=1e-15)
    assert np.allclose(chart_radius("polar_area", s), rho, rtol=1e-15)
    for chart in ("cartesian", "polar_geodesic"):
        assert geodesic_radius(chart, rho) is rho
        assert chart_radius(chart, rho) is rho
    assert [decay_mode(c) for c in ("cartesian", "polar_geodesic",
                                    "polar_area")] == ["power", "exp", "exp"]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_coordinate_volume(n):
    pts = polar_points(n, 5)
    # det sigma = prod_j sin^{2(n-2-j)} theta_{j+1}
    det = np.prod([np.sin(pts[:, 1 + j]) ** (2 * (n - 2 - j))
                   for j in range(n - 2)], axis=0)
    for chart in ("polar_geodesic", "polar_area"):
        assert np.allclose(coordinate_volume(pts, chart), 1 / np.sqrt(det),
                           rtol=1e-14)
    x = RNG.normal(size=(5, n))
    assert np.allclose(coordinate_volume(x, "cartesian"),
                       np.linalg.norm(x, axis=-1) ** (n - 1), rtol=1e-15)
    assert coordinate_volume(x, "cartesian", 2.0) == 2.0 ** (n - 1)


# ------------------------------------------------------------- deviation jets

@pytest.mark.parametrize("kind,n,pts_fn", [
    ("schwarzschild_conformal", 3, lambda: RNG.normal(size=(6, 3)) * 3 + 9),
    ("kottler", 3, lambda: polar_points(3, 6, 3.0, 8.0)),
    ("kottler", 4, lambda: polar_points(4, 6, 3.0, 8.0)),
    ("expression", 3, lambda: RNG.normal(size=(6, 3)) * 3 + 9),
])
def test_deviation_matches_subtraction(kind, n, pts_fn):
    if kind == "expression":
        spec = MetricSpec(kind, n, components={
            (0, 0): "1 + 2/r", (0, 1): "x1*x2/r^4", (2, 2): "exp(-r)"})
    else:
        spec = MetricSpec(kind, n, m=1.0)
    pts = pts_fn()
    g_jet, b_jet, eps = jets(spec, pts)
    g = metric_jet(spec, pts)
    b = metric_jet(background_of(spec), pts)
    assert np.allclose(eps.value, g.g - b.g, atol=1e-12)
    assert np.allclose(eps.d, g.dg - b.dg, atol=1e-12)
    # the fused call gives the metric jet and the background's value and
    # first derivatives bit for bit
    for key in ("g", "dg", "ddg"):
        assert np.array_equal(getattr(g_jet, key), getattr(g, key))
    assert np.array_equal(b_jet.value, b.g)
    assert np.array_equal(b_jet.d, b.dg)


# ------------------------------------------------ separable polar products

_POLAR_SPECS = [MetricSpec(kind, n, m=1.0 if kind == "kottler" else 0.0)
                for kind in ("hyperbolic_polar", "hyperbolic_area", "kottler")
                for n in (3, 4, 5)]


@pytest.mark.parametrize("spec", _POLAR_SPECS,
                         ids=lambda spec: f"{spec.kind}-{spec.n}")
def test_polar_jets_equal_the_full_width_products(spec):
    """Built factor by factor with one sparse step each, the polar jets
    equal the full-width products of full-width seeds, including huge
    ``sinh^2 r`` entries."""
    pts = polar_points(spec.n, 40, 1.5, 30.0, np.random.default_rng(spec.n))
    computed, reference = jets(spec, pts), polar_jets(spec, pts)
    for key in ("g", "dg", "ddg"):
        assert np.array_equal(getattr(computed[0], key),
                              getattr(reference[0], key))
    for ours, ref in zip(computed[1:], reference[1:]):
        assert np.array_equal(ours.value, ref.value)
        assert np.array_equal(ours.d, ref.d)


def test_polar_jets_take_no_full_width_product(monkeypatch):
    """Polar ``jets`` and ``basis_jets`` multiply no two jets of the chart's
    width: every factor enters by ``mul_factor``."""
    from asymflux.fields import basis_jets
    from asymflux.hyperdual import HyperDual

    widths = []
    product = HyperDual.__mul__

    def counting(self, other):
        widths.append(max(self.nvars, getattr(other, "nvars", 0)))
        return product(self, other)

    monkeypatch.setattr(HyperDual, "__mul__", counting)
    monkeypatch.setattr(HyperDual, "__rmul__", counting)
    for spec in _POLAR_SPECS:
        pts = polar_points(spec.n, 8, 1.5, 6.0, np.random.default_rng(0))
        jets(spec, pts)
        basis_jets(pts, spec.chart_kind, range(spec.n + 1),
                   range(spec.n + 1))
        assert spec.n not in widths, spec
    assert widths and max(widths) == 1    # the one-variable factors


_VARIABLE_EXPONENT = "1 + 2^(-r/(1 + x1^2))"


_EVERY_KIND = [
    pytest.param(MetricSpec("euclidean", 3),
                 lambda: RNG.normal(size=(6, 3)) * 3 + 9, id="euclidean"),
    pytest.param(MetricSpec("schwarzschild_conformal", 4, m=1.3,
                            center=(0.5, -0.2, 0.1, 0.3)),
                 lambda: RNG.normal(size=(6, 4)) * 3 + 9, id="schwarzschild"),
    pytest.param(MetricSpec("hyperbolic_polar", 3), lambda: polar_points(3, 6),
                 id="hyperbolic_polar"),
    pytest.param(MetricSpec("hyperbolic_area", 4), lambda: polar_points(4, 6),
                 id="hyperbolic_area"),
    pytest.param(MetricSpec("kottler", 3, m=1.0),
                 lambda: polar_points(3, 6, 3.0, 8.0), id="kottler"),
    # Kottler (m = 0.5) plus an off-diagonal perturbation, b + h in the
    # polar area chart
    pytest.param(MetricSpec("expression", 3, chart="polar_area", components={
                     (0, 0): "1/(1 + r^2 - 1/r)", (1, 1): "r^2",
                     (2, 2): "r^2*sin(theta1)^2",
                     (0, 2): "a*exp(-r)*sin(phi)"}, params={"a": 0.3}),
                 lambda: polar_points(3, 6, 3.0, 8.0), id="perturbation"),
    pytest.param(MetricSpec("expression", 3, components={
                     (0, 0): _VARIABLE_EXPONENT, (0, 1): "x1*x2/r^4",
                     (2, 2): "(1 + 1/r)^1.5"}),
                 lambda: RNG.normal(size=(2, 6, 3)) * 3 + 9,
                 id="expression-variable-exponent"),
    pytest.param(MetricSpec("expression", 3, chart="polar_area", components={
                     (0, 0): "1/(1 + r^2) + r^(-3)", (1, 1): "r^2",
                     (2, 2): "r^2*sin(theta1)^2"}),
                 lambda: polar_points(3, 6, 3.0, 8.0), id="expression-polar"),
]


@pytest.mark.parametrize("spec,pts_fn", _EVERY_KIND)
def test_diagnostic_node_data_equal_jets(spec, pts_fn):
    """The node data of the kernel-basis integrand are the values of
    ``jets`` at its nodes, for every kind (a variable exponent too): the
    largest frame-rescaled deviation entry, and in the cartesian chart the
    upper triangle of the deviation."""
    from asymflux.charges import sphere_integrand

    pts = pts_fn().reshape(-1, spec.n)
    n = spec.n
    _, data = sphere_integrand(spec, range(n + 1), (), 9.0)(pts)
    _, b, eps = jets(spec, pts)
    bdiag = np.sqrt(np.einsum("...ii->...i", b.value))
    frame = eps.value / (bdiag[..., :, None] * bdiag[..., None, :])
    expected = [np.abs(frame).max(axis=(-2, -1))]
    if spec.is_flat_type:
        rows, cols = np.triu_indices(n)
        expected += list(eps.value[:, rows, cols].T)
    assert np.array_equal(data, np.stack(expected, axis=-1))


@pytest.mark.parametrize("spec,pts_fn", _EVERY_KIND)
def test_backgrounds_are_diagonal_first_order_jets(spec, pts_fn):
    """The background from :func:`jets` is a first-order jet, value and
    first derivatives with no second ones, and exactly diagonal, which
    the closed-form charge integrand assumes; its diagonal is that of the
    background spec's metric jet, bit for bit."""
    pts = pts_fn()
    b = jets(spec, pts)[1]
    assert isinstance(b, SymTensorJet)
    n = spec.n
    off = ~np.eye(n, dtype=bool)
    assert not np.any(b.value[..., off]) and not np.any(b.d[..., off])
    reference = metric_jet(background_of(spec), pts)
    assert np.array_equal(b.value, reference.g)
    assert np.array_equal(b.d, reference.dg)


@pytest.mark.parametrize("spec,pts_fn", _EVERY_KIND)
def test_metric_jet_equals_jets(spec, pts_fn):
    """The metric-only evaluation gives the metric jet of :func:`jets` bit
    for bit, for every kind."""
    pts = pts_fn()
    full = jets(spec, pts)[0]
    alone = metric_jet(spec, pts)
    for name in ("g", "dg", "ddg"):
        assert np.array_equal(getattr(alone, name), getattr(full, name))


@pytest.mark.parametrize("spec,pts_fn", [
    param for param in _EVERY_KIND if param.id != "euclidean"])
def test_metric_jet_is_one_block(spec, pts_fn):
    """A computed dense 2-jet is one allocation: ``g``, ``dg`` and ``ddg``
    are C-contiguous views of one owning base, so :func:`curvature`
    reshapes ``ddg`` as a view, not a copy, and no later call returns the
    same memory.  A conformal jet (the flat catalog kinds) is not dense: it
    holds the 2-jet of ``2 phi`` alone, a value, gradient and Hessian per
    node, and builds no ``g``, ``dg`` or ``ddg`` unless one is read; the
    Euclidean one is read-only broadcast zeros.  Nor is a warped jet (the
    polar catalog kinds): it holds the first-order hyper-dual of each
    diagonal entry, the radial profile and the function that evaluates
    the diagonal again at second order, and builds no dense array unless
    one is read; ``ddg``, read, is a Hessian block of its own."""
    pts = pts_fn()
    batch, n = pts.shape[:-1], spec.n
    first, second = jets(spec, pts)[0], metric_jet(spec, pts)
    if spec.kind in FLAT_KINDS:
        for jet in (first, second):
            assert isinstance(jet, ConformalJet)
            assert set(vars(jet)) == {"log_factor"}
            two_phi = jet.log_factor
            assert [part.shape for part in (two_phi.val, two_phi.grad,
                                            two_phi.hess)] \
                == [batch, batch + (n,), batch + (n, n)]
        assert not np.shares_memory(first.log_factor.hess,
                                    second.log_factor.hess)
        return
    if spec.kind in HYPERBOLIC_KINDS:
        for jet in (first, second):
            assert isinstance(jet, WarpedJet)
            assert set(vars(jet)) == {"diag", "rho", "h", "dh",
                                      "second_order"}
            assert len(jet.diag) == n
            for e in jet.diag:
                assert [np.shape(part) for part in (e.val, e.grad)] \
                    == [batch, batch + (n,)]
                assert e.hess is None
            assert np.shape(jet.rho) == batch
            assert jet.ddg.shape == batch + (n,) * 4
        for a, b in zip(first.diag[1:], second.diag[1:]):
            assert not np.shares_memory(a.val, b.val)
            assert not np.shares_memory(a.grad, b.grad)
        return
    for jet in (first, second):
        base = jet.g.base
        assert base is not None and base.flags.owndata
        for part in (jet.g, jet.dg, jet.ddg):
            assert part.base is base and part.flags.c_contiguous
        assert np.shares_memory(jet.ddg.reshape(*batch, n * n, n * n),
                                jet.ddg)
    assert not np.shares_memory(first.g.base, second.g.base)


def test_variable_exponent_is_not_taken_for_a_constant():
    """Whether ``a^b`` takes the constant-exponent path is read from the
    expression: a variable exponent must not collapse to its value at the
    first node."""
    from asymflux.expr import eval_jet, parse

    ast = parse(_VARIABLE_EXPONENT, 3)
    pts = np.array([[9.0, 1.0, 2.0], [0.5, 7.0, -3.0]])
    values = eval_jet(ast, pts).val
    r = np.linalg.norm(pts, axis=-1)
    assert np.allclose(values, 1 + 2.0 ** (-r / (1 + pts[:, 0] ** 2)),
                       rtol=1e-14)


def test_deviation_stable_at_huge_radius():
    """The closed-form deviation keeps relative accuracy where naive
    subtraction would cancel to noise."""
    spec = MetricSpec("kottler", 3, m=1.0)
    pts = np.array([[1e10, 1.2, 0.7]])
    eps = jets(spec, pts)[2]
    rho = pts[0, 0]
    expected = 2.0 / rho / ((1 + rho**2 - 2 / rho) * (1 + rho**2))
    assert eps.value[0, 0, 0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_schwarzschild_deviation_is_the_lifted_expm1(n):
    """Every diagonal entry of the Schwarzschild deviation ``e^{2 phi} - 1``
    is the value and gradient of ``lift(t, expm1(log_factor))`` bit for bit,
    although the deviation builds no Hessian; off the diagonal it is
    zero."""
    from asymflux import hyperdual as hd
    from asymflux.catalog import _schwarzschild_log_factor

    spec = MetricSpec("schwarzschild_conformal", n, m=1.3,
                      center=(0.6, -0.5, 0.4, 0.0, 0.0)[:n])
    rng = np.random.default_rng(n)
    pts = rng.normal(size=(200, n)) * np.logspace(0.5, 6, 200)[:, None]
    t, log_factor = _schwarzschild_log_factor(spec, pts)
    lifted = hd.lift(t, hd.expm1(log_factor))
    eps = jets(spec, pts)[2]
    for i in range(n):
        assert np.array_equal(eps.value[:, i, i], lifted.val)
        assert np.array_equal(eps.d[:, :, i, i], lifted.grad)
    off = ~np.eye(n, dtype=bool)
    assert not eps.value[:, off].any() and not eps.d[:, :, off].any()


def test_decay_scaling_property():
    # frame-rescaled schwarzschild deviation scales like 2m/r in n=3
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    for r in (1e2, 1e4, 1e6):
        eps = jets(spec, np.array([r, 0.0, 0.0]))[2]
        # leading order 2m/r with an O(1/r^2) correction
        assert abs(eps.value[0, 0] * r / 2.0 - 1.0) < 4.0 / r


# --------------------------------------------------------- expression metrics

def test_expression_metric_jet():
    comps = {(i, j): "1 + 1/r^2" if i == j else "0"
             for i in range(3) for j in range(3) if i <= j}
    spec = MetricSpec("expression", 3, components=comps)
    x = np.array([2.0, 1.0, -1.0])
    jet = metric_jet(spec, x)
    r2 = np.dot(x, x)
    assert np.allclose(np.diag(jet.g), 1 + 1 / r2)
    eps = jets(spec, x)[2]
    assert np.allclose(eps.value, jet.g - np.eye(3), atol=1e-14)


def test_equal_components_evaluated_once(monkeypatch):
    """The four diagonal components of a translated conformal Schwarzschild
    expression metric are one text, evaluated once per jets call."""
    from asymflux import expr

    calls = {"eval": 0}
    original = expr.eval_jet

    def counting(*args, **kwargs):
        calls["eval"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(expr, "eval_jet", counting)
    factor = "(1 + mm/(2*((x1-c1)^2 + (x2-c2)^2 + (x3-c3)^2 + (x4-c4)^2)))^2"
    spec = MetricSpec("expression", 4,
                      components={(i, i): factor for i in range(4)},
                      params={"mm": 1.3, "c1": 0.5, "c2": -0.6, "c3": 0.45,
                              "c4": 0.7})
    x = 8.0 * np.random.default_rng(4).normal(size=(50, 4))
    g = jets(spec, x)[0].g
    assert calls["eval"] == 1
    assert np.array_equal(g, g[..., :1, :1] * np.eye(4))



@pytest.mark.parametrize("chart", ["cartesian", "polar_area",
                                   "polar_geodesic"])
def test_expression_jets_write_one_second_order_block(chart, monkeypatch):
    """An expression metric's :func:`jets` writes one 2-jet, the metric's
    own, then in a polar chart the background as a first-order jet: no
    background 2-jet, whose ``n^4`` Hessian block no charge reads."""
    from asymflux import catalog

    blocks = []
    original = catalog._zeros

    def recording(*shapes):
        blocks.append(shapes)
        return original(*shapes)

    monkeypatch.setattr(catalog, "_zeros", recording)
    spec = MetricSpec("expression", 4, chart=chart,
                      components={(i, i): "1 + r^(-3)" for i in range(4)})
    jets(spec, RNG.normal(size=(6, 4)) * 3 + 9 if chart == "cartesian"
         else polar_points(4, 6, 3.0, 8.0))
    orders = [len(shapes) - 1 for shapes in blocks]
    assert orders == ([2] if chart == "cartesian" else [2, 1])
    assert blocks[0][-1] == (6, 4, 4, 4, 4)

def test_perturbation_metric():
    """A perturbation ``delta + h`` of the flat metric is an expression
    metric."""
    spec = MetricSpec("expression", 3, components={
        (0, 0): "1 + 2/r", (1, 1): "1", (2, 2): "1"})
    x = np.array([4.0, 0.0, 3.0])
    jet = metric_jet(spec, x)
    assert jet.g[0, 0] == pytest.approx(1.0 + 2.0 / 5.0)
    assert jet.g[1, 1] == pytest.approx(1.0)


def test_perturbation_with_params():
    spec = MetricSpec("expression", 3, components={
        (0, 0): "1 + aa/r", (1, 1): "1", (2, 2): "1"}, params={"aa": 3.0})
    jet = metric_jet(spec, np.array([2.0, 0.0, 0.0]))
    assert jet.g[0, 0] == pytest.approx(2.5)


@pytest.mark.parametrize("kind,kwargs,unread", [
    ("euclidean", {"m": 2.0}, "m"),
    ("hyperbolic_area", {"m": 1.0}, "m"),
    ("kottler", {"m": 1.0, "center": (5.0, 5.0, 5.0)}, "center"),
    ("kottler", {"m": 1.0, "components": {(0, 0): "garbage("},
                 "params": {"q": 1.0}, "chart": "cartesian"},
     "components, params, chart"),
    ("schwarzschild_conformal", {"m": 1.0, "chart": "cartesian"}, "chart"),
    ("expression", {"m": 1.0, "components": {(0, 0): "1"}}, "m"),
], ids=["m-euclidean", "m-hyperbolic-area", "center-kottler",
        "components-params-chart-kottler", "chart-schwarzschild",
        "m-expression"])
def test_spec_rejects_values_its_kind_never_reads(kind, kwargs, unread):
    with pytest.raises(ValueError, match=f"does not read {unread}$"):
        MetricSpec(kind, 3, **kwargs)


def test_spec_validation():
    with pytest.raises(ValueError):
        MetricSpec("no_such_metric", 3)
    with pytest.raises(ValueError):
        MetricSpec("euclidean", 2)
