"""Metric catalog: closed-form jets, deviations, expression metrics, domains."""

import numpy as np
import pytest

from asymflux.catalog import (MetricSpec, background_of, chart_radius,
                              coordinate_volume, decay_mode, geodesic_radius,
                              jet_values, jets, metric_jet)
from asymflux.errors import DomainError
from asymflux.geometry import curvature

RNG = np.random.default_rng(11)


def polar_points(n, count, rlo=0.5, rhi=3.0):
    pts = np.empty((count, n))
    pts[:, 0] = RNG.uniform(rlo, rhi, count)
    pts[:, 1:n - 1] = RNG.uniform(0.4, np.pi - 0.4, (count, n - 2))
    pts[:, n - 1] = RNG.uniform(0, 2 * np.pi, count)
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
    # the fused call gives the metric and background jets bit for bit
    for fused, alone in ((g_jet, g), (b_jet, b)):
        for key in ("g", "dg", "ddg"):
            assert np.array_equal(getattr(fused, key), getattr(alone, key))


_VARIABLE_EXPONENT = "1 + 2^(-r/(1 + x1^2))"


@pytest.mark.parametrize("spec,pts_fn", [
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
    pytest.param(MetricSpec("perturbation", 3,
                            base=MetricSpec("kottler", 3, m=0.5),
                            components={(0, 2): "a*exp(-r)*sin(phi)"},
                            params={"a": 0.3}),
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
])
def test_jet_values_equal_jets(spec, pts_fn):
    """The value-only evaluation gives g, b and g - b bit for bit, with
    derivative axes of length 0, for every kind (a variable exponent too)."""
    pts = pts_fn()
    shape, n = pts.shape[:-1], spec.n
    for full, values in zip(jets(spec, pts), jet_values(spec, pts)):
        if hasattr(full, "g"):
            assert np.array_equal(values.g, full.g)
            assert values.dg.shape == shape + (0, n, n)
            assert values.ddg.shape == shape + (0, 0, n, n)
        else:
            assert np.array_equal(values.value, full.value)
            assert values.d.shape == shape + (0, n, n)


def test_variable_exponent_is_not_taken_for_a_constant():
    """Whether ``a^b`` takes the constant-exponent path is read from the
    expression, not from the derivative width: at width 0 a variable
    exponent must not collapse to its value at the first node."""
    from asymflux.expr import eval_jet, parse

    ast = parse(_VARIABLE_EXPONENT, 3)
    pts = np.array([[9.0, 1.0, 2.0], [0.5, 7.0, -3.0]])
    values = eval_jet(ast, pts, derivatives=False).value
    r = np.linalg.norm(pts, axis=-1)
    assert np.allclose(values, 1 + 2.0 ** (-r / (1 + pts[:, 0] ** 2)),
                       rtol=1e-14)
    assert np.array_equal(values, eval_jet(ast, pts).value)


def test_deviation_stable_at_huge_radius():
    """The closed-form deviation keeps relative accuracy where naive
    subtraction would cancel to noise."""
    spec = MetricSpec("kottler", 3, m=1.0)
    pts = np.array([[1e10, 1.2, 0.7]])
    eps = jets(spec, pts)[2]
    rho = pts[0, 0]
    expected = 2.0 / rho / ((1 + rho**2 - 2 / rho) * (1 + rho**2))
    assert eps.value[0, 0, 0] == pytest.approx(expected, rel=1e-12)


def test_decay_scaling_property():
    # frame-rescaled schwarzschild deviation scales like 2m/r in n=3
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    for r in (1e2, 1e4, 1e6):
        eps = jets(spec, np.array([r, 0.0, 0.0]))[2]
        # leading order 2m/r with an O(1/r^2) correction
        assert abs(eps.value[0, 0] * r / 2.0 - 1.0) < 4.0 / r


# ------------------------------------------- perturbation/expression metrics

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
    for evaluate in (jets, jet_values):
        calls["eval"] = 0
        g = evaluate(spec, x)[0].g
        assert calls["eval"] == 1
        assert np.array_equal(g, g[..., :1, :1] * np.eye(4))


def test_perturbation_metric():
    base = MetricSpec("euclidean", 3)
    spec = MetricSpec("perturbation", 3, base=base,
                      components={(0, 0): "2/r"})
    x = np.array([4.0, 0.0, 3.0])
    jet = metric_jet(spec, x)
    assert jet.g[0, 0] == pytest.approx(1.0 + 2.0 / 5.0)
    assert jet.g[1, 1] == pytest.approx(1.0)


def test_perturbation_with_params():
    spec = MetricSpec("perturbation", 3, base=MetricSpec("euclidean", 3),
                      components={(0, 0): "aa/r"}, params={"aa": 3.0})
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
    ("perturbation", {"base": MetricSpec("euclidean", 3),
                      "components": {(0, 0): "1/r"}, "chart": "cartesian"},
     "chart"),
], ids=["m-euclidean", "m-hyperbolic-area", "center-kottler",
        "components-params-chart-kottler", "chart-schwarzschild",
        "m-expression", "chart-perturbation"])
def test_spec_rejects_values_its_kind_never_reads(kind, kwargs, unread):
    with pytest.raises(ValueError, match=f"does not read {unread}$"):
        MetricSpec(kind, 3, **kwargs)


def test_spec_validation():
    with pytest.raises(ValueError):
        MetricSpec("no_such_metric", 3)
    with pytest.raises(ValueError):
        MetricSpec("euclidean", 2)
    with pytest.raises(ValueError):
        MetricSpec("perturbation", 3)  # missing base
