"""Kernel functions and conformal Killing fields: pairing and jet checks."""

import numpy as np
import pytest

from asymflux.catalog import MetricSpec, jets, metric_jet
from asymflux.expr import eval_jet, parse
from asymflux.fields import basis_jets, killing_basis
from asymflux.geometry import (ChartKind, curvature, divergence_vector,
                               killing_operator, tensor_norm)
from asymflux.hyperdual import HyperDual
from oracles import dscal_adjoint, polar_basis_jets

RNG = np.random.default_rng(23)

BACKGROUND = {ChartKind.CARTESIAN: "euclidean",
              ChartKind.POLAR_GEODESIC: "hyperbolic_polar",
              ChartKind.POLAR_AREA: "hyperbolic_area"}


def background(pts, chart):
    """The chart's background at ``pts``, the ``b`` that the fields of
    basis_jets read."""
    spec = MetricSpec(BACKGROUND[ChartKind(chart)], pts.shape[-1])
    return jets(spec, pts)[1]


def polar_points(n, count, rng=RNG):
    pts = np.empty((count, n))
    pts[:, 0] = rng.uniform(0.5, 2.0, count)
    pts[:, 1:n - 1] = rng.uniform(0.4, np.pi - 0.4, (count, n - 2))
    pts[:, n - 1] = rng.uniform(0, 2 * np.pi, count)
    return pts


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("chart", [ChartKind.CARTESIAN,
                                   ChartKind.POLAR_GEODESIC,
                                   ChartKind.POLAR_AREA])
def test_hyperbolic_pairing(n, chart):
    """delta^b X^(i) = c V^(i), the index-paired divergence identity: c = -n
    for the dilation and the hyperbolic gradients, 2n for the inverted
    translations."""
    spec = MetricSpec(BACKGROUND[chart], n)
    if chart == ChartKind.CARTESIAN:
        pts = RNG.normal(size=(30, n)) * 3.0
        cs = [-n] + [2 * n] * n
    else:
        pts = polar_points(n, 30)
        cs = [-n] * (n + 1)
    if chart == ChartKind.POLAR_AREA:
        pts[:, 0] = np.sinh(pts[:, 0])
    jet, b, _ = jets(spec, pts)
    bun = curvature(jet)
    for X, c in zip(killing_basis(n, chart), cs, strict=True):
        assert X.c == c
        div = divergence_vector(
            basis_jets(pts, chart, [], [X.index], b=b)[1][0], bun)
        vals = basis_jets(pts, chart, [X.index], [])[0][0].val
        assert np.max(np.abs(div - c * vals)) < 1e-10
        # the analytic divergence jet agrees with the computed divergence
        assert np.allclose(X.divergence_jet(pts).val, div, atol=1e-10)


@pytest.mark.parametrize("n", [3, 4])
def test_hyperbolic_killing_fields_are_conformal(n):
    spec = MetricSpec("hyperbolic_polar", n)
    pts = polar_points(n, 20)
    jet, b, _ = jets(spec, pts)
    bun = curvature(jet)
    for X in basis_jets(pts, ChartKind.POLAR_GEODESIC, [], range(n + 1),
                        b=b)[1]:
        _, tf = killing_operator(jet, X, bun)
        assert np.max(tensor_norm(bun.ginv, tf)) < 1e-10


@pytest.mark.parametrize("n", [3, 4])
def test_kernel_functions_annihilated(n):
    """(D Scal)*_b V = 0 for every kernel basis element, flat and hyperbolic."""
    flat = MetricSpec("euclidean", n)
    x = RNG.normal(size=(20, n)) * 3.0
    fjet = metric_jet(flat, x)
    fbun = curvature(fjet)
    for V in basis_jets(x, ChartKind.CARTESIAN, range(n + 1), [])[0]:
        assert np.max(np.abs(dscal_adjoint(fjet, V, fbun))) < 1e-12

    hyp = MetricSpec("hyperbolic_polar", n)
    pts = polar_points(n, 20)
    hjet = metric_jet(hyp, pts)
    hbun = curvature(hjet)
    for V in basis_jets(pts, ChartKind.POLAR_GEODESIC, range(n + 1), [])[0]:
        assert np.max(np.abs(dscal_adjoint(hjet, V, hbun))) < 1e-10


def test_flat_field_jets():
    x = RNG.normal(size=(10, 3)) * 2.0
    vj, X1 = basis_jets(x, "cartesian", [], [0, 2])[1]
    assert np.allclose(vj.comp, x)
    assert np.allclose(vj.d, np.eye(3))
    comp = X1.comp
    r2 = np.einsum("ij,ij->i", x, x)
    expected = r2[:, None] * np.eye(3)[1] - 2 * x[:, 1:2] * x
    assert np.allclose(comp, expected)


def _field_jet(p, chart, index):
    return basis_jets(p, chart, [], [index], b=background(p, chart))[1][0]


def test_vector_jet_derivative_fd():
    x0 = np.array([1.0, -2.0, 0.5])
    d = _field_jet(x0, "cartesian", 1).d
    h = 1e-6
    for j in range(3):
        e = np.zeros(3); e[j] = h
        fd = (_field_jet(x0 + e, "cartesian", 1).comp
              - _field_jet(x0 - e, "cartesian", 1).comp) / (2 * h)
        assert np.allclose(d[j], fd, atol=1e-8)


def test_hyperbolic_vector_jet_derivative_fd():
    pts = np.array([1.3, 0.9, 2.1])
    chart = ChartKind.POLAR_GEODESIC
    d = _field_jet(pts, chart, 2).d
    h = 1e-6
    for j in range(3):
        e = np.zeros(3); e[j] = h
        fd = (_field_jet(pts + e, chart, 2).comp
              - _field_jet(pts - e, chart, 2).comp) / (2 * h)
        assert np.allclose(d[j], fd, atol=1e-7)


@pytest.mark.parametrize("chart", [ChartKind.POLAR_GEODESIC,
                                   ChartKind.POLAR_AREA])
def test_polar_fields_need_the_background(chart):
    """A polar field reads ``b^{-1}`` from the background that ``jets``
    builds: asked for without ``b`` it is a ValueError that names ``b``.
    The kernel functions and the cartesian fields do not read it."""
    pts = polar_points(3, 4)
    with pytest.raises(ValueError, match="background b"):
        basis_jets(pts, chart, [0], [0])
    (V,), vectors = basis_jets(pts, chart, [1], [])
    assert vectors == [] and V.val.shape == (4,)
    x = RNG.normal(size=(4, 3))
    (X,) = basis_jets(x, ChartKind.CARTESIAN, [], [0])[1]
    assert np.array_equal(X.comp, x)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("chart", list(ChartKind))
def test_basis_jets_match_single_elements(n, chart):
    """One basis_jets call gives every element the jet of a single-index
    call bit for bit, for the full basis and for a mixed subset whose
    fields pair with kernels not asked for."""
    pts = RNG.normal(size=(25, n)) * 3.0 if chart == ChartKind.CARTESIAN \
        else polar_points(n, 25)
    every = range(n + 1)
    b = background(pts, chart)
    for ks, xs in ((every, every), (every[1::2][::-1], every[::2])):
        scalars, vectors = basis_jets(pts, chart, ks, xs, b=b)
        assert (len(scalars), len(vectors)) == (len(ks), len(xs))
        for i, jet in zip(ks, scalars):
            (alone,), _ = basis_jets(pts, chart, [i], [])
            for key in ("val", "grad", "hess"):
                assert np.array_equal(getattr(jet, key), getattr(alone, key))
        for i, jet in zip(xs, vectors):
            alone = _field_jet(pts, chart, i)
            assert np.array_equal(jet.comp, alone.comp)
            assert np.array_equal(jet.d, alone.d)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("chart", list(ChartKind))
def test_first_order_basis_jets_equal_second_order(n, chart):
    """At order 1 every kernel jet is first-order and every field jet its
    components alone, with the values, gradients and components of order
    2 bit for bit, for the full basis and for a mixed subset."""
    pts = RNG.normal(size=(25, n)) * 3.0 if chart == ChartKind.CARTESIAN \
        else polar_points(n, 25)
    every = range(n + 1)
    b = background(pts, chart)
    for ks, xs in ((every, every), (every[1::2][::-1], every[::2])):
        first = basis_jets(pts, chart, ks, xs, order=1, b=b)
        second = basis_jets(pts, chart, ks, xs, b=b)
        for got, want in zip(first[0], second[0], strict=True):
            assert got.hess is None and want.hess is not None
            assert np.array_equal(got.val, want.val)
            assert np.array_equal(got.grad, want.grad)
        for got, want in zip(first[1], second[1], strict=True):
            assert got.d is None and want.d is not None
            assert np.array_equal(got.comp, want.comp)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("chart", [ChartKind.POLAR_GEODESIC,
                                   ChartKind.POLAR_AREA])
def test_basis_jets_equal_the_full_width_products(n, chart):
    """The full polar basis, built factor by factor with one sparse step
    each, equals the full-width products of full-width seeds."""
    pts = polar_points(n, 40, np.random.default_rng(n))
    pts[:, 0] *= 10.0
    scalars, vectors = basis_jets(pts, chart, range(n + 1), range(n + 1),
                                  b=background(pts, chart))
    ref_scalars, ref_vectors = polar_basis_jets(pts, chart)
    for jet, ref in zip(scalars, ref_scalars, strict=True):
        for key in ("val", "grad", "hess"):
            assert np.array_equal(getattr(jet, key), getattr(ref, key))
    for jet, ref in zip(vectors, ref_vectors, strict=True):
        assert np.array_equal(jet.comp, ref.comp)
        assert np.array_equal(jet.d, ref.d)


def test_basis_sizes_and_pairing_ids():
    """The row at position k of the table has index k, in the dimension and
    chart asked for; its id, which labels reports and messages, and its
    constant c are those of the basis table."""
    for n in (3, 4, 5):
        for chart in ChartKind:
            assert [(X.n, X.chart_kind, X.index)
                    for X in killing_basis(n, chart)] \
                == [(n, chart, i) for i in range(n + 1)]
    flat = killing_basis(3, ChartKind.CARTESIAN)
    assert [(X.id, X.c) for X in flat] == [("dilation", -3.0)] + [
        (f"inverted_translation_{a}", 6.0) for a in range(3)]
    for chart in (ChartKind.POLAR_GEODESIC, ChartKind.POLAR_AREA):
        assert [(X.id, X.c) for X in killing_basis(3, chart)] \
            == [(f"ah_X{i}", -3.0) for i in range(4)]




@pytest.mark.parametrize("source", ["cartesian", "polar_geodesic",
                                    "polar_area", "expression", "euclidean",
                                    "schwarzschild_conformal"])
def test_scalar_jets_are_hyper_duals(source):
    """Every scalar jet the package hands out is the HyperDual that built
    it: the kernel jets of basis_jets in each chart, an evaluated
    expression, and the conformal factor ``2 phi`` of the flat catalog
    kinds.  The divergence jet of ``X^(i)`` is c times the kernel jet of
    ``V^(i)`` bit for bit, signs of zeros included."""
    n = 4
    pts = RNG.normal(size=(12, n)) * 3.0 + 5.0
    if source == "expression":
        scalars = [eval_jet(parse("1 + 2*x1/r^3", n), pts)]
    elif source == "euclidean":
        scalars = [metric_jet(MetricSpec(source, n), pts).log_factor]
    elif source == "schwarzschild_conformal":
        scalars = [metric_jet(MetricSpec(source, n, m=1.0), pts).log_factor]
    else:
        chart = ChartKind(source)
        if chart != ChartKind.CARTESIAN:
            pts = polar_points(n, 12)
        scalars, _ = basis_jets(pts, chart, range(n + 1), [])
        for X, V in zip(killing_basis(n, chart), scalars, strict=True):
            div = X.divergence_jet(pts)
            assert isinstance(div, HyperDual)
            for key in ("val", "grad", "hess"):
                ours, scaled = getattr(div, key), X.c * getattr(V, key)
                assert ours.shape == scaled.shape
                assert ours.tobytes() == scaled.tobytes()
    for jet in scalars:
        assert isinstance(jet, HyperDual)
