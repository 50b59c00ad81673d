"""Kernel functions and conformal Killing fields: pairing and jet checks."""

import numpy as np
import pytest

from asymflux.catalog import MetricSpec, metric_jet
from asymflux.fields import basis_jets, kernel_basis, killing_basis
from asymflux.geometry import (ChartKind, curvature, divergence_vector,
                               killing_operator, tensor_norm)
from oracles import dscal_adjoint, polar_basis_jets

RNG = np.random.default_rng(23)


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
    kind = {ChartKind.CARTESIAN: "euclidean",
            ChartKind.POLAR_GEODESIC: "hyperbolic_polar",
            ChartKind.POLAR_AREA: "hyperbolic_area"}[chart]
    spec = MetricSpec(kind, n)
    if chart == ChartKind.CARTESIAN:
        pts = RNG.normal(size=(30, n)) * 3.0
        cs = [-n] + [2 * n] * n
    else:
        pts = polar_points(n, 30)
        cs = [-n] * (n + 1)
    if chart == ChartKind.POLAR_AREA:
        pts[:, 0] = np.sinh(pts[:, 0])
    bun = curvature(metric_jet(spec, pts))
    for V, X, c in zip(kernel_basis(n, chart), killing_basis(n, chart), cs):
        assert X.c == c
        div = divergence_vector(X.vector_jet(pts), bun)
        vals = V.scalar_jet(pts).value
        assert np.max(np.abs(div - c * vals)) < 1e-10
        # the analytic divergence jet agrees with the computed divergence
        assert np.allclose(X.divergence_jet(pts).value, div, atol=1e-10)


@pytest.mark.parametrize("n", [3, 4])
def test_hyperbolic_killing_fields_are_conformal(n):
    spec = MetricSpec("hyperbolic_polar", n)
    pts = polar_points(n, 20)
    jet = metric_jet(spec, pts)
    bun = curvature(jet)
    for X in killing_basis(n, ChartKind.POLAR_GEODESIC):
        _, tf = killing_operator(jet, X.vector_jet(pts), bun)
        assert np.max(tensor_norm(bun.ginv, tf)) < 1e-10


@pytest.mark.parametrize("n", [3, 4])
def test_kernel_functions_annihilated(n):
    """(D Scal)*_b V = 0 for every kernel basis element, flat and hyperbolic."""
    flat = MetricSpec("euclidean", n)
    x = RNG.normal(size=(20, n)) * 3.0
    fjet = metric_jet(flat, x)
    fbun = curvature(fjet)
    for V in kernel_basis(n, ChartKind.CARTESIAN):
        assert np.max(np.abs(dscal_adjoint(fjet, V.scalar_jet(x), fbun))) < 1e-12

    hyp = MetricSpec("hyperbolic_polar", n)
    pts = polar_points(n, 20)
    hjet = metric_jet(hyp, pts)
    hbun = curvature(hjet)
    for V in kernel_basis(n, ChartKind.POLAR_GEODESIC):
        assert np.max(np.abs(dscal_adjoint(hjet, V.scalar_jet(pts), hbun))) < 1e-10


def test_flat_field_jets():
    x = RNG.normal(size=(10, 3)) * 2.0
    dil = killing_basis(3, "cartesian")[0]
    vj = dil.vector_jet(x)
    assert np.allclose(vj.comp, x)
    assert np.allclose(vj.d, np.eye(3))
    X1 = killing_basis(3, "cartesian")[2]
    comp = X1.vector_jet(x).comp
    r2 = np.einsum("ij,ij->i", x, x)
    expected = r2[:, None] * np.eye(3)[1] - 2 * x[:, 1:2] * x
    assert np.allclose(comp, expected)


def test_vector_jet_derivative_fd():
    x0 = np.array([1.0, -2.0, 0.5])
    X = killing_basis(3, "cartesian")[1]
    d = X.vector_jet(x0).d
    h = 1e-6
    for j in range(3):
        e = np.zeros(3); e[j] = h
        fd = (X.vector_jet(x0 + e).comp - X.vector_jet(x0 - e).comp) / (2 * h)
        assert np.allclose(d[j], fd, atol=1e-8)


def test_hyperbolic_vector_jet_derivative_fd():
    pts = np.array([1.3, 0.9, 2.1])
    X = killing_basis(3, ChartKind.POLAR_GEODESIC)[2]
    d = X.vector_jet(pts).d
    h = 1e-6
    for j in range(3):
        e = np.zeros(3); e[j] = h
        fd = (X.vector_jet(pts + e).comp - X.vector_jet(pts - e).comp) / (2 * h)
        assert np.allclose(d[j], fd, atol=1e-7)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("chart", list(ChartKind))
def test_basis_jets_match_single_elements(n, chart):
    """One basis_jets call gives every element its own jet bit for bit, for
    the full basis and for a mixed subset whose fields pair with kernels not
    asked for."""
    pts = RNG.normal(size=(25, n)) * 3.0 if chart == ChartKind.CARTESIAN \
        else polar_points(n, 25)
    kernels, fields = kernel_basis(n, chart), killing_basis(n, chart)
    for ks, xs in ((kernels, fields), (kernels[1::2][::-1], fields[::2])):
        scalars, vectors = basis_jets(pts, ks, xs)
        assert (len(scalars), len(vectors)) == (len(ks), len(xs))
        for V, jet in zip(ks, scalars):
            alone = V.scalar_jet(pts)
            for key in ("value", "grad", "hess"):
                assert np.array_equal(getattr(jet, key), getattr(alone, key))
        for X, jet in zip(xs, vectors):
            alone = X.vector_jet(pts)
            assert np.array_equal(jet.comp, alone.comp)
            assert np.array_equal(jet.d, alone.d)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("chart", [ChartKind.POLAR_GEODESIC,
                                   ChartKind.POLAR_AREA])
def test_basis_jets_equal_the_full_width_products(n, chart):
    """The full polar basis, built factor by factor with one sparse step
    each, equals the full-width products of full-width seeds."""
    pts = polar_points(n, 40, np.random.default_rng(n))
    pts[:, 0] *= 10.0
    scalars, vectors = basis_jets(pts, kernel_basis(n, chart),
                                  killing_basis(n, chart))
    ref_scalars, ref_vectors = polar_basis_jets(pts, chart)
    for jet, ref in zip(scalars, ref_scalars, strict=True):
        for key in ("value", "grad", "hess"):
            assert np.array_equal(getattr(jet, key), getattr(ref, key))
    for jet, ref in zip(vectors, ref_vectors, strict=True):
        assert np.array_equal(jet.comp, ref.comp)
        assert np.array_equal(jet.d, ref.d)


def test_basis_sizes_and_pairing_ids():
    """The element at position k has index k; its ids, which label reports
    and messages, and its constant c are those of the basis table."""
    for n in (3, 4, 5):
        assert len(kernel_basis(n, ChartKind.CARTESIAN)) == n + 1
        assert len(killing_basis(n, ChartKind.CARTESIAN)) == n + 1
        for chart in ChartKind:
            for i in range(n + 1):
                assert (killing_basis(n, chart)[i].kernel.id
                        == kernel_basis(n, chart)[i].id)
                assert kernel_basis(n, chart)[i].index == i
    flat = killing_basis(3, ChartKind.CARTESIAN)
    assert [(X.id, X.kernel.id, X.c) for X in flat] == [
        ("dilation", "const_one", -3.0)] + [
        (f"inverted_translation_{a}", f"coordinate_{a}", 6.0) for a in range(3)]
    for chart in (ChartKind.POLAR_GEODESIC, ChartKind.POLAR_AREA):
        assert [(X.id, X.kernel.id, X.c) for X in killing_basis(3, chart)] \
            == [(f"ah_X{i}", f"ah_V{i}", -3.0) for i in range(4)]


