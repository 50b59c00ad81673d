"""Tensor-calculus operations against closed forms, sympy, and finite differences."""

import numpy as np
import pytest
import sympy as sp

from asymflux.catalog import MetricSpec, metric_jet
from asymflux.errors import DegenerateMetricError
from asymflux.fields import kernel_basis, killing_basis
from asymflux.geometry import (MetricJet, ScalarJet, SymTensorJet, VectorJet,
                               christoffel, christoffel_derivative, curvature,
                               divergence_symmetric2, divergence_vector,
                               dscal_adjoint, hessian, inverse_derivative,
                               inverse_metric, killing_operator, laplacian,
                               tensor_norm)

RNG = np.random.default_rng(7)


def euclid_jet(x):
    x = np.asarray(x, float)
    n = x.shape[-1]
    shape = x.shape[:-1]
    return MetricJet(np.broadcast_to(np.eye(n), shape + (n, n)).copy(),
                     np.zeros(shape + (n, n, n)),
                     np.zeros(shape + (n, n, n, n)))


# --------------------------------------------------------- curvature oracles

def test_euclidean_curvature_vanishes():
    bun = curvature(euclid_jet(RNG.normal(size=(10, 3))))
    assert np.allclose(bun.ricci, 0.0)
    assert np.allclose(bun.scal, 0.0)
    assert np.allclose(bun.einstein, 0.0)


@pytest.mark.parametrize("kind,n", [("hyperbolic_polar", 3),
                                    ("hyperbolic_polar", 4),
                                    ("hyperbolic_area", 3),
                                    ("hyperbolic_area", 5)])
def test_hyperbolic_is_einstein(kind, n):
    spec = MetricSpec(kind, n)
    pts = np.empty((8, n))
    pts[:, 0] = RNG.uniform(0.5, 2.0, 8)
    pts[:, 1:n - 1] = RNG.uniform(0.4, np.pi - 0.4, (8, n - 2))
    pts[:, n - 1] = RNG.uniform(0, 2 * np.pi, 8)
    jet = metric_jet(spec, pts)
    bun = curvature(jet)
    assert np.allclose(bun.ricci, -(n - 1) * jet.g, atol=1e-11)
    assert np.allclose(bun.scal, -n * (n - 1), atol=1e-11)
    assert np.allclose(bun.modified_einstein, 0.0, atol=1e-10)


def test_schwarzschild_conformal_is_scalar_flat():
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    pts = RNG.normal(size=(20, 3)) * 2.0 + np.array([6.0, 0.0, 0.0])
    bun = curvature(metric_jet(spec, pts))
    assert np.max(np.abs(bun.scal)) < 1e-10


def test_hyperbolic_christoffel_against_sympy():
    """Symbolic Levi-Civita symbols of dr^2 + sinh^2 r (dth^2 + sin^2 th dph^2)."""
    r, th, ph = sp.symbols("r theta phi", positive=True)
    coords = [r, th, ph]
    g = sp.diag(1, sp.sinh(r) ** 2, sp.sinh(r) ** 2 * sp.sin(th) ** 2)
    ginv = g.inv()
    Gamma = [[[sp.simplify(sum(
        ginv[k, l] * (sp.diff(g[j, l], coords[i]) + sp.diff(g[i, l], coords[j])
                      - sp.diff(g[i, j], coords[l])) for l in range(3)) / 2)
        for j in range(3)] for i in range(3)] for k in range(3)]
    pt = {r: 1.3, th: 0.8, ph: 2.0}
    expected = np.array([[[float(Gamma[k][i][j].subs(pt)) for j in range(3)]
                          for i in range(3)] for k in range(3)])
    jet = metric_jet(MetricSpec("hyperbolic_polar", 3), np.array([1.3, 0.8, 2.0]))
    assert np.allclose(christoffel(jet), expected, atol=1e-12)


def test_conformal_metric_ricci_against_sympy():
    """Ricci of e^{2u} delta with u = 1/(1+|x|^2), fully symbolic oracle."""
    xs = sp.symbols("x1 x2 x3")
    u = 1 / (1 + sum(x**2 for x in xs))
    g = sp.exp(2 * u) * sp.eye(3)
    ginv = g.inv()
    coords = list(xs)
    Gam = [[[sum(ginv[k, l] * (sp.diff(g[j, l], coords[i])
                               + sp.diff(g[i, l], coords[j])
                               - sp.diff(g[i, j], coords[l]))
                 for l in range(3)) / 2 for j in range(3)] for i in range(3)]
           for k in range(3)]
    Ric = [[sp.simplify(
        sum(sp.diff(Gam[k][i][j], coords[k]) for k in range(3))
        - sum(sp.diff(Gam[k][k][j], coords[i]) for k in range(3))
        + sum(Gam[k][k][l] * Gam[l][i][j] for k in range(3) for l in range(3))
        - sum(Gam[k][i][l] * Gam[l][k][j] for k in range(3) for l in range(3)))
        for j in range(3)] for i in range(3)]
    pt = {xs[0]: 0.4, xs[1]: -0.2, xs[2]: 0.7}
    expected = np.array([[float(Ric[i][j].subs(pt)) for j in range(3)]
                         for i in range(3)])

    comps = {(i, j): "exp(2/(1 + r^2))" if i == j else "0"
             for i in range(3) for j in range(3) if i <= j}
    spec = MetricSpec("expression", 3, components=comps)
    bun = curvature(metric_jet(spec, np.array([0.4, -0.2, 0.7])))
    assert np.allclose(bun.ricci, expected, atol=1e-10)


def test_contracted_bianchi_by_finite_differences():
    """delta^g(Ric - Scal/2 g) = 0, with the Einstein tensor's derivative
    obtained by central-differencing the curvature itself."""
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    x0 = np.array([4.0, 2.0, -1.0])
    h = np.linalg.norm(x0) * 1e-5

    def G(x):
        return curvature(metric_jet(spec, x)).einstein

    dG = np.empty((3, 3, 3))
    for k in range(3):
        e = np.zeros(3); e[k] = h
        dG[k] = (G(x0 + e) - G(x0 - e)) / (2 * h)
    jet = metric_jet(spec, x0)
    div = divergence_symmetric2(jet, SymTensorJet(G(x0), dG))
    assert np.max(np.abs(div)) < 1e-8


# ------------------------------------------------------------ derivative FD

def test_christoffel_derivative_matches_fd():
    spec = MetricSpec("hyperbolic_polar", 3)
    x0 = np.array([1.2, 0.9, 1.5])
    from asymflux.geometry import christoffel_derivative
    jet = metric_jet(spec, x0)
    analytic = christoffel_derivative(jet, inverse_metric(jet.g))
    h = 1e-4
    for m in range(3):
        e = np.zeros(3); e[m] = h
        jp = metric_jet(spec, x0 + e)
        jm = metric_jet(spec, x0 - e)
        fd = (christoffel(jp) - christoffel(jm)) / (2 * h)
        assert np.allclose(analytic[m], fd, rtol=1e-6, atol=1e-6)


# ------------------------------------------------ contractions vs einsum

def _einsum_inverse_derivative(ginv, dg):
    return -np.einsum("...ka,...mab,...bl->...mkl", ginv, dg, ginv)


def _einsum_first_kind(dg):
    return (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg)
            - dg)


def _einsum_christoffel(ginv, dg):
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, _einsum_first_kind(dg))


def _einsum_christoffel_derivative(ginv, dg, ddg):
    dginv = _einsum_inverse_derivative(ginv, dg)
    dA = (np.einsum("...mijl->...mlij", ddg)
          + np.einsum("...mjil->...mlij", ddg)
          - np.einsum("...mlij->...mlij", ddg))
    return 0.5 * (np.einsum("...mkl,...lij->...mkij", dginv,
                            _einsum_first_kind(dg))
                  + np.einsum("...kl,...mlij->...mkij", ginv, dA))


def _random_jet(shape, n, diagonal):
    """SPD metric with a 2-jet symmetric in (i, j) and in (k, l)."""
    rng = np.random.default_rng(11 * n + len(shape))
    a = rng.normal(size=shape + (n, n))
    g = a @ a.swapaxes(-1, -2) + n * np.eye(n)
    dg = rng.normal(size=shape + (n, n, n))
    dg = dg + dg.swapaxes(-1, -2)
    ddg = rng.normal(size=shape + (n, n, n, n))
    ddg = ddg + ddg.swapaxes(-1, -2)
    ddg = ddg + ddg.swapaxes(-3, -4)
    if diagonal:
        eye = np.eye(n, dtype=bool)
        g, dg, ddg = g * eye, dg * eye, ddg * eye
    return MetricJet(g, dg, ddg)


@pytest.mark.parametrize("shape", [(), (7,), (2, 3)])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_matmul_contractions_match_einsum(n, shape):
    dense = _random_jet(shape, n, diagonal=False)
    diag = _random_jet(shape, n, diagonal=True)
    for jet, exact in ((dense, False), (diag, True)):
        ginv = inverse_metric(jet.g)
        pairs = [(inverse_derivative(ginv, jet.dg),
                  _einsum_inverse_derivative(ginv, jet.dg)),
                 (christoffel(jet, ginv), _einsum_christoffel(ginv, jet.dg)),
                 (christoffel_derivative(jet, ginv),
                  _einsum_christoffel_derivative(ginv, jet.dg, jet.ddg))]
        for out, ref in pairs:
            assert out.shape == ref.shape
            if exact:
                # one nonzero term per sum: the order of summation is exact
                assert np.array_equal(out, ref)
            else:
                assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_in_place_accumulation_keeps_bits(n):
    """``christoffel_derivative`` accumulates ``P + Q`` and the ``0.5`` in
    place; on a dense jet it equals the out-of-place matmul formula bit for
    bit, and the first-kind symbols ``curvature`` shares give the bits of
    ``christoffel``."""
    jet = _random_jet((7,), n, diagonal=False)
    ginv = inverse_metric(jet.g)
    dginv = inverse_derivative(ginv, jet.dg)
    flat = lambda T: T.reshape(*T.shape[:-2], -1)           # noqa: E731
    dd = np.moveaxis(jet.ddg, -1, -3)
    dA = dd + dd.swapaxes(-1, -2) - jet.ddg
    A = np.moveaxis(jet.dg, -1, -3)
    A = A + A.swapaxes(-1, -2) - jet.dg
    ref = 0.5 * (dginv @ flat(A)[..., None, :, :]
                 + ginv[..., None, :, :] @ flat(dA))
    assert np.array_equal(christoffel_derivative(jet, ginv),
                          ref.reshape(ref.shape[:-1] + (n, n)))
    assert np.array_equal(curvature(jet).christoffel, christoffel(jet, ginv))


# ------------------------------------------------------------- divergences

def test_divergence_vector_flat_examples():
    x = RNG.normal(size=(6, 3)) * 3.0
    jet = euclid_jet(x)
    X = killing_basis(3, "cartesian")[0]
    assert np.allclose(divergence_vector(jet, X.vector_jet(x)), -3.0)
    for a in range(3):
        Xa = killing_basis(3, "cartesian")[a + 1]
        assert np.allclose(divergence_vector(jet, Xa.vector_jet(x)),
                           6.0 * x[:, a])


def test_divergence_vector_hyperbolic_example():
    spec = MetricSpec("hyperbolic_polar", 3)
    pts = np.array([[1.0, 1.2, 0.3], [2.0, 0.7, 4.0]])
    jet = metric_jet(spec, pts)
    X = killing_basis(3, "polar_geodesic")[0]
    div = divergence_vector(jet, X.vector_jet(pts))
    assert np.allclose(div, -3.0 * np.cosh(pts[:, 0]), atol=1e-12)


def test_divergence_of_metric_vanishes():
    spec = MetricSpec("kottler", 3, m=0.7)
    pts = np.array([[3.0, 1.0, 0.5], [5.0, 2.0, 2.5]])
    jet = metric_jet(spec, pts)
    div = divergence_symmetric2(jet, jet.as_sym_tensor())
    assert np.max(np.abs(div)) < 1e-12


def test_divergence_conformal_perturbation():
    # T = e + f(x) delta with f = x1*x2: (delta T)_j = -d_j f
    x = RNG.normal(size=(5, 3))
    jet = euclid_jet(x)
    f = x[:, 0] * x[:, 1]
    df = np.zeros((5, 3))
    df[:, 0] = x[:, 1]
    df[:, 1] = x[:, 0]
    T = np.eye(3) + f[:, None, None] * np.eye(3)
    dT = df[:, :, None, None] * np.eye(3)
    div = divergence_symmetric2(jet, SymTensorJet(T, dT))
    assert np.allclose(div, -df, atol=1e-13)


# --------------------------------------------------------- killing operator

def test_killing_operator_flat():
    x = RNG.normal(size=(6, 3)) * 2.0
    jet = euclid_jet(x)
    X = killing_basis(3, "cartesian")[0]
    sym, tf = killing_operator(jet, X.vector_jet(x))
    assert np.allclose(sym, np.eye(3))
    assert np.allclose(tf, 0.0, atol=1e-14)
    for a in range(3):
        Xa = killing_basis(3, "cartesian")[a + 1]
        _, tfa = killing_operator(jet, Xa.vector_jet(x))
        assert np.allclose(tfa, 0.0, atol=1e-12)


def test_killing_operator_detects_non_killing():
    x = np.array([[1.0, 2.0, 3.0]])
    jet = euclid_jet(x)
    comp = np.zeros((1, 3)); comp[:, 0] = x[:, 0] ** 2
    d = np.zeros((1, 3, 3)); d[:, 0, 0] = 2 * x[:, 0]
    _, tf = killing_operator(jet, VectorJet(comp, d))
    assert np.max(np.abs(tf)) > 0.1


# ------------------------------------------------- hessian / dscal adjoint

def test_hessian_cosh_r_hyperbolic():
    """Hess cosh r = cosh r * b on hyperbolic space (sympy-checked identity)."""
    spec = MetricSpec("hyperbolic_polar", 4)
    pts = np.array([[1.5, 1.0, 0.8, 2.0], [0.7, 2.0, 1.4, 5.0]])
    jet = metric_jet(spec, pts)
    V = kernel_basis(4, "polar_geodesic")[0].scalar_jet(pts)
    H = hessian(jet, V)
    assert np.allclose(H, V.value[:, None, None] * jet.g, atol=1e-11)
    assert np.allclose(laplacian(jet, V), 4.0 * V.value, atol=1e-11)


def test_dscal_adjoint_kernels():
    # flat: affine functions; hyperbolic: cosh r and u sinh r
    x = RNG.normal(size=(8, 3)) * 2.0
    jet = euclid_jet(x)
    one = ScalarJet(np.ones(8), np.zeros((8, 3)), np.zeros((8, 3, 3)))
    assert np.allclose(dscal_adjoint(jet, one), 0.0)

    spec = MetricSpec("hyperbolic_polar", 3)
    pts = np.array([[1.1, 0.9, 0.4], [2.2, 1.9, 3.3]])
    hjet = metric_jet(spec, pts)
    for V in kernel_basis(3, "polar_geodesic"):
        resid = dscal_adjoint(hjet, V.scalar_jet(pts))
        assert np.max(np.abs(resid)) < 1e-11


def test_dscal_adjoint_nonkernel():
    spec = MetricSpec("hyperbolic_polar", 3)
    pts = np.array([[1.0, 1.0, 1.0]])
    jet = metric_jet(spec, pts)
    V = kernel_basis(3, "polar_geodesic")[0]
    # cosh(2r) is not in the kernel
    vj = V.scalar_jet(pts)
    bad = ScalarJet(vj.value**2, 2 * vj.value[..., None] * vj.grad,
                    2 * (np.einsum("...i,...j->...ij", vj.grad, vj.grad)
                         + vj.value[..., None, None] * vj.hess))
    assert np.max(np.abs(dscal_adjoint(jet, bad))) > 0.1


# ------------------------------------------------------------------- misc

def test_inverse_metric_rejects_degenerate():
    g = np.zeros((3, 3))
    with pytest.raises(DegenerateMetricError):
        inverse_metric(g)
    with pytest.raises(DegenerateMetricError):
        inverse_metric(-np.eye(3))
    with pytest.raises(DegenerateMetricError):
        inverse_metric(np.diag([-1.0, -1.0, 1.0]))


def test_tensor_norm_euclidean():
    T = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 0.0], [0.0, 0.0, 3.0]])
    assert tensor_norm(np.eye(3), T) == pytest.approx(np.sqrt(19.0))
