"""Tensor-calculus operations against closed forms, sympy, and finite differences."""

import numpy as np
import pytest
import sympy as sp

from asymflux.catalog import MetricSpec, jets, metric_jet
from asymflux.errors import DegenerateMetricError
from asymflux.fields import basis_jets
from asymflux.geometry import (ConformalJet, MetricJet, SymTensorJet,
                               VectorJet, WarpedJet, christoffel, curvature,
                               divergence_vector, hessian, inverse_metric,
                               killing_operator, tensor_norm)
from asymflux.hyperdual import HyperDual
from oracles import (as_sym_tensor, christoffel_derivative,
                     divergence_symmetric2, dscal_adjoint, inverse_derivative)

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
    assert np.allclose(christoffel(jet, inverse_metric(jet.g)), expected,
                       atol=1e-12)


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


def test_non_diagonal_metric_ricci_against_sympy():
    """Ricci of ``e^{2u} L L^T`` with a unit lower-triangular ``L``: every
    component is nonzero, so the off-diagonal terms of the curvature's
    2-jet traces are checked.  The factorization keeps the symbolic inverse
    ``e^{-2u} L^{-T} L^{-1}`` small."""
    xs = sp.symbols("x1 x2 x3")
    coords = list(xs)
    a, b, c = "(x1 - x2*x3)", "(sin(x3)/2)", "(x1^2 - x2)"
    e = "exp(2*(x1*x3/5 + x2/7))"
    comps = {(0, 0): e, (0, 1): f"{e}*{a}", (0, 2): f"{e}*{b}",
             (1, 1): f"{e}*({a}^2 + 1)", (1, 2): f"{e}*({a}*{b} + {c})",
             (2, 2): f"{e}*({b}^2 + {c}^2 + 1)"}

    def sym(text):
        return sp.sympify(text.replace("^", "**"),
                          locals={str(x): x for x in xs})

    g = sp.Matrix(3, 3, lambda i, j: sym(comps[min(i, j), max(i, j)]))
    L = sp.Matrix([[1, 0, 0], [sym(a), 1, 0], [sym(b), sym(c), 1]])
    ginv = L.inv().T * L.inv() / sym(e)
    Gam = [[[sum(ginv[k, l] * (sp.diff(g[j, l], coords[i])
                               + sp.diff(g[i, l], coords[j])
                               - sp.diff(g[i, j], coords[l]))
                 for l in range(3)) / 2 for j in range(3)] for i in range(3)]
           for k in range(3)]
    Ric = [[sum(sp.diff(Gam[k][i][j], coords[k]) for k in range(3))
            - sum(sp.diff(Gam[k][k][j], coords[i]) for k in range(3))
            + sum(Gam[k][k][l] * Gam[l][i][j] for k in range(3) for l in range(3))
            - sum(Gam[k][i][l] * Gam[l][k][j] for k in range(3) for l in range(3))
            for j in range(3)] for i in range(3)]
    pt = {xs[0]: 0.4, xs[1]: -0.2, xs[2]: 0.7}
    assert np.allclose(np.array((g * ginv).subs(pt), dtype=float), np.eye(3))
    expected = np.array([[float(Ric[i][j].subs(pt)) for j in range(3)]
                         for i in range(3)])
    assert np.min(np.abs(expected)) > 1e-2

    spec = MetricSpec("expression", 3, components=comps)
    jet = metric_jet(spec, np.array([0.4, -0.2, 0.7]))
    assert np.min(np.abs(jet.g)) > 1e-2
    assert np.allclose(curvature(jet).ricci, expected, atol=1e-10)


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
    div = divergence_symmetric2(jet, SymTensorJet(G(x0), dG),
                                inverse_metric(jet.g))
    assert np.max(np.abs(div)) < 1e-8


# ------------------------------------------------------------ derivative FD

def test_christoffel_derivative_matches_fd():
    spec = MetricSpec("hyperbolic_polar", 3)
    x0 = np.array([1.2, 0.9, 1.5])
    jet = metric_jet(spec, x0)
    analytic = christoffel_derivative(jet, inverse_metric(jet.g))
    h = 1e-4
    for m in range(3):
        e = np.zeros(3); e[m] = h
        jp = metric_jet(spec, x0 + e)
        jm = metric_jet(spec, x0 - e)
        fd = (christoffel(jp, inverse_metric(jp.g))
              - christoffel(jm, inverse_metric(jm.g))) / (2 * h)
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


def _reference_ricci(jet):
    """Ricci as the textbook traces of the full dGamma, all in einsum."""
    ginv = inverse_metric(jet.g)
    Gamma = _einsum_christoffel(ginv, jet.dg)
    dGamma = _einsum_christoffel_derivative(ginv, jet.dg, jet.ddg)
    return (np.einsum("...kkij->...ij", dGamma)
            - np.einsum("...ikkj->...ij", dGamma)
            + np.einsum("...kkl,...lij->...ij", Gamma, Gamma)
            - np.einsum("...kil,...lkj->...ij", Gamma, Gamma))


@pytest.mark.parametrize("shape", [(), (7,), (2, 3)])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_ricci_matches_christoffel_derivative_reference(n, shape):
    """Ricci from the traces of the 2-jet against the traces of dGamma."""
    jet = _random_jet(shape, n, diagonal=False)
    ref = _reference_ricci(jet)
    ric = curvature(jet).ricci
    assert ric.shape == ref.shape
    assert np.max(np.abs(ric - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sqrt_det_from_the_cholesky_factor(n):
    """The bundle's ``sqrt(det g)`` comes from the factorization that checks
    definiteness and agrees with the LU determinant to roundoff."""
    jet = _random_jet((2, 3), n, diagonal=False)
    sqrt_det = curvature(jet).sqrt_det
    assert sqrt_det.shape == (2, 3)
    assert np.allclose(sqrt_det, np.sqrt(np.linalg.det(jet.g)),
                       rtol=1e-14, atol=0)


def test_curvature_never_builds_dgamma(monkeypatch):
    """The sphere passes (Ricci columns, Michel pieces, normal and area,
    flat and translated-center fields) and the Pohozaev check run with
    ``christoffel_derivative`` unavailable, and with no ``np.einsum``,
    ``np.linalg.inv`` or ``np.linalg.cholesky`` call."""
    from asymflux import charges, geometry
    from asymflux.charges import charge_series
    from asymflux.quadrature import sphere_rule
    from asymflux.verify import pohozaev_check

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called on the hot path")
        return call

    # the full dGamma lives with the test oracles; should geometry define
    # it again, a call to it from the hot path fails here
    monkeypatch.setattr(geometry, "christoffel_derivative",
                        forbidden("christoffel_derivative"), raising=False)
    hot_calls = [(np, "einsum"), (np.linalg, "inv"), (np.linalg, "cholesky")]
    originals = [getattr(module, name) for module, name in hot_calls]
    extrapolate = charges.extrapolate

    def cold_extrapolate(*args):
        # the extrapolation after the sphere passes is off the hot path
        with monkeypatch.context() as cold:
            for (module, name), original in zip(hot_calls, originals):
                cold.setattr(module, name, original)
            return extrapolate(*args)

    center = (0.7, 0.5, -0.3)
    flat_radii = 8.0 * 2.0 ** np.arange(5)
    cases = [(MetricSpec("schwarzschild_conformal", 5, m=1.0), flat_radii,
              [0]),
             (MetricSpec("kottler", 4, m=1.0),
              np.sinh(3.0 + 0.75 * np.arange(5)), [0]),
             (MetricSpec("schwarzschild_conformal", 3, m=1.0, center=center),
              flat_radii, [0, 1, 2, 3])]
    rules = {n: sphere_rule(n, 8) for n in (3, 4, 5)}
    passes = []
    with monkeypatch.context() as hot:
        for module, name in hot_calls:
            hot.setattr(module, name, forbidden(f"{module.__name__}.{name}"))
        hot.setattr(charges, "extrapolate", cold_extrapolate)
        for spec, radii, indices in cases:
            passes.append(charge_series(spec, radii, rules[spec.n], indices))
        spec = MetricSpec("hyperbolic_polar", 4)
        reports = pohozaev_check(spec, range(5), 1.0, 2.0, rules[4])
    assert all(rep.passed for rep in reports)
    for indices, (_, classical, ricci, _) in zip(
            (case[2] for case in cases), passes):
        exact = [1.0] + list(center[:len(indices) - 1])
        for cls, ric, want in zip(classical, ricci, exact):
            assert cls.limit == pytest.approx(want, rel=1e-3)
            assert ric.limit == pytest.approx(want, rel=1e-3)


# ------------------------------------------------------------- divergences

def test_divergence_vector_flat_examples():
    x = RNG.normal(size=(6, 3)) * 3.0
    bun = curvature(euclid_jet(x))
    X, *translations = basis_jets(x, "cartesian", [], range(4))[1]
    assert np.allclose(divergence_vector(X, bun), -3.0)
    for a, Xa in enumerate(translations):
        assert np.allclose(divergence_vector(Xa, bun), 6.0 * x[:, a])


def test_divergence_vector_hyperbolic_example():
    spec = MetricSpec("hyperbolic_polar", 3)
    pts = np.array([[1.0, 1.2, 0.3], [2.0, 0.7, 4.0]])
    jet, b, _ = jets(spec, pts)
    bun = curvature(jet)
    (X,) = basis_jets(pts, "polar_geodesic", [], [0], b=b)[1]
    div = divergence_vector(X, bun)
    assert np.allclose(div, -3.0 * np.cosh(pts[:, 0]), atol=1e-12)


def test_divergence_of_metric_vanishes():
    spec = MetricSpec("kottler", 3, m=0.7)
    pts = np.array([[3.0, 1.0, 0.5], [5.0, 2.0, 2.5]])
    jet = metric_jet(spec, pts)
    div = divergence_symmetric2(jet, as_sym_tensor(jet), inverse_metric(jet.g))
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
    div = divergence_symmetric2(jet, SymTensorJet(T, dT), inverse_metric(jet.g))
    assert np.allclose(div, -df, atol=1e-13)


# --------------------------------------------------------- killing operator

def test_killing_operator_flat():
    x = RNG.normal(size=(6, 3)) * 2.0
    jet = euclid_jet(x)
    X, *translations = basis_jets(x, "cartesian", [], range(4))[1]
    bun = curvature(jet)
    sym, tf = killing_operator(jet, X, bun)
    assert np.allclose(sym, np.eye(3))
    assert np.allclose(tf, 0.0, atol=1e-14)
    for Xa in translations:
        _, tfa = killing_operator(jet, Xa, bun)
        assert np.allclose(tfa, 0.0, atol=1e-12)


def test_killing_operator_detects_non_killing():
    x = np.array([[1.0, 2.0, 3.0]])
    jet = euclid_jet(x)
    comp = np.zeros((1, 3)); comp[:, 0] = x[:, 0] ** 2
    d = np.zeros((1, 3, 3)); d[:, 0, 0] = 2 * x[:, 0]
    _, tf = killing_operator(jet, VectorJet(comp, d), curvature(jet))
    assert np.max(np.abs(tf)) > 0.1


# ------------------------------------------------- hessian / dscal adjoint

def test_hessian_cosh_r_hyperbolic():
    """Hess cosh r = cosh r * b on hyperbolic space (sympy-checked identity)."""
    spec = MetricSpec("hyperbolic_polar", 4)
    pts = np.array([[1.5, 1.0, 0.8, 2.0], [0.7, 2.0, 1.4, 5.0]])
    jet = metric_jet(spec, pts)
    bun = curvature(jet)
    (V,), _ = basis_jets(pts, "polar_geodesic", [0], [])
    H = hessian(V, bun)
    assert np.allclose(H, V.val[:, None, None] * jet.g, atol=1e-11)
    assert np.allclose(np.einsum("...ij,...ij->...", bun.ginv, H),
                       4.0 * V.val, atol=1e-11)


def test_dscal_adjoint_kernels():
    # flat: affine functions; hyperbolic: cosh r and u sinh r
    x = RNG.normal(size=(8, 3)) * 2.0
    jet = euclid_jet(x)
    one = HyperDual(np.ones(8), np.zeros((8, 3)), np.zeros((8, 3, 3)))
    assert np.allclose(dscal_adjoint(jet, one, curvature(jet)), 0.0)

    spec = MetricSpec("hyperbolic_polar", 3)
    pts = np.array([[1.1, 0.9, 0.4], [2.2, 1.9, 3.3]])
    hjet = metric_jet(spec, pts)
    hbun = curvature(hjet)
    for V in basis_jets(pts, "polar_geodesic", range(4), [])[0]:
        resid = dscal_adjoint(hjet, V, hbun)
        assert np.max(np.abs(resid)) < 1e-11


def test_dscal_adjoint_nonkernel():
    spec = MetricSpec("hyperbolic_polar", 3)
    pts = np.array([[1.0, 1.0, 1.0]])
    jet = metric_jet(spec, pts)
    # cosh(2r) is not in the kernel
    (vj,), _ = basis_jets(pts, "polar_geodesic", [0], [])
    bad = HyperDual(vj.val**2, 2 * vj.val[..., None] * vj.grad,
                    2 * (np.einsum("...i,...j->...ij", vj.grad, vj.grad)
                         + vj.val[..., None, None] * vj.hess))
    assert np.max(np.abs(dscal_adjoint(jet, bad, curvature(jet)))) > 0.1


# ------------------------------------------------------------------- misc

def test_inverse_metric_rejects_degenerate():
    g = np.zeros((3, 3))
    with pytest.raises(DegenerateMetricError):
        inverse_metric(g)
    with pytest.raises(DegenerateMetricError):
        inverse_metric(-np.eye(3))
    with pytest.raises(DegenerateMetricError):
        inverse_metric(np.diag([-1.0, -1.0, 1.0]))
    # one bad node among good ones, not the first: indefinite, singular,
    # a NaN entry and an infinite one
    singular = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
    nan = 2.0 * np.eye(3)
    nan[2, 1] = nan[1, 2] = np.nan
    inf = 2.0 * np.eye(3)
    inf[2, 2] = np.inf
    for bad in (np.diag([-1.0, -1.0, 1.0]), singular, nan, inf):
        for shape, node in (((5,), (3,)), ((2, 3), (1, 2))):
            batch = np.broadcast_to(np.eye(3), shape + (3, 3)).copy()
            batch[node] = bad
            with pytest.raises(DegenerateMetricError):
                inverse_metric(batch)


@pytest.mark.parametrize("shape", [(), (7,), (2, 3)])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_inverse_metric_matches_lapack(n, shape):
    """The node-axis Cholesky inverse of random non-diagonal SPD matrices
    agrees with LAPACK's to 1e-14 relative and is exactly symmetric."""
    rng = np.random.default_rng(100 * n + len(shape))
    a = rng.normal(size=shape + (n, n))
    g = a @ a.swapaxes(-1, -2) + 0.5 * np.eye(n)
    ginv = inverse_metric(g)
    ref = np.linalg.inv(g)
    assert ginv.shape == ref.shape
    assert np.array_equal(ginv, ginv.swapaxes(-1, -2))
    scale = np.max(np.abs(ref), axis=(-2, -1), keepdims=True)
    assert np.max(np.abs(ginv - ref) / scale) <= 1e-14


def test_tensor_norm_euclidean():
    T = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 0.0], [0.0, 0.0, 3.0]])
    assert tensor_norm(np.eye(3), T) == pytest.approx(np.sqrt(19.0))


# ------------------------------------------ conformally flat closed form

@pytest.mark.parametrize("r", [8.0, 100.0, 1000.0])
@pytest.mark.parametrize("translated", [False, True],
                         ids=["centered", "translated"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_conformal_curvature_equals_the_general_formula(n, translated, r):
    """The closed form of a conformal jet (Schwarzschild) agrees with the
    general formula on its densified jet: Ric, the Einstein tensor and
    Scal within 4e-15 of ``max|Ric|``, the modified Einstein tensor within
    4e-15 of its own largest entry, the Christoffel symbols, when read,
    within 4e-15 of ``max|Gamma|`` (6.4e-16 and 2.1e-16 measured),
    ``g^{-1}`` the same bits and ``sqrt(det g)`` within 4 ulps."""
    center = np.array([0.7, -0.4, 0.25, 0.1, -0.3][:n]) if translated \
        else np.zeros(n)
    spec = MetricSpec("schwarzschild_conformal", n, m=1.3,
                      center=tuple(center))
    directions = np.random.default_rng(n).normal(size=(64, n))
    x = center + r * directions / np.linalg.norm(directions, axis=-1,
                                                 keepdims=True)
    jet = metric_jet(spec, x)
    assert isinstance(jet, ConformalJet)
    closed = curvature(jet)
    general = curvature(MetricJet(jet.g, jet.dg, jet.ddg))
    scale = np.abs(general.ricci).max()
    for name in ("ricci", "einstein", "scal"):
        err = np.abs(getattr(closed, name) - getattr(general, name)).max()
        assert err <= 4e-15 * scale, name
    # the modified tensor subtracts (n-1)(n-2)/2 g, of order 1
    modified = general.modified_einstein
    assert np.abs(closed.modified_einstein - modified).max() \
        <= 4e-15 * np.abs(modified).max()
    gamma = general.christoffel
    assert np.abs(closed.christoffel - gamma).max() \
        <= 4e-15 * np.abs(gamma).max()
    assert np.array_equal(closed.ginv, general.ginv)
    assert np.all(np.abs(closed.sqrt_det - general.sqrt_det)
                  <= 4 * np.spacing(general.sqrt_det))


def test_euclidean_conformal_curvature_is_exact():
    """``phi = 0`` gives exact zeros, the identity inverse and a unit
    volume element."""
    jet = metric_jet(MetricSpec("euclidean", 4), RNG.normal(size=(6, 4)))
    bun = curvature(jet)
    for part in (bun.ricci, bun.scal, bun.einstein, bun.christoffel):
        assert not np.any(part)
    assert np.array_equal(bun.ginv, np.broadcast_to(np.eye(4), (6, 4, 4)))
    assert np.array_equal(bun.sqrt_det, np.ones(6))


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf],
                         ids=["infinite", "nan", "zero"])
def test_conformal_factor_must_be_positive_and_finite(bad):
    """A factor ``e^{2 phi}`` that is not finite, or is zero, at one node
    among good ones raises, as a failed factorization does."""
    n = 3
    two_phi = np.zeros(5)
    two_phi[3] = bad
    jet = ConformalJet(HyperDual(two_phi, np.zeros((5, n)),
                                 np.zeros((5, n, n))))
    with pytest.raises(DegenerateMetricError):
        curvature(jet)


# ---------------------------------------------------------------- warped jets

def _warped_points(kind, n, count, lo, hi, rng):
    """Polar points whose warping radius ``rho`` lies in ``[lo, hi]``: the
    area chart's coordinate, ``sinh r`` in the geodesic chart."""
    pts = np.empty((count, n))
    rho = rng.uniform(lo, hi, count)
    pts[:, 0] = np.arcsinh(rho) if kind == "hyperbolic_polar" else rho
    pts[:, 1:n - 1] = rng.uniform(0.3, np.pi - 0.3, (count, n - 2))
    pts[:, n - 1] = rng.uniform(0.0, 2.0 * np.pi, count)
    return pts


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", ["hyperbolic_polar", "hyperbolic_area",
                                  "kottler"])
def test_warped_curvature_equals_the_general_formula(kind, n):
    """The closed form of a warped jet (the polar catalog kinds) agrees
    with the general formula on its densified jet at rho in [0.5, 2],
    where little cancels: Ric, the Einstein tensor, Scal and the modified
    Einstein tensor within 1e-14 of ``max|Ric|`` (the general formula's
    roundoff, up to 4.9e-15 measured), and ``g^{-1}``, ``sqrt(det g)``
    and the Christoffel symbols the same bits.  Kottler takes m = 0.05,
    which keeps ``f = 1 + rho^2 - 2m rho^(2-n)`` positive down to rho =
    0.5 at n = 5."""
    spec = MetricSpec(kind, n, m=0.05 if kind == "kottler" else 0.0)
    pts = _warped_points(kind, n, 64, 0.5, 2.0, np.random.default_rng(n))
    jet = metric_jet(spec, pts)
    assert isinstance(jet, WarpedJet)
    closed = curvature(jet)
    general = curvature(MetricJet(jet.g, jet.dg, jet.ddg))
    scale = np.abs(general.ricci).max()
    for name in ("ricci", "einstein", "scal", "modified_einstein"):
        err = np.abs(getattr(closed, name) - getattr(general, name)).max()
        assert err <= 1e-14 * scale, name
    assert np.array_equal(closed.ginv, general.ginv)
    assert np.array_equal(closed.sqrt_det, general.sqrt_det)
    assert np.array_equal(closed.christoffel, general.christoffel)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", ["hyperbolic_polar", "hyperbolic_area"])
def test_warped_backgrounds_are_exactly_einstein(kind, n):
    """On the hyperbolic backgrounds ``E = Ric + (n-1) g`` is an exact
    zero: the modified Einstein tensor vanishes, ``Ric = -(n-1) g`` and
    ``Scal = -n(n-1)``, bit for bit, also at rho = 1000."""
    pts = _warped_points(kind, n, 32, 0.5, 1000.0, np.random.default_rng(n))
    jet = metric_jet(MetricSpec(kind, n), pts)
    bun = curvature(jet)
    assert not np.any(bun.modified_einstein)
    assert np.array_equal(bun.ricci, -(n - 1) * jet.g)
    assert np.array_equal(bun.scal, np.full(32, -n * (n - 1.0)))


@pytest.mark.parametrize("m", [0.7, 2.0])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_kottler_modified_einstein_closed_form(n, m):
    """Kottler's modified Einstein tensor is ``-(n-1)(n-2) m rho^-n / f``
    radially and ``(n-2) m rho^(2-n) sigma_ab`` on the sphere, within
    1e-13 relative of each entry up to rho = 1000 (at most 1.0e-15
    measured), where the general formula on the dense jet is off by 5e-7
    to 1e-6 at n = 3 and 0.24 to 0.56 at n = 5; every off-diagonal entry
    is an exact zero."""
    rho = np.array([2.0, 10.0, 100.0, 1000.0])
    pts = _warped_points("kottler", n, 4, 1.0, 1.0, np.random.default_rng(n))
    pts[:, 0] = rho
    jet = metric_jet(MetricSpec("kottler", n, m=m), pts)
    G = curvature(jet).modified_einstein
    f = 1.0 + rho ** 2 - 2.0 * m * rho ** (2.0 - n)
    sigma = np.diagonal(jet.g, axis1=-2, axis2=-1)[:, 1:] / rho[:, None] ** 2
    want = np.column_stack([-(n - 1) * (n - 2) * m * rho ** -n / f,
                            (n - 2) * m * rho[:, None] ** (2.0 - n) * sigma])
    got = np.diagonal(G, axis1=-2, axis2=-1)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    assert not np.any(G[:, ~np.eye(n, dtype=bool)])


@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0],
                         ids=["infinite", "nan", "zero", "negative"])
def test_warped_diagonal_must_be_positive_and_finite(bad):
    """A diagonal entry that is not a positive finite number at one node
    among good ones raises, as a failed factorization does."""
    n = 3
    pts = _warped_points("hyperbolic_area", n, 5, 1.0, 2.0, RNG)
    jet = metric_jet(MetricSpec("hyperbolic_area", n), pts)
    values = jet.diag.val.copy()
    values[3, 2] = bad
    jet.diag = HyperDual(values, jet.diag.grad)
    with pytest.raises(DegenerateMetricError):
        curvature(jet)
