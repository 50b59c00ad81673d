"""Reference formulas the tests compare the program against.

The program never calls these.  They are the classical ADM and center
integrands, the charge integrand from the deviation and from two full
metric jets with the general formula for any background (its Cholesky
inverse, Christoffel symbols, covariant divergence and ``d b^{-1}``), the
full derivative of the Christoffel symbols, the adjoint linearized scalar
curvature, an expression printer whose text parses back to the same tree,
a metric jet read as a symmetric 2-tensor and its diagonal read as a
background, the polar-chart jets and basis
jets built with full-width products of full-width seeds (the gradient
fields written one column at a time), and the
per-radius sups of the hypothesis diagnostics, each sampled on a node pass
of its own.
"""

import numpy as np

from asymflux import hyperdual as hd
from asymflux.catalog import jets
from asymflux.charges import sphere_normal_area
from asymflux.expr import Bin, Call, Name, Num, Unary
from asymflux.geometry import (ChartKind, CurvatureBundle, MetricJet,
                               SymTensorJet, VectorJet, _christoffel,
                               _first_kind, _pairs_flat, _pairs_last,
                               christoffel, curvature, diagonal_sum,
                               hessian, inverse_metric, sum_last,
                               trace_product)
from asymflux.hyperdual import HyperDual, seed_variables
from asymflux.quadrature import _evaluate, _sphere_points


# --------------------------------------------------------------- integrands

def michel_pieces(eps: SymTensorJet, b) -> tuple:
    """The V-independent parts of ``U``, ``(binv, -delta eps - d tr eps,
    tr eps)``, by the general formula for any background ``b`` with value
    and first derivatives (a SymTensorJet, or a metric jet, dense or
    conformal, read as one)."""
    b = b if isinstance(b, SymTensorJet) else as_sym_tensor(b)
    binv = inverse_metric(b.value)
    gamma = _christoffel(binv, _first_kind(b.d))
    delta_eps = _divergence_symmetric2(gamma, eps, binv)    # paper-sign delta
    tr_eps = trace_product(binv, eps.value)
    dbinv = inverse_derivative(binv, b.d)
    dtr = (trace_product(dbinv, eps.value[..., None, :, :])
           + trace_product(binv[..., None, :, :], eps.d))
    return binv, -delta_eps - dtr, tr_eps


def michel_contract(V: HyperDual, eps: SymTensorJet, pieces,
                    nu: np.ndarray) -> np.ndarray:
    """``U(V, g, b)(nu)`` from the pieces of :func:`michel_pieces`, with the
    dense ``binv`` raising ``dV``."""
    binv, source, tr_eps = pieces
    gradV = binv @ V.grad[..., None]
    one_form = (V.val[..., None] * source
                + tr_eps[..., None] * V.grad
                - (gradV.swapaxes(-1, -2) @ eps.value)[..., 0, :])
    return sum_last(one_form * nu)


def michel_integrand_deviation(V: HyperDual, eps: SymTensorJet, b,
                               nu: np.ndarray) -> np.ndarray:
    """Charge integrand ``U(V, g, b)(nu)`` from the deviation ``eps = g - b``
    and the general formula (:func:`michel_pieces`), for any background."""
    return michel_contract(V, eps, michel_pieces(eps, b), nu)


def michel_integrand(V: HyperDual, g_jet: MetricJet, b_jet: MetricJet,
                     nu: np.ndarray) -> np.ndarray:
    """``U(V, g, b)(nu)`` from full metric jets (subtracts the jets)."""
    eps = SymTensorJet(g_jet.g - b_jet.g, g_jet.dg - b_jet.dg)
    return michel_integrand_deviation(V, eps, b_jet, nu)


def adm_integrand(eps: SymTensorJet, nu: np.ndarray) -> np.ndarray:
    """Flat-chart mass integrand ``(d_i eps_ij - d_j eps_ii) nu^j``."""
    div = np.einsum("...iij->...j", eps.d)
    dtr = np.einsum("...jii->...j", eps.d)
    return np.einsum("...j,...j->...", div - dtr, nu)


def center_integrand(eps: SymTensorJet, alpha: int, points: np.ndarray,
                     nu: np.ndarray) -> np.ndarray:
    """Flat-chart center integrand for the coordinate function x^alpha."""
    div = np.einsum("...iij->...j", eps.d)
    dtr = np.einsum("...jii->...j", eps.d)
    xa = points[..., alpha]
    one_form = xa[..., None] * (div - dtr) - eps.value[..., alpha, :]
    tr = np.einsum("...ii->...", eps.value)
    contr = np.einsum("...j,...j->...", one_form, nu)
    return contr + tr * nu[..., alpha]


# ----------------------------------------------------------------- geometry

def as_sym_tensor(jet: MetricJet) -> SymTensorJet:
    """The metric jet's value and first derivatives as a symmetric 2-tensor."""
    return SymTensorJet(jet.g, jet.dg)


def diagonal_jet(T: SymTensorJet) -> HyperDual:
    """The diagonal entries ``T_ii`` of a symmetric 2-tensor with their
    first derivatives, in the form of a catalog background: ``val[..., i] =
    T_ii`` and ``grad[..., i, k] = d_k T_ii``."""
    i = np.arange(T.value.shape[-1])
    return HyperDual(T.value[..., i, i], T.d[..., i, i].swapaxes(-1, -2))


def inverse_derivative(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """``d_m g^{kl} = -(g^{-1} d_m g g^{-1})^{kl}`` as ``[..., m, k, l]``."""
    gi = ginv[..., None, :, :]
    return -((gi @ dg) @ gi)


def divergence_symmetric2(jet: MetricJet, T: SymTensorJet,
                          ginv: np.ndarray) -> np.ndarray:
    """One-form ``(delta^g T)_j = -grad^i T_ij`` (with the paper-side minus sign)."""
    return _divergence_symmetric2(christoffel(jet, ginv), T, ginv)


def _divergence_symmetric2(gamma, T, ginv):
    n = T.value.shape[-1]
    # grad_k T_ij = d_k T_ij - Gamma^l_ki T_lj - Gamma^l_kj T_il
    covd = T.d - (_pairs_flat(gamma).swapaxes(-1, -2)
                  @ T.value).reshape(T.d.shape)
    covd -= T.value[..., None, :, :] @ gamma.swapaxes(-3, -2)
    # g^{ik} grad_k T_ij: k contracted by one matmul, then the (i, i) trace
    raised = ginv @ covd.reshape(*covd.shape[:-3], n, n * n)
    return -diagonal_sum(_pairs_last(raised), -3, -2)


def christoffel_derivative(jet: MetricJet, ginv: np.ndarray) -> np.ndarray:
    """``dGamma[..., m, k, i, j] = d_m Gamma^k_ij`` from the exact 2-jet."""
    dg, ddg = jet.dg, jet.ddg
    A = _first_kind(dg)
    dginv = inverse_derivative(ginv, dg)
    # d_m A[..., l, i, j] = dd_{mi} g_jl + dd_{mj} g_il - dd_{ml} g_ij
    dd_mi_gjl = np.moveaxis(ddg, -1, -3)
    dA = dd_mi_gjl + dd_mi_gjl.swapaxes(-1, -2)
    dA -= ddg
    out = dginv @ _pairs_flat(A)[..., None, :, :]
    out += ginv[..., None, :, :] @ _pairs_flat(dA)
    out *= 0.5
    return _pairs_last(out)


def dscal_adjoint(jet: MetricJet, V: HyperDual,
                  bundle: CurvatureBundle) -> np.ndarray:
    """Adjoint linearized scalar curvature: ``Hess V + (Lap V) g - V Ric``.

    The Laplacian inside this operator carries the geometer's sign
    (minus the trace of the Hessian); that is the convention under which
    constants/affine functions (flat) and ``cosh r`` (hyperbolic) span the
    kernel, as required by the charge definitions.
    """
    hess = hessian(V, bundle)
    lap = -np.einsum("...ij,...ij->...", bundle.ginv, hess)
    return (hess + lap[..., None, None] * jet.g
            - V.val[..., None, None] * bundle.ricci)


# ------------------------------------------------------- polar-chart jets
#
# Every product here is a full-width HyperDual product of jets in all n seed
# variables; radial profiles are width-1 jets lifted by ``hyperdual.lift``.

def sphere_embedding_chain(angle_vars: list[HyperDual]) -> list[HyperDual]:
    """Unit-sphere points ``u_1..u_n`` from full-width angle variables."""
    k = len(angle_vars)
    out = []
    sin_prod = 1.0
    for j in range(k - 1):
        out.append(sin_prod * hd.cos(angle_vars[j]))
        sin_prod = sin_prod * hd.sin(angle_vars[j])
    phi = angle_vars[k - 1]
    out.append(sin_prod * hd.cos(phi))
    out.append(sin_prod * hd.sin(phi))
    return out


def round_sphere_diag_chain(angle_vars: list[HyperDual], one) -> list:
    """Diagonal entries of the round metric from full-width angle variables."""
    diag = []
    sin2_prod = one
    for j in range(len(angle_vars)):
        diag.append(sin2_prod)
        s = hd.sin(angle_vars[j])
        sin2_prod = sin2_prod * (s * s)
    return diag


def _diagonal_jet(entries, shape, width):
    """A dense MetricJet whose diagonal holds ``entries`` (HyperDuals or
    floats), derivative axes of length ``width``."""
    n = len(entries)
    g = np.zeros(shape + (n, n))
    dg = np.zeros(shape + (width, n, n))
    ddg = np.zeros(shape + (width, width, n, n))
    for i, e in enumerate(entries):
        if isinstance(e, HyperDual):
            g[..., i, i], dg[..., i, i], ddg[..., i, i] = e.val, e.grad, e.hess
        else:
            g[..., i, i] = e
    return MetricJet(g, dg, ddg)


def polar_jets(spec, coords):
    """``(g, b, g - b)`` of a ``hyperbolic_polar``, ``hyperbolic_area`` or
    ``kottler`` spec, as dense jets: the metric's 2-jet, the background's
    and the deviation's first-order jets."""
    n, shape = spec.n, coords.shape[:-1]
    width = n
    radial, *angles = seed_variables(coords)
    r = seed_variables(coords[..., :1])[0]
    sigma = round_sphere_diag_chain(angles,
                                    HyperDual.constant(1.0, width, shape))
    if spec.kind == "hyperbolic_polar":
        sh = hd.sinh(r)
        sh2 = hd.lift(radial, sh * sh)
        g = _diagonal_jet([1.0] + [sh2 * s for s in sigma], shape, width)
        return g, as_sym_tensor(g), SymTensorJet(g.g * 0.0, g.dg * 0.0)
    r2 = r * r
    rho2 = hd.lift(radial, r2)
    angular = [rho2 * s for s in sigma]
    f0 = 1.0 + r2
    b = _diagonal_jet([hd.lift(radial, 1.0 / f0), *angular], shape, width)
    if spec.kind == "hyperbolic_area":
        return b, as_sym_tensor(b), SymTensorJet(b.g * 0.0, b.dg * 0.0)
    mass_term = (2.0 * spec.m) * r ** (-(n - 2))
    f = f0 - mass_term
    g = _diagonal_jet([hd.lift(radial, 1.0 / f), *angular], shape, width)
    eps = _diagonal_jet([hd.lift(radial, mass_term / (f * f0))]
                        + [0.0] * (n - 1), shape, width)
    return g, as_sym_tensor(b), SymTensorJet(eps.g, eps.dg)


def polar_basis_jets(coords, chart_kind):
    """Jets of the full kernel basis ``V^(0..n)`` and of the conformal
    Killing fields ``X^(i) = grad_b V^(i)`` in a polar chart."""
    n, shape = coords.shape[-1], coords.shape[:-1]
    radial, *angles = seed_variables(coords)
    r = seed_variables(coords[..., :1])[0]
    one = HyperDual.constant(1.0, n, shape)
    if ChartKind(chart_kind) == ChartKind.POLAR_GEODESIC:
        sh = hd.sinh(r)
        v0, radial_factor = hd.lift(radial, hd.cosh(r)), hd.lift(radial, sh)
        radial_inv, sph2 = one, hd.lift(radial, sh ** 2)
    else:
        r2 = r * r
        f0 = 1.0 + r2
        # b^rr as the reciprocal of the background's entry 1/f0, the
        # entry that basis_jets reads
        sph2 = hd.lift(radial, r2)
        radial_inv = one / hd.lift(radial, 1.0 / f0)
        v0, radial_factor = hd.lift(radial, hd.sqrt(f0)), radial
    u = sphere_embedding_chain(angles)
    scalars = [v0] + [ui * radial_factor for ui in u]
    binv = [radial_inv] + [one / (sph2 * s)
                           for s in round_sphere_diag_chain(angles, one)]
    return scalars, [gradient_field(V, binv) for V in scalars]


def gradient_field(vjet: HyperDual, binv) -> VectorJet:
    """``X = grad_b V`` from the jet of V and the list of diagonal entries
    of ``b^{-1}``, written one column per entry."""
    shape, n = vjet.grad.shape[:-1], len(binv)
    comp = np.zeros(shape + (n,))
    for j, entry in enumerate(binv):
        comp[..., j] = entry.val * vjet.grad[..., j]
    d = np.zeros(shape + (n, n))
    for j, entry in enumerate(binv):
        # d_k X^j = (d_k binv_jj) dV_j + binv_jj Hess^{coord}_kj V
        d[..., :, j] = (entry.grad * vjet.grad[..., j][..., None]
                        + entry.val[..., None] * vjet.hess[..., :, j])
    return VectorJet(comp, d)


# ------------------------------------------------------ diagnostic sups
#
# Each reads the values of ``jets`` on a node pass of its own over the rule
# placed on S_r, as the diagnostics did before the charge pass returned them.

def decay_sup(spec, r, rule):
    """Sup over S_r of the frame-rescaled deviation ``|eps_ij| / sqrt(b_ii
    b_jj)``."""
    def frame_sup(points):
        _, b, eps = jets(spec, points)
        bdiag = np.sqrt(b.val)
        frame = eps.value / (bdiag[..., :, None] * bdiag[..., None, :])
        return np.abs(frame).max(axis=(-2, -1))
    points = _sphere_points(r, rule, spec.chart_kind)
    return _evaluate(frame_sup, points)[0].max()


def scal_sup(spec, r, rule):
    """Sup over S_r of ``|Scal - Scal_b| dA_b``."""
    chart = spec.chart_kind
    scal_b = 0.0 if spec.is_flat_type else -spec.n * (spec.n - 1)

    def weighted(points):
        scal = curvature(jets(spec, points)[0]).scal
        return np.abs(scal - scal_b) * sphere_normal_area(points, chart, r)[1]
    return _evaluate(weighted, _sphere_points(r, rule, chart))[0].max()


def odd_sup(spec, r, rule):
    """Sup over S_r of the odd part ``(g(x) - g(-x)) / 2`` of a cartesian
    metric, entry by entry."""
    def odd(points):
        godd = 0.5 * (jets(spec, points)[0].g - jets(spec, -points)[0].g)
        return np.abs(godd).max(axis=(-2, -1))
    points = _sphere_points(r, rule, ChartKind.CARTESIAN)
    return _evaluate(odd, points)[0].max()


# ------------------------------------------------------------------ printer

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_text(node) -> str:
    """Print an AST; ``parse(to_text(ast))`` is structurally identical to ``ast``."""
    return _print(node, 0)


def _print(node, parent_prec):
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Call):
        return f"{node.fn}({_print(node.arg, 0)})"
    if isinstance(node, Unary):
        inner = _print(node.arg, _PREC["neg"])
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PREC["neg"] else text
    if isinstance(node, Bin):
        prec = _PREC[node.op]
        if node.op == "^":
            left = _print(node.left, prec + 1)
            right = _print(node.right, prec)
        else:
            left = _print(node.left, prec)
            # - and / are left-associative: force parens on same-prec right child
            right = _print(node.right, prec + 1)
        text = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"not an AST node: {node!r}")
