"""Reference formulas the tests compare the program against.

The program never calls these.  They are the classical ADM and center
integrands, the charge integrand from two full metric jets, the full
derivative of the Christoffel symbols, the adjoint linearized scalar
curvature, an expression printer whose text parses back to the same tree,
and a metric jet read as a symmetric 2-tensor.
"""

import numpy as np

from asymflux.charges import michel_integrand_deviation
from asymflux.expr import Bin, Call, Name, Num, Unary
from asymflux.geometry import (CurvatureBundle, MetricJet, ScalarJet,
                               SymTensorJet, _first_kind, _pairs_flat,
                               _pairs_last, hessian, inverse_derivative)


# --------------------------------------------------------------- integrands

def michel_integrand(V: ScalarJet, g_jet: MetricJet, b_jet: MetricJet,
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


def dscal_adjoint(jet: MetricJet, V: ScalarJet,
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
            - V.value[..., None, None] * bundle.ricci)


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
