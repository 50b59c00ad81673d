"""Pointwise tensor calculus on metric 2-jets.

Conventions used throughout the package:

* all tensors are stored fully covariant; indices are raised on demand with
  the inverse metric,
* ``dg[..., k, i, j]`` is the coordinate derivative ``d_k g_ij`` and
  ``ddg[..., k, l, i, j]`` is ``d_k d_l g_ij``,
* the divergence ``delta`` on vectors and symmetric 2-tensors is MINUS the
  covariant divergence (so the Euclidean dilation field has divergence -n),
* the Laplacian is the trace of the Hessian.

Every operation accepts arbitrary leading batch dimensions and is a pure
function of its inputs.

The curvature hot path (:func:`inverse_derivative`, :func:`christoffel`,
:func:`christoffel_derivative`) contracts with stacked matmuls: a trailing
index pair ``(i, j)`` is reshaped into one axis of length ``n*n`` so that
each contraction against ``g^{-1}`` or ``d g^{-1}`` is one ``@`` over the
batch.  A rewrite of these contractions may reorder a sum but must never
regroup a product or factor a sum (say, take a trace before contracting).
On a metric that is diagonal in its chart every such sum has exactly one
nonzero term, so the order of summation cannot change a bit and reports
stay byte-identical; regrouping a product can.  Accumulating in place
(``out += Q``, ``out *= 0.5``, ``dA -= ddg``) runs the same elementwise
operations in the same order as ``0.5 * (P + Q)`` and keeps every bit
while saving the temporaries; :func:`curvature` builds the first-kind
symbols once and shares them between Gamma and dGamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateMetricError

__all__ = [
    "ChartKind", "ChartPoint", "MetricJet", "ScalarJet", "VectorJet",
    "SymTensorJet", "CurvatureBundle", "validate_dimension", "inverse_metric",
    "inverse_derivative", "christoffel", "christoffel_derivative",
    "curvature", "divergence_vector", "divergence_symmetric2",
    "killing_operator", "hessian", "laplacian", "dscal_adjoint",
    "tensor_norm",
]


class ChartKind(str, Enum):
    CARTESIAN = "cartesian"
    POLAR_GEODESIC = "polar_geodesic"
    POLAR_AREA = "polar_area"


def validate_dimension(n: int) -> int:
    n = int(n)
    if n < 3:
        raise ValueError(f"ambient dimension must be >= 3, got {n}")
    return n


@dataclass(frozen=True)
class ChartPoint:
    """Point(s) in a chart: ``coords`` has shape ``(..., n)``."""

    coords: np.ndarray
    chart_kind: ChartKind

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))

    @property
    def n(self) -> int:
        return self.coords.shape[-1]


@dataclass
class ScalarJet:
    """Scalar field with exact coordinate gradient and Hessian."""

    value: np.ndarray   # (...,)
    grad: np.ndarray    # (..., n)
    hess: np.ndarray    # (..., n, n)

    def __neg__(self):
        return ScalarJet(-self.value, -self.grad, -self.hess)

    def scaled(self, c):
        return ScalarJet(c * self.value, c * self.grad, c * self.hess)


@dataclass
class VectorJet:
    """Contravariant vector field with first derivatives ``d[..., j, i] = d_j X^i``."""

    comp: np.ndarray    # (..., n)
    d: np.ndarray       # (..., n, n)


@dataclass
class SymTensorJet:
    """Covariant symmetric 2-tensor with first derivatives ``d[..., k, i, j] = d_k T_ij``."""

    value: np.ndarray   # (..., n, n)
    d: np.ndarray       # (..., n, n, n)


@dataclass
class MetricJet:
    """Metric components with exact first and second coordinate derivatives."""

    g: np.ndarray       # (..., n, n)
    dg: np.ndarray      # (..., n, n, n);    dg[..., k, i, j] = d_k g_ij
    ddg: np.ndarray     # (..., n, n, n, n); ddg[..., k, l, i, j] = d_k d_l g_ij
    point: ChartPoint

    @property
    def n(self) -> int:
        return self.g.shape[-1]

    def as_sym_tensor(self) -> SymTensorJet:
        return SymTensorJet(self.g, self.dg)


@dataclass
class CurvatureBundle:
    """Christoffel symbols and Ricci-level curvature at a point."""

    christoffel: np.ndarray         # (..., n, n, n); [..., k, i, j] = Gamma^k_ij
    ricci: np.ndarray               # (..., n, n)
    scal: np.ndarray                # (...,)
    einstein: np.ndarray            # Ric - Scal/2 g
    modified_einstein: np.ndarray   # einstein - (n-1)(n-2)/2 g
    ginv: np.ndarray                # (..., n, n)


def inverse_metric(g: np.ndarray) -> np.ndarray:
    """Inverse of a batch of metric matrices, which must be positive definite.

    The check is a Cholesky factorization.  ``cholesky`` raises for
    indefinite matrices but passes non-finite entries through as NaN
    factors, hence the finiteness test.
    """
    g = np.asarray(g, dtype=float)
    try:
        definite = bool(np.all(np.isfinite(np.linalg.cholesky(g))))
    except np.linalg.LinAlgError:
        definite = False
    if not definite:
        raise DegenerateMetricError("metric matrix is singular or not positive definite")
    return np.linalg.inv(g)


def inverse_derivative(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """``d_m g^{kl} = -(g^{-1} d_m g g^{-1})^{kl}`` as ``[..., m, k, l]``."""
    gi = ginv[..., None, :, :]
    return -((gi @ dg) @ gi)


def christoffel(jet: MetricJet, ginv: np.ndarray | None = None) -> np.ndarray:
    """Levi-Civita symbols ``Gamma^k_ij = g^{kl}(d_i g_jl + d_j g_il - d_l g_ij)/2``."""
    if ginv is None:
        ginv = inverse_metric(jet.g)
    return _christoffel(ginv, _first_kind(jet.dg))


def _christoffel(ginv, A):
    return 0.5 * _pairs_last(ginv @ _pairs_flat(A))


def _first_kind(dg):
    # A[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    di_gjl = np.moveaxis(dg, -1, -3)
    return di_gjl + di_gjl.swapaxes(-1, -2) - dg


def _pairs_flat(T):
    # [..., l, i, j] -> [..., l, i*j]: a trailing index pair as one matmul axis
    return T.reshape(*T.shape[:-2], -1)


def _pairs_last(T):
    # inverse of _pairs_flat: [..., k, i*j] -> [..., k, i, j]
    n = T.shape[-2]
    return T.reshape(*T.shape[:-1], n, n)


def christoffel_derivative(jet: MetricJet, ginv: np.ndarray,
                           A: np.ndarray | None = None) -> np.ndarray:
    """``dGamma[..., m, k, i, j] = d_m Gamma^k_ij`` from the exact 2-jet.

    ``A`` are the first-kind symbols of ``jet.dg`` if the caller has them.
    """
    dg, ddg = jet.dg, jet.ddg
    if A is None:
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


def curvature(jet: MetricJet) -> CurvatureBundle:
    """Ricci tensor, scalar curvature and (modified) Einstein tensor."""
    n = jet.n
    ginv = inverse_metric(jet.g)
    A = _first_kind(jet.dg)
    Gamma = _christoffel(ginv, A)
    dGamma = christoffel_derivative(jet, ginv, A)
    ric = (np.einsum("...kkij->...ij", dGamma)
           - np.einsum("...ikkj->...ij", dGamma)
           + np.einsum("...kkl,...lij->...ij", Gamma, Gamma)
           - np.einsum("...kil,...lkj->...ij", Gamma, Gamma))
    scal = np.einsum("...ij,...ij->...", ginv, ric)
    einstein = ric - 0.5 * scal[..., None, None] * jet.g
    modified = einstein - 0.5 * (n - 1) * (n - 2) * jet.g
    return CurvatureBundle(Gamma, ric, scal, einstein, modified, ginv)


def divergence_vector(jet: MetricJet, X: VectorJet,
                      bundle: CurvatureBundle | None = None) -> np.ndarray:
    """``delta^g X = -(d_i X^i + Gamma^i_ik X^k)`` (minus the covariant divergence)."""
    Gamma = bundle.christoffel if bundle is not None else christoffel(jet)
    return -(np.einsum("...ii->...", X.d)
             + np.einsum("...iik,...k->...", Gamma, X.comp))


def divergence_symmetric2(jet: MetricJet, T: SymTensorJet,
                          ginv: np.ndarray | None = None) -> np.ndarray:
    """One-form ``(delta^g T)_j = -grad^i T_ij`` (with the paper-side minus sign)."""
    if ginv is None:
        ginv = inverse_metric(jet.g)
    Gamma = christoffel(jet, ginv)
    covd = (T.d
            - np.einsum("...lki,...lj->...kij", Gamma, T.value)
            - np.einsum("...lkj,...il->...kij", Gamma, T.value))
    return -np.einsum("...ik,...kij->...j", ginv, covd)


def killing_operator(jet: MetricJet, X: VectorJet,
                     bundle: CurvatureBundle | None = None):
    """Symmetrized covariant derivative of ``X`` and its trace-free part.

    Returns ``(sym, tracefree)`` with ``sym_ij = (grad_i X_j + grad_j X_i)/2``
    and ``tracefree = sym + (delta^g X / n) g``.
    """
    n = jet.n
    if bundle is None:
        ginv = inverse_metric(jet.g)
        Gamma = christoffel(jet, ginv)
    else:
        ginv, Gamma = bundle.ginv, bundle.christoffel
    Xcov = np.einsum("...jk,...k->...j", jet.g, X.comp)
    dXcov = (np.einsum("...ijk,...k->...ij", jet.dg, X.comp)
             + np.einsum("...jk,...ik->...ij", jet.g, X.d))
    nabla = dXcov - np.einsum("...kij,...k->...ij", Gamma, Xcov)
    sym = 0.5 * (nabla + np.einsum("...ij->...ji", nabla))
    divX = -(np.einsum("...ii->...", X.d)
             + np.einsum("...iik,...k->...", Gamma, X.comp))
    tracefree = sym + (divX / n)[..., None, None] * jet.g
    return sym, tracefree


def hessian(jet: MetricJet, V: ScalarJet,
            bundle: CurvatureBundle | None = None) -> np.ndarray:
    """Covariant Hessian ``Hess V_ij = d_i d_j V - Gamma^k_ij d_k V``."""
    Gamma = bundle.christoffel if bundle is not None else christoffel(jet)
    return V.hess - np.einsum("...kij,...k->...ij", Gamma, V.grad)


def laplacian(jet: MetricJet, V: ScalarJet,
              bundle: CurvatureBundle | None = None) -> np.ndarray:
    """Trace-of-Hessian Laplacian (negative spectrum)."""
    if bundle is None:
        ginv = inverse_metric(jet.g)
        hess = hessian(jet, V)
    else:
        ginv = bundle.ginv
        hess = hessian(jet, V, bundle)
    return np.einsum("...ij,...ij->...", ginv, hess)


def dscal_adjoint(jet: MetricJet, V: ScalarJet,
                  bundle: CurvatureBundle | None = None) -> np.ndarray:
    """Adjoint linearized scalar curvature: ``Hess V + (Lap V) g - V Ric``.

    The Laplacian inside this operator carries the geometer's sign
    (minus the trace of the Hessian); that is the convention under which
    constants/affine functions (flat) and ``cosh r`` (hyperbolic) span the
    kernel, as required by the charge definitions.
    """
    if bundle is None:
        bundle = curvature(jet)
    hess = hessian(jet, V, bundle)
    lap = -np.einsum("...ij,...ij->...", bundle.ginv, hess)
    return (hess + lap[..., None, None] * jet.g
            - V.value[..., None, None] * bundle.ricci)


def tensor_norm(ginv: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Metric norm of a covariant symmetric 2-tensor."""
    sq = np.einsum("...ik,...jl,...ij,...kl->...", ginv, ginv, T, T)
    return np.sqrt(np.maximum(sq, 0.0))
