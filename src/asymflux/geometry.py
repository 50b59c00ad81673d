"""Pointwise tensor calculus on metric 2-jets.

Conventions used throughout the package:

* all tensors are stored fully covariant; indices are raised on demand with
  the inverse metric,
* ``dg[..., k, i, j]`` is the coordinate derivative ``d_k g_ij`` and
  ``ddg[..., k, l, i, j]`` is ``d_k d_l g_ij``,
* the divergence ``delta`` on vectors and symmetric 2-tensors is MINUS the
  covariant divergence (so the Euclidean dilation field has divergence -n).

Every operation accepts arbitrary leading batch dimensions and is a pure
function of its inputs.  The operators on a metric read the node's
:class:`CurvatureBundle` (or, for a background without one, its inverse),
which the caller computes once per node; none of them re-derives ``g^{-1}``
or the Christoffel symbols.

Contractions on the hot path are stacked matmuls: a trailing index pair
``(i, j)`` is reshaped into one axis of length ``n*n`` so that each
contraction against ``g^{-1}`` is one ``@`` over the batch.

:func:`curvature` never builds ``dGamma`` (O(n^5) per node).  Ricci needs
only two traces of it, and both come from the 2-jet at O(n^4) per node:
``d_k Gamma^k_ij`` from the contractions ``g^{kl} d_k d_i g_jl`` and
``g^{kl} d_k d_l g_ij`` and the trace ``d_k g^{kl}`` of ``d g^{-1}``, and
``d_i Gamma^k_kj`` from ``g^{kl} d_i d_j g_kl`` and ``tr(g^{-1} d_i g
g^{-1} d_j g)``.  Taking these traces before contracting factors the sums
of the textbook formula, so Ricci differs from the traces of the full
``dGamma`` by roundoff (a few 1e-16 of ``max|Ric|``), also on diagonal
metrics.  The package has no full ``dGamma``; the tests keep one as an
oracle.  The classical charges never call :func:`curvature`.

One Cholesky factorization per node checks that the metric is positive
definite and gives ``sqrt(det g)`` as the product of the factor's
diagonal; :func:`curvature` carries it on the bundle for the metric area
and volume elements, which therefore differ from an LU determinant by ulps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateMetricError

__all__ = [
    "ChartKind", "MetricJet", "ScalarJet", "VectorJet",
    "SymTensorJet", "CurvatureBundle", "validate_dimension", "inverse_metric",
    "inverse_derivative", "christoffel", "curvature", "divergence_vector",
    "divergence_symmetric2", "killing_operator", "hessian", "tensor_norm",
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


@dataclass
class ScalarJet:
    """Scalar field with exact coordinate gradient and Hessian."""

    value: np.ndarray   # (...,)
    grad: np.ndarray    # (..., n)
    hess: np.ndarray    # (..., n, n)

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

    @property
    def n(self) -> int:
        return self.g.shape[-1]


@dataclass
class CurvatureBundle:
    """Christoffel symbols and Ricci-level curvature at a point."""

    christoffel: np.ndarray         # (..., n, n, n); [..., k, i, j] = Gamma^k_ij
    ricci: np.ndarray               # (..., n, n)
    scal: np.ndarray                # (...,)
    einstein: np.ndarray            # Ric - Scal/2 g
    modified_einstein: np.ndarray   # einstein - (n-1)(n-2)/2 g
    ginv: np.ndarray                # (..., n, n)
    sqrt_det: np.ndarray            # (...,); sqrt(det g)


def inverse_metric(g: np.ndarray) -> np.ndarray:
    """Inverse of a batch of metric matrices, which must be positive definite."""
    return _factor(g)[0]


def _factor(g):
    """``(g^{-1}, sqrt(det g))`` from one Cholesky factorization ``g = L L^T``.

    The factorization is the definiteness check and ``sqrt(det g)`` is the
    product of the diagonal of ``L``.  ``cholesky`` raises for indefinite
    matrices but passes non-finite entries through as NaN factors, hence
    the finiteness test.
    """
    g = np.asarray(g, dtype=float)
    try:
        L = np.linalg.cholesky(g)
        definite = bool(np.all(np.isfinite(L)))
    except np.linalg.LinAlgError:
        definite = False
    if not definite:
        raise DegenerateMetricError("metric matrix is singular or not positive definite")
    return np.linalg.inv(g), np.prod(np.diagonal(L, axis1=-2, axis2=-1), axis=-1)


def inverse_derivative(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """``d_m g^{kl} = -(g^{-1} d_m g g^{-1})^{kl}`` as ``[..., m, k, l]``."""
    gi = ginv[..., None, :, :]
    return -((gi @ dg) @ gi)


def christoffel(jet: MetricJet, ginv: np.ndarray) -> np.ndarray:
    """Levi-Civita symbols ``Gamma^k_ij = g^{kl}(d_i g_jl + d_j g_il - d_l g_ij)/2``."""
    return _christoffel(ginv, _first_kind(jet.dg))


def _christoffel(ginv, A):
    out = ginv @ _pairs_flat(A)
    out *= 0.5
    return _pairs_last(out)


def _first_kind(dg):
    # A[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    di_gjl = np.moveaxis(dg, -1, -3)
    A = di_gjl + di_gjl.swapaxes(-1, -2)
    A -= dg
    return A


def _pairs_flat(T):
    # [..., l, i, j] -> [..., l, i*j]: a trailing index pair as one matmul axis
    return T.reshape(*T.shape[:-2], -1)


def _pairs_last(T):
    # inverse of _pairs_flat: [..., k, i*j] -> [..., k, i, j]
    n = T.shape[-2]
    return T.reshape(*T.shape[:-1], n, n)


def curvature(jet: MetricJet) -> CurvatureBundle:
    """Ricci tensor, scalar curvature and (modified) Einstein tensor.

    ``Ric_ij = d_k Gamma^k_ij - d_i Gamma^k_kj + Gamma^k_kl Gamma^l_ij
    - Gamma^k_il Gamma^l_kj`` needs only two traces of ``dGamma``, both
    taken from the 2-jet at O(n^4) per node:

    * ``d_k Gamma^k_ij = (v^l A_lij + B_ij + B_ji - C_ij) / 2`` with
      ``v^l = d_k g^{kl}``, ``B_ij = g^{kl} d_k d_i g_jl`` and
      ``C_ij = g^{kl} d_k d_l g_ij``;
    * ``d_i Gamma^k_kj = (D_ij - tr(M_i M_j)) / 2`` with
      ``D_ij = g^{kl} d_i d_j g_kl`` and ``M_m = g^{-1} d_m g``.

    Memory: ``ddg`` is read through reshaped views, so it must be
    C-contiguous, as the one-block jets of ``catalog`` are.  The O(n^3)
    temporaries live one group at a time (``M``, then ``A``), so a chunk
    peaks below twice its jet block, under glibc's dynamic trim threshold;
    above it every chunk faults its memory in again (quadrature module
    notes).
    """
    n = jet.n
    batch = jet.g.shape[:-2]
    ginv, sqrt_det = _factor(jet.g)
    g_row = ginv.reshape(*batch, 1, n * n)            # g^{kl} as one row

    def square(T):                                    # n*n entries -> (n, n)
        return T.reshape(*batch, n, n)

    M = ginv[..., None, :, :] @ jet.dg                # [..., m] = M_m
    v = -(np.einsum("...kka->...a", M)[..., None, :] @ ginv)
    M_t = M.swapaxes(-1, -2).reshape(*batch, n, n * n)
    trMM = _pairs_flat(M) @ M_t.swapaxes(-1, -2)     # tr(M_i M_j)
    del M, M_t
    # both derivative pairs of ddg are symmetric, so ddg[..., i, k, l, j] is
    # d_k d_i g_jl and B contracts g^{kl} with (k, l) as one matmul axis
    B = square(g_row[..., None, :, :] @ jet.ddg.reshape(*batch, n, n * n, n))
    pairs = jet.ddg.reshape(*batch, n * n, n * n)     # [..., (k, l), (i, j)]
    C = square(g_row @ pairs)
    D = square(pairs @ g_row.swapaxes(-1, -2))
    A = _first_kind(jet.dg)
    Gamma = _christoffel(ginv, A)
    # d_k Gamma^k_ij - d_i Gamma^k_kj
    ric = square(v @ _pairs_flat(A))
    del A
    ric += B
    ric += B.swapaxes(-1, -2)
    ric -= C
    ric -= D
    ric += trMM
    ric *= 0.5
    # + Gamma^k_kl Gamma^l_ij - Gamma^k_il Gamma^l_kj
    trace = np.einsum("...kkl->...l", Gamma)[..., None, :]
    ric += square(trace @ _pairs_flat(Gamma))
    S = np.ascontiguousarray(Gamma.swapaxes(-3, -2))  # [..., i, k, l] = Gamma^k_il
    ric -= S.reshape(*batch, n, n * n) @ S.reshape(*batch, n * n, n)
    scal = np.einsum("...ij,...ij->...", ginv, ric)
    einstein = ric - 0.5 * scal[..., None, None] * jet.g
    modified = einstein - 0.5 * (n - 1) * (n - 2) * jet.g
    return CurvatureBundle(Gamma, ric, scal, einstein, modified, ginv,
                           sqrt_det)


def divergence_vector(X: VectorJet, bundle: CurvatureBundle) -> np.ndarray:
    """``delta^g X = -(d_i X^i + Gamma^i_ik X^k)`` (minus the covariant divergence)."""
    return -(np.einsum("...ii->...", X.d)
             + np.einsum("...iik,...k->...", bundle.christoffel, X.comp))


def divergence_symmetric2(jet: MetricJet, T: SymTensorJet,
                          ginv: np.ndarray) -> np.ndarray:
    """One-form ``(delta^g T)_j = -grad^i T_ij`` (with the paper-side minus sign)."""
    Gamma = christoffel(jet, ginv)
    covd = (T.d
            - np.einsum("...lki,...lj->...kij", Gamma, T.value)
            - np.einsum("...lkj,...il->...kij", Gamma, T.value))
    return -np.einsum("...ik,...kij->...j", ginv, covd)


def killing_operator(jet: MetricJet, X: VectorJet, bundle: CurvatureBundle):
    """Symmetrized covariant derivative of ``X`` and its trace-free part.

    Returns ``(sym, tracefree)`` with ``sym_ij = (grad_i X_j + grad_j X_i)/2``
    and ``tracefree = sym + (delta^g X / n) g``.
    """
    Xcov = np.einsum("...jk,...k->...j", jet.g, X.comp)
    dXcov = (np.einsum("...ijk,...k->...ij", jet.dg, X.comp)
             + np.einsum("...jk,...ik->...ij", jet.g, X.d))
    nabla = dXcov - np.einsum("...kij,...k->...ij", bundle.christoffel, Xcov)
    sym = 0.5 * (nabla + np.einsum("...ij->...ji", nabla))
    divX = divergence_vector(X, bundle)
    tracefree = sym + (divX / jet.n)[..., None, None] * jet.g
    return sym, tracefree


def hessian(V: ScalarJet, bundle: CurvatureBundle) -> np.ndarray:
    """Covariant Hessian ``Hess V_ij = d_i d_j V - Gamma^k_ij d_k V``."""
    return V.hess - np.einsum("...kij,...k->...ij", bundle.christoffel, V.grad)


def tensor_norm(ginv: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Metric norm of a covariant symmetric 2-tensor."""
    sq = np.einsum("...ik,...jl,...ij,...kl->...", ginv, ginv, T, T)
    return np.sqrt(np.maximum(sq, 0.0))
