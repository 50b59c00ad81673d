"""Pointwise tensor calculus on metric 2-jets.

Conventions used throughout the package:

* all tensors are stored fully covariant; indices are raised on demand with
  the inverse metric,
* ``dg[..., k, i, j]`` is the coordinate derivative ``d_k g_ij`` and
  ``ddg[..., k, l, i, j]`` is ``d_k d_l g_ij``,
* the divergence ``delta`` on vectors is MINUS the covariant divergence
  (so the Euclidean dilation field has divergence -n).

Every operation accepts arbitrary leading batch dimensions and is a pure
function of its inputs.  The operators on a metric read the node's
:class:`CurvatureBundle`, which the caller computes once per node; none of
them re-derives ``g^{-1}`` or the Christoffel symbols.  The backgrounds of
the charge integrand are diagonal and take their own closed forms
(``charges._michel_pieces``).

A scalar field comes as the :class:`~asymflux.hyperdual.HyperDual` that
computed it (``val``, ``grad``, ``hess``), a vector field as a
:class:`VectorJet` and a symmetric 2-tensor as a :class:`SymTensorJet`.
A metric comes as one of three jets, and :func:`curvature` takes each its
own way:

* a :class:`ConformalJet`, ``g = e^{2 phi} delta`` in the cartesian chart
  (the flat catalog kinds, ``euclidean`` and ``schwarzschild_conformal``),
  holds only the 2-jet of ``2 phi``.  Its curvature is the closed form of
  the conformal change (Besse, *Einstein Manifolds*, 1987, section 1.J;
  Lee & Parker, Bull. AMS 17, 1987) at O(n^2) per node: no factorization,
  no n^4 array, and Christoffel symbols only where a check reads them;
* a :class:`WarpedJet`, ``g = drho^2 / f + rho^2 sigma`` over the round
  sphere in a polar chart (the polar catalog kinds, ``hyperbolic_polar``,
  ``hyperbolic_area`` and ``kottler``), holds its diagonal entries and
  the radial profile ``h = f - (1 + rho^2)``.  Every background is
  Einstein, so ``Ric + (n-1) g`` is linear in ``h``, and its curvature is
  that closed form at O(n) per node: the modified Einstein tensor comes
  without subtracting terms of order 1, exactly 0 on the backgrounds;
* a dense :class:`MetricJet` (expression metrics) is factored and takes
  the general formula below at O(n^4) per node.  On a hyperbolic-type
  expression metric ``Ric ~ -(n-1) g`` is of order 1, and the modified
  Einstein tensor keeps only the digits its subtraction leaves.

Per-node linear algebra is laid out along the node axis, by one rule:

* scalar recurrences over matrix entries (the factorization of ``g``) run
  with the node axis innermost, one vector operation over all nodes per
  entry;
* contractions run as stacked matmuls: a trailing index pair ``(i, j)`` is
  reshaped into one axis of length ``n*n`` so that each contraction against
  ``g^{-1}`` is one ``@`` over the batch, and traces and short sums add
  one entry at a time (:func:`sum_last`, :func:`diagonal_sum`);
* no ``np.einsum`` and no batched LAPACK call on the sphere pass, whose
  small matrices would pay a call or a loop setup per node.

On a dense jet :func:`curvature` never builds ``dGamma`` (O(n^5) per node).
Ricci needs only two traces of it, and both come from the 2-jet at O(n^4)
per node: ``d_k Gamma^k_ij`` from the contractions ``g^{kl} d_k d_i g_jl``
and ``g^{kl} d_k d_l g_ij`` and the trace ``d_k g^{kl}`` of ``d g^{-1}``,
and ``d_i Gamma^k_kj`` from ``g^{kl} d_i d_j g_kl`` and ``tr(g^{-1} d_i g
g^{-1} d_j g)``.  Taking these traces before contracting factors the sums
of the textbook formula, so Ricci differs from the traces of the full
``dGamma`` by roundoff (a few 1e-16 of ``max|Ric|``), also on diagonal
metrics.  The package has no full ``dGamma``; the tests keep one as an
oracle.  The classical charges never call :func:`curvature`.

One Cholesky factorization ``g = l D l^T`` per node of a dense jet, run on
the node axis (:func:`_factor`), checks that the metric is positive
definite and gives ``g^{-1}`` and ``sqrt(det g)``, the product of the
Cholesky factor's diagonal ``sqrt(D_j)``; :func:`curvature` carries both on
the bundle, the latter for the metric area and volume elements, which
therefore differ from an LU determinant by ulps.  A conformal jet's check
is on ``e^{2 phi}``, with ``g^{-1} = e^{-2 phi} delta`` and ``sqrt(det g)
= e^{n phi}``; a warped jet's is on each diagonal entry, with ``g^{-1} =
1/g_ii`` and ``sqrt(det g)`` the product of ``sqrt(g_ii)``, the numbers
the factorization writes on a diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DegenerateMetricError
from .hyperdual import HyperDual

__all__ = [
    "ChartKind", "MetricJet", "ConformalJet", "WarpedJet", "VectorJet",
    "SymTensorJet", "CurvatureBundle", "validate_dimension", "inverse_metric",
    "christoffel", "curvature", "divergence_vector", "killing_operator",
    "hessian", "tensor_norm", "sum_last", "diagonal_sum", "trace_product",
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
class ConformalJet:
    """A conformally flat metric ``g = e^{2 phi} delta`` of the cartesian
    chart, held as the hyper-dual of ``2 phi = log g_11``.

    :func:`curvature` reads ``log_factor`` alone.  The dense ``g``, ``dg``
    and ``ddg`` of a :class:`MetricJet` are built on first read: ``verify``
    reads ``g`` and ``dg``, and all three give the dense jet on which the
    general formula can be compared; the charge pass reads none of them."""

    log_factor: HyperDual       # 2 phi: val (...,), grad (..., n), hess

    @property
    def n(self) -> int:
        return self.log_factor.grad.shape[-1]

    @cached_property
    def g(self) -> np.ndarray:
        return _on_diagonal(np.exp(self.log_factor.val), self.n)

    @cached_property
    def dg(self) -> np.ndarray:
        # d_k g_ii = e^{2 phi} d_k (2 phi)
        two_phi = self.log_factor
        return _on_diagonal(np.exp(two_phi.val)[..., None] * two_phi.grad,
                            self.n)

    @cached_property
    def ddg(self) -> np.ndarray:
        # d_k d_l g_ii = e^{2 phi} (d_k d_l (2 phi) + d_k (2 phi) d_l (2 phi))
        two_phi = self.log_factor
        second = two_phi.hess + (two_phi.grad[..., :, None]
                                 * two_phi.grad[..., None, :])
        return _on_diagonal(np.exp(two_phi.val)[..., None, None] * second,
                            self.n)


def _on_diagonal(entry: np.ndarray, n: int) -> np.ndarray:
    """``entry[..., None, None] * delta``: one value on the diagonal of a
    trailing ``(i, j)`` pair."""
    return entry[..., None, None] * np.eye(n)


def _diagonal(entries: np.ndarray) -> np.ndarray:
    """``entries[..., i] delta_ij``: the last axis, one entry per index,
    written to the diagonal of a trailing ``(i, j)`` pair of zeros (one
    strided copy, not a broadcast product with ``delta``)."""
    n = entries.shape[-1]
    out = np.zeros(entries.shape + (n,))
    out.reshape(*entries.shape[:-1], n * n)[..., ::n + 1] = entries
    return out


@dataclass
class WarpedJet:
    """A diagonal warped product ``g = drho^2 / f + rho^2 sigma`` over the
    round sphere ``sigma``, in a polar chart, held as its diagonal entries
    and its radial profile.

    ``diag`` holds the hyper-dual of each ``g_ii``; ``rho`` is the warping
    radius at each node (the area chart's coordinate, ``sinh r`` in the
    geodesic chart), ``h = f - (1 + rho^2)`` the deviation of ``f =
    |d rho|_g^2`` from the hyperbolic background's and ``dh`` its
    derivative in ``rho`` (both 0 on the backgrounds).  :func:`curvature`
    reads ``g``, built from the values of ``diag``, and the profile alone;
    ``dg`` and ``ddg``, which the charge pass never reads, are built from
    the entries' gradients and Hessians on first read."""

    diag: list                  # n HyperDuals, g_ii: val (...,), grad, hess
    rho: np.ndarray             # (...,)
    h: np.ndarray | float       # (...,) or 0
    dh: np.ndarray | float      # (...,) or 0

    @property
    def n(self) -> int:
        return len(self.diag)

    @cached_property
    def g(self) -> np.ndarray:
        return _diagonal(np.stack([e.val for e in self.diag], axis=-1))

    @cached_property
    def dg(self) -> np.ndarray:
        # dg[..., k, i, i] = d_k g_ii
        return _diagonal(np.stack([e.grad for e in self.diag], axis=-1))

    @cached_property
    def ddg(self) -> np.ndarray:
        # ddg[..., k, l, i, i] = d_k d_l g_ii
        return _diagonal(np.stack([e.hess for e in self.diag], axis=-1))


@dataclass
class CurvatureBundle:
    """Christoffel symbols and Ricci-level curvature at a point.

    ``symbols`` holds the Christoffel array or, for a conformal or warped
    jet, a function that builds it: :attr:`christoffel` calls it on first
    read, so a pass that reads no symbols (the charge pass) allocates
    none."""

    symbols: object                 # Gamma, or a function returning it
    ricci: np.ndarray               # (..., n, n)
    scal: np.ndarray                # (...,)
    einstein: np.ndarray            # Ric - Scal/2 g
    modified_einstein: np.ndarray   # einstein - (n-1)(n-2)/2 g
    ginv: np.ndarray                # (..., n, n)
    sqrt_det: np.ndarray            # (...,); sqrt(det g)

    @property
    def christoffel(self) -> np.ndarray:
        """(..., n, n, n); ``[..., k, i, j] = Gamma^k_ij``."""
        if callable(self.symbols):
            self.symbols = self.symbols()
        return self.symbols


def inverse_metric(g: np.ndarray) -> np.ndarray:
    """Inverse of a batch of metric matrices, which must be positive definite."""
    return _factor(g)[0]


def _factor(g):
    """``(g^{-1}, sqrt(det g))`` from one Cholesky factorization per node.

    The factorization is the square-root-free one, ``g = l D l^T`` with
    ``l`` unit lower triangular, whose Cholesky factor is ``L = l D^{1/2}``.
    Its recurrences run over the matrix entries with the node axis
    innermost: one contiguous ``(n, n, N)`` copy of ``g`` becomes ``l`` and
    ``D`` column by column, then ``W = l^{-1}`` row by row and ``g^{-1} =
    W^T D^{-1} W``, each step one vector operation over all N nodes.  A
    pivot ``D_j`` that is not a positive finite number (NaN included)
    raises, so the factorization is the definiteness check, and
    ``sqrt(det g)`` is the product of the diagonal of ``L``,
    ``sqrt(D_j)``.  ``g^{-1}`` is exactly symmetric, and on a diagonal
    metric it is ``1/g_jj`` correctly rounded.
    """
    g = np.asarray(g, dtype=float)
    n, batch = g.shape[-1], g.shape[:-2]
    a = np.moveaxis(g.reshape(-1, n, n), 0, -1).copy()    # a[i, j] = g_ij
    for j in range(n):                  # a[j, j] = D_j, a[i > j, j] = l_ij
        for k in range(j):
            a[j:, j] -= a[j:, k] * (a[j, k] * a[k, k])
        pivot = a[j, j]
        if not np.all((pivot > 0) & (pivot < np.inf)):
            raise DegenerateMetricError(
                "metric matrix is singular or not positive definite")
        a[j + 1:, j] /= pivot
    sqrt_det = np.sqrt(a[0, 0])
    for j in range(1, n):
        sqrt_det *= np.sqrt(a[j, j])
    W = np.zeros_like(a)                # unit lower triangular l^{-1}
    for i in range(n):
        W[i, i] = 1.0
        for k in range(i):
            W[i, :i] -= a[i, k] * W[k, :i]
    inv = np.empty_like(a)
    for j in range(n):
        inv[:j + 1, j] = W[j, :j + 1] / a[j, j]
        for k in range(j + 1, n):
            inv[:j + 1, j] += W[k, :j + 1] * (W[k, j] / a[k, k])
        inv[j, :j] = inv[:j, j]
    ginv = np.ascontiguousarray(np.moveaxis(inv, -1, 0)).reshape(*batch, n, n)
    return ginv, sqrt_det.reshape(batch)


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


def curvature(jet: MetricJet | ConformalJet | WarpedJet) -> CurvatureBundle:
    """Ricci tensor, scalar curvature and (modified) Einstein tensor.

    A :class:`ConformalJet` and a :class:`WarpedJet` take their closed
    forms (:func:`_conformal_curvature`, :func:`_warped_curvature`).  On a
    dense jet, ``Ric_ij = d_k Gamma^k_ij - d_i Gamma^k_kj + Gamma^k_kl
    Gamma^l_ij - Gamma^k_il Gamma^l_kj`` needs only two traces of
    ``dGamma``, both taken from the 2-jet at O(n^4) per node:

    * ``d_k Gamma^k_ij = (v^l A_lij + B_ij + B_ji - C_ij) / 2`` with
      ``v^l = d_k g^{kl}``, ``B_ij = g^{kl} d_k d_i g_jl`` and
      ``C_ij = g^{kl} d_k d_l g_ij``;
    * ``d_i Gamma^k_kj = (D_ij - tr(M_i M_j)) / 2`` with
      ``D_ij = g^{kl} d_i d_j g_kl`` and ``M_m = g^{-1} d_m g``.

    Every contraction is a stacked matmul over the batch and the traces
    are :func:`diagonal_sum`; ``g^{-1}`` and ``sqrt(det g)`` come from
    :func:`_factor`.

    Memory: ``ddg`` is read through reshaped views, so it must be
    C-contiguous, as the one-block jets of ``catalog`` are.  The O(n^3)
    temporaries live one group at a time (``M``, then ``A``), so a chunk
    peaks below twice its jet block, under glibc's dynamic trim threshold;
    above it every chunk faults its memory in again (quadrature module
    notes).
    """
    if isinstance(jet, ConformalJet):
        return _conformal_curvature(jet)
    if isinstance(jet, WarpedJet):
        return _warped_curvature(jet)
    n = jet.n
    batch = jet.g.shape[:-2]
    ginv, sqrt_det = _factor(jet.g)
    g_row = ginv.reshape(*batch, 1, n * n)            # g^{kl} as one row

    def square(T):                                    # n*n entries -> (n, n)
        return T.reshape(*batch, n, n)

    M = ginv[..., None, :, :] @ jet.dg                # [..., m] = M_m
    v = -(diagonal_sum(M, -3, -2)[..., None, :] @ ginv)
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
    trace = diagonal_sum(Gamma, -3, -2)[..., None, :]
    ric += square(trace @ _pairs_flat(Gamma))
    S = np.ascontiguousarray(Gamma.swapaxes(-3, -2))  # [..., i, k, l] = Gamma^k_il
    ric -= S.reshape(*batch, n, n * n) @ S.reshape(*batch, n * n, n)
    scal = trace_product(ginv, ric)
    einstein = ric - 0.5 * scal[..., None, None] * jet.g
    modified = einstein - 0.5 * (n - 1) * (n - 2) * jet.g
    return CurvatureBundle(Gamma, ric, scal, einstein, modified, ginv,
                           sqrt_det)


def _conformal_curvature(jet: ConformalJet) -> CurvatureBundle:
    """The curvature of ``g = e^{2 phi} delta`` from the 2-jet of ``phi``,
    at O(n^2) per node.  With ``P = d^2 phi - d phi (x) d phi``::

        Ric  = -(n-2) P - (lap phi + (n-2) |d phi|^2) delta
        Scal = -e^{-2 phi} (2(n-1) lap phi + (n-1)(n-2) |d phi|^2)
        G    = -(n-2) (P - (lap phi + (n-3)/2 |d phi|^2) delta)

    (``lap`` and ``| |`` Euclidean), ``g^{-1} = e^{-2 phi} delta`` and
    ``sqrt(det g) = e^{n phi}``.  A factor ``e^{2 phi}`` that is not a
    positive finite number raises, as a failed factorization does.  The
    Christoffel symbols are left to :func:`_conformal_christoffel`, on
    first read."""
    n = jet.n
    two_phi = jet.log_factor
    factor = np.exp(two_phi.val)
    if not np.all((factor > 0) & (factor < np.inf)):
        raise DegenerateMetricError(
            "conformal factor is not a positive finite number")
    dphi = 0.5 * two_phi.grad
    lap = 0.5 * diagonal_sum(two_phi.hess, -2, -1)
    norm2 = sum_last(dphi * dphi)
    P = 0.5 * two_phi.hess - dphi[..., :, None] * dphi[..., None, :]
    ric = -(n - 2) * P - _on_diagonal(lap + (n - 2) * norm2, n)
    scal = -(2 * (n - 1) * lap + (n - 1) * (n - 2) * norm2) / factor
    einstein = -(n - 2) * (P - _on_diagonal(lap + 0.5 * (n - 3) * norm2, n))
    modified = einstein - _on_diagonal(0.5 * (n - 1) * (n - 2) * factor, n)
    return CurvatureBundle(lambda: _conformal_christoffel(dphi), ric, scal,
                           einstein, modified, _on_diagonal(1.0 / factor, n),
                           np.exp((0.5 * n) * two_phi.val))


def _warped_curvature(jet: WarpedJet) -> CurvatureBundle:
    """The curvature of ``g = drho^2 / f + rho^2 sigma`` from its diagonal
    and radial profile, at O(n) per node.  Every background is Einstein,
    so ``E = Ric + (n-1) g`` is linear in ``h = f - (1 + rho^2)``; in the
    orthonormal frame it is diagonal, with::

        E_rr = -(n-1) h' / (2 rho)
        E_aa = -h' / (2 rho) - (n-2) h / rho^2     (each angle)

    so the modified Einstein tensor ``G - (n-1)(n-2)/2 g`` is ``E - tr_g(E)
    g / 2``, with ``Scal = -n(n-1) + tr_g E``.  No term of order 1
    cancels: ``E`` is exactly 0 on the backgrounds, and on Kottler (``h =
    -2m rho^(2-n)``) ``E_rr = -(n-1)(n-2) m rho^-n``, ``E_aa = (n-2) m
    rho^-n`` and ``tr_g E`` is 0 up to roundoff.  The frame components
    times ``g_ii`` are the coordinate ones; ``g^{-1} = 1/g_ii`` and
    ``sqrt(det g)`` is the product of ``sqrt(g_ii)`` in index order, the
    numbers :func:`_factor` writes on a diagonal.  A diagonal entry that
    is not a positive finite number raises, as a failed factorization
    does.  The Christoffel symbols are built from ``dg`` on first read."""
    n = jet.n
    gii = np.diagonal(jet.g, axis1=-2, axis2=-1)
    if not np.all((gii > 0) & (gii < np.inf)):
        raise DegenerateMetricError(
            "metric diagonal entry is not a positive finite number")
    half_slope = jet.dh / (2.0 * jet.rho)
    frame = np.empty(gii.shape)
    frame[..., 0] = -(n - 1) * half_slope
    frame[..., 1:] = (-half_slope - (n - 2) * jet.h / jet.rho ** 2)[..., None]
    trace = frame[..., 0] + (n - 1) * frame[..., 1]
    modified = frame - 0.5 * trace[..., None]
    sqrt_det = np.sqrt(gii[..., 0])
    for j in range(1, n):
        sqrt_det *= np.sqrt(gii[..., j])
    ginv = _diagonal(1.0 / gii)
    return CurvatureBundle(
        lambda: _christoffel(ginv, _first_kind(jet.dg)),
        _diagonal((frame - (n - 1)) * gii), trace - n * (n - 1),
        _diagonal((modified + 0.5 * (n - 1) * (n - 2)) * gii),
        _diagonal(modified * gii), ginv, sqrt_det)


def _conformal_christoffel(dphi: np.ndarray) -> np.ndarray:
    """``Gamma^k_ij = delta_ki d_j phi + delta_kj d_i phi - delta_ij d_k
    phi`` of ``g = e^{2 phi} delta``."""
    eye = np.eye(dphi.shape[-1])
    gamma = eye[:, :, None] * dphi[..., None, None, :]
    gamma += eye[:, None, :] * dphi[..., None, :, None]
    gamma -= eye * dphi[..., :, None, None]
    return gamma


def sum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, one vector add per entry in index order (a
    numpy reduction over a short axis pays a loop call per node)."""
    total = x[..., 0].copy()
    for k in range(1, x.shape[-1]):
        total += x[..., k]
    return total


def diagonal_sum(T: np.ndarray, axis1: int, axis2: int) -> np.ndarray:
    """The trace of ``T`` over two axes, by :func:`sum_last`."""
    return sum_last(np.diagonal(T, axis1=axis1, axis2=axis2))


def trace_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A_ij B_ij`` summed over both indices (``g^{ij} T_ij`` with ``A =
    g^{-1}``): each row's sum, then the sum of the rows, in index order."""
    return sum_last(sum_last(A * B))


def _first_index(v, T):
    """``v_k T[..., k, i, j]``: ``v`` against the first of three indices."""
    n = T.shape[-1]
    return (v[..., None, :] @ _pairs_flat(T)).reshape(*v.shape[:-1], n, n)


def divergence_vector(X: VectorJet, bundle: CurvatureBundle) -> np.ndarray:
    """``delta^g X = -(d_i X^i + Gamma^i_ik X^k)`` (minus the covariant divergence)."""
    trace = diagonal_sum(bundle.christoffel, -3, -2)     # Gamma^i_ik
    return -(diagonal_sum(X.d, -2, -1) + sum_last(trace * X.comp))


def killing_operator(jet: MetricJet, X: VectorJet, bundle: CurvatureBundle):
    """Symmetrized covariant derivative of ``X`` and its trace-free part.

    Returns ``(sym, tracefree)`` with ``sym_ij = (grad_i X_j + grad_j X_i)/2``
    and ``tracefree = sym + (delta^g X / n) g``.
    """
    Xcov = (jet.g @ X.comp[..., None])[..., 0]
    # d_i X_j = d_i g_jk X^k + g_jk d_i X^k, minus Gamma^k_ij X_k
    nabla = (jet.dg @ X.comp[..., None, :, None])[..., 0]
    nabla += X.d @ jet.g.swapaxes(-1, -2)
    nabla -= _first_index(Xcov, bundle.christoffel)
    sym = 0.5 * (nabla + nabla.swapaxes(-1, -2))
    divX = divergence_vector(X, bundle)
    tracefree = sym + (divX / jet.n)[..., None, None] * jet.g
    return sym, tracefree


def hessian(V: HyperDual, bundle: CurvatureBundle) -> np.ndarray:
    """Covariant Hessian ``Hess V_ij = d_i d_j V - Gamma^k_ij d_k V``."""
    return V.hess - _first_index(V.grad, bundle.christoffel)


def tensor_norm(ginv: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Metric norm ``sqrt(g^{ik} g^{jl} T_ij T_kl)`` of a covariant 2-tensor:
    ``T`` raised on both indices by two matmuls, then summed against ``T``."""
    sq = trace_product(ginv @ T @ ginv, T)
    return np.sqrt(np.maximum(sq, 0.0))
