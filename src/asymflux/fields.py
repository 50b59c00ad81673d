"""Kernel functions and conformal Killing fields of the model geometries.

Flat chart (cartesian):

* kernel of the adjoint linearized scalar curvature operator: affine
  functions; we carry the basis ``1, x^1, ..., x^n``,
* conformal Killing fields: the dilation ``x^i d_i`` and the inverted
  translations ``r^2 d_alpha - 2 x^alpha x^i d_i``.

Hyperbolic charts: the kernel is spanned by ``cosh r`` and
``u^alpha sinh r`` (``u`` the unit-sphere embedding); the matching conformal
Killing fields are the metric gradients of these functions.

Each conformal Killing field X carries its paired kernel function V and the
constant c in ``delta^b X = c V``: -n for the dilation and the hyperbolic
gradients, 2n for the inverted translations.  :func:`kernel_basis` is read
off :func:`killing_basis`, and the analytic jet of ``delta^b X`` (used by
the kernel-identity verifier) is the scaled jet of V.

Kernel functions and fields are plain data: a basis index, which is the
only handle on an element, and an id, which only labels it.
:func:`killing_basis` builds every (V, X) pair from one table, and
:func:`basis_jets` evaluates any set of them at once, with exact jets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hyperdual as hd
from .catalog import (check_polar_domain, round_sphere_diag_hd,
                      sphere_embedding_hd)
from .errors import ChartMismatchError
from .geometry import ChartKind, ScalarJet, VectorJet
from .hyperdual import HyperDual, seed_variables

__all__ = ["KernelFunction", "ConformalKilling", "basis_jets", "kernel_basis",
           "killing_basis"]


@dataclass(frozen=True)
class KernelFunction:
    """Element ``V^(index)`` of ker (D Scal)*_b, ``index`` its position in
    :func:`kernel_basis`: flat ``1, x^1, ..., x^n``, hyperbolic ``V^(0..n)``."""

    id: str
    n: int
    chart_kind: ChartKind
    index: int

    def scalar_jet(self, p) -> ScalarJet:
        return basis_jets(p, [self], [])[0][0]


@dataclass(frozen=True)
class ConformalKilling:
    """Background conformal Killing field X with ``delta^b X = c V``, V = ``kernel``;
    the chart and ``kernel.index`` say which basis field X is."""

    id: str
    n: int
    chart_kind: ChartKind
    kernel: KernelFunction
    c: float

    def vector_jet(self, p) -> VectorJet:
        return basis_jets(p, [], [self])[1][0]

    def divergence_jet(self, p) -> ScalarJet:
        """Analytic jet of ``delta^b X`` (background divergence, paper sign)."""
        return self.kernel.scalar_jet(p).scaled(self.c)


def basis_jets(p, kernels, fields) -> tuple[list[ScalarJet], list[VectorJet]]:
    """Exact jets of kernel functions and conformal Killing fields at ``p``.

    One call evaluates the coordinates, the hyper-dual seeds, the sphere
    embedding and the background inverse once for every element, and each
    kernel jet once: the hyperbolic field ``X^(i) = grad_b V^(i)`` reads the
    jet of its paired ``V^(i)``.  Returns ``(kernel jets, field jets)`` in
    the order given.
    """
    elements = (*kernels, *fields)
    if not elements:
        return [], []
    n, chart_kind = elements[0].n, elements[0].chart_kind
    if any((e.n, e.chart_kind) != (n, chart_kind) for e in elements):
        raise ChartMismatchError("basis elements of different charts or dimensions")
    coords = np.asarray(p, dtype=float)
    if coords.shape[-1] != n:
        raise ChartMismatchError("coordinate count does not match dimension")
    if chart_kind == ChartKind.CARTESIAN:
        return ([_flat_kernel(coords, V.index) for V in kernels],
                [_flat_field(coords, X.kernel.index) for X in fields])

    check_polar_domain(coords)
    shape = coords.shape[:-1]
    variables = seed_variables(coords)
    radial, angles = variables[0], variables[1:]
    one = HyperDual.constant(1.0, n, shape)
    # V^(0), the radial factor of V^(i), and the radial parts of b^{-1}
    if chart_kind == ChartKind.POLAR_GEODESIC:
        v0, radial_factor = hd.cosh(radial), hd.sinh(radial)
        radial_inv, sph2 = one, radial_factor ** 2
    else:  # area chart: rho = sinh r
        sph2 = radial * radial
        radial_inv = 1.0 + sph2
        v0, radial_factor = hd.sqrt(radial_inv), radial
    indices = {V.index for V in kernels} | {X.kernel.index for X in fields}
    u = sphere_embedding_hd(angles) if indices - {0} else None
    vjets = {}
    for i in indices:
        x = v0 if i == 0 else u[i - 1] * radial_factor
        vjets[i] = ScalarJet(np.broadcast_to(x.val, shape),
                             np.broadcast_to(x.grad, shape + (n,)),
                             np.broadcast_to(x.hess, shape + (n, n)))
    vectors = []
    if fields:
        binv = [radial_inv] + [one / (sph2 * s)
                               for s in round_sphere_diag_hd(angles, one)]
        vectors = [_gradient_field(vjets[X.kernel.index], binv)
                   for X in fields]
    return [vjets[V.index] for V in kernels], vectors


# --------------------------------------------------------------- flat fields

def _flat_kernel(coords, index):
    """Jet of ``1`` (index 0) or of the coordinate ``x^(index-1)``."""
    n, shape = coords.shape[-1], coords.shape[:-1]
    if index == 0:
        return ScalarJet(np.ones(shape), np.zeros(shape + (n,)),
                         np.zeros(shape + (n, n)))
    alpha = index - 1
    grad = np.zeros(shape + (n,))
    grad[..., alpha] = 1.0
    return ScalarJet(coords[..., alpha].copy(), grad, np.zeros(shape + (n, n)))


def _flat_field(coords, index):
    """Jet of the dilation (index 0) or of the inverted translation along
    ``index - 1``."""
    n, shape = coords.shape[-1], coords.shape[:-1]
    if index == 0:
        d = np.broadcast_to(np.eye(n), shape + (n, n)).copy()
        return VectorJet(coords.copy(), d)
    alpha = index - 1
    e_alpha = np.eye(n)[alpha]
    r2 = np.einsum("...i,...i->...", coords, coords)
    xa = coords[..., alpha]
    comp = r2[..., None] * e_alpha - 2.0 * xa[..., None] * coords
    # d[..., j, i] = d_j X^i = 2 x_j delta_i^alpha - 2 delta_j^alpha x^i
    #                - 2 x^alpha delta_ij
    d = (2.0 * np.einsum("...j,i->...ji", coords, e_alpha)
         - 2.0 * np.einsum("j,...i->...ji", e_alpha, coords)
         - 2.0 * xa[..., None, None] * np.eye(n))
    return VectorJet(comp, d)


# --------------------------------------------------------- hyperbolic fields

def _gradient_field(vjet: ScalarJet, binv) -> VectorJet:
    """``X = grad_b V`` from the jet of V and the diagonal of ``b^{-1}``."""
    shape, n = vjet.grad.shape[:-1], len(binv)
    comp = np.zeros(shape + (n,))
    d = np.zeros(shape + (n, n))
    for j, bj in enumerate(binv):
        comp[..., j] = bj.val * vjet.grad[..., j]
        # d_k X^j = (d_k binv_jj) dV_j + binv_jj Hess^{coord}_kj V
        d[..., :, j] = (bj.grad * vjet.grad[..., j][..., None]
                        + bj.val[..., None] * vjet.hess[..., :, j])
    return VectorJet(comp, d)


# --------------------------------------------------------------------- bases

def kernel_basis(n: int, chart_kind: ChartKind | str) -> list[KernelFunction]:
    """The (n+1)-element kernel basis for the chart's background, paired
    index-by-index with :func:`killing_basis`."""
    return [X.kernel for X in killing_basis(n, chart_kind)]


def killing_basis(n: int, chart_kind: ChartKind | str) -> list[ConformalKilling]:
    """The (n+1) conformal Killing fields for the chart's background, each
    carrying the kernel function of the same index and its constant c."""
    chart_kind = ChartKind(chart_kind)
    if chart_kind == ChartKind.CARTESIAN:
        table = [("const_one", "dilation", -n)] + [
            (f"coordinate_{a}", f"inverted_translation_{a}", 2 * n)
            for a in range(n)]
    else:
        table = [(f"ah_V{i}", f"ah_X{i}", -n) for i in range(n + 1)]
    return [ConformalKilling(x_id, n, chart_kind,
                             KernelFunction(v_id, n, chart_kind, index),
                             float(c))
            for index, (v_id, x_id, c) in enumerate(table)]
