"""Kernel functions and conformal Killing fields of the model geometries.

Flat chart (cartesian):

* kernel of the adjoint linearized scalar curvature operator: affine
  functions; we carry the basis ``1, x^1, ..., x^n``,
* conformal Killing fields: the dilation ``x^i d_i`` and the inverted
  translations ``r^2 d_alpha - 2 x^alpha x^i d_i``.

Hyperbolic charts: the kernel is spanned by ``cosh r`` and
``u^alpha sinh r`` (``u`` the unit-sphere embedding); the matching conformal
Killing fields are the metric gradients of these functions.

The basis index i is the only handle on an element: ``V^(i)`` is the
kernel function and ``X^(i)`` the conformal Killing field of index i, with
the constant c in ``delta^b X = c V``: -n for the dilation and the
hyperbolic gradients, 2n for the inverted translations.
:func:`basis_jets` takes the chart and two sequences of indices and
evaluates any set of elements at once, with exact jets: a kernel jet is
the :class:`~asymflux.hyperdual.HyperDual` that built it, a field a
:class:`~asymflux.geometry.VectorJet`.  Its ``order`` is what the reader
needs: the charge pass reads ``V``, ``dV`` and the components of ``X``
and asks for order 1 (no Hessian, no ``dX``); the Pohozaev and
kernel-identity checks read ``dX`` and ``Hess V`` and take order 2.
:func:`check_indices` is the one range check of an index.
:func:`killing_basis` is the table of the fields, one row per index with
an id, which only labels it, and c; the analytic jet of ``delta^b X`` (used
by the kernel-identity verifier) is c times the jet of V.  In the polar
charts ``V^(i) = u_i * sinh r`` and the entries ``1/(sinh^2 r sigma_j)`` of
``b^{-1}`` are separable products: each factor is a width-1 jet in one
coordinate, multiplied in by one sparse step
(:func:`~asymflux.hyperdual.mul_factor`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hyperdual as hd
from .catalog import (check_polar_domain, round_sphere_diag_hd,
                      sphere_embedding_hd)
from .geometry import ChartKind, VectorJet, sum_last
from .hyperdual import HyperDual

__all__ = ["ConformalKilling", "basis_jets", "check_indices", "killing_basis"]


@dataclass(frozen=True)
class ConformalKilling:
    """Row ``index`` of :func:`killing_basis`: the background conformal
    Killing field ``X^(index)`` of the chart, with ``delta^b X = c
    V^(index)``; ``id`` only labels it."""

    id: str
    n: int
    chart_kind: ChartKind
    index: int
    c: float

    def divergence_jet(self, p) -> HyperDual:
        """Analytic jet of ``delta^b X`` (background divergence, paper sign)."""
        (V,), _ = basis_jets(p, self.chart_kind, [self.index], [])
        # each part times c: ``c * V`` takes the product rule, whose sums
        # can flip the sign of a zero
        return HyperDual(self.c * V.val, self.c * V.grad, self.c * V.hess)


def check_indices(indices, n: int) -> list:
    """``indices`` as a list of basis indices in dimension ``n``; an index
    outside ``0..n`` is a ValueError that names it."""
    indices = list(indices)
    for i in indices:
        if not 0 <= i <= n:
            raise ValueError(f"basis index {i} outside 0..{n}")
    return indices


def basis_jets(p, chart_kind: ChartKind | str, kernels, fields,
               order: int = 2) -> tuple[list[HyperDual], list[VectorJet]]:
    """Exact jets at ``p`` of the kernel functions ``V^(i)``, i in
    ``kernels``, and of the conformal Killing fields ``X^(i)``, i in
    ``fields``, of the chart's background (:func:`check_indices`).

    At ``order`` 2 a kernel jet carries its Hessian and a field jet its
    derivatives ``d``; at ``order`` 1, all that a charge pass reads, the
    kernel jets are first-order hyper-duals and the field jets their
    components alone (``d`` None), with the values, gradients and
    components of order 2 bit for bit.

    One call evaluates the coordinates, the hyper-dual seeds, the sphere
    embedding and the background inverse once for every element, and each
    kernel jet once: the hyperbolic field ``X^(i) = grad_b V^(i)`` reads the
    jet of ``V^(i)`` and the first-order ``b^{-1}`` entries.  Returns
    ``(kernel jets, field jets)`` in the order given, the kernel jets as the
    hyper-duals that built them.
    """
    coords = np.asarray(p, dtype=float)
    n, chart_kind = coords.shape[-1], ChartKind(chart_kind)
    kernels, fields = check_indices(kernels, n), check_indices(fields, n)
    if chart_kind == ChartKind.CARTESIAN:
        return ([_flat_kernel(coords, i, order) for i in kernels],
                [_flat_field(coords, i, order) for i in fields])

    check_polar_domain(coords)
    shape = coords.shape[:-1]
    r, *angles = hd.one_variable_seeds(coords, order)
    one = HyperDual.constant(1.0, n, shape, order)
    # the b^{-1} entries are first-order at either order: the fields read
    # their values and gradients alone
    first = HyperDual.constant(1.0, n, shape, 1)
    # V^(0), the radial factor of V^(i) and the radial parts of b^{-1} are
    # one-variable jets in r; every product takes one factor per sparse step
    if chart_kind == ChartKind.POLAR_GEODESIC:
        sh = hd.sinh(r)
        v0, radial_factor = hd.mul_factor(one, hd.cosh(r), 0), sh
        radial_inv, sph2 = first, sh ** 2
    else:  # area chart: rho = sinh r
        r2 = r * r
        f0 = 1.0 + r2
        sph2, radial_inv = r2, hd.mul_factor(first, f0, 0)
        v0, radial_factor = hd.mul_factor(one, hd.sqrt(f0), 0), r
    indices = {*kernels, *fields}
    u = sphere_embedding_hd(angles, one) if indices - {0} else None
    vjets = {i: v0 if i == 0 else hd.mul_factor(u[i - 1], radial_factor, 0)
             for i in indices}
    vectors = []
    if fields:
        binv = [(e.val, e.grad) for e in [radial_inv] + [
            hd.reciprocal(hd.mul_factor(s, sph2, 0))
            for s in round_sphere_diag_hd(angles, first)]]
        vectors = [_gradient_field(vjets[i], binv) for i in fields]
    return [vjets[i] for i in kernels], vectors


# --------------------------------------------------------------- flat fields

def _flat_kernel(coords, index, order):
    """Jet of ``1`` (index 0) or of the coordinate ``x^(index-1)``, with a
    zero Hessian at ``order`` 2."""
    n, shape = coords.shape[-1], coords.shape[:-1]
    hess = np.zeros(shape + (n, n)) if order == 2 else None
    if index == 0:
        return HyperDual(np.ones(shape), np.zeros(shape + (n,)), hess)
    alpha = index - 1
    grad = np.zeros(shape + (n,))
    grad[..., alpha] = 1.0
    return HyperDual(coords[..., alpha].copy(), grad, hess)


def _flat_field(coords, index, order):
    """Jet of the dilation (index 0) or of the inverted translation along
    ``index - 1``; its components alone at ``order`` 1."""
    n, shape = coords.shape[-1], coords.shape[:-1]
    if index == 0:
        if order == 1:
            return VectorJet(coords.copy(), None)
        d = np.broadcast_to(np.eye(n), shape + (n, n)).copy()
        return VectorJet(coords.copy(), d)
    alpha = index - 1
    e_alpha = np.eye(n)[alpha]
    r2 = sum_last(coords * coords)
    xa = coords[..., alpha]
    comp = r2[..., None] * e_alpha - 2.0 * xa[..., None] * coords
    if order == 1:
        return VectorJet(comp, None)
    # d[..., j, i] = d_j X^i = 2 x_j delta_i^alpha - 2 delta_j^alpha x^i
    #                - 2 x^alpha delta_ij
    d = -2.0 * xa[..., None, None] * np.eye(n)
    d[..., :, alpha] += 2.0 * coords
    d[..., alpha, :] -= 2.0 * coords
    return VectorJet(comp, d)


# --------------------------------------------------------- hyperbolic fields

def _gradient_field(vjet: HyperDual, binv) -> VectorJet:
    """``X = grad_b V`` from the jet of V and the diagonal of ``b^{-1}``,
    one ``(value, gradient)`` pair per entry; its components alone when V
    is first-order."""
    shape, n = vjet.grad.shape[:-1], len(binv)
    comp = np.zeros(shape + (n,))
    for j, (value, _) in enumerate(binv):
        comp[..., j] = value * vjet.grad[..., j]
    if vjet.hess is None:
        return VectorJet(comp, None)
    d = np.zeros(shape + (n, n))
    for j, (value, grad) in enumerate(binv):
        # d_k X^j = (d_k binv_jj) dV_j + binv_jj Hess^{coord}_kj V
        d[..., :, j] = (grad * vjet.grad[..., j][..., None]
                        + value[..., None] * vjet.hess[..., :, j])
    return VectorJet(comp, d)


# --------------------------------------------------------------------- bases

def killing_basis(n: int, chart_kind: ChartKind | str) -> list[ConformalKilling]:
    """The (n+1) conformal Killing fields for the chart's background, one
    row per basis index, each with its constant c."""
    chart_kind = ChartKind(chart_kind)
    if chart_kind == ChartKind.CARTESIAN:
        table = [("dilation", -n)] + [
            (f"inverted_translation_{a}", 2 * n) for a in range(n)]
    else:
        table = [(f"ah_X{i}", -n) for i in range(n + 1)]
    return [ConformalKilling(x_id, n, chart_kind, index, float(c))
            for index, (x_id, c) in enumerate(table)]
