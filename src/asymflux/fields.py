"""Kernel functions and conformal Killing fields of the model geometries.

Flat chart (cartesian):

* kernel of the adjoint linearized scalar curvature operator: affine
  functions; we carry the basis ``1, x^1, ..., x^n``,
* conformal Killing fields: the dilation ``x^i d_i`` and the inverted
  translations ``r^2 d_alpha - 2 x^alpha x^i d_i``.

Hyperbolic charts: the kernel is spanned by ``cosh r`` and
``u^alpha sinh r`` (``u`` the unit-sphere embedding); the matching conformal
Killing fields are the metric gradients of these functions, which satisfy
``delta^b X = -n V`` for the divergence convention used here.

Each field evaluates exact jets via hyper-dual arithmetic, and each
conformal Killing field also exposes the analytic jet of its background
divergence (used by the kernel-identity verifier).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import hyperdual as hd
from .catalog import round_sphere_diag_hd, sphere_embedding_hd
from .errors import ChartMismatchError, DomainError
from .geometry import ChartKind, ChartPoint, ScalarJet, VectorJet
from .hyperdual import HyperDual, seed_variables

__all__ = ["KernelFunction", "ConformalKilling", "kernel_function",
           "conformal_killing", "kernel_basis", "killing_basis",
           "paired_killing_id", "FLAT_KERNEL_IDS", "FLAT_KILLING_IDS"]


@dataclass(frozen=True)
class KernelFunction:
    """Element of ker (D Scal)*_b with an exact jet evaluator."""

    id: str
    n: int
    chart_kind: ChartKind
    _eval: Callable

    def scalar_jet(self, p) -> ScalarJet:
        return self._eval(_coords(p, self.chart_kind, self.n))


@dataclass(frozen=True)
class ConformalKilling:
    """Background conformal Killing field with exact jet evaluators."""

    id: str
    n: int
    chart_kind: ChartKind
    _eval: Callable
    _div: Callable

    def vector_jet(self, p) -> VectorJet:
        return self._eval(_coords(p, self.chart_kind, self.n))

    def divergence_jet(self, p) -> ScalarJet:
        """Analytic jet of ``delta^b X`` (background divergence, paper sign)."""
        return self._div(_coords(p, self.chart_kind, self.n))


def _coords(p, chart_kind, n):
    if isinstance(p, ChartPoint):
        if p.chart_kind != chart_kind:
            raise ChartMismatchError(
                f"field defined in {chart_kind}, point in {p.chart_kind}")
        coords = p.coords
    else:
        coords = np.asarray(p, dtype=float)
    if coords.shape[-1] != n:
        raise ChartMismatchError("coordinate count does not match dimension")
    return coords


def _scalar_jet_from_hd(x: HyperDual, shape, n) -> ScalarJet:
    return ScalarJet(np.broadcast_to(x.val, shape),
                     np.broadcast_to(x.grad, shape + (n,)),
                     np.broadcast_to(x.hess, shape + (n, n)))


# --------------------------------------------------------------- flat fields

def _flat_const_one(n):
    def ev(coords):
        shape = coords.shape[:-1]
        return ScalarJet(np.ones(shape), np.zeros(shape + (n,)),
                         np.zeros(shape + (n, n)))
    return ev


def _flat_coordinate(n, alpha):
    def ev(coords):
        shape = coords.shape[:-1]
        grad = np.zeros(shape + (n,))
        grad[..., alpha] = 1.0
        return ScalarJet(coords[..., alpha].copy(), grad,
                         np.zeros(shape + (n, n)))
    return ev


def _flat_dilation(n):
    def ev(coords):
        shape = coords.shape[:-1]
        d = np.broadcast_to(np.eye(n), shape + (n, n)).copy()
        return VectorJet(coords.copy(), d)

    def div(coords):
        shape = coords.shape[:-1]
        return ScalarJet(np.full(shape, -float(n)), np.zeros(shape + (n,)),
                         np.zeros(shape + (n, n)))
    return ev, div


def _flat_inverted_translation(n, alpha):
    e_alpha = np.eye(n)[alpha]

    def ev(coords):
        shape = coords.shape[:-1]
        r2 = np.einsum("...i,...i->...", coords, coords)
        xa = coords[..., alpha]
        comp = r2[..., None] * e_alpha - 2.0 * xa[..., None] * coords
        # d[..., j, i] = d_j X^i = 2 x_j delta_i^alpha - 2 delta_j^alpha x^i
        #                - 2 x^alpha delta_ij
        d = (2.0 * np.einsum("...j,i->...ji", coords, e_alpha)
             - 2.0 * np.einsum("j,...i->...ji", e_alpha, coords)
             - 2.0 * xa[..., None, None] * np.eye(n))
        return VectorJet(comp, d)

    def div(coords):
        # delta^e X^{(alpha)} = 2 n x^alpha
        shape = coords.shape[:-1]
        grad = np.zeros(shape + (n,))
        grad[..., alpha] = 2.0 * n
        return ScalarJet(2.0 * n * coords[..., alpha], grad,
                         np.zeros(shape + (n, n)))
    return ev, div


# --------------------------------------------------------- hyperbolic fields

def _hyperbolic_kernel_hd(coords, chart_kind, index):
    """Hyper-dual kernel function V^{(index)} at polar coords."""
    if np.any(coords[..., 0] <= 0.0):
        raise DomainError("polar radial coordinate must be positive")
    variables = seed_variables(coords)
    radial, angles = variables[0], variables[1:]
    if chart_kind == ChartKind.POLAR_GEODESIC:
        v0 = hd.cosh(radial)
        radial_factor = hd.sinh(radial)
    else:  # area chart: rho = sinh r
        v0 = hd.sqrt(1.0 + radial * radial)
        radial_factor = radial
    if index == 0:
        return v0
    u = sphere_embedding_hd(angles)
    return u[index - 1] * radial_factor


def _hyperbolic_binv_diag(coords, chart_kind):
    """Diagonal of the inverse background metric, hyper-dual."""
    n = coords.shape[-1]
    variables = seed_variables(coords)
    radial, angles = variables[0], variables[1:]
    one = HyperDual.constant(1.0, n, coords.shape[:-1])
    sigma = round_sphere_diag_hd(angles, one)
    if chart_kind == ChartKind.POLAR_GEODESIC:
        radial_inv = one
        sph2 = hd.sinh(radial) ** 2
    else:
        radial_inv = 1.0 + radial * radial
        sph2 = radial * radial
    return [radial_inv] + [one / (sph2 * s) for s in sigma]


def _hyperbolic_killing(n, chart_kind, index):
    """Gradient field X = grad_b V^{(index)}; satisfies delta^b X = -n V."""

    def ev(coords):
        shape = coords.shape[:-1]
        vjet = _scalar_from_index(coords, chart_kind, index, n)
        binv = _hyperbolic_binv_diag(coords, chart_kind)
        comp = np.zeros(shape + (n,))
        d = np.zeros(shape + (n, n))
        for j in range(n):
            bj = binv[j]
            comp[..., j] = bj.val * vjet.grad[..., j]
            # d_k X^j = (d_k binv_jj) dV_j + binv_jj Hess^{coord}_kj V
            d[..., :, j] = (bj.grad * vjet.grad[..., j][..., None]
                            + bj.val[..., None] * vjet.hess[..., :, j])
        return VectorJet(comp, d)

    def div(coords):
        return _scalar_from_index(coords, chart_kind, index, n).scaled(-float(n))
    return ev, div


def _scalar_from_index(coords, chart_kind, index, n) -> ScalarJet:
    x = _hyperbolic_kernel_hd(coords, chart_kind, index)
    return _scalar_jet_from_hd(x, coords.shape[:-1], n)


# ------------------------------------------------------------------ factories

FLAT_KERNEL_IDS = ("const_one", "coordinate")
FLAT_KILLING_IDS = ("dilation", "inverted_translation")


def _check_alpha(id, alpha, lo, hi):
    if alpha is None or not lo <= alpha <= hi:
        raise ValueError(f"{id} needs alpha in {lo}..{hi}, got {alpha!r}")


def kernel_function(id: str, n: int, chart_kind: ChartKind | str = ChartKind.CARTESIAN,
                    alpha: int | None = None) -> KernelFunction:
    """Build a kernel function by id.

    Flat chart ids: ``const_one``, ``coordinate`` (with ``alpha`` in 0..n-1).
    Hyperbolic ids: ``ah_V0``, ``ah_Valpha`` (with ``alpha`` in 1..n picking
    the sphere coordinate).
    """
    chart_kind = ChartKind(chart_kind)
    if id == "const_one":
        return KernelFunction("const_one", n, chart_kind, _flat_const_one(n))
    if id == "coordinate":
        _check_alpha(id, alpha, 0, n - 1)
        return KernelFunction(f"coordinate_{alpha}", n, chart_kind,
                              _flat_coordinate(n, alpha))
    if id == "ah_V0":
        return KernelFunction("ah_V0", n, chart_kind,
                              lambda c: _scalar_from_index(c, chart_kind, 0, n))
    if id == "ah_Valpha":
        _check_alpha(id, alpha, 1, n)
        return KernelFunction(f"ah_V{alpha}", n, chart_kind,
                              lambda c, a=alpha: _scalar_from_index(c, chart_kind, a, n))
    raise ValueError(f"unknown kernel function id {id!r}")


def conformal_killing(id: str, n: int,
                      chart_kind: ChartKind | str = ChartKind.CARTESIAN,
                      alpha: int | None = None) -> ConformalKilling:
    """Build a conformal Killing field by id (see :func:`kernel_function`)."""
    chart_kind = ChartKind(chart_kind)
    if id == "dilation":
        ev, div = _flat_dilation(n)
        return ConformalKilling("dilation", n, chart_kind, ev, div)
    if id == "inverted_translation":
        _check_alpha(id, alpha, 0, n - 1)
        ev, div = _flat_inverted_translation(n, alpha)
        return ConformalKilling(f"inverted_translation_{alpha}", n, chart_kind,
                                ev, div)
    if id == "ah_X0":
        ev, div = _hyperbolic_killing(n, chart_kind, 0)
        return ConformalKilling("ah_X0", n, chart_kind, ev, div)
    if id == "ah_Xalpha":
        _check_alpha(id, alpha, 1, n)
        ev, div = _hyperbolic_killing(n, chart_kind, alpha)
        return ConformalKilling(f"ah_X{alpha}", n, chart_kind, ev, div)
    raise ValueError(f"unknown conformal Killing id {id!r}")


def kernel_basis(n: int, chart_kind: ChartKind | str) -> list[KernelFunction]:
    """The (n+1)-element kernel basis for the chart's background."""
    chart_kind = ChartKind(chart_kind)
    if chart_kind == ChartKind.CARTESIAN:
        return ([kernel_function("const_one", n)]
                + [kernel_function("coordinate", n, alpha=a) for a in range(n)])
    return ([kernel_function("ah_V0", n, chart_kind)]
            + [kernel_function("ah_Valpha", n, chart_kind, alpha=a)
               for a in range(1, n + 1)])


def killing_basis(n: int, chart_kind: ChartKind | str) -> list[ConformalKilling]:
    """Conformal Killing fields paired index-by-index with :func:`kernel_basis`."""
    chart_kind = ChartKind(chart_kind)
    if chart_kind == ChartKind.CARTESIAN:
        return ([conformal_killing("dilation", n)]
                + [conformal_killing("inverted_translation", n, alpha=a)
                   for a in range(n)])
    return ([conformal_killing("ah_X0", n, chart_kind)]
            + [conformal_killing("ah_Xalpha", n, chart_kind, alpha=a)
               for a in range(1, n + 1)])


def paired_killing_id(kernel_id: str) -> str:
    """Killing field whose divergence reproduces the given kernel function."""
    mapping = {"const_one": "dilation", "coordinate": "inverted_translation",
               "ah_V0": "ah_X0", "ah_Valpha": "ah_Xalpha"}
    base = kernel_id.rstrip("0123456789_")
    for key, val in mapping.items():
        if kernel_id == key or base == key.rstrip("0123456789_"):
            return val
    raise ValueError(f"no paired Killing field for {kernel_id!r}")
