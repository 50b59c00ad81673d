"""Analytic 2-jets of the reference geometries and of expression metrics.

Flat-type metrics live in a cartesian chart; hyperbolic-type metrics in one
of two polar charts over ``R x S^{n-1}``:

* ``polar_geodesic``: coords ``(r, theta1..theta_{n-2}, phi)`` with background
  ``b = dr^2 + sinh^2 r * round_sphere``,
* ``polar_area``: coords ``(rho, angles)`` with background
  ``b = (1+rho^2)^{-1} drho^2 + rho^2 * round_sphere``  (rho = sinh r).

Jets are produced by evaluating closed-form components with hyper-dual
numbers, so first and second derivatives carry no truncation error.  The
flat catalog kinds are conformally flat, ``g = e^{2 phi} delta``, and come
as a :class:`~asymflux.geometry.ConformalJet`, the 2-jet of ``2 phi``
alone: ``0`` for ``euclidean``, and for ``schwarzschild_conformal`` the
log of its conformal factor, a width-1 hyper-dual in ``t = |x - c|^2``,
whose jet is exact, lifted to the chart by one chain-rule step
(:func:`~asymflux.hyperdual.lift`).  The polar catalog kinds are warped
products ``drho^2 / f + rho^2 sigma`` over the round sphere and come as a
:class:`~asymflux.geometry.WarpedJet`: their stacked first-order
diagonal (on ``hyperbolic_polar`` and ``hyperbolic_area`` the background
itself), the warping radius ``rho`` and the profile ``h = f - (1 +
rho^2)`` with its derivative, 0 on the two backgrounds and ``-2m
rho^(2-n)`` on ``kottler``, from which
:func:`~asymflux.geometry.curvature` takes the curvature in closed form.
No pass reads a second derivative of a polar entry, so the polar branch
carries every entry to first order (values and gradients) and builds no
Hessian; a warped jet's ``ddg``, which only the tests read, evaluates
the diagonal again at second order on first read.
An expression metric is a dense :class:`~asymflux.geometry.MetricJet`.
A polar-chart entry is a separable product of functions of one coordinate
each (``sinh^2 r * sin^2 theta_1 ...``, ``rho^2 sigma_j``,
``1/f(rho)``): every factor is a width-1 jet in its own coordinate,
multiplied into the running product with one sparse step
(:func:`~asymflux.hyperdual.mul_factor`), which writes the numbers of the
full-width product.  One writer builds every dense and first-order jet
from its upper-triangle hyper-dual entries, mirrored into one zeroed
block: the deviation of a catalog metric and the components,
off-diagonal ones too, of an expression metric.
``expression`` components are parsed once, when the spec is built, so a
bad component fails before any computation starts; the expression
language is imported only to parse and evaluate them.  :func:`jets`
returns the metric's 2-jet, the background as the stacked first-order
hyper-dual of its diagonal (the charge integrand reads no other entry
and no second derivative) and the deviation ``g - b`` from one
evaluation; catalog kinds give the deviation in stable closed form,
expression metrics subtract ``b_ii`` from their diagonal.  So every
background is diagonal by construction, and a polar chart's is built
once per call, for its catalog kinds and expression metrics alike; the
polar Killing fields of :func:`~asymflux.fields.basis_jets` take their
``b^{-1}`` from it, so a chunk builds its background once.
:func:`metric_jet` is the metric jet of :func:`jets`, for the checks that
read ``g`` alone.

The formulas that depend on the chart alone are written here once: the
sphere embedding (the quadrature nodes too), the coordinate volume factor,
the polar-domain check, the area/geodesic radius map and the decay model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import hyperdual as hd
from .errors import ChartMismatchError, DomainError
from .geometry import (ChartKind, ConformalJet, MetricJet, SymTensorJet,
                       WarpedJet, validate_dimension)
from .hyperdual import HyperDual, seed_variables

__all__ = ["MetricSpec", "jets", "metric_jet", "background_of",
           "sphere_embedding_hd", "check_polar_domain", "coordinate_volume",
           "geodesic_radius", "chart_radius", "decay_mode", "FLAT_KINDS",
           "HYPERBOLIC_KINDS"]

FLAT_KINDS = ("euclidean", "schwarzschild_conformal")
HYPERBOLIC_KINDS = ("hyperbolic_polar", "hyperbolic_area", "kottler")


@dataclass(frozen=True)
class MetricSpec:
    """Catalog identifier plus parameters, or expression-defined components."""

    kind: str
    n: int
    m: float = 0.0
    center: tuple = ()
    components: Mapping | None = None   # {(i, j): AST or str}, upper triangle
    params: Mapping | None = None       # parameter values for expressions
    chart: str | None = None            # expression metrics only
    # components parsed once, at construction
    asts: Mapping | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        validate_dimension(self.n)
        if self.kind not in FLAT_KINDS + HYPERBOLIC_KINDS + ("expression",):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "expression" and self.components is None:
            raise ValueError("expression spec requires components")
        unread = [name for name, value, readers in (
            ("m", self.m, ("schwarzschild_conformal", "kottler")),
            ("center", self.center, ("schwarzschild_conformal",)),
            ("components", self.components, ("expression",)),
            ("params", self.params, ("expression",)),
            ("chart", self.chart, ("expression",)))
            if value and self.kind not in readers]
        if unread:
            raise ValueError(f"a {self.kind} metric does not read "
                             f"{', '.join(unread)}")
        if not np.isfinite(self.m):
            raise ValueError(f"mass parameter m must be finite, got {self.m}")
        if self.center and len(self.center) != self.n:
            raise ValueError(f"center needs {self.n} coordinates: {self.center}")
        if not np.isfinite(self.center).all():
            raise ValueError(f"center coordinates must be finite: {self.center}")
        if not np.isfinite(list((self.params or {}).values())).all():
            raise ValueError(f"parameter values must be finite: {self.params}")
        if self.kind == "schwarzschild_conformal" and not self.center:
            object.__setattr__(self, "center", (0.0,) * self.n)
        if self.kind == "expression":
            from . import expr as expr_mod
            chart, params = self.chart_kind, tuple(self.params or {})
            object.__setattr__(self, "asts", {
                key: expr_mod.parse(ast, self.n, chart, params)
                if isinstance(ast, str) else ast
                for key, ast in (self.components or {}).items()})

    @property
    def chart_kind(self) -> ChartKind:
        if self.kind in ("euclidean", "schwarzschild_conformal"):
            return ChartKind.CARTESIAN
        if self.kind == "hyperbolic_polar":
            return ChartKind.POLAR_GEODESIC
        if self.kind in ("hyperbolic_area", "kottler"):
            return ChartKind.POLAR_AREA
        # expression metric: explicit chart, default cartesian
        return ChartKind(self.chart or ChartKind.CARTESIAN)

    @property
    def is_flat_type(self) -> bool:
        return self.chart_kind == ChartKind.CARTESIAN


def background_of(spec: MetricSpec) -> MetricSpec:
    """Background (model) metric of an asymptotic-type spec, same chart:
    the metric whose diagonal is the background that :func:`jets` gives."""
    kind = spec.chart_kind
    if kind == ChartKind.CARTESIAN:
        return MetricSpec("euclidean", spec.n)
    if kind == ChartKind.POLAR_GEODESIC:
        return MetricSpec("hyperbolic_polar", spec.n)
    return MetricSpec("hyperbolic_area", spec.n)


# ------------------------------------------------------ sphere parametrization
#
# Angles (theta_1, ..., theta_{n-2}, phi) parametrize S^{n-1}:
#   u_1 = cos theta_1
#   u_j = sin theta_1 ... sin theta_{j-1} cos theta_j      (j <= n-2)
#   u_{n-1} = sin theta_1 ... sin theta_{n-2} cos phi
#   u_n     = sin theta_1 ... sin theta_{n-2} sin phi
# Round metric: sigma = sum_j (prod_{k<j} sin^2 theta_k) d theta_j^2.

# Both products below take the angles as one-variable jets
# (``hyperdual.one_variable_seeds``) of the last seed variables of a chart
# whose unit jet is ``one``; each factor enters by one sparse step.  With
# ``one`` of width 0 only the values are multiplied (the quadrature nodes).

def sphere_embedding_hd(angles: list[HyperDual],
                        one: HyperDual) -> list[HyperDual]:
    """Unit-sphere points ``u_1..u_n`` from the angles; seeded without
    derivatives, the values of the quadrature nodes."""
    *thetas, phi = angles
    out = []
    sin_prod = one
    for k, theta in enumerate(thetas, one.nvars - len(angles)):
        out.append(hd.mul_factor(sin_prod, hd.cos(theta), k))
        sin_prod = hd.mul_factor(sin_prod, hd.sin(theta), k)
    out.append(hd.mul_factor(sin_prod, hd.cos(phi), one.nvars - 1))
    out.append(hd.mul_factor(sin_prod, hd.sin(phi), one.nvars - 1))
    return out


def _round_sphere_diag_hd(angles: list[HyperDual],
                          one: HyperDual) -> list[HyperDual]:
    """Diagonal entries of the round metric in our angles."""
    diag = [one]
    for k, theta in enumerate(angles[:-1], one.nvars - len(angles)):
        s = hd.sin(theta)
        diag.append(hd.mul_factor(diag[-1], s * s, k))
    return diag


def coordinate_volume(points: np.ndarray, chart_kind: ChartKind,
                      r=None) -> np.ndarray:
    """Coordinate volume element relative to ``dr x (round sphere)``.

    ``r^(n-1)`` in the cartesian chart, with ``r`` the sphere radius or, when
    omitted, ``|x|`` at each point; ``1/sqrt(det sigma)`` of the angles in
    the polar charts, whose coordinates already carry the radius.
    """
    if chart_kind == ChartKind.CARTESIAN:
        radius = np.linalg.norm(points, axis=-1) if r is None else np.float64(r)
        return radius ** (points.shape[-1] - 1)
    angles = points[..., 1:]
    k = angles.shape[-1]
    det = np.ones(angles.shape[:-1])
    for j in range(k - 1):
        det = det * np.sin(angles[..., j]) ** (2 * (k - 1 - j))
    return 1.0 / np.sqrt(det)


def check_polar_domain(coords: np.ndarray):
    """Reject polar-chart points whose radial coordinate is not positive."""
    if np.any(coords[..., 0] <= 0.0):
        raise DomainError("polar radial coordinate must be positive")


# ------------------------------------------------------------ radial scales
#
# Hyperbolic decay is exponential in the geodesic radius s; the area chart's
# radius is rho = sinh s, the geodesic chart's is s itself, and flat charges
# decay in powers of the cartesian radius.

def geodesic_radius(chart_kind: ChartKind, radii):
    """Radii in the variable of the chart's decay model: ``asinh rho`` in
    the area chart, unchanged otherwise."""
    return np.arcsinh(radii) if chart_kind == ChartKind.POLAR_AREA else radii


def chart_radius(chart_kind: ChartKind, radii):
    """Inverse of :func:`geodesic_radius`: ``sinh s`` in the area chart."""
    return np.sinh(radii) if chart_kind == ChartKind.POLAR_AREA else radii


def decay_mode(chart_kind: ChartKind) -> str:
    """``"power"`` (``r^-sigma``) in the cartesian chart, ``"exp"``
    (``e^{-sigma s}`` in the geodesic radius) in the polar charts."""
    return "power" if chart_kind == ChartKind.CARTESIAN else "exp"


# ------------------------------------------------------------- jet assembly

def _zeros(*shapes) -> list[np.ndarray]:
    """Zeroed C-contiguous arrays of the given shapes, consecutive views of
    one allocation.  A whole jet in one block is the largest block a chunk
    frees, so glibc's trim threshold, twice that block, stays above the
    chunk's peak (quadrature module notes)."""
    sizes = [math.prod(shape) for shape in shapes]
    block = np.zeros(sum(sizes))
    ends = np.cumsum(sizes)
    return [block[end - size:end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, ends)]


def _jet(entries, shape, n, order):
    """A symmetric jet from its upper-triangle entries ``{(i, j): e}``,
    each a HyperDual, mirrored to ``(j, i)``, in one zeroed block: a
    MetricJet at ``order`` 2, a SymTensorJet (value and first derivatives)
    at 1."""
    arrays = _zeros(*(shape + (n,) * (2 + k) for k in range(order + 1)))
    for (i, j), e in entries.items():
        for out, part in zip(arrays, (e.val, e.grad, e.hess)):
            for a, b in {(i, j), (j, i)}:
                out[..., a, b] = part
    return MetricJet(*arrays) if order == 2 else SymTensorJet(*arrays)


def _schwarzschild_log_factor(spec, coords):
    """The jet of ``t = |x - c|^2`` and the log of the conformal factor,
    ``p * log1p(s)`` with ``s = m/(2 rho^{n-2})``, as a width-1 jet in ``t``.

    ``t``'s jet is exact (``2(x - c)`` and ``2I``), and
    :func:`~asymflux.hyperdual.lift` carries a profile in ``t`` to the
    chart.  Computed in log form so that the deviation ``g - e`` stays
    accurate at large radii.
    """
    n = spec.n
    diff = coords - np.asarray(spec.center or (0.0,) * n, dtype=float)
    rho2 = diff[..., 0] * diff[..., 0]
    for i in range(1, n):
        rho2 = rho2 + diff[..., i] * diff[..., i]
    if np.any(rho2 <= 0.0):
        raise DomainError("schwarzschild_conformal: point at the center")
    t = HyperDual(rho2, 2.0 * diff,
                  np.broadcast_to(2.0 * np.eye(n), rho2.shape + (n, n)))
    rho = hd.sqrt(seed_variables(rho2[..., None])[0])
    s = (0.5 * spec.m) * rho ** (-(n - 2))
    if np.any(s.val <= -1.0):
        raise DomainError("schwarzschild_conformal: point inside excised region")
    return t, (4.0 / (n - 2)) * hd.log1p(s)


def jets(spec: MetricSpec, p) -> tuple[
        MetricJet | ConformalJet | WarpedJet, HyperDual, SymTensorJet]:
    """The exact 2-jet of the spec's metric at point(s) ``p``, its
    background ``b`` as the stacked first-order hyper-dual of the diagonal
    (``val[..., i] = b_ii``, ``grad[..., i, k] = d_k b_ii``, the two the
    charge integrand reads) and the jet of the deviation ``g - b``.

    The flat catalog kinds give their metric as a
    :class:`~asymflux.geometry.ConformalJet`, the 2-jet of ``2 phi`` for
    ``g = e^{2 phi} delta``, and the polar catalog kinds as a
    :class:`~asymflux.geometry.WarpedJet`, their stacked first-order
    diagonal and radial profile, with a function that evaluates it again
    at second order for ``ddg``; neither holds a dense array.
    Expression metrics give a dense :class:`~asymflux.geometry.MetricJet`
    in one block.

    Every background is diagonal by construction, the Euclidean ``delta``
    or the polar background of the chart, and ``b_ii`` and ``d_k b_ii``
    give ``b^{-1}`` and ``Gamma(b)`` in closed form.  Catalog kinds give
    the deviation in stable closed form (no large-radius cancellation), to
    first order; expression metrics subtract ``b_ii`` and ``d_k b_ii``
    from their diagonal, and a cartesian one's ``dg`` is its deviation's.
    The three share their intermediates: a warped background's diagonal is
    ``b`` itself and Kottler's shares its angular entries.  The Euclidean
    background and a zero deviation are read-only broadcast views.
    """
    coords = np.asarray(p, dtype=float)
    if coords.shape[-1] != spec.n:
        raise ChartMismatchError(
            f"point has {coords.shape[-1]} coordinates, spec has n={spec.n}")
    n = spec.n
    shape = coords.shape[:-1]
    zero = SymTensorJet(np.broadcast_to(0.0, shape + (n, n)),
                        np.broadcast_to(0.0, shape + (n, n, n)))
    delta = HyperDual(np.broadcast_to(1.0, shape + (n,)),
                      np.broadcast_to(0.0, shape + (n, n)))

    if spec.kind == "euclidean":
        flat = HyperDual(*(np.broadcast_to(0.0, shape + (n,) * k)
                           for k in range(3)))
        return ConformalJet(flat), delta, zero

    if spec.kind == "schwarzschild_conformal":
        t, log_factor = _schwarzschild_log_factor(spec, coords)
        two_phi = hd.lift(t, log_factor)
        # the deviation e^{2 phi} - 1 to first order, lifted onto the
        # first-order t: the deviation reads no Hessian
        w = hd.lift(HyperDual(t.val, t.grad), hd.expm1(log_factor))
        return (ConformalJet(two_phi), delta,
                _jet({(i, i): w for i in range(n)}, shape, n, 1))

    if spec.is_flat_type:
        # cartesian expression metric: g - delta, whose derivatives are g's
        g = _components_jet(spec, coords)
        return g, delta, SymTensorJet(g.g - np.eye(n), g.dg)

    check_polar_domain(coords)
    diag, b, rho, mass = _polar_diagonals(spec, coords, 1)
    if spec.kind == "expression":
        # polar expression metric: g - b, the background's entries
        # subtracted from the diagonal alone
        g = _components_jet(spec, coords)
        eps = SymTensorJet(g.g.copy(), g.dg.copy())
        i = np.arange(n)
        eps.value[..., i, i] -= b.val
        eps.d[..., i, i] -= b.grad.swapaxes(-1, -2)
        return g, b, eps

    def second_order():
        return _polar_diagonals(spec, coords, 2)[0]

    if mass is None:
        return WarpedJet(diag, rho, 0.0, 0.0, second_order), b, zero
    # h = f - f0 = -mass_term, a width-1 jet in rho
    mass_term, eps = mass
    return (WarpedJet(diag, rho, -mass_term.val, -mass_term.grad[..., 0],
                      second_order),
            b, _jet({(0, 0): eps}, shape, n, 1))


def _polar_diagonals(spec, coords, order):
    """The diagonals of a polar-chart metric and of its background, each
    stacked at ``order`` (:func:`~asymflux.hyperdual.stack`), the warping
    radius ``rho`` and, on Kottler, the mass term ``2m rho^(2-n)`` of its
    profile and its deviation entry ``1/f - 1/f0`` (None on the other
    kinds, whose metric diagonal is the background object).

    The entries are separable: each factor a one-variable jet in r or an
    angle, multiplied into the unit jet or the round-sphere product; the
    radial entry is 1 (geodesic) or 1/f0 (area), the angular ones sinh^2 r
    sigma_j or rho^2 sigma_j, with rho = sinh r or the area coordinate.
    """
    n = spec.n
    r, *angles = hd.one_variable_seeds(coords, order)
    one = HyperDual.constant(1.0, n, coords.shape[:-1], order)
    sigma = _round_sphere_diag_hd(angles, one)
    if spec.chart_kind == ChartKind.POLAR_GEODESIC:
        sh = hd.sinh(r)
        sh2 = sh * sh
        radial, rho = one, sh.val
        angular = [hd.mul_factor(s, sh2, 0) for s in sigma]
    else:
        r2 = r * r
        angular = [hd.mul_factor(s, r2, 0) for s in sigma]
        f0 = 1.0 + r2
        radial, rho = hd.mul_factor(one, 1.0 / f0, 0), r.val
    background = hd.stack([radial, *angular])
    if spec.kind != "kottler":
        return background, background, rho, None
    mass_term = (2.0 * spec.m) * r ** (-(n - 2))
    f = f0 - mass_term
    if np.any(f.val <= 0.0):
        raise DomainError("kottler metric function non-positive at point")
    # 1/f - 1/f0 = (f0 - f) / (f f0)
    eps = hd.mul_factor(one, mass_term / (f * f0), 0)
    return (hd.stack([hd.mul_factor(one, 1.0 / f, 0), *angular]),
            background, rho, (mass_term, eps))


def metric_jet(spec: MetricSpec, p) -> MetricJet | ConformalJet | WarpedJet:
    """Exact analytic 2-jet of the spec's metric at point(s) ``p``: the
    metric jet of :func:`jets`."""
    return jets(spec, p)[0]


def _components_jet(spec, coords) -> MetricJet:
    """The 2-jet of the spec's expression components.  Equal texts parse
    to equal ASTs, and each distinct AST is evaluated once."""
    from . import expr as expr_mod

    params = dict(spec.params or {})
    evaluated = {}
    for ast in spec.asts.values():
        if ast not in evaluated:
            evaluated[ast] = expr_mod.eval_jet(ast, coords, params,
                                               spec.chart_kind)
    return _jet({key: evaluated[ast] for key, ast in spec.asts.items()},
                coords.shape[:-1], spec.n, 2)
