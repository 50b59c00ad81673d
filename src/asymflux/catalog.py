"""Analytic 2-jets of the reference geometries and structured perturbations.

Flat-type metrics live in a cartesian chart; hyperbolic-type metrics in one
of two polar charts over ``R x S^{n-1}``:

* ``polar_geodesic``: coords ``(r, theta1..theta_{n-2}, phi)`` with background
  ``b = dr^2 + sinh^2 r * round_sphere``,
* ``polar_area``: coords ``(rho, angles)`` with background
  ``b = (1+rho^2)^{-1} drho^2 + rho^2 * round_sphere``  (rho = sinh r).

Jets are produced by evaluating closed-form components with hyper-dual
numbers, so first and second derivatives carry no truncation error.
``expression`` and ``perturbation`` components are parsed once, when the
spec is built, so a bad component fails before any computation starts.
:func:`jets` returns the metric jet, the background jet and the deviation
``g - b`` from one evaluation; catalog kinds give the deviation in stable
closed form, expression metrics subtract the jets.  :func:`jet_values` runs
the same kind switch with hyper-duals seeded without derivatives (gradient
and Hessian axes of width 0), so its values are bit-identical to those of
:func:`jets` at a fraction of the cost; the diagnostics that read only
``g``, ``b`` and ``g - b`` use it.

The formulas that depend on the chart alone are written here once: the
sphere embedding (the quadrature nodes too), the coordinate volume factor,
the polar-domain check, the area/geodesic radius map and the decay model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import expr as expr_mod
from . import hyperdual as hd
from .errors import ChartMismatchError, DomainError
from .geometry import ChartKind, MetricJet, SymTensorJet, validate_dimension
from .hyperdual import HyperDual, seed_variables

__all__ = ["MetricSpec", "jets", "jet_values", "metric_jet", "background_of",
           "chart_kind_of", "sphere_embedding_hd", "round_sphere_diag_hd",
           "check_polar_domain", "coordinate_volume", "geodesic_radius",
           "chart_radius", "decay_mode", "FLAT_KINDS", "HYPERBOLIC_KINDS"]

FLAT_KINDS = ("euclidean", "schwarzschild_conformal")
HYPERBOLIC_KINDS = ("hyperbolic_polar", "hyperbolic_area", "kottler")


@dataclass(frozen=True)
class MetricSpec:
    """Catalog identifier plus parameters, or expression-defined components."""

    kind: str
    n: int
    m: float = 0.0
    center: tuple = ()
    base: "MetricSpec | None" = None
    components: Mapping | None = None   # {(i, j): AST or str}, upper triangle
    params: Mapping | None = None       # parameter values for expressions
    chart: str | None = None            # expression metrics only
    # components parsed once, at construction
    asts: Mapping | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        validate_dimension(self.n)
        kinds = FLAT_KINDS + HYPERBOLIC_KINDS + ("perturbation", "expression")
        if self.kind not in kinds:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "perturbation" and self.base is None:
            raise ValueError("perturbation spec requires a base spec")
        if self.kind == "expression" and self.components is None:
            raise ValueError("expression spec requires components")
        unread = [name for name, value, readers in (
            ("m", self.m, ("schwarzschild_conformal", "kottler")),
            ("center", self.center, ("schwarzschild_conformal",)),
            ("components", self.components, ("perturbation", "expression")),
            ("params", self.params, ("perturbation", "expression")),
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
        if self.kind in ("perturbation", "expression"):
            chart, params = chart_kind_of(self), tuple(self.params or {})
            object.__setattr__(self, "asts", {
                key: expr_mod.parse(ast, self.n, chart, params)
                if isinstance(ast, str) else ast
                for key, ast in (self.components or {}).items()})

    @property
    def chart_kind(self) -> ChartKind:
        return chart_kind_of(self)

    @property
    def is_flat_type(self) -> bool:
        return chart_kind_of(self) == ChartKind.CARTESIAN

    @property
    def is_hyperbolic_type(self) -> bool:
        return not self.is_flat_type


def chart_kind_of(spec: MetricSpec) -> ChartKind:
    if spec.kind in ("euclidean", "schwarzschild_conformal"):
        return ChartKind.CARTESIAN
    if spec.kind == "hyperbolic_polar":
        return ChartKind.POLAR_GEODESIC
    if spec.kind in ("hyperbolic_area", "kottler"):
        return ChartKind.POLAR_AREA
    if spec.kind == "perturbation":
        return chart_kind_of(spec.base)
    # expression metric: explicit chart, default cartesian
    return ChartKind(spec.chart or ChartKind.CARTESIAN)


def background_of(spec: MetricSpec) -> MetricSpec:
    """Background (model) metric of an asymptotic-type spec, same chart."""
    kind = chart_kind_of(spec)
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

def sphere_embedding_hd(angle_vars: list[HyperDual]) -> list[HyperDual]:
    """Unit-sphere points ``u_1..u_n`` from the angle variables; seeded
    without derivatives, the values of the quadrature nodes."""
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


def round_sphere_diag_hd(angle_vars: list[HyperDual], one) -> list:
    """Diagonal entries of the round metric in our angles (hyper-dual)."""
    diag = []
    sin2_prod = one
    for j in range(len(angle_vars)):
        diag.append(sin2_prod)
        s = hd.sin(angle_vars[j])
        sin2_prod = sin2_prod * (s * s)
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

def _assemble(components, coords, width) -> MetricJet:
    """Pack an upper-triangular dict of HyperDual components into a MetricJet
    whose derivative axes have length ``width`` (``n``, or 0 for values)."""
    n = coords.shape[-1]
    shape = coords.shape[:-1]
    g = np.zeros(shape + (n, n))
    dg = np.zeros(shape + (width, n, n))
    ddg = np.zeros(shape + (width, width, n, n))
    for (i, j), comp in components.items():
        if isinstance(comp, HyperDual):
            v = np.broadcast_to(comp.val, shape)
            gr = np.broadcast_to(comp.grad, shape + (width,))
            he = np.broadcast_to(comp.hess, shape + (width, width))
        else:
            v = np.broadcast_to(np.asarray(comp, dtype=float), shape)
            gr = np.zeros(shape + (width,))
            he = np.zeros(shape + (width, width))
        g[..., i, j] = v
        dg[..., :, i, j] = gr
        ddg[..., :, :, i, j] = he
        if i != j:
            g[..., j, i] = v
            dg[..., :, j, i] = gr
            ddg[..., :, :, j, i] = he
    return MetricJet(g, dg, ddg)


def _schwarzschild_log_factor(spec, coords, derivatives):
    """log of the conformal factor, as ``p * log1p(s)`` with ``s = m/(2 rho^{n-2})``.

    Computed in log form so that the deviation ``g - e`` stays accurate at
    large radii.
    """
    n = spec.n
    x = seed_variables(coords, derivatives)
    center = spec.center or (0.0,) * n
    rho2 = None
    for i in range(n):
        d = x[i] - float(center[i])
        rho2 = d * d if rho2 is None else rho2 + d * d
    if np.any(rho2.val <= 0.0):
        raise DomainError("schwarzschild_conformal: point at the center")
    rho = hd.sqrt(rho2)
    s = (0.5 * spec.m) * rho ** (-(n - 2))
    if np.any(s.val <= -1.0):
        raise DomainError("schwarzschild_conformal: point inside excised region")
    return (4.0 / (n - 2)) * hd.log1p(s)


def _hyperbolic_polar_components(coords, derivatives):
    variables = seed_variables(coords, derivatives)
    r, angles = variables[0], variables[1:]
    sh = hd.sinh(r)
    sh2 = sh * sh
    one = HyperDual.constant(1.0, r.nvars, coords.shape[:-1])
    diag = round_sphere_diag_hd(angles, one)
    comps = {(0, 0): 1.0}
    for j, sigma_jj in enumerate(diag):
        comps[(1 + j, 1 + j)] = sh2 * sigma_jj
    return comps


def _euclidean_jet(coords, width) -> MetricJet:
    """The identity with zero derivatives, as read-only broadcast views."""
    n, shape = coords.shape[-1], coords.shape[:-1]
    return MetricJet(np.broadcast_to(np.eye(n), shape + (n, n)),
                     np.broadcast_to(0.0, shape + (width, n, n)),
                     np.broadcast_to(0.0, shape + (width, width, n, n)))


def _diagonal_deviation(components, shape, n, width) -> SymTensorJet:
    """Deviation jet from hyper-dual diagonal entries ``{i: eps_ii}``; an
    empty dict gives the zero deviation as read-only broadcast views."""
    if not components:
        return SymTensorJet(np.broadcast_to(0.0, shape + (n, n)),
                            np.broadcast_to(0.0, shape + (width, n, n)))
    value = np.zeros(shape + (n, n))
    d = np.zeros(shape + (width, n, n))
    for i, e in components.items():
        value[..., i, i] = e.val
        d[..., :, i, i] = e.grad
    return SymTensorJet(value, d)


def jets(spec: MetricSpec, p) -> tuple[MetricJet, MetricJet, SymTensorJet]:
    """Exact 2-jets ``(g, b)`` of the spec's metric and of its background at
    point(s) ``p``, and the jet of the deviation ``g - b``.

    Catalog kinds give the deviation in stable closed form (no large-radius
    cancellation); expression metrics subtract the jets.  The three share
    their intermediates.  The Euclidean background and a zero deviation are
    read-only broadcast views.
    """
    return _jets(spec, p, derivatives=True)


def jet_values(spec: MetricSpec, p) -> tuple[MetricJet, MetricJet,
                                            SymTensorJet]:
    """``(g, b, g - b)`` as :func:`jets` gives them, without derivatives.

    The derivative axes (``dg``, ``ddg``, ``d``) have length 0; ``g``, ``b``
    and the deviation value are bit-identical to those of :func:`jets`.
    """
    return _jets(spec, p, derivatives=False)


def _jets(spec, p, derivatives):
    coords = np.asarray(p, dtype=float)
    if coords.shape[-1] != spec.n:
        raise ChartMismatchError(
            f"point has {coords.shape[-1]} coordinates, spec has n={spec.n}")
    # base and background evaluations call the public function of this
    # mode, so that a wrapper around it (tracer, call-counting test) sees them
    nested = jets if derivatives else jet_values
    kind = chart_kind_of(spec)
    n = spec.n
    width = n if derivatives else 0
    shape = coords.shape[:-1]
    zero = _diagonal_deviation({}, shape, n, width)

    if spec.kind == "euclidean":
        g = _euclidean_jet(coords, width)
        return g, g, zero

    if spec.kind == "schwarzschild_conformal":
        log_factor = _schwarzschild_log_factor(spec, coords, derivatives)
        conf = hd.exp(log_factor)
        w = hd.expm1(log_factor)
        g = _assemble({(i, i): conf for i in range(n)}, coords, width)
        return (g, _euclidean_jet(coords, width),
                _diagonal_deviation(dict.fromkeys(range(n), w), shape, n,
                                    width))

    if spec.kind == "hyperbolic_polar":
        check_polar_domain(coords)
        g = _assemble(_hyperbolic_polar_components(coords, derivatives),
                      coords, width)
        return g, g, zero

    if spec.kind in ("hyperbolic_area", "kottler"):
        # area chart: radial entry 1/f0 (background) or 1/f, angular rho^2 sigma
        check_polar_domain(coords)
        variables = seed_variables(coords, derivatives)
        rho, angles = variables[0], variables[1:]
        one = HyperDual.constant(1.0, width, shape)
        rho2 = rho * rho
        angular = {(1 + j, 1 + j): rho2 * sigma_jj for j, sigma_jj
                   in enumerate(round_sphere_diag_hd(angles, one))}
        f0 = 1.0 + rho2
        b = _assemble({(0, 0): 1.0 / f0, **angular}, coords, width)
        if spec.kind == "hyperbolic_area":
            return b, b, zero
        mass_term = (2.0 * spec.m) * rho ** (-(n - 2))
        f = f0 - mass_term
        if np.any(f.val <= 0.0):
            raise DomainError("kottler metric function non-positive at point")
        g = _assemble({(0, 0): 1.0 / f, **angular}, coords, width)
        # 1/f - 1/f0 = (f0 - f) / (f f0)
        return g, b, _diagonal_deviation({0: mass_term / (f * f0)}, shape, n,
                                         width)

    if spec.kind == "perturbation":
        base, b, base_eps = nested(spec.base, coords)
        eps = _components_jet(spec, coords, kind, derivatives)
        g = MetricJet(base.g + eps.g, base.dg + eps.dg, base.ddg + eps.ddg)
        return g, b, SymTensorJet(base_eps.value + eps.g, base_eps.d + eps.dg)

    # expression metrics: plain subtraction from the chart background
    g = _components_jet(spec, coords, kind, derivatives)
    b = nested(background_of(spec), coords)[0]
    return g, b, SymTensorJet(g.g - b.g, g.dg - b.dg)


def metric_jet(spec: MetricSpec, p) -> MetricJet:
    """Exact analytic 2-jet of the spec's metric at point(s) ``p``."""
    return jets(spec, p)[0]


def _components_jet(spec, coords, chart_kind, derivatives) -> MetricJet:
    """Evaluate the spec's expression components into a 2-jet tensor.  Equal
    texts parse to equal ASTs, and each distinct AST is evaluated once."""
    n = spec.n
    width = n if derivatives else 0
    shape = coords.shape[:-1]
    value = np.zeros(shape + (n, n))
    d = np.zeros(shape + (width, n, n))
    dd = np.zeros(shape + (width, width, n, n))
    params = dict(spec.params or {})
    evaluated = {}
    for (i, j), ast in spec.asts.items():
        if ast not in evaluated:
            evaluated[ast] = expr_mod.eval_jet(ast, coords, params, chart_kind,
                                               derivatives)
        jet = evaluated[ast]
        for a, b in ((i, j), (j, i)) if i != j else ((i, j),):
            value[..., a, b] = jet.value
            d[..., :, a, b] = jet.grad
            dd[..., :, :, a, b] = jet.hess
    return MetricJet(value, d, dd)
