"""Boundary integrands and normalized asymptotic charges.

Implements the general charge integrand pairing a kernel function with the
deviation ``eps = g - b`` from the background,

    U(V, g, b) = V (-delta^b eps - d tr_b eps) + tr_b(eps) dV - eps(grad_b V, .),

its classical specializations (mass with V = 1, center of mass with
V = x^alpha), the Einstein-tensor flux charges paired with conformal Killing
fields, and the hyperbolic-mass functional.  The deviation is evaluated by
the catalog's stable closed forms so that fluxes remain accurate at radii
where ``g - b`` underflows a naive subtraction.

Every charge is linear in its kernel function V or conformal Killing field
X, and both families integrate over the same sphere S_r.  So
:func:`charge_series` makes one sphere pass per radius: its integrand
evaluates the metric jet, the background jet, the deviation, the basis
jets, the curvature, normal and area element once per node and contracts
them with the whole kernel basis and Killing basis.

On a flat-type metric the background is the Euclidean ``delta`` of the
cartesian chart: its inverse is itself and its Christoffel symbols and
``d b^{-1}`` vanish, so the sphere pass takes the V-independent parts of
``U`` in closed form (the ADM flux ``d_i eps_ij - d_j tr eps`` and
``tr eps``) with the same ``delta``-contractions as the general formula,
which keeps every bit.  The public integrands keep the general formula for
any background passed in.

Charge normalizations (exact constants, see ``_normalization``; a kernel
function gives a classical charge and a field a Ricci one, and the centers,
the elements of index > 0 in the cartesian chart, divide by the mass):

* mass:              1 / (2 (n-1) omega_{n-1})
* center of mass:    1 / (2 (n-1) omega_{n-1} m)
* Ricci mass:       -1 / ((n-1)(n-2) omega_{n-1})
* Ricci center:     +1 / (2 (n-1)(n-2) omega_{n-1} m)
* hyperbolic mass:   1 / (2 (n-1) omega_{n-1}); Ricci version as the flat one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import (MetricSpec, coordinate_volume, decay_mode,
                      geodesic_radius, jet_values, jets)
from .errors import ChartMismatchError, QuadratureError, ZeroMassError
from .fields import basis_jets
from .geometry import (ChartKind, MetricJet, ScalarJet, SymTensorJet,
                       curvature, divergence_symmetric2, inverse_derivative,
                       inverse_metric)
from .limits import FluxSample, RadialSeries, extrapolate, fit_decay_exponent
from .quadrature import SphereRule, integrate_sphere, omega

__all__ = [
    "michel_integrand", "michel_integrand_deviation", "adm_integrand",
    "center_integrand", "sphere_normal_area", "sphere_integrand",
    "charge_series", "rt_diagnostics", "RTReport", "mass_normalization",
    "ricci_mass_normalization",
]

_MASS_FLOOR = 1e-12


def mass_normalization(n: int) -> float:
    return 1.0 / (2.0 * (n - 1) * omega(n))


def ricci_mass_normalization(n: int) -> float:
    return -1.0 / ((n - 1) * (n - 2) * omega(n))


def _normalization(n: int, field: bool, mass: float | None) -> float:
    """Exact normalization of a kernel function's charge (classical) or a
    field's (Ricci); ``mass`` is given for the centers alone, which divide
    by it."""
    if mass is None:
        return ricci_mass_normalization(n) if field else mass_normalization(n)
    if field:
        return 1.0 / (2.0 * (n - 1) * (n - 2) * omega(n) * mass)
    return mass_normalization(n) / mass


# --------------------------------------------------------------- integrands

def michel_integrand_deviation(V: ScalarJet, eps: SymTensorJet,
                               b_jet: MetricJet, nu: np.ndarray) -> np.ndarray:
    """Charge integrand ``U(V, g, b)(nu)`` from the deviation ``eps = g - b``.

    ``U`` is linear in the deviation, so passing the closed-form jet of
    ``g - b`` avoids the catastrophic cancellation of subtracting two nearly
    equal metrics at large radii.
    """
    return _michel_contract(V, eps, _michel_pieces(eps, b_jet), nu)


def _michel_pieces(eps: SymTensorJet, b_jet: MetricJet):
    """The V-independent parts of ``U``: ``(binv, -delta eps - d tr eps, tr eps)``."""
    binv = inverse_metric(b_jet.g)
    delta_eps = divergence_symmetric2(b_jet, eps, binv)       # paper-sign delta
    tr_eps = np.einsum("...ij,...ij->...", binv, eps.value)
    dbinv = inverse_derivative(binv, b_jet.dg)
    dtr = (np.einsum("...kij,...ij->...k", dbinv, eps.value)
           + np.einsum("...ij,...kij->...k", binv, eps.d))
    return binv, -delta_eps - dtr, tr_eps


def _flat_michel_pieces(eps: SymTensorJet, b_jet: MetricJet):
    """:func:`_michel_pieces` on the Euclidean background, whose jet is the
    identity with zero derivatives: ``binv`` is ``b`` itself, and the
    Christoffel and ``d b^{-1}`` terms, exact zeros, are left out."""
    binv = b_jet.g
    div_eps = np.einsum("...ik,...kij->...j", binv, eps.d)
    dtr = np.einsum("...ij,...kij->...k", binv, eps.d)
    tr_eps = np.einsum("...ij,...ij->...", binv, eps.value)
    return binv, div_eps - dtr, tr_eps


def _michel_contract(V: ScalarJet, eps: SymTensorJet, pieces,
                     nu: np.ndarray) -> np.ndarray:
    binv, source, tr_eps = pieces
    gradV = np.einsum("...ij,...j->...i", binv, V.grad)
    one_form = (V.value[..., None] * source
                + tr_eps[..., None] * V.grad
                - np.einsum("...ij,...i->...j", eps.value, gradV))
    return np.einsum("...j,...j->...", one_form, nu)


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


# ------------------------------------------------- sphere integrands

def sphere_normal_area(points: np.ndarray, chart_kind: ChartKind, r: float,
                       jet: MetricJet | None = None,
                       ginv: np.ndarray | None = None):
    """Unit normal ``nu`` and area element of the coordinate sphere S_r.

    Without ``jet`` both belong to the background metric; with the metric
    jet (and optionally its inverse) to the metric, using
    ``dA_g = sqrt(det g) |grad r|_g dV_coord/dr`` (the last factor is
    :func:`~asymflux.catalog.coordinate_volume`) so that no embedding
    Jacobian is needed.  The area element is relative to the round-sphere
    measure carried by the rule weights.
    """
    n = points.shape[-1]
    w = np.zeros_like(points)                    # radial conormal dr
    if chart_kind == ChartKind.CARTESIAN:
        w[:] = points / r
    else:
        w[..., 0] = 1.0
    if jet is None:
        if chart_kind == ChartKind.POLAR_AREA:   # b_rr = 1/(1+rho^2)
            w[..., 0] = np.sqrt(1.0 + points[..., 0] ** 2)
        radial = np.sinh(r) if chart_kind == ChartKind.POLAR_GEODESIC \
            else np.float64(r)
        area = np.full(points.shape[:-1], radial ** (n - 1))
        return w, _finite(area, "area element", r)
    if ginv is None:
        ginv = inverse_metric(jet.g)
    raised = np.einsum("...ij,...j->...i", ginv, w)
    nu = raised / np.sqrt(np.einsum("...i,...i->...", w, raised))[..., None]
    gradnorm = np.sqrt(np.einsum("...ij,...i,...j->...", ginv, w, w))
    area = (np.sqrt(np.linalg.det(jet.g)) * gradnorm
            * coordinate_volume(points, chart_kind, r))
    return nu, _finite(area, "area element", r)


def _finite(values: np.ndarray, what: str, r: float) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise QuadratureError(f"{what} not finite on S_r at r = {r}")
    return values


def sphere_integrand(spec: MetricSpec, kernels, fields, r: float,
                     modified: bool = False):
    """Integrand over S_r with one column per kernel V, then one per field X.

    Kernel columns are ``U(V, g, b)(nu) dA`` with the background normal and
    area element; field columns are ``G(X, nu) dA_g`` with the metric's,
    where ``G`` is the Einstein tensor, or the modified one with
    ``modified``.  Each chunk makes one :func:`~asymflux.catalog.jets` call
    for the metric jet, the background jet and the deviation, and one
    :func:`~asymflux.fields.basis_jets` call for every kernel and field jet.
    """
    chart = spec.chart_kind
    michel_pieces = _flat_michel_pieces if spec.is_flat_type \
        else _michel_pieces

    def kernel_columns(points, b_jet, eps, scalars):
        nu, area = sphere_normal_area(points, chart, r)
        pieces = michel_pieces(eps, b_jet)
        return [_michel_contract(V, eps, pieces, nu) * area for V in scalars]

    def f(points):
        jet, b_jet, eps = jets(spec, points)
        if fields:
            # g is inverted below; a non-finite dg or ddg reaches the
            # integrand, which integrate_sphere rejects with the same error
            _finite(jet.g, "metric jet", r)
        scalars, vectors = basis_jets(points, kernels, fields)
        columns = kernel_columns(points, b_jet, eps, scalars) if kernels else []
        # the background jet, the deviation and the kernel jets die here,
        # before curvature runs; of the field jets only the components stay
        comps = [X.comp for X in vectors]
        del b_jet, eps, scalars, vectors
        if fields:
            bun = curvature(jet)
            G = bun.modified_einstein if modified else bun.einstein
            nu, area = sphere_normal_area(points, chart, r, jet, bun.ginv)
            columns += [np.einsum("...ij,...i,...j->...", G, comp, nu) * area
                        for comp in comps]
        return np.stack(columns, axis=-1)

    return f


# --------------------------------------------------------------- radii tools

def _check_radii(radii):
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 3:
        raise ValueError("need a 1-d schedule of at least 3 radii")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    return radii


def _series(spec, radii, raw_fluxes, quad_errors, norm):
    samples = [FluxSample(float(r), float(raw), float(raw) * norm,
                          float(err) * abs(norm))
               for r, raw, err in zip(radii, raw_fluxes, quad_errors)]
    limit, limit_error, model = extrapolate(
        geodesic_radius(spec.chart_kind, radii),
        [s.normalized for s in samples], [s.quad_error for s in samples],
        decay_mode(spec.chart_kind))
    return RadialSeries(samples, limit, limit_error, model)


# ------------------------------------------------------- basis-wide series

def charge_series(spec: MetricSpec, radii, rule: SphereRule, kernels=(),
                  fields=(), nthreads=None):
    """Normalized charge series for kernel functions and conformal Killing
    fields, with one sphere pass per radius (:func:`sphere_integrand`).

    Kernel functions V give the classical charges (flux of ``U(V, g, b)`` in
    the background measure); conformal Killing fields X give the Ricci
    charges (flux of ``G(X, nu)`` in the metric measure, with the modified
    Einstein tensor on hyperbolic-type metrics).  The centers, the elements
    of index > 0 in the cartesian chart, divide by the mass: the limit of
    the ``const_one`` kernel (index 0) that must lead ``kernels``.  A missing
    or vanishing mass raises ZeroMassError.  Returns
    ``(kernel_series, field_series)`` in the order requested.
    """
    radii = _check_radii(radii)
    chart = spec.chart_kind
    elements = (*kernels, *fields)
    for element in elements:
        if element.chart_kind != chart:
            raise ChartMismatchError(
                f"{element.id} is defined in the {element.chart_kind.value} "
                f"chart, the metric in the {chart.value} chart")
    results = [integrate_sphere(sphere_integrand(
                   spec, kernels, fields, r, modified=spec.is_hyperbolic_type),
                   r, rule, chart, nthreads=nthreads)
               for r in radii] if elements else []
    series = []
    for k, element in enumerate(elements):
        field = k >= len(kernels)
        mass = None
        if chart == ChartKind.CARTESIAN \
                and (element.kernel if field else element).index > 0:
            if not (kernels and kernels[0].index == 0):
                raise ZeroMassError(
                    f"center charge {element.id} needs the const_one kernel "
                    f"first in the same call")
            mass = series[0].limit
            if abs(mass) < _MASS_FLOOR:
                raise ZeroMassError(
                    "center of mass undefined for vanishing mass")
        series.append(_series(
            spec, radii, [q.value[k] for q in results],
            [q.error_estimate[k] for q in results],
            _normalization(spec.n, field, mass)))
    return series[:len(kernels)], series[len(kernels):]


# ----------------------------------------------------------------- diagnostics

@dataclass
class RTReport:
    """Regge-Teitelboim parity diagnostics for a flat-type metric."""

    radii: np.ndarray
    sup_odd: np.ndarray       # per-radius sup of the odd metric part
    exponent: float           # fitted decay exponent of sup_odd (inf if even)
    expected: float           # tau + 1
    even: bool
    status: str               # "pass" or "warn"

    @property
    def diagnostics(self) -> dict:
        """The report diagnostics of the parity (RT) condition."""
        return {"rt_exponent": self.exponent, "rt_expected": self.expected,
                "rt_status": self.status}


def rt_diagnostics(spec: MetricSpec, radii, rule: SphereRule) -> RTReport:
    """Sample the parity-odd part of g over antipodal node pairs and fit its
    decay; g is evaluated without derivatives."""
    if not spec.is_flat_type:
        raise ChartMismatchError("RT diagnostics apply to flat-type metrics")
    radii = _check_radii(radii)
    sups = np.empty(radii.size)
    for k, r in enumerate(radii):
        pts = r * rule.units
        godd = 0.5 * (jet_values(spec, pts)[0].g - jet_values(spec, -pts)[0].g)
        sups[k] = np.abs(godd).max()
    exponent = fit_decay_exponent(radii, sups, "power")
    even = bool(np.all(sups <= 1e-14))
    expected = float(spec.n - 1)     # tau + 1 for the decay rate tau = n - 2
    ok = even or (np.isfinite(exponent) and exponent > expected - 0.5)
    return RTReport(radii, sups, exponent, expected, even,
                    "pass" if ok else "warn")
