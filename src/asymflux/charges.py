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
them with the whole kernel basis and Killing basis.  The same pass reduces
the node data of the hypothesis diagnostics to one sup per radius, which
:func:`hypothesis_diagnostics` judges.

On a flat-type metric the angular content of every flux fades toward its
leading harmonic as r grows, so each radius takes its own sphere rule.  The
first takes the rule it is given (``--degree``); each later one takes the
rule that :func:`asymflux.quadrature._next_rule`, the one pick of every
sequence of spheres, reads from the sphere before: a lower one only where
that sphere's estimate, and its estimate of every degree down to the
lower one, read from its own nodes, is roundoff.  The pick reads the
``const_one`` flux alone, computed in every pass, so a charge computed
alone gets the rules, and the bits, it gets inside the full basis.
Hyperbolic-type metrics keep one rule: at their outer radii the Ricci
fluxes are set by the roundoff of the modified Einstein tensor, which a
different node set changes by more than the bars.

Every background is diagonal, so the V-independent parts of ``U`` are
closed forms in ``b_ii``, ``d_k b_ii`` and the deviation, at O(n^2) per
node: ``b^{-1}`` is ``1/b_ii``, and ``Gamma(b)`` enters through the
log-derivatives ``d_k b_ii / b_ii`` (:func:`_michel_pieces`); no
factorization, Christoffel array or ``d b^{-1}`` of the background is
built.  On a flat-type metric the background is the Euclidean ``delta`` of
the cartesian chart, whose inverse is itself and whose symbols vanish, so
the pass takes the ADM flux ``d_i eps_ij - d_j tr eps`` and ``tr eps``
(:func:`_flat_michel_pieces`) with the ``delta``-contractions of the
general formula, which the tests keep as their oracle, bit for bit.

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

import numpy as np

from .catalog import (MetricSpec, coordinate_volume, decay_mode,
                      geodesic_radius, jets)
from .errors import ChartMismatchError, QuadratureError, ZeroMassError
from .fields import basis_jets, kernel_basis
from .geometry import (ChartKind, CurvatureBundle, MetricJet, ScalarJet,
                       SymTensorJet, curvature, diagonal_sum, sum_last)
from .limits import FluxSample, RadialSeries, extrapolate, fit_decay_exponent
from .quadrature import (_PICK_LOWER, SphereRule, _next_rule,
                         integrate_sphere, omega)

__all__ = ["sphere_normal_area", "sphere_integrand", "charge_series",
           "hypothesis_diagnostics"]

_MASS_FLOOR = 1e-12


def _normalization(n: int, field: bool, mass: float | None) -> float:
    """Exact normalization of a kernel function's charge (classical) or a
    field's (Ricci); ``mass`` is given for the centers alone, which divide
    by it."""
    if field:
        if mass is None:
            return -1.0 / ((n - 1) * (n - 2) * omega(n))
        return 1.0 / (2.0 * (n - 1) * (n - 2) * omega(n) * mass)
    classical = 1.0 / (2.0 * (n - 1) * omega(n))
    return classical if mass is None else classical / mass


# --------------------------------------------------------------- integrands

def _michel_pieces(eps: SymTensorJet, b: SymTensorJet):
    """The V-independent parts of ``U``, ``(binv, -delta eps - d tr eps,
    tr eps)``, on a diagonal background, in closed form at O(n^2) per node.

    With ``L_ki = d_k b_ii / b_ii`` the symbols of ``b`` are ``Gamma^i_ki =
    L_ki / 2`` and, for ``l != i``, ``Gamma^l_ii = -L_li b_ii / (2 b_ll)``;
    every other vanishes.  So ``b^{ii} Gamma^l_ii = c^l = b^{ll} (L_ll -
    sum_i L_li / 2)``, the symbols ``Gamma^m_ij`` with ``i != j`` contract
    against ``b^{ii} eps_im`` to ``sum_i L_ji e_i / 2`` (``e_i = b^{ii}
    eps_ii``), and with ``d_j tr eps = sum_i (b^{ii} d_j eps_ii - L_ji
    e_i)``::

        -delta eps - d tr eps = sum_i b^{ii} (d_i eps_ij - d_j eps_ii)
                                - c^l eps_lj + sum_i L_ji e_i / 2

    where the ``i = j`` term of the first sum is an exact zero."""
    n = b.value.shape[-1]
    bii = np.diagonal(b.value, axis1=-2, axis2=-1)
    inv = 1.0 / bii
    L = np.diagonal(b.d, axis1=-2, axis2=-1) / bii[..., None, :]
    e = inv * np.diagonal(eps.value, axis1=-2, axis2=-1)
    c = inv * (np.diagonal(L, axis1=-2, axis2=-1) - 0.5 * sum_last(L))
    # [..., j, i] = d_i eps_ij - d_j eps_ii
    d_eps = (np.diagonal(eps.d, axis1=-3, axis2=-2)
             - np.diagonal(eps.d, axis1=-2, axis2=-1))
    source = sum_last(inv[..., None, :] * d_eps)
    source -= sum_last(c[..., None, :] * eps.value)   # eps is symmetric
    source += 0.5 * sum_last(L * e[..., None, :])
    return inv[..., :, None] * np.eye(n), source, sum_last(e)


def _flat_michel_pieces(eps: SymTensorJet, b: SymTensorJet):
    """:func:`_michel_pieces` on the Euclidean background, whose jet is the
    identity with zero derivatives: ``binv`` is ``b`` itself, the
    Christoffel and ``d b^{-1}`` terms, exact zeros, are left out, and the
    contractions with ``delta`` are diagonal sums in the index order of the
    general formula (the test oracle)."""
    div_eps = diagonal_sum(eps.d, -3, -2)
    dtr = diagonal_sum(eps.d, -2, -1)
    tr_eps = diagonal_sum(eps.value, -2, -1)
    return b.value, div_eps - dtr, tr_eps


def _michel_contract(V: ScalarJet, eps: SymTensorJet, pieces,
                     nu: np.ndarray) -> np.ndarray:
    binv, source, tr_eps = pieces
    gradV = binv @ V.grad[..., None]
    one_form = (V.value[..., None] * source
                + tr_eps[..., None] * V.grad
                - (gradV.swapaxes(-1, -2) @ eps.value)[..., 0, :])
    return sum_last(one_form * nu)


# ------------------------------------------------- sphere integrands

def sphere_normal_area(points: np.ndarray, chart_kind: ChartKind, r: float,
                       bundle: CurvatureBundle | None = None):
    """Unit normal ``nu`` and area element of the coordinate sphere S_r.

    Without ``bundle`` both belong to the background metric; with the
    metric's curvature bundle to the metric, using
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
    if bundle is None:
        if chart_kind == ChartKind.POLAR_AREA:   # b_rr = 1/(1+rho^2)
            w[..., 0] = np.sqrt(1.0 + points[..., 0] ** 2)
        radial = np.sinh(r) if chart_kind == ChartKind.POLAR_GEODESIC \
            else np.float64(r)
        area = np.full(points.shape[:-1], radial ** (n - 1))
        return w, _finite(area, "area element", r)
    raised = (bundle.ginv @ w[..., None])[..., 0]      # grad r = g^{-1} dr
    gradnorm = np.sqrt(sum_last(w * raised))
    nu = raised / gradnorm[..., None]
    area = (bundle.sqrt_det * gradnorm
            * coordinate_volume(points, chart_kind, r))
    return nu, _finite(area, "area element", r)


def _einstein_fluxes(G, comps, points, chart_kind, r, bundle) -> list:
    """``G(X, nu) dA_g`` on S_r for the components ``comps`` of each X."""
    nu, area = sphere_normal_area(points, chart_kind, r, bundle)
    G_nu = (G @ nu[..., None])[..., 0]
    return [sum_last(comp * G_nu) * area for comp in comps]


def _finite(values: np.ndarray, what: str, r: float) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise QuadratureError(f"{what} not finite on S_r at r = {r}")
    return values


def sphere_integrand(spec: MetricSpec, kernels, fields, r: float,
                     scal: bool = False):
    """Integrand over S_r with one column per kernel V, then one per field X,
    and the node data of the hypothesis diagnostics.

    Kernel columns are ``U(V, g, b)(nu) dA`` with the background normal and
    area element; field columns are ``G(X, nu) dA_g`` with the metric's,
    where ``G`` is the Einstein tensor, the modified one on hyperbolic-type
    metrics.  Each chunk makes one :func:`~asymflux.catalog.jets` call
    for the metric jet, the background jet and the deviation, and one
    :func:`~asymflux.fields.basis_jets` call for every kernel and field jet.

    It returns ``(columns, node_data)``, the node data being the largest
    entry of the frame-rescaled deviation ``|eps_ij| / sqrt(b_ii b_jj)``;
    with fields and ``scal``, ``|Scal - Scal_b| dA_b``; with a center
    (cartesian chart, index > 0), the upper triangle of the rescaled
    deviation.
    """
    chart = spec.chart_kind
    michel_pieces = _flat_michel_pieces if spec.is_flat_type \
        else _michel_pieces
    odd = chart == ChartKind.CARTESIAN and any(
        V.index > 0 for V in (*kernels, *(X.kernel for X in fields)))
    scal_b = 0.0 if spec.is_flat_type else -spec.n * (spec.n - 1)
    upper_i, upper_j = np.triu_indices(spec.n)

    def kernel_columns(points, b, eps, scalars):
        nu, area = sphere_normal_area(points, chart, r)
        pieces = michel_pieces(eps, b)
        return [_michel_contract(V, eps, pieces, nu) * area for V in scalars]

    def f(points):
        jet, b, eps = jets(spec, points)
        if fields and isinstance(jet, MetricJet):
            # g is inverted below; a non-finite dg or ddg reaches the
            # integrand, which integrate_sphere rejects with the same error
            # (a conformal jet's factor is checked by curvature)
            _finite(jet.g, "metric jet", r)
        bdiag = np.sqrt(np.diagonal(b.value, axis1=-2, axis2=-1))
        frame = eps.value / (bdiag[..., :, None] * bdiag[..., None, :])
        data = [np.abs(frame).max(axis=(-2, -1))]
        upper = frame[..., upper_i, upper_j] if odd else None
        del frame
        scalars, vectors = basis_jets(points, kernels, fields)
        columns = kernel_columns(points, b, eps, scalars) if kernels else []
        # the background jet, the deviation and the kernel jets die here,
        # before curvature runs; of the field jets only the components stay
        comps = [X.comp for X in vectors]
        del b, eps, scalars, vectors
        if fields:
            bun = curvature(jet)
            G = bun.einstein if spec.is_flat_type else bun.modified_einstein
            columns += _einstein_fluxes(G, comps, points, chart, r, bun)
            if scal:
                data.append(np.abs(bun.scal - scal_b)
                            * sphere_normal_area(points, chart, r)[1])
        if odd:
            data.append(upper)
        return np.stack(columns, axis=-1), np.column_stack(data)

    return f


# --------------------------------------------------------------- radii tools

def _check_radii(radii):
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 3:
        raise ValueError("need a 1-d schedule of at least 3 radii")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    return radii


def _series(spec, radii, rules, raw_fluxes, quad_errors, norm):
    samples = [FluxSample(float(r), float(raw), float(raw) * norm,
                          float(err) * abs(norm), rule.degree, rule.node_count)
               for r, rule, raw, err in zip(radii, rules, raw_fluxes,
                                            quad_errors)]
    limit, limit_error, model = extrapolate(
        geodesic_radius(spec.chart_kind, radii),
        [s.normalized for s in samples], [s.quad_error for s in samples],
        decay_mode(spec.chart_kind))
    return RadialSeries(samples, limit, limit_error, model)


# ------------------------------------------------------- basis-wide series

def charge_series(spec: MetricSpec, radii, rule: SphereRule, kernels=(),
                  fields=()):
    """Normalized charge series for kernel functions and conformal Killing
    fields, with one sphere pass per radius (:func:`sphere_integrand`).

    Kernel functions V give the classical charges (flux of ``U(V, g, b)`` in
    the background measure); conformal Killing fields X give the Ricci
    charges (flux of ``G(X, nu)`` in the metric measure, with the modified
    Einstein tensor on hyperbolic-type metrics).  The centers, the elements
    of index > 0 in the cartesian chart, divide by the mass: the limit of
    the ``const_one`` kernel (index 0) that must lead ``kernels``, and their
    ``limit_error`` adds the mass's relative error, ``|center| err_m / |m|``.
    A missing or vanishing mass raises ZeroMassError.  ``rule`` integrates
    the first radius and caps the rules of the others
    (:func:`asymflux.quadrature._next_rule`).
    Returns ``(kernel_series, field_series)`` in the order requested.  It is
    ``_sphere_fluxes`` followed by ``_normalized_series``, the two halves
    :func:`asymflux.verify.charge_pairs` calls apart.
    """
    values, errors, _, rules = _sphere_fluxes(spec, radii, rule, kernels,
                                              fields)
    return _normalized_series(spec, radii, rules, values, errors, kernels,
                              fields)


def _sphere_fluxes(spec: MetricSpec, radii, rule: SphereRule, kernels=(),
                   fields=(), scal: bool = False):
    """The sphere pass of :func:`charge_series`: raw fluxes and their
    quadrature errors, two ``(R, K)`` arrays with one row per radius and one
    column per kernel, then per field, a dict of ``(R,)`` sups of the node
    data, each radius's reduced on its own rule before the next starts
    (``scal`` with fields only where ``scal`` asks for it), and the rule of
    each radius: ``rule`` first, then, on flat-type metrics, what
    :func:`asymflux.quadrature._next_rule` picks from the ``const_one``
    column of the sphere before.  The pick reads the
    ``const_one`` flux, integrated as an unreported column where
    ``kernels`` lacks it, so a charge gets the same rules alone as inside
    the full basis.  Hyperbolic-type metrics keep ``rule``: the roundoff of
    their modified Einstein tensor sets their Ricci fluxes at the outer
    radii, and a different node set moves those by more than their bars."""
    radii = _check_radii(radii)
    chart = spec.chart_kind
    elements = (*kernels, *fields)
    for element in elements:
        if element.chart_kind != chart:
            raise ChartMismatchError(
                f"{element.id} is defined in the {element.chart_kind.value} "
                f"chart, the metric in the {chart.value} chart")
    if not elements:
        return (np.zeros((radii.size, 0)), np.zeros((radii.size, 0)), {},
                [rule] * radii.size)
    pick, passed, keep = None, kernels, slice(None)
    indices = [V.index for V in kernels]
    if spec.is_flat_type and 0 in indices:
        pick = indices.index(0)
    elif spec.is_flat_type:
        pick = len(kernels)
        passed = (*kernels, kernel_basis(spec.n, chart)[0])
        keep = np.delete(np.arange(len(passed) + len(fields)), pick)
    scal = scal and bool(fields)

    def sphere(r, rule):
        # the node data die here, before the next sphere's pass
        q = integrate_sphere(sphere_integrand(spec, passed, fields, r, scal),
                             r, rule, chart,
                             lower=None if pick is None else _PICK_LOWER)
        return ((q.value[keep], q.error_estimate[keep],
                 _node_sups(q.node_data, rule, scal)),
                rule if pick is None else _next_rule(rule, q, pick))

    rules, rows = [], []
    for r in radii:
        rules.append(rule)
        row, rule = sphere(r, rule)
        rows.append(row)
    values, errors, sups = zip(*rows)
    return (np.array(values), np.array(errors),
            {key: np.array([s[key] for s in sups]) for key in sups[0]}, rules)


def _node_sups(data, rule: SphereRule, scal: bool) -> dict:
    """One sphere's node data (:func:`sphere_integrand`) reduced to the sups
    ``decay``, ``scal`` (with its column) and ``odd``, half the largest
    change of a deviation entry between antipodal nodes of ``rule`` (with
    a center)."""
    sups = {"decay": data[:, 0].max()}
    if scal:
        sups["scal"] = data[:, 1].max()
    upper = data[:, 1 + scal:]
    if upper.shape[1]:
        antipode = rule.antipode
        # one entry at a time: the temporaries stay at one node vector
        sups["odd"] = 0.5 * max(np.abs(entry - entry[antipode]).max()
                                for entry in upper.T)
    return sups


def hypothesis_diagnostics(spec: MetricSpec, radii, sups) -> dict:
    """The report diagnostics of the hypotheses behind the equality of the
    classical and Ricci charges, judged from the per-radius sups of the
    charge pass (:func:`_node_sups`) without evaluating the metric.  Each
    hypothesis whose sups ``sups`` holds is judged:

    * ``decay``: ``tau_hat``, the fitted decay exponent of the sup of the
      deviation in a background-orthonormal frame (``eps_ij / sqrt(b_ii
      b_jj)``), which makes the hyperbolic rate come out in the geodesic
      ``e^{-tau s}`` scale the definitions use (inf when the deviation
      vanishes); ``tau_ok`` when it exceeds ``tau_threshold``, ``(n-2)/2``
      on flat-type metrics and ``n/2`` on hyperbolic ones.
    * ``scal``: ``scal_integrable``, the proxy for integrable scalar
      curvature: the sup of ``|Scal - Scal_b| dA_b`` at the last radius is
      at most ``1e-8 max(largest, 1)`` or below 0.9 times the first.
    * ``odd`` (flat-type metrics only, else ChartMismatchError):
      ``rt_exponent``, the fitted power decay of the parity-odd part of
      ``g`` (inf when it reads even, every sup at most 1e-14), against
      ``rt_expected``, ``tau + 1 = n - 1``; ``rt_status`` passes above
      ``n - 1.5``.
    """
    radii = _check_radii(radii)
    chart = spec.chart_kind
    report = {}
    if "decay" in sups:
        tau = fit_decay_exponent(geodesic_radius(chart, radii), sups["decay"],
                                 decay_mode(chart))
        threshold = 0.5 * (spec.n - 2) if spec.is_flat_type else 0.5 * spec.n
        report.update(tau_hat=tau, tau_threshold=threshold,
                      tau_ok=bool(tau > threshold))
    if "scal" in sups:
        scal = np.asarray(sups["scal"], dtype=float)
        report["scal_integrable"] = bool(
            scal[-1] <= 1e-8 * max(scal.max(), 1.0) or scal[-1] < 0.9 * scal[0])
    if "odd" in sups:
        if not spec.is_flat_type:
            raise ChartMismatchError("RT diagnostics apply to flat-type metrics")
        odd = np.asarray(sups["odd"], dtype=float)
        even = bool(np.all(odd <= 1e-14))
        exponent = np.inf if even else fit_decay_exponent(radii, odd, "power")
        expected = float(spec.n - 1)
        report.update(rt_exponent=exponent, rt_expected=expected,
                      rt_status="pass" if even or exponent > expected - 0.5
                      else "warn")
    return report


def _normalized_series(spec: MetricSpec, radii, rules, values, errors,
                       kernels=(), fields=()):
    """The normalization of :func:`charge_series`: one extrapolated series
    per column of the :func:`_sphere_fluxes` arrays ``values`` and
    ``errors``, whose columns are ``kernels``, then ``fields``, integrated
    on ``rules``, one per radius.  Centers raise ZeroMassError as in
    :func:`charge_series`."""
    radii = _check_radii(radii)
    series = []
    for k, element in enumerate((*kernels, *fields)):
        field = k >= len(kernels)
        mass = None
        if spec.chart_kind == ChartKind.CARTESIAN \
                and (element.kernel if field else element).index > 0:
            if not (kernels and kernels[0].index == 0):
                raise ZeroMassError(
                    f"center charge {element.id} needs the const_one kernel "
                    f"first in the same call")
            mass = series[0].limit
            if abs(mass) < _MASS_FLOOR:
                raise ZeroMassError(
                    "center of mass undefined for vanishing mass")
        entry = _series(spec, radii, rules, values[:, k], errors[:, k],
                        _normalization(spec.n, field, mass))
        if mass is not None:
            # a center is a flux over the mass limit, so it carries the
            # mass's relative error on top of its own
            entry.limit_error += abs(entry.limit) \
                * series[0].limit_error / abs(mass)
        series.append(entry)
    return series[:len(kernels)], series[len(kernels):]
