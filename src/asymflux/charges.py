"""Boundary integrands and normalized asymptotic charges.

Implements the general charge integrand pairing a kernel function with the
deviation ``eps = g - b`` from the background,

    U(V, g, b) = V (-delta^b eps - d tr_b eps) + tr_b(eps) dV - eps(grad_b V, .),

its classical specializations (mass with V = 1, center of mass with
V = x^alpha), the Einstein-tensor flux charges paired with conformal Killing
fields, and the hyperbolic-mass functional.  The deviation is evaluated by
the catalog's stable closed forms so that fluxes remain accurate at radii
where ``g - b`` underflows a naive subtraction.

Each charge belongs to one element i of the paired basis (V^(i), X^(i)),
and its basis index is its only handle: the classical charge is linear in
V^(i), the Ricci one in X^(i), and both integrate over the same sphere S_r.
So :func:`charge_series`, the one function that computes charges, takes
basis indices and makes one sphere pass per radius: its integrand
evaluates the metric jet, the background jet, the deviation, the basis
jets, the curvature, normal and area element once per node and contracts
them with every requested kernel function and field.  The same pass reduces
the node data of the hypothesis diagnostics to one sup per radius, which
:func:`hypothesis_diagnostics` judges.

The angular content of every flux fades toward its leading harmonic as r
grows, so each radius takes its own sphere rule.  The first takes the rule
it is given (``--degree``); each later one takes the rule that
:func:`asymflux.quadrature._next_rule`, the one pick of every sequence of
spheres, reads from the sphere before: a lower one only where that
sphere's estimate, and its estimate of every degree down to the lower
one, read from its own nodes, is roundoff.  The pick reads the ``V^(0)``
flux alone (``const_one`` on a flat-type metric), computed in every pass,
so a charge computed alone gets the rules, and the bits, it gets inside
the full basis.  A polar expression metric alone keeps one rule: its
dense jet takes the modified Einstein tensor from the general formula,
whose roundoff sets the Ricci fluxes at the outer radii, and a different
node set moves those by more than the bars.  The polar catalog kinds take
that tensor in closed form (:class:`~asymflux.geometry.WarpedJet`), with
no such roundoff, so they pick as the flat-type metrics do.

Every background is diagonal, and :func:`~asymflux.catalog.jets` gives it
as the hyper-dual of its diagonal, so the V-independent parts of ``U`` are
closed forms in ``b_ii``, ``d_k b_ii`` and the deviation, at O(n^2) per
node: ``b^{-1}`` is the vector ``1/b_ii``, and ``Gamma(b)`` enters through
the log-derivatives ``d_k b_ii / b_ii`` (:func:`_michel_pieces`); no dense
``b``, factorization, Christoffel array or ``d b^{-1}`` is built.  On a
flat-type metric the background is the Euclidean ``delta`` of the
cartesian chart, whose inverse is itself and whose symbols vanish, so the
pass takes the ADM flux ``d_i eps_ij - d_j tr eps`` and ``tr eps``
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
from .fields import basis_jets, check_indices
from .geometry import (ChartKind, CurvatureBundle, MetricJet, SymTensorJet,
                       WarpedJet, curvature, diagonal_sum, sum_last)
from .hyperdual import HyperDual
from .limits import FluxSample, RadialSeries, extrapolate, fit_decay_exponent
from .quadrature import (_PICK_LOWER, SphereRule, _next_rule,
                         integrate_sphere, omega)

__all__ = ["sphere_normal_area", "einstein_fluxes", "sphere_integrand",
           "charge_series", "hypothesis_diagnostics"]

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

def _michel_pieces(eps: SymTensorJet, b: HyperDual):
    """The V-independent parts of ``U``, ``(binv, -delta eps - d tr eps,
    tr eps)``, on the diagonal background ``b`` (the first-order jet of
    ``b_ii``; ``binv`` is ``1/b_ii``), in closed form at O(n^2) per node.

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
    inv = 1.0 / b.val
    L = b.grad.swapaxes(-1, -2) / b.val[..., None, :]   # [..., k, i]
    e = inv * np.diagonal(eps.value, axis1=-2, axis2=-1)
    c = inv * (np.diagonal(L, axis1=-2, axis2=-1) - 0.5 * sum_last(L))
    # [..., j, i] = d_i eps_ij - d_j eps_ii
    d_eps = (np.diagonal(eps.d, axis1=-3, axis2=-2)
             - np.diagonal(eps.d, axis1=-2, axis2=-1))
    source = sum_last(inv[..., None, :] * d_eps)
    source -= sum_last(c[..., None, :] * eps.value)   # eps is symmetric
    source += 0.5 * sum_last(L * e[..., None, :])
    return inv, source, sum_last(e)


def _flat_michel_pieces(eps: SymTensorJet, b: HyperDual):
    """:func:`_michel_pieces` on the Euclidean background, whose diagonal is
    ones with zero derivatives: ``binv`` is ``b_ii`` itself, the
    Christoffel and ``d b^{-1}`` terms, exact zeros, are left out, and the
    contractions with ``delta`` are diagonal sums in the index order of the
    general formula (the test oracle)."""
    div_eps = diagonal_sum(eps.d, -3, -2)
    dtr = diagonal_sum(eps.d, -2, -1)
    tr_eps = diagonal_sum(eps.value, -2, -1)
    return b.val, div_eps - dtr, tr_eps


def _michel_contract(V: HyperDual, eps: SymTensorJet, pieces,
                     nu: np.ndarray) -> np.ndarray:
    binv, source, tr_eps = pieces
    gradV = binv * V.grad
    one_form = (V.val[..., None] * source
                + tr_eps[..., None] * V.grad
                - (gradV[..., None, :] @ eps.value)[..., 0, :])
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


def einstein_fluxes(G, comps, points, chart_kind, r, bundle) -> list:
    """``G(X, nu) dA_g`` on S_r for the components ``comps`` of each X, with
    the metric's normal and area element from its curvature ``bundle``: the
    Ricci columns of :func:`sphere_integrand` and the boundary fluxes of
    :func:`asymflux.verify.pohozaev_check`."""
    nu, area = sphere_normal_area(points, chart_kind, r, bundle)
    G_nu = (G @ nu[..., None])[..., 0]
    return [sum_last(comp * G_nu) * area for comp in comps]


def _finite(values: np.ndarray, what: str, r: float) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise QuadratureError(f"{what} not finite on S_r at r = {r}")
    return values


def sphere_integrand(spec: MetricSpec, kernels, fields, r: float):
    """Integrand over S_r with one column per kernel function ``V^(i)``, i
    in ``kernels``, then one per field ``X^(i)``, i in ``fields``, and the
    node data of the hypothesis diagnostics.  The basis indices name
    elements of the chart of ``spec``; one outside ``0..n`` is a ValueError
    (:func:`~asymflux.fields.check_indices`) before any node is evaluated.

    Kernel columns are ``U(V, g, b)(nu) dA`` with the background normal and
    area element; field columns are ``G(X, nu) dA_g`` with the metric's,
    where ``G`` is the Einstein tensor, the modified one on hyperbolic-type
    metrics.  Each chunk makes one :func:`~asymflux.catalog.jets` call
    for the metric jet, the background jet and the deviation, and one
    :func:`~asymflux.fields.basis_jets` call for every kernel and field jet,
    which reads that background: a chunk builds its background once.

    It returns ``(columns, node_data)``, the node data being the largest
    entry of the frame-rescaled deviation ``|eps_ij| / sqrt(b_ii b_jj)``;
    with fields, ``|Scal - Scal_b| dA_b``; with a center
    (cartesian chart, index > 0), the upper triangle of the rescaled
    deviation.
    """
    chart = spec.chart_kind
    kernels = check_indices(kernels, spec.n)
    fields = check_indices(fields, spec.n)
    michel_pieces = _flat_michel_pieces if spec.is_flat_type \
        else _michel_pieces
    odd = chart == ChartKind.CARTESIAN and any(
        i > 0 for i in (*kernels, *fields))
    scal_b = 0.0 if spec.is_flat_type else -spec.n * (spec.n - 1)
    upper_i, upper_j = np.triu_indices(spec.n)

    def kernel_columns(nu, area, b, eps, scalars):
        pieces = michel_pieces(eps, b)
        return [_michel_contract(V, eps, pieces, nu) * area for V in scalars]

    def f(points):
        jet, b, eps = jets(spec, points)
        if fields and isinstance(jet, (MetricJet, WarpedJet)):
            # the metric is inverted below; a non-finite dg or ddg reaches
            # the integrand, which integrate_sphere rejects with the same
            # error (a conformal jet's factor is checked by curvature)
            _finite(jet.diag.val if isinstance(jet, WarpedJet) else jet.g,
                    "metric jet", r)
        bdiag = np.sqrt(b.val)
        frame = eps.value / (bdiag[..., :, None] * bdiag[..., None, :])
        data = [np.abs(frame).max(axis=(-2, -1))]
        upper = frame[..., upper_i, upper_j] if odd else None
        del frame
        scalars, vectors = basis_jets(points, chart, kernels, fields, 1,
                                      b=b)
        # the background's normal and area element, built once for the
        # kernel columns and the scalar-curvature datum
        nu, area = sphere_normal_area(points, chart, r)
        columns = kernel_columns(nu, area, b, eps, scalars) if kernels \
            else []
        # the background jet, the deviation and the kernel jets die here,
        # before curvature runs; of the field jets only the components stay
        comps = [X.comp for X in vectors]
        del b, eps, scalars, vectors, nu
        if fields:
            bun = curvature(jet)
            G = bun.einstein if spec.is_flat_type else bun.modified_einstein
            columns += einstein_fluxes(G, comps, points, chart, r, bun)
            data.append(np.abs(bun.scal - scal_b) * area)
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

def charge_series(spec: MetricSpec, radii, rule: SphereRule, indices):
    """The classical and Ricci charges of the basis elements ``indices``
    (non-empty, strictly increasing, within ``0..n``; anything else is a
    ValueError), with one sphere pass per radius (:func:`sphere_integrand`).

    The classical charge of element i is the flux of ``U(V^(i), g, b)`` in
    the background measure, its Ricci charge the flux of ``G(X^(i), nu)``
    in the metric measure, with the modified Einstein tensor on
    hyperbolic-type metrics (``killing_basis``).  The kernel ``V^(0)``
    leads every pass but a polar expression metric's, requested or not:
    its flux picks each later radius's rule (:func:`_sphere_fluxes`), and
    on flat-type metrics, where it is ``const_one``, its limit is the mass
    the centers, the elements of index > 0, divide by.  A center's
    ``limit_error`` adds the mass's relative error, ``|center| err_m /
    |m|``.  On a vanishing mass the centers raise ZeroMassError, unless
    index 0 was requested: then the call returns the mass pair alone, from
    the same pass.

    Returns ``(mass, classical, ricci, sups)``: the ``const_one`` series
    (None in a polar chart), one classical and one Ricci series per index,
    in order, and the per-radius sups of the node data
    (:func:`_node_sups`).
    """
    indices, n = list(indices), spec.n
    if not indices or indices[0] < 0 or indices[-1] > n \
            or any(a >= b for a, b in zip(indices, indices[1:])):
        raise ValueError(f"basis indices must be non-empty, strictly "
                         f"increasing and within 0..{n}, got {indices}")
    radii = _check_radii(radii)
    flat = spec.is_flat_type
    # a polar expression metric's dense jet keeps one rule (_sphere_fluxes)
    picks = flat or spec.kind != "expression"
    lead = int(picks and indices[0] != 0)
    kernels = [0] * lead + indices
    values, errors, sups, rules = _sphere_fluxes(spec, radii, rule, kernels,
                                                 indices, picks)

    def normalized(column, field, center=False):
        entry = _series(spec, radii, rules, values[:, column],
                        errors[:, column], _normalization(
                            n, field, mass.limit if center else None))
        if center:
            # a center is a flux over the mass limit, so it carries the
            # mass's relative error on top of its own
            entry.limit_error += abs(entry.limit) * mass.limit_error \
                / abs(mass.limit)
        return entry

    mass = normalized(0, False) if flat else None
    if flat and indices != [0] and abs(mass.limit) < _MASS_FLOOR:
        if lead:
            raise ZeroMassError("center of mass undefined for vanishing mass")
        indices = [0]                   # the mass pair alone
    classical, ricci = [], []
    for k, i in enumerate(indices):
        center = flat and i > 0
        classical.append(mass if flat and i == 0
                         else normalized(lead + k, False, center))
        ricci.append(normalized(len(kernels) + k, True, center))
    return mass, classical, ricci, sups


def _sphere_fluxes(spec: MetricSpec, radii, rule: SphereRule, kernels,
                   fields, picks: bool):
    """The sphere pass of :func:`charge_series`: raw fluxes and their
    quadrature errors, two ``(R, K)`` arrays with one row per radius and one
    column per kernel, then per field, a dict of ``(R,)`` sups of the node
    data, each radius's reduced on its own rule before the next starts,
    and the rule of each radius: ``rule`` first, then, with ``picks``, what
    :func:`asymflux.quadrature._next_rule` picks from column 0, the
    ``V^(0)`` flux that :func:`charge_series` leads with, of the sphere
    before.  So a charge gets the same rules alone as inside the full
    basis.  Without ``picks``, on a polar expression metric, every radius
    keeps ``rule``: the roundoff of the dense jet's modified Einstein
    tensor sets the Ricci fluxes at the outer radii, and a different node
    set moves those by more than their bars."""
    chart = spec.chart_kind

    def sphere(r, rule):
        # the node data die here, before the next sphere's pass
        q = integrate_sphere(sphere_integrand(spec, kernels, fields, r),
                             r, rule, chart,
                             lower=_PICK_LOWER if picks else None)
        return ((q.value, q.error_estimate,
                 _node_sups(q.node_data, rule)),
                _next_rule(rule, q, 0) if picks else rule)

    rules, rows = [], []
    for r in radii:
        rules.append(rule)
        row, rule = sphere(r, rule)
        rows.append(row)
    values, errors, sups = zip(*rows)
    return (np.array(values), np.array(errors),
            {key: np.array([s[key] for s in sups]) for key in sups[0]}, rules)


def _node_sups(data, rule: SphereRule) -> dict:
    """One sphere's node data (:func:`sphere_integrand`, with fields, as
    every charge pass has) reduced to the sups ``decay``, ``scal`` and
    ``odd``, half the largest change of a deviation entry between antipodal
    nodes of ``rule`` (with a center)."""
    sups = {"decay": data[:, 0].max(), "scal": data[:, 1].max()}
    upper = data[:, 2:]
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
