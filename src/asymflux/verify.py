"""Executable checks of the structural identities behind the charges.

Three families of checks:

* the integrated Bianchi (Pohozaev-type) identity: the Einstein-tensor flux
  through the boundary of an annulus, paired with a conformal Killing field,
  equals ``(n-2)/(2n)`` times the bulk integral of ``Scal * delta X``,
* the kernel identity on Einstein metrics: ``Hess(delta X) = -lambda (delta X) g``
  together with its trace ``tr Hess(delta X) = -n lambda delta X``,
* equivalence reports comparing the classical charge limits with their
  Einstein-tensor versions on the same metric, with hypothesis diagnostics.

:func:`agreement` is the one rule for a classical charge and its Ricci
version; the CLI commands use it too.  All integral checks reuse the
deterministic quadrature stack, so reports are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import MetricSpec, coordinate_volume, metric_jet
from .charges import (charge_series, rt_diagnostics, sphere_integrand,
                      sphere_normal_area)
from .errors import DomainError, ZeroMassError
from .fields import ConformalKilling, basis_jets, killing_basis
from .geometry import (ChartKind, curvature, divergence_vector, hessian,
                       killing_operator, tensor_norm)
from .limits import RadialSeries, decay_rate
from .quadrature import (SphereRule, integrate_annulus, integrate_sphere,
                         omega, sphere_points)

__all__ = ["IdentityReport", "KernelReport", "EquivalenceRow",
           "EquivalenceReport", "pohozaev_check", "kernel_check_lemma22",
           "agreement", "equivalence_report", "sample_points",
           "EINSTEIN_LAMBDA"]

_POHOZAEV_FLOOR = 1e-10        # absolute tolerance floor of pohozaev_check
_EINSTEIN_DEFECT_TOL = 1e-8    # kernel_check_lemma22 rejects larger defects
_KERNEL_TOL = 1e-8             # kernel_check_lemma22 pass threshold


@dataclass(frozen=True)
class IdentityReport:
    """Two-sided identity check with quadrature-aware tolerances."""

    check_id: str
    lhs: float
    rhs: float
    residual: float
    relative_residual: float
    quad_error: float
    tolerance: float
    passed: bool
    context: dict = field(default_factory=dict)


@dataclass(frozen=True)
class KernelReport:
    """Pointwise kernel-identity residuals over a point sample."""

    check_id: str
    max_residual: float
    trace_residual: float
    einstein_defect: float
    lam: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class EquivalenceRow:
    charge: str
    classical: float
    classical_error: float
    ricci: float
    ricci_error: float
    difference: float
    budget: float
    passed: bool
    warnings: tuple = ()


@dataclass(frozen=True)
class EquivalenceReport:
    spec_kind: str
    n: int
    rows: tuple
    diagnostics: dict

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


def sample_points(n: int, chart_kind: ChartKind, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Random chart points away from coordinate degeneracies."""
    chart_kind = ChartKind(chart_kind)
    if chart_kind == ChartKind.CARTESIAN:
        u = rng.normal(size=(count, n))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        return u * rng.uniform(2.0, 5.0, size=(count, 1))
    pts = np.empty((count, n))
    pts[:, 0] = rng.uniform(0.5, 2.0, size=count)
    pts[:, 1:n - 1] = rng.uniform(0.3, np.pi - 0.3, size=(count, n - 2))
    pts[:, n - 1] = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return pts


# ------------------------------------------------------------------ Pohozaev

def _sphere_flux(spec, fields, r, rule, nthreads):
    """Signed fluxes of G(X, nu) over S_r in the metric measure, then the
    fluxes of |G(X, nu)|, from the same per-node values."""
    flux = sphere_integrand(spec, (), fields, r)

    def f(points):
        signed = flux(points)
        return np.concatenate([signed, np.abs(signed)], axis=-1)

    return integrate_sphere(f, r, rule, spec.chart_kind, nthreads=nthreads)


def pohozaev_check(spec: MetricSpec, fields, r0: float, r1: float,
                   rule: SphereRule, radial_degree: int = 16,
                   rel_tol: float = 1e-6,
                   nthreads=None) -> list[IdentityReport]:
    """Integrated Bianchi identity on the annulus A(r0, r1), metric measure,
    for each conformal Killing field in ``fields`` (one report each).

    lhs is the boundary flux with the outer normal of the annulus on both
    components (the inner sphere enters with a minus sign); rhs is
    ``(n-2)/(2n)`` times the bulk integral of ``Scal * delta X``.
    """
    if not r0 < r1:
        raise ValueError(f"annulus needs r0 < r1, got ({r0}, {r1})")
    n = spec.n
    chart = spec.chart_kind
    count = len(fields)

    outer = _sphere_flux(spec, fields, r1, rule, nthreads)
    inner = _sphere_flux(spec, fields, r0, rule, nthreads)

    def bulk(points):
        jet = metric_jet(spec, points)
        bun = curvature(jet)
        detg = np.linalg.det(jet.g)
        coord = coordinate_volume(points, chart)
        _, vectors = basis_jets(points, (), fields)
        return np.stack([bun.scal * divergence_vector(jet, X, bun)
                         * np.sqrt(detg) * coord for X in vectors], axis=-1)

    bulk_res = integrate_annulus(bulk, r0, r1, rule, radial_degree, chart,
                                 nthreads=nthreads)
    # trace-free Killing-operator norm of each X for this metric, mid annulus
    pts = sphere_points(rule, 0.5 * (r0 + r1), chart)
    jet = metric_jet(spec, pts)
    bun = curvature(jet)
    _, vectors = basis_jets(pts, (), fields)
    defects = [float(np.max(tensor_norm(bun.ginv, killing_operator(
        jet, X, bun)[1]))) for X in vectors]

    reports = []
    for k, X in enumerate(fields):
        lhs = outer.value[k] - inner.value[k]
        rhs = (n - 2) / (2.0 * n) * bulk_res.value[k]
        residual = abs(lhs - rhs)
        quad_error = (outer.error_estimate[k] + inner.error_estimate[k]
                      + (n - 2) / (2.0 * n) * bulk_res.error_estimate[k])
        magnitude = abs(outer.value[count + k]) + abs(inner.value[count + k])
        scale = max(abs(lhs), abs(rhs), magnitude)
        rel = residual / scale if scale > 0 else 0.0
        tol = max(_POHOZAEV_FLOOR, rel_tol * max(scale, 1.0))
        reports.append(IdentityReport(
            check_id=f"pohozaev:{spec.kind}:{X.id}:{r0}:{r1}",
            lhs=float(lhs), rhs=float(rhs), residual=float(residual),
            relative_residual=float(rel), quad_error=float(quad_error),
            tolerance=float(tol), passed=bool(residual <= tol),
            context={"killing_defect": defects[k], "flux_scale": float(scale),
                     "outer_flux": float(outer.value[k]),
                     "inner_flux": float(inner.value[k])}))
    return reports


# ------------------------------------------------------------------ Lemma 2.2

# Einstein constant lambda (Ric = lambda (n-1) g) of the catalog Einstein metrics
EINSTEIN_LAMBDA = {"euclidean": 0.0, "hyperbolic_polar": -1.0,
                    "hyperbolic_area": -1.0}


def kernel_check_lemma22(spec: MetricSpec, X: ConformalKilling,
                         points: np.ndarray | None = None, count: int = 50,
                         seed: int = 0,
                         lam: float | None = None) -> KernelReport:
    """``Hess(delta X) + lambda (delta X) g = 0`` on an Einstein metric.

    The divergence jet of X is evaluated analytically, so the residual is
    free of finite-difference noise.  Non-Einstein metrics are rejected with
    the measured Einstein defect.
    """
    n = spec.n
    if lam is None:
        if spec.kind not in EINSTEIN_LAMBDA:
            raise DomainError(
                f"no catalog Einstein constant for {spec.kind!r}; pass lam=")
        lam = EINSTEIN_LAMBDA[spec.kind]
    if points is None:
        rng = np.random.default_rng(seed)
        points = sample_points(n, spec.chart_kind, count, rng)

    jet = metric_jet(spec, points)
    bun = curvature(jet)
    defect = float(np.max(tensor_norm(
        bun.ginv, bun.ricci - lam * (n - 1) * jet.g)))
    if defect > _EINSTEIN_DEFECT_TOL:
        raise DomainError(
            f"metric {spec.kind!r} is not Einstein with lambda={lam}: "
            f"defect {defect:.3e}")

    divjet = X.divergence_jet(points)
    hess = hessian(jet, divjet, bun)
    resid = hess + lam * divjet.value[..., None, None] * jet.g
    max_residual = float(np.max(tensor_norm(bun.ginv, resid)))
    trace = np.einsum("...ij,...ij->...", bun.ginv, hess)
    trace_residual = float(np.max(np.abs(trace + n * lam * divjet.value)))
    return KernelReport(
        check_id=f"lemma22:{spec.kind}:{X.id}",
        max_residual=max_residual, trace_residual=trace_residual,
        einstein_defect=defect, lam=float(lam), tolerance=_KERNEL_TOL,
        passed=bool(max_residual <= _KERNEL_TOL
                    and trace_residual <= _KERNEL_TOL))


def hyperbolic_pohozaev_closed_form(n: int, r0: float, r1: float) -> float:
    """Closed-form boundary difference for the hyperbolic background with
    X^(0) on the annulus between geodesic radii ``r0`` and ``r1``."""
    return ((n - 1) * (n - 2) / 2.0) * omega(n) * (np.sinh(r1) ** n
                                                   - np.sinh(r0) ** n)


# ------------------------------------------------------------- equivalence

def agreement(X: ConformalKilling, classical: RadialSeries,
              ricci: RadialSeries, rel_tol: float):
    """Verdict on a classical charge and its Ricci version, the pair of X.

    Returns ``(difference, budget, passed)``: the limits agree when their
    difference is at most ``max(10 (err_cls + err_ric), rel_tol * scale)``.
    """
    # Relative floor (scale = max(|cls|, |ric|, 1)) for the flat mass (index 0
    # in the cartesian chart), absolute (scale = 1) otherwise, as reports
    # always had it; unifying moves budgets: a relative floor ah_agreement_0
    # on Kottler n=4, m=1.94 (1.04e-6 -> 1.94e-6), an absolute one
    # mass_agreement on Schwarzschild n=5, m=1.2 (1.2e-6 -> 1e-6).
    scale = max(abs(classical.limit), abs(ricci.limit), 1.0) \
        if X.chart_kind == ChartKind.CARTESIAN and X.kernel.index == 0 \
        else 1.0
    difference = abs(classical.limit - ricci.limit)
    budget = max(10.0 * (classical.limit_error + ricci.limit_error),
                 rel_tol * scale)
    return difference, budget, bool(difference <= budget)


def equivalence_report(spec: MetricSpec, radii, rule: SphereRule,
                       rel_tol: float = 1e-6, nthreads=None) -> EquivalenceReport:
    """Classical-versus-Ricci comparison for every applicable charge.

    Each row is judged by :func:`agreement` with ``rel_tol``, as its own CLI
    command judges it.  Hypothesis diagnostics (decay rate, scalar-curvature
    integrability proxy, parity decay for centers, nonvanishing mass) are
    attached as warnings on the affected rows; the computation is still
    attempted.
    """
    radii = np.asarray(radii, dtype=float)
    n = spec.n
    decay = decay_rate(spec, radii)
    diagnostics = {**decay.diagnostics,
                   "scal_integrable": _scal_integrable(spec, radii, rule)}
    warn_common = [] if decay.satisfied else \
        [f"decay rate {decay.tau_hat:.3g} below threshold {decay.threshold:.3g}"]
    if not diagnostics["scal_integrable"]:
        warn_common.append("scalar curvature integrability proxy failed")

    fields = killing_basis(n, spec.chart_kind)
    kernels = [X.kernel for X in fields]
    try:
        classical, ricci = charge_series(spec, radii, rule, kernels, fields,
                                         nthreads=nthreads)
    except ZeroMassError:   # flat, no mass: no centers, report the mass alone
        classical, ricci = charge_series(spec, radii, rule, kernels[:1],
                                         fields[:1], nthreads=nthreads)

    def row(name, k, warnings):
        cls, ric = classical[k], ricci[k]
        return EquivalenceRow(name, cls.limit, cls.limit_error, ric.limit,
                              ric.limit_error,
                              *agreement(fields[k], cls, ric, rel_tol),
                              tuple(warnings))

    rows = []
    if spec.is_flat_type:
        rows.append(row("mass", 0, warn_common))
        rt = rt_diagnostics(spec, radii, rule)
        diagnostics.update(rt.diagnostics)
        if abs(classical[0].limit) > 1e-10:
            warn_center = list(warn_common)
            if rt.status != "pass":
                warn_center.append("parity decay (RT) diagnostic failed")
            rows += [row(f"center[{a}]", a + 1, warn_center) for a in range(n)]
        else:
            diagnostics["center_skipped"] = "mass vanishes"
    else:
        rows += [row(f"ah_charge[{i}]", i, warn_common) for i in range(n + 1)]
    return EquivalenceReport(spec.kind, n, tuple(rows), diagnostics)


def _scal_integrable(spec, radii, rule):
    """Proxy for integrable scalar curvature: sup|Scal - Scal_b| r^{n-1} decays."""
    chart = spec.chart_kind
    scal_b = 0.0 if spec.is_flat_type else -spec.n * (spec.n - 1)
    weighted = []
    for r in radii:
        pts = sphere_points(rule, r, chart)
        bun = curvature(metric_jet(spec, pts))
        sup = float(np.max(np.abs(bun.scal - scal_b)))
        weighted.append(sup * sphere_normal_area(pts, chart, r)[1][0])
    weighted = np.asarray(weighted)
    floor = 1e-8 * max(weighted.max(), 1.0)
    if weighted[-1] <= floor:
        return True
    return bool(weighted[-1] < 0.9 * weighted[0])
