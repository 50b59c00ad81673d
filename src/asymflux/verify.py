"""Executable checks of the structural identities behind the charges.

Three families of checks:

* the integrated Bianchi (Pohozaev-type) identity: the Einstein-tensor flux
  through the boundary of an annulus, paired with a conformal Killing field,
  equals ``(n-2)/(2n)`` times the bulk integral of ``Scal * delta X``,
* the kernel identity on Einstein metrics: ``Hess(delta X) = -lambda (delta X) g``
  together with its trace ``tr Hess(delta X) = -n lambda delta X``,
* equivalence reports comparing the classical charge limits with their
  Einstein-tensor versions on the same metric, with hypothesis diagnostics.

:func:`charge_pairs` builds every classical/Ricci pair, for the CLI charge
commands and the equivalence reports alike, and judges each with
:func:`agreement`.  All integral checks reuse the deterministic quadrature
stack, so reports are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import MetricSpec, coordinate_volume, metric_jet
from .charges import charge_series, einstein_fluxes, hypothesis_diagnostics
from .errors import DomainError
from .fields import (ConformalKilling, basis_jets, check_indices,
                     killing_basis)
from .geometry import (ChartKind, curvature, divergence_vector, hessian,
                       killing_operator, tensor_norm, trace_product)
from .limits import RadialSeries
from .quadrature import SphereRule, integrate_annulus, omega, pairwise_sum

__all__ = ["IdentityReport", "KernelReport", "EquivalenceRow",
           "EquivalenceReport", "pohozaev_check", "kernel_check_lemma22",
           "agreement", "charge_pairs", "pair_names", "equivalence_report",
           "sample_points", "EINSTEIN_LAMBDA"]

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
    """A classical charge and its Ricci version, the pair of ``field``, with
    the :func:`agreement` verdict on their limits and, in equivalence
    reports, the hypothesis warnings that apply to them."""

    charge: str                  # mass, center[a] or ah_charge[i]
    field: ConformalKilling
    classical_series: RadialSeries
    ricci_series: RadialSeries
    difference: float
    budget: float
    passed: bool
    warnings: tuple = ()

    classical = property(lambda self: self.classical_series.limit)
    classical_error = property(lambda self: self.classical_series.limit_error)
    ricci = property(lambda self: self.ricci_series.limit)
    ricci_error = property(lambda self: self.ricci_series.limit_error)


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

def pohozaev_check(spec: MetricSpec, indices, r0: float, r1: float,
                   rule: SphereRule, radial_degree: int = 16,
                   rel_tol: float = 1e-6) -> list[IdentityReport]:
    """Integrated Bianchi identity on the annulus A(r0, r1), metric measure,
    for the conformal Killing field ``X^(i)`` of the chart of ``spec``, for
    each basis index i in ``indices`` (one report each; an index outside
    ``0..n`` is a ValueError, :func:`~asymflux.fields.check_indices`).

    lhs is the boundary flux with the outer normal of the annulus on both
    components (the inner sphere enters with a minus sign); rhs is
    ``(n-2)/(2n)`` times the bulk integral of ``Scal * delta X``.  Both come
    from one :func:`~asymflux.quadrature.integrate_annulus` pass whose end
    shells, the boundary spheres, give the boundary fluxes on ``rule``.
    The bulk and signed-flux columns are integrated on every shell, each
    interior shell on the rule the shell before it reads as enough for all
    of them (``context["shell_degrees"]``, one degree per shell, r0 first),
    so a field checked alone can take other interior rules than inside a
    larger ``indices``, and its ``rhs`` differ at roundoff.
    The end shells also return, as node data, each field's Killing defect
    and its absolute flux ``|G(X, nu)| dA_g``.  The rule's sum of that
    flux over both boundary spheres is ``context["flux_scale"]`` unless
    ``|lhs|`` or ``|rhs|`` is larger, and scales the tolerance.  Kinked, it
    never reads roundoff at a lower degree, so as an integrated column it
    would hold every interior shell at ``rule``.

    The identity holds for conformal Killing fields of ``g`` itself, and
    the bulk side has no term for the trace-free Killing operator.  A
    background field that is not conformal Killing for ``g`` fails by
    construction: on Kottler (n=3, m=0.5) ``ah_X0`` has a Killing defect of
    0.76 on the boundary spheres (``context["killing_defect"]``), and
    ``asymflux verify --kind kottler --which pohozaev`` reports its relative
    residual 5.0e-3 and exits 1; the other fields pass only because both
    sides vanish by parity.  The report's ``killing_defect`` says when a
    failure is of this kind.
    """
    n, chart = spec.n, spec.chart_kind
    indices = check_indices(indices, n)
    if not r0 < r1:
        raise ValueError(f"annulus needs r0 < r1, got ({r0}, {r1})")
    count = len(indices)

    def shell(r):
        def f(points):
            jet = metric_jet(spec, points)
            bun = curvature(jet)
            coord = coordinate_volume(points, chart)
            _, vectors = basis_jets(points, chart, (), indices)
            bulk = [bun.scal * divergence_vector(X, bun) * bun.sqrt_det * coord
                    for X in vectors]
            signed = einstein_fluxes(bun.einstein, [X.comp for X in vectors],
                                     points, chart, r, bun)
            columns = np.stack(bulk + signed, axis=-1)
            if r not in (r0, r1):
                return columns
            # trace-free Killing-operator norm of each X for this metric,
            # then the absolute flux of each X
            return columns, np.stack(
                [tensor_norm(bun.ginv, killing_operator(jet, X, bun)[1])
                 for X in vectors] + [np.abs(s) for s in signed], axis=-1)
        return f

    annulus = integrate_annulus(shell, r0, r1, rule, radial_degree, chart)
    inner, outer = annulus.shells[0], annulus.shells[-1]
    defects = np.maximum(inner.node_data[:, :count].max(axis=0),
                         outer.node_data[:, :count].max(axis=0))
    # the weights are positive, so each sum is that of |G(X, nu)| dA_g
    sizes = [pairwise_sum(rule.weights[:, None] * s.node_data[:, count:])
             for s in (outer, inner)]
    degrees = [s.degree for s in annulus.shells]

    basis, reports = killing_basis(n, chart), []
    for k, i in enumerate(indices):
        flux = count + k                           # the signed column
        lhs = outer.value[flux] - inner.value[flux]
        rhs = (n - 2) / (2.0 * n) * annulus.value[k]
        residual = abs(lhs - rhs)
        quad_error = (outer.error_estimate[flux] + inner.error_estimate[flux]
                      + (n - 2) / (2.0 * n) * annulus.error_estimate[k])
        magnitude = sizes[0][k] + sizes[1][k]
        scale = max(abs(lhs), abs(rhs), magnitude)
        rel = residual / scale if scale > 0 else 0.0
        tol = max(_POHOZAEV_FLOOR, rel_tol * max(scale, 1.0))
        reports.append(IdentityReport(
            check_id=f"pohozaev:{spec.kind}:{basis[i].id}:{r0}:{r1}",
            lhs=float(lhs), rhs=float(rhs), residual=float(residual),
            relative_residual=float(rel), quad_error=float(quad_error),
            tolerance=float(tol), passed=bool(residual <= tol),
            context={"killing_defect": float(defects[k]),
                     "flux_scale": float(scale),
                     "outer_flux": float(outer.value[flux]),
                     "inner_flux": float(inner.value[flux]),
                     "shell_degrees": list(degrees)}))
    return reports


# ------------------------------------------------------------------ Lemma 2.2

# Einstein constant lambda (Ric = lambda (n-1) g) of the catalog Einstein metrics
EINSTEIN_LAMBDA = {"euclidean": 0.0, "hyperbolic_polar": -1.0,
                    "hyperbolic_area": -1.0}


def kernel_check_lemma22(spec: MetricSpec, index: int,
                         points: np.ndarray | None = None, count: int = 50,
                         seed: int = 0,
                         lam: float | None = None) -> KernelReport:
    """``Hess(delta X) + lambda (delta X) g = 0`` on an Einstein metric, for
    the conformal Killing field ``X = X^(index)`` of the chart of ``spec``
    (an index outside ``0..n`` is a ValueError,
    :func:`~asymflux.fields.check_indices`).

    The divergence jet of X is evaluated analytically, so the residual is
    free of finite-difference noise.  Non-Einstein metrics are rejected with
    the measured Einstein defect.
    """
    n = spec.n
    (index,) = check_indices([index], n)
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

    X = killing_basis(n, spec.chart_kind)[index]
    divjet = X.divergence_jet(points)
    hess = hessian(divjet, bun)
    resid = hess + lam * divjet.val[..., None, None] * jet.g
    max_residual = float(np.max(tensor_norm(bun.ginv, resid)))
    trace = trace_product(bun.ginv, hess)
    trace_residual = float(np.max(np.abs(trace + n * lam * divjet.val)))
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
        if X.chart_kind == ChartKind.CARTESIAN and X.index == 0 \
        else 1.0
    difference = abs(classical.limit - ricci.limit)
    budget = max(10.0 * (classical.limit_error + ricci.limit_error),
                 rel_tol * scale)
    return difference, budget, bool(difference <= budget)


def charge_pairs(spec: MetricSpec, radii, rule: SphereRule, indices,
                 rel_tol: float = 1e-6):
    """The classical/Ricci charge pairs of the basis elements ``indices``
    (:func:`~asymflux.charges.charge_series`, which owns the sphere pass
    and the zero-mass rule), each judged by :func:`agreement`.

    Returns ``(mass, rows, sups)``: the ``const_one`` series (None in a
    polar chart), one :class:`EquivalenceRow` per pair that
    ``charge_series`` returns, in order, and the per-radius sups of the
    pass's node data that the diagnostics fit.
    """
    indices = list(indices)
    mass, classical, ricci, sups = charge_series(spec, radii, rule, indices)
    basis = killing_basis(spec.n, spec.chart_kind)
    rows = [EquivalenceRow(pair_names(X)[0], X, cls, ric,
                           *agreement(X, cls, ric, rel_tol))
            for X, cls, ric in zip((basis[i] for i in indices), classical,
                                   ricci)]
    return mass, rows, sups


def pair_names(X: ConformalKilling) -> tuple[str, str, str, str]:
    """The names of the pair of X: its row name (``mass``, ``center[a]`` or
    ``ah_charge[i]``) and the report ids of its classical series, its Ricci
    series and its verdict."""
    i = X.index
    if X.chart_kind != ChartKind.CARTESIAN:
        return (f"ah_charge[{i}]", f"ah_mass_{i}", f"ah_ricci_{i}",
                f"ah_agreement_{i}")
    if i == 0:
        return "mass", "mass_classical", "mass_ricci", "mass_agreement"
    return (f"center[{i - 1}]", *(f"center_{part}_{i - 1}" for part
                                  in ("classical", "ricci", "agreement")))


def equivalence_report(spec: MetricSpec, radii, rule: SphereRule,
                       rel_tol: float = 1e-6) -> EquivalenceReport:
    """Classical-versus-Ricci comparison for every applicable charge: the
    :func:`charge_pairs` of the whole basis.

    The hypothesis diagnostics
    (:func:`~asymflux.charges.hypothesis_diagnostics`: decay rate,
    scalar-curvature integrability proxy and, on flat-type metrics, parity
    decay for centers) and the nonvanishing mass come from the sups of the
    same sphere pass and are attached as warnings on the affected rows; the
    computation is still attempted.
    """
    _, rows, sups = charge_pairs(spec, radii, rule, range(spec.n + 1), rel_tol)
    diagnostics = hypothesis_diagnostics(spec, radii, sups)
    warnings = () if diagnostics["tau_ok"] else (
        f"decay rate {diagnostics['tau_hat']:.3g} below threshold "
        f"{diagnostics['tau_threshold']:.3g}",)
    if not diagnostics["scal_integrable"]:
        warnings += ("scalar curvature integrability proxy failed",)
    rows = [replace(row, warnings=warnings) for row in rows]
    if spec.is_flat_type and len(rows) == 1:
        diagnostics["center_skipped"] = "mass vanishes"
    elif diagnostics.get("rt_status", "pass") != "pass":
        rows[1:] = [replace(row, warnings=warnings + (
            "parity decay (RT) diagnostic failed",)) for row in rows[1:]]
    return EquivalenceReport(spec.kind, spec.n, tuple(rows), diagnostics)
