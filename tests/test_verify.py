"""Identity checks: integrated Bianchi, kernel identity, equivalence reports."""

import numpy as np
import pytest

from asymflux.catalog import MetricSpec
from asymflux.errors import DomainError
from asymflux.fields import killing_basis
from asymflux.quadrature import omega, sphere_rule
from asymflux.verify import (equivalence_report, hyperbolic_pohozaev_closed_form,
                             kernel_check_lemma22, pohozaev_check,
                             sample_points)

FLAT_RADII = 8.0 * 2.0 ** np.arange(5)
HYP_RADII = np.sinh(3.0 + 0.75 * np.arange(5))


# ------------------------------------------------------------------ Pohozaev

@pytest.mark.parametrize("kind,n,annulus", [
    ("euclidean", 3, (8.0, 16.0)),
    ("hyperbolic_polar", 3, (1.0, 2.0)),
    ("schwarzschild_conformal", 3, (8.0, 16.0)),
])
def test_pohozaev_all_catalog_fields(kind, n, annulus):
    spec = MetricSpec(kind, n, m=1.0 if kind == "schwarzschild_conformal" else 0.0)
    rule = sphere_rule(n, 30)
    for X in killing_basis(n, spec.chart_kind):
        rep = pohozaev_check(spec, [X], *annulus, rule)[0]
        assert rep.passed, rep
        assert rep.relative_residual < 1e-6
        assert rep.context["killing_defect"] < 1e-9


def test_pohozaev_hyperbolic_closed_form():
    spec = MetricSpec("hyperbolic_polar", 3)
    X0 = killing_basis(3, spec.chart_kind)[0]
    rep = pohozaev_check(spec, [X0], 1.0, 2.0, sphere_rule(3, 30))[0]
    exact = hyperbolic_pohozaev_closed_form(3, 1.0, 2.0)
    assert exact == pytest.approx(omega(3) * (np.sinh(2.0) ** 3 - np.sinh(1.0) ** 3))
    assert rep.lhs == pytest.approx(exact, rel=1e-8)
    assert rep.rhs == pytest.approx(exact, rel=1e-8)


def test_pohozaev_scalar_flat_has_zero_bulk():
    """Conformal Schwarzschild is scalar-flat, so the flux through both
    spheres must coincide."""
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    X = killing_basis(3, "cartesian")[0]
    rep = pohozaev_check(spec, [X], 10.0, 20.0, sphere_rule(3, 30))[0]
    assert abs(rep.rhs) < 1e-10 * max(abs(rep.context["outer_flux"]), 1.0)
    assert rep.context["outer_flux"] == pytest.approx(
        rep.context["inner_flux"], rel=1e-10)


def test_pohozaev_residual_bounded_by_quadrature():
    """The identity is exact when X really is conformal Killing, so only
    discretization error remains."""
    cases = [(MetricSpec("hyperbolic_area", 3),
              killing_basis(3, "polar_area")[0], np.sinh(1.0), np.sinh(2.0)),
             (MetricSpec("schwarzschild_conformal", 3, m=1.0),
              killing_basis(3, "cartesian")[1],
              8.0, 16.0)]
    for spec, X, r0, r1 in cases:
        rep = pohozaev_check(spec, [X], r0, r1, sphere_rule(3, 30))[0]
        assert rep.passed
        assert rep.residual <= (10.0 * rep.quad_error
                                + 1e-10 * max(rep.context["flux_scale"], 1.0))


def test_pohozaev_kottler_surfaces_killing_defect():
    """Background fields are not conformal Killing for Kottler; the check
    still runs and reports how far off they are."""
    spec = MetricSpec("kottler", 3, m=1.0)
    X = killing_basis(3, spec.chart_kind)[0]
    rep = pohozaev_check(spec, [X], np.sinh(1.0), np.sinh(2.0), sphere_rule(3, 30))[0]
    assert rep.context["killing_defect"] > 1e-2


def test_pohozaev_orientation_antisymmetry():
    spec = MetricSpec("hyperbolic_polar", 3)
    X = killing_basis(3, spec.chart_kind)[0]
    rule = sphere_rule(3, 16)
    fwd = pohozaev_check(spec, [X], 1.0, 2.0, rule)[0]
    # swapping the roles of the spheres negates the boundary difference
    outer, inner = fwd.context["outer_flux"], fwd.context["inner_flux"]
    assert fwd.lhs == pytest.approx(outer - inner)
    assert -(inner - outer) == pytest.approx(fwd.lhs)
    with pytest.raises(ValueError):
        pohozaev_check(spec, [X], 2.0, 1.0, rule)[0]


def test_pohozaev_reports_killing_defect_context():
    """For a perturbed metric the background field is only approximately
    conformal Killing; the report surfaces the measured defect."""
    spec = MetricSpec("perturbation", 3, base=MetricSpec("euclidean", 3),
                      components={(0, 0): "1/r"})
    X = killing_basis(3, "cartesian")[0]
    rep = pohozaev_check(spec, [X], 8.0, 16.0, sphere_rule(3, 20))[0]
    assert rep.context["killing_defect"] > 1e-4


# ------------------------------------------------------------------ Lemma 2.2

@pytest.mark.parametrize("kind,n", [("euclidean", 3), ("euclidean", 4),
                                    ("hyperbolic_polar", 3),
                                    ("hyperbolic_area", 4)])
def test_kernel_identity(kind, n):
    spec = MetricSpec(kind, n)
    for X in killing_basis(n, spec.chart_kind):
        rep = kernel_check_lemma22(spec, X)
        assert rep.passed
        assert rep.max_residual < 1e-8
        assert rep.trace_residual < 1e-8
        assert rep.lam == (0.0 if kind == "euclidean" else -1.0)


def test_kernel_identity_rejects_non_einstein():
    """Kottler slices are scalar-Einstein but not Ricci-Einstein; the check
    must refuse them rather than report a residual."""
    spec = MetricSpec("kottler", 3, m=1.0)
    X = killing_basis(3, spec.chart_kind)[0]
    pts = sample_points(3, spec.chart_kind, 10, np.random.default_rng(1))
    pts[:, 0] += 3.0   # outside the horizon
    with pytest.raises(DomainError, match="not Einstein"):
        kernel_check_lemma22(spec, X, points=pts, lam=-1.0)


def test_kernel_identity_unknown_lambda():
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    X = killing_basis(3, "cartesian")[0]
    with pytest.raises(DomainError):
        kernel_check_lemma22(spec, X)


# ---------------------------------------------------------------- equivalence

def test_equivalence_schwarzschild():
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    rep = equivalence_report(spec, FLAT_RADII, sphere_rule(3, 12))
    assert rep.passed
    names = [row.charge for row in rep.rows]
    assert names == ["mass", "center[0]", "center[1]", "center[2]"]
    assert rep.rows[0].classical == pytest.approx(1.0, abs=1e-3)
    assert rep.rows[0].ricci == pytest.approx(1.0, abs=1e-10)
    assert rep.diagnostics["tau_ok"]
    assert rep.diagnostics["scal_integrable"]


def test_equivalence_translated_center():
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0,
                      center=(1.0, 0.5, 0.0))
    rep = equivalence_report(spec, FLAT_RADII, sphere_rule(3, 12))
    assert rep.passed
    row = rep.rows[1]
    assert row.classical == pytest.approx(1.0, abs=1e-2)
    assert row.ricci == pytest.approx(1.0, abs=1e-2)
    assert rep.diagnostics["rt_status"] == "pass"


def test_equivalence_kottler():
    rep = equivalence_report(MetricSpec("kottler", 3, m=1.0), HYP_RADII,
                             sphere_rule(3, 14))
    assert rep.passed
    assert rep.rows[0].classical == pytest.approx(1.0, rel=1e-6)
    assert rep.rows[0].ricci == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("kind,radii", [("euclidean", FLAT_RADII),
                                        ("hyperbolic_area", HYP_RADII)])
def test_equivalence_backgrounds_are_zero(kind, radii):
    rep = equivalence_report(MetricSpec(kind, 3), radii, sphere_rule(3, 10))
    assert rep.passed
    for row in rep.rows:
        assert abs(row.classical) < 1e-10
        assert abs(row.ricci) < 1e-10
    if kind == "euclidean":
        assert "center_skipped" in rep.diagnostics
