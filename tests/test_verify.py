"""Identity checks: integrated Bianchi, kernel identity, equivalence reports."""

import re

import numpy as np
import pytest

from asymflux.catalog import MetricSpec, metric_jet
from asymflux.errors import DomainError
from asymflux.charges import charge_series, einstein_fluxes, sphere_integrand
from asymflux.fields import basis_jets
from asymflux.geometry import curvature
from asymflux.quadrature import integrate_sphere, omega, sphere_rule
from asymflux.verify import (charge_pairs, equivalence_report,
                             hyperbolic_pohozaev_closed_form,
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
    for i in range(n + 1):
        rep = pohozaev_check(spec, [i], *annulus, rule)[0]
        assert rep.passed, rep
        assert rep.relative_residual < 1e-6
        assert rep.context["killing_defect"] < 1e-9


def test_pohozaev_hyperbolic_closed_form():
    spec = MetricSpec("hyperbolic_polar", 3)
    rep = pohozaev_check(spec, [0], 1.0, 2.0, sphere_rule(3, 30))[0]
    exact = hyperbolic_pohozaev_closed_form(3, 1.0, 2.0)
    assert exact == pytest.approx(omega(3) * (np.sinh(2.0) ** 3 - np.sinh(1.0) ** 3))
    assert rep.lhs == pytest.approx(exact, rel=1e-8)
    assert rep.rhs == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("spec,annulus", [
    pytest.param(MetricSpec("hyperbolic_polar", 4), (1.0, 2.0), id="hyp-n4"),
    pytest.param(MetricSpec("schwarzschild_conformal", 3, m=1.0,
                            center=(1.0, 0.5, 0.0)), (8.0, 16.0),
                 id="schw-translated-n3")])
def test_pohozaev_boundary_fluxes_are_the_sphere_fluxes(spec, annulus):
    """The annulus pass's end shells are the boundary spheres: each report's
    ``outer_flux`` and ``inner_flux`` are the Einstein-tensor fluxes over
    S_r1 and S_r0, bit for bit, which on a flat-type metric are the field
    columns of the charge integrand (a hyperbolic-type one's integrate the
    modified tensor)."""
    rule = sphere_rule(spec.n, 8)
    chart = spec.chart_kind
    fields = range(spec.n + 1)
    r0, r1 = annulus
    reports = pohozaev_check(spec, fields, r0, r1, rule, radial_degree=8)

    def boundary_fluxes(r):
        def f(points):
            bun = curvature(metric_jet(spec, points))
            comps = [X.comp for X in basis_jets(points, chart, (), fields)[1]]
            return np.stack(einstein_fluxes(bun.einstein, comps, points,
                                            chart, r, bun), axis=-1)
        return f

    outer, inner = (integrate_sphere(boundary_fluxes(r), r, rule, chart).value
                    for r in (r1, r0))
    for k, rep in enumerate(reports):
        assert rep.context["outer_flux"] == outer[k]
        assert rep.context["inner_flux"] == inner[k]
    if spec.is_flat_type:
        for r, fluxes in ((r1, outer), (r0, inner)):
            q = integrate_sphere(sphere_integrand(spec, (), fields, r), r,
                                 rule, chart)
            assert np.array_equal(q.value, fluxes)


def test_pohozaev_scalar_flat_has_zero_bulk():
    """Conformal Schwarzschild is scalar-flat, so the flux through both
    spheres must coincide."""
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    rep = pohozaev_check(spec, [0], 10.0, 20.0, sphere_rule(3, 30))[0]
    assert abs(rep.rhs) < 1e-10 * max(abs(rep.context["outer_flux"]), 1.0)
    assert rep.context["outer_flux"] == pytest.approx(
        rep.context["inner_flux"], rel=1e-10)


def test_pohozaev_residual_bounded_by_quadrature():
    """The identity is exact when X really is conformal Killing, so only
    discretization error remains."""
    cases = [(MetricSpec("hyperbolic_area", 3), 0, np.sinh(1.0),
              np.sinh(2.0)),
             (MetricSpec("schwarzschild_conformal", 3, m=1.0), 1, 8.0, 16.0)]
    for spec, i, r0, r1 in cases:
        rep = pohozaev_check(spec, [i], r0, r1, sphere_rule(3, 30))[0]
        assert rep.passed
        assert rep.residual <= (10.0 * rep.quad_error
                                + 1e-10 * max(rep.context["flux_scale"], 1.0))


def test_pohozaev_kottler_surfaces_killing_defect():
    """Background fields are not conformal Killing for Kottler; the check
    still runs and reports how far off they are."""
    spec = MetricSpec("kottler", 3, m=1.0)
    rep = pohozaev_check(spec, [0], np.sinh(1.0), np.sinh(2.0), sphere_rule(3, 30))[0]
    assert rep.context["killing_defect"] > 1e-2


def test_pohozaev_orientation_antisymmetry():
    spec = MetricSpec("hyperbolic_polar", 3)
    rule = sphere_rule(3, 16)
    fwd = pohozaev_check(spec, [0], 1.0, 2.0, rule)[0]
    # swapping the roles of the spheres negates the boundary difference
    outer, inner = fwd.context["outer_flux"], fwd.context["inner_flux"]
    assert fwd.lhs == pytest.approx(outer - inner)
    assert -(inner - outer) == pytest.approx(fwd.lhs)
    with pytest.raises(ValueError):
        pohozaev_check(spec, [0], 2.0, 1.0, rule)[0]


def test_pohozaev_reports_killing_defect_context():
    """For a perturbed metric the background field is only approximately
    conformal Killing; the report surfaces the measured defect."""
    spec = MetricSpec("expression", 3, components={
        (0, 0): "1 + 1/r", (1, 1): "1", (2, 2): "1"})
    rep = pohozaev_check(spec, [0], 8.0, 16.0, sphere_rule(3, 20))[0]
    assert rep.context["killing_defect"] > 1e-4


def _one_rule(monkeypatch):
    """Every interior shell of an annulus keeps the rule it is given."""
    from asymflux import quadrature
    monkeypatch.setattr(quadrature, "_next_rule",
                        lambda rule, q, columns=None: rule)


@pytest.mark.parametrize("kind", ["hyperbolic_polar", "kottler"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_pohozaev_interior_shells_drop(monkeypatch, kind, n):
    """On hyperbolic_polar and Kottler the angular content of the bulk and
    signed-flux columns reads roundoff below degree 16 from the first shell
    on: the interior shells drop below ``--degree``, the degrees never rise
    before r1, which is back on ``--degree``.  Every verdict keeps the
    ``passed``, ``lhs``, boundary fluxes, flux scale, Killing defect and
    tolerance of a pass with one rule for every shell, bit for bit; only
    ``rhs`` moves, at roundoff (at most 7.4e-16 of the flux scale
    measured).  n=5 runs on four shells, to keep its one-rule pass short."""
    spec = MetricSpec(kind, n, m=1.0 if kind == "kottler" else 0.0)
    annulus = (1.0, 2.0) if kind == "hyperbolic_polar" else \
        tuple(np.sinh([1.0, 2.0]))
    fields = range(n + 1)
    rule, radial_degree = sphere_rule(n, 16), 16 if n < 5 else 4
    picked = pohozaev_check(spec, fields, *annulus, rule, radial_degree)
    degrees = picked[0].context["shell_degrees"]
    assert degrees[0] == degrees[-1] == 16
    assert min(degrees[1:-1]) < 16
    assert all(a >= b for a, b in zip(degrees, degrees[1:-1]))
    _one_rule(monkeypatch)
    one = pohozaev_check(spec, fields, *annulus, rule, radial_degree)
    assert one[0].context["shell_degrees"] == [16] * len(degrees)
    keys = ("inner_flux", "outer_flux", "flux_scale", "killing_defect")
    for got, want in zip(picked, one):
        assert got.context["shell_degrees"] == degrees
        assert (got.passed, got.lhs, got.tolerance) == \
            (want.passed, want.lhs, want.tolerance)
        assert [got.context[k] for k in keys] == [want.context[k] for k in keys]
        assert abs(got.rhs - want.rhs) <= 1e-14 * want.context["flux_scale"]


def test_pohozaev_unfading_angular_content_keeps_the_degree(monkeypatch):
    """A polar-chart expression metric whose round factor carries a
    degree-3 harmonic at every r: its angular content does not fade, so no
    shell drops below ``--degree`` and every report is the one-rule
    pass's."""
    factor = "(1 + 0.2*sin(theta1)^3*cos(3*phi))"
    spec = MetricSpec("expression", 3, chart="polar_geodesic", components={
        (0, 0): "1", (1, 1): f"sinh(r)^2*{factor}",
        (2, 2): f"sinh(r)^2*sin(theta1)^2*{factor}"})
    fields = range(4)
    rule = sphere_rule(3, 16)
    reports = pohozaev_check(spec, fields, 1.0, 2.0, rule)
    assert reports[0].context["shell_degrees"] == [16] * 10
    _one_rule(monkeypatch)
    assert pohozaev_check(spec, fields, 1.0, 2.0, rule) == reports


# ------------------------------------------------------------------ Lemma 2.2

@pytest.mark.parametrize("kind,n", [("euclidean", 3), ("euclidean", 4),
                                    ("hyperbolic_polar", 3),
                                    ("hyperbolic_area", 4)])
def test_kernel_identity(kind, n):
    spec = MetricSpec(kind, n)
    for i in range(n + 1):
        rep = kernel_check_lemma22(spec, i)
        assert rep.passed
        assert rep.max_residual < 1e-8
        assert rep.trace_residual < 1e-8
        assert rep.lam == (0.0 if kind == "euclidean" else -1.0)


def test_kernel_identity_rejects_non_einstein():
    """Kottler slices are scalar-Einstein but not Ricci-Einstein; the check
    must refuse them rather than report a residual."""
    spec = MetricSpec("kottler", 3, m=1.0)
    pts = sample_points(3, spec.chart_kind, 10, np.random.default_rng(1))
    pts[:, 0] += 3.0   # outside the horizon
    with pytest.raises(DomainError, match="not Einstein"):
        kernel_check_lemma22(spec, 0, points=pts, lam=-1.0)


def test_kernel_identity_unknown_lambda():
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    with pytest.raises(DomainError):
        kernel_check_lemma22(spec, 0)


# --------------------------------------------------------------- basis index

@pytest.mark.parametrize("kind", ["euclidean", "hyperbolic_polar"])
@pytest.mark.parametrize("bad", [-1, 4], ids=["negative", "n+1"])
@pytest.mark.parametrize("call", [
    pytest.param(lambda spec, i: basis_jets(
        np.ones((2, 3)), spec.chart_kind, [i], []), id="basis_jets-kernel"),
    pytest.param(lambda spec, i: basis_jets(
        np.ones((2, 3)), spec.chart_kind, [], [0, i]), id="basis_jets-field"),
    pytest.param(lambda spec, i: sphere_integrand(spec, [0], [i], 2.0),
                 id="sphere_integrand"),
    pytest.param(lambda spec, i: pohozaev_check(
        spec, [0, i], 1.0, 2.0, sphere_rule(3, 4)), id="pohozaev_check"),
    pytest.param(lambda spec, i: kernel_check_lemma22(spec, i),
                 id="kernel_check_lemma22"),
])
def test_bad_basis_index_is_named_before_any_node(monkeypatch, call, bad,
                                                  kind):
    """A basis index outside ``0..n``, negative included, is a ValueError
    that names it, raised before any node is evaluated."""
    from asymflux import charges, verify

    def forbidden(*args, **kwargs):
        raise AssertionError("a node was evaluated")

    for module, name in [(charges, "jets"), (charges, "integrate_sphere"),
                         (verify, "metric_jet"),
                         (verify, "integrate_annulus")]:
        monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(ValueError, match=f"basis index {bad} outside 0..3"):
        call(MetricSpec(kind, 3), bad)


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


# ------------------------------------------------------------------ chunking

_SMALL_CHUNK = 16     # fewer nodes than any rule below (all n=3)


@pytest.mark.parametrize("run", [
    pytest.param(lambda: equivalence_report(
        MetricSpec("schwarzschild_conformal", 3, m=1.0, center=(1.0, 0.5, 0.0)),
        FLAT_RADII, sphere_rule(3, 8)), id="equivalence-schwarzschild"),
    pytest.param(lambda: equivalence_report(
        MetricSpec("kottler", 3, m=1.0), HYP_RADII, sphere_rule(3, 8)),
        id="equivalence-kottler"),
    pytest.param(lambda: pohozaev_check(
        MetricSpec("hyperbolic_polar", 3), range(4), 1.0, 2.0,
        sphere_rule(3, 8), radial_degree=4), id="pohozaev"),
    # the center pass, whose node data carry the parity (RT) entries
    pytest.param(lambda: charge_pairs(
        MetricSpec("schwarzschild_conformal", 3, m=1.0, center=(1.0, 0.5, 0.0)),
        FLAT_RADII, sphere_rule(3, 8), range(1, 4)), id="rt"),
    # the mass pass, whose node data carry the decay sups
    pytest.param(lambda: charge_pairs(MetricSpec("kottler", 3, m=1.0),
                                      HYP_RADII, sphere_rule(3, 8), [0]),
                 id="decay"),
])
def test_sphere_passes_evaluate_in_chunks(monkeypatch, run):
    """Every per-node pass, the diagnostics' node data included, runs on the
    chunked evaluator: no metric, jet or curvature call sees more than one
    chunk of nodes.  Each name is patched where its caller looks it up."""
    from asymflux import catalog, charges, quadrature, verify

    # the budget of n^4 second-derivative entries that makes n=3 chunks of
    # _SMALL_CHUNK nodes
    monkeypatch.setattr(quadrature, "_CHUNK_ENTRIES", _SMALL_CHUNK * 3 ** 4)
    seen = []

    def recording(fn, nodes):
        def wrapper(*args):
            seen.append(nodes(*args))
            return fn(*args)
        return wrapper

    def points(spec, p):
        return int(np.prod(np.shape(p)[:-1]))

    def matrices(jet):
        return int(np.prod(jet.g.shape[:-2]))

    for module, name, nodes in [
            (verify, "metric_jet", points), (verify, "curvature", matrices),
            (charges, "jets", points), (charges, "curvature", matrices),
            (catalog, "jets", points)]:
        monkeypatch.setattr(module, name,
                            recording(getattr(module, name), nodes))
    run()
    assert seen
    assert max(seen) <= _SMALL_CHUNK


@pytest.mark.parametrize("spec", [
    pytest.param(MetricSpec("euclidean", 5), id="euclidean-n5"),
    pytest.param(MetricSpec("schwarzschild_conformal", 3, m=1e-13),
                 id="schwarzschild-below-mass-floor"),
])
def test_zero_mass_equivalence_makes_one_sphere_pass(monkeypatch, spec):
    """A vanishing mass drops the center rows from the same sphere pass: one
    ``integrate_sphere`` call per radius, and the mass row a pass over the
    mass pair alone gives."""
    from asymflux import charges

    rule = sphere_rule(spec.n, 4)
    calls = []
    integrate = charges.integrate_sphere

    def counting(*args, **kwargs):
        calls.append(args[1])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(charges, "integrate_sphere", counting)
    rep = equivalence_report(spec, FLAT_RADII, rule)
    assert calls == list(FLAT_RADII)
    assert rep.diagnostics["center_skipped"] == "mass vanishes"
    (row,) = rep.rows
    _, (cls,), (ric,), _ = charge_series(spec, FLAT_RADII, rule, [0])
    assert (row.charge, row.classical, row.classical_error, row.ricci,
            row.ricci_error) == ("mass", cls.limit, cls.limit_error,
                                 ric.limit, ric.limit_error)


@pytest.mark.parametrize("indices", [[], [4], [1, 1], [2, 1]],
                         ids=["empty", "above-n", "repeated", "decreasing"])
def test_charge_pairs_reject_bad_indices(monkeypatch, indices):
    """Basis indices must be non-empty, strictly increasing and within
    ``0..n``; anything else is a ValueError that names them, raised before
    any sphere pass."""
    from asymflux import charges

    def forbidden(*args, **kwargs):
        raise AssertionError("a sphere pass ran")

    monkeypatch.setattr(charges, "integrate_sphere", forbidden)
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    with pytest.raises(ValueError, match=re.escape(str(indices))):
        charge_pairs(spec, FLAT_RADII, sphere_rule(3, 4), indices)


def test_charge_pairs_take_indices_from_an_iterator():
    """Indices read once, from an iterator, give the rows a list gives."""
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0,
                      center=(1.0, 0.5, 0.0))
    rule = sphere_rule(3, 4)
    rows = charge_pairs(spec, FLAT_RADII, rule, [0, 2])[1]
    assert [row.field.index for row in rows] == [0, 2]
    assert charge_pairs(spec, FLAT_RADII, rule, iter([0, 2]))[1] == rows
