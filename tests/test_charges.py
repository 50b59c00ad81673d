"""Charge integrands and normalized invariants against closed-form oracles."""

import numpy as np
import pytest

from asymflux.catalog import MetricSpec, background_of, jets, metric_jet
from asymflux.charges import (adm_integrand, center_integrand, charge_series,
                              michel_integrand, michel_integrand_deviation,
                              rt_diagnostics, sphere_integrand)
from asymflux.errors import ChartMismatchError, ZeroMassError
from asymflux.fields import kernel_basis, killing_basis
from asymflux.geometry import ScalarJet, SymTensorJet
from asymflux.limits import decay_rate
from asymflux.quadrature import integrate_sphere, omega, sphere_rule

RNG = np.random.default_rng(42)
FLAT_RADII = 8.0 * 2.0 ** np.arange(5)
HYP_S = 3.0 + 0.75 * np.arange(5)


def random_deviation(count, n):
    value = RNG.normal(size=(count, n, n)) * 0.1
    value = value + np.swapaxes(value, -1, -2)
    d = RNG.normal(size=(count, n, n, n)) * 0.1
    d = d + np.swapaxes(d, -1, -2)
    return SymTensorJet(value, d)


def flat_bjet(x):
    from asymflux.catalog import metric_jet
    return metric_jet(MetricSpec("euclidean", x.shape[-1]), x)


# --------------------------------------------------- integrand specialization

def test_michel_specializes_to_adm():
    """With V = 1 over a flat background, the general charge integrand is the
    classical mass integrand."""
    n = 3
    x = RNG.normal(size=(100, n)) * 4.0
    nu = RNG.normal(size=(100, n))
    nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
    eps = random_deviation(100, n)
    V = kernel_basis(n, "cartesian")[0].scalar_jet(x)
    general = michel_integrand_deviation(V, eps, flat_bjet(x), nu)
    classical = adm_integrand(eps, nu)
    scale = np.max(np.abs(classical)) + 1.0
    assert np.max(np.abs(general - classical)) < 1e-12 * scale


@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_michel_specializes_to_center(alpha):
    n = 3
    x = RNG.normal(size=(100, n)) * 4.0
    nu = RNG.normal(size=(100, n))
    nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
    eps = random_deviation(100, n)
    V = kernel_basis(n, "cartesian")[alpha + 1].scalar_jet(x)
    general = michel_integrand_deviation(V, eps, flat_bjet(x), nu)
    classical = center_integrand(eps, alpha, x, nu)
    scale = np.max(np.abs(classical)) + 1.0
    assert np.max(np.abs(general - classical)) < 1e-12 * scale


def test_full_jets_agree_with_deviation_path():
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    x = RNG.normal(size=(20, 3)) * 2.0 + np.array([8.0, 0, 0])
    nu = x / np.linalg.norm(x, axis=-1, keepdims=True)
    V = kernel_basis(3, "cartesian")[0].scalar_jet(x)
    a = michel_integrand(V, metric_jet(spec, x),
                         metric_jet(background_of(spec), x), nu)
    b = michel_integrand_deviation(V, jets(spec, x)[2],
                                   metric_jet(background_of(spec), x), nu)
    assert np.allclose(a, b, atol=1e-12)


# ------------------------------------------ flat background in closed form

@pytest.mark.parametrize("spec", [
    pytest.param(MetricSpec("schwarzschild_conformal", 3, m=1.3),
                 id="schwarzschild"),
    pytest.param(MetricSpec("schwarzschild_conformal", 4, m=0.7,
                            center=(1.0, 0.5, -0.3, 0.2)),
                 id="translated-schwarzschild"),
    pytest.param(MetricSpec("perturbation", 3,
                            base=MetricSpec("schwarzschild_conformal", 3,
                                            m=1.0),
                            components={(0, 1): "x1*x3/r^4",
                                        (2, 2): "-1/r^2"}),
                 id="perturbation"),
    pytest.param(MetricSpec("expression", 3, components={
                     (0, 0): "1 + 2/r", (0, 1): "x1*x2/r^3",
                     (1, 1): "1 + 2/r", (1, 2): "-x2*x3/r^4",
                     (2, 2): "1 + 2/r"}),
                 id="expression-off-diagonal"),
])
def test_flat_michel_pieces_equal_general_formula(spec):
    """On a flat-type metric the closed-form Michel pieces, and the kernel
    columns built from them, equal the general formula bit for bit."""
    from asymflux.charges import (_flat_michel_pieces, _michel_contract,
                                  _michel_pieces)

    units = sphere_rule(spec.n, 8).units
    x = 12.0 * units
    _, b_jet, eps = jets(spec, x)
    flat, general = _flat_michel_pieces(eps, b_jet), _michel_pieces(eps, b_jet)
    for closed, full in zip(flat, general):
        assert np.array_equal(closed, full)
    for V in kernel_basis(spec.n, "cartesian"):
        jet = V.scalar_jet(x)
        assert np.array_equal(_michel_contract(jet, eps, flat, units),
                              _michel_contract(jet, eps, general, units))


def test_flat_sphere_pass_inverts_only_the_metric(monkeypatch):
    """On a flat-type metric the sphere pass inverts g for the curvature and
    leaves the identity background alone: one ``inverse_metric`` call per
    chunk for the kernel and field columns together."""
    from asymflux import charges, geometry

    counts = {"inverse": 0, "chunks": 0}
    original, integrand = geometry.inverse_metric, charges.sphere_integrand

    def counting(g):
        counts["inverse"] += 1
        return original(g)

    def counting_integrand(*args, **kwargs):
        f = integrand(*args, **kwargs)

        def chunk(points):
            counts["chunks"] += 1
            return f(points)
        return chunk

    for module in (geometry, charges):
        monkeypatch.setattr(module, "inverse_metric", counting)
    monkeypatch.setattr(charges, "sphere_integrand", counting_integrand)
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0,
                      center=(1.0, 0.5, 0.0))
    charge_series(spec, FLAT_RADII, sphere_rule(3, 8),
                  kernel_basis(3, "cartesian"), killing_basis(3, "cartesian"))
    assert counts["chunks"] > 0
    assert counts["inverse"] == counts["chunks"]


# ------------------------------------------------------------ flat charges

@pytest.mark.parametrize("n,m", [(3, 1.0), (3, 2.5), (4, 1.0), (5, 2.5)])
def test_classical_flux_closed_form(n, m):
    """Conformal Schwarzschild: normalized flux at radius r is exactly
    m (1 + m/(2 r^{n-2}))^{(6-n)/(n-2)}."""
    spec = MetricSpec("schwarzschild_conformal", n, m=m)
    rule = sphere_rule(n, 12)
    series = charge_series(spec, FLAT_RADII, rule,
                           kernels=[kernel_basis(n, "cartesian")[0]])[0][0]
    q = 4.0 / (n - 2)
    for s in series.samples:
        u = 1.0 + m / (2.0 * s.r ** (n - 2))
        assert s.normalized == pytest.approx(m * u ** (q - 1), rel=1e-12)
    assert series.limit == pytest.approx(m, rel=1e-3)


@pytest.mark.parametrize("n,m", [(3, 1.0), (4, 2.5)])
def test_ricci_mass_closed_form(n, m):
    spec = MetricSpec("schwarzschild_conformal", n, m=m)
    series = charge_series(spec, FLAT_RADII, sphere_rule(n, 12),
                           fields=[killing_basis(n, "cartesian")[0]])[1][0]
    assert series.limit == pytest.approx(m, rel=1e-10)


def test_centers_recover_translation():
    c = (1.0, -0.5, 0.25)
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0, center=c)
    rule = sphere_rule(3, 12)
    kernels, fields = kernel_basis(3, "cartesian"), killing_basis(3, "cartesian")
    for a in range(3):
        (_, cc), _ = charge_series(spec, FLAT_RADII, rule,
                                   kernels=[kernels[0], kernels[a + 1]])
        _, (rc,) = charge_series(spec, FLAT_RADII, rule, kernels[:1],
                                 [fields[a + 1]])
        assert cc.limit == pytest.approx(c[a], abs=5e-3)
        assert rc.limit == pytest.approx(c[a], abs=5e-3)


def test_euclidean_charges_vanish():
    spec = MetricSpec("euclidean", 3)
    rule = sphere_rule(3, 8)
    (mass,), _ = charge_series(spec, FLAT_RADII, rule,
                               kernels=[kernel_basis(3, "cartesian")[0]])
    _, (rmass,) = charge_series(spec, FLAT_RADII, rule,
                                fields=[killing_basis(3, "cartesian")[0]])
    assert mass.limit == 0.0
    assert rmass.limit == pytest.approx(0.0, abs=1e-13)


def test_zero_mass_center_rejected():
    """A center divides by the const_one mass leading its call: a zero mass,
    a missing const_one kernel and a mass below the floor are rejected."""
    rule = sphere_rule(3, 8)
    kernels, fields = kernel_basis(3, "cartesian"), killing_basis(3, "cartesian")
    euclidean = MetricSpec("euclidean", 3)
    with pytest.raises(ZeroMassError, match="vanishing mass"):
        charge_series(euclidean, FLAT_RADII, rule, kernels[:2])
    with pytest.raises(ZeroMassError, match="const_one"):
        charge_series(euclidean, FLAT_RADII, rule, kernels[1:2])
    with pytest.raises(ZeroMassError, match="const_one"):
        charge_series(euclidean, FLAT_RADII, rule, fields=fields[1:2])
    tiny = MetricSpec("schwarzschild_conformal", 3, m=1e-14)
    with pytest.raises(ZeroMassError, match="vanishing mass"):
        charge_series(tiny, FLAT_RADII, rule, kernels[:1], fields[1:2])


def test_type_mismatches_rejected():
    """A kernel of the other chart is rejected: cartesian on Kottler, polar
    on Euclidean."""
    rule = sphere_rule(3, 8)
    with pytest.raises(ChartMismatchError):
        charge_series(MetricSpec("kottler", 3, m=1.0), np.sinh(HYP_S), rule,
                      kernels=[kernel_basis(3, "cartesian")[0]])
    with pytest.raises(ChartMismatchError):
        charge_series(MetricSpec("euclidean", 3), FLAT_RADII, rule,
                      kernels=[kernel_basis(3, "polar_area")[0]])


def test_radius_schedule_validation():
    spec = MetricSpec("euclidean", 3)
    rule = sphere_rule(3, 8)
    kernels = [kernel_basis(3, "cartesian")[0]]
    with pytest.raises(ValueError):
        charge_series(spec, [8.0, 16.0], rule, kernels)
    with pytest.raises(ValueError):
        charge_series(spec, [8.0, 4.0, 16.0], rule, kernels)


# ------------------------------------------------------- hyperbolic charges

@pytest.mark.parametrize("n,m", [(3, 1.0), (3, 2.0), (4, 1.0)])
def test_kottler_mass(n, m):
    spec = MetricSpec("kottler", n, m=m)
    rule = sphere_rule(n, 14)
    series = charge_series(spec, np.sinh(HYP_S), rule,
                           kernels=[kernel_basis(n, "polar_area")[0]])[0][0]
    assert series.limit == pytest.approx(m, rel=1e-6)
    # the finite-radius correction decays monotonically
    gaps = np.abs(series.values - m)
    assert np.all(np.diff(gaps) < 0)


def test_kottler_ricci_charge(n=3, m=1.0):
    spec = MetricSpec("kottler", n, m=m)
    series = charge_series(spec, np.sinh(HYP_S), sphere_rule(n, 14),
                           fields=[killing_basis(n, "polar_area")[0]])[1][0]
    assert series.limit == pytest.approx(m, rel=1e-6)


def test_kottler_vector_charges_vanish():
    spec = MetricSpec("kottler", 3, m=1.0)
    rule = sphere_rule(3, 14)
    for X in killing_basis(3, "polar_area")[1:]:
        (am,), _ = charge_series(spec, np.sinh(HYP_S), rule, [X.kernel])
        _, (ar,) = charge_series(spec, np.sinh(HYP_S), rule, fields=[X])
        assert abs(am.limit) < 1e-10
        assert abs(ar.limit) < 1e-8


def test_geodesic_chart_agrees_with_area_chart():
    """The same hyperbolic-background charge in both polar charts."""
    pert = "0.5 * exp(-3*r)"
    ga = MetricSpec("perturbation", 3,
                    base=MetricSpec("hyperbolic_polar", 3),
                    components={(0, 0): pert})
    rule = sphere_rule(3, 12)
    series = charge_series(ga, HYP_S, rule,
                           [kernel_basis(3, "polar_geodesic")[0]])[0][0]
    pert_rho = "0.5 * exp(-3*log(r + sqrt(1 + r^2))) / (1 + r^2)"
    gb = MetricSpec("perturbation", 3,
                    base=MetricSpec("hyperbolic_area", 3),
                    components={(0, 0): pert_rho})
    series_b = charge_series(gb, np.sinh(HYP_S), rule,
                             [kernel_basis(3, "polar_area")[0]])[0][0]
    assert series_b.limit == pytest.approx(series.limit, rel=1e-8, abs=1e-10)


# -------------------------------------------------------------- diagnostics

def test_rt_diagnostics_translated():
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0,
                      center=(1.0, 0.5, 0.0))
    rep = rt_diagnostics(spec, FLAT_RADII, sphere_rule(3, 10))
    assert not rep.even
    assert rep.expected == pytest.approx(2.0)
    assert rep.exponent == pytest.approx(2.0, abs=0.3)
    assert rep.status == "pass"


def test_rt_diagnostics_even_metric():
    rep = rt_diagnostics(MetricSpec("schwarzschild_conformal", 3, m=1.0),
                         FLAT_RADII, sphere_rule(3, 10))
    assert rep.even
    assert rep.status == "pass"


def test_diagnostics_evaluate_values_only(monkeypatch):
    """``rt_diagnostics`` and ``decay_rate`` read only g, b and g - b: they
    go through ``jet_values`` and make no full 2-jet call."""
    from asymflux import catalog, charges

    calls = {"values": 0}
    original = catalog.jet_values

    def counting(spec, p):
        calls["values"] += 1
        return original(spec, p)

    def full_jet(*args):
        raise AssertionError("a diagnostic evaluated a full 2-jet")

    for module in (catalog, charges):
        monkeypatch.setattr(module, "jets", full_jet)
        monkeypatch.setattr(module, "jet_values", counting)
    monkeypatch.setattr(catalog, "metric_jet", full_jet)
    spec = MetricSpec("expression", 3, components={
        (0, 0): "1 + 2/r", (0, 1): "x1*x2/r^3", (1, 1): "1", (2, 2): "1"})
    rt_diagnostics(spec, FLAT_RADII, sphere_rule(3, 8))
    decay_rate(spec, FLAT_RADII)
    decay_rate(MetricSpec("kottler", 3, m=1.0), np.sinh(HYP_S))
    # rt: two metric and two background calls per radius; decay: one each
    assert calls["values"] == 4 * 5 + 2 * 5 + 5


# --------------------------------------------------------------- raw fluxes

def test_einstein_flux_orientation():
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    X = killing_basis(3, "cartesian")[0]
    rule = sphere_rule(3, 12)
    s = charge_series(spec, [16.0, 32.0, 64.0], rule, fields=[X])[1][0].samples[0]
    # normalization: raw flux = -(n-1)(n-2) omega m at leading order
    assert s.raw_flux == pytest.approx(-2.0 * omega(3) * 1.0, rel=1e-6)


def test_michel_flux_quad_error_is_small():
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    V = kernel_basis(3, "cartesian")[0]
    flux = sphere_integrand(spec, [V], (), 16.0)
    res = integrate_sphere(lambda p: flux(p)[:, 0], 16.0, sphere_rule(3, 12))
    assert res.error_estimate < 1e-10 * max(abs(res.value), 1.0)


@pytest.mark.parametrize("kind,chart,module,name,count", [
    ("kottler", "polar_area", "fields", "sphere_embedding_hd", 4),
    ("schwarzschild_conformal", "cartesian", "catalog",
     "_schwarzschild_log_factor", 1),
])
def test_sphere_pass_evaluates_node_data_once_per_chunk(
        monkeypatch, kind, chart, module, name, count):
    """A sphere pass evaluates what its charges share once per chunk: the
    sphere embedding of every hyperbolic kernel and field (full basis), and
    the conformal factor behind g and g - b (flat mass pass)."""
    import importlib

    from asymflux import charges

    target = importlib.import_module(f"asymflux.{module}")
    counts = {"chunks": 0, name: 0}
    original, integrand = getattr(target, name), charges.sphere_integrand

    def counting(*args):
        counts[name] += 1
        return original(*args)

    def counting_integrand(*args, **kwargs):
        f = integrand(*args, **kwargs)

        def chunk(points):
            counts["chunks"] += 1
            return f(points)
        return chunk

    monkeypatch.setattr(target, name, counting)
    monkeypatch.setattr(charges, "sphere_integrand", counting_integrand)
    radii = np.sinh(HYP_S) if chart == "polar_area" else FLAT_RADII
    charge_series(MetricSpec(kind, 3, m=1.0), radii, sphere_rule(3, 8),
                  kernel_basis(3, chart)[:count],
                  killing_basis(3, chart)[:count])
    assert counts["chunks"] > 0
    assert counts[name] == counts["chunks"]


def test_basis_pass_matches_single_charges():
    """A charge computed alone equals the same charge inside the full basis,
    bit for bit, for both families and for the Pohozaev reports."""
    from asymflux.verify import pohozaev_check

    rule = sphere_rule(3, 8)
    factor = "(1 + 1/(2*((x1-1)^2 + (x2-0.5)^2 + x3^2)^(1/2)))^4"
    for spec in (MetricSpec("schwarzschild_conformal", 3, m=1.0,
                            center=(1.0, 0.5, 0.0)),
                 MetricSpec("expression", 3,
                            components={(i, i): factor for i in range(3)})):
        kernels, fields = kernel_basis(3, "cartesian"), killing_basis(3, "cartesian")
        (mass, *cc), (rmass, *rc) = charge_series(spec, FLAT_RADII, rule,
                                                  kernels, fields)
        assert charge_series(spec, FLAT_RADII, rule, kernels[:1])[0] == [mass]
        assert charge_series(spec, FLAT_RADII, rule,
                             fields=fields[:1])[1] == [rmass]
        for a in range(3):
            assert charge_series(spec, FLAT_RADII, rule, [
                kernels[0], kernels[a + 1]])[0] == [mass, cc[a]]
            assert charge_series(spec, FLAT_RADII, rule, kernels[:1],
                                 [fields[a + 1]])[1] == [rc[a]]

    spec = MetricSpec("kottler", 3, m=1.0)
    radii = np.sinh(HYP_S)
    kernels, fields = kernel_basis(3, "polar_area"), killing_basis(3, "polar_area")
    am, ar = charge_series(spec, radii, rule, kernels, fields)
    for i in range(4):
        assert charge_series(spec, radii, rule, [kernels[i]])[0] == [am[i]]
        assert charge_series(spec, radii, rule, fields=[fields[i]])[1] == [ar[i]]

    spec = MetricSpec("hyperbolic_polar", 3)
    fields = killing_basis(3, spec.chart_kind)
    reports = pohozaev_check(spec, fields, 1.0, 2.0, rule, radial_degree=8)
    for X, rep in zip(fields, reports):
        assert pohozaev_check(spec, [X], 1.0, 2.0, rule, radial_degree=8) == [rep]
