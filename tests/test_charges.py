"""Charge integrands and normalized invariants against closed-form oracles."""

import tracemalloc

import numpy as np
import pytest

from asymflux.catalog import MetricSpec, background_of, jets, metric_jet
from asymflux.charges import (_normalization, charge_series,
                              hypothesis_diagnostics, sphere_integrand)
from asymflux.errors import ChartMismatchError, ZeroMassError
from asymflux.fields import basis_jets
from asymflux.geometry import SymTensorJet, WarpedJet
from asymflux.quadrature import integrate_sphere, omega, sphere_rule
from oracles import (adm_integrand, center_integrand, decay_sup,
                     michel_integrand, michel_integrand_deviation,
                     michel_pieces, odd_sup, scal_sup)

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
    (V,), _ = basis_jets(x, "cartesian", [0], [])
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
    (V,), _ = basis_jets(x, "cartesian", [alpha + 1], [])
    general = michel_integrand_deviation(V, eps, flat_bjet(x), nu)
    classical = center_integrand(eps, alpha, x, nu)
    scale = np.max(np.abs(classical)) + 1.0
    assert np.max(np.abs(general - classical)) < 1e-12 * scale


def test_full_jets_agree_with_deviation_path():
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    x = RNG.normal(size=(20, 3)) * 2.0 + np.array([8.0, 0, 0])
    nu = x / np.linalg.norm(x, axis=-1, keepdims=True)
    (V,), _ = basis_jets(x, "cartesian", [0], [])
    a = michel_integrand(V, metric_jet(spec, x),
                         metric_jet(background_of(spec), x), nu)
    b = michel_integrand_deviation(V, jets(spec, x)[2],
                                   metric_jet(background_of(spec), x), nu)
    assert np.allclose(a, b, atol=1e-12)


# ------------------------------------------ flat background in closed form

_SCHWARZSCHILD_3 = "(1 + 1/(2*r))^4"     # the n=3 factor at m = 1

@pytest.mark.parametrize("spec", [
    pytest.param(MetricSpec("schwarzschild_conformal", 3, m=1.3),
                 id="schwarzschild"),
    pytest.param(MetricSpec("schwarzschild_conformal", 4, m=0.7,
                            center=(1.0, 0.5, -0.3, 0.2)),
                 id="translated-schwarzschild"),
    # Schwarzschild (m = 1) plus a perturbation, delta + h
    pytest.param(MetricSpec("expression", 3, components={
                     (0, 0): _SCHWARZSCHILD_3, (1, 1): _SCHWARZSCHILD_3,
                     (2, 2): f"{_SCHWARZSCHILD_3} - 1/r^2",
                     (0, 1): "x1*x3/r^4"}),
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
    from asymflux.charges import _flat_michel_pieces, _michel_contract

    units = sphere_rule(spec.n, 8).units
    x = 12.0 * units
    _, b, eps = jets(spec, x)
    flat, general = _flat_michel_pieces(eps, b), michel_pieces(eps, b)
    for closed, full in zip(flat, general):
        assert np.array_equal(closed, full)
    for jet in basis_jets(x, "cartesian", range(spec.n + 1), [])[0]:
        assert np.array_equal(_michel_contract(jet, eps, flat, units),
                              _michel_contract(jet, eps, general, units))


def test_flat_sphere_pass_inverts_only_the_metric(monkeypatch):
    """On a flat-type metric the sphere pass leaves the identity background
    alone and takes no determinant.  A dense metric (an expression) is
    factored once per chunk for the curvature and the metric area element,
    with one Christoffel array: one factorization (inverse, definiteness
    check and ``sqrt(det g)``) per chunk for the kernel and field columns
    together.  A conformal one (``schwarzschild_conformal``, here the
    same metric) takes its closed form: no factorization and no
    Christoffel array at all."""
    from asymflux import charges, geometry

    counts = {}
    integrand = charges.sphere_integrand
    det = np.linalg.det

    def counting(name, original):
        def call(*args):
            counts[name] += 1
            return original(*args)
        return call

    def counting_integrand(*args, **kwargs):
        f = integrand(*args, **kwargs)

        def chunk(points):
            counts["chunks"] += 1
            return f(points)
        return chunk

    # inverse_metric and curvature both factor through geometry._factor
    for name in ("_factor", "_christoffel", "_conformal_christoffel"):
        monkeypatch.setattr(geometry, name,
                            counting(name, getattr(geometry, name)))
    monkeypatch.setattr(np.linalg, "det", counting("det", det))
    monkeypatch.setattr(charges, "sphere_integrand", counting_integrand)
    factor = "(1 + 1/(2*sqrt((x1 - 1)^2 + (x2 - 0.5)^2 + x3^2)))^4"
    dense = MetricSpec("expression", 3,
                       components={(i, i): factor for i in range(3)})
    conformal = MetricSpec("schwarzschild_conformal", 3, m=1.0,
                           center=(1.0, 0.5, 0.0))
    for spec, per_chunk in ((dense, 1), (conformal, 0)):
        counts.update(dict.fromkeys(
            ("chunks", "_factor", "_christoffel", "_conformal_christoffel",
             "det"), 0))
        charge_series(spec, FLAT_RADII, sphere_rule(3, 8), range(4))
        assert counts["chunks"] > 0
        assert counts["_factor"] == counts["_christoffel"] \
            == per_chunk * counts["chunks"]
        assert counts["_conformal_christoffel"] == counts["det"] == 0


# --------------------------------------- polar backgrounds in closed form

def _full_deviation(n, chart):
    """A polar-chart expression metric whose deviation from the background
    fills every entry: off-diagonal entries decaying in ``r``, diagonal
    ones perturbed by angle-dependent terms."""
    if chart == "polar_area":
        radial, angular = "1/(1 + r^2) + r^(-3)*cos(theta1)", "r^2"
    else:
        radial, angular = "1 + exp(-2*r)*cos(theta1)", "sinh(r)^2"
    components = {}
    for i in range(n):
        sigma = "".join(f"*sin(theta{k})^2" for k in range(1, i))
        components[(i, i)] = radial if i == 0 else \
            f"{angular}{sigma}*(1 + 0.1*sin(phi)*exp(-r))"
        for j in range(i + 1, n):
            components[(i, j)] = \
                f"0.3*exp(-{i + j}*r)*sin(theta1)*cos(phi + {j})"
    return MetricSpec("expression", n, chart=chart, components=components)


_POLAR_BACKGROUND_SPECS = [
    pytest.param(spec, id=f"{spec.kind}-{spec.chart or 'catalog'}-{spec.n}")
    for n in (3, 4, 5)
    for spec in (MetricSpec("hyperbolic_polar", n),
                 MetricSpec("hyperbolic_area", n),
                 MetricSpec("kottler", n, m=1.0),
                 _full_deviation(n, "polar_area"),
                 _full_deviation(n, "polar_geodesic"))]


@pytest.mark.parametrize("spec", _POLAR_BACKGROUND_SPECS)
def test_polar_michel_pieces_match_the_general_formula(spec):
    """On a polar background the closed-form Michel pieces match the general
    formula (Cholesky inverse, Christoffel symbols, covariant divergence and
    ``d b^{-1}`` of the background) within 2e-15 of the largest entry of
    the source (4.9e-16 measured); ``binv`` and ``tr eps`` are the same
    bits, and on the hyperbolic metrics themselves every piece but
    ``binv`` is an exact zero."""
    from asymflux.charges import _michel_pieces

    rng = np.random.default_rng(spec.n)
    pts = np.empty((200, spec.n))
    pts[:, 0] = rng.uniform(1.5, 8.0 if spec.kind == "expression" else 30.0,
                            200)
    pts[:, 1:-1] = rng.uniform(0.3, np.pi - 0.3, (200, spec.n - 2))
    pts[:, -1] = rng.uniform(0.0, 2.0 * np.pi, 200)
    _, b, eps = jets(spec, pts)
    closed, general = _michel_pieces(eps, b), michel_pieces(eps, b)
    assert np.array_equal(closed[0], general[0])
    assert np.array_equal(closed[2], general[2])
    scale = np.abs(general[1]).max()
    assert np.abs(closed[1] - general[1]).max() <= 2e-15 * scale
    if spec.kind.startswith("hyperbolic"):
        assert not np.any(closed[1]) and not np.any(closed[2])


_POLAR_EXPRESSION = MetricSpec("expression", 3, chart="polar_area",
                               components={(0, 0): "1/(1 + r^2 - 2*m/r)",
                                           (1, 1): "r^2",
                                           (2, 2): "r^2*sin(theta1)^2"},
                               params={"m": 1.0})


@pytest.mark.parametrize("fields", [False, True], ids=["kernels", "basis"])
def test_polar_sphere_pass_factors_only_the_metric(monkeypatch, fields):
    """The polar sphere pass builds no factorization and no Christoffel
    symbols of the background: on Kottler the kernel columns of the
    integrand alone factor nothing.  The full basis on each polar catalog
    kind, a warped jet, factors nothing either, builds no Christoffel
    symbols and never builds the metric's ``dg`` or ``ddg``; a polar
    expression metric, a dense jet, factors ``g`` once per chunk, for the
    curvature."""
    from asymflux import charges, geometry

    counts = {"factor": 0, "christoffel": 0, "chunks": 0}
    factor, symbols = geometry._factor, geometry._christoffel
    integrand, metric_jets = charges.sphere_integrand, charges.jets
    built = []

    def counting(name, original):
        def call(*args):
            counts[name] += 1
            return original(*args)
        return call

    def counting_integrand(*args, **kwargs):
        f = integrand(*args, **kwargs)

        def chunk(points):
            counts["chunks"] += 1
            return f(points)
        return chunk

    def recording_jets(*args):
        out = metric_jets(*args)
        built.append(out[0])
        return out

    monkeypatch.setattr(geometry, "_factor", counting("factor", factor))
    monkeypatch.setattr(geometry, "_christoffel",
                        counting("christoffel", symbols))
    monkeypatch.setattr(charges, "sphere_integrand", counting_integrand)
    monkeypatch.setattr(charges, "jets", recording_jets)
    rule = sphere_rule(3, 8)
    if not fields:
        spec = MetricSpec("kottler", 3, m=1.0)
        for r in np.sinh(HYP_S):
            integrate_sphere(charges.sphere_integrand(
                spec, range(4), (), r), r, rule, spec.chart_kind)
        assert counts["chunks"] > 0
        assert counts["factor"] == counts["christoffel"] == 0
        return
    for spec in (MetricSpec("kottler", 3, m=1.0),
                 MetricSpec("hyperbolic_area", 3),
                 MetricSpec("hyperbolic_polar", 3)):
        radii = np.sinh(HYP_S) if spec.kind != "hyperbolic_polar" else HYP_S
        charge_series(spec, radii, rule, range(4))
        assert counts["chunks"] > 0
        assert counts["factor"] == counts["christoffel"] == 0
        assert built and all(isinstance(jet, WarpedJet) for jet in built)
        for jet in built:
            assert "dg" not in vars(jet) and "ddg" not in vars(jet)
        counts["chunks"] = 0
        built.clear()
    charge_series(_POLAR_EXPRESSION, np.sinh(HYP_S), rule, range(4))
    assert counts["chunks"] > 0
    assert counts["factor"] == counts["chunks"]
    assert counts["christoffel"] == counts["chunks"]


@pytest.mark.parametrize("spec", [
    MetricSpec("kottler", 3, m=1.0), MetricSpec("hyperbolic_area", 4),
    MetricSpec("schwarzschild_conformal", 3, m=1.0)], ids=lambda s: s.kind)
def test_charge_pass_builds_no_hessian(monkeypatch, spec):
    """A charge pass reads first derivatives alone and builds no Hessian:
    every warped diagonal entry and every kernel jet is first-order, and
    every field jet is its components alone."""
    from asymflux import charges

    metric_jets, basis = charges.jets, charges.basis_jets
    built, bases = [], []

    def recording_jets(*args):
        out = metric_jets(*args)
        built.append(out[0])
        return out

    def recording_basis(*args, **kwargs):
        out = basis(*args, **kwargs)
        bases.append(out)
        return out

    monkeypatch.setattr(charges, "jets", recording_jets)
    monkeypatch.setattr(charges, "basis_jets", recording_basis)
    n = spec.n
    radii = FLAT_RADII if spec.is_flat_type else np.sinh(HYP_S)
    charge_series(spec, radii, sphere_rule(n, 8), range(n + 1))
    assert built and len(bases) == len(built)
    for jet in built:
        if not spec.is_flat_type:
            assert isinstance(jet, WarpedJet)
            assert all(e.hess is None for e in jet.diag)
            assert "ddg" not in vars(jet)
    for scalars, vectors in bases:
        assert len(scalars) == len(vectors) == n + 1
        assert all(V.hess is None for V in scalars)
        assert all(X.d is None for X in vectors)


# ------------------------------------------------------------ flat charges

@pytest.mark.parametrize("n,m", [(3, 1.0), (3, 2.5), (4, 1.0), (5, 2.5)])
def test_classical_flux_closed_form(n, m):
    """Conformal Schwarzschild: normalized flux at radius r is exactly
    m (1 + m/(2 r^{n-2}))^{(6-n)/(n-2)}."""
    spec = MetricSpec("schwarzschild_conformal", n, m=m)
    rule = sphere_rule(n, 12)
    series = charge_series(spec, FLAT_RADII, rule, [0])[1][0]
    q = 4.0 / (n - 2)
    for s in series.samples:
        u = 1.0 + m / (2.0 * s.r ** (n - 2))
        assert s.normalized == pytest.approx(m * u ** (q - 1), rel=1e-12)
    assert series.limit == pytest.approx(m, rel=1e-3)


@pytest.mark.parametrize("n,m", [(3, 1.0), (4, 2.5)])
def test_ricci_mass_closed_form(n, m):
    spec = MetricSpec("schwarzschild_conformal", n, m=m)
    series = charge_series(spec, FLAT_RADII, sphere_rule(n, 12), [0])[2][0]
    assert series.limit == pytest.approx(m, rel=1e-10)


def test_centers_recover_translation():
    c = (1.0, -0.5, 0.25)
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0, center=c)
    rule = sphere_rule(3, 12)
    for a in range(3):
        _, (cc,), (rc,), _ = charge_series(spec, FLAT_RADII, rule, [a + 1])
        assert cc.limit == pytest.approx(c[a], abs=5e-3)
        assert rc.limit == pytest.approx(c[a], abs=5e-3)


def test_center_bars_carry_the_mass_error():
    """A center is a flux over the extrapolated mass, so its bar covers the
    mass's relative error.  Without that term the Ricci centers here miss by
    about 20x (true error 1.8e-10 at a = 0)."""
    c = (1.0, 0.5, 0.0, 0.0)
    spec = MetricSpec("schwarzschild_conformal", 4, m=1.0, center=c)
    mass, classical, ricci, _ = charge_series(spec, FLAT_RADII,
                                              sphere_rule(4, 16), range(1, 5))
    assert abs(mass.limit - 1.0) <= mass.limit_error
    for a, (cc, rc) in enumerate(zip(classical, ricci)):
        for s in (cc, rc):
            assert abs(s.limit - c[a]) <= s.limit_error
            assert s.limit_error >= abs(s.limit) * mass.limit_error \
                / abs(mass.limit)


def test_euclidean_charges_vanish():
    spec = MetricSpec("euclidean", 3)
    rule = sphere_rule(3, 8)
    _, (mass,), (rmass,), _ = charge_series(spec, FLAT_RADII, rule, [0])
    assert mass.limit == 0.0
    assert rmass.limit == pytest.approx(0.0, abs=1e-13)


def test_zero_mass_center_rejected():
    """A center divides by the const_one mass leading its pass: a zero mass
    and a mass below the floor are rejected, unless the mass was requested
    too, which then comes back alone, as a pass over index 0 gives it."""
    rule = sphere_rule(3, 8)
    euclidean = MetricSpec("euclidean", 3)
    tiny = MetricSpec("schwarzschild_conformal", 3, m=1e-14)
    for spec in (euclidean, tiny):
        with pytest.raises(ZeroMassError, match="vanishing mass"):
            charge_series(spec, FLAT_RADII, rule, [1])
        with pytest.raises(ZeroMassError, match="vanishing mass"):
            charge_series(spec, FLAT_RADII, rule, range(1, 4))
        mass, classical, ricci, _ = charge_series(spec, FLAT_RADII, rule,
                                                  [0, 2])
        assert charge_series(spec, FLAT_RADII, rule, [0])[:3] \
            == (mass, classical, ricci)
        assert classical == [mass]


def test_radius_schedule_validation():
    spec = MetricSpec("euclidean", 3)
    rule = sphere_rule(3, 8)
    with pytest.raises(ValueError):
        charge_series(spec, [8.0, 16.0], rule, [0])
    with pytest.raises(ValueError):
        charge_series(spec, [8.0, 4.0, 16.0], rule, [0])


# ------------------------------------------------------- hyperbolic charges

@pytest.mark.parametrize("n,m", [(3, 1.0), (3, 2.0), (4, 1.0)])
def test_kottler_mass(n, m):
    spec = MetricSpec("kottler", n, m=m)
    rule = sphere_rule(n, 14)
    series = charge_series(spec, np.sinh(HYP_S), rule, [0])[1][0]
    assert series.limit == pytest.approx(m, rel=1e-6)
    # the finite-radius correction decays monotonically
    gaps = np.abs(series.values - m)
    assert np.all(np.diff(gaps) < 0)


def test_kottler_ricci_charge(n=3, m=1.0):
    spec = MetricSpec("kottler", n, m=m)
    series = charge_series(spec, np.sinh(HYP_S), sphere_rule(n, 14),
                           [0])[2][0]
    assert series.limit == pytest.approx(m, rel=1e-6)


def test_kottler_vector_charges_vanish():
    spec = MetricSpec("kottler", 3, m=1.0)
    rule = sphere_rule(3, 14)
    for i in range(1, 4):
        _, (am,), (ar,), _ = charge_series(spec, np.sinh(HYP_S), rule, [i])
        assert abs(am.limit) < 1e-10
        assert abs(ar.limit) < 1e-8


@pytest.mark.parametrize("n,m", [(3, 0.7), (3, 1.0), (4, 0.7), (4, 1.0),
                                 (4, 2.0), (5, 0.7), (5, 1.0), (5, 2.0)])
def test_kottler_ricci_bars_cover_their_errors(n, m):
    """Every Kottler Ricci charge at degree 16 on the default radii is
    within its bar of the exact charge (m for V^(0), 0 for the others):
    the closed-form curvature of the warped jet leaves no modified-Einstein
    roundoff of order 1 at the outer radii.  At n = 3 that covers
    ``ah_ricci_0`` at m = 0.7 (the dense jet's was off by 6.8e-10 against
    a bar of 5.8e-10) and m = 1; at n = 4 and 5 every bar is at most 1e-12
    (8.2e-13 at n = 4, m = 2, measured; the dense jet's went up to
    3.2e-5)."""
    spec = MetricSpec("kottler", n, m=m)
    _, _, ricci, _ = charge_series(spec, np.sinh(HYP_S), sphere_rule(n, 16),
                                   range(n + 1))
    for i, series in enumerate(ricci):
        exact = m if i == 0 else 0.0
        assert abs(series.limit - exact) <= series.limit_error, i
        if n > 3:
            assert series.limit_error <= 1e-12, i


def test_geodesic_chart_agrees_with_area_chart():
    """The same hyperbolic-background charge in both polar charts."""
    # mass 1: the expression's deviation g - b is a subtraction, which
    # keeps the digits of a deviation as large as this one
    ga = MetricSpec("expression", 3, chart="polar_geodesic", components={
        (0, 0): "1 + 16 * exp(-3*r)", (1, 1): "sinh(r)^2",
        (2, 2): "sinh(r)^2*sin(theta1)^2"})
    rule = sphere_rule(3, 12)
    series = charge_series(ga, HYP_S, rule, [0])[1][0]
    pert_rho = "16 * exp(-3*log(r + sqrt(1 + r^2))) / (1 + r^2)"
    gb = MetricSpec("expression", 3, chart="polar_area", components={
        (0, 0): f"1/(1 + r^2) + {pert_rho}", (1, 1): "r^2",
        (2, 2): "r^2*sin(theta1)^2"})
    series_b = charge_series(gb, np.sinh(HYP_S), rule, [0])[1][0]
    assert series_b.limit == pytest.approx(series.limit, rel=1e-8, abs=1e-10)


# -------------------------------------------------------------- diagnostics

def _odd_sups(spec, rule):
    """The ``odd`` sups of a center pass over the whole basis."""
    return charge_series(spec, FLAT_RADII, rule,
                         range(spec.n + 1))[3]["odd"]


def _rt(spec, sups):
    """The parity (RT) diagnostics of the ``odd`` sups ``sups``."""
    return hypothesis_diagnostics(spec, FLAT_RADII, {"odd": sups})


def test_rt_diagnostics_translated():
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0,
                      center=(1.0, 0.5, 0.0))
    rule = sphere_rule(3, 10)
    rep = _rt(spec, _odd_sups(spec, rule))
    assert rep["rt_expected"] == pytest.approx(2.0)
    assert rep["rt_exponent"] == pytest.approx(2.0, abs=0.3)
    assert rep["rt_status"] == "pass"


def test_rt_diagnostics_even_metric():
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    rep = _rt(spec, _odd_sups(spec, sphere_rule(3, 10)))
    assert rep["rt_exponent"] == np.inf
    assert rep["rt_status"] == "pass"


def test_parity_diagnostics_warn_on_slow_decay_and_need_a_flat_metric():
    """An odd part decaying as ``r^-1`` fails the parity condition at n=3
    (it needs an exponent above ``n - 1.5``), and the condition is a
    flat-type hypothesis: ``odd`` sups on a hyperbolic-type metric are a
    chart mismatch."""
    rep = _rt(MetricSpec("euclidean", 3), 0.1 / FLAT_RADII)
    assert rep["rt_exponent"] == pytest.approx(1.0)
    assert rep["rt_status"] == "warn"
    with pytest.raises(ChartMismatchError):
        hypothesis_diagnostics(MetricSpec("kottler", 3, m=1.0),
                               np.sinh(HYP_S), {"odd": np.exp(-HYP_S)})


def test_scal_proxy_needs_the_weighted_sups_to_fall():
    """``scal_integrable`` holds when the last ``scal`` sup is below 0.9
    times the first or under the floor ``1e-8 max(largest, 1)``."""
    spec, radii = MetricSpec("kottler", 3, m=1.0), np.sinh(HYP_S)

    def judge(sups):
        return hypothesis_diagnostics(spec, radii, {"scal": np.array(sups)})[
            "scal_integrable"]

    assert not judge([2.0, 2.0, 2.0, 2.0, 1.9])
    assert judge([2.0, 1.5, 1.2, 1.0, 1.7])
    assert judge([0.0, 0.0, 0.0, 0.0, 1e-9])


def test_rt_exponent_matches_a_high_precision_reference():
    """The odd sups come from the closed-form deviation, not from ``g``
    near 1: on translated Schwarzschild n=5 the fitted exponent agrees with
    a 40-digit evaluation of ``(g(x) - g(-x)) / 2`` at the same nodes to
    1e-12.  Subtracting two ``g`` values loses about 1e-8 of the last sup
    (parity part 6e-9 against roundoff 1e-16), and the exponent 1e-9."""
    mp = pytest.importorskip("mpmath")
    c = (0.6, -0.5, 0.4, 0.0, 0.0)
    spec = MetricSpec("schwarzschild_conformal", 5, m=1.0, center=c)
    rule = sphere_rule(5, 6)

    def g(x):
        rho2 = sum((mp.mpf(xi) - ci) ** 2 for xi, ci in zip(x, c))
        return (1 + 1 / (2 * rho2 ** mp.mpf(1.5))) ** (mp.mpf(4) / 3)

    with mp.workdps(40):
        reference = [float(max(abs(g(x) - g(-x)) / 2 for x in r * rule.units))
                     for r in FLAT_RADII]
    exact = _rt(spec, reference)["rt_exponent"]
    rep = _rt(spec, _odd_sups(spec, rule))
    assert rep["rt_exponent"] == pytest.approx(exact, rel=1e-12)


def test_diagnostics_evaluate_no_metric(monkeypatch):
    """``hypothesis_diagnostics`` fits the sups the charge pass hands it:
    it makes no jet call and no node pass of its own."""
    from asymflux import catalog, charges, quadrature

    def forbidden(*args, **kwargs):
        raise AssertionError("a diagnostic evaluated the metric")

    for module in (catalog, charges):
        monkeypatch.setattr(module, "jets", forbidden)
    monkeypatch.setattr(quadrature, "_evaluate", forbidden)
    sups = FLAT_RADII ** -2.0
    assert _rt(MetricSpec("expression", 3, components={
        (0, 0): "1 + 2/r", (1, 1): "1", (2, 2): "1"}),
        sups)["rt_exponent"] == pytest.approx(2.0)
    assert hypothesis_diagnostics(
        MetricSpec("kottler", 3, m=1.0), np.sinh(HYP_S),
        {"decay": np.exp(-3.0 * HYP_S)})["tau_hat"] == pytest.approx(3.0)


@pytest.mark.parametrize("spec,radii", [
    pytest.param(MetricSpec("schwarzschild_conformal", 3, m=1.0,
                            center=(1.0, 0.5, 0.0)), FLAT_RADII,
                 id="translated-schwarzschild"),
    pytest.param(MetricSpec("schwarzschild_conformal", 4, m=1.0), FLAT_RADII,
                 id="schwarzschild-n4"),
    pytest.param(MetricSpec("expression", 3, components={
                     (0, 0): "1 + 2/r + x1/r^3", (0, 1): "x1*x2/r^4",
                     (1, 1): "1 + 2/r", (2, 2): "1 + 2/r"}), FLAT_RADII,
                 id="expression-odd"),
    pytest.param(MetricSpec("kottler", 3, m=1.0), np.sinh(HYP_S),
                 id="kottler"),
    pytest.param(MetricSpec("expression", 3, chart="polar_geodesic",
                            components={(0, 0): "1 + 0.5*exp(-3*r)",
                                        (1, 1): "sinh(r)^2",
                                        (2, 2): "sinh(r)^2*sin(theta1)^2"}),
                 HYP_S, id="perturbation-polar"),
])
def test_node_sups_equal_the_sampled_sups(spec, radii):
    """The sups the charge pass reduces from its node data equal those of a
    node pass of their own on the same rule, each radius's own
    (``oracles``): the decay and scalar-curvature sups bit for bit, the odd
    part within 1e-15 (antipodal nodes are ``-x`` up to roundoff, and the
    deviation is ``g - b``)."""
    _, (series, *_), _, sups = charge_series(
        spec, radii, sphere_rule(spec.n, 8), range(spec.n + 1))
    rules = [sphere_rule(spec.n, s.degree) for s in series.samples]
    assert np.array_equal(sups["decay"],
                          [decay_sup(spec, r, q) for r, q in zip(radii, rules)])
    assert np.array_equal(sups["scal"],
                          [scal_sup(spec, r, q) for r, q in zip(radii, rules)])
    if spec.is_flat_type:
        assert np.abs(sups["odd"] - [odd_sup(spec, r, q) for r, q
                                     in zip(radii, rules)]).max() <= 1e-15
    else:
        assert "odd" not in sups


def test_odd_sups_only_with_a_center():
    """The node data carry the deviation entries for the odd part only when
    the pass computes a center; the scalar curvature, which every pass's
    fields compute, always."""
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    rule = sphere_rule(3, 4)

    def keys(indices):
        return set(charge_series(spec, FLAT_RADII, rule, indices)[3])

    assert keys([0]) == {"decay", "scal"}
    assert keys([0, 1]) == {"decay", "scal", "odd"}
    assert keys([1]) == {"decay", "scal", "odd"}


# --------------------------------------------------------------- raw fluxes

def test_einstein_flux_orientation():
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    rule = sphere_rule(3, 12)
    s = charge_series(spec, [16.0, 32.0, 64.0], rule, [0])[2][0].samples[0]
    # normalization: raw flux = -(n-1)(n-2) omega m at leading order
    assert s.raw_flux == pytest.approx(-2.0 * omega(3) * 1.0, rel=1e-6)


def test_michel_flux_quad_error_is_small():
    spec = MetricSpec("schwarzschild_conformal", 3, m=1.0)
    flux = sphere_integrand(spec, [0], (), 16.0)
    res = integrate_sphere(lambda p: flux(p)[0][:, 0], 16.0,
                           sphere_rule(3, 12))
    assert res.error_estimate < 1e-10 * max(abs(res.value), 1.0)


@pytest.mark.parametrize("kind,radii", [
    pytest.param("kottler", np.sinh(4.0 + 0.75 * np.arange(3)), id="kottler"),
    pytest.param("schwarzschild_conformal", FLAT_RADII[:3],
                 id="schwarzschild")])
def test_sphere_integrand_is_the_charge_pass(kind, radii):
    """A direct :func:`sphere_integrand` integrates every column exactly as
    the charge pass does, bit for bit: the modified Einstein tensor on
    Kottler (``ah_X0`` at rho = sinh 4 reads -25.13, not the plain
    tensor's 255384.8), the Einstein tensor on Schwarzschild."""
    spec = MetricSpec(kind, 3, m=1.0)
    chart = spec.chart_kind
    kernels = fields = range(4)
    mass, classical, ricci, _ = charge_series(spec, radii, sphere_rule(3, 12),
                                              range(4))
    # every column with its normalization, kernels first, then fields
    columns = [(series, _normalization(
                    3, field, mass.limit if i and spec.is_flat_type else None))
               for field, family in ((False, classical), (True, ricci))
               for i, series in enumerate(family)]
    for j, r in enumerate(radii):
        rule = sphere_rule(3, classical[0].samples[j].degree)
        q = integrate_sphere(sphere_integrand(spec, kernels, fields, r), r,
                             rule, chart)
        for k, (series, norm) in enumerate(columns):
            assert series.samples[j].raw_flux == q.value[k]
            assert series.samples[j].quad_error \
                == q.error_estimate[k] * abs(norm)
    if kind == "kottler":
        assert ricci[0].samples[0].raw_flux == pytest.approx(-25.13, abs=5e-3)


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
                  range(count))
    assert counts["chunks"] > 0
    assert counts[name] == counts["chunks"]


@pytest.mark.parametrize("spec,radii", [
    pytest.param(MetricSpec("kottler", 3, m=1.0), np.sinh(HYP_S),
                 id="kottler"),
    pytest.param(MetricSpec("schwarzschild_conformal", 3, m=1.0,
                            center=(1.0, 0.5, 0.0)), FLAT_RADII,
                 id="translated-schwarzschild"),
])
def test_background_area_element_once_per_chunk(monkeypatch, spec, radii):
    """The kernel columns and the scalar-curvature datum of a chunk share
    one background normal and area element: one bundle-less
    ``sphere_normal_area`` call per chunk (the field columns make their own
    call, with the metric's bundle)."""
    from asymflux import charges

    counts = {"chunks": 0, "background": 0}
    area, integrand = charges.sphere_normal_area, charges.sphere_integrand

    def counting_area(points, chart_kind, r, bundle=None):
        counts["background"] += bundle is None
        return area(points, chart_kind, r, bundle)

    def counting_integrand(*args, **kwargs):
        f = integrand(*args, **kwargs)

        def chunk(points):
            counts["chunks"] += 1
            return f(points)
        return chunk

    monkeypatch.setattr(charges, "sphere_normal_area", counting_area)
    monkeypatch.setattr(charges, "sphere_integrand", counting_integrand)
    charge_series(spec, radii, sphere_rule(3, 8), range(4))
    assert counts["chunks"] > 0
    assert counts["background"] == counts["chunks"]


def test_chunk_peak_below_twice_the_jet_block():
    """One 1024-node n=5 chunk of the flat mass integrand (the ``const_one``
    kernel and the dilation field, as ``charge_series`` builds it) on a
    dense 2-jet, Schwarzschild written as an expression, peaks below 1.8
    times the bytes of that jet (1.64 measured).  glibc trims the heap top
    above twice the largest block freed so far, the jet's, so a higher
    peak is handed back to the kernel and faulted in again on every chunk.
    The catalog kind's conformal jet holds no n^4 array: the same chunk
    peaks below half the dense jet's bytes (0.36 measured)."""
    factor = "(1 + 1/(2*(x1^2 + x2^2 + x3^2 + x4^2 + x5^2)^1.5))^(4/3)"
    dense = MetricSpec("expression", 5,
                       components={(i, i): factor for i in range(5)})
    conformal = MetricSpec("schwarzschild_conformal", 5, m=1.0)
    points = 10.0 * sphere_rule(5, 16).units[:1024]
    jet = jets(dense, points)[0]
    block = jet.g.nbytes + jet.dg.nbytes + jet.ddg.nbytes
    del jet
    for spec, bound in ((dense, 1.8), (conformal, 0.5)):
        f = sphere_integrand(spec, [0], [0], 10.0)
        tracemalloc.start()
        try:
            f(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * block, spec.kind


@pytest.mark.parametrize("n,count,bound_mib", [(4, 1458, 14.12),
                                                (5, 1024, 20.47)])
def test_kottler_chunk_peak_stays_below_full_width_products(n, count,
                                                            bound_mib):
    """One Kottler chunk of the full-basis sphere pass (all of n=4 at
    degree 16, the first 1024 n=5 nodes) peaks no higher than it did when
    the polar products were full-width hyper-dual products: tracemalloc
    read 14,810,947 and 21,470,025 bytes then (numpy 2.4), and 13.1 and
    19.4 MiB with one sparse step per factor."""
    spec = MetricSpec("kottler", n, m=1.0)
    rule = sphere_rule(n, 16)
    r = float(np.sinh(HYP_S[1]))
    points = np.concatenate([np.full((count, 1), r), rule.angles[:count]],
                            axis=-1)
    f = sphere_integrand(spec, range(n + 1), range(n + 1), r)
    tracemalloc.start()
    try:
        f(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2 ** 20


def test_basis_pass_matches_single_charges():
    """A charge computed alone equals the same charge inside the full basis,
    bit for bit, for both families and for the Pohozaev reports."""
    from asymflux.verify import pohozaev_check

    rule = sphere_rule(3, 8)
    factor = "(1 + 1/(2*((x1-1)^2 + (x2-0.5)^2 + x3^2)^(1/2)))^4"
    for spec, radii in (
            (MetricSpec("schwarzschild_conformal", 3, m=1.0,
                        center=(1.0, 0.5, 0.0)), FLAT_RADII),
            (MetricSpec("expression", 3,
                        components={(i, i): factor for i in range(3)}),
             FLAT_RADII),
            (MetricSpec("kottler", 3, m=1.0), np.sinh(HYP_S))):
        mass, classical, ricci, _ = charge_series(spec, radii, rule, range(4))
        for i in range(4):
            assert charge_series(spec, radii, rule, [i])[:3] \
                == (mass, [classical[i]], [ricci[i]])

    spec = MetricSpec("hyperbolic_polar", 3)
    reports = pohozaev_check(spec, range(4), 1.0, 2.0, rule, radial_degree=8)
    for i, rep in enumerate(reports):
        assert pohozaev_check(spec, [i], 1.0, 2.0, rule, radial_degree=8) == [rep]


# ------------------------------------------------------ one rule per radius

def _degrees(series):
    return [s.degree for s in series.samples]


@pytest.mark.parametrize("kind", ["schwarzschild_conformal", "kottler"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_centered_charges_drop_the_degree(kind, n):
    """On a centered Schwarzschild or Kottler metric the angular content of
    every flux is a constant, so every radius after the first takes a lower
    rule than ``--degree``.  Both versions of the mass stay within their
    bars of m."""
    m = 1.3
    spec = MetricSpec(kind, n, m=m)
    radii = FLAT_RADII if spec.is_flat_type else np.sinh(HYP_S)
    _, (cls,), (ric,), _ = charge_series(spec, radii, sphere_rule(n, 16), [0])
    for series in (cls, ric):
        degrees = _degrees(series)
        assert degrees[0] == 16
        assert max(degrees[1:]) < 16
        assert [s.nodes for s in series.samples] == [
            sphere_rule(n, d).node_count for d in degrees]
        assert abs(series.limit - m) <= series.limit_error


def test_dense_polar_jet_keeps_the_degree():
    """Kottler written as a polar expression metric, a dense jet whose
    modified Einstein tensor is a roundoff realization at the outer radii,
    keeps ``--degree`` on every radius, whichever indices are requested."""
    rule = sphere_rule(3, 16)
    for indices in (range(4), [2]):
        _, classical, ricci, _ = charge_series(
            _POLAR_EXPRESSION, np.sinh(HYP_S), rule, indices)
        for series in classical + ricci:
            assert _degrees(series) == [16] * 5


@pytest.mark.parametrize("n", [3, 4, 5])
def test_kottler_pick_matches_one_rule(n):
    """Kottler's charges on the picked rules against those on ``--degree``
    at every radius: each series' largest bar is within 1.05 times the
    one-rule bar, each ``V^(0)`` limit is within the other run's bar, every
    zero charge's bar (``V^(i>0)``, ``X^(i>0)``) is roundoff, and every
    limit covers the exact charge.  The classical n=3, m=2 mass misses by
    4.79e-11 against a bar of 4.76e-11 on both, so its coverage is left
    out."""
    from asymflux import charges

    radii = np.sinh(HYP_S)
    for m in (0.7, 1.0, 2.0):
        spec = MetricSpec("kottler", n, m=m)
        for degree in (14, 16, 24):
            rule = sphere_rule(n, degree)
            picked = charge_series(spec, radii, rule, range(n + 1))[1:3]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(charges, "_next_rule",
                              lambda rule, q, columns: rule)
                one = charge_series(spec, radii, rule, range(n + 1))[1:3]
            assert min(_degrees(picked[0][0])) < degree
            for got, want, ricci in zip(picked, one, (False, True)):
                assert max(s.limit_error for s in got) <= 1.05 * max(
                    s.limit_error for s in want)
                assert abs(got[0].limit - want[0].limit) <= min(
                    got[0].limit_error, want[0].limit_error)
                assert max(s.limit_error for s in got[1:]) <= 1e-14
                if ricci or (n, m) != (3, 2.0):
                    for series in (got[0], want[0]):
                        assert abs(series.limit - m) <= series.limit_error
                for series in got[1:] + want[1:]:
                    assert abs(series.limit) <= series.limit_error


def test_unfading_angular_content_keeps_its_degree():
    """A degree-6 angular factor at leading order does not fade with r: no
    radius drops below the degree it needs, and every limit matches a
    degree-30 run within its bar."""
    factor = "1 + 2*(1 + 0.5*(x1/r)^6)/r"
    spec = MetricSpec("expression", 3,
                      components={(i, i): factor for i in range(3)})
    picked = charge_series(spec, FLAT_RADII, sphere_rule(3, 16), range(4))
    fine = charge_series(spec, FLAT_RADII, sphere_rule(3, 30), range(4))
    for got, want in zip(picked[1] + picked[2], fine[1] + fine[2]):
        assert min(_degrees(got)) >= 6
        assert abs(got.limit - want.limit) <= got.limit_error


@pytest.mark.parametrize("degree", [10, 16, 18, 30])
def test_resolved_content_a_lower_rule_misses_blocks_it(degree):
    """A degree-10 azimuthal harmonic at leading order, which every rule
    here integrates and the ten azimuths of a degree-8 rule do not: no
    radius drops below degree 10, and the mass (1 at every radius: the
    harmonic integrates to 0) is within its bar.  Degree 30 resolves it;
    the 18 azimuths of degree 16 read it at degree 8, where the estimate is
    no longer roundoff; the 12 of degree 10 read it at degree 2, where the
    coefficients of every lower rule read a steep decay; and at the Nyquist
    degree of degree 18 it vanishes on every node."""
    harmonic = ("(x2^10 - 45*x2^8*x3^2 + 210*x2^6*x3^4 - 210*x2^4*x3^6"
                " + 45*x2^2*x3^8 - x3^10)")
    factor = f"1 + 2*(1 + 0.5*{harmonic}/r^10)/r"
    spec = MetricSpec("expression", 3,
                      components={(i, i): factor for i in range(3)})
    mass = charge_series(spec, FLAT_RADII, sphere_rule(3, degree), [0])[0]
    assert min(_degrees(mass)) >= 10
    assert abs(mass.limit - 1.0) <= mass.limit_error


def test_estimate_above_roundoff_keeps_the_rule():
    """A degree-9 azimuthal sine at leading order sits at the Nyquist
    degree of the 18 azimuths of degree 16, so the reported estimate is
    not roundoff and every radius keeps degree 16, although the
    coefficients of each lower rule from degree 8 up read roundoff."""
    harmonic = ("(9*x2^8*x3 - 84*x2^6*x3^3 + 126*x2^4*x3^5 - 36*x2^2*x3^7"
                " + x3^9)")
    factor = f"1 + 2*(1 + 0.5*{harmonic}/r^9)/r"
    spec = MetricSpec("expression", 3,
                      components={(i, i): factor for i in range(3)})
    mass = charge_series(spec, FLAT_RADII, sphere_rule(3, 16), [0])[0]
    assert _degrees(mass) == [16] * 5
    assert abs(mass.limit - 1.0) <= mass.limit_error


@pytest.mark.parametrize("spec,radii", [
    pytest.param(MetricSpec("schwarzschild_conformal", 3, m=1.0,
                            center=(1.0, 0.5, 0.0)), FLAT_RADII,
                 id="translated-schwarzschild"),
    pytest.param(MetricSpec("schwarzschild_conformal", 4, m=1.3,
                            center=(0.7, 0.5, 0.0, 0.0)), FLAT_RADII,
                 id="translated-schwarzschild-n4"),
    pytest.param(MetricSpec("kottler", 3, m=1.0), np.sinh(HYP_S),
                 id="kottler"),
])
@pytest.mark.parametrize("degree", [9, 12, 16])
def test_degrees_never_increase(spec, radii, degree):
    """The rule degrees of a pass never increase along the schedule and
    never exceed the first radius's."""
    degrees = [s.degree for s in charge_series(
        spec, radii, sphere_rule(spec.n, degree), [0])[1][0].samples]
    assert degrees[0] == degree
    assert all(a >= b for a, b in zip(degrees, degrees[1:]))


@pytest.mark.parametrize("spec", [
    pytest.param(MetricSpec("schwarzschild_conformal", 3, m=1.0,
                            center=(1.0, 0.5, 0.0)),
                 id="translated-schwarzschild"),
    pytest.param(MetricSpec("expression", 3, components={
        (i, i): "(1 + 1/(2*((x1-1)^2 + (x2-0.5)^2 + x3^2)^(1/2)))^4"
        for i in range(3)}), id="expression"),
    *(pytest.param(MetricSpec(kind, n, **({"m": 1.0} if kind == "kottler"
                                          else {})), id=f"{kind}-n{n}")
      for kind in ("kottler", "hyperbolic_polar", "hyperbolic_area")
      for n in (3, 4, 5)),
])
def test_fields_alone_pick_the_full_basis_degrees(monkeypatch, spec):
    """The pick reads the ``V^(0)`` flux (``const_one`` on a flat-type
    metric) whichever indices are requested: a charge computed alone (after
    which ``V^(0)`` leads the pass unreported) gets the degrees, and the
    series, it gets inside the full basis, also where those degrees
    drop."""
    from asymflux import charges

    pick, read = charges._next_rule, []

    def reading(rule, q, columns):
        read.append(q.value[columns])
        return pick(rule, q, columns)

    monkeypatch.setattr(charges, "_next_rule", reading)
    n = spec.n
    radii = FLAT_RADII if spec.is_flat_type else \
        HYP_S if spec.kind == "hyperbolic_polar" else np.sinh(HYP_S)
    rule = sphere_rule(n, 16)
    _, classical, ricci, _ = charge_series(spec, radii, rule, range(n + 1))
    degrees, lead = _degrees(classical[0]), list(read)
    assert min(degrees) < 16
    for i in range(n + 1):
        read.clear()
        _, (cls,), (ric,), _ = charge_series(spec, radii, rule, [i])
        assert (cls, ric) == (classical[i], ricci[i])
        assert _degrees(cls) == _degrees(ric) == degrees
        assert read == lead
