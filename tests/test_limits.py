"""Radial extrapolation and decay-rate regression on synthetic and catalog data."""

import warnings

import numpy as np
import pytest

from asymflux.catalog import MetricSpec
from asymflux.charges import charge_series, hypothesis_diagnostics
from asymflux.errors import ExtrapolationError
from asymflux.limits import extrapolate, fit_decay_exponent
from asymflux.quadrature import sphere_rule


def test_pure_power_series():
    r = np.array([8.0, 16.0, 32.0, 64.0, 128.0])
    v = 1.0 + 3.0 / r
    limit, err, model = extrapolate(r, v, mode="power")
    assert limit == pytest.approx(1.0, abs=1e-10)
    assert model["sigma"] == pytest.approx(1.0, rel=1e-6)


def test_pure_exponential_series():
    r = np.array([3.0, 4.0, 5.0, 6.0])
    v = 2.0 + 3.0 * np.exp(-2.0 * r)
    limit, err, model = extrapolate(r, v, mode="exp")
    assert limit == pytest.approx(2.0, abs=1e-9)
    assert model["sigma"] == pytest.approx(2.0, rel=1e-4)


@pytest.mark.parametrize("r0", [1e3, 3e4], ids=["part-of-grid", "whole-grid"])
def test_exp_fit_with_underflowing_basis(r0):
    """Far out in exp mode ``e^{-sigma r}`` underflows to 0 on part of the
    sigma grid (r0 = 1e3) or on all of it (3e4): the fit stays finite and
    warning-free."""
    r = r0 + 0.75 * np.arange(5)
    v = 1.0 + 1e-12 * np.array([0.0, 1.0, -1.0, 2.0, -2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        limit, err, model = extrapolate(r, v, mode="exp")
    assert np.isfinite([limit, err, model["sigma"], model["coeff"],
                        model["residual"]]).all()


def test_constant_series():
    r = np.array([1.0, 2.0, 3.0])
    limit, err, model = extrapolate(r, np.full(3, 5.0), mode="power")
    assert limit == 5.0
    assert err == 0.0


def test_mixed_decay_error_bound():
    """Recovered limit within 10x the first neglected term at the top radius."""
    r = 8.0 * 2.0 ** np.arange(5)
    v = 1.0 + 1.0 / r + 0.5 / r**2
    limit, err, _ = extrapolate(r, v, mode="power")
    neglected = 0.5 / r[-1] ** 2
    assert abs(limit - 1.0) <= 10.0 * neglected


def test_drop_largest_within_reported_error():
    """Rerunning without the largest radius moves the limit less than the
    reported error, on representative catalog-like series."""
    r = 8.0 * 2.0 ** np.arange(5)
    for v in (1.0 + 2.0 / r + 1.0 / r**1.7,
              0.5 - 1.0 / r**2 + 0.3 / r**3):
        full, err, _ = extrapolate(r, v, mode="power")
        trunc, _, _ = extrapolate(r[:-1], v[:-1], mode="power")
        assert abs(full - trunc) <= err * (1 + 1e-9)


def test_quad_errors_floor_the_estimate():
    r = np.array([8.0, 16.0, 32.0, 64.0])
    v = 1.0 + 1.0 / r
    _, err, _ = extrapolate(r, v, quad_errors=[1e-3] * 4, mode="power")
    assert err >= 1e-3


def test_input_validation():
    with pytest.raises(ExtrapolationError):
        extrapolate([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ExtrapolationError):
        extrapolate([1.0, 3.0, 2.0], [0.0, 0.0, 0.0])
    with pytest.raises(ExtrapolationError):
        extrapolate([1.0, 2.0, 3.0], [0.0, 1.0, 2.0], mode="nope")


def test_fit_decay_exponent():
    r = np.array([10.0, 20.0, 40.0, 80.0])
    assert fit_decay_exponent(r, 5.0 / r**1.5, "power") == pytest.approx(1.5)
    s = np.array([3.0, 4.0, 5.0])
    assert fit_decay_exponent(s, np.exp(-2 * s), "exp") == pytest.approx(2.0)
    assert fit_decay_exponent(r, np.zeros(4), "power") == np.inf


# ----------------------------------------------------------- catalog decay

def _decay_diagnostics(spec, radii, degree=10):
    """The decay diagnostics from the ``decay`` sups of a mass pass."""
    sups = charge_series(spec, radii, sphere_rule(spec.n, degree),
                         [0])[3]["decay"]
    return hypothesis_diagnostics(spec, radii, {"decay": sups})


def test_decay_rate_schwarzschild():
    radii = 8.0 * 2.0 ** np.arange(5)
    rep = _decay_diagnostics(MetricSpec("schwarzschild_conformal", 3, m=1.0),
                             radii)
    assert rep["tau_hat"] == pytest.approx(1.0, abs=0.1)
    assert rep["tau_threshold"] == 0.5
    assert rep["tau_ok"]


def test_decay_rate_kottler_geodesic_scale():
    s = 3.0 + 0.75 * np.arange(5)
    rep = _decay_diagnostics(MetricSpec("kottler", 3, m=1.0), np.sinh(s))
    assert rep["tau_hat"] == pytest.approx(3.0, abs=0.05)
    assert rep["tau_threshold"] == 1.5


def test_decay_rate_background_is_infinite():
    rep = _decay_diagnostics(MetricSpec("euclidean", 3), [8.0, 16.0, 32.0])
    assert rep["tau_hat"] == np.inf
    assert rep["tau_ok"]


def test_decay_sups_evaluate_the_background_once_per_chunk(monkeypatch):
    """On an expression metric the background jet of the charge pass serves
    the charges, the deviation and the frame rescaling of the decay sups:
    one jets call per chunk, here one chunk per radius, which builds the
    background itself, with no nested jets call."""
    from asymflux import catalog, charges

    calls, depth = [], [0]
    original = catalog.jets

    def counting(spec, p):
        calls.append((spec.kind, depth[0]))
        depth[0] += 1
        try:
            return original(spec, p)
        finally:
            depth[0] -= 1

    for module in (catalog, charges):
        monkeypatch.setattr(module, "jets", counting)
    spec = MetricSpec("expression", 3, components={
        (0, 0): "1 + 1/r", (1, 1): "1", (2, 2): "1"})
    charge_series(spec, 8.0 * 2.0 ** np.arange(5), sphere_rule(3, 10), [0])
    assert calls == [("expression", 0)] * 5
