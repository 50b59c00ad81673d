"""Radial-series extrapolation and decay-rate estimation.

The r->infinity limit of a flux series is the iterated Aitken acceleration
(at most two passes) of its samples.  Its error estimate is the largest of
the Aitken tail, the change when the smallest radius (or, times 1.1, the
largest) is dropped, and the quadrature error.  A single-decay fit
``v_inf + c B(r)`` over the last four samples, with ``B = r^-sigma`` in flat
charts or ``e^{-sigma r}`` in hyperbolic charts, supplies only the model
metadata (``sigma``, ``coeff``, ``residual``): linear least squares in closed
form on a 41-point ``log sigma`` grid, narrowed around its best point to 1e-13.
A decay exponent (:func:`fit_decay_exponent`) is a least-squares fit of
the logarithm of a per-radius sup series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ExtrapolationError

__all__ = ["FluxSample", "RadialSeries", "extrapolate", "fit_decay_exponent"]

_SIGMA_RANGE = {"power": (0.05, 12.0), "exp": (0.05, 16.0)}


@dataclass(frozen=True)
class FluxSample:
    """One sphere integral: radius, raw flux, normalized value, quadrature
    error, and the degree and node count of the rule it was integrated on."""

    r: float
    raw_flux: float
    normalized: float
    quad_error: float
    degree: int
    nodes: int


@dataclass
class RadialSeries:
    """Sampled flux values plus the extrapolated limit and error estimate."""

    samples: list[FluxSample]
    limit: float
    limit_error: float
    model: dict = field(default_factory=dict)

    @property
    def values(self):
        return np.array([s.normalized for s in self.samples])


def _basis(r, sigma, mode):
    return r ** (-sigma) if mode == "power" else np.exp(-sigma * r)


def _fit(r, v, mode):
    """``(c, sigma, rms residual)`` of the best fit ``a + c B(r; sigma)``."""
    lo, hi = np.log(_SIGMA_RANGE[mode])
    vc = v - v.mean()
    while True:
        grid = np.linspace(lo, hi, 41)
        B = _basis(r, np.exp(grid)[:, None], mode)
        Bc = B - B.mean(axis=1, keepdims=True)
        den = np.einsum("gi,gi->g", Bc, Bc)
        # a basis that underflowed to a constant fits nothing: c = 0
        c = np.divide(Bc @ vc, den, out=np.zeros_like(den), where=den > 0)
        rms = np.sqrt(np.mean((vc - c[:, None] * Bc) ** 2, axis=1))
        k = int(np.argmin(rms))
        if hi - lo < 1e-13:
            return float(c[k]), float(np.exp(grid[k])), float(rms[k])
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]


def _aitken_once(col):
    d = col[2:] - 2.0 * col[1:-1] + col[:-2]
    scale = np.max(np.abs(col))
    if np.any(np.abs(d) <= 1e4 * np.finfo(float).eps * scale):
        return None  # differences at the noise floor: stop accelerating
    return col[2:] - (col[2:] - col[1:-1]) ** 2 / d


def _aitken_limit(v):
    """Iterated Aitken acceleration (up to two passes) with a tail estimate.

    On a schedule where each decay term is geometric in the sample index —
    geometric radii in power mode, arithmetic radii in exp mode — each pass
    eliminates the dominant remaining term exactly.
    """
    col, prev, depth = v, v, 0
    while col.size >= 3 and depth < 2:
        nxt = _aitken_once(col)
        if nxt is None:
            break
        prev, col, depth = col, nxt, depth + 1
    if col.size >= 2:
        tail = abs(col[-1] - col[-2])
    else:
        tail = abs(col[-1] - prev[-1])
    return float(col[-1]), float(tail), depth


def extrapolate(radii, values, quad_errors=None, mode: str = "power"):
    """Extrapolated limit, error estimate, and fitted model for a flux series."""
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    if r.size < 3:
        raise ExtrapolationError(f"need at least 3 samples, got {r.size}")
    if np.any(np.diff(r) <= 0.0):
        raise ExtrapolationError("radii must be strictly increasing")
    if mode not in _SIGMA_RANGE:
        raise ExtrapolationError(f"unknown decay mode {mode!r}")

    spread = float(np.max(np.abs(v - v[-1])))
    scale = max(float(np.max(np.abs(v))), 1.0)
    if spread <= 1e-14 * scale:
        # constant series: the limit is the common value
        limit = float(v[-1])
        qerr = float(np.max(quad_errors)) if quad_errors is not None else 0.0
        return limit, qerr, {"mode": mode, "sigma": None, "coeff": 0.0,
                             "residual": 0.0}

    # the single-decay fit supplies the model metadata; the fit window skips
    # early radii, which only contaminate the exponent
    window = min(r.size, 4)
    c, sigma, rms = _fit(r[-window:], v[-window:], mode)
    qerr = float(np.max(quad_errors)) if quad_errors is not None else 0.0

    # limit via iterated Aitken acceleration; sensitivities mirror reruns on
    # the schedule minus its smallest / largest radius
    limit, tail, depth = _aitken_limit(v)
    drop_change = abs(limit - _aitken_limit(v[1:])[0]) if r.size >= 4 else 0.0
    trunc_change = 1.1 * abs(limit - _aitken_limit(v[:-1])[0]) \
        if r.size >= 4 else 0.0
    error = max(tail, drop_change, trunc_change, qerr)
    model = {"mode": mode, "sigma": sigma, "coeff": c, "residual": rms,
             "window": window, "accel": "aitken", "depth": depth}
    return float(limit), float(error), model


def fit_decay_exponent(radii, sups, mode: str = "power"):
    """Regress sup-norm decay: returns tau_hat (inf when identically zero)."""
    r = np.asarray(radii, dtype=float)
    s = np.asarray(sups, dtype=float)
    if np.all(s <= 0.0):
        return float("inf")
    mask = s > 0.0
    r, s = r[mask], s[mask]
    if r.size < 2:
        return float("nan")
    x = np.log(r) if mode == "power" else r
    A = np.stack([np.ones_like(x), x], axis=-1)
    coef, *_ = np.linalg.lstsq(A, np.log(s), rcond=None)
    return float(-coef[1])
