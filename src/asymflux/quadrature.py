"""Deterministic quadrature over coordinate spheres and annuli.

The sphere rule is a product rule in our angular coordinates: Gauss-Jacobi
nodes in the cosine of each polar angle (weight ``(1-c^2)^{(m-1)/2}`` for the
angle carrying the measure ``sin^m``) tensored with a uniform midpoint rule
in the azimuth.  The combination integrates every spherical polynomial up to
the rule degree exactly.  Each Gauss-Jacobi rule is the Golub-Welsch
eigensolution of its Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969).

The error estimate comes from the node values of the integral itself, with
no second rule: a null-rule estimate on the rule's own nodes (Berntsen &
Espelid, ACM TOMS 17, 1991) read as a coefficient tail (Trefethen, SIAM
Review 50, 2008).  Each factor of the product resolves the coefficients of
its node values up to about half the degree it integrates: the DFT of each
azimuth ring, and the Gauss-Jacobi coefficients along each polar angle once
the later angles are integrated out, from the orthonormal polynomials at
the nodes that the Golub-Welsch eigenvectors give.  Integrating first keeps
the odd powers of the later sines, which are not polynomials in the cosine,
out of the polar coefficients.  The decay of the top coefficients is
carried to the first degree the factor does not integrate; where they do
not decay (roundoff) the top coefficients count as they are, with no
safety factor.  The factors' errors add, each integrated over the earlier
angles, plus a floor of a few ulps of ``sum |w f|`` for the roundoff of the
sum.  An annulus, Gauss-Lobatto in r with the boundary spheres for end
shells (Golub, SIAM Review 15, 1973), adds the same tail over the Legendre
coefficients of its shell integrals to the shell errors integrated in r.
Its radial rule combines the shell integrals, not their node values, so
each interior shell takes the rule picked from the shell before it; the end
shells keep the rule they are given.

The same coefficients give, for every column, an estimate for each lower
rule: along each angle, the coefficients truncated to the degrees the lower
rule resolves and carried by the same tail to the first degree it does not
integrate or, where larger, a coefficient the rule resolves at a degree the
lower rule does not integrate.  Every sequence of spheres, the radii of a
charge pass and the shells of an annulus, picks the next sphere's rule from
these with one pick (:func:`_next_rule`), with no node evaluated twice.

Each sphere of a charge pass and each shell of an annulus is one call of
:func:`integrate_sphere`, the one sphere integrator.  Integrands map an
``(N, n)`` array of chart points to ``(N,)`` values or to ``(N, K)``
columns, one per integrand of a family evaluated together, and carry their
own measure: the rule weights are those of the unit round sphere (times
``dr`` on annuli).  A sphere integrand may return ``(columns,
node_data)``: the node data come back unreduced, for the caller to reduce,
and cost no coefficient tail.  Reductions use a fixed-order pairwise summation
tree along the node axis (along each factor's axis for the error estimate)
and otherwise elementwise operations, no BLAS, so each column is summed and
estimated exactly as it would be alone.  Every per-node pass evaluates its
nodes in chunks and rejects non-finite values and node data.  The chunk
size depends on the dimension n of the points alone, so results are
bit-for-bit identical regardless of the worker-thread count (the
environment variable ``ASYMFLUX_THREADS``, the only thread setting) and
memory does not grow with the rule.

A chunk holds the largest power of two of nodes whose metric second
derivatives, n^4 doubles per node, fit in 2^20 entries (8 MiB): 8192 nodes
at n=3, 4096 at n=4 and 1024 at n=5.  The 2-jet and the curvature arrays
built from it scale with n^4, so this bounds the per-chunk working set at
every n.  One node count for all n would either bloat the n=5 passes or
split the n=4 spheres (1458 nodes at degree 16); splitting them was seen
to move an n=4 flux by an ulp.

Within a chunk, each dense 2-jet is one allocation (``catalog``) and the
chunk's peak stays below twice that block (``geometry.curvature``).  glibc
raises its mmap threshold to the largest block freed so far and trims the
heap top above twice that size; a chunk that peaks higher returns its
memory to the kernel and the next chunk faults it in again (at n=5, degree
16, about 2400 minor faults per chunk, a third of the pass).  The rule
covers the dense jets only.  A conformal jet (the flat catalog kinds) has
no n^4 array, so its chunks peak lower but free smaller blocks too: the
trim threshold sits below the peak of a translated n=5 ``center`` chunk,
whose heap top is faulted in again chunk by chunk (about 48k minor faults
at degree 24), which costs less than the n^4 arrays did.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .catalog import sphere_embedding_hd
from .errors import ConfigError, QuadratureError
from .geometry import ChartKind
from .hyperdual import HyperDual

__all__ = ["SphereRule", "QuadratureResult", "sphere_rule", "omega",
           "integrate_sphere", "integrate_annulus", "pairwise_sum",
           "thread_count"]

_CHUNK_ENTRIES = 2 ** 20    # metric second-derivative entries per chunk
_EMBEDDED_STEP = 4          # read only by the benchmark worker
_FLOOR_ULPS = 8             # roundoff floor of an error estimate, ulps of sum |w f|
_PICK_FLOOR = 8     # the lowest degree whose every factor's tail reads a
                    # decay: four resolved degrees above the mean
_PICK_STEP = 2      # one rule step: one more node on every polar angle
_PICK_ROUNDOFF = 4  # estimates up to this many roundoff floors are roundoff
_PICK_LOWER = _PICK_FLOOR - _PICK_STEP  # the lowest degree the pick reads


def omega(n: int) -> float:
    """Volume of the unit round sphere S^{n-1}."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def thread_count() -> int:
    """Worker threads from ``ASYMFLUX_THREADS``: 1 when unset or empty, a
    ConfigError when it is not a positive integer."""
    env = os.environ.get("ASYMFLUX_THREADS", "").strip()
    if not env:
        return 1
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError(
            f"ASYMFLUX_THREADS must be a positive integer, got {env!r}")
    return count


@dataclass(frozen=True)
class RuleAxis:
    """One factor of a product rule: its nodes' weights, and the rows that
    map node values to the coefficients it resolves, in the units of the
    integral and ascending in degree (``modes[k]`` is one row, or a cosine
    and a sine row whose results combine in quadrature).  The factor
    integrates every degree below ``missing`` exactly."""

    weights: np.ndarray
    modes: np.ndarray     # (top degree + 1, rows per degree, nodes)
    missing: int


@dataclass(frozen=True)
class SphereRule:
    """Product quadrature rule on the unit sphere S^{n-1}."""

    n: int
    degree: int
    angles: np.ndarray    # (N, n-1)
    units: np.ndarray     # (N, n) embedded unit vectors
    weights: np.ndarray   # (N,), sum to omega(n)
    axes: tuple = ()      # RuleAxis per angle, in grid order (azimuth last)

    @property
    def node_count(self) -> int:
        return self.weights.shape[0]

    @property
    def antipode(self) -> np.ndarray:
        """Index of each node's antipode: every polar index mirrored (the
        Gauss-Jacobi nodes are mirrored exactly about the equator) and the
        azimuth index shifted by half a turn.  The map is its own inverse."""
        index = np.arange(self.node_count).reshape(
            tuple(a.weights.size for a in self.axes))
        index = index[(slice(None, None, -1),) * (index.ndim - 1)]
        return np.roll(index, index.shape[-1] // 2, axis=-1).ravel()


@dataclass(frozen=True)
class QuadratureResult:
    """Integral and its error estimate, from the rule's own nodes: floats,
    or ``(K,)`` arrays for ``(N, K)`` integrands.  ``nodes_used`` counts
    the nodes evaluated; ``node_data`` is None or the integrand's; an
    annulus's ``shells`` are its per-shell results, innermost first; a
    sphere's ``degree`` is its rule's, its ``floor`` the roundoff floor in
    its error estimate, and its ``lower_errors`` map lower rule degrees to
    error estimates shaped as ``error_estimate`` (:func:`integrate_sphere`)."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    nodes_used: int
    node_data: np.ndarray | None = None
    shells: tuple = ()
    floor: float | np.ndarray | None = None
    lower_errors: dict = field(default_factory=dict)
    degree: int | None = None


def _gauss_jacobi(k: int, a: float):
    """``k``-point Gauss rule for the weight ``(1-c^2)^a`` on [-1, 1]: nodes
    in ascending order, mirrored exactly about 0, their weights, and the
    discrete transform whose row j maps node values to ``sqrt(mu0)`` times
    their coefficient on the j-th orthonormal Jacobi polynomial (``mu0`` the
    integral of the weight; row 0 is the weights before mirroring)."""
    j = np.arange(1.0, k)
    off = np.sqrt(j * (j + 2 * a) / ((2 * j + 2 * a) ** 2 - 1))
    c, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mu0 = math.sqrt(math.pi) * math.gamma(a + 1) / math.gamma(a + 1.5)
    w = mu0 * v[0] ** 2
    # the weight is even: mirroring cancels the eigensolver's odd roundoff;
    # column i of v holds the orthonormal polynomials at c_i over p_0
    return (c - c[::-1]) / 2, (w + w[::-1]) / 2, mu0 * v[0] * v


def _azimuth_axis(phi: np.ndarray) -> RuleAxis:
    """The midpoint rule on an even number of azimuths ``phi``: its modes
    are the real amplitudes of the DFT coefficients, times 2 pi."""
    count = phi.size
    k_phi = np.arange(count // 2 + 1)[:, None] * phi
    modes = np.empty((k_phi.shape[0], 2, count))
    modes[:, 0], modes[:, 1] = np.cos(k_phi), np.sin(k_phi)
    modes *= 4.0 * math.pi / count
    modes[0] /= 2.0     # the mean and the Nyquist mode have one coefficient
    modes[-1] /= 2.0
    return RuleAxis(np.full(count, 2.0 * math.pi / count), modes, count)


def sphere_rule(n: int, degree: int) -> SphereRule:
    """Product rule exact for spherical polynomials up to ``degree``."""
    if n not in (3, 4, 5):
        raise QuadratureError(f"sphere rules support n in {{3,4,5}}, got {n}")
    if not 1 <= degree <= 60:
        raise QuadratureError(f"rule degree must be in 1..60, got {degree}")
    npolar = max(1, (degree + 2) // 2)          # exact through degree 2*npolar-1
    nazim = 2 * npolar

    grids, rule_axes = [], []
    for j in range(n - 2):
        # angle theta_{j+1} carries measure sin^{n-2-j}; Jacobi weight exponent
        alpha = (n - 3 - j) / 2.0
        c, w, t = _gauss_jacobi(npolar, alpha)
        grids.append(np.arccos(c)[::-1])
        rule_axes.append(RuleAxis(w[::-1], t[:, None, ::-1], 2 * npolar))

    grids.append((np.arange(nazim) + 0.5) * (2.0 * math.pi / nazim))
    rule_axes.append(_azimuth_axis(grids[-1]))
    wgrids = [a.weights for a in rule_axes]
    mesh = np.meshgrid(*grids, indexing="ij")
    wmesh = np.meshgrid(*wgrids, indexing="ij")
    angles = np.stack([m.ravel() for m in mesh], axis=-1)
    weights = np.ones(angles.shape[0])
    for wm in wmesh:
        weights = weights * wm.ravel()
    # the embedding, without derivatives, on the axes of the product grid
    axes = [HyperDual.constant(a, 0, a.shape)
            for a in np.meshgrid(*grids, indexing="ij", sparse=True)]
    units = np.empty(mesh[0].shape + (n,))
    one = HyperDual.constant(1.0, 0)
    for j, u in enumerate(sphere_embedding_hd(axes, one)):
        units[..., j] = u.val
    return SphereRule(n, degree, angles, units.reshape(-1, n), weights,
                      tuple(rule_axes))


def pairwise_sum(values: np.ndarray):
    """Fixed-order pairwise reduction along the first axis; deterministic for
    a given input order.  Returns a float for 1-d input, else an array that
    shares no memory with the input, which is read but never copied whole."""
    x = np.asarray(values, dtype=float)
    while x.shape[0] > 1:
        m = x.shape[0] // 2
        head = x[: 2 * m : 2] + x[1 : 2 * m : 2]
        x = np.concatenate([head, x[2 * m:]]) if x.shape[0] % 2 else head
    if x.ndim > 1:
        # a copy: a one-row input would otherwise come back as its view
        return x[0].copy() if x.shape[0] else np.zeros(x.shape[1:])
    return float(x[0]) if x.size else 0.0


def _evaluate(f, points):
    """Chunked evaluation, threaded over :func:`thread_count` workers, read
    once per pass; chunking is thread-invariant.  Returns the values and the
    node data of ``f``, or None."""
    workers = thread_count()
    total = points.shape[0]
    per_node = points.shape[-1] ** 4
    size = 1 << (max(_CHUNK_ENTRIES // per_node, 1).bit_length() - 1)
    starts = range(0, total, size)

    def parts(start):
        out = f(points[start:start + size])
        return [np.asarray(part, dtype=float) for part in
                (out if isinstance(out, tuple) else (out,))]

    outs = []
    lock = threading.Lock()

    def store(start):
        # each chunk's parts go into arrays shaped by the first chunk done
        # and die here: one copy of the values and node data, not two
        chunk = parts(start)
        with lock:
            if not outs:
                outs.extend(np.empty((total,) + part.shape[1:])
                            for part in chunk)
        for out, part in zip(outs, chunk):
            out[start:start + size] = part

    if len(starts) == 1:
        outs = parts(0)
    elif workers == 1:
        for start in starts:
            store(start)
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for fut in [pool.submit(store, start) for start in starts]:
                fut.result()
    for what, out in zip(("values", "node data"), outs):
        bad = ~np.isfinite(out).reshape(total, -1).all(axis=1)
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise QuadratureError(
                f"{what} not finite at node {idx} (coords {points[idx]})")
    return outs[0], (outs[1] if len(outs) > 1 else None)


def _sphere_points(r, rule, chart_kind):
    if ChartKind(chart_kind) == ChartKind.CARTESIAN:
        return r * rule.units
    return np.concatenate(
        [np.full(rule.angles.shape[:-1] + (1,), float(r)), rule.angles], axis=-1)


def _tail(amps, top: int, missing: int):
    """Size of the coefficient of degree ``missing`` from the magnitudes
    ``amps`` of the highest resolved degrees, ascending to ``top``: the
    envelope of the top two degrees, carried to ``missing`` at the rate per
    degree at which it fell from the two below them.  With fewer than four
    degrees above the mean, or where the envelope does not fall (roundoff),
    it is the top envelope itself."""
    e1 = np.maximum(amps[-1], amps[-2]) if len(amps) > 1 else amps[-1]
    if top < 4:
        return e1
    e2 = np.maximum(amps[-3], amps[-4])
    rate = np.divide(e1, e2, out=np.ones_like(e1), where=e1 < e2)
    return e1 * rate ** ((missing - top) / 2)


def _integrate_axis(x, e, axis: RuleAxis, steps=(0,)):
    """Integrate the node values ``x`` over their last axis before the
    columns, the factor ``axis`` of the rule.  Returns that integral and,
    for each of ``steps``, the error of the rule that many steps lower
    (``0``: this one): the tail of the coefficients along ``axis`` that
    rule resolves or, where larger, a coefficient resolved here at a degree
    it does not integrate, plus the integral of its errors ``e`` of the
    later factors (None where there are none)."""
    x = np.moveaxis(x, -2, 0)
    along = (-1,) + (1,) * (x.ndim - 1)
    top = axis.modes.shape[0] - 1
    low = max(top - max(steps) - 3, 0)
    amps = [np.sqrt(sum(pairwise_sum(row.reshape(along) * x) ** 2
                        for row in rows)) for rows in axis.modes[low:]]
    w = axis.weights.reshape(along)
    errors = []
    for i, step in enumerate(steps):
        last, missing = top - step, axis.missing - 2 * step
        error = _tail(amps[max(last - 3, 0) - low:last + 1 - low], last,
                      missing)
        for amp in amps[missing - low:]:
            error = np.maximum(error, amp)
        if e is not None:
            error = error + pairwise_sum(w * np.moveaxis(e[i], -2, 0))
        errors.append(error)
    return pairwise_sum(w * x), errors


def integrate_sphere(f, r: float, rule: SphereRule,
                     chart_kind: ChartKind = ChartKind.CARTESIAN,
                     lower: int | None = None) -> QuadratureResult:
    """Integrate ``f`` over the coordinate sphere S_r.

    ``f`` maps an ``(N, n)`` array of chart points to ``(N,)`` values or
    ``(N, K)`` columns and must be pure; it includes the area element of
    S_r relative to the round-sphere measure carried by the rule weights.
    ``f`` is evaluated once on each node of ``rule`` and on no other point.
    It may return ``(columns, node_data)``; the node data are not integrated.
    The error estimate reads the decay of the discrete coefficients of
    those values, per column: the DFT of each azimuth ring and the
    Gauss-Jacobi coefficients along each polar angle, once the later angles
    are integrated out, each carried at its decay rate to the first degree
    the rule does not integrate (:func:`_tail`), plus the roundoff floor
    that the result's ``floor`` holds.  With ``lower``, a degree of at
    least 2, the result's ``lower_errors`` maps each lower rule's degree
    down to that one to an estimate of every column under it, shaped as
    ``error_estimate``, from the same coefficients truncated to those it
    resolves (:func:`_integrate_axis`).
    """
    values, node_data = _evaluate(f, _sphere_points(r, rule, chart_kind))
    weighted = (values.T * rule.weights).T
    value = pairwise_sum(weighted)
    cols = values.reshape(values.shape[0], -1)
    x = cols.reshape(tuple(a.weights.size for a in rule.axes) + (-1,))
    # step i: the rule of degree 2 (polar - i) - 2, polar - i polar nodes
    polar = rule.axes[0].weights.size
    steps = range(1 if lower is None else max(polar - lower // 2, 1))
    errors = None
    for axis in reversed(rule.axes):
        x, errors = _integrate_axis(x, errors, axis, steps)
    # the weights are positive, so |f w| is |f| w bit for bit
    floor = _FLOOR_ULPS * np.finfo(float).eps * pairwise_sum(
        np.abs(weighted, out=weighted).reshape(cols.shape))
    errors = [e + floor for e in errors]
    if values.ndim == 1:
        errors, floor = [float(e[0]) for e in errors], float(floor[0])
    lower_errors = {2 * (polar - step) - 2: e
                    for step, e in zip(steps[1:], errors[1:])}
    return QuadratureResult(value, errors[0], rule.node_count, node_data,
                            floor=floor, lower_errors=lower_errors,
                            degree=rule.degree)


def _next_rule(rule: SphereRule, q: QuadratureResult,
               columns=slice(None)) -> SphereRule:
    """The rule of the sphere after the one ``q`` integrated on ``rule``,
    read from ``columns`` of ``q`` (all of them by default).  Unless the
    estimate ``q`` reports for every one of them is roundoff, at most
    ``_PICK_ROUNDOFF`` times its column's floor, ``rule`` itself; else one
    rule step (``_PICK_STEP``, for the degree-1 kernels and fields) above
    the lowest degree at which every column reads roundoff, and so at every
    degree above it, from ``q``'s nodes (``q.lower_errors``, asked down to
    ``_PICK_LOWER``), where ``rule``'s coefficients see the azimuthal
    harmonic that this lower rule misses and ``rule`` integrates.  It never
    returns a rule above ``rule``."""
    def read(estimate):
        return np.atleast_1d(estimate)[columns]

    roundoff = _PICK_ROUNDOFF * read(q.floor)
    degree = rule.degree
    if np.all(read(q.error_estimate) <= roundoff):
        for lower in sorted(q.lower_errors, reverse=True):
            if np.any(read(q.lower_errors[lower]) > roundoff):
                break
            degree = lower
    degree += _PICK_STEP
    # the new rule's ``degree + 2`` azimuths first miss the harmonic of
    # that degree: ``rule``'s ``az`` azimuths read it below their Nyquist
    # degree, at it only as a sine, and above it at ``az - missed``, which
    # the estimates above saw down to degree ``degree / 2 - 1``
    az, missed = rule.axes[-1].weights.size, degree + 2
    if degree >= rule.degree - rule.degree % 2 or 2 * missed == az or (
            2 * missed > az and 2 * (az - missed) < degree - 2):
        return rule
    return sphere_rule(rule.n, degree)


def _radial_axis(r0, r1, radial_degree):
    """Gauss-Lobatto in r: ``k`` shells, r0 and r1 as given first and last,
    exact through degree ``2k - 3``; the interior nodes are the Gauss nodes
    of the weight ``1 - c^2``, the modes ``sqrt(2)`` times the orthonormal
    Legendre polynomials through degree ``k - 2``, times the weights."""
    k = (int(radial_degree) + 2) // 2 + 1
    c, w = _gauss_jacobi(k - 2, 1.0)[:2] if k > 2 else np.zeros((2, 0))
    w = np.pad(w / (1.0 - c * c), 1, constant_values=2.0 / (k * (k - 1)))
    mid, half = 0.5 * (r0 + r1), 0.5 * (r1 - r0)
    radii = [r0, *(mid + half * c).tolist(), r1]
    c = np.pad(c, 1, constant_values=(-1.0, 1.0))
    rows = np.polynomial.legendre.legvander(c, k - 2).T * w
    modes = half * np.sqrt(2.0 * np.arange(k - 1) + 1.0)[:, None] * rows
    return radii, RuleAxis(half * w, modes[:, None, :], 2 * k - 2)


def integrate_annulus(shell, r0: float, r1: float, rule: SphereRule,
                      radial_degree: int = 16,
                      chart_kind: ChartKind = ChartKind.CARTESIAN
                      ) -> QuadratureResult:
    """Integrate over the annulus A(r0, r1) the integrands ``shell(r)``.

    Gauss-Lobatto in the radial coordinate tensored with sphere rules.
    ``shell(r)`` is an integrand over S_r as in :func:`integrate_sphere`,
    including the volume element relative to ``dr x (round sphere)``.  The
    result's ``shells`` hold each shell's :func:`integrate_sphere` result,
    r0 first and r1 last: the end shells are integrated on ``rule``; each
    interior shell takes the rule that
    :func:`_next_rule` picks from every column of the shell before it, so
    the degrees never rise before r1.  ``nodes_used`` is the sum of the
    shells'.  The error estimate adds the shell errors, integrated in r, to
    the tail of the Legendre coefficients of the shell integrals.
    """
    if not r0 < r1:
        raise QuadratureError(f"annulus needs r0 < r1, got ({r0}, {r1})")
    radii, radial = _radial_axis(r0, r1, radial_degree)
    shells, picked = [], rule
    for i, r in enumerate(radii):
        picks = i < len(radii) - 2      # the next shell is an interior one
        q = integrate_sphere(shell(r), r,
                             rule if i == len(radii) - 1 else picked,
                             chart_kind, _PICK_LOWER if picks else None)
        if picks:
            picked = _next_rule(picked, q)
        shells.append(q)
    values = np.reshape([s.value for s in shells], (len(shells), -1))
    errors = np.reshape([s.error_estimate for s in shells], (len(shells), -1))
    value, (error,) = _integrate_axis(values, [errors], radial)
    if np.ndim(shells[0].value) == 0:
        value, error = float(value[0]), float(error[0])
    return QuadratureResult(value, error, sum(s.nodes_used for s in shells),
                            shells=tuple(shells))
