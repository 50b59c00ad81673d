"""Deterministic quadrature over coordinate spheres and annuli.

The sphere rule is a product rule in our angular coordinates: Gauss-Jacobi
nodes in the cosine of each polar angle (weight ``(1-c^2)^{(m-1)/2}`` for the
angle carrying the measure ``sin^m``) tensored with a uniform midpoint rule
in the azimuth.  The combination integrates every spherical polynomial up to
the rule degree exactly.  Each Gauss-Jacobi rule is the Golub-Welsch
eigensolution of its Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969).

Integrands map an ``(N, n)`` array of chart points to ``(N,)`` values or to
``(N, K)`` columns, one per integrand of a family evaluated together, and
carry their own measure: the rule weights are those of the unit round sphere
(times ``dr`` on annuli).  Reductions use a fixed-order pairwise summation
tree along the node axis, which sums each column exactly as it would sum it
alone.  Every per-node pass, an integral or the maximum of a diagnostic
(:func:`sphere_values`), evaluates its nodes in chunks and rejects
non-finite values.  The chunk size depends on the dimension n of the points
alone, so results are bit-for-bit identical regardless of the worker-thread
count (override via the environment variable ``ASYMFLUX_THREADS``) and
memory does not grow with the rule.

A chunk holds the largest power of two of nodes whose metric second
derivatives, n^4 doubles per node, fit in 2^20 entries (8 MiB): 8192 nodes
at n=3, 4096 at n=4 and 1024 at n=5.  The 2-jet and the curvature arrays
built from it scale with n^4, so this bounds the per-chunk working set at
every n.  One node count for all n would either bloat the n=5 passes or
split the n=4 spheres (1458 nodes at degree 16); splitting them was seen
to move an n=4 flux by an ulp.

Within a chunk, each 2-jet is one allocation (``catalog``) and the chunk's
peak stays below twice that block (``geometry.curvature``).  glibc raises
its mmap threshold to the largest block freed so far and trims the heap top
above twice that size; a chunk that peaks higher returns its memory to the
kernel and the next chunk faults it in again (at n=5, degree 16, about 2400
minor faults per chunk, a third of the pass).
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .catalog import sphere_embedding_hd
from .errors import ConfigError, QuadratureError
from .geometry import ChartKind
from .hyperdual import HyperDual

__all__ = ["SphereRule", "QuadratureResult", "sphere_rule", "omega",
           "integrate_sphere", "integrate_annulus", "pairwise_sum",
           "sphere_values", "thread_count"]

_CHUNK_ENTRIES = 2 ** 20    # metric second-derivative entries per chunk
_EMBEDDED_STEP = 4


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
class SphereRule:
    """Product quadrature rule on the unit sphere S^{n-1}."""

    n: int
    degree: int
    angles: np.ndarray    # (N, n-1)
    units: np.ndarray     # (N, n) embedded unit vectors
    weights: np.ndarray   # (N,), sum to omega(n)

    @property
    def node_count(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class QuadratureResult:
    """Integral and embedded-rule error: floats, or ``(K,)`` arrays for
    ``(N, K)`` integrands."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    nodes_used: int


def _gauss_jacobi(k: int, a: float):
    """``k``-point Gauss rule for the weight ``(1-c^2)^a`` on [-1, 1]: nodes
    in ascending order, mirrored exactly about 0, and their weights."""
    j = np.arange(1.0, k)
    off = np.sqrt(j * (j + 2 * a) / ((2 * j + 2 * a) ** 2 - 1))
    c, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mu0 = math.sqrt(math.pi) * math.gamma(a + 1) / math.gamma(a + 1.5)
    w = mu0 * v[0] ** 2
    # the weight is even: mirroring cancels the eigensolver's odd roundoff
    return (c - c[::-1]) / 2, (w + w[::-1]) / 2


def sphere_rule(n: int, degree: int) -> SphereRule:
    """Product rule exact for spherical polynomials up to ``degree``."""
    if n not in (3, 4, 5):
        raise QuadratureError(f"sphere rules support n in {{3,4,5}}, got {n}")
    if not 1 <= degree <= 60:
        raise QuadratureError(f"rule degree must be in 1..60, got {degree}")
    npolar = max(1, (degree + 2) // 2)          # exact through degree 2*npolar-1
    nazim = 2 * npolar

    polar_nodes = []
    for j in range(n - 2):
        # angle theta_{j+1} carries measure sin^{n-2-j}; Jacobi weight exponent
        alpha = (n - 3 - j) / 2.0
        c, w = _gauss_jacobi(npolar, alpha)
        polar_nodes.append((np.arccos(c)[::-1], w[::-1]))

    phi = (np.arange(nazim) + 0.5) * (2.0 * math.pi / nazim)
    wphi = np.full(nazim, 2.0 * math.pi / nazim)

    grids = [pn[0] for pn in polar_nodes] + [phi]
    wgrids = [pn[1] for pn in polar_nodes] + [wphi]
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
    return SphereRule(n, degree, angles, units.reshape(-1, n), weights)


def pairwise_sum(values: np.ndarray):
    """Fixed-order pairwise reduction along the first axis; deterministic for
    a given input order.  Returns a float for 1-d input, else an array."""
    x = np.array(values, dtype=float)
    while x.shape[0] > 1:
        m = x.shape[0] // 2
        head = x[: 2 * m : 2] + x[1 : 2 * m : 2]
        x = np.concatenate([head, x[2 * m:]]) if x.shape[0] % 2 else head
    if x.ndim > 1:
        return x[0] if x.shape[0] else np.zeros(x.shape[1:])
    return float(x[0]) if x.size else 0.0


def _evaluate(f, points, nthreads=None):
    """Chunked (optionally threaded) evaluation; chunking is thread-invariant."""
    if nthreads is None:
        nthreads = thread_count()
    elif (isinstance(nthreads, bool)
          or not isinstance(nthreads, numbers.Integral) or nthreads < 1):
        raise ValueError(f"nthreads must be a positive integer, got {nthreads!r}")
    total = points.shape[0]
    per_node = points.shape[-1] ** 4
    size = 1 << (max(_CHUNK_ENTRIES // per_node, 1).bit_length() - 1)
    chunks = [points[i:i + size] for i in range(0, total, size)]
    if nthreads == 1 or len(chunks) == 1:
        parts = [np.asarray(f(c), dtype=float) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            futures = [pool.submit(lambda c: np.asarray(f(c), dtype=float), c)
                       for c in chunks]
            parts = [fut.result() for fut in futures]
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    bad = ~np.isfinite(out).reshape(total, -1).all(axis=1)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise QuadratureError(
            f"values not finite at node {idx} (coords {points[idx]})")
    return out


def sphere_values(f, r: float, rule: SphereRule,
                  chart_kind: ChartKind = ChartKind.CARTESIAN,
                  nthreads=None) -> np.ndarray:
    """``f`` on the rule nodes placed on the coordinate sphere S_r: ``(N,)``
    values or ``(N, K)`` columns, evaluated in chunks of a size fixed by n
    and checked to be finite."""
    if ChartKind(chart_kind) == ChartKind.CARTESIAN:
        points = r * rule.units
    else:
        points = np.concatenate(
            [np.full(rule.angles.shape[:-1] + (1,), float(r)), rule.angles],
            axis=-1)
    return _evaluate(f, points, nthreads)


def _sphere_value(f, rule, r, chart_kind, nthreads):
    values = sphere_values(f, r, rule, chart_kind, nthreads)
    return pairwise_sum((values.T * rule.weights).T), rule.node_count


def integrate_sphere(f, r: float, rule: SphereRule,
                     chart_kind: ChartKind = ChartKind.CARTESIAN,
                     nthreads=None) -> QuadratureResult:
    """Integrate ``f`` over the coordinate sphere S_r.

    ``f`` maps an ``(N, n)`` array of chart points to ``(N,)`` values or
    ``(N, K)`` columns and must be pure; it includes the area element of
    S_r relative to the round-sphere measure carried by the rule weights.
    The error estimate compares against an embedded rule of lower degree.
    """
    hi, nodes_hi = _sphere_value(f, rule, r, chart_kind, nthreads)
    lo_rule = sphere_rule(rule.n, max(rule.degree - _EMBEDDED_STEP, 1))
    lo, nodes_lo = _sphere_value(f, lo_rule, r, chart_kind, nthreads)
    return QuadratureResult(hi, abs(hi - lo), nodes_hi + nodes_lo)


def _radial_nodes(r0, r1, radial_degree):
    k = max(2, (int(radial_degree) + 2) // 2)
    c, w = np.polynomial.legendre.leggauss(k)
    mid, half = 0.5 * (r0 + r1), 0.5 * (r1 - r0)
    return mid + half * c, half * w


def _annulus_value(f, rule, radii, rweights, chart_kind, nthreads):
    shells = [w * _sphere_value(f, rule, r, chart_kind, nthreads)[0]
              for r, w in zip(radii, rweights)]
    return pairwise_sum(np.array(shells)), rule.node_count * radii.size


def integrate_annulus(f, r0: float, r1: float, rule: SphereRule,
                      radial_degree: int = 16,
                      chart_kind: ChartKind = ChartKind.CARTESIAN,
                      nthreads=None) -> QuadratureResult:
    """Integrate ``f`` over the annulus A(r0, r1).

    Gauss-Legendre in the radial coordinate tensored with the sphere rule.
    ``f`` follows :func:`integrate_sphere` and includes the volume element
    of its measure relative to ``dr x (round sphere)``.
    """
    if not r0 < r1:
        raise QuadratureError(f"annulus needs r0 < r1, got ({r0}, {r1})")
    radii, rweights = _radial_nodes(r0, r1, radial_degree)
    hi, nodes_hi = _annulus_value(f, rule, radii, rweights, chart_kind,
                                  nthreads)
    lo_rule = sphere_rule(rule.n, max(rule.degree - _EMBEDDED_STEP, 1))
    lo_radii, lo_rw = _radial_nodes(r0, r1, max(radial_degree - 2, 2))
    lo, nodes_lo = _annulus_value(f, lo_rule, lo_radii, lo_rw, chart_kind,
                                  nthreads)
    return QuadratureResult(hi, abs(hi - lo), nodes_hi + nodes_lo)
