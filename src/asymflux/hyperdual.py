"""Second-order forward-mode automatic differentiation (hyper-dual numbers).

A :class:`HyperDual` carries a value together with its exact gradient and
Hessian with respect to ``nvars`` seed variables.  All components are numpy
arrays with a common batch shape, so a single arithmetic pass evaluates a
whole grid of points at once.  There is no truncation error: the chain rule
is applied exactly to second order.  It is the package's one scalar jet:
the kernel functions, the evaluated expression components and the
conformal factor of a :class:`~asymflux.geometry.ConformalJet` are the
hyper-duals that built them, and a diagonal (a background, a warped
metric's) is one jet batched over its entries (:func:`stack`), and so is
an entrywise function of one: ``b^{-1}`` is :func:`reciprocal` of ``b``.

A jet is carried only to the order its reader needs (Griewank & Walther,
*Evaluating Derivatives*, SIAM 2008): a first-order jet has ``hess`` None
and every operation keeps it so, a result taking the lower order of its
operands.  The value and gradient arithmetic is the same at both orders,
so a first-order jet holds the value and gradient of its second-order
twin bit for bit without building an ``nvars x nvars`` block per node.
The charge pass carries the basis jets and the polar catalog jets to
first order; only the conformal factor of a flat catalog kind, whose
curvature reads its Hessian, is second-order there.

A function of one intermediate, such as a radial profile of a metric, is
cheaper as a width-1 hyper-dual in that intermediate, lifted to the full
width by :func:`lift` with one chain-rule step: the preaccumulation of a
scalar intermediate's derivatives (Griewank & Walther, *Evaluating
Derivatives*, SIAM 2008).  Every step of the profile then carries one
derivative slot instead of ``nvars`` and an ``nvars x nvars`` Hessian.

A separable product, such as a polar-chart metric entry ``sinh^2 r *
sin^2 theta_1 ...``, is built the same way: each factor is a width-1 jet in
its own coordinate (:func:`one_variable_seeds`), and :func:`mul_factor`
multiplies it into a product that does not depend on that coordinate with
one sparse step, which writes the numbers of the full-width product.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["HyperDual", "seed_variables", "one_variable_seeds", "lift",
           "mul_factor", "stack", "reciprocal", "sqrt", "exp", "log",
           "log1p", "expm1", "sin", "cos", "tan", "sinh", "cosh", "tanh"]


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _second_order(*jets) -> bool:
    """Whether every operand carries a Hessian, so that the result does."""
    return all(x.hess is not None for x in jets)


class HyperDual:
    """Batched hyper-dual scalar: value ``S``, gradient ``S+(n,)``, Hessian
    ``S+(n,n)``, or ``hess`` None in the first-order form."""

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess=None):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = None if hess is None else np.asarray(hess, dtype=float)

    # ------------------------------------------------------------------ basics

    @property
    def nvars(self) -> int:
        return self.grad.shape[-1]

    @property
    def order(self) -> int:
        """2 with a Hessian, 1 in the first-order form."""
        return 1 if self.hess is None else 2

    @staticmethod
    def constant(value, nvars, shape=(), order=2):
        value = np.broadcast_to(np.asarray(value, dtype=float), shape)
        return HyperDual(value, np.zeros(shape + (nvars,)),
                         np.zeros(shape + (nvars, nvars)) if order == 2
                         else None)

    def _lift(self, other):
        if isinstance(other, HyperDual):
            return other
        return HyperDual.constant(np.asarray(other, dtype=float), self.nvars,
                                  np.shape(other), self.order)

    def __repr__(self):
        return f"HyperDual(val={self.val!r})"

    # -------------------------------------------------------------- arithmetic

    def __add__(self, other):
        other = self._lift(other)
        return HyperDual(self.val + other.val, self.grad + other.grad,
                         self.hess + other.hess
                         if _second_order(self, other) else None)

    __radd__ = __add__

    def __neg__(self):
        return HyperDual(-self.val, -self.grad,
                         None if self.hess is None else -self.hess)

    def __sub__(self, other):
        other = self._lift(other)
        return HyperDual(self.val - other.val, self.grad - other.grad,
                         self.hess - other.hess
                         if _second_order(self, other) else None)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        a, b = self, other
        val = a.val * b.val
        grad = a.grad * b.val[..., None] + b.grad * a.val[..., None]
        if not _second_order(a, b):
            return HyperDual(val, grad)
        hess = (a.hess * b.val[..., None, None]
                + b.hess * a.val[..., None, None]
                + _outer(a.grad, b.grad) + _outer(b.grad, a.grad))
        return HyperDual(val, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * reciprocal(self._lift(other))

    def __rtruediv__(self, other):
        return reciprocal(self) * other

    def __pow__(self, p):
        if isinstance(p, HyperDual):
            return exp(p * log(self))
        p = float(p)
        if p == 0.0:
            return HyperDual.constant(1.0, self.nvars, self.val.shape,
                                      self.order)
        if p == 1.0:
            return self
        v = self.val
        if p != int(p) and np.any(v < 0.0):
            raise DomainError("negative base with non-integer exponent")
        if p < 2.0 and p != int(p) and np.any(v == 0.0):
            raise DomainError("zero base with exponent < 2")
        if np.any(v == 0.0) and p < 0:
            raise DomainError("division by zero in power")
        return self._unary(v**p, p * v**(p - 1.0), p * (p - 1.0) * v**(p - 2.0))

    def __rpow__(self, base):
        base = np.asarray(base, dtype=float)
        if np.any(base <= 0.0):
            raise DomainError("non-positive base with variable exponent")
        return exp(self * np.log(base))

    # ------------------------------------------------------------- chain rule

    def _unary(self, fv, d1, d2):
        """``f(self)`` from ``f``'s value ``fv`` and derivatives ``d1`` and
        ``d2``; first order when ``self`` is or ``d2`` is None."""
        fv = np.asarray(fv, dtype=float)
        d1 = np.asarray(d1, dtype=float)
        grad = d1[..., None] * self.grad
        if self.hess is None or d2 is None:
            return HyperDual(fv, grad)
        d2 = np.asarray(d2, dtype=float)
        hess = (d1[..., None, None] * self.hess
                + d2[..., None, None] * _outer(self.grad, self.grad))
        return HyperDual(fv, grad, hess)


def seed_variables(coords, order=2):
    """Seed coordinates ``coords`` of shape ``(..., n)`` as hyper-dual variables.

    Returns a list of ``n`` HyperDuals, the i-th being the i-th coordinate with
    unit gradient seed ``e_i``, with a zero Hessian at ``order`` 2 and none
    at 1.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[-1]
    shape = coords.shape[:-1]
    out = []
    for i in range(n):
        grad = np.zeros(shape + (n,))
        grad[..., i] = 1.0
        out.append(HyperDual(coords[..., i], grad,
                             np.zeros(shape + (n, n)) if order == 2 else None))
    return out


def one_variable_seeds(coords, order=2):
    """Each coordinate of ``coords`` ``(..., n)`` as a width-1 jet in itself
    alone, of ``order``.  These are the factors that :func:`mul_factor`
    multiplies into a product of the full width."""
    coords = np.asarray(coords, dtype=float)
    return [seed_variables(coords[..., i:i + 1], order)[0]
            for i in range(coords.shape[-1])]


def lift(inner: HyperDual, f: HyperDual) -> HyperDual:
    """Jet of ``f`` in the variables of ``inner``: ``f`` is a width-1 jet in
    the one variable whose jet is ``inner``, seeded as
    ``seed_variables(inner.val[..., None])[0]``.

    One chain-rule step, of the lower order of the two.  When ``inner`` is a
    seed variable (unit gradient, zero Hessian) it writes the numbers the
    full-width chain of ``f`` writes, bit for bit.
    """
    return inner._unary(f.val, f.grad[..., 0],
                        None if f.hess is None else f.hess[..., 0, 0])


def mul_factor(p: HyperDual, f: HyperDual, k: int) -> HyperDual:
    """``p * f`` for a jet ``p`` that does not depend on seed variable ``k``
    and a width-1 jet ``f`` in that variable alone (one of
    :func:`one_variable_seeds`, or a function of it).

    One sparse step: ``f``'s value scales ``p``'s gradient and Hessian,
    ``f'`` times ``p`` is gradient slot ``k``, ``f'`` times ``p``'s gradient
    is Hessian row and column ``k``, and ``f''`` times ``p`` is entry
    ``(k, k)``.  It writes the numbers of the full-width product, bit for bit
    up to the signs of zeros, with batch shapes broadcast as ``*`` does,
    and of the lower order of the two: a first-order product writes no
    Hessian.  On jets without derivatives (width 0, the embedding of the
    quadrature nodes) it multiplies the values.
    """
    val = p.val * f.val
    grad = p.grad * f.val[..., None]
    hess = p.hess * f.val[..., None, None] if _second_order(p, f) else None
    if p.nvars:
        d1 = f.grad[..., 0]
        grad[..., k] = d1 * p.val
        if hess is not None:
            cross = p.grad * d1[..., None]
            hess[..., k, :] = cross
            hess[..., :, k] = cross
            hess[..., k, k] = f.hess[..., 0, 0] * p.val
    return HyperDual(val, grad, hess)


def stack(entries) -> HyperDual:
    """One jet of a diagonal from its entries, jets of one batch shape:
    ``val[..., i]``, ``grad[..., i, k]`` and ``hess[..., i, k, l]`` when
    every entry has a Hessian."""
    return HyperDual(np.stack([e.val for e in entries], axis=-1),
                     np.stack([e.grad for e in entries], axis=-2),
                     np.stack([e.hess for e in entries], axis=-3)
                     if _second_order(*entries) else None)


def reciprocal(x: HyperDual) -> HyperDual:
    """``1 / x`` by one chain-rule step."""
    v = x.val
    if np.any(v == 0.0):
        raise DomainError("division by zero")
    return x._unary(1.0 / v, -1.0 / v**2, 2.0 / v**3)


# --------------------------------------------------------- elementary functions
#
# Each takes a HyperDual and applies the chain rule with the function's first
# and second derivative; a first-order operand reads only the first.

def sqrt(x: HyperDual) -> HyperDual:
    if np.any(x.val <= 0.0):
        raise DomainError("sqrt of non-positive value")
    s = np.sqrt(x.val)
    return x._unary(s, 0.5 / s, -0.25 / (s * x.val))


def exp(x: HyperDual) -> HyperDual:
    e = np.exp(x.val)
    return x._unary(e, e, e)


def log(x: HyperDual) -> HyperDual:
    if np.any(x.val <= 0.0):
        raise DomainError("log of non-positive value")
    v = x.val
    return x._unary(np.log(v), 1.0 / v, -1.0 / v**2)


def log1p(x: HyperDual) -> HyperDual:
    if np.any(x.val <= -1.0):
        raise DomainError("log1p of value <= -1")
    w = 1.0 + x.val
    return x._unary(np.log1p(x.val), 1.0 / w, -1.0 / w**2)


def expm1(x: HyperDual) -> HyperDual:
    e = np.exp(x.val)
    return x._unary(np.expm1(x.val), e, e)


def sin(x: HyperDual) -> HyperDual:
    s, c = np.sin(x.val), np.cos(x.val)
    return x._unary(s, c, -s)


def cos(x: HyperDual) -> HyperDual:
    s, c = np.sin(x.val), np.cos(x.val)
    return x._unary(c, -s, -c)


def tan(x: HyperDual) -> HyperDual:
    t = np.tan(x.val)
    sec2 = 1.0 + t**2
    return x._unary(t, sec2, 2.0 * t * sec2)


def sinh(x: HyperDual) -> HyperDual:
    s, c = np.sinh(x.val), np.cosh(x.val)
    return x._unary(s, c, s)


def cosh(x: HyperDual) -> HyperDual:
    s, c = np.sinh(x.val), np.cosh(x.val)
    return x._unary(c, s, c)


def tanh(x: HyperDual) -> HyperDual:
    t = np.tanh(x.val)
    sech2 = 1.0 - t**2
    return x._unary(t, sech2, -2.0 * t * sech2)
