"""Hyper-dual arithmetic against central finite differences and closed forms."""

import numpy as np
import pytest

from asymflux import hyperdual as hd
from asymflux.errors import DomainError
from asymflux.hyperdual import seed_variables


def fd_grad_hess(f, x, h=1e-4):
    """Second-order central differences for gradient and Hessian."""
    n = x.size
    grad = np.empty(n)
    hess = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2 * h)
        hess[i, i] = (f(x + e) - 2 * f(x) + f(x - e)) / h**2
        for j in range(i):
            ej = np.zeros(n)
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                f(x + e + ej) - f(x + e - ej) - f(x - e + ej) + f(x - e - ej)
            ) / (4 * h**2)
    return grad, hess


def eval_hd(f, x):
    variables = seed_variables(x)
    out = f(variables)
    return out.val, out.grad, out.hess


CASES = [
    ("polynomial", lambda v: v[0] ** 3 + 2.0 * v[0] * v[1] - v[1] ** 2,
     np.array([1.3, -0.7])),
    ("rational", lambda v: (v[0] + 1.0) / (v[1] ** 2 + 2.0),
     np.array([0.4, 1.1])),
    ("exp_log", lambda v: hd.exp(v[0] * v[1]) + hd.log(v[0] + 3.0),
     np.array([0.5, 0.25])),
    ("trig", lambda v: hd.sin(v[0]) * hd.cos(v[1]) + hd.tan(v[0] / 2.0),
     np.array([0.8, 1.9])),
    ("hyperbolic", lambda v: hd.sinh(v[0]) * hd.tanh(v[1]) + hd.cosh(v[0]),
     np.array([0.6, -1.2])),
    ("sqrt_pow", lambda v: hd.sqrt(v[0] ** 2 + v[1] ** 2) ** 3,
     np.array([1.0, 2.0])),
    ("power_var_exp", lambda v: (v[0] + 2.0) ** v[1],
     np.array([1.5, 2.5])),
    ("log1p_expm1", lambda v: hd.log1p(v[0] * v[1]) + hd.expm1(v[0] - v[1]),
     np.array([0.3, 0.9])),
]


@pytest.mark.parametrize("name,f,x", CASES, ids=[c[0] for c in CASES])
def test_against_finite_differences(name, f, x):
    val, grad, hess = eval_hd(f, x)
    g_fd, h_fd = fd_grad_hess(lambda y: eval_hd(f, y)[0], x)
    assert np.allclose(grad, g_fd, rtol=1e-6, atol=1e-8)
    assert np.allclose(hess, h_fd, rtol=1e-5, atol=1e-6)
    assert hess == pytest.approx(hess.T)


def test_batched_evaluation_matches_scalar():
    xs = np.array([[0.5, 1.0], [1.5, -0.5], [2.0, 0.25]])
    f = lambda v: hd.exp(v[0]) * hd.sin(v[1]) + v[0] / (v[1] + 3.0)
    batch = seed_variables(xs)
    out = f(batch)
    for k, row in enumerate(xs):
        val, grad, hess = eval_hd(f, row)
        assert out.val[k] == pytest.approx(val)
        assert np.allclose(out.grad[k], grad)
        assert np.allclose(out.hess[k], hess)


def test_chain_rule_exactness():
    # d2/dx2 of sin(x^2) = 2cos(x^2) - 4x^2 sin(x^2), exactly representable
    x = np.array([0.9])
    out = hd.sin(seed_variables(x)[0] ** 2)
    expected = 2 * np.cos(0.81) - 4 * 0.81 * np.sin(0.81)
    assert out.hess[0, 0] == pytest.approx(expected, rel=1e-14)


def test_rpow():
    x = np.array([1.7])
    out = 2.0 ** seed_variables(x)[0]
    ln2 = np.log(2.0)
    assert out.val == pytest.approx(2.0**1.7)
    assert out.grad[0] == pytest.approx(2.0**1.7 * ln2, rel=1e-14)
    assert out.hess[0, 0] == pytest.approx(2.0**1.7 * ln2**2, rel=1e-14)


def test_division_by_zero_raises():
    v = seed_variables(np.array([0.0]))[0]
    with pytest.raises(DomainError):
        1.0 / v


@pytest.mark.parametrize("fn,bad", [(hd.log, -1.0), (hd.sqrt, -0.5),
                                    (hd.log1p, -2.0)])
def test_domain_violations(fn, bad):
    with pytest.raises(DomainError):
        fn(seed_variables(np.array([bad]))[0])


def test_log1p_accuracy_near_zero():
    # the whole point of carrying log1p: tiny arguments keep full precision
    t = 1e-12
    out = hd.log1p(seed_variables(np.array([t]))[0])
    assert out.val == pytest.approx(np.log1p(t), rel=1e-15)
    assert out.grad[0] == pytest.approx(1.0 / (1.0 + t), rel=1e-15)



# ------------------------------------------------------------------ lift

# one-variable chains of the radial profiles: sinh, cosh, sqrt, pow, the
# reciprocal and the conformal factor's log1p/expm1
PROFILES = {
    "sinh2": lambda u: hd.sinh(u) * hd.sinh(u),
    "cosh": lambda u: hd.cosh(u),
    "sqrt": lambda u: hd.sqrt(1.0 + u * u),
    "pow": lambda u: (2.0 * u) ** -3.0,
    "reciprocal": lambda u: 1.0 / (1.0 + u * u - 0.5 * u ** -2.0),
    "log1p_expm1": lambda u: hd.expm1(1.5 * hd.log1p(0.5 * hd.sqrt(u) ** -3.0)),
}


def _profile_variable(inner):
    return seed_variables(inner.val[..., None])[0]


def _lift_points(n):
    rng = np.random.default_rng(n)
    center = rng.normal(size=n) * 0.3
    x = center + rng.normal(size=(64, n)) * rng.uniform(0.3, 2.0, (64, 1))
    return x, center


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_lift_of_a_seed_variable_is_the_full_chain(name, n):
    """On a seed variable the lift writes the numbers of the n-wide chain."""
    f = PROFILES[name]
    x, _ = _lift_points(n)
    x[:, 0] = np.abs(x[:, 0]) + 0.5                 # a radial coordinate
    radial = seed_variables(x)[0]
    full = f(radial)
    lifted = hd.lift(radial, f(_profile_variable(radial)))
    for a, b in ((full.val, lifted.val), (full.grad, lifted.grad),
                 (full.hess, lifted.hess)):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_lift_of_the_squared_distance_matches_the_full_chain(name, n):
    """On ``t = |x - c|^2`` the lift and the n-wide chain agree to roundoff.

    The error scale of each part is the size of its chain-rule terms:
    ``|f'| |grad t|`` for the gradient and ``|f''| |grad t|^2 + 2 |f'|``
    for the Hessian.  The chain rounds at every step, so the two differ by
    up to about 5 ulps of that scale (reciprocal and sqrt Hessians); the
    bound is 8.
    """
    f = PROFILES[name]
    x, center = _lift_points(n)
    seeds = seed_variables(x)
    t = (seeds[0] - center[0]) * (seeds[0] - center[0])
    for i in range(1, n):
        t = t + (seeds[i] - center[i]) * (seeds[i] - center[i])
    full = f(t)
    profile = f(_profile_variable(t))
    lifted = hd.lift(t, profile)
    f1, f2 = np.abs(profile.grad[:, 0]), np.abs(profile.hess[:, 0, 0])
    grad2 = np.sum(t.grad ** 2, axis=-1)
    ulp = np.finfo(float).eps
    assert np.array_equal(full.val, lifted.val)
    for a, b, scale in ((full.grad, lifted.grad, f1 * np.sqrt(grad2)),
                        (full.hess, lifted.hess, f2 * grad2 + 2.0 * f1)):
        diff = np.max(np.abs(a - b).reshape(len(x), -1), axis=1)
        assert np.all(diff <= 8.0 * ulp * scale)


# ------------------------------------------------------------ mul_factor

# one-variable factors of the polar charts: sin, cos, sin^2, sinh^2, r^2,
# the reciprocal of Kottler's metric function and a sqrt
FACTORS = {
    "sin": lambda u: hd.sin(u),
    "cos": lambda u: hd.cos(u),
    "sin2": lambda u: hd.sin(u) * hd.sin(u),
    "sinh2": lambda u: hd.sinh(u) * hd.sinh(u),
    "square": lambda u: u * u,
    "kottler": lambda u: 1.0 / (1.0 + u * u - 2.0 * u ** -2.0),
    "sqrt": lambda u: hd.sqrt(1.0 + u * u),
}


def _product_of_the_others(seeds, k):
    """A full-width jet of every seed variable but ``k``, with nonzero
    gradient, Hessian and cross terms."""
    others = [s for i, s in enumerate(seeds) if i != k]
    p = hd.cos(others[0]) + 2.0
    for j, s in enumerate(others[1:], 1):
        p = p * hd.sin(s + 0.3 * j) + others[0] * s
    return p


def _factor_points(n, shape=(40,)):
    rng = np.random.default_rng(100 + n)
    return rng.uniform(0.6, 2.5, shape + (n,))


def _assert_same_jet(a, b):
    for x, y in ((a.val, b.val), (a.grad, b.grad), (a.hess, b.hess)):
        assert x.shape == y.shape
        assert np.array_equal(x, y)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(FACTORS))
def test_mul_factor_is_the_full_width_product(name, n):
    """For every axis k, ``mul_factor(P, f, k)`` writes the value, gradient
    and Hessian of ``P * f(x_k)`` computed at full width, either order."""
    f = FACTORS[name]
    x = _factor_points(n)
    seeds = seed_variables(x)
    factors = hd.one_variable_seeds(x)
    for k in range(n):
        p = _product_of_the_others(seeds, k)
        sparse = hd.mul_factor(p, f(factors[k]), k)
        _assert_same_jet(sparse, p * f(seeds[k]))
        _assert_same_jet(sparse, f(seeds[k]) * p)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_mul_factor_on_the_unit_jet_is_the_seed_chain(n):
    """Into the constant 1, the factor becomes its full-width jet."""
    x = _factor_points(n)
    seeds, factors = seed_variables(x), hd.one_variable_seeds(x)
    one = hd.HyperDual.constant(1.0, n, x.shape[:-1])
    for k in range(n):
        for f in FACTORS.values():
            _assert_same_jet(hd.mul_factor(one, f(factors[k]), k),
                             f(seeds[k]))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_mul_factor_without_derivatives_multiplies_values(n):
    """On jets of width 0, as the sphere rule builds its nodes, the sparse
    step multiplies the values."""
    x = _factor_points(n)
    seeds = factors = [hd.HyperDual.constant(x[..., i], 0, x.shape[:-1])
                       for i in range(n)]
    for k in range(n):
        p = _product_of_the_others(seeds, k)
        for f in FACTORS.values():
            _assert_same_jet(hd.mul_factor(p, f(factors[k]), k),
                             p * f(seeds[k]))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_mul_factor_broadcasts_like_the_product(n):
    """Batch shapes broadcast as ``*`` does: the sparse meshgrid axes of the
    sphere rule (width 0), and a full-width product over crossed axes."""
    grids = [np.linspace(0.3, 2.8, 3 + j) for j in range(n)]
    axes = [hd.HyperDual.constant(a, 0, a.shape)
            for a in np.meshgrid(*grids, indexing="ij", sparse=True)]
    product = hd.HyperDual.constant(1.0, 0)
    chain = 1.0
    for k, axis in enumerate(axes):
        product = hd.mul_factor(product, hd.cos(axis), k)
        chain = chain * hd.cos(axis)
        _assert_same_jet(product, chain)
    assert product.val.shape == tuple(3 + j for j in range(n))

    rows = _factor_points(n, (5, 1))
    cols = _factor_points(n, (1, 4))
    seeds = seed_variables(rows)
    for k in range(n):
        p = _product_of_the_others(seeds, k)
        factor = hd.sinh(hd.one_variable_seeds(cols)[k])
        full = hd.sinh(seed_variables(cols)[k])
        sparse = hd.mul_factor(p, factor, k)
        assert sparse.val.shape == (5, 4)
        _assert_same_jet(sparse, p * full)


def test_reciprocal_is_one_over():
    x = _factor_points(4)
    p = _product_of_the_others(seed_variables(x), 1)
    _assert_same_jet(hd.reciprocal(p), 1.0 / p)
    with pytest.raises(DomainError):
        hd.reciprocal(p * 0.0)


# ------------------------------------------------------- first-order form

def _first(x):
    """``x`` without its Hessian."""
    return hd.HyperDual(x.val, x.grad)


def _operands():
    """Two full-width jets with nonzero gradients and Hessians, positive
    everywhere, so every elementary function is defined on them."""
    x = np.random.default_rng(7).uniform(0.6, 1.4, (7, 3))
    s = seed_variables(x)
    return hd.exp(0.3 * s[0] * s[1]) + s[2], s[1] * s[2] + 1.5


def _assert_first_order_of(got, want):
    """``got`` is first-order with the value and gradient of ``want``."""
    assert got.hess is None and got.order == 1
    assert want.hess is not None and want.order == 2
    for a, b in ((got.val, want.val), (got.grad, want.grad)):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


_ORDERS = [(1, 1), (1, 2), (2, 1)]


def _at(x, order):
    return _first(x) if order == 1 else x


BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "truediv": lambda a, b: a / b,
    "pow": lambda a, b: a ** b,
}

# one operand with a scalar or array one, either side, and the functions
UNARY = {
    "neg": lambda a: -a,
    "add_scalar": lambda a: a + 2.0,
    "radd": lambda a: 2.0 + a,
    "sub_scalar": lambda a: a - 0.5,
    "rsub": lambda a: 0.5 - a,
    "mul_scalar": lambda a: a * 3.0,
    "rmul": lambda a: 3.0 * a,
    "mul_array": lambda a: a * np.linspace(1.0, 2.0, 7),
    "truediv_scalar": lambda a: a / 3.0,
    "rtruediv": lambda a: 3.0 / a,
    "pow_two": lambda a: a ** 2,
    "pow_negative": lambda a: a ** -1.5,
    "pow_zero": lambda a: a ** 0,
    "pow_one": lambda a: a ** 1,
    "rpow": lambda a: 2.0 ** a,
    "reciprocal": hd.reciprocal,
    **{name: getattr(hd, name)
       for name in ("sqrt", "exp", "log", "log1p", "expm1", "sin", "cos",
                    "tan", "sinh", "cosh", "tanh")},
}


@pytest.mark.parametrize("name", sorted(UNARY))
def test_first_order_operand_gives_first_order_result(name):
    """A first-order operand, alone or with a scalar or array, gives a
    first-order result with the value and gradient of the second-order
    one bit for bit."""
    a, _ = _operands()
    _assert_first_order_of(UNARY[name](_first(a)), UNARY[name](a))


@pytest.mark.parametrize("orders", _ORDERS, ids=str)
@pytest.mark.parametrize("name", sorted(BINARY))
def test_mixed_orders_give_the_lower_order(name, orders):
    """Two jets of which one or both are first-order give a first-order
    result with the value and gradient of the second-order one."""
    a, b = _operands()
    got = BINARY[name](_at(a, orders[0]), _at(b, orders[1]))
    _assert_first_order_of(got, BINARY[name](a, b))


@pytest.mark.parametrize("orders", _ORDERS, ids=str)
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_first_order_lift(name, orders):
    """A lift whose inner jet or profile is first-order is first-order."""
    inner, _ = _operands()
    profile = PROFILES[name](_profile_variable(inner))
    got = hd.lift(_at(inner, orders[0]), _at(profile, orders[1]))
    _assert_first_order_of(got, hd.lift(inner, profile))


@pytest.mark.parametrize("orders", _ORDERS, ids=str)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_first_order_mul_factor(n, orders):
    """A sparse step with a first-order product or factor writes the value
    and gradient of the second-order step and no Hessian."""
    x = _factor_points(n)
    seeds, factors = seed_variables(x), hd.one_variable_seeds(x)
    for k in range(n):
        p = _product_of_the_others(seeds, k)
        for f in FACTORS.values():
            factor = f(factors[k])
            got = hd.mul_factor(_at(p, orders[0]), _at(factor, orders[1]), k)
            _assert_first_order_of(got, hd.mul_factor(p, factor, k))


def test_first_order_seeds_and_constants():
    """Seeds and constants of order 1 are those of order 2 without the
    Hessian, and a chain of them stays first-order."""
    x = _factor_points(4)
    for got, want in zip(seed_variables(x, 1), seed_variables(x), strict=True):
        _assert_first_order_of(got, want)
    for got, want in zip(hd.one_variable_seeds(x, 1), hd.one_variable_seeds(x),
                         strict=True):
        _assert_first_order_of(got, want)
    _assert_first_order_of(hd.HyperDual.constant(2.0, 4, (40,), 1),
                           hd.HyperDual.constant(2.0, 4, (40,)))
    chain = lambda v: hd.sqrt(v[0] * v[1] + 1.0) / hd.cosh(v[2]) - v[3] ** 3
    _assert_first_order_of(chain(seed_variables(x, 1)),
                           chain(seed_variables(x)))


def test_stack_puts_the_entries_on_one_axis():
    """A stacked diagonal holds entry i at ``val[..., i]``, ``grad[..., i,
    :]`` and ``hess[..., i, :, :]``, the entries' own arrays bit for bit;
    one first-order entry makes it first-order."""
    x = _factor_points(3)
    v = seed_variables(x)
    entries = [v[0] * v[1], hd.sin(v[2]), v[1] ** 3]
    got = hd.stack(entries)
    assert got.val.shape == (40, 3) and got.hess.shape == (40, 3, 3, 3)
    for i, e in enumerate(entries):
        for part in ("val", "grad", "hess"):
            assert np.array_equal(getattr(got, part)[:, i], getattr(e, part))
    first = hd.stack(entries[:2] + [hd.HyperDual(entries[2].val,
                                                 entries[2].grad)])
    _assert_first_order_of(first, got)
