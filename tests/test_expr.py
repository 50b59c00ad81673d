"""Expression parsing, printing round-trips, and jet evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymflux.catalog import MetricSpec, jets
from asymflux.errors import (ExprDomainError, ParseError,
                             UnknownIdentifierError)
from asymflux.expr import Bin, Call, Name, Num, eval_jet, parse
from oracles import to_text


def jet(text, x, params=None, chart="cartesian", n=None):
    ast = parse(text, n or x.shape[-1], chart, tuple(params or ()))
    return eval_jet(ast, np.asarray(x, float), params, chart)


# ------------------------------------------------------------------ parsing

def test_precedence_and_associativity():
    x = np.array([2.0, 3.0, 1.0])
    assert jet("x1 + x2 * x3", x).val == pytest.approx(5.0)
    assert jet("(x1 + x2) * x3", x).val == pytest.approx(5.0 * 1.0)
    assert jet("-x1^2", x).val == pytest.approx(-4.0)     # unary binds looser
    assert jet("2^3^2", x).val == pytest.approx(512.0)    # right-assoc
    assert jet("x1 - x2 - x3", x).val == pytest.approx(-2.0)


def test_scientific_notation_and_functions():
    x = np.array([1.0, 0.0, 0.0])
    assert jet("1.5e2 * x1", x).val == pytest.approx(150.0)
    assert jet("exp(log(3.0))", x).val == pytest.approx(3.0)
    assert jet("sqrt(x1^2 + 4)", x).val == pytest.approx(np.sqrt(5.0))


def test_r_is_derived_in_cartesian():
    x = np.array([3.0, 4.0, 0.0])
    out = jet("1/r", x)
    assert out.val == pytest.approx(0.2)
    # grad of 1/r is -x/r^3
    assert np.allclose(out.grad, -x / 125.0)


def test_polar_identifiers():
    p = np.array([2.0, 1.0, 0.5])
    out = jet("sinh(r)^2 * sin(theta1)^2", p, chart="polar_geodesic")
    assert out.val == pytest.approx(np.sinh(2.0) ** 2 * np.sin(1.0) ** 2)


def test_parameters():
    x = np.array([10.0, 0.0, 0.0])
    out = jet("1 + 2*mm/r", x, params={"mm": 0.5})
    assert out.val == pytest.approx(1.1)


@pytest.mark.parametrize("bad", ["", "x1 +", "(x1", "x1 ** 2", "1..2",
                                 "sin()", "x1 x2"])
def test_parse_errors_carry_position(bad):
    with pytest.raises(ParseError) as exc:
        parse(bad, 3)
    assert exc.value.offset >= 0


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse("x1 + y", 3)
    with pytest.raises(UnknownIdentifierError):
        parse("theta1", 3, "cartesian")
    # but theta1 is fine in a polar chart
    parse("theta1", 3, "polar_geodesic")



@pytest.mark.parametrize("chart,name", [
    ("cartesian", "x1"), ("cartesian", "r"), ("polar_area", "r"),
    ("polar_area", "theta1"), ("polar_geodesic", "phi")])
def test_parameter_named_like_a_chart_variable(chart, name):
    """A parameter may not share a name with a variable of the chart, which
    the evaluator would read in its place; the error names it.  A name that
    is a variable of another chart only is a parameter like any other."""
    with pytest.raises(ParseError, match=repr(name)):
        parse("1 + mm", 3, chart, ("mm", name))
    with pytest.raises(ParseError, match="'r'"):
        parse("1 + r*0 + x1", 3, "cartesian", ("x1", "r"))
    other = "phi" if chart == "cartesian" else "x1"
    assert jet(f"1 + {other}", np.array([2.0, 1.0, 0.5]), {other: 3.0},
               chart).val == 4.0


@pytest.mark.parametrize("text,number", [
    ("1 + 1/r^1e400", "1e400"), ("1e309", "1e309"), ("x1*2e999 + 1", "2e999")])
def test_non_finite_number_is_a_parse_error(text, number):
    """A number literal that overflows to inf is rejected at its offset."""
    with pytest.raises(ParseError, match="not finite") as exc:
        parse(text, 3)
    assert exc.value.offset == text.index(number)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("text", ["1 + 1/r^(1e300*1e300)",
                                  "1 + r^(1e300*1e300 - 1e300*1e300)"])
def test_non_finite_constant_exponent_is_a_domain_error(text):
    """A constant exponent that evaluates to inf or NaN is a domain error at
    the ``^``, not an OverflowError or ValueError of the power."""
    with pytest.raises(ExprDomainError, match="exponent .* not finite") as exc:
        jet(text, np.array([[8.0, 1.0, 0.0], [3.0, 0.0, 4.0]]))
    assert exc.value.offset == text.index("^")

def test_origin_is_rejected_for_r():
    with pytest.raises(ExprDomainError):
        jet("1/r", np.array([0.0, 0.0, 0.0]))


# ------------------------------------------------------------- printing

def test_round_trip_examples():
    for text in ["x1 + x2*x3", "-(x1 + 1)^2", "sqrt(x1^2 + x2^2)",
                 "1 - 2/(x3 + 5)", "sin(x1)*cos(x2) - tanh(x3)"]:
        ast = parse(text, 3)
        assert parse(to_text(ast), 3) == ast


_leaf = st.one_of(
    st.sampled_from([Name("x1", 0), Name("x2", 0), Name("x3", 0)]),
    st.floats(0.1, 9.0).map(lambda v: Num(round(v, 3), 0)),
)


def _combine(children):
    op = st.sampled_from(["+", "-", "*", "/", "^"])
    fn = st.sampled_from(["sin", "cos", "exp", "tanh"])
    return st.one_of(
        st.tuples(op, children, children).map(lambda t: Bin(t[0], t[1], t[2], 0)),
        st.tuples(fn, children).map(lambda t: Call(t[0], t[1], 0)),
    )


@settings(max_examples=100, deadline=None)
@given(st.recursive(_leaf, _combine, max_leaves=12))
def test_print_parse_round_trip(ast):
    assert parse(to_text(ast), 3) == ast


# ------------------------------------------------------------- evaluation

def fd(text, x, h=1e-4):
    n = x.size
    f = lambda y: jet(text, y).val
    grad = np.empty(n)
    hess = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n); e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2 * h)
        hess[i, i] = (f(x + e) - 2 * f(x) + f(x - e)) / h**2
        for j in range(i):
            ej = np.zeros(n); ej[j] = h
            hess[i, j] = hess[j, i] = (f(x + e + ej) - f(x + e - ej)
                                       - f(x - e + ej) + f(x - e - ej)) / (4 * h**2)
    return grad, hess


@pytest.mark.parametrize("text", [
    "x1^2*x2 - x3",
    "exp(-r)/r",
    "sin(x1)*cos(x2)*x3",
    "sqrt(1 + x1^2 + x2^2)",
    "1/(1 + r^2)",
    "tanh(x1 - x2) + log(2 + x3)",
])
def test_jets_match_finite_differences(text):
    x = np.array([0.7, -1.2, 2.1])
    out = jet(text, x)
    g_fd, h_fd = fd(text, x)
    assert np.allclose(out.grad, g_fd, rtol=1e-6, atol=1e-8)
    assert np.allclose(out.hess, h_fd, rtol=1e-5, atol=1e-6)


def test_empty_batch_gives_empty_jets():
    """An empty batch has no node, so a constant exponent evaluates to empty
    jets as every other expression does; the expression metric built on it
    gives jets of shape ``(0, n, n)`` like every catalog kind."""
    for text in ("1 + 1/r^2", "x1^3", "(x2 + 1)^(1/2)"):
        out = jet(text, np.empty((0, 3)))
        assert out.val.shape == (0,)
        assert out.grad.shape == (0, 3) and out.hess.shape == (0, 3, 3)
    spec = MetricSpec("expression", 3, components={
        (0, 0): "1 + 1/r^2", (1, 1): "1", (2, 2): "1"})
    g_jet, b_jet, eps = jets(spec, np.empty((0, 3)))
    assert g_jet.g.shape == b_jet.grad.shape == eps.value.shape == (0, 3, 3)
    assert b_jet.val.shape == (0, 3)
    assert g_jet.ddg.shape == (0, 3, 3, 3, 3)


def test_batched_matches_pointwise():
    pts = np.array([[1.0, 2.0, 0.5], [0.3, -0.4, 1.5]])
    out = jet("exp(-r)*x1", pts)
    for k in range(2):
        single = jet("exp(-r)*x1", pts[k])
        assert out.val[k] == pytest.approx(single.val)
        assert np.allclose(out.grad[k], single.grad)
        assert np.allclose(out.hess[k], single.hess)


def test_ast_equality_ignores_positions():
    a = parse("x1 + 2", 3)
    b = parse("  x1    +    2", 3)
    assert a == b
