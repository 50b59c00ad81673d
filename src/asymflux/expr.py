"""Metric-component expression language.

Small arithmetic grammar with standard precedence, ``^`` as power, unary
minus, and the function set sqrt/exp/log/sin/cos/tan/sinh/cosh/tanh.
Variables depend on the chart:

* cartesian charts: ``x1 .. xn`` plus the derived radius ``r = |x|``,
* polar charts: ``r``, polar angles ``theta1 .. theta{n-2}`` and azimuth
  ``phi``.

Any other identifier must be a declared parameter.  Evaluation propagates
hyper-dual numbers, so values, gradients and Hessians are exact to machine
precision.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import hyperdual as hd
from .errors import (DomainError, ExprDomainError, ParseError,
                     UnknownIdentifierError)
from .geometry import ChartKind
from .hyperdual import HyperDual, seed_variables

__all__ = ["parse", "eval_jet", "variable_names",
           "Num", "Name", "Unary", "Bin", "Call"]

_FUNCTIONS = {
    "sqrt": hd.sqrt, "exp": hd.exp, "log": hd.log,
    "sin": hd.sin, "cos": hd.cos, "tan": hd.tan,
    "sinh": hd.sinh, "cosh": hd.cosh, "tanh": hd.tanh,
}

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


# ----------------------------------------------------------------------- AST

@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Name:
    ident: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Unary:
    op: str             # only "neg"
    arg: object
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Bin:
    op: str             # + - * / ^
    left: object
    right: object
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object
    pos: int = field(default=0, compare=False)


def variable_names(n: int, chart_kind: ChartKind) -> list[str]:
    """Chart variables in coordinate order (derived ``r`` excluded for cartesian)."""
    chart_kind = ChartKind(chart_kind)
    if chart_kind == ChartKind.CARTESIAN:
        return [f"x{i + 1}" for i in range(n)]
    return ["r"] + [f"theta{j + 1}" for j in range(n - 2)] + ["phi"]


# -------------------------------------------------------------------- parser

class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            kind = m.lastgroup
            if kind != "ws":
                self.toks.append((kind, m.group(), pos))
            pos = m.end()
        self.toks.append(("end", "", len(text)))
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.next()


def parse(text: str, n: int, chart_kind: ChartKind | str = ChartKind.CARTESIAN,
          params: tuple[str, ...] = ()):
    """Parse ``text`` into an AST, validating identifiers against the chart."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    chart_kind = ChartKind(chart_kind)
    allowed = set(variable_names(n, chart_kind))
    if chart_kind == ChartKind.CARTESIAN:
        allowed.add("r")
    shadowed = sorted(allowed.intersection(params))
    if shadowed:
        raise ParseError(f"parameter {shadowed[0]!r} is a variable of the "
                         f"{chart_kind.value} chart")
    allowed.update(params)
    toks = _Tokens(text)
    ast = _parse_sum(toks)
    kind, tok_text, pos = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {tok_text!r}", pos)
    _check_idents(ast, allowed)
    return ast


def _check_idents(node, allowed):
    if isinstance(node, Name):
        if node.ident not in allowed:
            raise UnknownIdentifierError(
                f"unknown identifier {node.ident!r}", node.pos)
    elif isinstance(node, Unary):
        _check_idents(node.arg, allowed)
    elif isinstance(node, Bin):
        _check_idents(node.left, allowed)
        _check_idents(node.right, allowed)
    elif isinstance(node, Call):
        _check_idents(node.arg, allowed)


def _parse_sum(toks):
    node = _parse_product(toks)
    while True:
        kind, text, pos = toks.peek()
        if kind == "op" and text in "+-":
            toks.next()
            rhs = _parse_product(toks)
            node = Bin(text, node, rhs, pos)
        else:
            return node


def _parse_product(toks):
    node = _parse_unary(toks)
    while True:
        kind, text, pos = toks.peek()
        if kind == "op" and text in "*/":
            toks.next()
            rhs = _parse_unary(toks)
            node = Bin(text, node, rhs, pos)
        else:
            return node


def _parse_unary(toks):
    kind, text, pos = toks.peek()
    if kind == "op" and text == "-":
        toks.next()
        return Unary("neg", _parse_unary(toks), pos)
    if kind == "op" and text == "+":
        toks.next()
        return _parse_unary(toks)
    return _parse_power(toks)


def _parse_power(toks):
    base = _parse_atom(toks)
    kind, text, pos = toks.peek()
    if kind == "op" and text == "^":
        toks.next()
        # right-associative; unary minus allowed in the exponent
        exponent = _parse_unary(toks)
        return Bin("^", base, exponent, pos)
    return base


def _parse_atom(toks):
    kind, text, pos = toks.next()
    if kind == "num":
        value = float(text)
        if not np.isfinite(value):
            raise ParseError(f"number {text!r} is not finite", pos)
        return Num(value, pos)
    if kind == "ident":
        nkind, ntext, _ = toks.peek()
        if nkind == "op" and ntext == "(":
            if text not in _FUNCTIONS:
                raise UnknownIdentifierError(f"unknown function {text!r}", pos)
            toks.next()
            arg = _parse_sum(toks)
            toks.expect_op(")")
            return Call(text, arg, pos)
        return Name(text, pos)
    if kind == "op" and text == "(":
        node = _parse_sum(toks)
        toks.expect_op(")")
        return node
    if kind == "end":
        raise ParseError("unexpected end of expression", pos)
    raise ParseError(f"unexpected token {text!r}", pos)


# ----------------------------------------------------------------- evaluator

def eval_jet(ast, p: np.ndarray, params: dict | None = None,
             chart_kind: ChartKind | str | None = None) -> HyperDual:
    """Evaluate ``ast`` at ``p``: the hyper-dual of the evaluation, whose
    ``val``, ``grad`` and ``hess`` are the exact value, gradient and
    Hessian in the chart variables."""
    coords = np.asarray(p, dtype=float)
    chart_kind = ChartKind(chart_kind or ChartKind.CARTESIAN)
    params = dict(params or {})
    n = coords.shape[-1]
    variables = seed_variables(coords)
    env: dict[str, HyperDual] = dict(zip(variable_names(n, chart_kind), variables))
    if chart_kind == ChartKind.CARTESIAN:
        env["__cartesian_vars__"] = variables  # for lazy r
    return _eval(ast, env, params, n, coords.shape[:-1])


def _reads_variables(node, env) -> bool:
    """Whether ``node`` reads a chart variable or ``r``; parameters and
    numbers are constants.  Decided from the AST, not from a gradient that
    may vanish at every node of a batch."""
    if isinstance(node, Name):
        return node.ident in env or node.ident == "r"
    if isinstance(node, (Unary, Call)):
        return _reads_variables(node.arg, env)
    if isinstance(node, Bin):
        return (_reads_variables(node.left, env)
                or _reads_variables(node.right, env))
    return False


def _eval(node, env, params, n, shape):
    if isinstance(node, Num):
        return HyperDual.constant(node.value, n, shape)
    if isinstance(node, Name):
        ident = node.ident
        if ident in env:
            return env[ident]
        if ident == "r" and "__cartesian_vars__" in env:
            variables = env["__cartesian_vars__"]
            rsq = variables[0] * variables[0]
            for v in variables[1:]:
                rsq = rsq + v * v
            try:
                r = hd.sqrt(rsq)
            except DomainError as exc:
                raise ExprDomainError(
                    f"radius undefined at the origin: {exc}", node.pos) from exc
            env["r"] = r
            return r
        if ident in params:
            return HyperDual.constant(float(params[ident]), n, shape)
        raise UnknownIdentifierError(f"undeclared parameter {ident!r}", node.pos)
    if isinstance(node, Unary):
        return -_eval(node.arg, env, params, n, shape)
    if isinstance(node, Bin):
        left = _eval(node.left, env, params, n, shape)
        right = _eval(node.right, env, params, n, shape)
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return left / right
            if node.op == "^":
                if not _reads_variables(node.right, env):
                    # an empty batch has no node: any exponent will do
                    p = float(np.ravel(right.val)[0]) if right.val.size \
                        else 1.0
                    if not np.isfinite(p):
                        raise ExprDomainError(f"exponent {p} is not finite",
                                              node.pos)
                    return left ** p
                return left ** right
        except DomainError as exc:
            raise ExprDomainError(str(exc), node.pos) from exc
        raise ValueError(f"unknown operator {node.op!r}")
    if isinstance(node, Call):
        arg = _eval(node.arg, env, params, n, shape)
        try:
            return _FUNCTIONS[node.fn](arg)
        except DomainError as exc:
            raise ExprDomainError(f"{node.fn}: {exc}", node.pos) from exc
    raise TypeError(f"not an AST node: {node!r}")
