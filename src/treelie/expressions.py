"""Arithmetic expression parsing, symbolic differentiation, and evaluation.

Grammar: numbers (integer or decimal), variables x1..xn, the constant pi,
calls sin/cos/exp, operators + - * / ^ with the usual precedence
(^ binds tightest and associates right, then unary minus, then * /,
then + -), and parentheses. Errors carry the byte offset.

Decimal literals are held as exact fractions so polynomial-mode
expressions stay exact; pi folds to a float only at evaluation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import ExpressionError
from .polynomials import MultiPoly

__all__ = [
    "ExprNode",
    "Num",
    "Pi",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse_expression",
    "diff_expr",
    "evaluate",
    "to_multipoly",
    "is_polynomial",
]


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    arg: "ExprNode"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Call:
    fn: str  # sin | cos | exp
    arg: "ExprNode"


ExprNode = Union[Num, Pi, Var, Neg, BinOp, Call]

_FUNCTIONS = ("sin", "cos", "exp")


# ------------------------------------------------------------------ parsing


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i
                seen_dot = False
                while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                    seen_dot = seen_dot or text[j] == "."
                    j += 1
                self.tokens.append(("num", text[i:j], i))
                i = j
                continue
            if c.isalpha():
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            if c in "+-*/^()":
                self.tokens.append((c, c, i))
                i += 1
                continue
            raise ExpressionError(f"unexpected character {c!r}", i)
        self.tokens.append(("end", "", n))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok


def parse_expression(text: str, n: int) -> ExprNode:
    """Parse against n declared variables x1..xn."""
    if not text or not text.strip():
        raise ExpressionError("empty expression", 0)
    toks = _Tokens(text)
    try:
        ast = _parse_sum(toks, n)
    except RecursionError:
        raise ExpressionError("expression nested too deeply", toks.peek()[2]) from None
    kind, _, off = toks.peek()
    if kind != "end":
        raise ExpressionError("unexpected trailing input", off)
    return ast


def _parse_sum(toks, n):
    node = _parse_product(toks, n)
    while toks.peek()[0] in ("+", "-"):
        op, _, _ = toks.advance()
        node = BinOp(op, node, _parse_product(toks, n))
    return node


def _parse_product(toks, n):
    node = _parse_unary(toks, n)
    while toks.peek()[0] in ("*", "/"):
        op, _, _ = toks.advance()
        node = BinOp(op, node, _parse_unary(toks, n))
    return node


def _parse_unary(toks, n):
    if toks.peek()[0] == "-":
        toks.advance()
        return Neg(_parse_unary(toks, n))
    if toks.peek()[0] == "+":
        toks.advance()
        return _parse_unary(toks, n)
    return _parse_power(toks, n)


def _parse_power(toks, n):
    base = _parse_atom(toks, n)
    if toks.peek()[0] == "^":
        toks.advance()
        # right associative; unary minus allowed in the exponent
        exponent = _parse_unary(toks, n)
        return BinOp("^", base, exponent)
    return base


def _parse_atom(toks, n):
    kind, text, off = toks.advance()
    if kind == "num":
        if "." in text:
            whole, frac = text.split(".")
            denom = 10 ** len(frac)
            value = Fraction(int(whole or 0) * denom + int(frac or 0), denom)
        else:
            value = Fraction(int(text))
        return Num(value)
    if kind == "name":
        if text == "pi":
            return Pi()
        if text in _FUNCTIONS:
            k, _, o = toks.advance()
            if k != "(":
                raise ExpressionError(f"expected '(' after {text}", o)
            arg = _parse_sum(toks, n)
            k, _, o = toks.advance()
            if k != ")":
                raise ExpressionError("expected ')'", o)
            return Call(text, arg)
        if text.startswith("x") and text[1:].isdigit():
            idx = int(text[1:])
            if not 1 <= idx <= n:
                raise ExpressionError(f"variable out of range", off)
            return Var(idx)
        raise ExpressionError(f"unknown identifier {text!r}", off)
    if kind == "(":
        node = _parse_sum(toks, n)
        k, _, o = toks.advance()
        if k != ")":
            raise ExpressionError("expected ')'", o)
        return node
    raise ExpressionError("expected a value", off)


# ----------------------------------------------------------- differentiation


def _num(v) -> ExprNode:
    return Num(Fraction(v))


def _is_const(node, value=None):
    return isinstance(node, Num) and (value is None or node.value == value)


def _add(a, b):
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a, b):
    if _is_const(b, 0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return BinOp("-", a, b)


def _mul(a, b):
    if _is_const(a, 0) or _is_const(b, 0):
        return _num(0)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return BinOp("*", a, b)


def diff_expr(node: ExprNode, var: int) -> ExprNode:
    """Exact structural derivative with constant folding."""
    if isinstance(node, (Num, Pi)):
        return _num(0)
    if isinstance(node, Var):
        return _num(1 if node.index == var else 0)
    if isinstance(node, Neg):
        d = diff_expr(node.arg, var)
        return _num(0) if _is_const(d, 0) else Neg(d)
    if isinstance(node, Call):
        inner = diff_expr(node.arg, var)
        if node.fn == "sin":
            outer = Call("cos", node.arg)
        elif node.fn == "cos":
            outer = Neg(Call("sin", node.arg))
        else:
            outer = node
        return _mul(inner, outer)
    if isinstance(node, BinOp):
        a, b = node.left, node.right
        da, db = diff_expr(a, var), diff_expr(b, var)
        if node.op == "+":
            return _add(da, db)
        if node.op == "-":
            return _sub(da, db)
        if node.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if node.op == "/":
            num = _sub(_mul(da, b), _mul(a, db))
            return BinOp("/", num, BinOp("^", b, _num(2)))
        if node.op == "^":
            if not _is_const(db, 0):
                raise ExpressionError("derivative of a non-constant exponent is unsupported")
            if isinstance(b, Num) and b.value == 0:
                return _num(0)
            new_exp = _sub(b, _num(1))
            return _mul(_mul(b, BinOp("^", a, new_exp)), da)
    raise TypeError(f"unknown node {node!r}")


# -------------------------------------------------------------- evaluation


def evaluate(node: ExprNode, values: Sequence[float]):
    """Evaluate at a point; numpy arrays broadcast elementwise."""
    if isinstance(node, Num):
        return float(node.value)
    if isinstance(node, Pi):
        return math.pi
    if isinstance(node, Var):
        return values[node.index - 1]
    if isinstance(node, Neg):
        return -evaluate(node.arg, values)
    if isinstance(node, Call):
        fn = {"sin": np.sin, "cos": np.cos, "exp": np.exp}[node.fn]
        return fn(evaluate(node.arg, values))
    if isinstance(node, BinOp):
        a = evaluate(node.left, values)
        b = evaluate(node.right, values)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        power = a ** b
        # a negative float to a fractional power is complex in Python;
        # numpy arrays give NaN there, and so do constants
        return math.nan if isinstance(power, complex) else power
    raise TypeError(f"unknown node {node!r}")


# ------------------------------------------------------------- polynomials


def is_polynomial(node: ExprNode) -> bool:
    try:
        _fold_poly(node, 0)
        return True
    except ExpressionError:
        return False


def to_multipoly(node: ExprNode, n: int) -> MultiPoly:
    """Exact polynomial form; rejects pi, transcendentals, non-constant
    divisors, and non-integer exponents."""
    return _fold_poly(node, n)


def _fold_poly(node: ExprNode, n: int) -> MultiPoly:
    if isinstance(node, Num):
        return MultiPoly.const(node.value)
    if isinstance(node, Pi):
        raise ExpressionError("pi is not allowed in polynomial mode")
    if isinstance(node, Var):
        return MultiPoly.var(f"x{node.index}")
    if isinstance(node, Neg):
        return -_fold_poly(node.arg, n)
    if isinstance(node, Call):
        raise ExpressionError(f"{node.fn} is not allowed in polynomial mode")
    if isinstance(node, BinOp):
        a = _fold_poly(node.left, n)
        if node.op == "^":
            b = _fold_poly(node.right, n)
            c = b.constant_term()
            if b.variables_used() or c.denominator != 1 or c < 0:
                raise ExpressionError("exponent must be a nonnegative integer")
            return a ** int(c)
        b = _fold_poly(node.right, n)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            c = b.constant_term()
            if b.variables_used() or c == 0:
                raise ExpressionError("divisor must be a nonzero constant")
            return a * MultiPoly.const(Fraction(1) / c)
    raise TypeError(f"unknown node {node!r}")
