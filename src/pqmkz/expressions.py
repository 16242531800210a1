"""Minimal recursive-descent parser for function expressions over one variable.

Grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' factor)?          # right associative
    base   := NUMBER | VAR | '(' expr ')' | FUNC '(' expr ')'
    FUNC   := sin | cos | exp | abs | sqrt

Printing fully parenthesizes, so print-then-parse reproduces the tree.
Evaluation is vectorized over a float array of points, and a single point is
a one-element view of the same code.  Division by zero, invalid values (sqrt
of a negative, a fractional power of a negative, 0/0) and overflow raise
EvalError, which the CLI reports as a usage error (exit 2).  Numeric
literals must be finite.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "ParseError",
    "EvalError",
    "Expression",
    "parse_function",
]

FUNCS = ("sin", "cos", "exp", "abs", "sqrt")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Var, BinOp, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at + 1)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, var: str):
        self.text = text
        self.var = var
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text) + 1)
        self.i += 1
        return tok

    def _expect(self, op: str):
        tok = self._next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}, found {tok[1]!r}", tok[2])

    def parse(self) -> Node:
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Node:
        node = self.term()
        while (tok := self._peek()) and tok[0] == "op" and tok[1] in "+-":
            self._next()
            node = BinOp(tok[1], node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while (tok := self._peek()) and tok[0] == "op" and tok[1] in "*/":
            self._next()
            node = BinOp(tok[1], node, self.factor())
        return node

    def factor(self) -> Node:
        node = self.base()
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self._next()
            node = BinOp("^", node, self.factor())
        return node

    def base(self) -> Node:
        tok = self._next()
        kind, text, pos = tok
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text!r} is out of range", pos)
            return Num(value)
        if kind == "name":
            nxt = self._peek()
            if nxt and nxt[0] == "op" and nxt[1] == "(":
                if text not in FUNCS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self._next()
                arg = self.expr()
                self._expect(")")
                return Call(text, arg)
            if text != self.var:
                raise ParseError(f"unknown identifier {text!r}", pos)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self._expect(")")
            return node
        raise ParseError(f"unexpected token {text!r}", pos)


_ARRAY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "sqrt": np.sqrt,
}


def _eval_array(node: Node, var: str, xs: np.ndarray) -> np.ndarray:
    if isinstance(node, Num):
        return np.full_like(xs, node.value, dtype=float)
    if isinstance(node, Var):
        return np.asarray(xs, dtype=float)
    if isinstance(node, Call):
        return _ARRAY_FUNCS[node.func](_eval_array(node.arg, var, xs))
    a = _eval_array(node.left, var, xs)
    b = _eval_array(node.right, var, xs)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return a ** b


def _to_text(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_to_text(node.arg)})"
    return f"({_to_text(node.left)}{node.op}{_to_text(node.right)})"


@dataclass(frozen=True)
class Expression:
    root: Node
    var: str = "x"

    def evaluate_array(self, xs: np.ndarray) -> np.ndarray:
        """The one evaluator: values at every point of xs, same shape."""
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            try:
                return _eval_array(self.root, self.var, np.asarray(xs, dtype=float))
            except FloatingPointError as exc:
                raise EvalError(str(exc)) from exc

    def __call__(self, x: float) -> float:
        # one-element view of evaluate_array, so both agree bit for bit
        return float(self.evaluate_array(np.array([x], dtype=float))[0])

    def to_text(self) -> str:
        return _to_text(self.root)


def parse_function(text: str, var: str = "x") -> Expression:
    """Parse an expression over the variable var."""
    if not text or not text.strip():
        raise ParseError("empty expression", 1)
    return Expression(_Parser(text, var).parse(), var)
