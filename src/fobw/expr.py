"""A small arithmetic expression language for order functions and forcing terms.

Grammar (precedence low to high; ^ is right-associative and binds tighter
than unary minus):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 't' | 'pi' | ('sin' | 'cos') '(' expr ')' | '(' expr ')'

Function application requires parentheses.  Evaluation is numpy-based so an
expression applies elementwise to arrays.
"""

from __future__ import annotations

from typing import NamedTuple, Union

import numpy as np


class ExpressionError(ValueError):
    """Parse failure; ``offset`` is the byte offset into the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class Num(NamedTuple):
    value: float


class TimeVar(NamedTuple):
    pass


class Neg(NamedTuple):
    arg: "Node"


class BinOp(NamedTuple):
    op: str
    left: "Node"
    right: "Node"


class Call(NamedTuple):
    name: str
    arg: "Node"


Node = Union[Num, TimeVar, Neg, BinOp, Call]

_FUNCTIONS = ("sin", "cos")
_CONSTANTS = {"pi": np.pi}


def _tokenize(src: str):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExpressionError(f"bad number literal {text!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        tok = self.advance()
        kind, text, offset = tok
        if kind == "num":
            return Num(text)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "ident":
            if text == "t":
                return TimeVar()
            if text in _CONSTANTS:
                return Num(_CONSTANTS[text])
            if text in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(text, arg)
            raise ExpressionError(f"unknown identifier {text!r}", offset)
        raise ExpressionError(f"expected a value, found {text!r}", offset)


def _eval_node(node: Node, t):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, TimeVar):
        return t
    if isinstance(node, Neg):
        return -_eval_node(node.arg, t)
    if isinstance(node, Call):
        fn = np.sin if node.name == "sin" else np.cos
        return fn(_eval_node(node.arg, t))
    left = _eval_node(node.left, t)
    right = _eval_node(node.right, t)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        return left / right
    return np.power(left, right)


def _print_node(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, TimeVar):
        return "t"
    if isinstance(node, Neg):
        return f"(-{_print_node(node.arg)})"
    if isinstance(node, Call):
        return f"{node.name}({_print_node(node.arg)})"
    return f"({_print_node(node.left)} {node.op} {_print_node(node.right)})"


class Expression(NamedTuple):
    """Parsed expression over the time variable t."""

    root: Node
    source: str

    def __call__(self, t):
        with np.errstate(all="ignore"):
            out = _eval_node(self.root, np.asarray(t, dtype=float))
        if np.ndim(t) == 0:
            return float(out)
        return np.asarray(out, dtype=float)

    def to_source(self) -> str:
        """Fully parenthesized rendering; re-parsing it evaluates identically."""
        return _print_node(self.root)


def parse_expression(src: str) -> Expression:
    """Parse source text into an Expression; raises ExpressionError with offset."""
    if not src or not src.strip():
        raise ExpressionError("empty expression", 0)
    return Expression(_Parser(src).parse(), src)
