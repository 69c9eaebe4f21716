"""A small arithmetic expression language for orders and forcing terms.

The language has numbers (``2``, ``007``, ``0.5``, ``.5``, ``3.``, ``1e-3``,
digits 0-9 only), ``t``, ``pi``, ``+ - * / ^``, unary minus, parentheses, and
``sin(...)`` and ``cos(...)`` of one argument; any whitespace separates
tokens.  ``*`` and ``/`` bind tighter than ``+`` and ``-``, and all four
associate to the left.  ``^`` is right-associative, binds tighter than unary
minus, and its exponent may carry a minus: ``-2^-3^2`` is ``-(2^(-(3^2)))``.
A regex splits the text into tokens, and precedence climbing with an
explicit operator stack turns them into a flat postfix program, which
:class:`Expression` runs with a loop and a value stack, never by ``eval``;
neither step recurses, and evaluation is elementwise over arrays of t.
"""

from __future__ import annotations

import operator
import re
from typing import NamedTuple

import numpy as np


class ExpressionError(ValueError):
    """Parse failure; ``offset`` is the character offset into the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


#: each binary operator's precedence and function
_BINARY = {"+": (1, operator.add), "-": (1, operator.sub), "*": (2, operator.mul),
           "/": (2, operator.truediv), "^": (4, np.power)}
_FUNCTIONS = {"sin": np.sin, "cos": np.cos}
_VALUES = {"t": None, "pi": np.float64(np.pi)}
_TOKEN = re.compile(r"\s*(?:(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
                    r"|(?P<call>[A-Za-z_][A-Za-z0-9_]*)\s*\(|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<symbol>\S))")
#: most parentheses, unary minuses and exponents open at once; deeper text is refused
_MAX_DEPTH = 500


class Expression(NamedTuple):
    """Parsed expression over the time variable t: a postfix program of
    ``(arity, item)`` steps, where an item of arity 0 is a value (None for t)
    and any other item is the function applied to the last ``arity`` values."""

    program: tuple
    source: str

    @property
    def number(self) -> float | None:
        """The value of an expression that is one number, such as ``(2)``; else None."""
        (_, item), *rest = self.program
        return None if rest or item is None else float(item)

    def __call__(self, t):
        """The value at a point (a float) or at an array of points (an array of its shape)."""
        t = np.asarray(t, dtype=float)
        stack = []
        with np.errstate(all="ignore"):
            for arity, item in self.program:
                if arity == 0:
                    stack.append(t if item is None else item)
                elif arity == 1:
                    stack[-1] = item(stack[-1])
                else:
                    right = stack.pop()
                    stack[-1] = item(stack[-1], right)
        (out,) = stack
        if t.ndim == 0:
            return float(out)
        return out if np.shape(out) == t.shape else np.full(t.shape, out)


def parse_expression(src: str) -> Expression:
    """Parse source text into an Expression; raises ExpressionError with offset."""
    program = []
    pending = []  # (precedence, depth, step) of each operator and open parenthesis

    def push(precedence, step, nests=True):
        depth = (pending[-1][1] if pending else 0) + nests
        if depth > _MAX_DEPTH:
            raise ExpressionError("expression is nested too deeply", 0)
        pending.append((precedence, depth, step))

    def emit_above(precedence):
        while pending and pending[-1][0] > precedence:
            program.append(pending.pop()[2])

    tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)) for m in _TOKEN.finditer(src)]
    if not tokens:
        raise ExpressionError("empty expression", 0)
    operand = True  # whether an operand comes next, or else an operator, ')' or the end
    for kind, text, at in tokens + [("end", None, len(src))]:
        got = "the end" if kind == "end" else repr(text)
        if operand:
            if kind == "number" or kind == "name" and text in _VALUES:
                program.append((0, np.float64(float(text)) if kind == "number" else _VALUES[text]))
                operand = False
            elif kind == "call" and text in _FUNCTIONS:
                push(0, (1, _FUNCTIONS[text]))
            elif text == "(":
                push(0, None)
            elif text == "-":
                push(3, (1, operator.neg))  # unary minus binds between * and ^
            elif kind == "name" and text in _FUNCTIONS:
                raise ExpressionError(f"expected '(' after {text!r}", at + len(text))
            elif kind in ("name", "call"):
                what = "identifier" if kind == "name" else "function"
                raise ExpressionError(f"unknown {what} {text!r}", at)
            else:
                raise ExpressionError(f"expected a number, t, pi, sin(, cos(, '(' or '-', "
                                      f"got {got}", at)
        elif text in _BINARY:
            precedence, function = _BINARY[text]
            emit_above(precedence - (text != "^"))  # all but ^ associate to the left
            push(precedence, (2, function), nests=text == "^")
            operand = True
        else:  # ')' or the end closes everything down to the innermost '('
            emit_above(0)
            if kind == "end" and not pending:
                return Expression(tuple(program), src)
            if text != ")" or not pending:
                closing = " or ')'" if pending else ""
                raise ExpressionError(f"expected an operator{closing}, got {got}", at)
            step = pending.pop()[2]
            if step:  # the function of a call
                program.append(step)
