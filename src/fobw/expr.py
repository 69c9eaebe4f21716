"""A small arithmetic expression language for order functions and forcing terms.

The language is a subset of Python expressions, with ``^`` for the power:
numbers, ``t``, ``pi``, ``+ - * / ^``, unary minus, and ``sin(...)`` and
``cos(...)`` of one argument.  ``^`` is right-associative and binds tighter
than unary minus, as Python's ``**`` does, so Python's own parser reads the
text once each ``^`` is written ``**`` (``**`` itself is rejected).  The tree
is checked against the language and evaluated by a numpy walker over its
nodes, never by ``eval``; evaluation is elementwise over arrays of t.
"""

from __future__ import annotations

import ast
import operator
import re
from typing import NamedTuple

import numpy as np


class ExpressionError(ValueError):
    """Parse failure; ``offset`` is the character offset into the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: np.power}
_FUNCTIONS = {"sin": np.sin, "cos": np.cos}
_PI = np.float64(np.pi)
_NUMBER = re.compile(r"[0-9.]+([eE][+-]?[0-9]+)?")  # a number as it may be spelled
#: deepest tree accepted; checking and evaluating a tree recurse once per
#: level, so this stays well under Python's recursion limit (1000) wherever
#: the expression is later evaluated
_MAX_DEPTH = 500


def _check(node: ast.expr, code: str, where, depth: int = 1) -> None:
    """Raise ExpressionError at the first node, in source order, outside the
    language or deeper than ``_MAX_DEPTH``; ``where`` turns a position in
    ``code`` into one in the user's text.  Each number literal's value becomes
    its ``np.float64``."""
    if depth > _MAX_DEPTH:
        raise ExpressionError("expression is nested too deeply", 0)
    text = code[node.col_offset : node.end_col_offset]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        _check(node.left, code, where, depth + 1)
        _check(node.right, code, where, depth + 1)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        _check(node.operand, code, where, depth + 1)
    elif isinstance(node, ast.Call):
        func, args = node.func, node.args
        # a parenthesized name, a second argument or a trailing comma is not a call
        if (getattr(func, "id", None) not in _FUNCTIONS or func.col_offset != node.col_offset
                or len(args) != 1 or node.keywords
                or "," in code[args[0].end_col_offset : node.end_col_offset]):
            raise ExpressionError(f"not a call of sin or cos with one argument: {text!r}",
                                  where(node.col_offset))
        _check(args[0], code, where, depth + 1)
    elif isinstance(node, ast.Name):
        if node.id not in ("t", "pi"):
            raise ExpressionError(f"unknown identifier {node.id!r}", where(node.col_offset))
    elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
          and _NUMBER.fullmatch(text)):
        node.value = np.float64(float(text))
    else:
        raise ExpressionError(f"unsupported syntax {text!r}", where(node.col_offset))


def _evaluate(node: ast.expr, t):
    if isinstance(node, ast.BinOp):
        return _BINARY[type(node.op)](_evaluate(node.left, t), _evaluate(node.right, t))
    if isinstance(node, ast.UnaryOp):
        return -_evaluate(node.operand, t)
    if isinstance(node, ast.Call):
        return _FUNCTIONS[node.func.id](_evaluate(node.args[0], t))
    if isinstance(node, ast.Name):
        return t if node.id == "t" else _PI
    return node.value


class Expression(NamedTuple):
    """Parsed expression over the time variable t."""

    root: ast.expr
    source: str

    def __call__(self, t):
        """The value at a point (a float) or at an array of points (an array of its shape)."""
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            out = _evaluate(self.root, t)
        if t.ndim == 0:
            return float(out)
        return out if np.shape(out) == t.shape else np.full(t.shape, out)


def parse_expression(src: str) -> Expression:
    """Parse source text into an Expression; raises ExpressionError with offset."""
    text = re.sub(r"\s", " ", src)  # any whitespace separates tokens, as a blank does
    if not text.strip():
        raise ExpressionError("empty expression", 0)
    # '**' is spelled '^', Python would skip a comment, and names and numbers are ASCII
    bad = re.search(r"\*\*|#|[^ -~]", text)
    if bad:
        raise ExpressionError(f"unexpected character {bad[0][-1]!r}", bad.end() - 1)
    # float() reads a whole number with leading zeros, Python's parser does not
    text = re.sub(r"(?<![\w.])(?<![eE][+-])0+(?=\d)", lambda zeros: " " * len(zeros[0]), text)
    code = text.replace("^", "**")
    body = code.lstrip()
    lead = len(code) - len(body)

    def where(at: int) -> int:
        return _source_offset(text, lead + at)

    try:
        tree = ast.parse(body, mode="eval")
        _check(tree.body, body, where)
    except SyntaxError as exc:
        raise ExpressionError(exc.msg, where(exc.offset - 1 if exc.offset else len(body))) from None
    except (RecursionError, MemoryError):
        raise ExpressionError("expression is nested too deeply", 0) from None
    return Expression(tree.body, src)


def _source_offset(text: str, at: int) -> int:
    """Offset in ``text`` of character ``at`` of ``text`` with each '^' written '**'."""
    for i, ch in enumerate(text):
        at -= 2 if ch == "^" else 1
        if at < 0:
            return i
    return len(text)
