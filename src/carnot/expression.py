"""Closed-form field expressions in x1..xn, parsed and never executed.

The text is read by Python's `ast` parser and checked once against a fixed
grammar: numbers, the names x1..xn, `pi` and `E`, the operators
`+ - * / **` (and `^`, read as `**`), unary `+`/`-`, and calls of the
functions in `_FUNCTIONS`.  Any other syntax is a ValueError, so config text
can name no Python object and run no code.  The checked tree is flattened
into a postfix tape; evaluating the tape gives the values alone, or the values
and their partial derivatives in one pass.  Each node's partials are kept only
for the coordinates it depends on.  Constants are `np.float64` and every
evaluation runs under `np.errstate(all="ignore")`: an overflow or a root of a
negative number gives `inf`/`nan`, never an exception or a complex value.
"""

from __future__ import annotations

import ast
import functools
import operator

import numpy as np

__all__ = ["Expression"]

_CONSTANTS = {"pi": np.float64(np.pi), "E": np.float64(np.e)}
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**"}
_UNARY = {ast.UAdd: "pos", ast.USub: "neg"}


def _scaled(partials: dict, factor) -> dict:
    return {k: factor * d for k, d in partials.items()}


def _summed(*parts: dict) -> dict:
    out = {}
    for partials in parts:
        for k, d in partials.items():
            out[k] = out[k] + d if k in out else d
    return out


def _chain(factor):
    """The rule of a one-argument function: the argument's partials times
    factor(argument, value)."""
    return lambda args, partials, value: _scaled(partials[0], factor(args[0], value))


def _power(args, partials, value):
    (a, b), (da, db) = args, partials
    out = _scaled(da, b * a ** (b - 1)) if da else {}
    return _summed(out, _scaled(db, value * np.log(a))) if db else out


def _extremum(args, partials, value):
    # the mean of the tied arguments' gradients: sympy's Heaviside(0) = 1/2
    ties = [np.equal(a, value).astype(float) for a in args]
    count = sum(ties)
    return _summed(*(_scaled(d, t / count) for t, d in zip(ties, partials)))


# name: (value function, partials rule).  A rule takes the operands, their
# partials and the node's value, and returns the node's partials
_RULES = {
    "+": (operator.add, lambda args, partials, value: _summed(*partials)),
    "-": (operator.sub, lambda args, partials, value:
          _summed(partials[0], _scaled(partials[1], -1.0))),
    "*": (operator.mul, lambda args, partials, value:
          _summed(_scaled(partials[0], args[1]), _scaled(partials[1], args[0]))),
    "/": (operator.truediv, lambda args, partials, value:
          _summed(_scaled(partials[0], 1.0 / args[1]), _scaled(partials[1], -value / args[1]))),
    "**": (operator.pow, _power),
    "pos": (operator.pos, lambda args, partials, value: partials[0]),
    "neg": (operator.neg, _chain(lambda a, value: -1.0)),
    "sqrt": (np.sqrt, _chain(lambda a, value: 0.5 / value)),
    "exp": (np.exp, _chain(lambda a, value: value)),
    "log": (np.log, _chain(lambda a, value: 1.0 / a)),
    "sin": (np.sin, _chain(lambda a, value: np.cos(a))),
    "cos": (np.cos, _chain(lambda a, value: -np.sin(a))),
    "tan": (np.tan, _chain(lambda a, value: value**2 + 1.0)),
    "Abs": (np.abs, _chain(lambda a, value: np.sign(a))),
    "Max": (lambda *args: functools.reduce(np.maximum, args), _extremum),
    "Min": (lambda *args: functools.reduce(np.minimum, args), _extremum),
}
# the functions a call may name, and their number of arguments (None: two or more)
_FUNCTIONS = {"sqrt": 1, "exp": 1, "log": 1, "sin": 1, "cos": 1, "tan": 1, "Abs": 1,
              "Max": None, "Min": None}

# a message quotes at most this many characters of the text it rejects
_QUOTED = 40


def _quote(value) -> str:
    """repr(value) for an error message; a longer text is cut to its first
    `_QUOTED` characters and its length, so the message stays one short line."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _QUOTED:
        return repr(value)
    return f"{text[:_QUOTED]!r}... ({len(text)} characters)"


class Expression:
    """A checked expression in x1..xn: `values(p)` and `egrad(p)` for points
    p of shape (count, n).  Raises ValueError when the text does not parse,
    uses syntax outside the grammar, names anything but x1..xn, `pi`, `E` and
    the functions, calls a function with the wrong number of arguments or
    with keywords, or holds an integer too large for a float."""

    def __init__(self, text, n: int):
        if not isinstance(text, str):
            raise ValueError(f"field expression must be a string, got {_quote(text)}")
        self.text, self.n = text, n
        self._names = {f"x{k + 1}": k for k in range(n)}
        # besides SyntaxError, the parser reports nesting too deep for it as a
        # RecursionError or MemoryError, and a null byte as a ValueError
        try:
            root = ast.parse(text.replace("^", "**").strip(), mode="eval").body
        except (SyntaxError, RecursionError, MemoryError, ValueError) as exc:
            raise ValueError(f"cannot parse field expression {_quote(text)}") from exc
        # children are pushed left to right and popped right first, so the
        # reversed visit order is postfix: operands before their operator
        tape, todo = [], [root]
        while todo:
            entry, children = self._check(todo.pop())
            tape.append(entry)
            todo.extend(children)
        self._tape = tape[::-1]

    def _reject(self, what: str):
        raise ValueError(f"field expression {_quote(self.text)} must be an expression in "
                         f"x1..x{self.n}: {what} is not allowed")

    def _check(self, node) -> tuple:
        """(tape entry, operand nodes) of one node of the tree."""
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, float):
                self._reject(f"the constant {_quote(node.value)}")
            try:
                return ("const", np.float64(node.value), 0), []
            except OverflowError:
                self._reject("an integer beyond the float range")
        if isinstance(node, ast.Name):
            if node.id in self._names:
                return ("var", self._names[node.id], 0), []
            if node.id in _CONSTANTS:
                return ("const", _CONSTANTS[node.id], 0), []
            self._reject(f"the name {_quote(node.id)}")
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return ("op", _BINARY[type(node.op)], 2), [node.left, node.right]
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            return ("op", _UNARY[type(node.op)], 1), [node.operand]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name, args = node.func.id, node.args
            if name not in _FUNCTIONS:
                self._reject(f"the function {_quote(name)}")
            if node.keywords:
                self._reject(f"a keyword argument to {name}")
            arity = _FUNCTIONS[name]
            if (len(args) < 2) if arity is None else (len(args) != arity):
                self._reject(f"{name}() with {len(args)} argument(s)")
            return ("op", name, len(args)), list(args)
        self._reject(type(node).__name__)

    def _run(self, p, with_partials: bool):
        """The tape's value at p, or (value, {coordinate: partial}) with a
        partial for each coordinate the value depends on."""
        stack = []
        with np.errstate(all="ignore"):
            for kind, arg, arity in self._tape:
                if kind == "const":
                    stack.append((arg, {}) if with_partials else arg)
                elif kind == "var":
                    col = p[:, arg]
                    stack.append((col, {arg: np.float64(1.0)}) if with_partials else col)
                else:
                    fn, rule = _RULES[arg]
                    operands = stack[len(stack) - arity:]
                    del stack[len(stack) - arity:]
                    if not with_partials:
                        stack.append(fn(*operands))
                        continue
                    args = [a for a, _ in operands]
                    partials = [d for _, d in operands]
                    value = fn(*args)
                    stack.append((value, rule(args, partials, value) if any(partials) else {}))
        return stack[0]

    def values(self, p) -> np.ndarray:
        p = np.atleast_2d(np.asarray(p, dtype=float))
        return np.array(np.broadcast_to(self._run(p, False), (len(p),)), dtype=float)

    def egrad(self, p) -> np.ndarray:
        """The Euclidean gradient, shape (count, n)."""
        p = np.atleast_2d(np.asarray(p, dtype=float))
        out = np.zeros((len(p), self.n))
        for k, d in self._run(p, True)[1].items():
            out[:, k] = d
        return out
