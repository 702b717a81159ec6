"""Translated-parameter vectors and the invariant-expression language.

Expressions are built from m1..m9, the mean M, pi, e, arithmetic
(+ - * / ^ with ^ binding tighter than unary minus and associating right),
and the function set sin cos tan sinh cosh tanh exp ln sqrt abs.  One
evaluator, each function and operator a numpy operation beside the domain
rules that guard it, serves a single point and the invariance check's
draws.  An expression is *translation invariant* when shifting every
parameter by the same integer leaves its value unchanged; the check is
numerical, over random draws, and marks the expression VERIFIED on success.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import random
import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Union

import numpy as np

from .errors import EvalDomainError, ExpressionError, ValidationError

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "ln", "sqrt", "abs")
_PARAM_NAMES = tuple(f"m{i}" for i in range(1, 10))
NAMES = _PARAM_NAMES + ("M", "pi", "e")


def fsum(values) -> float:
    """math.fsum, or the plain sum (inf or nan) where fsum overflows or meets inf - inf."""
    values = list(values)
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return sum(values, 0.0)


@dataclass(frozen=True)
class ParamVector:
    """Point in parameter space; translation shifts every entry together."""

    m: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= len(self.m) <= 9:
            raise ValidationError(f"parameter vector needs 1..9 entries, got {len(self.m)}")
        object.__setattr__(self, "m", tuple(float(v) for v in self.m))

    @property
    def n(self) -> int:
        return len(self.m)

    @property
    def mean(self) -> float:
        return fsum(self.m) / len(self.m)

    def translate(self, t: float) -> "ParamVector":
        return ParamVector(tuple(v - t for v in self.m))


# AST nodes; frozen dataclasses compare structurally, which is what the
# round-trip contract parse(print(ast)) == ast needs.

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Bin:
    op: str
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Num, Sym, Neg, Bin, Call]


# one token per match over the DSL's ASCII alphabet: a blank run, an
# operator, a run of digits and dots, a name, or any other character
_TOKEN = re.compile(r"(?P<blank>\s+)|(?P<op>[-+*/^()])|(?P<num>[0-9.]+)"
                    r"|(?P<name>[A-Za-z]\w*)|(?P<bad>.)", re.ASCII | re.DOTALL)


def _tokens(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN.finditer(src):
        kind, text, off = match.lastgroup, match.group(), match.start()
        if kind == "bad":
            raise ExpressionError(f"unexpected character {text!r} at offset {off}", off)
        if kind == "num" and (text == "." or text.count(".") > 1):
            raise ExpressionError(f"malformed number at offset {off}", off)
        if kind != "blank":
            tokens.append((kind, text, off))
    return tokens + [("end", "", len(src))]


# deepest nesting the parser accepts: each parenthesis, call, unary minus,
# exponent and chained operator counts one level, so the tree walks
# (to_source, _evaluate, max_param_index) take at most two frames per level
# and the parser about five, far below Python's limit
MAX_NESTING = 100


class _Parser:
    """Recursive descent over: expr > term > factor > power > atom."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokens(src)
        self.idx = 0
        self.depth = 0

    def deeper(self, off: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionError(
                f"expression nests deeper than {MAX_NESTING} levels at offset {off}", off)

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExpressionError(f"expected {op!r} at offset {off}", off)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input {text!r} at offset {off}", off)
        return node

    def chain(self, ops: str, operand) -> Node:
        """A left-associated chain of ops; each link nests one level deeper."""
        outer = self.depth
        node = operand()
        while True:
            kind, text, off = self.peek()
            if kind != "op" or text not in ops:
                self.depth = outer
                return node
            self.advance()
            self.deeper(off)
            node = Bin(text, node, operand())

    def expr(self) -> Node:
        return self.chain("+-", self.term)

    def term(self) -> Node:
        return self.chain("*/", self.factor)

    def nested(self, off: int, parse) -> Node:
        self.deeper(off)
        node = parse()
        self.depth -= 1
        return node

    def factor(self) -> Node:
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.nested(off, self.factor))
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Bin("^", base, self.nested(off, self.factor))
        return base

    def atom(self) -> Node:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.nested(off, self.expr)
                self.expect_op(")")
                return Call(text, arg)
            if text in NAMES:
                return Sym(text)
            raise ExpressionError(f"unknown identifier {text!r} at offset {off}", off)
        if kind == "op" and text == "(":
            node = self.nested(off, self.expr)
            self.expect_op(")")
            return node
        raise ExpressionError(f"expected a value at offset {off}", off)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}    # unary minus is 3, an atom 5


def _prec(node: Node) -> int:
    return _PREC[node.op] if isinstance(node, Bin) else 3 if isinstance(node, Neg) else 5


def _num_literal(v: float) -> str:
    # Plain decimal only: the lexer has no exponent syntax ('e' is Euler's
    # number), so expand while keeping exact float round-trip.
    if not math.isfinite(v):
        raise ValidationError(f"cannot print non-finite literal {v}")
    return format(Decimal(repr(v)), "f")


def _operand(node: Node, at_most: int) -> str:
    """to_source of an operand, in parentheses if it binds at most at_most tightly."""
    text = to_source(node)
    return f"({text})" if _prec(node) <= at_most else text


def to_source(node: Node) -> str:
    """Minimal-parenthesis form; parse(to_source(ast)) == ast."""
    if isinstance(node, Num):
        return _num_literal(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_source(node.arg)})"
    if isinstance(node, Neg):
        return "-" + _operand(node.arg, 2)
    if isinstance(node, Bin):
        # ^ associates right and its exponent is a factor; the rest associate left
        p = _PREC[node.op]
        lhs_max, rhs_max = (p, 2) if node.op == "^" else (p - 1, p)
        return f"{_operand(node.lhs, lhs_max)}{node.op}{_operand(node.rhs, rhs_max)}"
    raise TypeError(f"not an AST node: {node!r}")


@dataclass(frozen=True)
class InvariantExpr:
    """Parsed expression; `verified` is set only by the invariance check."""

    source: str
    ast: Node
    verified: bool = False

    def max_param_index(self) -> int:
        return self._max_param_index

    # computed once per expression and kept outside the dataclass fields, so
    # ==, repr and dataclasses.replace do not see them
    @functools.cached_property
    def _max_param_index(self) -> int:
        return max((int(name[1:]) for name in self._names if name in _PARAM_NAMES), default=0)

    @functools.cached_property
    def _names(self) -> frozenset:
        """The names the expression reads."""
        def walk(node: Node) -> set:
            if isinstance(node, Sym):
                return {node.name}
            if isinstance(node, Bin):
                return walk(node.lhs) | walk(node.rhs)
            if isinstance(node, (Neg, Call)):
                return walk(node.arg)
            return set()
        return frozenset(walk(self.ast))


def parse_invariant(source: str) -> InvariantExpr:
    ast = _Parser(source).parse()
    return InvariantExpr(source=to_source(ast), ast=ast)


def _infinite(y, x):
    """An infinite argument."""
    return abs(x) == math.inf


def _overflow(y, a, b=0.0):
    """An infinite result of finite arguments."""
    return (abs(y) == math.inf) & (abs(a) < math.inf) & (abs(b) < math.inf)


# each function and operator: its numpy form and the domain rules that guard
# it, as (rule, reason); a rule takes the result and the arguments and marks
# the points where the expression has no value
_DOMAIN = {
    "sin": (np.sin, ((_infinite, "sin of an infinite value"),)),
    "cos": (np.cos, ((_infinite, "cos of an infinite value"),)),
    "tan": (np.tan, ((_infinite, "tan of an infinite value"),)),
    "sinh": (np.sinh, ((_overflow, "overflow in sinh"),)),
    "cosh": (np.cosh, ((_overflow, "overflow in cosh"),)),
    "tanh": (np.tanh, ()),
    "exp": (np.exp, ((_overflow, "overflow in exp"),)),
    "ln": (np.log, ((lambda y, x: x <= 0.0, "ln of a non-positive value"),)),
    "sqrt": (np.sqrt, ((lambda y, x: x < 0.0, "sqrt of a negative value"),)),
    "abs": (abs, ()),
    "+": (operator.add, ()),
    "-": (operator.sub, ()),
    "*": (operator.mul, ()),
    "/": (operator.truediv, ((lambda y, a, b: b == 0.0, "division by zero"),)),
    # b % 1 is nan for an infinite or nan b, so only integer exponents pass
    "^": (operator.pow, ((lambda y, a, b: (a == 0.0) & (b < 0.0),
                          "zero raised to a negative power"),
                         (lambda y, a, b: (a < 0.0) & (b % 1.0 != 0.0),
                          "negative base with a non-integer exponent"),
                         (_overflow, "overflow in ^"))),
}
_PI, _E = np.float64(math.pi), np.float64(math.e)


def _evaluate(node: Node, env: dict, fail):
    """The value of node at the points of env: numpy scalars, or arrays of
    one shape.  Every rule of _DOMAIN is passed to fail(bad, reason) as its
    mask, children before parents and left before right; the values at the
    points a rule marks are arbitrary.  Run it under np.errstate."""
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Sym):
        return env[node.name]
    if isinstance(node, Neg):
        return -_evaluate(node.arg, env, fail)
    if isinstance(node, Call):
        key, args = node.fn, (_evaluate(node.arg, env, fail),)
    else:
        key, args = node.op, (_evaluate(node.lhs, env, fail), _evaluate(node.rhs, env, fail))
    ufunc, rules = _DOMAIN[key]
    y = ufunc(*args)
    for rule, reason in rules:
        fail(rule(y, *args), reason)
    return y


def _value(expr: InvariantExpr, env: dict, fail):
    """_evaluate, with a non-finite value as the last rule; where a rule
    fails there is no value (a single point raises, a draw is redrawn)."""
    y = _evaluate(expr.ast, env, fail)
    # y - y is 0 where y is finite and nan where it is not
    fail(y - y != 0.0, "the expression has no finite value")
    return y


def _env(expr: InvariantExpr, ms, mean) -> dict:
    """The names bound at points whose parameters are ms, with M = mean()
    only where expr reads it."""
    env = dict(zip(_PARAM_NAMES, ms), pi=_PI, e=_E)
    if "M" in expr._names:
        env["M"] = mean()
    return env


def _raise(bad, reason: str) -> None:
    if bad:
        raise EvalDomainError(reason)


def eval_invariant(expr: InvariantExpr, p: ParamVector) -> float:
    need = expr.max_param_index()
    if need > p.n:
        raise EvalDomainError(f"expression uses m{need} but the vector has n={p.n}")
    env = _env(expr, map(np.float64, p.m), lambda: np.float64(p.mean))
    with np.errstate(all="ignore"):
        return float(_value(expr, env, _raise))


@dataclass(frozen=True)
class Violation:
    m: tuple[float, ...]
    shift: int
    delta: float


@dataclass(frozen=True)
class InvarianceResult:
    expr: str
    verified: bool
    trials: int
    tol: float
    violation: Violation | None = None

    def to_json(self) -> dict:
        out = {"expr": self.expr, "verified": self.verified,
               "trials": self.trials, "tol": self.tol}
        if self.violation is not None:
            out["violation"] = {
                "expr": self.expr,
                "m": list(self.violation.m),
                "shift": self.violation.shift,
                "delta": self.violation.delta,
            }
        return out


SHIFTS = (1, 2, 3)
_RESAMPLE_CAP = 10
_DRAW_BLOCK = 1024    # draws per array pass, so memory stays bounded in `trials`


def _stops(expr: InvariantExpr, m: np.ndarray, tol: float):
    """The stop of each draw (a row of m), the shifts' deltas, and at each
    point (row 0 the base, row s the shift s) why it has no value, or "".

    The stop of a draw is the first of these that holds, or 7 if none does:
    0 no value at the base point, then for each shift s, 2s - 1 no value
    there and 2s the shift moving the value past tol (1 + |value|).
    """
    k, n = m.shape
    pts = m - np.array((0,) + SHIFTS, dtype=float)[:, None, None]
    # M by fsum, as ParamVector has it
    env = _env(expr, pts.transpose(2, 0, 1), lambda: np.array(
        [math.fsum(row) for row in pts.reshape(-1, n).tolist()]).reshape(pts.shape[:2]) / n)
    why = np.full(pts.shape[:2], "", dtype=object)

    def fail(bad, reason: str) -> None:
        if bad.any():
            why[bad & (why == "")] = reason
    with np.errstate(all="ignore"):
        vals = np.broadcast_to(_value(expr, env, fail), why.shape)
        delta = np.abs(vals[1:] - vals[0])
        moved = delta > tol * (1.0 + np.abs(vals[0]))
    bad = why != ""
    order = [bad[0]] + [row for s in SHIFTS for row in (bad[s], moved[s - 1])]
    return np.argmax(np.array(order + [np.ones(k, dtype=bool)]), axis=0), delta, why


def check_invariance(expr: InvariantExpr, n: int, trials: int = 64,
                     tol: float = 1e-9, seed: int = 0) -> InvarianceResult:
    """Numerical translation-invariance check over random draws.

    Each trial draws m uniform in [-5, 5]^n and tests every shift in
    {1, 2, 3}; a draw with no value at its base point or a shift is redrawn,
    up to 10 times.  The seeded stream is drawn in order, up to 1024 draws
    at a time, and each block's stops (_stops) are walked in draw order.
    """
    if trials < 16:
        raise ValidationError(f"check_invariance needs trials >= 16, got {trials}")
    if not 1 <= n <= 9:
        raise ValidationError(f"n must be in 1..9, got {n}")
    need = expr.max_param_index()
    if need > n:
        raise ValidationError(f"expression {expr.source!r} uses m{need} but the vector has n={n}")
    rng = random.Random(seed)
    done, failed = 0, 0    # trials passed, draws failed in a row
    while done < trials:
        # rng.uniform(-5, 5) is -5 + 10 * rng.random(): the same floats, in order
        flat = [-5.0 + 10.0 * rng.random() for _ in range(n * min(trials - done, _DRAW_BLOCK))]
        draws = np.array(flat).reshape(-1, n)
        stop, delta, why = _stops(expr, draws, tol)
        for j, s in enumerate(stop.tolist()):
            at = (s + 1) // 2    # the point it stops at: 0 the base, else the shift
            if s == 7:
                done, failed = done + 1, 0
            elif s and s % 2 == 0:
                return InvarianceResult(
                    expr=expr.source, verified=False, trials=trials, tol=tol,
                    violation=Violation(m=tuple(flat[j * n:(j + 1) * n]), shift=at,
                                        delta=float(delta[at - 1, j])))
            else:
                failed += 1
                if failed == _RESAMPLE_CAP:
                    raise EvalDomainError(
                        f"could not sample {expr.source!r} on [-5,5]^{n}: {why[at, j]}")
    return InvarianceResult(expr=expr.source, verified=True, trials=trials, tol=tol)


def verify_invariant(expr: InvariantExpr, n: int, trials: int = 64,
                     tol: float = 1e-9, seed: int = 0) -> InvariantExpr:
    """Run the invariance check and return the expression marked VERIFIED."""
    result = check_invariance(expr, n, trials=trials, tol=tol, seed=seed)
    if not result.verified:
        v = result.violation
        raise ValidationError(
            f"expression {expr.source!r} is not translation invariant: "
            f"shift {v.shift} at m={v.m} moved the value by {v.delta:.3e}")
    return dataclasses.replace(expr, verified=True)
