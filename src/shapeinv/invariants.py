"""Translated-parameter vectors and the invariant-expression language.

Expressions are built from m1..m9, the mean M, pi, e, arithmetic
(+ - * / ^ with ^ binding tighter than unary minus and associating right),
and the function set sin cos tan sinh cosh tanh exp ln sqrt abs.  An
expression is *translation invariant* when shifting every parameter by the
same integer leaves its value unchanged; the check is numerical, over
random draws, and marks the expression VERIFIED on success.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
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
# (to_source, eval_node, _eval_draws, max_param_index) recurse at most this
# deep and the parser about five frames per level, far below Python's limit
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


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node: Node) -> int:
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return 5


def _num_literal(v: float) -> str:
    # Plain decimal only: the lexer has no exponent syntax ('e' is Euler's
    # number), so expand while keeping exact float round-trip.
    if not math.isfinite(v):
        raise ValidationError(f"cannot print non-finite literal {v}")
    return format(Decimal(repr(v)), "f")


def to_source(node: Node) -> str:
    """Minimal-parenthesis form; parse(to_source(ast)) == ast."""
    if isinstance(node, Num):
        return _num_literal(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_source(node.arg)})"
    if isinstance(node, Neg):
        inner = to_source(node.arg)
        if _prec(node.arg) <= 2:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Bin):
        lhs, rhs = to_source(node.lhs), to_source(node.rhs)
        p = _PREC[node.op]
        if node.op == "^":
            if _prec(node.lhs) <= p:
                lhs = f"({lhs})"
            if _prec(node.rhs) <= 2:
                rhs = f"({rhs})"
        else:
            if _prec(node.lhs) < p:
                lhs = f"({lhs})"
            if _prec(node.rhs) <= p:
                rhs = f"({rhs})"
        return f"{lhs}{node.op}{rhs}"
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
    # ==, repr and dataclasses.replace do not see it
    @functools.cached_property
    def _max_param_index(self) -> int:
        def walk(node: Node) -> int:
            if isinstance(node, Sym) and node.name in _PARAM_NAMES:
                return int(node.name[1:])
            if isinstance(node, Bin):
                return max(walk(node.lhs), walk(node.rhs))
            if isinstance(node, (Neg, Call)):
                return walk(node.arg)
            return 0
        return walk(self.ast)


def parse_invariant(source: str) -> InvariantExpr:
    ast = _Parser(source).parse()
    return InvariantExpr(source=to_source(ast), ast=ast)


def _apply_fn(fn: str, x: float) -> float:
    try:
        if fn == "ln":
            if x <= 0.0:
                raise EvalDomainError(f"ln of non-positive value {x}")
            return math.log(x)
        if fn == "sqrt":
            if x < 0.0:
                raise EvalDomainError(f"sqrt of negative value {x}")
            return math.sqrt(x)
        if fn == "abs":
            return abs(x)
        return getattr(math, fn)(x)
    except OverflowError as exc:
        raise EvalDomainError(f"overflow in {fn}({x})") from exc
    except ValueError as exc:  # sin, cos and tan of an infinite value
        raise EvalDomainError(f"{fn} of non-finite value {x}") from exc


# the arithmetic of eval_node (floats) and _eval_draws (arrays); each keeps
# its own domain checks
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "^": operator.pow}


def eval_node(node: Node, env: dict[str, float]) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Sym):
        if node.name not in env:
            raise EvalDomainError(
                f"parameter {node.name} is not bound for an n={len(env) - 3} vector")
        return env[node.name]
    if isinstance(node, Neg):
        return -eval_node(node.arg, env)
    if isinstance(node, Call):
        return _apply_fn(node.fn, eval_node(node.arg, env))
    if isinstance(node, Bin):
        a = eval_node(node.lhs, env)
        b = eval_node(node.rhs, env)
        try:
            if node.op == "/" and b == 0.0:
                raise EvalDomainError("division by zero")
            if node.op == "^":
                if a == 0.0 and b < 0.0:
                    raise EvalDomainError("zero raised to a negative power")
                if a < 0.0 and (b != b or b != round(b)):
                    raise EvalDomainError(f"negative base {a} with non-integer exponent {b}")
            return _ARITHMETIC[node.op](a, b)
        except OverflowError as exc:
            raise EvalDomainError(f"overflow in {a} {node.op} {b}") from exc
    raise TypeError(f"not an AST node: {node!r}")


_UFUNCS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "sinh": np.sinh,
           "cosh": np.cosh, "tanh": np.tanh, "exp": np.exp, "ln": np.log,
           "sqrt": np.sqrt, "abs": np.abs}


def _eval_draws(node: Node, env: dict, bad: np.ndarray):
    """eval_node over arrays of draws at once.

    Every draw on which eval_node raises EvalDomainError is set in `bad`
    (in place); the values returned there are arbitrary.
    """
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Sym):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval_draws(node.arg, env, bad)
    if isinstance(node, Call):
        x = _eval_draws(node.arg, env, bad)
        y = _UFUNCS[node.fn](x)
        if node.fn == "ln":
            bad |= x <= 0.0
        elif node.fn == "sqrt":
            bad |= x < 0.0
        elif node.fn in ("sin", "cos", "tan"):
            bad |= np.isinf(x)
        elif node.fn in ("sinh", "cosh", "exp"):
            bad |= np.isinf(y) & np.isfinite(x)
        return y
    a = _eval_draws(node.lhs, env, bad)
    b = _eval_draws(node.rhs, env, bad)
    y = _ARITHMETIC[node.op](a, b)
    if node.op == "/":
        bad |= b == 0.0
    elif node.op == "^":
        bad |= (a == 0.0) & (b < 0.0)
        bad |= (a < 0.0) & ~(np.isfinite(b) & (b == np.floor(b)))
        bad |= np.isinf(y) & np.isfinite(a) & np.isfinite(b)
    return y


def eval_invariant(expr: InvariantExpr, p: ParamVector) -> float:
    need = expr.max_param_index()
    if need > p.n:
        raise EvalDomainError(f"expression uses m{need} but the vector has n={p.n}")
    env = {f"m{i + 1}": v for i, v in enumerate(p.m)}
    env["M"] = p.mean
    env["pi"] = math.pi
    env["e"] = math.e
    value = eval_node(expr.ast, env)
    if not math.isfinite(value):
        raise EvalDomainError(f"expression evaluated to non-finite value {value}")
    return value


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


def _trial(expr: InvariantExpr, n: int, tol: float, draws) -> tuple:
    """One trial by the scalar rule over an iterator of draws: the violation
    it finds (or None) and the number of draws it took."""
    last_error: EvalDomainError | None = None
    for used, m in enumerate(itertools.islice(draws, _RESAMPLE_CAP), 1):
        p = ParamVector(m)
        try:
            base = eval_invariant(expr, p)
            for shift in SHIFTS:
                shifted = eval_invariant(expr, p.translate(shift))
                delta = abs(shifted - base)
                if delta > tol * (1.0 + abs(base)):
                    return Violation(m=m, shift=shift, delta=delta), used
            return None, used
        except EvalDomainError as exc:
            last_error = exc
    raise EvalDomainError(
        f"could not sample {expr.source!r} on [-5,5]^{n}: {last_error}")


def _screen(expr: InvariantExpr, m: np.ndarray, tol: float) -> list:
    """For each draw (a row of m), whether the scalar rule surely passes it:
    no domain error at the base point or a shift, and no shift moving the
    value by more than half the tolerance."""
    k, n = m.shape
    if expr.max_param_index() > n:
        return [False] * k
    # rows: the base point, then the shifts; M by fsum, as ParamVector has it
    pts = m[None, :, :] - np.array((0,) + SHIFTS, dtype=float)[:, None, None]
    env = {f"m{i + 1}": pts[:, :, i] for i in range(n)}
    env["M"] = np.array([math.fsum(row) for row in pts.reshape(-1, n).tolist()]
                        ).reshape(pts.shape[:2]) / n
    # numpy scalars, so that pi/(pi-pi) divides as the arrays do
    env["pi"], env["e"] = np.float64(math.pi), np.float64(math.e)
    bad = np.zeros(pts.shape[:2], dtype=bool)
    with np.errstate(all="ignore"):
        vals = np.broadcast_to(_eval_draws(expr.ast, env, bad), bad.shape)
        bad |= ~np.isfinite(vals)
        moved = np.abs(vals[1:] - vals[0]) > 0.5 * tol * (1.0 + np.abs(vals[0]))
    return (~(bad.any(axis=0) | moved.any(axis=0))).tolist()


def check_invariance(expr: InvariantExpr, n: int, trials: int = 64,
                     tol: float = 1e-9, seed: int = 0) -> InvarianceResult:
    """Numerical translation-invariance check over random draws.

    Each trial draws m uniform in [-5, 5]^n and tests every shift in
    {1, 2, 3}; a draw whose evaluation hits a domain error is redrawn up
    to 10 times before the failure propagates.

    Draws are taken from the seeded stream ahead of need, up to 1024 at a
    time, and screened at once: the base points and their three shifts are
    one array.  A trial whose next draw passes the screen passes.  Any other
    trial (a domain error, or a shift that moves the value by more than half
    the tolerance) is decided by the scalar rule, on the same draws in the
    same order, redraws included.  So the verdict, the violation and the
    error text are those of the scalar rule.
    """
    if trials < 16:
        raise ValidationError(f"check_invariance needs trials >= 16, got {trials}")
    if not 1 <= n <= 9:
        raise ValidationError(f"n must be in 1..9, got {n}")
    rng = random.Random(seed)

    def draw() -> tuple:
        return tuple(rng.uniform(-5.0, 5.0) for _ in range(n))

    ahead, clean, i = [], [], 0    # draws taken ahead, their screen, the next one
    for t in range(trials):
        if i == len(ahead):
            ahead = [draw() for _ in range(min(trials - t, _DRAW_BLOCK))]
            clean, i = _screen(expr, np.array(ahead), tol), 0
        if clean[i]:
            i += 1
            continue
        # the scalar rule from this draw on; past the block it draws afresh
        violation, used = _trial(expr, n, tol, itertools.chain(ahead[i:], iter(draw, None)))
        if violation is not None:
            return InvarianceResult(expr=expr.source, verified=False, trials=trials,
                                    tol=tol, violation=violation)
        i = min(i + used, len(ahead))
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
