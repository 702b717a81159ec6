"""Expression DSL: parsing, round-trips, invariance checking."""

import dataclasses
import math
import random
import re

from hypothesis import given, settings, strategies as st
import pytest

from shapeinv import invariants
from shapeinv.errors import EvalDomainError, ExpressionError, ValidationError
from shapeinv.invariants import (
    FUNCTIONS,
    NAMES,
    Bin,
    Call,
    InvariantExpr,
    Neg,
    Num,
    ParamVector,
    Sym,
    check_invariance,
    eval_invariant,
    parse_invariant,
    to_source,
    verify_invariant,
    _tokens,
)


def test_param_vector_translate_subtracts():
    p = ParamVector((1.0, 2.0, 6.0))
    q = p.translate(2)
    assert q.m == (-1.0, 0.0, 4.0)
    assert q.mean == pytest.approx(p.mean - 2.0)


def test_param_vector_bounds():
    with pytest.raises(ValidationError):
        ParamVector(())
    with pytest.raises(ValidationError):
        ParamVector(tuple(range(10)))


def test_parse_round_trip_is_fixed_point():
    sources = [
        "1",
        "m1",
        "m1 - m2",
        "sin(2*pi*m1)",
        "sin(2*pi*m1)^2 + cos(2*pi*m1) + 1",
        "exp(-(m1-m2)^2)",
        "sqrt(abs(m1-m3)) + tanh(m2-m3)",
        "(m1-m2)*(m2-m3)/(1+(m1-m3)^2)",
        "cos(2*pi*M)",
        "-m1 + m2",
        "2/(3+sin(pi*(m1-m2)))",
        "ln(2+cos(2*pi*m1))",
    ]
    for src in sources:
        e1 = parse_invariant(src)
        e2 = parse_invariant(e1.source)
        assert e2.source == e1.source, src


# Any AST the parser can produce: literals are unsigned (a minus sign
# parses as Neg) and finite; -0.0 would print as Neg(0.0).
ASTS = st.recursive(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(abs).map(Num)
    | st.sampled_from(NAMES).map(Sym),
    lambda sub: (sub.map(Neg)
                 | st.builds(Call, st.sampled_from(FUNCTIONS), sub)
                 | st.builds(Bin, st.sampled_from("+-*/^"), sub, sub)),
    max_leaves=12)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(ast=ASTS)
def test_random_ast_round_trips(ast):
    text = to_source(ast)
    assert parse_invariant(text).ast == ast, text


def test_eval_basics():
    p = ParamVector((0.2,))
    e = parse_invariant("sin(2*pi*m1)^2 + cos(2*pi*m1) + 1")
    want = math.sin(0.4 * math.pi) ** 2 + math.cos(0.4 * math.pi) + 1.0
    assert eval_invariant(e, p) == pytest.approx(want, rel=1e-15)
    assert eval_invariant(parse_invariant("e"), p) == pytest.approx(math.e)
    assert eval_invariant(parse_invariant("M"), ParamVector((1.0, 3.0))) == 2.0


def test_operator_precedence_and_unary():
    p = ParamVector((2.0,))
    assert eval_invariant(parse_invariant("1+2*3"), p) == 7.0
    assert eval_invariant(parse_invariant("2^3^2"), p) == 512.0  # right assoc
    assert eval_invariant(parse_invariant("-2^2"), p) == -4.0
    assert eval_invariant(parse_invariant("(1+2)*3"), p) == 9.0
    assert eval_invariant(parse_invariant("2*-3"), p) == -6.0


@pytest.mark.parametrize("bad", [
    "", "sin(", "m10", "foo(m1)", "1 +* 2", "m1 m2", "1..2", ")", "m1 + unknown",
])
def test_parse_errors_carry_offset(bad):
    with pytest.raises(ExpressionError) as exc:
        parse_invariant(bad)
    assert isinstance(exc.value.offset, int)
    assert 0 <= exc.value.offset <= len(bad)


def test_tokens_are_kind_text_offset():
    assert _tokens(" sin(m1)^-2.5\t/ pi*.5+M_2") == [
        ("name", "sin", 1), ("op", "(", 4), ("name", "m1", 5), ("op", ")", 7),
        ("op", "^", 8), ("op", "-", 9), ("num", "2.5", 10), ("op", "/", 14),
        ("name", "pi", 16), ("op", "*", 18), ("num", ".5", 19), ("op", "+", 21),
        ("name", "M_2", 22), ("end", "", 25)]


# the alphabet is ASCII: str.isdigit and str.isalpha accept more, and a
# superscript two once reached float() as a number
@pytest.mark.parametrize("bad,message", [
    ("1..2", "malformed number at offset 0"),
    ("1.2.3", "malformed number at offset 0"),
    (".", "malformed number at offset 0"),
    ("1 +* 2", "expected a value at offset 3"),
    ("sin(m1", "expected ')' at offset 6"),
    (")", "expected a value at offset 0"),
    ("m1 + \u00e9", "unexpected character '\u00e9' at offset 5"),
    ("1+\u00b2", "unexpected character '\u00b2' at offset 2"),
    ("1+\u0663-\u0663", "unexpected character '\u0663' at offset 2"),
    ("m1\u00a0+ 1", "unexpected character '\\xa0' at offset 2"),
])
def test_lexer_messages_and_offsets(bad, message):
    with pytest.raises(ExpressionError, match=f"^{re.escape(message)}$") as exc:
        parse_invariant(bad)
    assert exc.value.offset == int(message.rsplit(" ", 1)[1])


def test_eval_domain_errors():
    p = ParamVector((1.0,))
    with pytest.raises(EvalDomainError):
        eval_invariant(parse_invariant("ln(0-1)"), p)
    with pytest.raises(EvalDomainError):
        eval_invariant(parse_invariant("1/(m1-m1)"), p)
    with pytest.raises(EvalDomainError):
        eval_invariant(parse_invariant("sqrt(0-2)"), p)
    with pytest.raises(EvalDomainError):
        eval_invariant(parse_invariant("m2"), p)  # index above n


@pytest.mark.parametrize("src,reason", [
    ("ln(0-1)", "ln of a non-positive value"),
    ("sqrt(0-2)", "sqrt of a negative value"),
    ("sin(exp(700)*exp(700))", "sin of an infinite value"),
    ("exp(800)", "overflow in exp"),
    ("1/(m1-m1)", "division by zero"),
    ("0^(0-1)", "zero raised to a negative power"),
    ("(0-1)^0.5", "negative base with a non-integer exponent"),
    ("10^400", "overflow in ^"),
    ("exp(700)*exp(700)", "the expression has no finite value"),
])
def test_each_domain_rule_names_itself(src, reason):
    # one point and the invariance draws give the same reason
    expr = parse_invariant(src)
    with pytest.raises(EvalDomainError, match=f"^{re.escape(reason)}$"):
        eval_invariant(expr, ParamVector((1.0,)))
    prefix = f"could not sample {expr.source!r} on [-5,5]^1: "
    with pytest.raises(EvalDomainError, match=f"^{re.escape(prefix + reason)}$"):
        check_invariance(expr, 1)


@pytest.mark.parametrize("src", ["sin(exp(700)*exp(700))",
                                 "(0-1)^(exp(700)*exp(700)-exp(700)*exp(700))"])
def test_non_finite_arguments_are_domain_errors(src):
    # math.sin(inf) and round(nan) raise ValueError; the evaluator maps both
    expr = parse_invariant(src)
    with pytest.raises(EvalDomainError):
        eval_invariant(expr, ParamVector((1.0,)))
    with pytest.raises(EvalDomainError, match="^could not sample"):
        check_invariance(expr, 1)


def test_max_param_index_is_cached_outside_the_fields():
    src = "m1 + sin(m3) * M"
    e = parse_invariant(src)
    assert e.max_param_index() == 3
    assert "_max_param_index" in vars(e)        # computed once, then read
    fresh = parse_invariant(src)
    assert e == fresh and repr(e) == repr(fresh) and hash(e) == hash(fresh)
    marked = dataclasses.replace(e, verified=True)
    assert marked.verified and marked.max_param_index() == 3
    other = dataclasses.replace(e, ast=parse_invariant("m5").ast)
    assert other.max_param_index() == 5
    assert [f.name for f in dataclasses.fields(InvariantExpr)] == ["source", "ast", "verified"]


def test_check_invariance_accepts_period_one():
    res = check_invariance(parse_invariant("sin(2*pi*m1)"), 1)
    assert res.verified and res.violation is None
    out = res.to_json()
    assert out["verified"] is True and out["trials"] == 64


def test_check_invariance_accepts_differences():
    for src in ("m1-m2", "exp(-(m1-m2)^2)", "cos(2*pi*M) + (m1-m3)^2"):
        assert check_invariance(parse_invariant(src), 3).verified, src


def test_check_invariance_rejects_m1_with_violation():
    res = check_invariance(parse_invariant("m1"), 1)
    assert not res.verified
    v = res.violation
    assert v is not None and v.shift in (1, 2, 3)
    # m1 -> m1 - shift moves the value by exactly shift
    assert v.delta == pytest.approx(float(v.shift), rel=1e-12)
    out = res.to_json()
    assert out["violation"]["delta"] == v.delta


def _per_draw_stream(seed, n, count):
    rng = random.Random(seed)
    return [tuple(rng.uniform(-5.0, 5.0) for _ in range(n)) for _ in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_a_draw_block_is_the_per_draw_stream(monkeypatch, seed, n):
    blocks, stops = [], invariants._stops

    def spy(expr, m, tol):
        blocks.append(m.copy())
        return stops(expr, m, tol)
    monkeypatch.setattr(invariants, "_stops", spy)
    assert check_invariance(parse_invariant("1"), n, trials=40, seed=seed).verified
    assert [tuple(row) for row in blocks[0].tolist()] == _per_draw_stream(seed, n, 40)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n", [1, 3])
def test_violation_m_is_the_drawn_tuple(seed, n):
    # |m1| - m1 moves under a shift unless m1 >= 3, so the first draw with
    # m1 < 3 is the violation, at some position in the block
    result = check_invariance(parse_invariant("abs(m1) - m1"), n, seed=seed)
    want = next(m for m in _per_draw_stream(seed, n, 64) if m[0] < 3.0)
    assert result.violation.m == want and type(result.violation.m[0]) is float


def test_check_invariance_rejects_mean():
    # M drops by 1 per translation step, so bare M must fail
    assert not check_invariance(parse_invariant("M"), 3).verified


def test_verify_invariant_marks_and_raises():
    good = verify_invariant(parse_invariant("cos(2*pi*m1)"), 1)
    assert isinstance(good, InvariantExpr) and good.verified
    with pytest.raises(ValidationError):
        verify_invariant(parse_invariant("m1+m2"), 2)


def test_verify_deterministic_across_calls():
    a = check_invariance(parse_invariant("m1"), 1, seed=7)
    b = check_invariance(parse_invariant("m1"), 1, seed=7)
    assert a.violation.m == b.violation.m


def test_nesting_cap_leaves_the_deepest_accepted_tree_walkable():
    from shapeinv.invariants import MAX_NESTING
    for src in ("+".join(["m1"] * (MAX_NESTING + 1)), "(" * MAX_NESTING + "m1" + ")" * MAX_NESTING,
                "-" * MAX_NESTING + "m1", "sin(" * MAX_NESTING + "m1" + ")" * MAX_NESTING):
        expr = parse_invariant(src)
        assert parse_invariant(expr.source).ast == expr.ast
        assert expr.max_param_index() == 1
        assert math.isfinite(eval_invariant(expr, ParamVector((0.3,))))
    with pytest.raises(ExpressionError):
        parse_invariant("sin(" * (MAX_NESTING + 1) + "m1" + ")" * (MAX_NESTING + 1))


def test_the_printer_refuses_what_it_cannot_print():
    with pytest.raises(ValidationError, match="^cannot print non-finite literal inf$"):
        to_source(Num(math.inf))
    with pytest.raises(TypeError, match="^not an AST node: 'm1'$"):
        to_source("m1")


@pytest.mark.parametrize("n,trials,message", [
    (1, 15, "check_invariance needs trials >= 16, got 15"),
    (0, 64, "n must be in 1..9, got 0"),
    (10, 64, "n must be in 1..9, got 10"),
])
def test_check_invariance_checks_its_arguments(n, trials, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        check_invariance(parse_invariant("1"), n, trials=trials)
