"""The array passes against the per-point loops they replaced.

The denominator scan, cond2 and the invariance check each evaluate a whole
grid (or a whole set of draws) in one numpy pass.  The per-point loops they
replaced are kept here as oracles: the scan must take the same decisions
with the same messages, and cond2, on one jet seeded with its whole grid,
must give the residuals of a scalar jet seeded at each point to 1e-13.
The other way round, the per-point jet loop of the cond1/ext-si checks
must give the grid-seeded jet's W to 1e-13 and the converged stencil
derivative of that W to 1e-7, and its one pass must give the callback
loop it replaced (kept here too) bit for bit.
The invariant language's one-point evaluator on Python floats and the math
module is kept as the scalar reference: eval_invariant must take the same
has-value decisions, and the invariance check, run draw by draw on the
reference, must reach the same result or raise the same kind of error.
"""

import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapeinv import extensions as ext
from shapeinv.dual import seed
from shapeinv.errors import (DenominatorZero, EvalDomainError, GammaPole, ShapeInvError,
                             ValidationError)
from shapeinv.invariants import (
    SHIFTS,
    Bin,
    Call,
    InvarianceResult,
    InvariantExpr,
    Neg,
    Num,
    ParamVector,
    Sym,
    Violation,
    _stops,
    check_invariance,
    eval_invariant,
    parse_invariant,
    to_source,
)
from shapeinv.verify import clip_window, grid_points

from test_acceptance import DSL_EXPRESSIONS, draw_extension, extension_box
from test_invariants import ASTS

# -- oracles: the per-point loops --------------------------------------------


def pointwise_oracle(spec, xs, shift):
    """(W, W', W1p, W1m, W0, bp''/bp, bm''/bm) at each point of xs, at
    eps - shift, in Python scalars: W0 from the base family's pass,
    the rest from the bottoms' jets at the seeded point, W1 = b'/b and
    W1' = b''/b - W1^2; all nan where the point raises ArithmeticError."""
    cs, e, r, l = spec.case, spec.eps - shift, spec.rho, spec.ell
    w0s, w0ps = ext._base_w0(cs, xs, e, r, l)
    out = []
    for x, w0, w0p in zip(xs.tolist(), w0s.tolist(), w0ps.tolist()):
        try:
            bp, bm = cs.w1(seed(x), e, r, l)
            p, p2 = bp.d1 / bp.val, bp.d2 / bp.val
            m, m2 = bm.d1 / bm.val, bm.d2 / bm.val
            pp, mp = p2 - p * p, m2 - m * m
            out.append((w0 + p - m, w0p + pp - mp, p, m, w0, p2, m2))
        except ArithmeticError:
            out.append((math.nan,) * 7)
    return np.array(out)


def scan_oracle(cs, e, r, l, window, n):
    a, b = window
    xs = np.linspace(a, b, max(4 * n + 1, 1001))
    for shift in (0, 1):
        ee = e - shift
        for branch in (1, -1):
            def bot(x: float):
                return cs.w1(x, ee, r, l)[0 if branch > 0 else 1]

            try:
                vals = np.array([bot(float(x)) for x in xs])
            except GammaPole as exc:
                raise DenominatorZero(f"case {cs.num}: {exc} at eps - {shift}") from None
            mags = np.abs(vals)
            if not np.all(np.isfinite(mags)):
                loc = float(xs[int(np.argmin(np.isfinite(mags)))])
                raise DenominatorZero(
                    f"case {cs.num}: denominator not finite near x = {loc:.6g}", loc)
            ends = np.pad(mags, 1)   # an end point's one neighbour beside a 0
            neighbor = np.maximum(ends[:-2], ends[2:])
            tiny = mags < 1e-12 * (1.0 + neighbor)
            if np.any(tiny):
                loc = float(xs[int(np.argmax(tiny))])
                raise DenominatorZero(
                    f"case {cs.num}: denominator vanishes at x = {loc:.9g} "
                    f"(branch {branch:+d}, eps - {shift})", loc)
            if np.iscomplexobj(vals):
                continue
            flips = np.nonzero(vals[:-1] * vals[1:] < 0)[0]
            if flips.size:
                i = int(flips[0])
                lo, hi = float(xs[i]), float(xs[i + 1])
                flo = float(vals[i])
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    fm = float(bot(mid))
                    if flo * fm <= 0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                loc = 0.5 * (lo + hi)
                raise DenominatorZero(
                    f"case {cs.num}: denominator root at x = {loc:.9g} "
                    f"(branch {branch:+d}, eps - {shift})", loc)


def cond2_oracle(spec):
    """cond2's residuals from a scalar jet seeded at each grid point."""
    xs = grid_points(spec.domain, ext.extension_grid(spec))
    cs, e, r, l = spec.case, spec.eps, spec.rho, spec.ell
    res = []
    for x in xs:
        minus = ext._w1(cs, seed(float(x)), e, r, l)[3]
        plus_down = ext._w1(cs, seed(float(x)), e - 1, r, l)[0]
        res.append(abs(minus - plus_down) / (1.0 + abs(plus_down)))
    return np.asarray(res, dtype=float)


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


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "^": operator.pow}


def eval_node(node, env: dict) -> float:
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


def reference_eval(expr, p: ParamVector) -> float:
    """eval_invariant by the scalar reference."""
    need = expr.max_param_index()
    if need > p.n:
        raise EvalDomainError(f"expression uses m{need} but the vector has n={p.n}")
    env = {f"m{i + 1}": v for i, v in enumerate(p.m)}
    env.update(M=p.mean, pi=math.pi, e=math.e)
    value = eval_node(expr.ast, env)
    if not math.isfinite(value):
        raise EvalDomainError(f"expression evaluated to non-finite value {value}")
    return value


def invariance_oracle(expr, n, trials=64, tol=1e-9, seed=0):
    rng = random.Random(seed)
    for _ in range(trials):
        last_error = None
        for _attempt in range(10):
            m = tuple(rng.uniform(-5.0, 5.0) for _ in range(n))
            p = ParamVector(m)
            try:
                base = reference_eval(expr, p)
                for shift in SHIFTS:
                    shifted = reference_eval(expr, p.translate(shift))
                    delta = abs(shifted - base)
                    if delta > tol * (1.0 + abs(base)):
                        return InvarianceResult(
                            expr=expr.source, verified=False, trials=trials, tol=tol,
                            violation=Violation(m=m, shift=shift, delta=delta))
                last_error = None
                break
            except EvalDomainError as exc:
                last_error = exc
        if last_error is not None:
            raise EvalDomainError(
                f"could not sample {expr.source!r} on [-5,5]^{n}: {last_error}")
    return InvarianceResult(expr=expr.source, verified=True, trials=trials, tol=tol)


def outcome(fn, *args, **kwargs):
    """A return value, or the type, text and location of the error raised."""
    try:
        return fn(*args, **kwargs)
    except ShapeInvError as exc:
        return type(exc), str(exc), getattr(exc, "location", None)


# -- the denominator scan ----------------------------------------------------

CASES = sorted(ext.CASE_SPECS)


@settings(derandomize=True, deadline=None, max_examples=66)
@given(case=st.sampled_from(CASES), rng=st.randoms(use_true_random=False))
def test_scan_decisions_match_the_point_loop(case, rng):
    # raw criterion 06 draws, rejected ones included, at eps and at eps - 1
    cs = ext.CASE_SPECS[case]
    e, r, l = extension_box(case, rng)
    window = clip_window(cs.domain, *cs.window)
    for shift in (0, 1):
        args = (cs, e - shift, r, l or 0, window)
        assert (outcome(ext._scan_denominators, *args)
                == outcome(scan_oracle, *args, 501)), (case, e, r, l, shift)


def test_scan_rejections_are_exercised():
    # the criterion 06 boxes reject often enough that both outcomes occur
    rng = random.Random("scan-mix")
    seen = set()
    for case in CASES:
        cs = ext.CASE_SPECS[case]
        for _ in range(6):
            e, r, l = extension_box(case, rng)
            window = clip_window(cs.domain, *cs.window)
            got = outcome(ext._scan_denominators, cs, e, r, l or 0, window)
            seen.add("accept" if got is None else "reject")
    assert seen == {"accept", "reject"}


@pytest.mark.parametrize("case,window", [(1, (-800.0, 800.0)), (4, (-1e200, 1e200))])
def test_wide_windows_read_as_non_finite(case, window):
    cs = ext.CASE_SPECS[case]
    with pytest.raises(DenominatorZero, match="denominator not finite near x = "):
        ext._scan_denominators(cs, 4.0, 1.0, 0, clip_window(cs.domain, *window))
    with pytest.raises(OverflowError):      # the point loop could not get there
        scan_oracle(cs, 4.0, 1.0, 0, clip_window(cs.domain, *window), 501)


# -- cond2 -------------------------------------------------------------------

def assert_cond2_matches_point_seeds(spec):
    got = ext.check_cond2(spec)
    want = cond2_oracle(spec)
    assert got.points_used == want.size
    assert abs(got.max_residual - want.max()) <= 1e-13
    assert abs(got.mean_residual - want.mean()) <= 1e-13
    # and each part of both displays, point by point, against its scalar seed
    xs = grid_points(spec.domain, ext.extension_grid(spec))
    for e in (spec.eps, spec.eps - 1):
        grid = ext._w1(spec.case, seed(xs), e, spec.rho, spec.ell)
        one = np.array([ext._w1(spec.case, seed(float(x)), e, spec.rho, spec.ell)
                        for x in xs]).T
        for part, (g, w) in enumerate(zip(grid, one)):
            assert np.all(np.abs(g - w) <= 1e-13 * (1.0 + np.abs(w))), (spec, e, part)


@settings(derandomize=True, deadline=None, max_examples=44)
@given(case=st.sampled_from(CASES), rng=st.randoms(use_true_random=False))
def test_cond2_residuals_match_the_point_loop(case, rng):
    assert_cond2_matches_point_seeds(draw_extension(case, rng))


@pytest.mark.parametrize("case", CASES)
def test_the_grid_jet_matches_point_seeds_on_criterion_06_draws(case):
    # criterion 06's own stream, so each case is covered
    rng = random.Random(f"ext:{case}")
    for _ in range(3):
        assert_cond2_matches_point_seeds(draw_extension(case, rng))


# -- the per-point jet loop against the grid-seeded jet ------------------------

def w_array(spec, xs, shift):
    """W = W0 + W1p - W1m at eps - shift over the whole grid, from one jet."""
    cs, e, r, l = spec.case, spec.eps - shift, spec.rho, spec.ell
    w0, _ = ext._base_w0(cs, xs, e, r, l)
    parts = ext._w1(cs, seed(xs), e, r, l)
    return w0 + parts[0] - parts[3]


def converged_stencil(f, xs, reach):
    """The 5-point derivative of f at the step, of 20 halvings of reach, where
    it moves least on the next halving, and that move."""
    hs = reach * 0.5 ** np.arange(20)[:, None]
    with np.errstate(all="ignore"):
        d = (f(xs - 2 * hs) - 8 * f(xs - hs) + 8 * f(xs + hs) - f(xs + 2 * hs)) / (12 * hs)
    moves = np.abs(np.diff(d, axis=0))
    k, cols = np.argmin(moves, axis=0), np.arange(xs.size)
    return d[k + 1, cols], moves[k, cols]


@settings(derandomize=True, deadline=None, max_examples=44)
@given(case=st.sampled_from(CASES), rng=st.randoms(use_true_random=False))
def test_the_dual_loop_matches_the_array_path(case, rng):
    spec = draw_extension(case, rng)
    a, b = spec.window
    xs = np.linspace(a, b, 41)[1:-1]
    # steps reach at most a quarter of the way to a finite end of the domain
    reach = np.minimum(np.minimum(xs - spec.domain.lo, spec.domain.hi - xs), 1.0) / 4
    for shift in (0, 1):
        val, der = ext._pointwise(spec, xs, shift)[:2]
        want = w_array(spec, xs, shift)
        assert np.all(np.abs(val - want) <= 1e-13 * (1.0 + np.abs(want))), (spec, shift)
        d, move = converged_stencil(lambda x: w_array(spec, x, shift), xs, reach)
        scale = 1.0 + np.abs(der)
        assert np.all(move <= 1e-8 * scale), (spec, shift)
        assert np.all(np.abs(der - d) <= 1e-7 * scale), (spec, shift)


@pytest.mark.parametrize("case", CASES)
@settings(derandomize=True, deadline=None, max_examples=4)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_one_pass_matches_the_callback_loop(case, seed):
    spec = draw_extension(case, random.Random(seed))
    a, b = spec.window
    # the window, then the domain out to |x| = 800, where cosh and sinh overflow
    lo, hi = clip_window(spec.domain, -800.0, 800.0)
    xs = np.concatenate([np.linspace(a, b, 41)[1:-1], np.linspace(lo, hi, 41)[1:-1]])
    for shift in (0, 1):
        got = ext._pointwise(spec, xs, shift)
        want = pointwise_oracle(spec, xs, shift).T
        for part in (0, 1, 2, 3, 5, 6):
            np.testing.assert_array_equal(got[part], want[part],
                                          err_msg=f"{spec} shift {shift} part {part}")
        # the loop handed fn a nan W0 where a point raised; the pass keeps the base's
        raised = np.isnan(want[4])
        assert np.all(np.isnan(got[2][raised]) & np.isnan(got[3][raised]))
        np.testing.assert_array_equal(got[4][~raised], want[4][~raised])


# -- the invariant language -------------------------------------------------

def assert_same_outcome(got, want, *context):
    """The verdict, the violation's m and shift, its delta to 1e-12 relative;
    or the same error type, with "could not sample" where the reference has it."""
    if isinstance(want, InvarianceResult):
        assert isinstance(got, InvarianceResult), (got, context)
        assert (got.expr, got.verified, got.trials, got.tol) == (
            want.expr, want.verified, want.trials, want.tol), context
        if want.violation is not None:
            v, w = got.violation, want.violation
            assert (v.m, v.shift) == (w.m, w.shift), context
            assert v.delta == pytest.approx(w.delta, rel=1e-12), context
        return
    assert isinstance(got, tuple) and got[0] is want[0], (got, want, context)
    sampled = "could not sample "
    assert got[1].startswith(sampled) == want[1].startswith(sampled), (got, want, context)
    if want[1].startswith(sampled):
        assert got[1].split(": ")[0] == want[1].split(": ")[0], (got, want, context)


# the last of each list is non-finite only at the end, with no domain error
# on the way (inf^m1 * 0 is nan where m1 > 0, and cos(nan) is nan)
REDRAWS = ["ln(m1)", "sqrt(m1-m2)", "1/(m1-m2)", "0^(m1-m2)", "ln(m1-1.5)*0+1",
           "(exp(700)*exp(700))^m1*0+1"]
UNSAMPLEABLE = ["sin(exp(700)*exp(700))",
                "(0-1)^(exp(700)*exp(700)-exp(700)*exp(700))",
                "cos(exp(700)*exp(700)*0)"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_invariance_matches_the_scalar_rule_on_the_dsl_suite(n):
    for src in DSL_EXPRESSIONS + REDRAWS + UNSAMPLEABLE:
        expr = parse_invariant(src)
        if expr.max_param_index() <= n:
            assert_same_outcome(outcome(check_invariance, expr, n),
                                outcome(invariance_oracle, expr, n), src, n)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(src=st.sampled_from(DSL_EXPRESSIONS + REDRAWS + UNSAMPLEABLE + ["m1", "M", "m1*m2"]),
       n=st.integers(1, 4), trials=st.integers(16, 80), seed=st.integers(0, 2**32 - 1))
def test_invariance_matches_the_scalar_rule_on_any_seed(src, n, trials, seed):
    expr = parse_invariant(src)
    if expr.max_param_index() <= n:
        assert_same_outcome(outcome(check_invariance, expr, n, trials=trials, seed=seed),
                            outcome(invariance_oracle, expr, n, trials=trials, seed=seed))


@pytest.mark.parametrize("src,n", [("m4", 3), ("m1-m2", 1), ("M+m9", 8)])
def test_a_parameter_beyond_the_vector_is_a_validation_error(src, n):
    # raised before any draw, as for a bad n or trials
    with pytest.raises(ValidationError, match=f"uses m{src[-1]} but the vector has n={n}$"):
        check_invariance(parse_invariant(src), n)


@pytest.mark.parametrize("src", UNSAMPLEABLE[:2])
def test_non_finite_arguments_flag_every_draw(src):
    # every draw stops at its base point, which has no value
    m = np.linspace(-5.0, 5.0, 7)[:, None]
    stop, _, why = _stops(parse_invariant(src), m, 1e-9)
    assert (stop == 0).all()
    assert set(why[0]) == {
        "sin of an infinite value" if src.startswith("sin") else
        "negative base with a non-integer exponent"}


@pytest.mark.parametrize("seed", range(10))
def test_redraws_resume_the_stream(seed):
    # 60% of the draws need a redraw (m1 - 3 + 2 <= 0), and only 1 in 7.5 of
    # the rest moves the value (m1 > 4.47); in 16 trials whether a violation
    # or ten failed draws in a row turn up, and where, depends on each trial
    # resuming the stream just past the draws the one before it took
    expr = parse_invariant("ln(m1+2)*0+exp(20*m1-110)")
    assert_same_outcome(outcome(check_invariance, expr, 1, trials=16, seed=seed),
                        outcome(invariance_oracle, expr, 1, trials=16, seed=seed), seed)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(ast=ASTS, seed=st.integers(0, 2**32 - 1))
def test_eval_invariant_matches_the_scalar_reference(ast, seed):
    rng = random.Random(seed)
    expr = InvariantExpr(source=to_source(ast), ast=ast)
    for _ in range(8):
        p = ParamVector(tuple(rng.uniform(-5.0, 5.0) for _ in range(9)))
        want = outcome(reference_eval, expr, p)
        got = outcome(eval_invariant, expr, p)
        if isinstance(want, tuple):
            assert isinstance(got, tuple) and got[0] is want[0], (expr.source, p, got, want)
        else:
            assert not isinstance(got, tuple), (expr.source, p, got, want)
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (expr.source, p, got, want)
