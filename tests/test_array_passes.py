"""The array passes against the per-point loops they replaced.

The denominator scan, cond2 and the invariance check each evaluate a whole
grid (or a whole set of draws) in one numpy pass.  The per-point loops they
replaced are kept here as oracles: the scan must take the same decisions
with the same messages, cond2 must give the same residuals to 1e-13, and
the invariance check must give the same result or the same error text.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapeinv import extensions as ext
from shapeinv.errors import DenominatorZero, EvalDomainError, ShapeInvError
from shapeinv.invariants import (
    SHIFTS,
    InvarianceResult,
    ParamVector,
    Violation,
    _eval_draws,
    check_invariance,
    eval_invariant,
    eval_node,
    parse_invariant,
)
from shapeinv.verify import clip_window, grid_points

from test_acceptance import DSL_EXPRESSIONS, draw_extension, extension_box
from test_invariants import ASTS

# -- oracles: the per-point loops --------------------------------------------


def scan_oracle(cs, e, r, l, window, n):
    a, b = window
    xs = np.linspace(a, b, max(4 * n + 1, 1001))
    for shift in (0, 1):
        ee = e - shift
        for c in cs.constants(ee, r, l):
            if abs(c) < 1e-9:
                raise DenominatorZero(
                    f"case {cs.num}: constant factor {c:.3e} vanishes at eps - {shift}")
        for branch in (1, -1):
            def bot(x: float):
                return cs.w1(branch > 0, x, ee, r, l)[2]

            vals = np.array([bot(float(x)) for x in xs])
            mags = np.abs(vals)
            if not np.all(np.isfinite(mags)):
                loc = float(xs[int(np.argmin(np.isfinite(mags)))])
                raise DenominatorZero(
                    f"case {cs.num}: denominator not finite near x = {loc:.6g}", loc)
            neighbor = np.maximum(np.roll(mags, 1), np.roll(mags, -1))
            tiny = mags < 1e-12 * (1.0 + neighbor)
            if np.any(tiny):
                loc = float(xs[int(np.argmax(tiny))])
                raise DenominatorZero(
                    f"case {cs.num}: denominator vanishes at x = {loc:.9g} "
                    f"(branch {branch:+d}, eps - {shift})", loc)
            if cs.complex_path:
                continue
            re = vals.real if np.iscomplexobj(vals) else vals
            flips = np.nonzero(re[:-1] * re[1:] < 0)[0]
            if flips.size:
                i = int(flips[0])
                lo, hi = float(xs[i]), float(xs[i + 1])
                flo = float(re[i])
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    fm = float(np.real(bot(mid)))
                    if flo * fm <= 0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                loc = 0.5 * (lo + hi)
                raise DenominatorZero(
                    f"case {cs.num}: denominator root at x = {loc:.9g} "
                    f"(branch {branch:+d}, eps - {shift})", loc)


def cond2_oracle(spec):
    xs, _ = grid_points(spec.domain, ext.extension_grid(spec))
    cs, e, r, l = spec.case, spec.eps, spec.rho, spec.ell
    res = []
    for x in xs:
        minus = ext._w1(cs, False, float(x), e, r, l)
        plus_down = ext._w1(cs, True, float(x), e - 1, r, l)
        res.append(abs(minus - plus_down) / (1.0 + abs(plus_down)))
    return np.asarray(res, dtype=float)


def invariance_oracle(expr, n, trials=64, tol=1e-9, seed=0):
    rng = random.Random(seed)
    for _ in range(trials):
        last_error = None
        for _attempt in range(10):
            m = tuple(rng.uniform(-5.0, 5.0) for _ in range(n))
            p = ParamVector(m)
            try:
                base = eval_invariant(expr, p)
                for shift in SHIFTS:
                    shifted = eval_invariant(expr, p.translate(shift))
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
        args = (cs, e - shift, r, l or 0, window, 501)
        assert (outcome(ext._scan_denominators, *args)
                == outcome(scan_oracle, *args)), (case, e, r, l, shift)


def test_scan_rejections_are_exercised():
    # the criterion 06 boxes reject often enough that both outcomes occur
    rng = random.Random("scan-mix")
    seen = set()
    for case in CASES:
        cs = ext.CASE_SPECS[case]
        for _ in range(6):
            e, r, l = extension_box(case, rng)
            window = clip_window(cs.domain, *cs.window)
            got = outcome(ext._scan_denominators, cs, e, r, l or 0, window, 501)
            seen.add("accept" if got is None else "reject")
    assert seen == {"accept", "reject"}


@pytest.mark.parametrize("case,window", [(1, (-800.0, 800.0)), (4, (-1e200, 1e200))])
def test_wide_windows_read_as_non_finite(case, window):
    cs = ext.CASE_SPECS[case]
    with pytest.raises(DenominatorZero, match="denominator not finite near x = "):
        ext._scan_denominators(cs, 4.0, 1.0, 0, clip_window(cs.domain, *window), 501)
    with pytest.raises(OverflowError):      # the point loop could not get there
        scan_oracle(cs, 4.0, 1.0, 0, clip_window(cs.domain, *window), 501)


# -- cond2 -------------------------------------------------------------------

@settings(derandomize=True, deadline=None, max_examples=44)
@given(case=st.sampled_from(CASES), rng=st.randoms(use_true_random=False))
def test_cond2_residuals_match_the_point_loop(case, rng):
    spec = draw_extension(case, rng)
    got = ext.check_cond2(spec)
    want = cond2_oracle(spec)
    assert got.points_used == want.size
    assert abs(got.max_residual - want.max()) <= 1e-13
    assert abs(got.mean_residual - want.mean()) <= 1e-13
    # and each display, point by point, against its scalar evaluation
    xs, _ = grid_points(spec.domain, ext.extension_grid(spec))
    for plus, e in ((False, spec.eps), (True, spec.eps - 1)):
        arr = ext._w1(spec.case, plus, xs, e, spec.rho, spec.ell)
        one = np.array([ext._w1(spec.case, plus, float(x), e, spec.rho, spec.ell)
                        for x in xs])
        assert np.all(np.abs(arr - one) <= 1e-13 * (1.0 + np.abs(one)))


# -- the invariance check ----------------------------------------------------

# the last of each list is non-finite only at the end, with no domain error
# on the way (inf^m1 * 0 is nan where m1 > 0, and cos(nan) is nan)
REDRAWS = ["ln(m1)", "sqrt(m1-m2)", "1/(m1-m2)", "0^(m1-m2)", "ln(m1-1.5)*0+1",
           "(exp(700)*exp(700))^m1*0+1"]
UNSAMPLEABLE = ["sin(exp(700)*exp(700))",
                "(0-1)^(exp(700)*exp(700)-exp(700)*exp(700))", "m4",
                "cos(exp(700)*exp(700)*0)"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_invariance_matches_the_scalar_rule_on_the_dsl_suite(n):
    for src in DSL_EXPRESSIONS + REDRAWS + UNSAMPLEABLE:
        expr = parse_invariant(src)
        assert (outcome(check_invariance, expr, n)
                == outcome(invariance_oracle, expr, n)), (src, n)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(src=st.sampled_from(DSL_EXPRESSIONS + REDRAWS + UNSAMPLEABLE + ["m1", "M", "m1*m2"]),
       n=st.integers(1, 4), trials=st.integers(16, 80), seed=st.integers(0, 2**32 - 1))
def test_invariance_matches_the_scalar_rule_on_any_seed(src, n, trials, seed):
    expr = parse_invariant(src)
    assert (outcome(check_invariance, expr, n, trials=trials, seed=seed)
            == outcome(invariance_oracle, expr, n, trials=trials, seed=seed))


@pytest.mark.parametrize("src", UNSAMPLEABLE[:2])
def test_non_finite_arguments_flag_every_draw(src):
    m = np.linspace(-5.0, 5.0, 7)
    bad = np.zeros(m.size, dtype=bool)
    env = {"m1": m, "M": m, "pi": math.pi, "e": math.e}
    with np.errstate(all="ignore"):
        _eval_draws(parse_invariant(src).ast, env, bad)
    assert bad.all()


@pytest.mark.parametrize("seed", range(10))
def test_redraws_resume_the_stream(seed):
    # 60% of the draws need a redraw (m1 - 3 + 2 <= 0), and only 1 in 7.5 of
    # the rest moves the value (m1 > 4.47); in 16 trials whether a violation
    # or ten failed draws in a row turn up, and where, depends on each trial
    # resuming the stream just past the draws the one before it took
    expr = parse_invariant("ln(m1+2)*0+exp(20*m1-110)")
    assert (outcome(check_invariance, expr, 1, trials=16, seed=seed)
            == outcome(invariance_oracle, expr, 1, trials=16, seed=seed))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(ast=ASTS, seed=st.integers(0, 2**32 - 1))
def test_array_evaluator_flags_the_draws_eval_node_rejects(ast, seed):
    rng = random.Random(seed)
    m = np.array([[rng.uniform(-5.0, 5.0) for _ in range(9)] for _ in range(8)])
    env = {f"m{i + 1}": m[:, i] for i in range(9)}
    env["M"] = np.array([math.fsum(row) / 9 for row in m.tolist()])
    env["pi"], env["e"] = math.pi, math.e
    bad = np.zeros(len(m), dtype=bool)
    with np.errstate(all="ignore"):
        vals = np.broadcast_to(_eval_draws(ast, env, bad), bad.shape)
    for j, row in enumerate(m.tolist()):
        point = {k: float(np.asarray(v)[j]) if isinstance(v, np.ndarray) else v
                 for k, v in env.items()}
        try:
            want = eval_node(ast, point)
        except EvalDomainError:
            assert bad[j], (ast, row)
            continue
        assert not bad[j], (ast, row)
        got = float(vals[j])
        if math.isnan(want):
            assert math.isnan(got)
        elif math.isinf(want) or math.isinf(got):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=1e-300)
