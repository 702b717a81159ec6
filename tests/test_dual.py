"""Forward-mode dual numbers against finite differences."""

import cmath
import math

from hypothesis import assume, given, settings, strategies as st
import pytest

from shapeinv import dual
from shapeinv.dual import Dual, seed


def fd(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_seed_and_accessors():
    d = seed(1.5)
    assert d.val == 1.5 and d.eps == 1.0
    assert Dual(2.0).val == 2.0 and Dual(2.0).eps == 0.0


def test_arithmetic_rules():
    x = seed(0.7)
    y = Dual(2.0, 0.0)
    assert (x + y).eps == 1.0
    assert (x - y).eps == 1.0
    assert (y - x).eps == -1.0
    assert (x * x).eps == pytest.approx(1.4)
    assert (1.0 / x).eps == pytest.approx(-1.0 / 0.49)
    assert (x ** 3).eps == pytest.approx(3 * 0.7 ** 2)
    assert (2.0 * x + 1.0).eps == 2.0


@pytest.mark.parametrize("name,f", [
    ("sin", math.sin), ("cos", math.cos),
    ("sinh", math.sinh), ("cosh", math.cosh),
])
def test_elementary_derivatives(name, f):
    g = getattr(dual, name)
    for x0 in (0.3, 1.1, -0.8):
        d = g(seed(x0))
        assert d.val == pytest.approx(f(x0), rel=1e-12)
        assert d.eps == pytest.approx(fd(f, x0), rel=1e-7)


def test_composite_matches_fd():
    def f(x):
        return math.exp(math.sin(2 * x)) / (1.0 + x * x)

    def fdual(x):
        d = seed(x)
        u = dual.sin(2 * d)
        return (dual.cosh(u) + dual.sinh(u)) / (1.0 + d * d)   # exp u = cosh u + sinh u

    for x0 in (-1.3, 0.2, 2.4):
        d = fdual(x0)
        assert d.val == pytest.approx(f(x0), rel=1e-12)
        assert d.eps == pytest.approx(fd(f, x0), rel=1e-6)


def test_complex_path():
    x0 = 0.4
    d = dual.cosh(Dual(complex(0, x0), complex(0, 1)))
    # cosh(ix) = cos(x), d/dx cosh(ix) = i sinh(ix) = -sin(x)
    assert d.val == pytest.approx(math.cos(x0), rel=1e-12)
    assert d.eps == pytest.approx(-math.sin(x0), rel=1e-12)
    z = seed(1.0 + 2.0j)
    e = dual.cosh(z) + dual.sinh(z)                      # exp z, its own derivative
    assert e.val == pytest.approx(cmath.exp(1.0 + 2.0j))
    assert e.eps == pytest.approx(cmath.exp(1.0 + 2.0j))


def test_division_by_dual():
    x = seed(2.0)
    q = 3.0 / x
    assert q.val == pytest.approx(1.5)
    assert q.eps == pytest.approx(-3.0 / 4.0)


ELEMENTARY = {
    "sin": cmath.sin, "cos": cmath.cos, "sinh": cmath.sinh,
    "cosh": cmath.cosh,
}
NAMES = sorted(ELEMENTARY)


def central(f, z: complex, h: float = 1e-5) -> complex:
    """Fourth-order central difference along the real axis."""
    return (f(z - 2 * h) - 8 * f(z - h) + 8 * f(z + h) - f(z + 2 * h)) / (12 * h)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(f=st.sampled_from(NAMES), g=st.sampled_from(NAMES),
       a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0), c=st.floats(0.5, 3.0),
       x=st.floats(-2.0, 2.0), y=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
def test_rational_combinations_match_central_differences(f, g, a, b, c, x, y):
    """(a f(z) + b z) / (c + g(z)^2) on real (y = 0) and complex points."""
    def through_dual(d):
        return (a * getattr(dual, f)(d) + b * d) / (c + getattr(dual, g)(d) ** 2)

    def plain(z):
        return (a * ELEMENTARY[f](z) + b * z) / (c + ELEMENTARY[g](z) ** 2)

    z = complex(x, y) if y else x
    assume(abs(c + ELEMENTARY[g](z) ** 2) > 0.25)
    d = through_dual(seed(z))
    assert abs(d.val - plain(z)) <= 1e-12 * max(1.0, abs(plain(z)))
    want = central(plain, z)
    assert abs(d.eps - want) <= 1e-7 * max(1.0, abs(want)), (f, g, z)
    assert isinstance(d.val, complex) == isinstance(z, complex)


# Each rule of the dual.py docstring, written out on plain floats and
# complexes: an operator must return exactly these (val, eps), signed zeros,
# infinities and nans included, so no rewrite can reorder the arithmetic.
REALS = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0]),
                  st.floats())
COMPONENTS = st.one_of(REALS, st.builds(complex, REALS, REALS))
SCALARS = st.one_of(st.integers(-3, 3), COMPONENTS)
DUALS = st.builds(Dual, COMPONENTS, COMPONENTS)


def _product(av, ae, bv, be):
    return av * bv, ae * bv + av * be


DUAL_RULES = {
    "a + b": (lambda a, b: a + b, lambda a, b: (a.val + b.val, a.eps + b.eps)),
    "a - b": (lambda a, b: a - b, lambda a, b: (a.val - b.val, a.eps - b.eps)),
    "a * b": (lambda a, b: a * b, lambda a, b: _product(a.val, a.eps, b.val, b.eps)),
    "a / b": (lambda a, b: a / b,
              lambda a, b: (a.val / b.val, (a.eps - (a.val / b.val) * b.eps) / b.val)),
}
SCALAR_RULES = {
    "a + s": (lambda a, s: a + s, lambda a, s: (a.val + s, a.eps)),
    "s + a": (lambda a, s: s + a, lambda a, s: (a.val + s, a.eps)),
    "a - s": (lambda a, s: a - s, lambda a, s: (a.val - s, a.eps)),
    "s - a": (lambda a, s: s - a, lambda a, s: (s - a.val, -a.eps)),
    "a * s": (lambda a, s: a * s, lambda a, s: (a.val * s, a.eps * s)),
    "s * a": (lambda a, s: s * a, lambda a, s: (a.val * s, a.eps * s)),
    "a / s": (lambda a, s: a / s, lambda a, s: (a.val / s, a.eps / s)),
    "s / a": (lambda a, s: s / a,
              lambda a, s: (s / a.val, -(s / a.val) * a.eps / a.val)),
}


def _power(a, n):
    if n == 0:
        return 1.0, 0.0
    v, e = a.val, a.eps
    for _ in range(abs(n) - 1):
        v, e = _product(v, e, a.val, a.eps)
    if n > 0:
        return v, e
    return 1.0 / v, -(1.0 / v) * e / v      # the rule for s / a with s = 1.0


def _lifted(name, v, e):
    """f(v) and (+-)f'(v) * e from math, or cmath on a complex v."""
    lib = cmath if isinstance(v, complex) else math
    f, df = {"sin": (lib.sin, lib.cos), "cos": (lib.cos, lib.sin),
             "sinh": (lib.sinh, lib.cosh), "cosh": (lib.cosh, lib.sinh)}[name]
    fv, dv = f(v), df(v)
    return fv, (-dv if name == "cos" else dv) * e


def _outcome(fn):
    """(val, eps) of a Dual or a pair, or the type of the exception raised."""
    try:
        out = fn()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return (out.val, out.eps) if isinstance(out, Dual) else out


def _same_float(x, y):
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def _same(got, want):
    if isinstance(got, type) or isinstance(want, type):
        return got is want
    for g, w in zip(got, want):
        if type(g) is not type(w):
            return False
        if isinstance(g, complex):
            if not (_same_float(g.real, w.real) and _same_float(g.imag, w.imag)):
                return False
        elif not _same_float(g, w):
            return False
    return True


@settings(derandomize=True, deadline=None, max_examples=300)
@given(rule=st.sampled_from(sorted(DUAL_RULES)), a=DUALS, b=DUALS)
def test_dual_operators_follow_their_rules_bit_for_bit(rule, a, b):
    op, formula = DUAL_RULES[rule]
    got, want = _outcome(lambda: op(a, b)), _outcome(lambda: formula(a, b))
    assert _same(got, want), (rule, a, b, got, want)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(rule=st.sampled_from(sorted(SCALAR_RULES)), a=DUALS, s=SCALARS)
def test_scalar_operators_follow_their_rules_bit_for_bit(rule, a, s):
    op, formula = SCALAR_RULES[rule]
    got, want = _outcome(lambda: op(a, s)), _outcome(lambda: formula(a, s))
    assert _same(got, want), (rule, a, s, got, want)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(a=DUALS, n=st.integers(-3, 3))
def test_powers_and_negation_follow_their_rules_bit_for_bit(a, n):
    got, want = _outcome(lambda: a ** n), _outcome(lambda: _power(a, n))
    assert _same(got, want), (a, n, got, want)
    assert _same(_outcome(lambda: -a), (-a.val, -a.eps))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(name=st.sampled_from(NAMES), a=DUALS)
def test_lifts_follow_their_rule_bit_for_bit(name, a):
    got = _outcome(lambda: getattr(dual, name)(a))
    want = _outcome(lambda: _lifted(name, a.val, a.eps))
    assert _same(got, want), (name, a, got, want)


def test_the_bit_comparison_tells_signed_zeros_and_nans_apart():
    assert _same((0.0, math.nan), (0.0, -math.nan))
    assert not _same((0.0, 1.0), (-0.0, 1.0))
    assert not _same((complex(0.0, -0.0), 1.0), (complex(0.0, 0.0), 1.0))
    assert not _same((1.0, 1.0), (1.0 + 0j, 1.0))
    assert not _same((1.0, 1.0), ZeroDivisionError)
