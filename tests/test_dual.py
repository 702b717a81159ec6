"""Forward-mode second-order jets against closed forms and finite differences."""

import cmath
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st
import pytest

from shapeinv import dual
from shapeinv.dual import Jet, seed


def fd(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_seed_and_accessors():
    d = seed(1.5)
    assert d.val == 1.5 and d.d1 == 1.0 and d.d2 == 0.0
    assert Jet(2.0).val == 2.0 and Jet(2.0).d1 == 0.0 and Jet(2.0).d2 == 0.0


def test_arithmetic_rules():
    x = seed(0.7)
    y = Jet(2.0, 0.0)
    assert (x + y).d1 == 1.0
    assert (x - y).d1 == 1.0
    assert (y - x).d1 == -1.0
    assert (x * x).d1 == pytest.approx(1.4)
    assert (1.0 / x).d1 == pytest.approx(-1.0 / 0.49)
    assert (x ** 3).d1 == pytest.approx(3 * 0.7 ** 2)
    assert (2.0 * x + 1.0).d1 == 2.0


@pytest.mark.parametrize("name,f", [
    ("sin", math.sin), ("cos", math.cos),
    ("sinh", math.sinh), ("cosh", math.cosh),
])
def test_elementary_derivatives(name, f):
    g = getattr(dual, name)
    for x0 in (0.3, 1.1, -0.8):
        d = g(seed(x0))
        assert d.val == pytest.approx(f(x0), rel=1e-12)
        assert d.d1 == pytest.approx(fd(f, x0), rel=1e-7)


def test_composite_matches_fd():
    def f(x):
        return math.exp(math.sin(2 * x)) / (1.0 + x * x)

    def fjet(x):
        d = seed(x)
        u = dual.sin(2 * d)
        return (dual.cosh(u) + dual.sinh(u)) / (1.0 + d * d)   # exp u = cosh u + sinh u

    for x0 in (-1.3, 0.2, 2.4):
        d = fjet(x0)
        assert d.val == pytest.approx(f(x0), rel=1e-12)
        assert d.d1 == pytest.approx(fd(f, x0), rel=1e-6)
        assert d.d2 == pytest.approx(fd(lambda x: fjet(x).d1, x0), rel=1e-6)


def test_complex_path():
    x0 = 0.4
    d = dual.cosh(Jet(complex(0, x0), complex(0, 1)))
    # cosh(ix) = cos(x), d/dx cosh(ix) = i sinh(ix) = -sin(x), d2 = -cos(x)
    assert d.val == pytest.approx(math.cos(x0), rel=1e-12)
    assert d.d1 == pytest.approx(-math.sin(x0), rel=1e-12)
    assert d.d2 == pytest.approx(-math.cos(x0), rel=1e-12)
    z = seed(1.0 + 2.0j)
    e = dual.cosh(z) + dual.sinh(z)                      # exp z, its own derivative
    assert e.val == pytest.approx(cmath.exp(1.0 + 2.0j))
    assert e.d1 == pytest.approx(cmath.exp(1.0 + 2.0j))
    assert e.d2 == pytest.approx(cmath.exp(1.0 + 2.0j))


def test_division_by_dual():
    x = seed(2.0)
    q = 3.0 / x
    assert q.val == pytest.approx(1.5)
    assert q.d1 == pytest.approx(-3.0 / 4.0)
    assert q.d2 == pytest.approx(6.0 / 8.0)


# The second component of each rule against a closed form: every operator
# and lift is the outermost operation of one expression, on u = x^2 + 1 and
# w = x^3, whose second derivatives are written out by hand.
SECOND_ORDER = {
    "a + b": (lambda x: (x * x + 1) + x ** 3, lambda x: 2 + 6 * x),
    "a + s": (lambda x: (x * x + 1) + 2.5, lambda x: 2 + 0 * x),
    "s + a": (lambda x: 2.5 + x ** 3, lambda x: 6 * x),
    "a - b": (lambda x: (x * x + 1) - x ** 3, lambda x: 2 - 6 * x),
    "a - s": (lambda x: x ** 3 - 2.5, lambda x: 6 * x),
    "s - a": (lambda x: 2.5 - x ** 3, lambda x: -6 * x),
    "-a": (lambda x: -(x ** 3), lambda x: -6 * x),
    "a * b": (lambda x: (x * x + 1) * x ** 3, lambda x: 20 * x ** 3 + 6 * x),
    "a * s": (lambda x: x ** 3 * 1.5, lambda x: 9 * x),
    "s * a": (lambda x: 1.5 * x ** 3, lambda x: 9 * x),
    "a / b": (lambda x: (x * x + 1) / x ** 3, lambda x: 2 / x ** 3 + 12 / x ** 5),
    "a / s": (lambda x: x ** 3 / 4.0, lambda x: 1.5 * x),
    "s / a": (lambda x: 3.0 / (x * x + 1), lambda x: 3 * (6 * x ** 2 - 2) / (x ** 2 + 1) ** 3),
    "a ** n": (lambda x: (x * x + 1) ** 3,
               lambda x: 6 * (x ** 2 + 1) ** 2 + 24 * x ** 2 * (x ** 2 + 1)),
    "a ** -n": (lambda x: (x * x + 1) ** -2,
                lambda x: -4 / (x ** 2 + 1) ** 3 + 24 * x ** 2 / (x ** 2 + 1) ** 4),
    "x / (1 + x^2)": (lambda x: x / (1 + x * x),
                      lambda x: 2 * x * (x ** 2 - 3) / (1 + x ** 2) ** 3),
    "sin 2x": (lambda x: dual.sin(2 * x), lambda x: -4 * np.sin(2 * x)),
    "sin x^2": (lambda x: dual.sin(x * x),
                lambda x: 2 * np.cos(x ** 2) - 4 * x ** 2 * np.sin(x ** 2)),
    "cos x^2": (lambda x: dual.cos(x * x),
                lambda x: -2 * np.sin(x ** 2) - 4 * x ** 2 * np.cos(x ** 2)),
    "sinh x^2": (lambda x: dual.sinh(x * x),
                 lambda x: 2 * np.cosh(x ** 2) + 4 * x ** 2 * np.sinh(x ** 2)),
    "cosh x^2": (lambda x: dual.cosh(x * x),
                 lambda x: 2 * np.sinh(x ** 2) + 4 * x ** 2 * np.cosh(x ** 2)),
    "i sinh x": (lambda x: 1j * dual.sinh(x), lambda x: 1j * np.sinh(x)),  # case 11's lift
}
POINTS = {"float": 0.7, "negative float": -1.3, "complex": 0.4 + 0.3j,
          "array": np.array([0.7, -1.3, 2.1]), "complex array": np.array([0.4 + 0.3j, -1.1j])}


@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("rule", sorted(SECOND_ORDER))
def test_second_derivatives_match_closed_forms(rule, point):
    through_jet, second = SECOND_ORDER[rule]
    x = POINTS[point]
    got, want = through_jet(seed(x)).d2, second(x)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), (got, want)
    assert isinstance(got, np.ndarray) == isinstance(x, np.ndarray)
    assert np.iscomplexobj(got) == (np.iscomplexobj(x) or rule == "i sinh x")


def test_array_components_match_point_seeds():
    # a jet seeded with a whole grid gives each point's scalar jet, numpy's
    # ufuncs against math's to a few units in the last place
    xs = np.linspace(-1.4, 1.6, 7)
    for rule, (through_jet, _) in SECOND_ORDER.items():
        grid = through_jet(seed(xs))
        for i, x in enumerate(xs.tolist()):
            one = through_jet(seed(x))
            for g, w in ((grid.val, one.val), (grid.d1, one.d1), (grid.d2, one.d2)):
                assert abs(g[i] - w) <= 1e-14 * max(1.0, abs(w)), (rule, x)


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
    def through_jet(d):
        return (a * getattr(dual, f)(d) + b * d) / (c + getattr(dual, g)(d) ** 2)

    def plain(z):
        return (a * ELEMENTARY[f](z) + b * z) / (c + ELEMENTARY[g](z) ** 2)

    z = complex(x, y) if y else x
    assume(abs(c + ELEMENTARY[g](z) ** 2) > 0.25)
    d = through_jet(seed(z))
    assert abs(d.val - plain(z)) <= 1e-12 * max(1.0, abs(plain(z)))
    want = central(plain, z)
    assert abs(d.d1 - want) <= 1e-7 * max(1.0, abs(want)), (f, g, z)
    want2 = central(lambda t: through_jet(seed(t)).d1, z)
    assert abs(d.d2 - want2) <= 1e-7 * max(1.0, abs(want2)), (f, g, z)
    assert isinstance(d.val, complex) == isinstance(z, complex)


# Each rule of the dual.py docstring, written out on plain floats and
# complexes: an operator must return exactly these (val, d1, d2), signed
# zeros, infinities and nans included, so no rewrite can reorder the
# arithmetic.
REALS = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0]),
                  st.floats())
COMPONENTS = st.one_of(REALS, st.builds(complex, REALS, REALS))
SCALARS = st.one_of(st.integers(-3, 3), COMPONENTS)
JETS = st.builds(Jet, COMPONENTS, COMPONENTS, COMPONENTS)


def _product(a, b):
    av, a1, a2 = a
    bv, b1, b2 = b
    return av * bv, a1 * bv + av * b1, a2 * bv + 2 * (a1 * b1) + av * b2


def _quotient(a, b):
    v = a.val / b.val
    v1 = (a.d1 - v * b.d1) / b.val
    return v, v1, (a.d2 - 2 * (v1 * b.d1) - v * b.d2) / b.val


def _reciprocal(s, a):
    """The rule for s / a."""
    v = s / a.val
    v1 = -v * a.d1 / a.val
    return v, v1, -(2 * (v1 * a.d1) + v * a.d2) / a.val


def _parts(a):
    return a.val, a.d1, a.d2


JET_RULES = {
    "a + b": (lambda a, b: a + b,
              lambda a, b: (a.val + b.val, a.d1 + b.d1, a.d2 + b.d2)),
    "a - b": (lambda a, b: a - b,
              lambda a, b: (a.val - b.val, a.d1 - b.d1, a.d2 - b.d2)),
    "a * b": (lambda a, b: a * b, lambda a, b: _product(_parts(a), _parts(b))),
    "a / b": (lambda a, b: a / b, _quotient),
}
SCALAR_RULES = {
    "a + s": (lambda a, s: a + s, lambda a, s: (a.val + s, a.d1, a.d2)),
    "s + a": (lambda a, s: s + a, lambda a, s: (a.val + s, a.d1, a.d2)),
    "a - s": (lambda a, s: a - s, lambda a, s: (a.val - s, a.d1, a.d2)),
    "s - a": (lambda a, s: s - a, lambda a, s: (s - a.val, -a.d1, -a.d2)),
    "a * s": (lambda a, s: a * s, lambda a, s: (a.val * s, a.d1 * s, a.d2 * s)),
    "s * a": (lambda a, s: s * a, lambda a, s: (a.val * s, a.d1 * s, a.d2 * s)),
    "a / s": (lambda a, s: a / s, lambda a, s: (a.val / s, a.d1 / s, a.d2 / s)),
    "s / a": (lambda a, s: s / a, lambda a, s: _reciprocal(s, a)),
}


def _power(a, n):
    if n == 0:
        return 1.0, 0.0, 0.0
    out = _parts(a)
    for _ in range(abs(n) - 1):
        out = _product(out, _parts(a))
    if n > 0:
        return out
    return _reciprocal(1.0, Jet(*out))


def _lifted(name, a):
    """f(v), f'(v) d1 and f''(v) d1^2 + f'(v) d2 from math, or cmath on a complex v."""
    v, d1, d2 = _parts(a)
    lib = cmath if isinstance(v, complex) else math
    f, df = {"sin": (lib.sin, lib.cos), "cos": (lib.cos, lib.sin),
             "sinh": (lib.sinh, lib.cosh), "cosh": (lib.cosh, lib.sinh)}[name]
    fv, dv = f(v), df(v)
    if name == "cos":
        dv = -dv
    return fv, dv * d1, (-fv if name in ("sin", "cos") else fv) * (d1 * d1) + dv * d2


def _outcome(fn):
    """(val, d1, d2) of a Jet or a triple, or the type of the exception raised."""
    try:
        out = fn()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return _parts(out) if isinstance(out, Jet) else out


def _same_float(x, y):
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def _same(got, want):
    if isinstance(got, type) or isinstance(want, type):
        return got is want
    for g, w in zip(got, want, strict=True):
        if type(g) is not type(w):
            return False
        if isinstance(g, complex):
            if not (_same_float(g.real, w.real) and _same_float(g.imag, w.imag)):
                return False
        elif not _same_float(g, w):
            return False
    return True


@settings(derandomize=True, deadline=None, max_examples=300)
@given(rule=st.sampled_from(sorted(JET_RULES)), a=JETS, b=JETS)
def test_dual_operators_follow_their_rules_bit_for_bit(rule, a, b):
    op, formula = JET_RULES[rule]
    got, want = _outcome(lambda: op(a, b)), _outcome(lambda: formula(a, b))
    assert _same(got, want), (rule, a, b, got, want)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(rule=st.sampled_from(sorted(SCALAR_RULES)), a=JETS, s=SCALARS)
def test_scalar_operators_follow_their_rules_bit_for_bit(rule, a, s):
    op, formula = SCALAR_RULES[rule]
    got, want = _outcome(lambda: op(a, s)), _outcome(lambda: formula(a, s))
    assert _same(got, want), (rule, a, s, got, want)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(a=JETS, n=st.integers(-3, 3))
def test_powers_and_negation_follow_their_rules_bit_for_bit(a, n):
    got, want = _outcome(lambda: a ** n), _outcome(lambda: _power(a, n))
    assert _same(got, want), (a, n, got, want)
    assert _same(_outcome(lambda: -a), (-a.val, -a.d1, -a.d2))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(name=st.sampled_from(NAMES), a=JETS)
def test_lifts_follow_their_rule_bit_for_bit(name, a):
    got = _outcome(lambda: getattr(dual, name)(a))
    want = _outcome(lambda: _lifted(name, a))
    assert _same(got, want), (name, a, got, want)


def test_the_bit_comparison_tells_signed_zeros_and_nans_apart():
    assert _same((0.0, math.nan, 1.0), (0.0, -math.nan, 1.0))
    assert not _same((0.0, 1.0, 1.0), (-0.0, 1.0, 1.0))
    assert not _same((complex(0.0, -0.0), 1.0, 1.0), (complex(0.0, 0.0), 1.0, 1.0))
    assert not _same((1.0, 1.0, 1.0), (1.0 + 0j, 1.0, 1.0))
    assert not _same((1.0, 1.0, 1.0), (1.0, 1.0, -1.0))
    assert not _same((1.0, 1.0, 1.0), ZeroDivisionError)
