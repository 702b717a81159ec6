"""Forward-mode dual numbers against finite differences."""

import cmath
import math

from hypothesis import assume, given, settings, strategies as st
import pytest

from shapeinv import dual
from shapeinv.dual import Dual, derivative, seed, value


def fd(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_seed_and_accessors():
    d = seed(1.5)
    assert value(d) == 1.5 and derivative(d) == 1.0
    assert value(2.0) == 2.0 and derivative(2.0) == 0.0


def test_arithmetic_rules():
    x = seed(0.7)
    y = Dual(2.0, 0.0)
    assert derivative(x + y) == 1.0
    assert derivative(x - y) == 1.0
    assert derivative(y - x) == -1.0
    assert derivative(x * x) == pytest.approx(1.4)
    assert derivative(1.0 / x) == pytest.approx(-1.0 / 0.49)
    assert derivative(x ** 3) == pytest.approx(3 * 0.7 ** 2)
    assert derivative(2.0 * x + 1.0) == 2.0


@pytest.mark.parametrize("name,f", [
    ("sin", math.sin), ("cos", math.cos),
    ("sinh", math.sinh), ("cosh", math.cosh),
    ("exp", math.exp), ("tan", math.tan),
])
def test_elementary_derivatives(name, f):
    g = getattr(dual, name)
    for x0 in (0.3, 1.1, -0.8):
        d = g(seed(x0))
        assert value(d) == pytest.approx(f(x0), rel=1e-12)
        assert derivative(d) == pytest.approx(fd(f, x0), rel=1e-7)


def test_cot_derivative():
    x0 = 0.9
    d = dual.cot(seed(x0))
    assert value(d) == pytest.approx(math.cos(x0) / math.sin(x0), rel=1e-12)
    assert derivative(d) == pytest.approx(-1.0 / math.sin(x0) ** 2, rel=1e-10)


def test_composite_matches_fd():
    def f(x):
        return math.exp(math.sin(2 * x)) / (1.0 + x * x)

    def fdual(x):
        d = seed(x)
        return dual.exp(dual.sin(2 * d)) / (1.0 + d * d)

    for x0 in (-1.3, 0.2, 2.4):
        d = fdual(x0)
        assert value(d) == pytest.approx(f(x0), rel=1e-12)
        assert derivative(d) == pytest.approx(fd(f, x0), rel=1e-6)


def test_complex_path():
    x0 = 0.4
    d = dual.cosh(Dual(complex(0, x0), complex(0, 1)))
    # cosh(ix) = cos(x), d/dx cosh(ix) = i sinh(ix) = -sin(x)
    assert value(d) == pytest.approx(math.cos(x0), rel=1e-12)
    assert derivative(d) == pytest.approx(-math.sin(x0), rel=1e-12)
    e = dual.exp(seed(1.0 + 2.0j))
    assert value(e) == pytest.approx(cmath.exp(1.0 + 2.0j))
    assert derivative(e) == pytest.approx(cmath.exp(1.0 + 2.0j))


def test_division_by_dual():
    x = seed(2.0)
    q = 3.0 / x
    assert value(q) == pytest.approx(1.5)
    assert derivative(q) == pytest.approx(-3.0 / 4.0)


ELEMENTARY = {
    "sin": cmath.sin, "cos": cmath.cos, "sinh": cmath.sinh,
    "cosh": cmath.cosh, "exp": cmath.exp,
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
    assert abs(value(d) - plain(z)) <= 1e-12 * max(1.0, abs(plain(z)))
    want = central(plain, z)
    assert abs(derivative(d) - want) <= 1e-7 * max(1.0, abs(want)), (f, g, z)
    assert isinstance(value(d), complex) == isinstance(z, complex)
