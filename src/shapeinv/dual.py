"""Forward-mode second-order jets.

A Jet carries (val, d1, d2) = (f(x), f'(x), f''(x)) through arithmetic, so
an extension bottom b comes out of one pass with b' and b'', and the
correction W1 = b'/b with its derivative, with no finite differencing.
Components may be float, complex or numpy arrays; the polynomial
recurrences only combine Jets with +, -, *, /.  A Jet is a slotted value
that nothing assigns to after construction: three plain stores, where a
frozen dataclass pays three `object.__setattr__` calls for each of the
dozen Jets a grid point builds.  Each operator tests `type(other) is Jet`
and takes any other operand as a constant s; the recurrences and bottoms
pass only ints, floats and complex numbers.  With a, b Jets, the rules
are, in this order of operations:

    a + b = (a.val + b.val, a.d1 + b.d1, a.d2 + b.d2)
    a + s = s + a = (a.val + s, a.d1, a.d2)
    a - b = (a.val - b.val, a.d1 - b.d1, a.d2 - b.d2)
    a - s = (a.val - s, a.d1, a.d2)
    -a = (-a.val, -a.d1, -a.d2)
    s - a = (s - a.val, -a.d1, -a.d2)
    a * b = (a.val * b.val, a.d1 * b.val + a.val * b.d1,
             a.d2 * b.val + 2 * (a.d1 * b.d1) + a.val * b.d2)
    a * s = s * a = (a.val * s, a.d1 * s, a.d2 * s)
    a / b = (v, v1, (a.d2 - 2 * (v1 * b.d1) - v * b.d2) / b.val)
            with v = a.val / b.val, v1 = (a.d1 - v * b.d1) / b.val
    a / s = (a.val / s, a.d1 / s, a.d2 / s)
    s / a = (v, v1, -(2 * (v1 * a.d1) + v * a.d2) / a.val)
            with v = s / a.val, v1 = -v * a.d1 / a.val
    a ** 0 = (1.0, 0.0, 0.0), a ** n = (...(a * a) * a ...) * a, a ** -n = 1.0 / a ** n

The lifts sin, cos, sinh and cosh follow one rule, f(a) = (f(a.val),
f'(a.val) * a.d1, f''(a.val) * (a.d1 * a.d1) + f'(a.val) * a.d2), with f'
= cos, -sin, cosh or sinh and f'' = -f for sin and cos, f for sinh and
cosh.  On a numpy array, bare or as a Jet component, they call the numpy
ufunc, so the denominator scan and cond2 take a whole grid at once; on
Python scalars, the per-point seeds of `extensions._pointwise`, they call
`math`, or `cmath` when complex, faster than numpy's scalar path.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

class Jet:
    __slots__ = ("val", "d1", "d2")

    def __init__(self, val, d1=0.0, d2=0.0):
        self.val = val
        self.d1 = d1
        self.d2 = d2

    def __repr__(self):
        return f"Jet(val={self.val!r}, d1={self.d1!r}, d2={self.d2!r})"

    def __add__(self, other):
        if type(other) is Jet:
            return Jet(self.val + other.val, self.d1 + other.d1, self.d2 + other.d2)
        return Jet(self.val + other, self.d1, self.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.d1, -self.d2)

    def __sub__(self, other):
        if type(other) is Jet:
            return Jet(self.val - other.val, self.d1 - other.d1, self.d2 - other.d2)
        return Jet(self.val - other, self.d1, self.d2)

    def __rsub__(self, other):
        return Jet(other - self.val, -self.d1, -self.d2)

    def __mul__(self, other):
        if type(other) is Jet:
            return Jet(self.val * other.val,
                       self.d1 * other.val + self.val * other.d1,
                       self.d2 * other.val + 2 * (self.d1 * other.d1) + self.val * other.d2)
        return Jet(self.val * other, self.d1 * other, self.d2 * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Jet:
            v = self.val / other.val
            v1 = (self.d1 - v * other.d1) / other.val
            return Jet(v, v1, (self.d2 - 2 * (v1 * other.d1) - v * other.d2) / other.val)
        return Jet(self.val / other, self.d1 / other, self.d2 / other)

    def __rtruediv__(self, other):
        v = other / self.val
        v1 = -v * self.d1 / self.val
        return Jet(v, v1, -(2 * (v1 * self.d1) + v * self.d2) / self.val)

    def __pow__(self, n):
        if n == 0:
            return Jet(1.0, 0.0, 0.0)
        if n < 0:
            return 1.0 / self.__pow__(-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out


def seed(x) -> Jet:
    """The independent variable: d/dx x = 1, d^2/dx^2 x = 0."""
    return Jet(x, 1.0, 0.0)


def _lift(name: str, dname: str, negate: bool = False):
    """The function `name` of numpy, cmath and math, with derivative
    (-)`dname` and second derivative -`name` (sin, cos) or `name` (sinh, cosh)."""
    arrays, complexes, reals = ((getattr(m, name), getattr(m, dname)) for m in (np, cmath, math))
    periodic = not name.endswith("h")

    def pair(v):
        if isinstance(v, np.ndarray):
            return arrays
        return complexes if isinstance(v, complex) else reals

    def fn(d):
        if type(d) is not Jet:
            return pair(d)[0](d)
        func, deriv = pair(d.val)
        f, df = func(d.val), (-deriv(d.val) if negate else deriv(d.val))
        return Jet(f, df * d.d1, (-f if periodic else f) * (d.d1 * d.d1) + df * d.d2)

    return fn


sin = _lift("sin", "cos")
cos = _lift("cos", "sin", negate=True)
sinh = _lift("sinh", "cosh")
cosh = _lift("cosh", "sinh")
