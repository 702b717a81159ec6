"""Forward-mode value-and-derivative scalars.

A Dual carries (val, eps) = (f(x), f'(x)) through arithmetic, so rational
superpotential pieces and their derivatives come out of one evaluation pass
with no finite differencing.  Components may be float or complex; the
polynomial recurrences only ever combine Duals with +, -, *, /.

A Dual is a slotted value that nothing assigns to after construction: the
constructor does two plain stores, where a frozen dataclass pays two
`object.__setattr__` calls.  The extension checks build about a dozen
Duals per grid point, so that cost is paid a dozen times per point.  Each
operator tests `type(other) is Dual` before its scalar branch.  With
a, b Duals and s an int, float or complex, the rules are, in this order of
operations:

    a + b = (a.val + b.val, a.eps + b.eps)    a + s = s + a = (a.val + s, a.eps)
    a - b = (a.val - b.val, a.eps - b.eps)    a - s = (a.val - s, a.eps)
    -a = (-a.val, -a.eps)                     s - a = (s - a.val, -a.eps)
    a * b = (a.val * b.val, a.eps * b.val + a.val * b.eps)
    a * s = s * a = (a.val * s, a.eps * s)
    a / b = (v, (a.eps - v * b.eps) / b.val)  with v = a.val / b.val
    a / s = (a.val / s, a.eps / s)
    s / a = (v, -v * a.eps / a.val)           with v = s / a.val
    a ** 0 = (1.0, 0.0), a ** n = (...(a * a) * a ...) * a, a ** -n = 1.0 / a ** n

The four elementary functions the W1 displays call (sin, cos, sinh and
cosh) come from one lift rule, f(a) = (f(a.val), (+-)f'(a.val) * a.eps).
On a numpy array they call the numpy ufunc (real or complex) once, so the
value-only passes (the extension denominator scan and cond2) evaluate a
whole grid at a time.  On Python scalars and Dual components they call
`math`, or `cmath` when complex, faster than numpy's scalar path; the Dual
checks seed one point at a time in `extensions._pointwise`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_SCALARS = (int, float, complex)


class Dual:
    __slots__ = ("val", "eps")

    def __init__(self, val, eps=0.0):
        self.val = val
        self.eps = eps

    def __repr__(self):
        return f"Dual(val={self.val!r}, eps={self.eps!r})"

    def __add__(self, other):
        if type(other) is Dual:
            return Dual(self.val + other.val, self.eps + other.eps)
        if isinstance(other, _SCALARS):
            return Dual(self.val + other, self.eps)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __sub__(self, other):
        if type(other) is Dual:
            return Dual(self.val - other.val, self.eps - other.eps)
        if isinstance(other, _SCALARS):
            return Dual(self.val - other, self.eps)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return Dual(other - self.val, -self.eps)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is Dual:
            return Dual(self.val * other.val,
                        self.eps * other.val + self.val * other.eps)
        if isinstance(other, _SCALARS):
            return Dual(self.val * other, self.eps * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Dual:
            v = self.val / other.val
            return Dual(v, (self.eps - v * other.eps) / other.val)
        if isinstance(other, _SCALARS):
            return Dual(self.val / other, self.eps / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            v = other / self.val
            return Dual(v, -v * self.eps / self.val)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return Dual(1.0, 0.0)
        if n < 0:
            return 1.0 / self.__pow__(-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out


def seed(x: float) -> Dual:
    """The independent variable: d/dx x = 1."""
    return Dual(x, 1.0)


def _lift(name: str, dname: str, negate: bool = False):
    """The function `name` of math, cmath and numpy, with derivative (-)`dname`."""
    real, cplx, array = getattr(math, name), getattr(cmath, name), getattr(np, name)
    dreal, dcplx = getattr(math, dname), getattr(cmath, dname)

    def fn(d):
        if type(d) is Dual:
            v = d.val
            f, df = (cplx(v), dcplx(v)) if isinstance(v, complex) else (real(v), dreal(v))
            return Dual(f, (-df if negate else df) * d.eps)
        if isinstance(d, np.ndarray):
            return array(d)
        return cplx(d) if isinstance(d, complex) else real(d)

    return fn


sin = _lift("sin", "cos")
cos = _lift("cos", "sin", negate=True)
sinh = _lift("sinh", "cosh")
cosh = _lift("cosh", "sinh")
