"""Forward-mode value-and-derivative scalars.

A Dual carries (val, eps) = (f(x), f'(x)) through arithmetic, so rational
superpotential pieces and their derivatives come out of one evaluation pass
with no finite differencing.  Components may be float or complex; the
polynomial recurrences only ever combine Duals with +, -, *, /.

The elementary functions below also take a plain numpy array, which goes
through the numpy ufunc (real or complex) in one call: the value-only
passes (the extension denominator scan and cond2) evaluate a whole grid at
once that way.  Python scalars and Duals keep `math`/`cmath`, which on
scalars are faster than numpy's scalar path; that branch goes once the
Dual checks (cond1, ext-si, the pointwise potential) carry arrays too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

_SCALARS = (int, float, complex)


@dataclass(frozen=True)
class Dual:
    val: complex
    eps: complex = 0.0

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.eps + other.eps)
        if isinstance(other, _SCALARS):
            return Dual(self.val + other, self.eps)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.eps - other.eps)
        if isinstance(other, _SCALARS):
            return Dual(self.val - other, self.eps)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return Dual(other - self.val, -self.eps)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.eps * other.val + self.val * other.eps)
        if isinstance(other, _SCALARS):
            return Dual(self.val * other, self.eps * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
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


def _lift(fn_real, fn_cplx, fn_array, d, dfn):
    if isinstance(d, np.ndarray):
        return fn_array(d)
    if isinstance(d, Dual):
        f = fn_cplx(d.val) if isinstance(d.val, complex) else fn_real(d.val)
        return Dual(f, dfn(d.val) * d.eps)
    return fn_cplx(d) if isinstance(d, complex) else fn_real(d)


def sin(d):
    return _lift(math.sin, cmath.sin, np.sin, d,
                 lambda v: cmath.cos(v) if isinstance(v, complex) else math.cos(v))


def cos(d):
    return _lift(math.cos, cmath.cos, np.cos, d,
                 lambda v: -(cmath.sin(v) if isinstance(v, complex) else math.sin(v)))


def sinh(d):
    return _lift(math.sinh, cmath.sinh, np.sinh, d,
                 lambda v: cmath.cosh(v) if isinstance(v, complex) else math.cosh(v))


def cosh(d):
    return _lift(math.cosh, cmath.cosh, np.cosh, d,
                 lambda v: cmath.sinh(v) if isinstance(v, complex) else math.sinh(v))


def exp(d):
    return _lift(math.exp, cmath.exp, np.exp, d,
                 lambda v: cmath.exp(v) if isinstance(v, complex) else math.exp(v))


def tan(d):
    return sin(d) / cos(d)


def cot(d):
    return cos(d) / sin(d)


def value(d) -> complex:
    return d.val if isinstance(d, Dual) else d


def derivative(d) -> complex:
    return d.eps if isinstance(d, Dual) else 0.0
