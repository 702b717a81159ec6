"""Forward-mode value-and-derivative scalars.

A Dual carries (val, eps) = (f(x), f'(x)) through arithmetic, so rational
superpotential pieces and their derivatives come out of one evaluation pass
with no finite differencing.  Components may be float or complex; the
polynomial recurrences only ever combine Duals with +, -, *, /.

The four elementary functions the W1 displays call (sin, cos, sinh and
cosh) come from one lift rule.  On a numpy array they call the numpy ufunc
(real or complex) once, so the value-only passes (the extension
denominator scan and cond2) evaluate a whole grid at a time.  On Python
scalars and Dual components they call `math`, or `cmath` when complex,
faster than numpy's scalar path; the Dual checks seed one point at a time
in `extensions._pointwise`.
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


def _lift(name: str, dname: str, negate: bool = False):
    """The function `name` of math, cmath and numpy, with derivative (-)`dname`."""
    real, cplx, array = getattr(math, name), getattr(cmath, name), getattr(np, name)
    dreal, dcplx = getattr(math, dname), getattr(cmath, dname)

    def fn(d):
        if isinstance(d, np.ndarray):
            return array(d)
        if isinstance(d, Dual):
            v = d.val
            f, df = (cplx(v), dcplx(v)) if isinstance(v, complex) else (real(v), dreal(v))
            return Dual(f, (-df if negate else df) * d.eps)
        return cplx(d) if isinstance(d, complex) else real(d)

    return fn


sin = _lift("sin", "cos")
cos = _lift("cos", "sin", negate=True)
sinh = _lift("sinh", "cosh")
cosh = _lift("cosh", "sinh")
