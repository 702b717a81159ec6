"""Rational extensions W = W0 + W1p - W1m of the invariant-built bases.

Eleven closed cases, each a base superpotential W0 plus a pair of rational
corrections, written down once, as its CaseSpec record in CASE_SPECS plus
its W1 function.  W0 is one of the thirteen families, stretched by a scale
s (W0(x) = s k(s x)), and its remainder is s^2 times the family's R, so
neither is transcribed here.  Each correction is the logarithmic
derivative W1 = b'/b of its bottom b, a terminating polynomial (Jacobi,
Laguerre, Kummer or Gauss) or a plain rational expression in a lift of x,
so only the bottoms are written down: one call of a case's W1 function
returns both, evaluating the shared lifts once.  The plus and minus
bottoms are still transcribed independently, with their own literal
parameter offsets, so the unit-translation consistency check (cond2)
genuinely compares two displays instead of restating one.  A second-order
jet (`dual.Jet`) gives b, b' and b'' in one pass, so W1 = b'/b,
W1' = b''/b - W1^2, and W1^2 + W1' = b''/b with no 1/b^2 terms to cancel.
cond1, ext-si and all the readers do array arithmetic on one pass,
`_pointwise`: W0 comes from the base family over the whole grid at once,
both bottoms' jets from one call on a jet seeded at each point.  The gauge
freedom f(x) is fixed to zero, which turns cond1 into a sharp zero-test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import dual
from .dual import seed
from .errors import DenominatorZero, ValidationError
from .families import (_FOLD_D_ONLY, FAMILY_SPECS, ConstructionData, Domain, Fold, _fold,
                       _make_domain)
# the fold styles shared with the base families, under the case table's names
from .families import _FOLD_BETA_MEAN as _FOLD_PLUS_BETA, _FOLD_BETA_MEAN_NEG as _FOLD_MINUS_BETA
from .families import _FOLD_D_MEAN as _FOLD_D
from .specfun import hyp1f1_terminating, hyp2f1_terminating, jacobi_p, laguerre_l
from .verify import GridReport, _report, clip_window, grid_points

MAX_ELL = 8
_GRID_POINTS = 501    # check grid; the denominator scan samples four times as densely


@dataclass(frozen=True)
class CaseSpec:
    """Everything one extension case needs.

    The base W0 is the family `base` at (eps, rho) = base_params(e, r, l),
    stretched by the scale s: W0(x) = s k(s x), W0'(x) = s^2 k'(s x), and
    its remainder is s^2 R; the domain and window are the family's divided
    by s.  w1(x, e, r, l) returns (bottom_plus, bottom_minus), the bottoms
    b of both displays from one call, each correction being W1 = b'/b;
    constants(e, r, l) lists the constant factors of the bottoms, which
    b'/b does not see, checked once at build time.
    """

    num: int
    label: str
    fold: Fold
    uses_ell: bool
    base: str
    w1: Callable
    scale: int = 1
    base_params: Callable[[float, float, int], tuple] = lambda e, r, l: (e, r)
    constants: Callable[[float, float, int], tuple] = lambda e, r, l: ()
    domain: Domain = field(init=False)
    window: tuple[float, float] = field(init=False)

    def __post_init__(self):
        fam, s = FAMILY_SPECS[self.base], self.scale
        object.__setattr__(self, "domain", _make_domain(fam.domain.lo / s, fam.domain.hi / s))
        object.__setattr__(self, "window", (fam.window[0] / s, fam.window[1] / s))


# One W1 function per case, returning (bottom_plus, bottom_minus): the lifts
# are evaluated once, and each bottom is spelled out with its own literal
# parameter offsets, so cond2 compares two transcriptions; xd may be a float
# or a numpy array of points (values only) or a Jet seed (values and the
# first two derivatives).

def _w1_case1(xd, e, r, l):
    ch = dual.cosh(xd)
    return 2 * e + 1 - 2 * r * ch, 2 * e - 1 - 2 * r * ch


def _w1_case2(xd, e, r, l):
    ch = dual.cosh(xd)
    return (jacobi_p(l, -0.5 + e - r, -1.5 - e - r, ch),
            jacobi_p(l, -1.5 + e - r, -0.5 - e - r, ch))


def _w1_case3(xd, e, r, l):
    ch = dual.cosh(xd * 2)
    return (jacobi_p(l, -1.5 - l - e - r, -0.5 + l + e - r, ch),
            jacobi_p(l, -0.5 - l - e - r, -1.5 + l + e - r, ch))


def _w1_case4(xd, e, r, l):
    x2 = xd ** 2
    return 2 * e + 1 - 2 * r * x2, 2 * e - 1 - 2 * r * x2


def _w1_case5(xd, e, r, l):
    z = -r * xd ** 2
    return laguerre_l(l, -1.5 - e, z), laguerre_l(l, -0.5 - e, z)


def _w1_case6(xd, e, r, l):
    z = -(xd ** 2)
    return laguerre_l(l, -0.5 + l + e, z), laguerre_l(l, -1.5 + l + e, z)


def _w1_case7(xd, e, r, l):
    z = -(xd ** 2)
    return ((0.5 + l + e) * hyp1f1_terminating(-l, 0.5 + l + e, z),
            (-0.5 + l + e) * hyp1f1_terminating(-l, -0.5 + l + e, z))


def _w1_case8(xd, e, r, l):
    sn = dual.sin(xd)
    return 2 * e + 1 + 2 * r * sn, 2 * e - 1 + 2 * r * sn


def _w1_case9(xd, e, r, l):
    cz = dual.cos(xd * 2)
    return (jacobi_p(l, -1.5 - l - e + r, -0.5 + l + e + r, cz),
            jacobi_p(l, -0.5 - l - e + r, -1.5 + l + e + r, cz))


def _w1_case10(xd, e, r, l):
    z = dual.sin(xd) ** 2
    # the Gamma quotient Gamma(c)/Gamma(c+1) = 1/c of the display leaves the
    # constant factor c in the bottom, where the scan checks it
    return ((0.5 + e + r) * hyp2f1_terminating(-l, -1 + l + 2 * r, 0.5 + e + r, z),
            (-0.5 + e + r) * hyp2f1_terminating(-l, -1 + l + 2 * r, -0.5 + e + r, z))


def _w1_case11(xd, e, r, l):
    arg = 1j * dual.sinh(xd)
    return (jacobi_p(l, -r + e - 0.5, -r - e - 1.5, arg),
            jacobi_p(l, -r + e - 1.5, -r - e - 0.5, arg))


CASE_SPECS: dict[int, CaseSpec] = {cs.num: cs for cs in (
    CaseSpec(1, "coth base, rational cosh correction", _FOLD_PLUS_BETA, False,
             "poschl-teller", _w1_case1),
    CaseSpec(2, "coth base, Jacobi-ratio correction of degree ell", _FOLD_PLUS_BETA, True,
             "poschl-teller", _w1_case2),
    CaseSpec(3, "double-argument coth base, Jacobi-ratio correction", _FOLD_PLUS_BETA, True,
             "poschl-teller", _w1_case3, scale=2, base_params=lambda e, r, l: (l + e, -r)),
    CaseSpec(4, "radial base, rational x^2 correction", _FOLD_D, False,
             "radial-osc", _w1_case4),
    CaseSpec(5, "radial base, Laguerre-ratio correction", _FOLD_D, True,
             "radial-osc", _w1_case5),
    CaseSpec(6, "unit-slope radial base, Laguerre-ratio correction", _FOLD_D_ONLY, True,
             "radial-osc", _w1_case6, base_params=lambda e, r, l: (e + l, -1.0)),
    CaseSpec(7, "unit-slope radial base, Kummer-ratio correction", _FOLD_D_ONLY, True,
             "radial-osc", _w1_case7, base_params=lambda e, r, l: (e + l, -1.0),
             constants=lambda e, r, l: (0.5 + l + e, -0.5 + l + e)),
    CaseSpec(8, "tan base, rational sin correction", _FOLD_MINUS_BETA, False,
             "scarf1", _w1_case8),
    CaseSpec(9, "double-argument cot base, Jacobi-ratio correction", _FOLD_MINUS_BETA, True,
             "scarf1-cot", _w1_case9, scale=2, base_params=lambda e, r, l: (e + l, -r)),
    CaseSpec(10, "double-argument cot base, Gauss-ratio correction", _FOLD_MINUS_BETA, True,
             "scarf1-cot", _w1_case10, scale=2,
             constants=lambda e, r, l: (0.5 + e + r, -0.5 + e + r)),
    # the sech term of the base is imaginary; the correction difference is not
    CaseSpec(11, "tanh base, complex Jacobi-ratio correction", _FOLD_PLUS_BETA, True,
             "scarf2", _w1_case11, base_params=lambda e, r, l: (e, 1j * r)),
)}

EXTENSION_IDS: tuple[str, ...] = tuple(f"ext-{n}" for n in CASE_SPECS)


def extension_ids() -> tuple[str, ...]:
    return EXTENSION_IDS


def case_number(case) -> int:
    """Normalize 3 / "3" / "ext-3" to the integer case number."""
    if isinstance(case, str):
        text = case[4:] if case.startswith("ext-") else case
        try:
            case = int(text)
        except ValueError:
            raise ValidationError(f"unknown extension case {case!r}") from None
    if not isinstance(case, int) or isinstance(case, bool) or case not in CASE_SPECS:
        raise ValidationError(
            f"extension case must be one of {', '.join(EXTENSION_IDS)}, got {case!r}")
    return case


@dataclass(frozen=True)
class ExtensionSpec:
    """Effective parameters of one extension instance.

    rho is 0.0 for the two cases that have no second parameter; ell is 0
    for the three purely rational cases.  The window is the interval the
    denominator scan certified; checks default to the same interval.
    """

    case_id: int
    eps: float
    rho: float
    ell: int
    window: tuple[float, float]
    provenance: ConstructionData

    @property
    def case(self) -> CaseSpec:
        return CASE_SPECS[self.case_id]

    @property
    def ext_id(self) -> str:
        return f"ext-{self.case_id}"

    @property
    def domain(self) -> Domain:
        return CASE_SPECS[self.case_id].domain


def _base_w0(cs: CaseSpec, xs: np.ndarray, e, r, l) -> tuple:
    """W0 = s k(s x) and W0' = s^2 k'(s x) over the points xs, from the base
    family's k in one pass; an overflow reads as a non-finite value."""
    eps, rho = cs.base_params(e, r, l)
    s = cs.scale
    with np.errstate(all="ignore"):
        k, kp = FAMILY_SPECS[cs.base].k(s * xs, eps, rho, 0.0)
        return s * k, s * s * kp


def _w1(cs: CaseSpec, xd, e, r, l) -> tuple:
    """(W1p, W1p', W1p^2 + W1p', W1m, W1m', W1m^2 + W1m') at the Jet seed xd:
    each correction is W1 = b'/b of its bottom b, W1' = b''/b - W1^2 and
    W1^2 + W1' = b''/b."""
    out = ()
    for b in cs.w1(xd, e, r, l):
        w1, curv = b.d1 / b.val, b.d2 / b.val
        out += (w1, curv - w1 * w1, curv)
    return out


def w1_branch(spec: ExtensionSpec, x: float, branch: int, shift: int = 0):
    """One correction branch at eps - shift, values only; nan at a pole or an overflow."""
    spec.domain.require_inside(x)
    return _pointwise(spec, np.array([float(x)]), shift)[2 if branch > 0 else 3].item()


def w1_difference(spec: ExtensionSpec, x: float, shift: int = 0):
    """W1p - W1m; complex on case 11, float elsewhere."""
    spec.domain.require_inside(x)
    p, m = _pointwise(spec, np.array([float(x)]), shift)[2:4]
    return p.item() - m.item()


def _pointwise(spec: ExtensionSpec, xs: np.ndarray, shift: int) -> tuple:
    """W, W', W1p, W1m, W0, W1p^2 + W1p' and W1m^2 + W1m' over the 1-D
    array xs, at eps - shift.

    W0 and W0' come from one pass of the base family over xs, both
    branches and their derivatives from one W1 call on a Jet seeded at
    each point.  Where a point overflows or meets an exact pole (any
    ArithmeticError), both branches are nan there, and so are W and W'."""
    cs, e, r, l = spec.case, spec.eps - shift, spec.rho, spec.ell
    w0, w0p = _base_w0(cs, xs, e, r, l)
    rows = []
    for x in xs.tolist():
        try:
            rows.append(_w1(cs, seed(x), e, r, l))
        except ArithmeticError:
            rows.append((math.nan,) * 6)
    p, pp, p2, m, mp, m2 = np.array(rows).reshape(-1, 6).T
    with np.errstate(all="ignore"):
        return w0 + p - m, w0p + pp - mp, p, m, w0, p2, m2


def _require_finite(cs: CaseSpec, xs: np.ndarray, vals: np.ndarray) -> None:
    """DenominatorZero at the first point where vals is not finite."""
    finite = np.isfinite(vals)
    if not np.all(finite):
        loc = float(xs[int(np.argmin(finite))])
        raise DenominatorZero(f"case {cs.num}: denominator not finite near x = {loc:.6g}", loc)


def _scan_denominators(cs: CaseSpec, e: float, r: float, l: int,
                       window: tuple[float, float]) -> None:
    """Reject parameter sets whose bottoms vanish somewhere on the window.

    Both branches at both eps and eps - 1, since every check evaluates the
    translated display too.  One W1 call per shift gives both bottoms over
    the whole scan grid (the W1 functions and the specfun recurrences take
    arrays), and the plus bottom is checked before the minus one; an
    overflow there reads as a non-finite bottom.  Real bottoms are then
    bisected to the root point by point, each step reading the bottom it
    needs from one scalar W1 call; complex bottoms (case 11's) can only be
    screened by magnitude.
    """
    a, b = window
    xs = np.linspace(a, b, 4 * _GRID_POINTS + 1)
    for shift in (0, 1):
        ee = e - shift
        for c in cs.constants(ee, r, l):
            if abs(c) < 1e-9:
                raise DenominatorZero(
                    f"case {cs.num}: constant factor {c:.3e} vanishes at eps - {shift}")
        with np.errstate(all="ignore"):
            parts = cs.w1(xs, ee, r, l)
        for branch, at in ((1, 0), (-1, 1)):
            vals = parts[at]
            mags = np.abs(vals)
            _require_finite(cs, xs, mags)
            neighbor = np.maximum(np.roll(mags, 1), np.roll(mags, -1))
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
                    fm = float(cs.w1(mid, ee, r, l)[at])
                    if flo * fm <= 0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                loc = 0.5 * (lo + hi)
                raise DenominatorZero(
                    f"case {cs.num}: denominator root at x = {loc:.9g} "
                    f"(branch {branch:+d}, eps - {shift})", loc)


def build_extension(case, data: ConstructionData, ell: Optional[int] = None,
                    window: Optional[tuple[float, float]] = None) -> ExtensionSpec:
    """Fold the construction data for one case and certify its window.

    The denominator scan covers the given window (default: the case's
    standard one) at eps and eps - 1; a root is reported with its location
    rather than left to surface as a spike mid-check.
    """
    num = case_number(case)
    cs = CASE_SPECS[num]
    if cs.uses_ell:
        if not isinstance(ell, int) or isinstance(ell, bool):
            raise ValidationError(f"case {num} needs an integer ell >= 1")
        if not 1 <= ell <= MAX_ELL:
            raise ValidationError(f"ell must lie in 1..{MAX_ELL}, got {ell}")
    elif ell not in (None, 0):
        raise ValidationError(f"case {num} does not take an ell degree")
    l = ell if cs.uses_ell else 0
    eps, rho, _ = _fold(cs.fold, data)
    if window is None:
        window = cs.window
    a, b = clip_window(cs.domain, float(window[0]), float(window[1]))
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValidationError(f"window ({window[0]}, {window[1]}) does not "
                              f"intersect the case domain")
    _scan_denominators(cs, eps, rho, l, (a, b))
    return ExtensionSpec(case_id=num, eps=eps, rho=rho, ell=l,
                         window=(a, b), provenance=data)


@dataclass(frozen=True)
class ExtendedSuperpotential:
    """W = W0 + W1p - W1m, W', V = W^2 - W' and its partner W^2 + W'; each
    reader takes a scalar or an array of points in the domain, keeping its shape."""

    spec: ExtensionSpec

    def _read(self, x):
        self.spec.domain.require_inside(x)
        xs = np.asarray(x, dtype=float)
        w, wp = _pointwise(self.spec, xs.ravel(), 0)[:2]
        return w.reshape(xs.shape), wp.reshape(xs.shape)

    def w(self, x):
        return self._read(x)[0][()]

    def w_prime(self, x):
        return self._read(x)[1][()]

    def potential(self, x):
        w, wp = self._read(x)
        with np.errstate(all="ignore"):
            return (w ** 2 - wp)[()]

    def partner(self, x):
        w, wp = self._read(x)
        with np.errstate(all="ignore"):
            return (w ** 2 + wp)[()]


def extended_superpotential(spec: ExtensionSpec) -> ExtendedSuperpotential:
    return ExtendedSuperpotential(spec)


def base_remainder(spec: ExtensionSpec, shift: int = 0) -> float:
    """The base family's R evaluated at eps - shift, times s^2.

    R is the x-independent gap (W0^2 + W0')(eps) - (W0^2 - W0')(eps - 1).
    """
    cs = spec.case
    eps, rho = cs.base_params(spec.eps - shift, spec.rho, spec.ell)
    return cs.scale ** 2 * FAMILY_SPECS[cs.base].remainder(eps, rho, 0.0)


def extension_grid(spec: ExtensionSpec) -> tuple[float, float, int]:
    a, b = spec.window
    return (a, b, _GRID_POINTS)


def check_cond2(spec: ExtensionSpec, grid=None) -> GridReport:
    """Compare the minus display at eps with the plus display at eps - 1.

    Each side is one W1 call on a Jet seeded with the whole grid, at eps
    and at eps - 1, of which only the display compared is kept.  Residuals are
    scaled by 1/(1 + |W1p(eps - 1)|); the contract is a max of 1e-10.  A
    grid that reaches a pole or an overflow outside the certified window
    raises DenominatorZero, as the scan does.
    """
    xs, excluded = grid_points(spec.domain, grid or extension_grid(spec))
    cs, e, r, l = spec.case, spec.eps, spec.rho, spec.ell
    xd = seed(xs)
    with np.errstate(all="ignore"):
        minus = _w1(cs, xd, e, r, l)[3]
        plus_down = _w1(cs, xd, e - 1, r, l)[0]
        res = np.abs(minus - plus_down) / (1.0 + np.abs(plus_down))
    _require_finite(cs, xs, res)
    return _report(xs, res, excluded)


def check_cond1(spec: ExtensionSpec, grid=None) -> GridReport:
    """Zero-test of the branch compatibility combination.

    With the gauge function fixed to zero the combination
    W1p^2 + W1p' + W1m^2 + W1m' + 2 W0 (W1p - W1m) - 2 W1p W1m
    must vanish identically.  It is evaluated as bp''/bp + bm''/bm +
    2 W0 (W1p - W1m) - 2 W1p W1m, so near a small bottom no two terms of
    order 1/b^2 cancel.  The pointwise residual is the largest of
    |L(eps)| / (1 + |W0(eps)|^2), the same at eps - 1, and the unscaled
    cross-difference |L(eps) - L(eps - 1)|; the contract is 1e-8.  A point
    that overflows reads as non-finite, and the scan's rule raises
    DenominatorZero there.
    """
    xs, excluded = grid_points(spec.domain, grid or extension_grid(spec))
    # each part as a row at eps and a row at eps - 1
    _, _, p, m, w0, p2, m2 = np.stack([_pointwise(spec, xs, shift) for shift in (0, 1)], axis=1)
    with np.errstate(all="ignore"):
        lhs = p2 + m2 + 2 * w0 * (p - m) - 2 * p * m
        res = np.maximum(np.max(np.abs(lhs) / (1.0 + np.abs(w0) ** 2), axis=0),
                         np.abs(lhs[0] - lhs[1]))
    _require_finite(spec.case, xs, res)
    return _report(xs, res, excluded)


def extended_si_check(spec: ExtensionSpec, grid=None) -> GridReport:
    """Partner-vs-translated residual for the extended superpotential.

    (W^2 + W')(eps) against (W^2 - W')(eps - 1) + R(eps - 1) with R taken
    from the base; scaled like the family-side check.  A non-finite residual
    (an overflow past the certified window) raises DenominatorZero.
    """
    xs, excluded = grid_points(spec.domain, grid or extension_grid(spec))
    w, wp = _pointwise(spec, xs, 0)[:2]
    wd, wpd = _pointwise(spec, xs, 1)[:2]
    with np.errstate(all="ignore"):
        v_plus, v_down = w ** 2 + wp, wd ** 2 - wpd
        res = np.abs(v_plus - v_down - base_remainder(spec, shift=1)) / (1.0 + np.abs(v_down))
    _require_finite(spec.case, xs, res)
    return _report(xs, res, excluded)
