"""Rational extensions W = W0 + W1p - W1m of the invariant-built bases.

Eleven closed cases, each a base superpotential W0 plus a pair of rational
corrections, written down once, as its CaseSpec record in CASE_SPECS plus
its W1 function.  W0 is one of the thirteen families, stretched by a scale
s (W0(x) = s k(s x)), and its remainder is s^2 times the family's R, so
neither is transcribed here.  Every W1 branch factors as prefactor * top /
bottom where top and bottom are terminating polynomials (Jacobi, Laguerre,
Kummer, or Gauss ratios) or plain rational expressions; the plus and minus
branches are transcribed independently, with their own literal parameter
offsets, so the unit-translation consistency check (cond2) genuinely
compares two displays instead of restating one.  cond1, ext-si and the
ExtendedSuperpotential readers share one loop over points, `_pointwise`: W0
comes from the base family over the whole grid at once, W1 and its
derivative from a Dual seeded at each point.  The gauge freedom f(x) is
fixed to zero, which turns cond1 into a sharp zero-test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import dual
from .dual import Dual, seed
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
    by s.  w1(plus, x, e, r, l) returns (prefactor, top, bottom) of the plus
    or the minus display; constants(e, r, l) lists the constant factors of
    the bottoms, checked once at build time.
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
    complex_path: bool = False
    domain: Domain = field(init=False)
    window: tuple[float, float] = field(init=False)

    def __post_init__(self):
        fam, s = FAMILY_SPECS[self.base], self.scale
        object.__setattr__(self, "domain", _make_domain(fam.domain.lo / s, fam.domain.hi / s))
        object.__setattr__(self, "window", (fam.window[0] / s, fam.window[1] / s))


# One W1 function per case.  Both displays are spelled out with their own
# literal parameter offsets, so cond2 compares two transcriptions; xd may be
# a float or a numpy array of points (values only) or a Dual seed (values
# and derivatives).

def _w1_case1(plus, xd, e, r, l):
    den = 2 * e + 1 - 2 * r * dual.cosh(xd) if plus \
        else 2 * e - 1 - 2 * r * dual.cosh(xd)
    return 1.0, -2 * r * dual.sinh(xd), den


def _w1_case2(plus, xd, e, r, l):
    ch = dual.cosh(xd)
    pre = 0.5 * (l - 2 * r - 1) * dual.sinh(xd)
    if plus:
        top = jacobi_p(l - 1, 0.5 + e - r, -0.5 - e - r, ch)
        bot = jacobi_p(l, -0.5 + e - r, -1.5 - e - r, ch)
    else:
        top = jacobi_p(l - 1, -0.5 + e - r, 0.5 - e - r, ch)
        bot = jacobi_p(l, -1.5 + e - r, -0.5 - e - r, ch)
    return pre, top, bot


def _w1_case3(plus, xd, e, r, l):
    ch = dual.cosh(xd * 2)
    pre = -(2 * r - l + 1) * dual.sinh(xd * 2)
    if plus:
        top = jacobi_p(l - 1, -0.5 - l - e - r, 0.5 + l + e - r, ch)
        bot = jacobi_p(l, -1.5 - l - e - r, -0.5 + l + e - r, ch)
    else:
        top = jacobi_p(l - 1, 0.5 - l - e - r, -0.5 + l + e - r, ch)
        bot = jacobi_p(l, -0.5 - l - e - r, -1.5 + l + e - r, ch)
    return pre, top, bot


def _w1_case4(plus, xd, e, r, l):
    den = 2 * e + 1 - 2 * r * xd ** 2 if plus else 2 * e - 1 - 2 * r * xd ** 2
    return 1.0, -4 * r * xd, den


def _w1_case5(plus, xd, e, r, l):
    z = -r * xd ** 2
    pre = 2 * r * xd
    if plus:
        return pre, laguerre_l(l - 1, -0.5 - e, z), laguerre_l(l, -1.5 - e, z)
    return pre, laguerre_l(l - 1, 0.5 - e, z), laguerre_l(l, -0.5 - e, z)


def _w1_case6(plus, xd, e, r, l):
    z = -(xd ** 2)
    pre = 2 * xd
    if plus:
        return pre, laguerre_l(l - 1, 0.5 + l + e, z), laguerre_l(l, -0.5 + l + e, z)
    return pre, laguerre_l(l - 1, -0.5 + l + e, z), laguerre_l(l, -1.5 + l + e, z)


def _w1_case7(plus, xd, e, r, l):
    z = -(xd ** 2)
    pre = 2 * l * xd
    if plus:
        top = hyp1f1_terminating(1 - l, 1.5 + l + e, z)
        bot = (0.5 + l + e) * hyp1f1_terminating(-l, 0.5 + l + e, z)
    else:
        top = hyp1f1_terminating(1 - l, 0.5 + l + e, z)
        bot = (-0.5 + l + e) * hyp1f1_terminating(-l, -0.5 + l + e, z)
    return pre, top, bot


def _w1_case8(plus, xd, e, r, l):
    den = 2 * e + 1 + 2 * r * dual.sin(xd) if plus \
        else 2 * e - 1 + 2 * r * dual.sin(xd)
    return 1.0, 2 * r * dual.cos(xd), den


def _w1_case9(plus, xd, e, r, l):
    cz = dual.cos(xd * 2)
    pre = -(2 * r + l - 1) * dual.sin(xd * 2)
    if plus:
        top = jacobi_p(l - 1, -0.5 - l - e + r, 0.5 + l + e + r, cz)
        bot = jacobi_p(l, -1.5 - l - e + r, -0.5 + l + e + r, cz)
    else:
        top = jacobi_p(l - 1, 0.5 - l - e + r, -0.5 + l + e + r, cz)
        bot = jacobi_p(l, -0.5 - l - e + r, -1.5 + l + e + r, cz)
    return pre, top, bot


def _w1_case10(plus, xd, e, r, l):
    z = dual.sin(xd) ** 2
    pre = -l * (2 * r + l - 1) * dual.sin(xd * 2)
    # the Gamma-quotient prefactors reduce to first-order poles:
    # Gamma(c)/Gamma(c+1) = 1/c, folded into the bottom factor
    if plus:
        top = hyp2f1_terminating(1 - l, l + 2 * r, 1.5 + e + r, z)
        bot = (0.5 + e + r) * hyp2f1_terminating(-l, -1 + l + 2 * r, 0.5 + e + r, z)
    else:
        top = hyp2f1_terminating(1 - l, l + 2 * r, 0.5 + e + r, z)
        bot = (-0.5 + e + r) * hyp2f1_terminating(-l, -1 + l + 2 * r, -0.5 + e + r, z)
    return pre, top, bot


def _w1_case11(plus, xd, e, r, l):
    arg = 1j * dual.sinh(xd)
    pre = 0.5j * (l - 2 * r - 1) * dual.cosh(xd)
    if plus:
        top = jacobi_p(l - 1, -r + e + 0.5, -r - e - 0.5, arg)
        bot = jacobi_p(l, -r + e - 0.5, -r - e - 1.5, arg)
    else:
        top = jacobi_p(l - 1, -r + e - 0.5, -r - e + 0.5, arg)
        bot = jacobi_p(l, -r + e - 1.5, -r - e - 0.5, arg)
    return pre, top, bot


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
             "scarf2", _w1_case11, base_params=lambda e, r, l: (e, 1j * r),
             complex_path=True),
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
    if not isinstance(case, int) or case not in CASE_SPECS:
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


def _w1(cs: CaseSpec, plus: bool, xd, e, r, l):
    pre, top, bot = cs.w1(plus, xd, e, r, l)
    return pre * top / bot


def w1_branch(spec: ExtensionSpec, x: float, branch: int, shift: int = 0):
    """One correction branch at eps - shift; values only."""
    spec.domain.require_inside(x)
    return _w1(spec.case, branch > 0, float(x), spec.eps - shift, spec.rho, spec.ell)


def w1_difference(spec: ExtensionSpec, x: float, shift: int = 0):
    """W1p - W1m; complex on the complex-path case, float elsewhere."""
    return w1_branch(spec, x, 1, shift) - w1_branch(spec, x, -1, shift)


def _pointwise(spec: ExtensionSpec, xs: np.ndarray, shift: int, fn) -> np.ndarray:
    """fn(W, W1p, W1m, W0) at each point of the 1-D array xs, at eps - shift:
    W0 is a Python scalar from one pass of the base family over xs, the rest
    are Duals of the seeded point.  Where a point overflows or meets an exact
    pole (any ArithmeticError), fn runs on nans, so a pair-valued fn reads as
    a pair of nans."""
    cs, e, r, l = spec.case, spec.eps - shift, spec.rho, spec.ell
    w0s, w0ps = _base_w0(cs, xs, e, r, l)
    nan, out = Dual(math.nan, math.nan), []
    for x, w0, w0p in zip(xs.tolist(), w0s.tolist(), w0ps.tolist()):
        try:
            xd = seed(x)
            p, m = _w1(cs, True, xd, e, r, l), _w1(cs, False, xd, e, r, l)
            out.append(fn(Dual(w0, w0p) + p - m, p, m, w0))
        except ArithmeticError:
            out.append(fn(nan, nan, nan, math.nan))
    return np.array(out)


def _lower(w, *_):
    return w.val ** 2 - w.eps


def _raised(w, *_):
    return w.val ** 2 + w.eps


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
    translated display too.  Each bottom is evaluated once over the whole
    scan grid (the W1 functions and the specfun recurrences take arrays);
    an overflow there reads as a non-finite bottom.  Real bottoms are then
    bisected to the root point by point; the complex-path case can only be
    screened by magnitude.
    """
    a, b = window
    xs = np.linspace(a, b, max(4 * _GRID_POINTS + 1, 1001))
    for shift in (0, 1):
        ee = e - shift
        for c in cs.constants(ee, r, l):
            if abs(c) < 1e-9:
                raise DenominatorZero(
                    f"case {cs.num}: constant factor {c:.3e} vanishes at eps - {shift}")
        for branch in (1, -1):
            def bot(x):
                return cs.w1(branch > 0, x, ee, r, l)[2]

            with np.errstate(all="ignore"):
                vals = bot(xs)
            mags = np.abs(vals)
            _require_finite(cs, xs, mags)
            neighbor = np.maximum(np.roll(mags, 1), np.roll(mags, -1))
            tiny = mags < 1e-12 * (1.0 + neighbor)
            if np.any(tiny):
                loc = float(xs[int(np.argmax(tiny))])
                raise DenominatorZero(
                    f"case {cs.num}: denominator vanishes at x = {loc:.9g} "
                    f"(branch {branch:+d}, eps - {shift})", loc)
            if cs.complex_path:
                continue
            re = np.real(vals)
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

    def _read(self, x, fn):
        self.spec.domain.require_inside(x)
        xs = np.asarray(x, dtype=float)
        return _pointwise(self.spec, xs.ravel(), 0, fn).reshape(xs.shape)[()]

    def w(self, x):
        return self._read(x, lambda w, *_: w.val)

    def w_prime(self, x):
        return self._read(x, lambda w, *_: w.eps)

    def potential(self, x):
        return self._read(x, _lower)

    def partner(self, x):
        return self._read(x, _raised)


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

    Both displays are evaluated once over the whole grid.  Residuals are
    scaled by 1/(1 + |W1p(eps - 1)|); the contract is a max of 1e-10.  A
    grid that reaches a pole or an overflow outside the certified window
    raises DenominatorZero, as the scan does.
    """
    xs, excluded = grid_points(spec.domain, grid or extension_grid(spec))
    cs, e, r, l = spec.case, spec.eps, spec.rho, spec.ell
    with np.errstate(all="ignore"):
        minus = _w1(cs, False, xs, e, r, l)
        plus_down = _w1(cs, True, xs, e - 1, r, l)
        res = np.abs(minus - plus_down) / (1.0 + np.abs(plus_down))
    _require_finite(cs, xs, res)
    return _report(xs, res, excluded)


def _cond1_l(w, p, m, w0):
    """The combination L at one point, and |L| / (1 + |W0|^2)."""
    pv, pd, mv, md = p.val, p.eps, m.val, m.eps
    lhs = pv * pv + pd + mv * mv + md + 2 * w0 * pv - 2 * w0 * mv - 2 * pv * mv
    return lhs, abs(lhs) / (1.0 + abs(w0) ** 2)


def check_cond1(spec: ExtensionSpec, grid=None) -> GridReport:
    """Zero-test of the branch compatibility combination.

    With the gauge function fixed to zero the combination
    W1p^2 + W1p' + W1m^2 + W1m' + 2 W0 (W1p - W1m) - 2 W1p W1m
    must vanish identically.  The pointwise residual is the largest of
    |L(eps)| / (1 + |W0(eps)|^2), the same at eps - 1, and the unscaled
    cross-difference |L(eps) - L(eps - 1)|; the contract is 1e-8.  A point
    that overflows reads as non-finite, and the scan's rule raises
    DenominatorZero there.
    """
    xs, excluded = grid_points(spec.domain, grid or extension_grid(spec))
    (l_up, r_up), (l_dn, r_dn) = (_pointwise(spec, xs, shift, _cond1_l).T for shift in (0, 1))
    res = np.maximum(np.maximum(r_up.real, r_dn.real), np.abs(l_up - l_dn))
    _require_finite(spec.case, xs, res)
    return _report(xs, res, excluded)


def extended_si_check(spec: ExtensionSpec, grid=None) -> GridReport:
    """Partner-vs-translated residual for the extended superpotential.

    (W^2 + W')(eps) against (W^2 - W')(eps - 1) + R(eps - 1) with R taken
    from the base; scaled like the family-side check.  A non-finite residual
    (an overflow past the certified window) raises DenominatorZero.
    """
    xs, excluded = grid_points(spec.domain, grid or extension_grid(spec))
    v_plus = _pointwise(spec, xs, 0, _raised)
    v_down = _pointwise(spec, xs, 1, _lower)
    res = np.abs(v_plus - v_down - base_remainder(spec, shift=1)) / (1.0 + np.abs(v_down))
    _require_finite(spec.case, xs, res)
    return _report(xs, res, excluded)
