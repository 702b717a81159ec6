"""Rational extensions W = W0 + W1p - W1m of the invariant-built bases.

Eleven closed cases, each a base superpotential W0 plus a pair of rational
corrections.  Every W1 branch factors as prefactor * top / bottom where top
and bottom are terminating polynomials (Jacobi, Laguerre, Kummer, or Gauss
ratios) or plain rational expressions; the plus and minus branches are
transcribed independently, with their own literal parameter offsets, so the
unit-translation consistency check (cond2) genuinely compares two displays
instead of restating one.  Derivatives ride along on Dual scalars; the
gauge freedom f(x) is fixed to zero, which turns cond1 into a sharp
zero-test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dual
from .dual import Dual, derivative, seed, value
from .errors import DenominatorZero, ValidationError
from .families import (_FOLD_BETA_MEAN, _FOLD_BETA_MEAN_NEG, _FOLD_D_MEAN, _FOLD_D_ONLY,
                       ConstructionData, Domain, _fold, _make_domain)
from .specfun import hyp1f1_terminating, hyp2f1_terminating, jacobi_p, laguerre_l
from .verify import GridReport, _report

MAX_ELL = 8

_INF = float("inf")
_PI = math.pi

# the fold styles shared with the base families, under the case table's names
_FOLD_PLUS_BETA = _FOLD_BETA_MEAN
_FOLD_MINUS_BETA = _FOLD_BETA_MEAN_NEG
_FOLD_D = _FOLD_D_MEAN


@dataclass(frozen=True)
class CaseSpec:
    num: int
    label: str
    domain: Domain
    window: tuple[float, float]
    fold: str
    uses_rho: bool
    uses_ell: bool
    complex_path: bool = False


CASE_SPECS: dict[int, CaseSpec] = {cs.num: cs for cs in (
    CaseSpec(1, "coth base, rational cosh correction",
             _make_domain(0.0, _INF), (0.0, 12.0), _FOLD_PLUS_BETA, True, False),
    CaseSpec(2, "coth base, Jacobi-ratio correction of degree ell",
             _make_domain(0.0, _INF), (0.0, 12.0), _FOLD_PLUS_BETA, True, True),
    CaseSpec(3, "double-argument coth base, Jacobi-ratio correction",
             _make_domain(0.0, _INF), (0.0, 6.0), _FOLD_PLUS_BETA, True, True),
    CaseSpec(4, "radial base, rational x^2 correction",
             _make_domain(0.0, _INF), (0.0, 10.0), _FOLD_D, True, False),
    CaseSpec(5, "radial base, Laguerre-ratio correction",
             _make_domain(0.0, _INF), (0.0, 10.0), _FOLD_D, True, True),
    CaseSpec(6, "unit-slope radial base, Laguerre-ratio correction",
             _make_domain(0.0, _INF), (0.0, 10.0), _FOLD_D_ONLY, False, True),
    CaseSpec(7, "unit-slope radial base, Kummer-ratio correction",
             _make_domain(0.0, _INF), (0.0, 10.0), _FOLD_D_ONLY, False, True),
    CaseSpec(8, "tan base, rational sin correction",
             _make_domain(-_PI / 2, _PI / 2), (-_PI / 2, _PI / 2),
             _FOLD_MINUS_BETA, True, False),
    CaseSpec(9, "double-argument cot base, Jacobi-ratio correction",
             _make_domain(0.0, _PI / 2), (0.0, _PI / 2), _FOLD_MINUS_BETA, True, True),
    CaseSpec(10, "double-argument cot base, Gauss-ratio correction",
             _make_domain(0.0, _PI / 2), (0.0, _PI / 2), _FOLD_MINUS_BETA, True, True),
    CaseSpec(11, "tanh base, complex Jacobi-ratio correction",
             _make_domain(-_INF, _INF), (-8.0, 8.0), _FOLD_PLUS_BETA, True, True, True),
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


def _coth(xd):
    return dual.cosh(xd) / dual.sinh(xd)


def _csch(xd):
    return 1.0 / dual.sinh(xd)


def _cot(xd):
    return dual.cos(xd) / dual.sin(xd)


def _csc(xd):
    return 1.0 / dual.sin(xd)


def _w0(case: int, xd, e, r, l):
    if case in (1, 2):
        return e * _coth(xd) - r * _csch(xd)
    if case == 3:
        x2 = xd * 2
        return 2 * (l + e) * _coth(x2) + 2 * r * _csch(x2)
    if case in (4, 5):
        return e / xd + r * xd
    if case in (6, 7):
        return (e + l) / xd - xd
    if case == 8:
        return -e * dual.tan(xd) - r / dual.cos(xd)
    if case == 9:
        x2 = xd * 2
        return 2 * (e + l) * _cot(x2) - 2 * r * _csc(x2)
    if case == 10:
        x2 = xd * 2
        return 2 * e * _cot(x2) + 2 * r * _csc(x2)
    # case 11; the sech term is imaginary, the correction difference is not
    return e * (dual.sinh(xd) / dual.cosh(xd)) + (1j * r) / dual.cosh(xd)


def _w1_parts(case: int, branch: int, xd, e, r, l):
    """(prefactor, top, bottom) of one branch; branch > 0 is the plus display.

    Both branches are spelled out with explicit constants.  xd may be a
    float (values only) or a Dual seed (values and derivatives).
    """
    plus = branch > 0
    if case == 1:
        den = 2 * e + 1 - 2 * r * dual.cosh(xd) if plus \
            else 2 * e - 1 - 2 * r * dual.cosh(xd)
        return 1.0, -2 * r * dual.sinh(xd), den
    if case == 2:
        ch = dual.cosh(xd)
        pre = 0.5 * (l - 2 * r - 1) * dual.sinh(xd)
        if plus:
            top = jacobi_p(l - 1, 0.5 + e - r, -0.5 - e - r, ch)
            bot = jacobi_p(l, -0.5 + e - r, -1.5 - e - r, ch)
        else:
            top = jacobi_p(l - 1, -0.5 + e - r, 0.5 - e - r, ch)
            bot = jacobi_p(l, -1.5 + e - r, -0.5 - e - r, ch)
        return pre, top, bot
    if case == 3:
        ch = dual.cosh(xd * 2)
        pre = -(2 * r - l + 1) * dual.sinh(xd * 2)
        if plus:
            top = jacobi_p(l - 1, -0.5 - l - e - r, 0.5 + l + e - r, ch)
            bot = jacobi_p(l, -1.5 - l - e - r, -0.5 + l + e - r, ch)
        else:
            top = jacobi_p(l - 1, 0.5 - l - e - r, -0.5 + l + e - r, ch)
            bot = jacobi_p(l, -0.5 - l - e - r, -1.5 + l + e - r, ch)
        return pre, top, bot
    if case == 4:
        den = 2 * e + 1 - 2 * r * xd ** 2 if plus else 2 * e - 1 - 2 * r * xd ** 2
        return 1.0, -4 * r * xd, den
    if case == 5:
        z = -r * xd ** 2
        pre = 2 * r * xd
        if plus:
            return pre, laguerre_l(l - 1, -0.5 - e, z), laguerre_l(l, -1.5 - e, z)
        return pre, laguerre_l(l - 1, 0.5 - e, z), laguerre_l(l, -0.5 - e, z)
    if case == 6:
        z = -(xd ** 2)
        pre = 2 * xd
        if plus:
            return pre, laguerre_l(l - 1, 0.5 + l + e, z), laguerre_l(l, -0.5 + l + e, z)
        return pre, laguerre_l(l - 1, -0.5 + l + e, z), laguerre_l(l, -1.5 + l + e, z)
    if case == 7:
        z = -(xd ** 2)
        pre = 2 * l * xd
        if plus:
            top = hyp1f1_terminating(1 - l, 1.5 + l + e, z)
            bot = (0.5 + l + e) * hyp1f1_terminating(-l, 0.5 + l + e, z)
        else:
            top = hyp1f1_terminating(1 - l, 0.5 + l + e, z)
            bot = (-0.5 + l + e) * hyp1f1_terminating(-l, -0.5 + l + e, z)
        return pre, top, bot
    if case == 8:
        den = 2 * e + 1 + 2 * r * dual.sin(xd) if plus \
            else 2 * e - 1 + 2 * r * dual.sin(xd)
        return 1.0, 2 * r * dual.cos(xd), den
    if case == 9:
        cz = dual.cos(xd * 2)
        pre = -(2 * r + l - 1) * dual.sin(xd * 2)
        if plus:
            top = jacobi_p(l - 1, -0.5 - l - e + r, 0.5 + l + e + r, cz)
            bot = jacobi_p(l, -1.5 - l - e + r, -0.5 + l + e + r, cz)
        else:
            top = jacobi_p(l - 1, 0.5 - l - e + r, -0.5 + l + e + r, cz)
            bot = jacobi_p(l, -0.5 - l - e + r, -1.5 + l + e + r, cz)
        return pre, top, bot
    if case == 10:
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
    # case 11
    arg = 1j * dual.sinh(xd)
    pre = 0.5j * (l - 2 * r - 1) * dual.cosh(xd)
    if plus:
        top = jacobi_p(l - 1, -r + e + 0.5, -r - e - 0.5, arg)
        bot = jacobi_p(l, -r + e - 0.5, -r - e - 1.5, arg)
    else:
        top = jacobi_p(l - 1, -r + e - 0.5, -r - e + 0.5, arg)
        bot = jacobi_p(l, -r + e - 1.5, -r - e - 0.5, arg)
    return pre, top, bot


def _w1(case: int, branch: int, xd, e, r, l):
    pre, top, bot = _w1_parts(case, branch, xd, e, r, l)
    return pre * top / bot


def w1_branch(spec: ExtensionSpec, x: float, branch: int, shift: int = 0):
    """One correction branch at eps - shift; values only."""
    spec.domain.require_inside(x)
    return _w1(spec.case_id, branch, float(x), spec.eps - shift, spec.rho, spec.ell)


def w1_difference(spec: ExtensionSpec, x: float, shift: int = 0):
    """W1p - W1m; complex on the complex-path case, float elsewhere."""
    spec.domain.require_inside(x)
    e = spec.eps - shift
    plus = _w1(spec.case_id, 1, float(x), e, spec.rho, spec.ell)
    minus = _w1(spec.case_id, -1, float(x), e, spec.rho, spec.ell)
    return plus - minus


# constant factors that sit outside the polynomial ratios; a vanishing one
# is a parameter-level denominator zero, checked once at build time
def _structural_constants(case: int, e: float, r: float, l: int):
    if case == 7:
        return (0.5 + l + e, -0.5 + l + e)
    if case == 10:
        return (0.5 + e + r, -0.5 + e + r)
    return ()


def _scan_denominators(case: int, e: float, r: float, l: int,
                       window: tuple[float, float], n: int) -> None:
    """Reject parameter sets whose bottoms vanish somewhere on the window.

    Both branches at both eps and eps - 1, since every check evaluates the
    translated display too.  Real bottoms are bisected to the root; the
    complex-path case can only be screened by magnitude.
    """
    a, b = window
    xs = np.linspace(a, b, max(4 * n + 1, 1001))
    cplx = CASE_SPECS[case].complex_path
    for shift in (0, 1):
        ee = e - shift
        for c in _structural_constants(case, ee, r, l):
            if abs(c) < 1e-9:
                raise DenominatorZero(
                    f"case {case}: constant factor {c:.3e} vanishes at eps - {shift}")
        for branch in (1, -1):
            def bot(x: float):
                return _w1_parts(case, branch, x, ee, r, l)[2]

            vals = np.array([bot(float(x)) for x in xs])
            mags = np.abs(vals)
            if not np.all(np.isfinite(mags)):
                loc = float(xs[int(np.argmin(np.isfinite(mags)))])
                raise DenominatorZero(
                    f"case {case}: denominator not finite near x = {loc:.6g}", loc)
            neighbor = np.maximum(np.roll(mags, 1), np.roll(mags, -1))
            tiny = mags < 1e-12 * (1.0 + neighbor)
            if np.any(tiny):
                loc = float(xs[int(np.argmax(tiny))])
                raise DenominatorZero(
                    f"case {case}: denominator vanishes at x = {loc:.9g} "
                    f"(branch {branch:+d}, eps - {shift})", loc)
            if cplx:
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
                    f"case {case}: denominator root at x = {loc:.9g} "
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
    if data.rho_invariant is not None:
        raise ValidationError("extension cases take no rho_invariant")
    # d-only fold: the case has no second parameter at all
    if cs.fold == _FOLD_D_ONLY and any(c.beta != 0.0 for c in data.couplings):
        raise ValidationError(
            f"case {num} uses only the d_j coupling constants; set beta_j = 0")
    eps, rho, _ = _fold(cs.fold, data)
    for name, v in (("eps", eps), ("rho", rho)):
        if not math.isfinite(v):
            raise ValidationError(f"folded parameter {name} is not finite: {v}")
    if window is None:
        window = cs.window
    a, b = float(window[0]), float(window[1])
    clo, chi = cs.domain.clipped()
    a = a if not math.isfinite(clo) else max(a, clo)
    b = b if not math.isfinite(chi) else min(b, chi)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValidationError(f"window ({window[0]}, {window[1]}) does not "
                              f"intersect the case domain")
    _scan_denominators(num, eps, rho, l, (a, b), 501)
    return ExtensionSpec(case_id=num, eps=eps, rho=rho, ell=l,
                         window=(a, b), provenance=data)


@dataclass(frozen=True)
class ExtendedSuperpotential:
    """W = W0 + W1p - W1m with forward-mode derivatives."""

    spec: ExtensionSpec

    def _dual(self, x: float, shift: int = 0) -> Dual:
        s = self.spec
        s.domain.require_inside(x)
        xd = seed(float(x))
        e, r, l = s.eps - shift, s.rho, s.ell
        return (_w0(s.case_id, xd, e, r, l)
                + _w1(s.case_id, 1, xd, e, r, l)
                - _w1(s.case_id, -1, xd, e, r, l))

    def w(self, x: float):
        return value(self._dual(x))

    def w_prime(self, x: float):
        return derivative(self._dual(x))

    def _v_one(self, x: float, sign: float):
        d = self._dual(x)
        return value(d) ** 2 + sign * derivative(d)

    def potential(self, x):
        """V = W^2 - W'; accepts scalars or arrays (evaluated pointwise)."""
        if np.ndim(x) == 0:
            return self._v_one(float(x), -1.0)
        flat = [self._v_one(float(t), -1.0) for t in np.asarray(x).ravel()]
        return np.reshape(np.array(flat), np.shape(x))

    def partner(self, x):
        """The raised side W^2 + W'."""
        if np.ndim(x) == 0:
            return self._v_one(float(x), 1.0)
        flat = [self._v_one(float(t), 1.0) for t in np.asarray(x).ravel()]
        return np.reshape(np.array(flat), np.shape(x))


def extended_superpotential(spec: ExtensionSpec) -> ExtendedSuperpotential:
    return ExtendedSuperpotential(spec)


def base_remainder(spec: ExtensionSpec, shift: int = 0) -> float:
    """The base family's R evaluated at eps - shift.

    Closed forms follow from the W0 displays alone: R is the x-independent
    gap (W0^2 + W0')(eps) - (W0^2 - W0')(eps - 1).
    """
    e = spec.eps - shift
    l = spec.ell
    case = spec.case_id
    if case in (1, 2, 11):
        return 2 * e + 1
    if case == 3:
        return 4 * (2 * (l + e) + 1)
    if case in (4, 5):
        return 4 * spec.rho
    if case in (6, 7):
        return -4.0
    if case == 8:
        return -(2 * e + 1)
    if case == 9:
        return -4 * (2 * (l + e) + 1)
    # case 10
    return -4 * (2 * e + 1)


def extension_grid(spec: ExtensionSpec, n: int = 501) -> tuple[float, float, int]:
    a, b = spec.window
    return (a, b, n)


def _grid_points(spec: ExtensionSpec, grid) -> np.ndarray:
    a, b, n = grid if grid is not None else extension_grid(spec)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValidationError(f"check grid must be finite with a < b, got ({a}, {b})")
    if n < 3:
        raise ValidationError(f"check grid needs at least 3 points, got {n}")
    xs = np.linspace(a, b, int(n))
    spec.domain.require_inside(xs)
    return xs


def check_cond2(spec: ExtensionSpec, grid=None) -> GridReport:
    """Compare the minus display at eps with the plus display at eps - 1.

    Residuals are scaled by 1/(1 + |W1p(eps - 1)|); the contract is a max
    of 1e-10.
    """
    xs = _grid_points(spec, grid)
    case, e, r, l = spec.case_id, spec.eps, spec.rho, spec.ell
    res = []
    for x in xs:
        minus = _w1(case, -1, float(x), e, r, l)
        plus_down = _w1(case, 1, float(x), e - 1, r, l)
        res.append(abs(minus - plus_down) / (1.0 + abs(plus_down)))
    return _report(xs, np.asarray(res, dtype=float), 0)


def _cond1_l(case: int, x: float, e, r, l):
    xd = seed(x)
    w0 = value(_w0(case, xd, e, r, l))
    p = _w1(case, 1, xd, e, r, l)
    m = _w1(case, -1, xd, e, r, l)
    pv, pd = value(p), derivative(p)
    mv, md = value(m), derivative(m)
    lhs = pv * pv + pd + mv * mv + md + 2 * w0 * pv - 2 * w0 * mv - 2 * pv * mv
    return lhs, w0


def check_cond1(spec: ExtensionSpec, grid=None) -> GridReport:
    """Zero-test of the branch compatibility combination.

    With the gauge function fixed to zero the combination
    W1p^2 + W1p' + W1m^2 + W1m' + 2 W0 (W1p - W1m) - 2 W1p W1m
    must vanish identically.  The pointwise residual is the largest of
    |L(eps)| / (1 + |W0(eps)|^2), the same at eps - 1, and the unscaled
    cross-difference |L(eps) - L(eps - 1)|; the contract is 1e-8.
    """
    xs = _grid_points(spec, grid)
    case, e, r, l = spec.case_id, spec.eps, spec.rho, spec.ell
    res = []
    for x in xs:
        l_up, w0_up = _cond1_l(case, float(x), e, r, l)
        l_dn, w0_dn = _cond1_l(case, float(x), e - 1, r, l)
        r_up = abs(l_up) / (1.0 + abs(w0_up) ** 2)
        r_dn = abs(l_dn) / (1.0 + abs(w0_dn) ** 2)
        res.append(max(r_up, r_dn, abs(l_up - l_dn)))
    return _report(xs, np.asarray(res, dtype=float), 0)


def extended_si_check(spec: ExtensionSpec, grid=None) -> GridReport:
    """Partner-vs-translated residual for the extended superpotential.

    (W^2 + W')(eps) against (W^2 - W')(eps - 1) + R(eps - 1) with R taken
    from the base; scaled like the family-side check.
    """
    xs = _grid_points(spec, grid)
    w = ExtendedSuperpotential(spec)
    shift_const = base_remainder(spec, shift=1)
    res = []
    for x in xs:
        up = w._dual(float(x), shift=0)
        dn = w._dual(float(x), shift=1)
        v_plus = value(up) ** 2 + derivative(up)
        v_down = value(dn) ** 2 - derivative(dn)
        res.append(abs(v_plus - v_down - shift_const) / (1.0 + abs(v_down)))
    return _report(xs, np.asarray(res, dtype=float), 0)
