"""The thirteen closed-form superpotential families.

Each family is a solution k(x) of the shape-invariance construction over
parameters m_1..m_n subject to simultaneous unit translation.  Eight
families take the linear form k = sum_j I_j v_j(x) + M G(x) built from a
Riccati solution G (G' + G^2 = alpha) and first-order solutions v_j
(v_j' + v_j G = beta_j); five more take the ratio form k = rho/eps + eps G.
The invariants I_j enter only through the folded effective parameters
(eps, rho) or (beta, rho).  Each family is written down once, as its
FamilySpec record in FAMILY_SPECS, with the StateForm from which spectra
derives every normalized state.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from .errors import EvalDomainError, RangeViolation, UnverifiedInvariant, ValidationError
from .invariants import InvariantExpr, ParamVector, eval_invariant, fsum
from .specfun import log_gamma

_INF = float("inf")
_PI = math.pi
_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class Domain:
    """Open interval with a margin kept clear around singular endpoints."""

    lo: float
    hi: float
    delta: float

    def clipped(self) -> tuple[float, float]:
        """Finite endpoints pulled in by delta; infinite ends pass through."""
        lo = self.lo + self.delta if math.isfinite(self.lo) else self.lo
        hi = self.hi - self.delta if math.isfinite(self.hi) else self.hi
        return lo, hi

    def require_inside(self, x) -> None:
        """Open-interval membership; the delta margin only shapes grids."""
        arr = np.asarray(x, dtype=float)
        if arr.size and (float(arr.min()) <= self.lo or float(arr.max()) >= self.hi):
            raise EvalDomainError(
                f"evaluation point outside the open interval ({self.lo}, {self.hi})")


def _make_domain(lo: float, hi: float) -> Domain:
    width = hi - lo
    delta = 1e-3 * (width if math.isfinite(width) else 1.0)
    return Domain(lo, hi, delta)


@dataclass(frozen=True)
class Coupling:
    """One invariant I_j with its constants beta_j, d_j."""

    invariant: InvariantExpr
    beta: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and math.isfinite(self.d)):
            raise ValidationError("coupling constants must be finite")


@dataclass(frozen=True)
class ConstructionData:
    """Parameter vector plus couplings; rho_invariant only for ratio families."""

    p: ParamVector
    couplings: tuple[Coupling, ...]
    rho_invariant: Optional[InvariantExpr] = None

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(self.couplings))
        if len(self.couplings) < 1:
            raise ValidationError("need at least one coupling (r >= 1)")
        exprs = [c.invariant for c in self.couplings]
        if self.rho_invariant is not None:
            exprs.append(self.rho_invariant)
        for expr in exprs:
            if not expr.verified:
                raise UnverifiedInvariant(
                    f"expression {expr.source!r} has not passed the invariance check")
            if expr.max_param_index() > self.p.n:
                raise ValidationError(
                    f"expression {expr.source!r} uses m{expr.max_param_index()} "
                    f"but the vector has n={self.p.n}")


def _ratio_shift(e: float, r: float) -> float:
    """The rho-dependent part of R common to the five ratio families.

    Past |eps| = 1.34e154 the denominator's float ** overflows (or a product
    reads inf) although the shift need not; only there it is taken as
    (2e + 1) q q with q = r / e / (e + 1), which divides before it
    multiplies, so R keeps its bits everywhere else.
    """
    try:
        shift = (2 * e + 1) * r ** 2 / (e ** 2 * (e + 1) ** 2)
        if math.isfinite(shift):
            return shift
    except OverflowError:
        pass
    q = r / e / (e + 1)
    return (2 * e + 1) * q * q


@dataclass(frozen=True, eq=False)
class Fold:
    """One fold style: what k = sum_j I_j v_j + M G and R become once folded.

    params(M, sum_j beta_j I_j, sum_j d_j I_j, rho_inv) gives (eps, rho,
    beta), rho_inv being the extra invariant's value.  A linear-form k is v
    at the (beta, d) = constants(eps, rho, beta); the ratio fold has none
    (k = rho/eps + eps G) and alone reads rho_invariant.  R = alpha (2 eps
    + 1) + extra(eps, rho, beta).  A d_only fold takes no beta_j at all.
    """

    params: Callable[[float, float, float, Optional[float]], tuple[float, float, float]]
    constants: Optional[Callable[[float, float, float], tuple]]
    extra: Callable[[float, float, float], float] = lambda e, r, b: 0.0
    d_only: bool = False


# The base families and the extension cases share these.
_FOLD_BETA_MEAN = Fold(lambda m, sb, sd, ri: (m + sb, sd, 0.0), lambda e, r, b: (e, r))
_FOLD_BETA_MEAN_NEG = Fold(lambda m, sb, sd, ri: (m - sb, sd, 0.0), lambda e, r, b: (-e, r))
_FOLD_D_MEAN = Fold(lambda m, sb, sd, ri: (m + sd, 0.5 * sb, 0.0), lambda e, r, b: (2 * r, e),
                    extra=lambda e, r, b: 4 * r)
# the d-mean fold with every beta_j = 0, so that rho = 0
_FOLD_D_ONLY = dataclasses.replace(_FOLD_D_MEAN, d_only=True)
# slope fold: no dependence on the mean at all
_FOLD_SLOPE = Fold(lambda m, sb, sd, ri: (0.0, sd, sb), lambda e, r, b: (b, r),
                   extra=lambda e, r, b: 2 * b)
_FOLD_RATIO = Fold(lambda m, sb, sd, ri: (m + sd, ri, 0.0), None,
                   extra=lambda e, r, b: -_ratio_shift(e, r))


def _coupling_sums(data: ConstructionData) -> tuple[float, float, float]:
    values = [eval_invariant(c.invariant, data.p) for c in data.couplings]
    sum_beta = fsum(c.beta * v for c, v in zip(data.couplings, values))
    sum_d = fsum(c.d * v for c, v in zip(data.couplings, values))
    return data.p.mean, sum_beta, sum_d


def _fold(fold: Fold, data: ConstructionData) -> tuple[float, float, float]:
    """The finite (eps, rho, beta) that one fold makes of the data.

    Here, and only here, the data must match the fold: a rho_invariant for
    the ratio fold and for no other, and beta_j = 0 for a d-only fold.
    """
    ratio = fold.constants is None
    if ratio != (data.rho_invariant is not None):
        raise ValidationError("the ratio-form families need a rho_invariant, and no other "
                              "family or extension case takes one")
    if fold.d_only and any(c.beta != 0.0 for c in data.couplings):
        raise ValidationError("a d-only fold uses only the d_j coupling constants; set beta_j = 0")
    folded = fold.params(*_coupling_sums(data),
                         eval_invariant(data.rho_invariant, data.p) if ratio else None)
    for value, name in zip(folded, ("eps", "rho", "beta")):
        if not math.isfinite(value):
            raise ValidationError(f"folded parameter {name} is not finite: {value}")
    return folded


def _sech(x):
    return 1.0 / np.cosh(x)


def _csch(x):
    return 1.0 / np.sinh(x)


def _sec(x):
    return 1.0 / np.cos(x)


def _csc(x):
    return 1.0 / np.sin(x)


def _one(x):
    return np.asarray(x, dtype=float) * 0 + 1.0


# Riccati solutions: c*G(x) and c*G'(x), with G' + G^2 = alpha.  The scale
# sits inside each expression so that a ratio family's eps*G rounds exactly
# like its printed k (eps/tanh(x), not eps*(1/tanh(x))).

def _g_tanh(x, c=1.0):
    return c * np.tanh(x), c * _sech(x) ** 2


def _g_coth(x, c=1.0):
    return c / np.tanh(x), -c * _csch(x) ** 2


def _g_constant(value: float) -> Callable:
    return lambda x, c=1.0: (c * value * _one(x), 0.0 * _one(x))


def _g_inverse(x, c=1.0):
    return c / x, -c / x ** 2


def _g_neg_tan(x, c=1.0):
    return -c * np.tan(x), -c * _sec(x) ** 2


def _g_cot(x, c=1.0):
    return c / np.tan(x), -c * _csc(x) ** 2


# First-order solutions v(x), v'(x) of v' + v G = beta, with constants (beta, d).

def _v_scarf2(x, beta, d):
    th, sch = np.tanh(x), _sech(x)
    return beta * th + d * sch, beta * sch ** 2 - d * sch * th


def _v_poschl_teller(x, beta, d):
    ch, csh = 1.0 / np.tanh(x), _csch(x)
    return beta * ch - d * csh, -beta * csh ** 2 + d * csh * ch


def _v_morse(x, beta, d, sign=1.0):
    """Morse (sign +1) or its mirror image (sign -1)."""
    w = np.exp(-sign * np.asarray(x, dtype=float))
    return sign * beta - d * w, sign * d * w


def _v_radial(x, beta, d):
    return 0.5 * beta * x + d / x, 0.5 * beta * _one(x) - d / x ** 2


def _v_harmonic(x, beta, d):
    return beta * x + d, beta * _one(x)


def _v_scarf1(x, beta, d):
    tn, sc = np.tan(x), _sec(x)
    return beta * tn - d * sc, beta * sc ** 2 - d * sc * tn


def _v_scarf1_cot(x, beta, d):
    ct, cs = 1.0 / np.tan(x), _csc(x)
    return -beta * ct + d * cs, beta * cs ** 2 - d * cs * ct


# v ~ c/(x - w) at each finite wall w: v.residues(beta, d) gives each c, the lower wall first
_v_poschl_teller.residues = lambda beta, d: (beta - d,)
_v_radial.residues = lambda beta, d: (d,)
_v_scarf1.residues = lambda beta, d: (-beta - d, d - beta)
_v_scarf1_cot.residues = lambda beta, d: (d - beta, -beta - d)


@dataclass(frozen=True)
class StateForm:
    """A family's normalized states zeta_k = C_k exp(L(x)) P_k(z(x)).

    The ladder zeta_k(eps) = A+ zeta_{k-1}(eps - 1) / sqrt(E_k) gives C_k =
    step^k k! N_k C_0(eps - k) (spectra.state_constant), so only the ground
    state's log C_0(eps, rho, beta) is written down, with the per-rung
    step(eps, rho, beta), the specfun poly and its params(eps, rho, k), and
    terms(x, eps, rho, beta, k) -> (L, z), L a sum of exponents times
    log-bases.  far(x) -> (log|z|, z/|z|) serves past |z| = 1e8.  An
    imaginary step goes with an imaginary z: those states run complex.
    """

    log_c0: Callable[[float, float, float], float]
    step: Callable[[float, float, float], complex]
    poly: str
    params: Callable[[float, float, int], tuple]
    terms: Callable
    far: Optional[Callable] = None


def _fixed(value):
    return lambda e, r, b: value


# log-bases free of overflow, and of cancellation near their zeros

def _log_cosh(x):
    a = np.abs(x)
    return a - _LOG2 + np.log1p(np.exp(-2.0 * a))


def _log_far(x):
    """log cosh x and log|sinh x| where they pass log 1e8: |x| - log 2 to rounding."""
    return np.abs(x) - _LOG2


def _log_cosh_sides(x):
    """log(cosh x - 1) and log(cosh x + 1) for x > 0."""
    return x - _LOG2 + 2.0 * np.log(-np.expm1(-x)), x - _LOG2 + 2.0 * np.log1p(np.exp(-x))


def _log_tanh_sides(x):
    """log(1 - tanh x) and log(1 + tanh x)."""
    tail = _LOG2 - np.log1p(np.exp(-np.abs(2.0 * x)))
    return tail - np.maximum(2.0 * x, 0.0), tail - np.maximum(-2.0 * x, 0.0)


def _log_coth_sides(x):
    """log(coth x - 1) and log(coth x + 1) for x > 0."""
    tail = _LOG2 - np.log(-np.expm1(-2.0 * x))
    return tail - 2.0 * x, tail


def _scarf2_terms(x, e, r, b, k):
    sh = np.sinh(x)
    return -r * np.arctan(sh) - e * _log_cosh(x), -1j * sh


def _poschl_teller_terms(x, e, r, b, k):
    lo, hi = _log_cosh_sides(x)
    return 0.5 * (r - e) * lo - 0.5 * (e + r) * hi, -np.cosh(x)


def _morse_terms(x, e, r, b, k, sign=1.0):
    w = np.exp(-sign * x)
    return -sign * r * w - (e - k) * sign * x, 2 * sign * r * w


def _harmonic_terms(x, e, r, b, k):
    y = x + r / b
    return -b * y ** 2 / 2, math.sqrt(b) * y


def _scarf1_terms(x, e, r, b, k, trig=np.sin):
    u = trig(x)
    # the bases 1 -/+ u round to 0 at the walls, where log 0 = -inf is the limit
    with np.errstate(divide="ignore"):
        return -0.5 * (e + r) * np.log(1.0 - u) - 0.5 * (e - r) * np.log(1.0 + u), u


def _ratio_terms(x, e, r, b, k, sides=_log_tanh_sides, coordinate=np.tanh):
    s = e - k
    lo, hi = sides(x)
    return 0.5 * (s + r / s) * lo + 0.5 * (s - r / s) * hi, coordinate(x)


_MORSE_STATE = dict(log_c0=lambda e, r, b: e * (_LOG2 + math.log(abs(r))) - 0.5 * log_gamma(2 * e),
                    step=_fixed(-1.0), poly="laguerre_l", params=lambda e, r, k: (2 * e - 2 * k,))
_SCARF_STATE = dict(step=_fixed(2.0), poly="jacobi_p",
                    params=lambda e, r, k: (-0.5 - e - r, -0.5 - e + r))
_SCARF1_STATE = dict(
    log_c0=lambda e, r, b: e * _LOG2 + 0.5 * (log_gamma(1 - 2 * e) - log_gamma(0.5 - e - r)
                                              - log_gamma(0.5 - e + r)), **_SCARF_STATE)
_RATIO_STATE = dict(step=_fixed(1.0), poly="jacobi_p",
                    params=lambda e, r, k: (e - k + r / (e - k), e - k - r / (e - k)))
_TRIG_RATIO_STATE = dict(
    log_c0=lambda e, r, b: (log_gamma(complex(1 - e, -r / e))
                            - 0.5 * (math.log(_PI) + log_gamma(1 - 2 * e))),
    step=_fixed(-1j), poly="jacobi_p",
    params=lambda e, r, k: (complex(e - k, r / (e - k)), complex(e - k, -r / (e - k))))


@dataclass(frozen=True)
class FamilySpec:
    """Everything one family needs; spectra derives E_k as sum_j R(eps - j).

    g(x, c) returns c*G and c*G'; a linear-form family gives its coupling
    solution v(x, beta, d), and k and R follow from the fold (`Fold`), and so
    do the admissible parameters and levels (blocked, admits); top_level
    decides an instance's tower once, as FamilyParams.max_k.  state is the
    normalized states' StateForm.
    """

    id: str
    label: str
    domain: Domain
    alpha: float
    fold: Fold
    window: tuple[float, float]   # default finite window for grid checks
    g: Callable
    state: StateForm
    v: Optional[Callable] = None

    def k(self, x, e, r, b):
        """(k, k') at (eps, rho, beta): v at the fold's constants, or rho/eps + eps G."""
        if self.v is not None:
            return self.v(x, *self.fold.constants(e, r, b))
        g, gp = self.g(x, e)
        return g + r / e, gp

    def remainder(self, e, r, b) -> float:
        """The constant R = alpha (2 eps + 1) + the fold's extra term."""
        extra = self.fold.extra(e, r, b)
        # rounds like each printed R; alpha = 0 adds nothing, not even a zero's sign
        return extra + (self.alpha * 2 * e + self.alpha) if self.alpha else extra

    @np.errstate(invalid="ignore")
    def blocked(self, e, r, b):
        """The first end where zeta_0 = exp(-int k) is not square-integrable, as (x, value).

        A wall w needs a > -1/2 in zeta_0 ~ |x - w|^a, a = -c for k ~ c/(x - w): c = eps on
        the ratio form (G' + G^2 = alpha puts residue 1 on G's poles), else v.residues.  An
        infinite end needs k's limit to point outward (nan, from 0 * inf, does not), signed
        on the ratio form as eps (eps (eps G) + rho) = eps^2 k, since rho/eps may round to 0.
        """
        ends = (self.domain.lo, self.domain.hi)
        cs = iter(self.v.residues(*self.fold.constants(e, r, b))
                  if self.v and not all(map(math.isinf, ends)) else (e, e))
        for x in ends:
            value = -next(cs) if math.isfinite(x) else float(self.k(x, e, r, b)[0])
            sign = value if self.v or math.isfinite(x) else e * (e * float(self.g(x, e)[0]) + r)
            if not (value > -0.5 if math.isfinite(x) else x * sign > 0):
                return x, value
        return None

    def admits(self, s, r, b) -> bool:
        """Whether level j exists at s = eps - j: k defined (s != 0 if ratio) and zeta_0 in L^2."""
        return (self.v is not None or s != 0) and self.blocked(s, r, b) is None


FAMILY_SPECS: dict[str, FamilySpec] = {spec.id: spec for spec in (
    FamilySpec("scarf2", "hyperbolic Scarf, k = eps*tanh(x) + rho*sech(x)",
               _make_domain(-_INF, _INF), 1.0, _FOLD_BETA_MEAN, (-8.0, 8.0),
               g=_g_tanh, v=_v_scarf2,
               state=StateForm(
                   log_c0=lambda e, r, b: ((e - 0.5) * _LOG2 + log_gamma(complex(0.5 + e, -r))
                                           - 0.5 * (math.log(_PI) + log_gamma(2 * e))),
                   step=_fixed(2j), poly="jacobi_p",
                   params=lambda e, r, k: (complex(-0.5 - e, r), complex(-0.5 - e, -r)),
                   terms=_scarf2_terms, far=lambda x: (_log_far(x), -1j * np.sign(x)))),
    FamilySpec("poschl-teller", "Poschl-Teller, k = eps*coth(x) - rho*csch(x)",
               _make_domain(0.0, _INF), 1.0, _FOLD_BETA_MEAN, (0.0, 12.0),
               g=_g_coth, v=_v_poschl_teller,
               state=StateForm(
                   log_c0=lambda e, r, b: e * _LOG2 + 0.5 * (
                       log_gamma(0.5 + e + r) - log_gamma(2 * e) - log_gamma(0.5 - e + r)),
                   terms=_poschl_teller_terms, far=lambda x: (_log_far(x), -1.0),
                   **_SCARF_STATE)),
    FamilySpec("morse", "Morse, k = eps - rho*exp(-x)",
               _make_domain(-_INF, _INF), 1.0, _FOLD_BETA_MEAN, (-2.0, 14.0),
               g=_g_constant(1.0), v=_v_morse,
               state=StateForm(terms=_morse_terms, **_MORSE_STATE)),
    FamilySpec("morse-mirror", "mirrored Morse, k = -eps - rho*exp(x)",
               _make_domain(-_INF, _INF), 1.0, _FOLD_BETA_MEAN, (-14.0, 2.0),
               g=_g_constant(-1.0), v=partial(_v_morse, sign=-1.0),
               state=StateForm(terms=partial(_morse_terms, sign=-1.0), **_MORSE_STATE)),
    FamilySpec("radial-osc", "radial oscillator, k = eps/x + rho*x",
               _make_domain(0.0, _INF), 0.0, _FOLD_D_MEAN, (0.0, 10.0),
               g=_g_inverse, v=_v_radial,
               state=StateForm(
                   log_c0=lambda e, r, b: 0.5 * (_LOG2 + (0.5 - e) * math.log(r)
                                                 - log_gamma(0.5 - e)),
                   step=_fixed(-2.0), poly="laguerre_l", params=lambda e, r, k: (-0.5 - e,),
                   terms=lambda x, e, r, b, k: (-r * x ** 2 / 2 - e * np.log(x), r * x ** 2))),
    FamilySpec("harm-osc", "shifted harmonic oscillator, k = beta*x + rho",
               _make_domain(-_INF, _INF), 0.0, _FOLD_SLOPE, (-10.0, 10.0),
               g=_g_constant(0.0), v=_v_harmonic,
               state=StateForm(log_c0=lambda e, r, b: 0.25 * math.log(b / _PI),
                               step=lambda e, r, b: math.sqrt(b), poly="hermite_h",
                               params=lambda e, r, k: (), terms=_harmonic_terms)),
    FamilySpec("scarf1", "trigonometric Scarf, k = -eps*tan(x) - rho*sec(x)",
               _make_domain(-_PI / 2, _PI / 2), -1.0, _FOLD_BETA_MEAN_NEG,
               (-_PI / 2, _PI / 2),
               g=_g_neg_tan, v=_v_scarf1,
               state=StateForm(terms=_scarf1_terms, **_SCARF1_STATE)),
    FamilySpec("scarf1-cot", "trigonometric Scarf cot form, k = eps*cot(x) + rho*csc(x)",
               _make_domain(0.0, _PI), -1.0, _FOLD_BETA_MEAN_NEG, (0.0, _PI),
               g=_g_cot, v=_v_scarf1_cot,
               state=StateForm(terms=partial(_scarf1_terms, trig=np.cos), **_SCARF1_STATE)),
    FamilySpec("rosen-morse2", "hyperbolic Rosen-Morse, k = eps*tanh(x) + rho/eps",
               _make_domain(-_INF, _INF), 1.0, _FOLD_RATIO, (-8.0, 8.0),
               g=_g_tanh,
               state=StateForm(
                   log_c0=lambda e, r, b: (0.5 - e) * _LOG2 + 0.5 * (
                       log_gamma(2 * e) - log_gamma(e - r / e) - log_gamma(e + r / e)),
                   terms=_ratio_terms, **_RATIO_STATE)),
    FamilySpec("eckart", "Eckart, k = eps*coth(x) + rho/eps",
               _make_domain(0.0, _INF), 1.0, _FOLD_RATIO, (0.0, 12.0),
               g=_g_coth,
               state=StateForm(
                   log_c0=lambda e, r, b: (0.5 - e) * _LOG2 + 0.5 * (
                       log_gamma(1 - e + r / e) - log_gamma(1 - 2 * e) - log_gamma(e + r / e)),
                   terms=partial(_ratio_terms, sides=_log_coth_sides,
                                 coordinate=lambda x: 1.0 / np.tanh(x)), **_RATIO_STATE)),
    FamilySpec("coulomb", "Coulomb, k = eps/x + rho/eps",
               _make_domain(0.0, _INF), 0.0, _FOLD_RATIO, (0.0, 20.0),
               g=_g_inverse,
               state=StateForm(
                   log_c0=lambda e, r, b: 0.5 * (math.log(abs(r)) - 2 * math.log(abs(e))
                                                 - 2 * e * math.log(r / e) - log_gamma(-2 * e)),
                   step=_fixed(-1.0), poly="laguerre_l", params=lambda e, r, k: (-1 - 2 * e,),
                   terms=lambda x, e, r, b, k: (-e * np.log(2.0 * x) + r * x / (k - e),
                                                2 * r * x / (e - k)))),
    FamilySpec("rosen-morse1", "trigonometric Rosen-Morse, k = -eps*tan(x) + rho/eps",
               _make_domain(-_PI / 2, _PI / 2), -1.0, _FOLD_RATIO,
               (-_PI / 2, _PI / 2),
               g=_g_neg_tan,
               state=StateForm(terms=lambda x, e, r, b, k: (
                   (k - e) * np.log(2.0 * np.cos(x)) + r * x / (k - e), -1j * np.tan(x)),
                   **_TRIG_RATIO_STATE)),
    FamilySpec("rosen-morse1-cot", "trigonometric Rosen-Morse cot form, k = eps*cot(x) + rho/eps",
               _make_domain(0.0, _PI), -1.0, _FOLD_RATIO, (0.0, _PI),
               g=_g_cot,
               state=StateForm(terms=lambda x, e, r, b, k: (
                   (k - e) * np.log(2.0 * np.sin(x)) + r * (2 * x - _PI) / (2 * (k - e)),
                   1j / np.tan(x)), **_TRIG_RATIO_STATE)),
)}

FAMILY_IDS: tuple[str, ...] = tuple(FAMILY_SPECS)


def family_ids() -> tuple[str, ...]:
    return FAMILY_IDS


def get_spec(family_id: str) -> FamilySpec:
    try:
        return FAMILY_SPECS[family_id]
    except KeyError:
        raise ValidationError(
            f"unknown family {family_id!r}; known ids: {', '.join(FAMILY_IDS)}") from None


@dataclass(frozen=True)
class FamilyParams:
    """Effective parameters of one family instance.

    eps/rho are the folded parameters; beta is the oscillator slope and is
    zero for every family except harm-osc (whose eps is unused and zero).
    """

    id: str
    eps: float
    rho: float
    beta: float
    alpha: float
    provenance: ConstructionData

    @property
    def spec(self) -> FamilySpec:
        return FAMILY_SPECS[self.id]

    @property
    def domain(self) -> Domain:
        return FAMILY_SPECS[self.id].domain

    # decided once per instance and kept outside the dataclass fields, so
    # ==, repr and dataclasses.replace do not see it
    @cached_property
    def max_k(self) -> Optional[int]:
        """The top admissible level (top_level): None for no bound, -1 for none."""
        return top_level(self)


def build_family(family_id: str, data: ConstructionData) -> FamilyParams:
    """Fold the data; RangeViolation where zeta_0 is not in L^2, or eps = 0 on the ratio form."""
    spec = get_spec(family_id)
    eps, rho, beta = _fold(spec.fold, data)
    got = f"(got eps={eps:.6g}, rho={rho:.6g}, beta={beta:.6g})"
    if spec.v is None and eps == 0:   # k = rho/eps + eps G
        raise RangeViolation(f"family {family_id!r} requires eps != 0 {got}")
    if block := spec.blocked(eps, rho, beta):
        x, value = block
        why = (f"zeta_0 ~ |x - w|^{value:.6g} at the wall w = {x:.6g}, where the exponent "
               f"must be > -1/2" if math.isfinite(x) else
               f"k -> {value:.6g} as x -> {x:+}, where the limit must be {'>' if x > 0 else '<'} 0")
        raise RangeViolation(f"family {family_id!r} requires zeta_0 = exp(-int k) in L^2, "
                             f"but {why} {got}")
    return FamilyParams(id=family_id, eps=eps, rho=rho, beta=beta,
                        alpha=spec.alpha, provenance=data)


def top_level(fp: FamilyParams) -> Optional[int]:
    """The highest admissible level of fp: None for no bound, -1 for none.

    Where build_family accepts fp, level j exists up to the top and not past it: ask the
    farthest rung, s = -max float, then gallop from 1 and bisect.  FamilyParams.max_k asks
    this once per instance, and every reader of the levels reads it.  The farthest rung
    answers first, so an unbounded ratio tower whose eps - 1 rounds to -1 keeps level 1,
    where R(eps - 1) divides by zero.
    """
    spec, e, r, b = fp.spec, fp.eps, fp.rho, fp.beta

    def exists(j):   # a ratio step R(s) divides by s + 1, and |eps| <= 2^-53 rounds eps - 1 to -1
        return spec.admits(e - j, r, b) and (not j or spec.v is not None or e - j != -1)

    if spec.admits(-sys.float_info.max, r, b):
        return None
    lo, hi = -1, int(sys.float_info.max)   # level lo is admissible (or -1), and level hi is not
    while hi - lo > 1:
        mid = min(max(2 * lo + 1, 1), (lo + hi) // 2)   # levels 1, 3, 7, ..., then halves
        lo, hi = (mid, hi) if exists(mid) else (lo, mid)
    return lo


def translate_family(fp: FamilyParams, t: int = 1) -> FamilyParams:
    """Rebuild after m_i -> m_i - t; eps drops by t, rho and beta stay."""
    if not isinstance(t, int) or isinstance(t, bool) or t < 1:
        raise ValidationError(f"translation step must be an integer >= 1, got {t!r}")
    data = dataclasses.replace(fp.provenance, p=fp.provenance.p.translate(t))
    return build_family(fp.id, data)


def superpotential(fp: FamilyParams, x):
    """Closed-form k(x) and k'(x); x may be a scalar or an array."""
    fp.domain.require_inside(x)
    return fp.spec.k(x, fp.eps, fp.rho, fp.beta)


def partner_potentials(fp: FamilyParams, x):
    """V = k^2 - k' and the partner Vtilde = k^2 + k'."""
    k, kp = superpotential(fp, x)
    ksq = k * k
    return ksq - kp, ksq + kp


def riccati_g(family_id: str, x):
    """The family's G(x) and G'(x), satisfying G' + G^2 = alpha."""
    return get_spec(family_id).g(x)


def coupling_v(family_id: str, x, beta: float, d: float):
    """The linear-equation solution v(x) and v'(x) with constants (beta, d).

    Only the eight linear-form families carry v functions.
    """
    spec = get_spec(family_id)
    if spec.v is None:
        raise ValidationError(f"family {spec.id!r} has no v functions (ratio form)")
    return spec.v(x, beta, d)


def remainder(fp: FamilyParams) -> float:
    """The constant R in Vtilde(x; m) = V(x; m - 1) + R(m - 1)."""
    return fp.spec.remainder(fp.eps, fp.rho, fp.beta)


def construction_remainder(fp: FamilyParams) -> float:
    """R recomputed from the construction: (2M + 1) alpha + 2 sum beta_j I_j.

    Valid for the linear-form families only; the ratio families carry a
    rho-dependent R with no such expression.
    """
    if fp.spec.v is None:
        raise ValidationError(
            f"family {fp.id!r} has no construction-side remainder formula")
    mean, sum_beta, _ = _coupling_sums(fp.provenance)
    return (2 * mean + 1) * fp.alpha + 2 * sum_beta


def classic_reconstruction(which: str, m1: float, m2: float, x):
    """Two-parameter reconstruction check: returns (M G + I_1 v_1, direct form).

    PT2: M(2 coth 2x) + I_1(2 csch 2x) against m1 tanh x + m2 coth x on (0, inf);
    PT1: M(2 cot 2x) + I_1(2 csc 2x) against -m1 tan x + m2 cot x on (0, pi/2).
    """
    mean = 0.5 * (m1 + m2)
    inv = 0.5 * (m2 - m1)
    xa = np.asarray(x, dtype=float)
    if which == "pt2":
        if np.any(xa <= 0):
            raise EvalDomainError("pt2 reconstruction needs x > 0")
        lhs = mean * 2.0 / np.tanh(2 * xa) + inv * 2.0 / np.sinh(2 * xa)
        rhs = m1 * np.tanh(xa) + m2 / np.tanh(xa)
    elif which == "pt1":
        if np.any(xa <= 0) or np.any(xa >= _PI / 2):
            raise EvalDomainError("pt1 reconstruction needs 0 < x < pi/2")
        lhs = mean * 2.0 / np.tan(2 * xa) + inv * 2.0 / np.sin(2 * xa)
        rhs = -m1 * np.tan(xa) + m2 / np.tan(xa)
    else:
        raise ValidationError(f"reconstruction id must be 'pt1' or 'pt2', got {which!r}")
    if np.isscalar(x) or (hasattr(x, "ndim") and x.ndim == 0):
        return float(lhs), float(rhs)
    return lhs, rhs
