"""Spectra and normalized bound states of the thirteen families.

Eigenenergies are summed from the families' remainders, E_k = sum over
j = 1..k of R(eps - j), and so are the ladder normalizations; eigenfunctions
are assembled from the polynomial evaluators, one state builder per family.
Three families (hyperbolic Scarf and both trigonometric Rosen-Morse forms)
run through complex arithmetic and are projected back to the reals after an
imaginary-residue check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import specfun
from .errors import InadmissibleState, NumericalError, ValidationError
from .families import FamilyParams

IMAG_RESIDUE_TOL = 1e-9


def _check_index(k) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise ValidationError(f"level index must be a non-negative integer, got {k!r}")
    return int(k)


@dataclass(frozen=True)
class AdmissibleRange:
    """Contiguous admissible levels 0..max_k; None means unbounded, -1 empty."""

    max_k: Optional[int]

    def contains(self, k: int) -> bool:
        if k < 0:
            return False
        return self.max_k is None or k <= self.max_k

    def levels(self, kmax: int) -> tuple[int, ...]:
        """Admissible levels up to and including kmax."""
        hi = kmax if self.max_k is None else min(kmax, self.max_k)
        return tuple(range(0, hi + 1))


def _admissible(fp: FamilyParams, k) -> int:
    k = _check_index(k)
    if not admissible_range(fp).contains(k):
        raise InadmissibleState(
            f"level k={k} is not admissible for family {fp.id!r} "
            f"(eps={fp.eps:.6g}, rho={fp.rho:.6g})")
    return k


def eigenenergy(fp: FamilyParams, k: int) -> float:
    """E_k = sum_{j=1..k} R(eps - j): each step down the ladder adds R."""
    k = _admissible(fp, k)
    rem = fp.spec.remainder
    return sum((rem(fp.eps - j, fp.rho, fp.beta) for j in range(1, k + 1)), 0.0)


_SCAN_CAP = 65536


def admissible_range(fp: FamilyParams) -> AdmissibleRange:
    """Largest contiguous set of levels with finite, normalizable states."""
    spec, e, r = fp.spec, fp.eps, fp.rho
    if spec.gamma_args is None:
        return AdmissibleRange(spec.max_level(e, r))

    def ok(k: int) -> bool:
        s = e - k
        if s == 0 or s + 1 == 0:
            return False
        return all(a > 0 for a in spec.gamma_args(s, r / s))

    if not ok(0):
        return AdmissibleRange(-1)
    # climb while the Gamma arguments stay positive and E_k, summed as in
    # eigenenergy, keeps rising
    last = 0
    energy = 0.0
    for k in range(1, _SCAN_CAP):
        if not ok(k):
            break
        raised = energy + spec.remainder(e - k, r, fp.beta)
        if not raised > energy:
            break
        last, energy = k, raised
    return AdmissibleRange(last)


def norm_coefficient(fp: FamilyParams, k: int) -> float:
    """Ladder normalization prod_{j=1..k} c_j / sqrt(E_j(e_j)), e_j = eps - (k - j).

    zeta_j(e) = A+(e) zeta_{j-1}(e - 1) / sqrt(E_j(e)), as |A+ zeta_{j-1}|^2 = E_j;
    E_j(e_j) = E_{j-1}(e_{j-1}) + R(e_j - 1) is one running sum.  The
    ratio-form families, whose polynomials take their parameters from
    s = e_j - j = eps - k, carry c_j = (2 e_j - j) / e_j; the rest c_j = 1.
    """
    k = _check_index(k)
    spec, value, energy = fp.spec, 1.0, 0.0
    try:
        for j in range(1, k + 1):
            e = fp.eps - (k - j)
            energy += spec.remainder(e - 1, fp.rho, fp.beta)
            if not energy > 0:
                raise InadmissibleState(f"E_{j} = {energy:.6g} is not positive on the "
                                        f"ladder to k={k} (eps={fp.eps:.6g}, rho={fp.rho:.6g})")
            value /= math.sqrt(energy)
            if spec.v is None:
                value *= (2 * e - j) / e
    except ZeroDivisionError:  # integer eps in 0..k on a ratio-form family
        raise InadmissibleState(f"zero denominator at step j={j} on the ladder to k={k} "
                                f"(eps={fp.eps:.6g}, rho={fp.rho:.6g})") from None
    return value


class Wavefunction:
    """Evaluable normalized bound state; accepts scalars or arrays."""

    def __init__(self, fp: FamilyParams, k: int, body: Callable, complex_path: bool):
        self.family = fp
        self.k = k
        self._body = body
        self.complex_path = complex_path

    def complex_value(self, x):
        self.family.domain.require_inside(x)
        return self._body(x)

    def imag_residue(self, x) -> float:
        """max |Im| / (1 + |Re|) over the points; zero on real paths."""
        if not self.complex_path:
            return 0.0
        raw = np.asarray(self.complex_value(x))
        return float(np.max(np.abs(raw.imag) / (1.0 + np.abs(raw.real))))

    def __call__(self, x):
        raw = self.complex_value(x)
        if not self.complex_path:
            return raw
        arr = np.asarray(raw)
        bad = np.abs(arr.imag) > IMAG_RESIDUE_TOL * (1.0 + np.abs(arr.real))
        if bad.any():
            worst = float(np.max(np.abs(arr.imag) / (1.0 + np.abs(arr.real))))
            raise NumericalError(
                f"imaginary residue {worst:.3e} exceeds {IMAG_RESIDUE_TOL:g} "
                f"for family {self.family.id!r}, k={self.k}")
        real = arr.real
        if np.isscalar(raw) or real.ndim == 0:
            return float(real)
        return real


def _scarf2_state(fp: FamilyParams, k: int) -> Wavefunction:
    e, r = fp.eps, fp.rho
    norm = norm_coefficient(fp, k)
    pref = (2.0 ** (e - 0.5)
            * specfun.gamma_abs_complex(complex(0.5 + e - k, -r))
            / (math.sqrt(math.pi) * math.sqrt(specfun.gamma(2 * (e - k))))
            * math.factorial(k) * norm) * 1j ** k
    a_j = complex(-0.5 - e, r)
    b_j = complex(-0.5 - e, -r)

    def body(x):
        sh = np.sinh(x)
        outer = np.exp(-r * np.arctan(sh)) * np.cosh(x) ** (-e)
        return pref * outer * specfun.jacobi_p(k, a_j, b_j, -1j * sh)

    return Wavefunction(fp, k, body, True)


def _poschl_teller_state(fp: FamilyParams, k: int) -> Wavefunction:
    e, r = fp.eps, fp.rho
    norm = norm_coefficient(fp, k)
    pref = (2.0 ** e * math.factorial(k) * norm
            * math.sqrt(specfun.gamma(0.5 - k + e + r)
                        / (specfun.gamma(2 * (e - k))
                           * specfun.gamma(0.5 + k - e + r))))
    a_j, b_j = -0.5 - e - r, -0.5 - e + r

    def body(x):
        ch = np.cosh(x)
        outer = (ch - 1.0) ** ((-e + r) / 2) * (ch + 1.0) ** (-(e + r) / 2)
        return pref * outer * specfun.jacobi_p(k, a_j, b_j, -ch)

    return Wavefunction(fp, k, body, False)


def _morse_state(fp: FamilyParams, k: int, sign: float) -> Wavefunction:
    """Morse (sign +1) or its mirror image (sign -1)."""
    e, r = fp.eps, fp.rho
    norm = norm_coefficient(fp, k)
    pref = ((-1.0) ** k * 2.0 ** (e - k) * (sign * r) ** (e - k) * norm
            * math.factorial(k) / math.sqrt(specfun.gamma(2 * (e - k))))

    def body(x):
        xa = np.asarray(x, dtype=float)
        w = np.exp(-sign * xa)
        # decay factors fused into one exponent to dodge overflow
        outer = np.exp(-sign * r * w - (e - k) * sign * xa)
        return pref * outer * specfun.laguerre_l(k, 2 * e - 2 * k, 2 * sign * r * w)

    return Wavefunction(fp, k, body, False)


def _radial_state(fp: FamilyParams, k: int) -> Wavefunction:
    e, r = fp.eps, fp.rho
    norm = norm_coefficient(fp, k)
    pref = (math.sqrt(2.0 * r ** (0.5 + k - e) / specfun.gamma(0.5 + k - e))
            * math.factorial(k) * (-2.0) ** k * norm)

    def body(x):
        return (pref * np.exp(-r * x ** 2 / 2) * x ** (-e)
                * specfun.laguerre_l(k, -0.5 - e, r * x ** 2))

    return Wavefunction(fp, k, body, False)


def _harmonic_state(fp: FamilyParams, k: int) -> Wavefunction:
    b, r = fp.beta, fp.rho
    pref = (b / math.pi) ** 0.25 / math.sqrt(math.factorial(k) * 2.0 ** k)

    def body(x):
        y = np.asarray(x, dtype=float) + r / b
        return pref * np.exp(-b * y ** 2 / 2) * specfun.hermite_h(k, math.sqrt(b) * y)

    return Wavefunction(fp, k, body, False)


def _scarf1_state(fp: FamilyParams, k: int, trig: Callable) -> Wavefunction:
    """Trigonometric Scarf in u = sin x (tan form) or u = cos x (cot form)."""
    e, r = fp.eps, fp.rho
    norm = norm_coefficient(fp, k)
    pref = (2.0 ** e * math.factorial(k) * norm
            * math.sqrt(specfun.gamma(1 + 2 * k - 2 * e)
                        / (specfun.gamma(0.5 + k - e - r)
                           * specfun.gamma(0.5 + k - e + r))))
    a_j, b_j = -0.5 - e - r, -0.5 - e + r

    def body(x):
        u = trig(x)
        outer = (1.0 - u) ** (-(e + r) / 2) * (1.0 + u) ** (-(e - r) / 2)
        return pref * outer * specfun.jacobi_p(k, a_j, b_j, u)

    return Wavefunction(fp, k, body, False)


def _hyperbolic_ratio_state(fp: FamilyParams, k: int, gamma_ratio: Callable,
                            coordinate: Callable, sides: Callable) -> Wavefunction:
    """Rosen-Morse (u = tanh x) and Eckart (u = coth x) states.

    gamma_ratio(s, t) is the Gamma quotient under the root; sides(x) gives
    the two bases u -/+ 1 (up to sign) raised to (s + t)/2 and (s - t)/2,
    in forms free of the cancellation that rounds them to 0 in the tails.
    """
    e, r = fp.eps, fp.rho
    norm = norm_coefficient(fp, k)
    s = e - k
    t = r / s
    pref = 2.0 ** (0.5 + k - e) * math.factorial(k) * math.sqrt(gamma_ratio(s, t)) * norm
    a_j, b_j = s + t, s - t

    def body(x):
        u = coordinate(x)
        lo, hi = sides(x)
        outer = lo ** ((s + t) / 2) * hi ** ((s - t) / 2)
        return pref * outer * specfun.jacobi_p(k, a_j, b_j, u)

    return Wavefunction(fp, k, body, False)


def _tanh_sides(x):
    """1 - tanh x and 1 + tanh x."""
    with np.errstate(over="ignore"):
        return 2.0 / (1.0 + np.exp(2.0 * x)), 2.0 / (1.0 + np.exp(-2.0 * x))


def _coth_sides(x):
    """coth x - 1 and coth x + 1."""
    with np.errstate(over="ignore"):
        return 2.0 / np.expm1(2.0 * x), -2.0 / np.expm1(-2.0 * x)


def _coulomb_state(fp: FamilyParams, k: int) -> Wavefunction:
    e, r = fp.eps, fp.rho
    norm = norm_coefficient(fp, k)
    lam = r / (e - k)
    rad = -r / (k - e) ** 2 * lam ** (2 * k - 2 * e) / specfun.gamma(2 * k - 2 * e)
    if not rad > 0:
        raise InadmissibleState(
            f"coulomb prefactor radicand {rad:.6g} is not positive at k={k}")
    pref = (-1.0) ** k * math.factorial(k) * math.sqrt(rad) * norm

    def body(x):
        return (pref * (2.0 * x) ** (-e) * np.exp(r * x / (k - e))
                * specfun.laguerre_l(k, -1 - 2 * e, 2 * r * x / (e - k)))

    return Wavefunction(fp, k, body, False)


def _trig_ratio_state(fp: FamilyParams, k: int, parts: Callable) -> Wavefunction:
    """Trigonometric Rosen-Morse states, complex path.

    parts(x, q, rho) with q = k - eps gives the outer factor and the
    Jacobi argument of the tan or cot form.
    """
    e, r = fp.eps, fp.rho
    norm = norm_coefficient(fp, k)
    s = e - k
    t = r / s
    pref = ((-1j) ** k * math.factorial(k) * norm
            * specfun.gamma_abs_complex(complex(1 + k - e, -t))
            / math.sqrt(math.pi * specfun.gamma(1 + 2 * k - 2 * e)))
    a_j = complex(s, t)
    b_j = complex(s, -t)

    def body(x):
        outer, z = parts(np.asarray(x, dtype=float), k - e, r)
        return pref * outer * specfun.jacobi_p(k, a_j, b_j, z)

    return Wavefunction(fp, k, body, True)


# One normalized-state builder per family, keyed like families.FAMILY_SPECS.
_STATES: dict[str, Callable[[FamilyParams, int], Wavefunction]] = {
    "scarf2": _scarf2_state,
    "poschl-teller": _poschl_teller_state,
    "morse": partial(_morse_state, sign=1.0),
    "morse-mirror": partial(_morse_state, sign=-1.0),
    "radial-osc": _radial_state,
    "harm-osc": _harmonic_state,
    "scarf1": partial(_scarf1_state, trig=np.sin),
    "scarf1-cot": partial(_scarf1_state, trig=np.cos),
    "rosen-morse2": partial(
        _hyperbolic_ratio_state,
        gamma_ratio=lambda s, t: specfun.gamma(2 * s) / (specfun.gamma(s - t)
                                                         * specfun.gamma(s + t)),
        coordinate=np.tanh, sides=_tanh_sides),
    "eckart": partial(
        _hyperbolic_ratio_state,
        gamma_ratio=lambda s, t: specfun.gamma(1 - s + t) / (specfun.gamma(1 - 2 * s)
                                                             * specfun.gamma(s + t)),
        coordinate=lambda x: 1.0 / np.tanh(x), sides=_coth_sides),
    "coulomb": _coulomb_state,
    "rosen-morse1": partial(_trig_ratio_state, parts=lambda x, q, r: (
        (2.0 * np.cos(x)) ** q * np.exp(r * x / q), -1j * np.tan(x))),
    "rosen-morse1-cot": partial(_trig_ratio_state, parts=lambda x, q, r: (
        (2.0 * np.sin(x)) ** q * np.exp(r * (2 * x - math.pi) / (2 * q)), 1j / np.tan(x))),
}


def wavefunction(fp: FamilyParams, k: int) -> Wavefunction:
    """Assemble the closed-form normalized state zeta_k of V(x; fp)."""
    return _STATES[fp.id](fp, _admissible(fp, k))


@dataclass(frozen=True)
class EigenState:
    family: FamilyParams
    k: int
    energy: float
    wavefunction: Wavefunction


def eigenstate(fp: FamilyParams, k: int) -> EigenState:
    return EigenState(family=fp, k=k, energy=eigenenergy(fp, k),
                      wavefunction=wavefunction(fp, k))
