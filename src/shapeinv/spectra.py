"""Spectra and normalized bound states of the thirteen families.

families.top_level decides the admissible levels; one walk down the
ladder sums their energies E_k = E_{k-1} + R(eps - k), and the ladder
normalizations N_k sum upward from the bottom rung, R(eps - k) first.
Every state is evaluated by one log-space rule from its family's
StateForm, with C_k derived from the ground-state normalization at
eps - k.  Three families (hyperbolic Scarf and both trigonometric
Rosen-Morse forms) run through complex arithmetic and are projected back
to the reals after an imaginary-residue check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import specfun
from .errors import InadmissibleState, NumericalError, ValidationError
from .families import FamilyParams, top_level

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
        return k >= 0 and (self.max_k is None or k <= self.max_k)

    def levels(self, kmax: int) -> tuple[int, ...]:
        """Admissible levels up to and including kmax."""
        hi = kmax if self.max_k is None else min(kmax, self.max_k)
        return tuple(range(0, hi + 1))


def _ladder(fp: FamilyParams, top: int) -> list[float]:
    """E_0..E_top by one walk down the ladder: E_k = E_{k-1} + R(eps - k), left to right."""
    energies = [0.0][:top + 1]
    for k in range(1, top + 1):
        energies.append(energies[-1] + fp.spec.remainder(fp.eps - k, fp.rho, fp.beta))
    return energies


def _admissible(fp: FamilyParams, k) -> int:
    """The level index k, or InadmissibleState where level k has no state."""
    k = _check_index(k)
    if top_level(fp, k) < k:
        raise InadmissibleState(
            f"level k={k} is not admissible for family {fp.id!r} "
            f"(eps={fp.eps:.6g}, rho={fp.rho:.6g})")
    return k


def eigenenergy(fp: FamilyParams, k: int) -> float:
    """E_k = sum_{j=1..k} R(eps - j): each step down the ladder adds R."""
    return _ladder(fp, _admissible(fp, k))[-1]


def energy_table(fp: FamilyParams, kmax: int) -> list[tuple[int, float]]:
    """(k, E_k) of the admissible levels up to kmax, from one walk."""
    return list(enumerate(_ladder(fp, top_level(fp, kmax))))


def admissible_range(fp: FamilyParams) -> AdmissibleRange:
    """Largest contiguous set of levels with finite, normalizable states."""
    return AdmissibleRange(top_level(fp))


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
        return float(arr.real) if arr.ndim == 0 else arr.real


def state_constant(fp: FamilyParams, k: int) -> tuple[float, complex]:
    """log|C_k| and C_k/|C_k|, C_k = step^k k! N_k C_0(eps - k) (no k! for Hermite)."""
    k = _check_index(k)
    form, e, r, b = fp.spec.state, fp.eps, fp.rho, fp.beta
    norm = norm_coefficient(fp, k)
    if norm == 0.0:
        raise NumericalError(f"the ladder normalization N_{k} underflows to 0 at eps={e:.6g}")
    step = form.step(e, r, b)
    log_c = (form.log_c0(e - k, r, b) + math.log(abs(norm)) + k * math.log(abs(step))
             + (math.lgamma(k + 1) if form.poly != "hermite_h" else 0.0))
    return log_c, (step / abs(step)) ** k * math.copysign(1.0, norm)


def wavefunction(fp: FamilyParams, k: int) -> Wavefunction:
    """The normalized state zeta_k of V(x; fp), by the family's StateForm.

    zeta_k(x) = phase exp(log|C_k| + L(x)) P_k(z(x)), one exp so that neither
    factor overflows alone.  Past |z| = 1e8 (far form) k log|z| joins the exp,
    and P_k is homogeneous: |z|^-k P_k(z) = w^k P_k(u/w), u = z/|z|, w = 1/|z|.
    """
    k = _admissible(fp, k)
    log_c, phase = state_constant(fp, k)
    form, e, r, b = fp.spec.state, fp.eps, fp.rho, fp.beta
    args, terms, far = (k, *form.params(e, r, k)), form.terms, form.far

    def near(log_outer, z):
        return phase * np.exp(log_c + log_outer) * getattr(specfun, form.poly)(*args, z)

    def body(x):
        if far is None:
            return near(*terms(x, e, r, b, k))
        # cosh and sinh overflow past |x| = 710, inside the far form's reach
        with np.errstate(all="ignore"):
            log_outer, z = terms(x, e, r, b, k)
            big = np.abs(z) > 1e8
            if not big.any():
                return near(log_outer, z)
            # one pass over every point: u = z, w = 1 where |z| <= 1e8
            log_z, unit = far(x)
            poly = specfun.jacobi_p_homogeneous(*args, np.where(big, unit, z),
                                                np.where(big, np.exp(-log_z), 1.0))
            return (phase * np.exp(log_c + log_outer + k * np.where(big, log_z, 0.0)) * poly)[()]

    return Wavefunction(fp, k, body, isinstance(phase, complex))


@dataclass(frozen=True)
class EigenState:
    family: FamilyParams
    k: int
    energy: float
    wavefunction: Wavefunction


def eigenstate(fp: FamilyParams, k: int) -> EigenState:
    return EigenState(family=fp, k=k, energy=eigenenergy(fp, k),
                      wavefunction=wavefunction(fp, k))
