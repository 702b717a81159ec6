"""Special functions backing the closed-form eigenfunctions and extensions.

The polynomial evaluators run three-term recurrences using only ring
arithmetic on the argument, so one implementation serves floats, complex
values, numpy arrays, and jets (`dual.Jet`, with scalar or array parts)
alike.  Parameters may be complex (conjugate-pair Jacobi parameters occur
throughout).  Where a Jacobi recurrence denominator comes near 0 the
explicit sum, in the same ring arithmetic, takes its place.  Degrees are
capped at 64, beyond the working range.
"""

from __future__ import annotations

import cmath
import math

from .errors import EvalDomainError, GammaPole

MAX_DEGREE = 64

_INT_TOL = 1e-9


def _check_degree(k: int):
    if not isinstance(k, int) or k < 0:
        raise EvalDomainError(f"polynomial degree must be a non-negative integer, got {k!r}")
    if k > MAX_DEGREE:
        raise EvalDomainError(f"polynomial degree {k} exceeds supported maximum {MAX_DEGREE}")


# the recurrence below divides by 2n (n + a + b)(2n + a + b - 2); where a
# factor comes within this of 0 for some degree n its terms cancel, so the
# explicit sum takes over for the whole call
_NEAR_DEGENERATE = 0.5


def _jacobi_sum(k: int, a, b, z, w, one):
    """w^k P_k^(a,b)(z/w) = sum_s C(k+a, k-s) C(k+b, s) ((z-w)/2)^s ((z+w)/2)^(k-s)."""
    ca, cb = [1.0], [1.0]
    for j in range(k):
        ca.append(ca[-1] * (k + a - j) / (j + 1))
        cb.append(cb[-1] * (k + b - j) / (j + 1))
    u, v = (z - w) * 0.5, (z + w) * 0.5
    total, u_s = ca[k] * one, one
    for s in range(1, k + 1):
        u_s = u_s * u
        total = total * v + (ca[k - s] * cb[s]) * u_s
    return total


def _jacobi(k: int, a, b, z, w, ww, one):
    """w^k P_k^(a,b)(z/w) by the three-term recurrence, ww = w^2, or by
    the explicit sum where the parameters are near degenerate."""
    if k == 0:
        return one
    c = a + b
    for n in range(2, k + 1):
        if abs(n + c) < _NEAR_DEGENERATE or abs(2 * n - 2 + c) < _NEAR_DEGENERATE:
            return _jacobi_sum(k, a, b, z, w, one)
    p_prev = one
    p_cur = (a - b) * 0.5 * w + (a + b + 2) * 0.5 * z
    for n in range(2, k + 1):
        s = 2 * n + a + b
        den = 2 * n * (n + a + b) * (s - 2)
        c1 = (s - 1) * (s * (s - 2))
        c2 = (s - 1) * (a * a - b * b)
        c3 = 2 * (n + a - 1) * (n + b - 1) * s
        p_next = ((c1 * z + c2 * w) * p_cur - c3 * ww * p_prev) / den
        p_prev, p_cur = p_cur, p_next
    return p_cur


def jacobi_p(k: int, a, b, z):
    """Jacobi polynomial P_k^(a,b)(z) by the three-term recurrence or the explicit sum.

    a, b may be complex; z may be scalar, array, or Jet.
    """
    _check_degree(k)
    return _jacobi(k, a, b, z, 1.0, 1.0, z * 0 + 1.0)


def jacobi_p_homogeneous(k: int, a, b, z, w):
    """w^k P_k^(a,b)(z/w) by the same evaluator, finite where P_k(z/w) overflows."""
    _check_degree(k)
    return _jacobi(k, a, b, z, w, w * w, w * 0 + 1.0)


def laguerre_l(k: int, a, z):
    """Generalized Laguerre polynomial L_k^(a)(z) by recurrence."""
    _check_degree(k)
    one = z * 0 + 1.0
    if k == 0:
        return one
    p_prev = one
    p_cur = (1 + a) - z
    for n in range(2, k + 1):
        p_next = (((2 * n - 1 + a) - z) * p_cur - (n - 1 + a) * p_prev) / n
        p_prev, p_cur = p_cur, p_next
    return p_cur


def hermite_h(k: int, z):
    """Physicists' Hermite polynomial H_k(z) by recurrence."""
    _check_degree(k)
    one = z * 0 + 1.0
    if k == 0:
        return one
    p_prev = one
    p_cur = 2 * z
    for n in range(2, k + 1):
        p_next = 2 * z * p_cur - 2 * (n - 1) * p_prev
        p_prev, p_cur = p_cur, p_next
    return p_cur


def _term_count(upper):
    """-upper when upper is a non-positive integer (the sum then stops), else None."""
    r = round(float(upper))
    return -int(r) if r <= 0 and abs(upper - r) <= _INT_TOL else None


def _terminating_sum(name: str, n_terms: int, rising, lower, z):
    """1 + sum of n_terms terms, term_j = term_{j-1} rising(j) z / ((lower + j - 1) j)."""
    one = z * 0 + 1.0
    total = one
    term = one
    for j in range(1, n_terms + 1):
        den = lower + j - 1
        if abs(den) < _INT_TOL:
            raise GammaPole(
                f"{name} lower parameter {lower} hits a pole at term {j} inside the truncated sum")
        term = term * (rising(j) / (den * j)) * z
        total = total + term
    return total


def hyp1f1_terminating(upper, lower, z):
    """1F1(upper; lower; z) as a finite sum of exactly |upper|+1 terms.

    upper must be a non-positive integer so the series terminates.
    """
    n_terms = _term_count(upper)
    if n_terms is None:
        raise EvalDomainError(
            f"terminating hypergeometric sum needs a non-positive integer upper parameter, got {upper!r}")
    return _terminating_sum("1F1", n_terms, lambda j: upper + j - 1, lower, z)


def hyp2f1_terminating(upper_a, upper_b, lower, z):
    """2F1(upper_a, upper_b; lower; z) truncated at the terminating upper parameter."""
    candidates = [n for n in map(_term_count, (upper_a, upper_b)) if n is not None]
    if not candidates:
        raise EvalDomainError(
            f"2F1 needs a non-positive integer upper parameter, got ({upper_a!r}, {upper_b!r})")
    return _terminating_sum("2F1", min(candidates),
                            lambda j: (upper_a + j - 1) * (upper_b + j - 1), lower, z)


# Lanczos approximation, g = 7, 9 coefficients.  Valid on Re z > 0.5 after
# the z -> z-1 shift; the reflection formula covers the left half-plane.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _log_lanczos_gamma(z: complex) -> float:
    """log |Gamma(z)| for Re z >= 0.5."""
    z = z - 1.0
    x = _LANCZOS_C[0]
    for i in range(1, 9):
        x += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return (0.5 * math.log(2.0 * math.pi) + ((z + 0.5) * cmath.log(t)).real - t.real
            + math.log(abs(x)))


def _off_poles(x: float) -> float:
    if x <= 0.0 and abs(x - round(x)) < 1e-12:
        raise GammaPole(f"gamma pole at {x}")
    return x


def log_gamma(z) -> float:
    """log |Gamma(z)| for real or complex z off the poles, finite where Gamma overflows.

    Real z takes math.lgamma, complex z the Lanczos sum in log form.
    """
    z = complex(z)
    if z.imag == 0.0:
        return math.lgamma(_off_poles(z.real))
    if z.real >= 0.5:
        return _log_lanczos_gamma(z)
    # |Gamma(z)| = pi / (|sin(pi z)| |Gamma(1-z)|)
    return math.log(math.pi / abs(cmath.sin(cmath.pi * z))) - _log_lanczos_gamma(1.0 - z)


def gamma(x: float) -> float:
    """Gamma(x) for real x away from the poles at non-positive integers."""
    return math.gamma(_off_poles(x))


def gamma_abs_complex(z: complex) -> float:
    """|Gamma(z)| for complex z: exp of log_gamma."""
    return math.exp(log_gamma(z))
