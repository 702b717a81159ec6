"""Recurrence evaluators against independent series definitions.

The oracles here are finite sums written straight from the textbook
definitions (generalized binomials and Pochhammer products), kept separate
from the recurrence code on purpose.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from shapeinv import specfun
from shapeinv.errors import EvalDomainError, GammaPole
from shapeinv.specfun import (
    MAX_DEGREE,
    gamma,
    gamma_abs_complex,
    hermite_h,
    hyp1f1_terminating,
    hyp2f1_terminating,
    jacobi_p,
    laguerre_l,
    log_gamma,
)


def binom(x, j: int) -> float:
    out = 1.0
    for i in range(j):
        out *= (x - i) / (j - i)
    return out


def jacobi_series(k: int, a, b, z) -> float:
    return sum(binom(k + a, k - s) * binom(k + b, s)
               * ((z - 1.0) / 2.0) ** s * ((z + 1.0) / 2.0) ** (k - s)
               for s in range(k + 1))


def laguerre_series(k: int, a, z) -> float:
    return sum((-1.0) ** s * binom(k + a, k - s) * z ** s / math.factorial(s)
               for s in range(k + 1))


def hermite_series(k: int, z) -> float:
    return math.factorial(k) * sum(
        (-1.0) ** s * (2.0 * z) ** (k - 2 * s)
        / (math.factorial(s) * math.factorial(k - 2 * s))
        for s in range(k // 2 + 1))


def poch(x: Fraction, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out *= x + i
    return out


def test_jacobi_against_series():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.randrange(0, 13)
        a = rng.uniform(-3, 3)
        b = rng.uniform(-3, 3)
        z = rng.uniform(-3, 3)
        want = jacobi_series(k, a, b, z)
        got = jacobi_p(k, a, b, z)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_laguerre_against_series():
    rng = random.Random(12)
    for _ in range(200):
        k = rng.randrange(0, 13)
        a = rng.uniform(-3, 3)
        z = rng.uniform(-3, 3)
        want = laguerre_series(k, a, z)
        assert laguerre_l(k, a, z) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_hermite_against_series():
    rng = random.Random(13)
    for _ in range(200):
        k = rng.randrange(0, 13)
        z = rng.uniform(-3, 3)
        want = hermite_series(k, z)
        assert hermite_h(k, z) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_array_and_scalar_agree():
    zs = np.linspace(-2, 2, 7)
    arr = jacobi_p(5, 0.3, -0.4, zs)
    for z, v in zip(zs, arr):
        assert v == pytest.approx(jacobi_p(5, 0.3, -0.4, float(z)), rel=1e-14)
    arr = laguerre_l(4, 1.2, zs)
    for z, v in zip(zs, arr):
        assert v == pytest.approx(laguerre_l(4, 1.2, float(z)), rel=1e-14)


def _laguerre_times_ones(k, a, z):
    # the reference: the recurrence with every constant times an array of ones
    one = z * 0 + 1.0
    if k == 0:
        return one
    p_prev, p_cur = one, (1 + a) * one - z
    for n in range(2, k + 1):
        p_prev, p_cur = p_cur, (((2 * n - 1 + a) * one - z) * p_cur - (n - 1 + a) * p_prev) / n
    return p_cur


@pytest.mark.parametrize("a,b", [(0.3, -0.4), (2.7, 1.1), (-1.6, -1.3), (-2.9, -0.2),
                                 (0.5 + 1.5j, 0.5 - 1.5j), (-1.2 + 0.7j, -1.2 - 0.7j)],
                         ids=["plain", "large", "near-degenerate", "near-degenerate-2",
                              "conjugate", "conjugate-near-degenerate"])
def test_scalar_one_matches_arrays_of_ones(a, b):
    # where the value is exactly 1 the evaluators take the scalar 1.0; on
    # arrays that gives the same floats as multiplying by an array of ones
    rng = np.random.default_rng(2560)
    for z in (np.linspace(-3.0, 3.0, 2560), rng.normal(size=64) + 1j * rng.normal(size=64)):
        one = z * 0 + 1.0
        for k in range(8):
            assert np.array_equal(jacobi_p(k, a, b, z), specfun._jacobi(k, a, b, z, one, 1.0, one))
            assert np.array_equal(laguerre_l(k, a, z), _laguerre_times_ones(k, a, z))


def test_hyp1f1_exact_fraction_oracle():
    # rational inputs make the finite sum exact in Fraction arithmetic
    cases = [(-1, Fraction(5, 2), Fraction(6, 5)),
             (-3, Fraction(17, 10), Fraction(-9, 10)),
             (-5, Fraction(7, 3), Fraction(3, 4))]
    for upper, lower, z in cases:
        want = sum(poch(Fraction(upper), s) / poch(lower, s)
                   * z ** s / math.factorial(s) for s in range(-upper + 1))
        got = hyp1f1_terminating(upper, float(lower), float(z))
        assert got == pytest.approx(float(want), rel=1e-13)
    assert hyp1f1_terminating(0, 0.7, 2.0) == 1.0
    assert hyp1f1_terminating(-1, 2.5, 1.2) == pytest.approx(1 - 1.2 / 2.5, rel=1e-15)


def test_hyp2f1_exact_fraction_oracle():
    cases = [(-1, Fraction(2), Fraction(3), Fraction(1, 2)),
             (-2, Fraction(13, 10), Fraction(4, 5), Fraction(1, 4)),
             (-4, Fraction(-7, 2), Fraction(9, 4), Fraction(-2, 3))]
    for ua, ub, lower, z in cases:
        want = sum(poch(Fraction(ua), s) * poch(ub, s) / poch(lower, s)
                   * z ** s / math.factorial(s) for s in range(-ua + 1))
        got = hyp2f1_terminating(ua, float(ub), float(lower), float(z))
        assert got == pytest.approx(float(want), rel=1e-13)
    assert hyp2f1_terminating(0, 1.0, 2.0, 0.9) == 1.0
    assert hyp2f1_terminating(-1, 2, 3, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_hypergeometric_pole_and_validation():
    with pytest.raises(GammaPole):
        hyp1f1_terminating(-3, -1.0, 0.5)  # lower hits 0 at term 2
    with pytest.raises(EvalDomainError):
        hyp1f1_terminating(0.5, 1.0, 0.5)
    with pytest.raises(EvalDomainError):
        hyp2f1_terminating(0.5, 1.3, 2.0, 0.1)
    with pytest.raises(GammaPole):
        hyp2f1_terminating(-4, 5.0, -2.0, 0.3)


def test_degree_cap():
    with pytest.raises(EvalDomainError):
        jacobi_p(MAX_DEGREE + 1, 0.0, 0.0, 0.5)
    with pytest.raises(EvalDomainError):
        hermite_h(-1, 0.5)


def test_gamma_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-12)
    assert gamma_abs_complex(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_gamma_recurrence_and_real_consistency():
    rng = random.Random(3)
    for _ in range(60):
        x = rng.uniform(0.1, 8.0)
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)
        assert gamma_abs_complex(complex(x, 0.0)) == pytest.approx(
            math.exp(log_gamma(x)), rel=1e-12)


def test_gamma_cosh_identity():
    # |Gamma(1/2 + iy)|^2 = pi / cosh(pi y)
    for i in range(50):
        y = -6.0 + i * (12.0 / 49.0)
        want = math.sqrt(math.pi / math.cosh(math.pi * y))
        assert gamma_abs_complex(complex(0.5, y)) == pytest.approx(want, rel=1e-10)


def test_gamma_pole():
    with pytest.raises(GammaPole):
        gamma_abs_complex(complex(-2.0, 0.0))
    with pytest.raises(GammaPole):
        log_gamma(0.0)
