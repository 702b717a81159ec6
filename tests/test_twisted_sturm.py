"""The twisted Sturm kernel and the near-degenerate Jacobi path.

`verify._sturm_counts` runs the forward pivots over rows 0..m-1 and the
backward pivots over rows N-1..m+1 together and adds the twist element at
m = N // 2.  Its counts must match the one-sided per-row sweep and LAPACK's
eigenvalues, whatever N, wherever the twist row falls against a block edge
and wherever an exact zero pivot lands.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from shapeinv import extensions, specfun, verify
from shapeinv.families import FAMILY_IDS
from shapeinv.verify import fd_spectrum, reference_oracle

from test_extensions import build
from test_families import fixture
from test_verify import _sturm_counts_by_row

BLOCK = verify._STURM_BLOCK
# odd and even N; N = 2 BLOCK + 1 fills both halves with exactly one block,
# and the others put the twist row one or two rows either side of a block edge
TWIST_ROWS = [1, 2, 3, 4, 5, 6,
              2 * BLOCK - 2, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 2 * BLOCK + 2,
              2 * BLOCK + 3, 4 * BLOCK - 1, 4 * BLOCK + 1, 4 * BLOCK + 2]


def _eigenvalues(diag, off2):
    off = -np.sqrt(off2) * np.ones(diag.size - 1)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


@pytest.mark.parametrize("n", TWIST_ROWS)
@settings(derandomize=True, max_examples=10, deadline=None)
@given(scale=st.floats(1e-2, 1e3), off2=st.floats(1e-4, 1e4), seed=st.integers(0, 2 ** 32 - 1))
def test_twisted_counts_match_eigvalsh_and_the_per_row_sweep(n, scale, off2, seed):
    # one lambda below the spectrum, one between each pair of neighbouring
    # levels and one above it: the count there is exact and known
    rng = np.random.default_rng(seed)
    diag = scale * rng.standard_normal(n)
    levels = _eigenvalues(diag, off2)
    gaps = np.diff(levels)
    pad = 1.0 + np.max(np.abs(levels))
    lams = np.concatenate(([levels[0] - pad], levels[:-1] + 0.5 * gaps, [levels[-1] + pad]))
    if n > 1:
        # neighbouring levels closer than rounding leave the midpoint's count open
        lams = lams[np.concatenate(([True], gaps > 1e-9 * pad, [True]))]
    want = np.searchsorted(levels, lams)
    got = verify._sturm_counts(diag, off2, lams)
    assert np.array_equal(got, want), (n, got, want)
    assert np.array_equal(got, _sturm_counts_by_row(diag, off2, lams))
    two_d = np.stack([lams, lams[::-1]])
    assert np.array_equal(verify._sturm_counts(diag, off2, two_d),
                          _sturm_counts_by_row(diag, off2, two_d))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1,
                               2 * BLOCK + 2, 2 * BLOCK + 3, 4 * BLOCK + 2])
@pytest.mark.parametrize("where", ["m-1", "m", "m+1", "m-1,m+1"])
@pytest.mark.parametrize("s", [1.0, 2.0 ** 14])
def test_twisted_counts_exact_zero_pivots_at_the_twist(n, where, s):
    # off2 = s^2 with a = 2s keeps every forward pivot (from a_0 = s) and
    # every backward pivot (from a_{N-1} = s) at s.  At lambda = 0 a row
    # a = s (a = 0 on a first row of a half) then makes the forward pivot at
    # m - 1 or the backward pivot at m + 1 exactly 0, and with both
    # neighbours at s the twist gamma_m = 2s - s - s is exactly 0; each zero
    # counts as negative
    m = n // 2
    diag = np.full(n, 2.0 * s)
    diag[0] = diag[-1] = s
    for row in where.split(","):
        if row != "m":
            i = m - 1 if row == "m-1" else m + 1
            diag[i] = 0.0 if i in (0, n - 1) else s
    off2 = s * s
    lams = np.array([0.0, s, -s, 0.5 * s, 2.0 * s, 3.9 * s, 1e-300, -1e-300])
    got = verify._sturm_counts(diag, off2, lams)
    assert np.array_equal(got, _sturm_counts_by_row(diag, off2, lams))
    # the count at lambda = 0 lies between the levels strictly below and
    # the levels at or below it, up to rounding
    levels = _eigenvalues(diag, off2)
    slack = 1e-12 * s * n
    assert np.sum(levels < -slack) <= got[0] <= np.sum(levels <= slack)


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_fd_spectrum_matches_the_per_row_oracle(fid, monkeypatch):
    # the multisection only reads counts, so equal counts give equal levels
    fp = fixture(fid)
    box = reference_oracle(fp, 1000)
    got = fd_spectrum(fp, box, 4)
    monkeypatch.setattr(verify, "_sturm_counts", _sturm_counts_by_row)
    assert got == fd_spectrum(fp, box, 4)


# cond1 inputs where the Jacobi recurrence's n = 2 denominator
# 2n (n + a + b)(2n + a + b - 2) was near 0 and cost the residual its digits
# (1.14e-6, 1.846e-8, 3.2e-6 and 9.1e-9 before the explicit sum), and two at
# rho = 0, where it was exactly 0 and the recurrence raised NumericalError
COND1_REPROS = [(9, 0.8288735233905957, 7.01488284727844e-05, 2),
                (11, 1.1031304782259186, -0.04060244999338214, 3),
                (11, 1.095803593824059, -0.030063678263740456, 3),
                (11, 1.180764531324059, -0.0007998465307732516, 2),
                (9, 0.8288735233905957, 0.0, 2),
                (11, 1.1031304782259186, 0.0, 3)]


@pytest.mark.parametrize("case, eps, rho, ell", COND1_REPROS)
def test_cond1_near_degenerate_jacobi(case, eps, rho, ell):
    report = extensions.check_cond1(build(case, eps, rho, ell))
    assert report.max_residual <= 1e-8, report


def _jacobi_terms(k, a, b, z):
    """The terms of P_k^(a,b)(z) for the given doubles, exact in rationals."""
    a, b, z = Fraction(a), Fraction(b), Fraction(z)

    def binom(x, j):
        out = Fraction(1)
        for i in range(j):
            out = out * (x - i) / (i + 1)
        return out

    return [binom(k + a, k - s) * binom(k + b, s) * ((z - 1) / 2) ** s * ((z + 1) / 2) ** (k - s)
            for s in range(k + 1)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(k=st.integers(2, 8), n=st.integers(2, 8), a=st.floats(-4.0, 4.0),
       near=st.floats(-0.3, 0.3), z=st.floats(-3.0, 3.0), second=st.booleans())
def test_jacobi_near_degenerate_against_exact_sum(k, n, a, near, z, second):
    # n + a + b (or 2n + a + b - 2) within 0.3 of 0 for some degree n <= k;
    # the error is bounded by rounding relative to the terms' sizes
    n = min(n, k)
    b = (2 - 2 * n if second else -n) - a + near
    terms = _jacobi_terms(k, a, b, z)
    want, size = sum(terms), sum(abs(t) for t in terms)
    got = specfun.jacobi_p(k, a, b, z)
    assert abs(Fraction(got) - want) <= 1e-14 * size, (k, a, b, z, got, float(want))
    hom = specfun.jacobi_p_homogeneous(k, a, b, 2.0 * z, 2.0)
    assert abs(Fraction(hom) - 2 ** k * want) <= 1e-14 * 2 ** k * size
