"""The twisted Sturm kernel and the near-degenerate Jacobi path.

`verify._sturm_sweep` runs the forward pivots over rows 0..m-1 and the
backward pivots over rows N-1..m+1 together and adds the twist element at
m = N // 2.  Its counts must match the one-sided per-row sweep and LAPACK's
eigenvalues, whatever N, wherever the twist row falls against a block edge
and wherever an exact zero pivot lands.  `fd_spectrum` places its samples
around the levels that the twist estimates, but the levels it returns must
still match LAPACK and sit between the per-row counts, whether the
estimates serve or not.
"""

from fractions import Fraction
import math
import os
from pathlib import Path
import subprocess
import sys

from hypothesis import assume, given, settings, strategies as st
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
    got = verify._sturm_sweep(diag, off2, lams)[0]
    assert np.array_equal(got, want), (n, got, want)
    assert np.array_equal(got, _sturm_counts_by_row(diag, off2, lams))
    two_d = np.stack([lams, lams[::-1]])
    assert np.array_equal(verify._sturm_sweep(diag, off2, two_d)[0],
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
    got = verify._sturm_sweep(diag, off2, lams)[0]
    assert np.array_equal(got, _sturm_counts_by_row(diag, off2, lams))
    # the count at lambda = 0 lies between the levels strictly below and
    # the levels at or below it, up to rounding
    levels = _eigenvalues(diag, off2)
    slack = 1e-12 * s * n
    assert np.sum(levels < -slack) <= got[0] <= np.sum(levels <= slack)


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_fd_spectrum_matches_the_per_row_oracle(fid, monkeypatch):
    # the twist only places the samples; the brackets are read from the
    # counts, so the per-row counts with the same twist give equal levels
    fp = fixture(fid)
    box = reference_oracle(fp, 1000)
    got = fd_spectrum(fp, box, 4)
    real = verify._sturm_sweep
    sweeps = []

    def by_row(diag, off2, lams):
        sweeps.append(lams.shape)
        return _sturm_counts_by_row(diag, off2, lams), real(diag, off2, lams)[1]

    monkeypatch.setattr(verify, "_sturm_sweep", by_row)
    assert got == fd_spectrum(fp, box, 4)
    assert len(sweeps) >= 2, sweeps


@settings(derandomize=True, max_examples=100, deadline=None)
@given(gaps=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3), where=st.floats(0.0, 1.0),
       c=st.floats(1e-6, 1e6), p=st.floats(-100.0, 100.0), q=st.floats(-100.0, 100.0),
       lead=st.integers(0, 3), scale=st.sampled_from([1e-9, 1.0, 1e3]))
def test_root_estimate_recovers_the_pole_of_a_linear_background(gaps, where, c, p, q, lead,
                                                                  scale):
    # 1 / gamma = c (1 / (r - x) + (p + q u) / w), u = (x - x0) / w over the
    # window of width w, is the model the estimate solves exactly: with one
    # level between samples j - 1 and j it returns r up to rounding, and it
    # declines (nan) when the residue is negative, when the counts put
    # another level among the four samples, or without sample j - 2
    xs = 5.0 + scale * np.concatenate(([0.0], np.cumsum(gaps)))
    w = xs[3] - xs[0]
    r = xs[1] + where * (xs[2] - xs[1])
    assume(xs[1] < r < xs[2])
    inv = c * (1.0 / (r - xs) + (p + q * (xs - xs[0]) / w) / w)
    assume(np.all(inv != 0.0))
    pts = np.concatenate((np.linspace(0.0, 4.0, lead), xs))
    gam = np.concatenate((np.ones(lead), 1.0 / inv))
    cnt = np.array([2] * (lead + 2) + [3, 3])
    j = lead + 2
    got = verify._root_estimate(pts, gam, cnt, j)
    assert abs(got - r) <= 1e-9 * w, (got, r)
    assert math.isnan(verify._root_estimate(pts, -gam, cnt, j))
    for i, k in ((lead, 1), (lead + 3, 4)):
        other = cnt.copy()
        other[i] = k
        assert math.isnan(verify._root_estimate(pts, gam, other, j))
    assert math.isnan(verify._root_estimate(pts[lead + 1:], gam[lead + 1:], cnt[lead + 1:], 1))


HALF_LINE = ["poschl-teller", "radial-osc", "eckart", "coulomb"]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(shape=st.sampled_from(["smooth", "double-well", "half-line"]), n=st.integers(500, 800),
       half=st.floats(3.0, 6.0), c=st.floats(0.5, 5.0), s=st.floats(0.5, 1.5),
       amp=st.floats(-10.0, 10.0), freq=st.floats(0.0, 4.0), fid=st.sampled_from(HALF_LINE),
       count=st.integers(1, 5))
def test_guided_levels_match_eigvalsh_and_the_per_row_counts(shape, n, half, c, s, amp, freq,
                                                             fid, count):
    # a smooth well, a symmetric double well c (x^2 - s^2)^2 on an odd grid,
    # whose middle row is x = 0 where the odd states vanish (there a pole of
    # the twist meets its zero, and 1 / gamma_m shows no pole at the level,
    # so those brackets take the uniform samples), and a half-line family,
    # whose states are tiny at the middle row
    if shape == "half-line":
        target = fixture(fid)
        box = reference_oracle(target, n)
        potential = verify._potential_of(target)
    elif shape == "double-well":
        box = verify.OracleSpec(-half, half, n | 1)
        target = potential = lambda xs: c * (xs ** 2 - s * s) ** 2
    else:
        box = verify.OracleSpec(-half, half, n)
        target = potential = lambda xs: c * xs ** 2 + amp * np.sin(freq * xs + s)
    h = (box.b - box.a) / (box.n - 1)
    diag = 2.0 / h ** 2 + potential(box.a + h * np.arange(1, box.n - 1))
    off2 = 1.0 / h ** 4
    estimates = []
    real = verify._root_estimate

    def placed(*args):
        estimates.append(real(*args))
        return estimates[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_root_estimate", placed)
        got = fd_spectrum(target, box, count)
    want = _eigenvalues(diag, off2)[:count]
    for k, (g, w) in enumerate(zip(got, want)):
        assert abs(g - w) <= 1e-9 * (1.0 + abs(w)), (k, g, w)
        delta = 1e-9 * (1.0 + abs(g))
        below, above = _sturm_counts_by_row(diag, off2, np.array([g - delta, g + delta]))
        assert below <= k < above, (k, g, below, above)
    # one estimate per bracket per sweep, level by level: the odd level's
    # bracket falls back to uniform samples after the ladder's sweep too
    if shape == "double-well" and count >= 2:
        assert any(math.isnan(x) for x in estimates[1::count][1:]), estimates


def _recorded_sweeps(monkeypatch) -> list:
    """The sample arrays of every Sturm sweep from here on, in order."""
    real, samples = verify._sturm_sweep, []

    def recorded(diag, off2, lams):
        samples.append(np.array(lams))
        return real(diag, off2, lams)

    monkeypatch.setattr(verify, "_sturm_sweep", recorded)
    return samples


@pytest.mark.parametrize("fid", ["poschl-teller", "radial-osc", "scarf1"])
def test_singular_wall_sweep_count_guard(fid, monkeypatch):
    # the clip margin puts these boxes' Gershgorin floor thousands of ladder
    # steps below the ground level; a ladder up from the floor took 7, 7 and
    # 6 sweeps here, the ladder that doubles outward from 0 takes 4 or 5
    fp = fixture(fid)
    box = reference_oracle(fp, 1000)
    samples = _recorded_sweeps(monkeypatch)
    fd_spectrum(fp, box, 3)
    assert len(samples) <= 5, [s.shape for s in samples]


def test_a_settled_bracket_takes_no_more_samples(monkeypatch):
    # poschl-teller's levels 1 and 2 settle a sweep before its ground level;
    # after the ladder's sweep each open bracket takes one row of 64 samples
    # and a settled one none, so each level follows its own samples alone
    # and is the same bits however many levels the call asks for
    fp = fixture("poschl-teller")
    box = reference_oracle(fp, 1000)
    fewer = [fd_spectrum(fp, box, count) for count in (1, 2)]
    samples = _recorded_sweeps(monkeypatch)
    got = fd_spectrum(fp, box, 3)
    assert got[:1] == fewer[0] and got[:2] == fewer[1]
    rows = [s.shape[0] for s in samples[1:]]
    assert all(s.shape[1] == 64 for s in samples[1:])
    assert rows == sorted(rows, reverse=True) and rows[0] == 3 and rows[-1] == 1, rows


def test_oracle_compare_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, which adds 1.7 MB to the
    # peak RSS of an FD job; the ladder is built from its sorted halves
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys; from shapeinv.cli import main; "
            "rc = main(['oracle', 'compare', '--family=morse', '--m=2.5', '--invariant=1', "
            "'--d=1', '--kmax=2']); print(rc, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 False", (proc.stdout, proc.stderr)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(length=st.floats(3.0, 8.0), g=st.floats(0.05, 0.24), c=st.floats(0.5, 5.0),
       amp=st.floats(-5.0, 5.0), freq=st.floats(0.0, 4.0), mirror=st.booleans(),
       count=st.integers(1, 5))
def test_levels_match_eigvalsh_with_the_floor_far_below(length, g, c, amp, freq, mirror,
                                                        count):
    # an attractive -g / r^2 wall with g < 1/4 binds no level of its own but
    # takes the first rows' diagonal down to about -g / h^2, as the clip
    # margin does on the singular-wall families: the Gershgorin floor lies
    # over a thousand ladder steps below lambda_0
    box = verify.OracleSpec(0.0, length, 500)

    def potential(xs):
        r = length - xs if mirror else xs
        return -g / r ** 2 + c * (xs - 0.5 * length) ** 2 + amp * np.sin(freq * xs)

    h = length / (box.n - 1)
    diag = 2.0 / h ** 2 + potential(h * np.arange(1, box.n - 1))
    off2 = 1.0 / h ** 4
    want = _eigenvalues(diag, off2)[:count]
    step = (2.0 / h * math.sin(0.5 * math.pi / (box.n - 1))) ** 2
    assert want[0] - (np.min(diag) - 2.0 / h ** 2) > 1000.0 * step
    got = fd_spectrum(potential, box, count)
    for k, (g_k, w) in enumerate(zip(got, want)):
        assert abs(g_k - w) <= 1e-9 * (1.0 + abs(w)), (k, g_k, w)


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
