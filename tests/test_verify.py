"""Numerical oracles: quadrature, FD spectra, residual checks."""

import math

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from shapeinv import families, spectra, verify
from shapeinv.errors import NumericalError, ValidationError
from shapeinv.extensions import extended_superpotential
from shapeinv.verify import (
    GramReport,
    GridReport,
    LadderReport,
    OracleSpec,
    default_grid,
    fd_spectrum,
    ladder_check,
    orthonormality,
    quadrature,
    reference_oracle,
    report_json,
    schrodinger_residual,
    si_residual,
)

from test_extensions import build
from test_families import fixture, simple


def test_oracle_spec_validation():
    s = OracleSpec(-1.0, 2.0)
    assert s.n == 3000
    with pytest.raises(ValidationError):
        OracleSpec(2.0, 2.0)
    with pytest.raises(ValidationError):
        OracleSpec(0.0, 1.0, 200)
    with pytest.raises(ValidationError):
        OracleSpec(float("nan"), 1.0)


def test_fd_square_well():
    # V = 0 on (0, 1) with Dirichlet walls: eigenvalues (k pi)^2
    lam = fd_spectrum(lambda xs: 0.0 * xs, OracleSpec(0.0, 1.0), 3)
    for k, got in zip((1, 2, 3), lam):
        assert got == pytest.approx((k * math.pi) ** 2, abs=5e-3), k


def test_fd_richardson_order_two():
    # halving h shrinks the ground-level error by about 4
    exact = math.pi ** 2
    e1 = abs(fd_spectrum(lambda xs: 0.0 * xs, OracleSpec(0.0, 1.0, 1000), 1)[0] - exact)
    e2 = abs(fd_spectrum(lambda xs: 0.0 * xs, OracleSpec(0.0, 1.0, 2000), 1)[0] - exact)
    assert e1 / e2 == pytest.approx(4.0, rel=0.2)


def test_fd_harmonic_oscillator():
    # V = x^2 has eigenvalues 2k + 1
    lam = fd_spectrum(lambda xs: xs ** 2, OracleSpec(-10.0, 10.0), 4)
    for k, got in zip(range(4), lam):
        assert got == pytest.approx(2 * k + 1, abs=5e-3), k


def test_fd_accepts_family_target():
    fp = simple("morse", 2.5, 1.0)
    box = reference_oracle(fp)
    lam = fd_spectrum(fp, box, 3)
    gaps = [v - lam[0] for v in lam]
    assert gaps[1] == pytest.approx(4.0, abs=5e-3)
    assert gaps[2] == pytest.approx(6.0, abs=5e-3)


def _fd_matrix(potential, box):
    """Diagonal and squared off-diagonal of the matrix fd_spectrum documents."""
    h = (box.b - box.a) / (box.n - 1)
    xs = box.a + h * np.arange(1, box.n - 1)
    return 2.0 / h ** 2 + potential(xs), 1.0 / h ** 4


@settings(derandomize=True, max_examples=40, deadline=None)
@given(half=st.floats(1.0, 6.0), c0=st.floats(-20.0, 20.0), c2=st.floats(0.0, 5.0),
       amp=st.floats(-10.0, 10.0), freq=st.floats(0.0, 4.0), count=st.integers(1, 5))
def test_fd_matches_dense_eigvalsh(half, c0, c2, amp, freq, count):
    # same tridiagonal matrix, eigenvalues from LAPACK on the dense form
    box = OracleSpec(-half, half, 500)

    def potential(xs):
        return c0 + c2 * xs ** 2 + amp * np.sin(freq * xs)

    diag, off2 = _fd_matrix(potential, box)
    off = -math.sqrt(off2) * np.ones(diag.size - 1)
    want = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[:count]
    got = fd_spectrum(potential, box, count)
    for k, (g, w) in enumerate(zip(got, want)):
        assert abs(g - w) <= 1e-9 * (1.0 + abs(w)), (k, g, w)


def test_fd_morse_levels_bracketed_by_sturm_counts():
    # the exp wall puts the Gershgorin span near 5e21; each level must still
    # sit between the counts just below and just above it
    fp = simple("morse", 2.5, 1.0)
    box = reference_oracle(fp, 3000)
    lam = fd_spectrum(fp, box, 3)
    diag, off2 = _fd_matrix(verify._potential_of(fp), box)
    for k, value in enumerate(lam):
        delta = 1e-9 * (1.0 + abs(value))
        lams = np.array([value - delta, value + delta])
        below, above = verify._sturm_sweep(diag, off2, lams)[0]
        assert below <= k < above, (k, value, below, above)


def test_fd_sweep_count_guard(monkeypatch):
    # multisection placed around the levels the twist estimates needs four
    # Sturm sweeps here (the ladder, one uniform sweep, two around the
    # estimates), where uniform multisection needed eight and bisection
    # from the Gershgorin bounds over a hundred
    fp = simple("morse", 2.5, 1.0)
    box = reference_oracle(fp, 3000)
    sweeps = [0]
    real = verify._sturm_sweep

    def counted(*args):
        sweeps[0] += 1
        return real(*args)

    monkeypatch.setattr(verify, "_sturm_sweep", counted)
    fd_spectrum(fp, box, 3)
    assert 1 <= sweeps[0] <= 4, sweeps[0]


def _sturm_counts_by_row(diag, off2, lams):
    """The per-row Sturm sweep that the blocked kernel must match bit for bit."""
    tiny = 1e-300
    lams = np.asarray(lams, dtype=float)
    d = diag[0] - lams
    d[d == 0.0] = -tiny
    counts = (d < 0).astype(int)
    quot = np.empty_like(d)
    neg = np.empty(d.shape, dtype=bool)
    with np.errstate(over="ignore", divide="ignore"):
        for a in diag[1:].tolist():
            np.divide(off2, d, out=quot)
            np.subtract(a, lams, out=d)
            d -= quot
            if not d.all():
                d[d == 0.0] = -tiny
            np.less(d, 0.0, out=neg)
            counts += neg
    return counts


BLOCK = verify._STURM_BLOCK
# the kernel sweeps pairs of rows, one from each end, BLOCK pairs to a
# block, up to the middle row N // 2: 1 row is the middle row alone, 2 rows
# pad the shorter half with one row, BLOCK - 1 .. BLOCK + 2 rows fill half a
# block, 2 BLOCK + 1 rows exactly one and 3 BLOCK - 5 rows one and a half
ROW_COUNTS = [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 3 * BLOCK - 5]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.one_of(st.sampled_from(ROW_COUNTS), st.integers(1, 4 * BLOCK)),
       scale=st.floats(1e-2, 1e4), off=st.floats(1e-3, 1e8),
       shape=st.sampled_from([(1,), (7,), (3, 5), (2, 64)]), seed=st.integers(0, 2 ** 32 - 1))
def test_sturm_counts_match_the_per_row_sweep(n, scale, off, shape, seed):
    rng = np.random.default_rng(seed)
    diag = 2.0 * off ** 0.5 + scale * rng.standard_normal(n)
    spread = 2.0 * off ** 0.5 + scale
    lams = rng.uniform(diag.min() - spread, diag.max() + spread, size=shape)
    got = verify._sturm_sweep(diag, off, lams)[0]
    want = _sturm_counts_by_row(diag, off, lams)
    assert got.shape == want.shape and np.array_equal(got, want)


# rows of exactly zero pivot at lambda = 0 by the per-row recurrence; over
# these N the twisted sweep meets them at either end (row 0, the last row),
# at the middle row N // 2 (row BLOCK of 2 BLOCK + 1 rows, BLOCK + 1 of
# 2 BLOCK + 2), opening the second forward block (rows BLOCK and BLOCK + 1
# of 3 BLOCK) and closing the first backward one (row 2 BLOCK of 3 BLOCK,
# BLOCK + 1 of 2 BLOCK + 1)
ZERO_ROWS = [0, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.sampled_from([BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 2 * BLOCK + 2, 3 * BLOCK]),
       zeros=st.sets(st.sampled_from(ZERO_ROWS + ["last"]), min_size=1),
       s=st.sampled_from([1.0, 2.0 ** 14]), two_d=st.booleans())
def test_sturm_counts_exact_zero_pivots(n, zeros, s, two_d):
    # off2 = s^2: a pivot of s stays s on rows a = 2s and a row a = s
    # makes it exactly 0; that zero is taken as -1e-300, the next pivot is
    # huge (inf for s = 2^14) and the one after that is its row's a, so a
    # row a = s brings the pivot back to s
    rows = {n - 1 if z == "last" else z for z in zeros}
    rows = sorted(z for z in rows if z < n)
    rows = [z for i, z in enumerate(rows) if i == 0 or z - rows[i - 1] >= 3]
    assume(rows)
    diag = np.full(n, 2.0 * s)
    diag[0] = s
    for z in rows:
        diag[z] = 0.0 if z == 0 else s
        if z + 2 < n:
            diag[z + 2] = s
    off2 = s * s
    pivots, d = [], 0.0
    for i, a in enumerate(diag):
        d = a if i == 0 else a - off2 / d
        pivots.append(d)
        d = d or -1e-300
    assert [i for i, p in enumerate(pivots) if p == 0.0] == rows
    lams = np.array([0.0, s, -s, 0.5 * s, 2.0 * s, 3.9 * s, 1e-300])
    if two_d:
        lams = np.stack([lams, lams[::-1] + s])
    got = verify._sturm_sweep(diag, off2, lams)[0]
    assert np.array_equal(got, _sturm_counts_by_row(diag, off2, lams))


def test_fd_count_above_the_grid_rows_raises():
    # the matrix of an N-point box has N - 2 levels; the highest one is found
    box = OracleSpec(-3.0, 3.0, 500)
    diag, off2 = _fd_matrix(lambda xs: xs ** 2, box)
    off = -math.sqrt(off2) * np.ones(diag.size - 1)
    want = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    got = fd_spectrum(lambda xs: xs ** 2, box, box.n - 2)
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)
    with pytest.raises(ValidationError, match="498 levels; 499 were asked for"):
        fd_spectrum(lambda xs: xs ** 2, box, box.n - 1)


def test_quadrature_gaussian():
    val = quadrature(lambda x: np.exp(-x * x), (-math.inf, math.inf))
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_quadrature_odd_function_vanishes():
    val = quadrature(lambda x: x * np.exp(-x * x), (-math.inf, math.inf))
    assert abs(val) < 1e-10


def test_quadrature_finite_and_validation():
    assert quadrature(lambda x: x * x, (0.0, 1.0)) == pytest.approx(1.0 / 3.0, rel=1e-12)
    with pytest.raises(ValidationError):
        quadrature(lambda x: x, (1.0, 1.0))


def test_si_residual_report():
    fp = fixture("scarf2")
    grid = default_grid(fp)
    rep = si_residual(fp, grid)
    assert isinstance(rep, GridReport)
    assert rep.max_residual < 1e-12
    assert rep.mean_residual <= rep.max_residual
    assert grid[0] <= rep.argmax_x <= grid[1]
    out = report_json(fp, rep)
    assert set(out) == {"family", "params", "residual_max", "residual_mean",
                        "argmax_x", "grid"}
    assert out["grid"]["N"] == grid[2]


def test_si_residual_all_fixture_families():
    from shapeinv.families import family_ids
    for fid in family_ids():
        rep = si_residual(fixture(fid))
        assert rep.max_residual < 1e-9, (fid, rep.max_residual)


def test_ladder_check():
    fp = fixture("morse")
    rep = ladder_check(fp, 1)
    assert isinstance(rep, LadderReport) and rep.sign in (-1.0, 1.0, -1, 1)
    assert rep.max_residual < 1e-5
    out = report_json(fp, rep)
    assert "sign" in out
    with pytest.raises(ValidationError):
        ladder_check(fp, 0)


def test_schrodinger_residual():
    fp = fixture("scarf1")
    for k in (0, 1, 2):
        rep = schrodinger_residual(fp, k)
        assert rep.max_residual < 1e-5, (k, rep.max_residual)


@pytest.mark.parametrize("fid,k", [("scarf1", 2), ("eckart", 1)])
def test_schrodinger_residual_evaluates_each_node_once(monkeypatch, fid, k):
    # the reference re-evaluates the state at the centre node for the stencil
    fp = fixture(fid)
    state = spectra.wavefunction(fp, k)
    xs, h = verify.stencil_grid(fp, verify._SCHRODINGER_POINTS)
    v, _ = families.partner_potentials(fp, xs)
    drive = (v - spectra.eigenenergy(fp, k)) * state(xs)
    second = (-state(xs - 2 * h) + 16 * state(xs - h) - 30 * state(xs)
              + 16 * state(xs + h) - state(xs + 2 * h)) / (12 * h ** 2)
    want = verify._report(xs, np.abs(-second + drive) / (1.0 + np.abs(drive)))
    calls = []
    monkeypatch.setattr(spectra, "wavefunction",
                        lambda *_: lambda x: calls.append(x) or state(x))
    assert schrodinger_residual(fp, k) == want
    assert len(calls) == 5


def test_orthonormality_report():
    fp = fixture("poschl-teller")
    rep = orthonormality(fp, 2)
    assert isinstance(rep, GramReport)
    assert rep.levels == (0, 1, 2)
    assert rep.max_deviation < 1e-8
    # one entry per unordered pair, diagonal included
    assert len(rep.entries) == 6
    diag = {(i, j): v for i, j, v in rep.entries}
    assert diag[(0, 0)] == pytest.approx(1.0, abs=1e-8)
    assert diag[(0, 1)] == pytest.approx(0.0, abs=1e-8)


def test_reference_oracle_interior_stays_inside_domain():
    # walls may sit on/past a singular endpoint; interior points must not
    for fid in ("radial-osc", "poschl-teller", "scarf1"):
        fp = fixture(fid)
        box = reference_oracle(fp)
        assert box.a < box.b
        h = (box.b - box.a) / (box.n - 1)
        lo, hi = fp.domain.lo, fp.domain.hi
        assert box.a + h > lo or not math.isfinite(lo)
        assert box.b - h < hi or not math.isfinite(hi)


@pytest.mark.parametrize("n", [1000, 3000])
@pytest.mark.parametrize("fid", ["morse", "morse-mirror", "coulomb"])
def test_fd_gaps_of_the_exponential_and_coulomb_fixtures(fid, n):
    # the infinite-end cut starts at |x| = 8 on these families too: a box
    # cut from 25 coarsens h, and the Morse fixtures then read 4.6e-3 at n = 1000
    fp = fixture(fid)
    lam = fd_spectrum(fp, reference_oracle(fp, n), 3)
    for k in (1, 2):
        assert abs((lam[k] - lam[0]) - spectra.eigenenergy(fp, k)) <= 1e-3, (k, lam)


def test_fd_names_the_node_where_the_potential_is_not_finite():
    def pot(x):
        with np.errstate(divide="ignore"):
            return 1 / x
    with pytest.raises(NumericalError, match=r"^potential is not finite on the oracle grid \(x=0\)$"):
        fd_spectrum(pot, OracleSpec(-1.0, 1.0, 501), 1)
    with pytest.raises(ValidationError, match="^eigenvalue count must be >= 1$"):
        fd_spectrum(lambda x: x * x, OracleSpec(-1.0, 1.0, 501), 0)


def test_fd_reads_an_extension_through_its_potential():
    w = extended_superpotential(build(1, 2.5))
    box = OracleSpec(0.05, 12.0, 501)
    assert fd_spectrum(w, box, 3) == fd_spectrum(w.potential, box, 3)
    with pytest.raises(ValidationError, match="^fd_spectrum target must be"):
        fd_spectrum("morse", box, 1)
