"""Rational extensions: transcriptions, scans, compatibility checks."""

import dataclasses
import math
import random

import numpy as np
import pytest

from shapeinv import extensions as ext
from shapeinv.errors import DenominatorZero, ValidationError
from shapeinv.extensions import (
    build_extension,
    base_remainder,
    case_number,
    check_cond1,
    check_cond2,
    extended_si_check,
    extended_superpotential,
    extension_ids,
    w1_branch,
    w1_difference,
)
from shapeinv.families import ConstructionData, Coupling
from shapeinv.invariants import ParamVector, parse_invariant, verify_invariant

from test_acceptance import extension_box

TRIV = verify_invariant(parse_invariant("1"), 1)


def build(case: int, eps: float, rho: float = 0.0, ell=None, window=None):
    """Single trivial coupling inverted for the case's fold."""
    fold = ext.CASE_SPECS[case].fold
    if fold in (ext._FOLD_PLUS_BETA, ext._FOLD_MINUS_BETA):
        c = Coupling(TRIV, beta=0.0, d=rho)
    elif fold == ext._FOLD_D:
        c = Coupling(TRIV, beta=2.0 * rho, d=0.0)
    else:
        c = Coupling(TRIV, beta=0.0, d=0.0)
    data = ConstructionData(p=ParamVector((eps,)), couplings=(c,))
    return build_extension(case, data, ell=ell, window=window)


# One spec per case; constants sit inside each case's validated draw box.
SPECS = {
    1: dict(eps=2.0, rho=-1.0),
    2: dict(eps=1.0, rho=-3.0, ell=2),
    3: dict(eps=0.5, rho=-3.1, ell=1),
    4: dict(eps=2.0, rho=-1.0),
    5: dict(eps=-1.5, rho=1.0, ell=2),
    6: dict(eps=1.5, ell=2),
    7: dict(eps=1.5, ell=1),
    8: dict(eps=3.0, rho=0.3),
    9: dict(eps=0.4, rho=-0.609, ell=2),
    10: dict(eps=2.8, rho=0.2, ell=1),
    11: dict(eps=1.0, rho=1.0, ell=1),
}


def spec_for(case: int):
    kw = SPECS[case]
    return build(case, kw["eps"], kw.get("rho", 0.0), kw.get("ell"))


def test_registry_and_case_number():
    ids = extension_ids()
    assert len(ids) == 11 and ids[0] == "ext-1" and ids[-1] == "ext-11"
    assert case_number("ext-7") == 7
    assert case_number("7") == 7
    assert case_number(7) == 7
    with pytest.raises(ValidationError):
        case_number("ext-12")
    with pytest.raises(ValidationError):
        case_number("seven")
    # a bool is an int to Python, but not a case id (it built ext-True as case 1)
    for flag in (True, False):
        with pytest.raises(ValidationError):
            case_number(flag)
    with pytest.raises(ValidationError):
        build_extension(True, ConstructionData(p=ParamVector((2.0,)),
                                               couplings=(Coupling(TRIV, beta=0.0, d=-1.0),)))


def test_ell_validation():
    with pytest.raises(ValidationError):
        build(2, 1.0, -3.0)            # ell required
    with pytest.raises(ValidationError):
        build(2, 1.0, -3.0, ell=9)     # above cap
    with pytest.raises(ValidationError):
        build(1, 2.0, -1.0, ell=1)     # case has no ell
    with pytest.raises(ValidationError):
        build(2, 1.0, -3.0, ell=1.5)


def test_fold_conventions():
    s = build(1, 2.0, -1.0)
    assert (s.eps, s.rho) == (2.0, -1.0)
    s = build(4, 2.0, -1.0)
    assert (s.eps, s.rho) == (2.0, -1.0)
    s = build(8, 3.0, 0.3)
    assert (s.eps, s.rho) == (3.0, 0.3)
    s = build(6, 1.5, ell=2)
    assert (s.eps, s.rho, s.ell) == (1.5, 0.0, 2)
    # the no-rho fold rejects beta-carrying couplings
    data = ConstructionData(p=ParamVector((1.5,)),
                            couplings=(Coupling(TRIV, beta=0.2, d=0.0),))
    with pytest.raises(ValidationError):
        build_extension(6, data, ell=2)


def test_printed_value_case1():
    # W1+ at x = 1/2 for eps = 3, rho = 1/2
    s = build(1, 3.0, 0.5, window=(0.05, 1.5))
    want = -2 * 0.5 * math.sinh(0.5) / (2 * 3 + 1 - 2 * 0.5 * math.cosh(0.5))
    assert w1_branch(s, 0.5, +1) == pytest.approx(want, rel=1e-15)


def test_printed_value_case4():
    s = build(4, 2.0, 1.0, window=(0.75, 1.1))
    # -4 rho x / (2 eps + 1 - 2 rho x^2) at x = 1: -4/3
    assert w1_branch(s, 1.0, +1) == pytest.approx(-4.0 / 3.0, rel=1e-15)


def test_case4_default_window_scan_locates_root():
    # branch (+, shift 0) denominator 5 - 2x^2 vanishes at sqrt(2.5)
    with pytest.raises(DenominatorZero) as exc:
        build(4, 2.0, 1.0)
    assert exc.value.location == pytest.approx(math.sqrt(2.5), abs=1e-6)


@pytest.mark.parametrize("eps", [4.0, 5.0])
def test_an_exact_pole_reads_as_nan(eps):
    # 2 eps +- 1 - x^2 (rho = 1/2) is exactly 0 at x = 3 on one branch
    s = build(4, eps, 0.5, window=(0.5, 1.0))
    with pytest.raises(DenominatorZero, match="not finite near x = 3$") as exc:
        check_cond1(s, grid=(2.0, 4.0, 3))
    assert exc.value.location == 3.0
    with pytest.raises(DenominatorZero, match="not finite near x = 3$"):
        extended_si_check(s, grid=(2.0, 4.0, 3))
    w = extended_superpotential(s)
    for read in (w.w, w.w_prime, w.potential, w.partner):
        vals = read(np.array([2.0, 3.0, 4.0]))
        assert math.isnan(read(3.0)) and np.isnan(vals[1]), read
        assert np.all(np.isfinite(vals[[0, 2]])), read


@pytest.mark.parametrize("eps", [4.0, 5.0])
def test_the_w1_readers_read_an_exact_pole_as_nan(eps):
    # the same bottoms, where a bare ZeroDivisionError escaped both readers;
    # one pass evaluates both branches, so both read nan at the pole
    s = build(4, eps, 0.5, window=(0.5, 1.0))
    for branch in (1, -1):
        assert math.isnan(w1_branch(s, 3.0, branch))
        assert math.isfinite(w1_branch(s, 2.0, branch))
    assert math.isnan(w1_difference(s, 3.0)) and math.isfinite(w1_difference(s, 2.0))


@pytest.mark.parametrize("case", sorted(SPECS))
def test_the_pass_calls_each_w1_function_once_per_point_and_shift(case, monkeypatch):
    # one call of a case's W1 function returns both bottoms, so the jet
    # loop evaluates the shared lifts once per point
    s = spec_for(case)
    a, b = s.window
    xs = np.linspace(a, b, 7)
    want = [ext._pointwise(s, xs, shift) for shift in (0, 1)]
    cs, calls = ext.CASE_SPECS[case], []

    def counted(*args):
        calls.append(args[0])
        return cs.w1(*args)

    monkeypatch.setitem(ext.CASE_SPECS, case, dataclasses.replace(cs, w1=counted))
    for shift, parts in zip((0, 1), want):
        calls.clear()
        got = ext._pointwise(s, xs, shift)
        assert len(calls) == xs.size, (shift, len(calls))
        assert [d.val for d in calls] == xs.tolist()
        for g, w in zip(got, parts):
            assert np.array_equal(g, w, equal_nan=True)


def test_w1_difference_makes_one_pass(monkeypatch):
    s = spec_for(2)
    want = w1_branch(s, 1.0, 1, 1) - w1_branch(s, 1.0, -1, 1)
    real, passes = ext._pointwise, []

    def counted(*args):
        passes.append(args[1].tolist())
        return real(*args)

    monkeypatch.setattr(ext, "_pointwise", counted)
    assert w1_difference(s, 1.0, 1) == want
    assert passes == [[1.0]]


def test_rho_zero_collapse():
    s = build(4, 2.0, 0.0, window=(0.75, 1.3))
    w = extended_superpotential(s)
    assert w.w(1.3) == pytest.approx(2.0 / 1.3, rel=1e-14)
    assert w1_difference(s, 1.3) == pytest.approx(0.0, abs=1e-15)


def test_w_prime_matches_fd():
    s = spec_for(1)
    w = extended_superpotential(s)
    h = 1e-6
    for x in (0.4, 0.9, 2.0):
        fd = (w.w(x + h) - w.w(x - h)) / (2 * h)
        assert w.w_prime(x) == pytest.approx(fd, rel=1e-6)


def test_potential_partner_consistency():
    s = spec_for(8)
    w = extended_superpotential(s)
    xs = np.linspace(-0.8, 0.8, 11)
    v = w.potential(xs)
    vt = w.partner(xs)
    for x, a, b in zip(xs, v, vt):
        k, kp = w.w(x), w.w_prime(x)
        assert a == pytest.approx(k * k - kp, rel=1e-12)
        assert b == pytest.approx(k * k + kp, rel=1e-12)


@pytest.mark.parametrize("case", sorted(SPECS))
def test_cond2_fixed_specs(case):
    rep = check_cond2(spec_for(case))
    assert rep.max_residual <= 1e-10, (case, rep.max_residual)


@pytest.mark.parametrize("case", sorted(SPECS))
def test_cond1_fixed_specs(case):
    rep = check_cond1(spec_for(case))
    assert rep.max_residual <= 1e-8, (case, rep.max_residual)


@pytest.mark.parametrize("case", sorted(SPECS))
def test_extended_si_fixed_specs(case):
    rep = extended_si_check(spec_for(case))
    assert rep.max_residual <= 1e-7, (case, rep.max_residual)


def test_cond1_keeps_its_digits_next_to_a_small_bottom():
    # built as the benchmark builds it; at x = 0 the plus bottom at eps is
    # 7.5e-5, so W1p^2 and W1p' are each about 2.3e9, and cond1 read 5.0e-7
    # when it added them; read as bp''/bp it stays at rounding
    s = build(11, 1.6546508887848548, -1.4282080995909263, ell=3)
    assert check_cond1(s).max_residual <= 1e-8


def test_base_remainder_values():
    assert base_remainder(build(1, 2.0, -1.0)) == pytest.approx(5.0)
    assert base_remainder(build(1, 2.0, -1.0), shift=1) == pytest.approx(3.0)
    s3 = spec_for(3)
    assert base_remainder(s3) == pytest.approx(4 * (2 * (s3.ell + s3.eps) + 1))
    assert base_remainder(spec_for(4)) == pytest.approx(4 * SPECS[4]["rho"])
    assert base_remainder(spec_for(6)) == pytest.approx(-4.0)
    assert base_remainder(build(8, 3.0, 0.3)) == pytest.approx(-7.0)
    s10 = spec_for(10)
    assert base_remainder(s10) == pytest.approx(-4 * (2 * s10.eps + 1))


def test_case11_complex_values():
    s = spec_for(11)
    val = w1_difference(s, 0.7)
    assert isinstance(val, complex)
    assert abs(val.imag) > 1e-6  # genuinely complex, not a rounding artifact
    # while the real cases stay float
    assert isinstance(w1_difference(spec_for(1), 0.7), float)


def test_structural_constant_detection():
    # the lower parameter -1/2 + ell + eps of case 7's minus bottom is 0, a
    # pole of the series' first term
    with pytest.raises(DenominatorZero):
        build(7, -0.5, ell=1)


@pytest.mark.parametrize("case,eps,rho,ell,where", [
    (7, -3.5, 0.0, 4, "1F1 lower parameter 0.0 hits a pole at term 1"),
    (7, -9.5, 0.0, 6, "1F1 lower parameter -3.0 hits a pole at term 4"),
    (10, -1.8, 0.3, 3, "2F1 lower parameter -1.0 hits a pole at term 2"),
])
def test_every_lower_parameter_pole_is_a_denominator_zero(case, eps, rho, ell, where):
    # the last two left build_extension as GammaPole while a constant factor
    # of the bottom stood for the lower parameter
    with pytest.raises(DenominatorZero, match=f"^case {case}: {where} .* at eps - 0$"):
        build(case, eps, rho, ell=ell)


def test_a_gauss_bottom_that_stops_before_its_first_term_builds_as_its_base():
    # -1 + ell + 2 rho = 0 stops both 2F1 sums before their first term, so
    # each bottom is 1 and W1 = 0, although the plus bottom's lower parameter
    # 1/2 + eps + rho is 0
    s = build(10, 0.0, -0.5, ell=2)
    xs = np.linspace(*s.window, 7)
    assert all(w1_branch(s, x, b) == 0.0 for x in xs for b in (1, -1))
    assert check_cond2(s).max_residual == 0.0


def test_the_kummer_case_is_the_laguerre_case():
    # 1F1(-ell; c; z) is ell!/(c)_ell times L_ell^(c - 1)(z), and cases 6 and
    # 7 share their base, so W and W' agree on criterion 06's shared box,
    # where both build
    rng = random.Random("ext-7 is ext-6")
    for _ in range(16):
        e, _, l = extension_box(6, rng)
        w6, w7 = (extended_superpotential(build(case, e, ell=l)) for case in (6, 7))
        xs = np.linspace(*ext.extension_grid(w6.spec))
        for read in ("w", "w_prime"):
            got, want = getattr(w7, read)(xs), getattr(w6, read)(xs)
            assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want))), (e, l, read)


def test_a_scan_end_point_has_one_neighbour():
    # the bottom 7 + 2 cosh x never falls below 9.26 on the window; its first
    # point read the last one, over 1e12 times larger, as a neighbour
    assert build(1, 3.0, -1.0, window=(0.5, 30.0)).window == (0.5, 30.0)
    # a case-2 ell = 3 draw of criterion 06's box, rejected the same way
    s = build(2, 0.796171611810984, -2.3302805134222453, ell=3)
    assert check_cond1(s).max_residual <= 1e-8
    assert check_cond2(s).max_residual <= 1e-10
    assert extended_si_check(s).max_residual <= 1e-7


def test_window_must_intersect_domain():
    with pytest.raises(ValidationError):
        build(1, 2.0, -1.0, window=(-3.0, -1.0))
