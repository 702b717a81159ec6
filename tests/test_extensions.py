"""Rational extensions: transcriptions, scans, compatibility checks."""

import math

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
    # case 7 bottom factor -1/2 + ell + eps crosses zero
    with pytest.raises(DenominatorZero):
        build(7, -0.5, ell=1)


def test_window_must_intersect_domain():
    with pytest.raises(ValidationError):
        build(1, 2.0, -1.0, window=(-3.0, -1.0))
