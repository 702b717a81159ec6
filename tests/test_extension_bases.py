"""Extension bases W0 and remainders R against the printed displays.

The library takes each case's W0 from its base family, W0(x) = s k(s x),
and R as s^2 times the family's remainder.  The displays below are the
paper's W0 for the eleven cases and the remainders worked out from them;
they serve as the reference oracle.
"""

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from shapeinv import dual
from shapeinv import extensions as ext
from shapeinv.dual import seed
from shapeinv.extensions import CASE_SPECS, ExtensionSpec, base_remainder


def _coth(xd):
    return dual.cosh(xd) / dual.sinh(xd)


def _csch(xd):
    return 1.0 / dual.sinh(xd)


def _cot(xd):
    return dual.cos(xd) / dual.sin(xd)


def _csc(xd):
    return 1.0 / dual.sin(xd)


# W0(x; e, r, l) as printed for each case; xd is a Jet seed
PRINTED_W0 = {
    1: lambda xd, e, r, l: e * _coth(xd) - r * _csch(xd),
    2: lambda xd, e, r, l: e * _coth(xd) - r * _csch(xd),
    3: lambda xd, e, r, l: 2 * (l + e) * _coth(xd * 2) + 2 * r * _csch(xd * 2),
    4: lambda xd, e, r, l: e / xd + r * xd,
    5: lambda xd, e, r, l: e / xd + r * xd,
    6: lambda xd, e, r, l: (e + l) / xd - xd,
    7: lambda xd, e, r, l: (e + l) / xd - xd,
    8: lambda xd, e, r, l: -e * (dual.sin(xd) / dual.cos(xd)) - r / dual.cos(xd),
    9: lambda xd, e, r, l: 2 * (e + l) * _cot(xd * 2) - 2 * r * _csc(xd * 2),
    10: lambda xd, e, r, l: 2 * e * _cot(xd * 2) + 2 * r * _csc(xd * 2),
    11: lambda xd, e, r, l: e * (dual.sinh(xd) / dual.cosh(xd)) + (1j * r) / dual.cosh(xd),
}

# R(e, r, l) of each case's base
PRINTED_R = {
    1: lambda e, r, l: 2 * e + 1,
    2: lambda e, r, l: 2 * e + 1,
    3: lambda e, r, l: 4 * (2 * (l + e) + 1),
    4: lambda e, r, l: 4 * r,
    5: lambda e, r, l: 4 * r,
    6: lambda e, r, l: -4.0,
    7: lambda e, r, l: -4.0,
    8: lambda e, r, l: -(2 * e + 1),
    9: lambda e, r, l: -4 * (2 * (l + e) + 1),
    10: lambda e, r, l: -4 * (2 * e + 1),
    11: lambda e, r, l: 2 * e + 1,
}


def test_displays_cover_every_case():
    assert set(PRINTED_W0) == set(PRINTED_R) == set(CASE_SPECS)


def _printed(case, x, e, r, l):
    d = PRINTED_W0[case](seed(x), e, r, l)
    return d.val, d.d1


def _draw(case, u, w, t, l):
    """(x, eps, rho, ell): x inside the case window, away from its ends."""
    cs = CASE_SPECS[case]
    a, b = cs.window
    return (a + (b - a) * t, -3.0 + 6.0 * u, -3.0 + 6.0 * w,
            l if cs.uses_ell else 0)


_DRAW = dict(u=st.floats(0.0, 1.0), w=st.floats(0.0, 1.0),
             t=st.floats(0.02, 0.98), l=st.integers(1, 4))


@pytest.mark.parametrize("case", sorted(CASE_SPECS))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(**_DRAW)
def test_derived_w0_matches_printed_display(case, u, w, t, l):
    x, e, r, l = _draw(case, u, w, t, l)
    want, want_d = _printed(case, x, e, r, l)
    (got,), (got_d,) = ext._base_w0(CASE_SPECS[case], np.array([x]), e, r, l)
    assert abs(got - want) <= 1e-13 * (1.0 + abs(want)), (case, x, e, r, l, got, want)
    assert abs(got_d - want_d) <= 1e-13 * (1.0 + abs(want_d)), (case, x, e, r, l, got_d, want_d)


@pytest.mark.parametrize("case", sorted(CASE_SPECS))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(**_DRAW)
def test_base_remainder_is_the_translation_gap(case, u, w, t, l):
    x, e, r, l = _draw(case, u, w, t, l)
    spec = ExtensionSpec(case, e, r, l, CASE_SPECS[case].window, provenance=None)
    for shift in (0, 1):
        want = PRINTED_R[case](e - shift, r, l)
        assert abs(base_remainder(spec, shift) - want) <= 1e-15 * (1.0 + abs(want))
    up, up_d = _printed(case, x, e, r, l)
    dn, dn_d = _printed(case, x, e - 1, r, l)
    gap = (up * up + up_d) - (dn * dn - dn_d)
    scale = 1.0 + abs(up) ** 2 + abs(up_d) + abs(dn) ** 2 + abs(dn_d)
    assert abs(gap - base_remainder(spec, shift=1)) <= 1e-13 * scale, (case, x, e, r, l, gap)
