"""Admissibility read from k, held to the frozen hand-written rules.

build_family accepts (eps, rho, beta) where zeta_0 = exp(-int k) is
square-integrable, and families.top_level finds the levels.  On every
draw farther than 1e-9 from an edge, both must give the verdict of
tests/frozen_ranges.py, with three differences:

(a) coulomb on 0 < eps < 1/2, rho > 0 has level 0.  zeta_0 = C x^-eps
    exp(-rho x/eps) is normalizable there; the frozen max_level said -1,
    although radial-osc and eckart admit the same wall class.
(b) eckart at eps = -1 keeps its levels.  The frozen scan's s = -1 stop
    guarded R's 1/(s + 1), which level 0 never evaluates.
(c) the frozen scan stopped at 65535 levels; top_level has no cap.  No
    draw in the box comes near it (tests/test_ladder_walk.py has one).
"""

import itertools
import math

from hypothesis import assume, given, settings, strategies as st
import pytest

from shapeinv.errors import RangeViolation
from shapeinv.families import FAMILY_IDS
from shapeinv.spectra import admissible_range, eigenenergy, wavefunction
from shapeinv.verify import quadrature

from frozen_ranges import frozen_builds, frozen_max_k
from test_families import simple

REJECTED = "RangeViolation"


def point(fid, e, r, b):
    """The (eps, rho, beta) a build lands on: harm-osc has eps = 0, the rest beta = 0."""
    return (0.0, r, b) if fid == "harm-osc" else (e, r, 0.0)


def expected(fid, e, r, b):
    """The frozen verdict, with differences (a) and (b): REJECTED or max_k."""
    if not frozen_builds(fid, e, r, b):
        return REJECTED
    if fid == "coulomb" and 0 < e < 0.5:
        return 0
    return frozen_max_k(fid, e, r, b, poles=(0,) if fid == "eckart" and e == -1 else (0, -1))


def derived(fid, e, r, b):
    try:
        fp = simple(fid, b, r) if fid == "harm-osc" else simple(fid, e, r)
    except RangeViolation:
        return REJECTED
    assert (fp.eps, fp.rho, fp.beta) == (e, r, b)
    return admissible_range(fp).max_k


def near_edge(fid, e, r, b, h=1e-9):
    want = expected(fid, e, r, b)
    return any(expected(fid, *point(fid, e + de, r + dr, b + db)) != want
               for de, dr, db in itertools.product((-h, 0.0, h), repeat=3))


# a box wider than every criterion box
@settings(derandomize=True, deadline=None, max_examples=1500)
@given(fid=st.sampled_from(FAMILY_IDS), e=st.floats(-6.0, 6.0), r=st.floats(-6.0, 6.0),
       b=st.floats(-2.0, 2.0))
def test_derived_verdict_matches_the_frozen_rules(fid, e, r, b):
    e, r, b = point(fid, e, r, b)
    assume(not near_edge(fid, e, r, b))
    assert derived(fid, e, r, b) == expected(fid, e, r, b)


# (family, a point on an edge, the direction into the side with more levels);
# each point is exact in binary, so that the edge itself has one verdict
EDGES = [
    ("scarf2", (0.0, 0.7, 0.0), (1, 0, 0)), ("scarf2", (3.0, 0.7, 0.0), (1, 0, 0)),
    ("poschl-teller", (0.0, 0.2, 0.0), (1, 0, 0)),
    ("poschl-teller", (2.0, 1.5, 0.0), (0, 1, 0)),      # wall: eps - rho = 1/2
    ("poschl-teller", (2.0, 1.6, 0.0), (1, 0, 0)),
    ("morse", (0.0, 1.0, 0.0), (1, 0, 0)), ("morse", (2.5, 0.0, 0.0), (0, 1, 0)),
    ("morse", (2.0, 1.0, 0.0), (1, 0, 0)),
    ("morse-mirror", (0.0, -1.0, 0.0), (1, 0, 0)), ("morse-mirror", (2.5, 0.0, 0.0), (0, -1, 0)),
    ("morse-mirror", (2.0, -1.0, 0.0), (1, 0, 0)),
    ("radial-osc", (0.5, 1.0, 0.0), (-1, 0, 0)), ("radial-osc", (-0.5, 0.0, 0.0), (0, 1, 0)),
    ("harm-osc", (0.0, 0.3, 0.0), (0, 0, 1)),
    ("scarf1", (-0.25, -0.75, 0.0), (0, 1, 0)), ("scarf1", (-0.25, 0.75, 0.0), (0, -1, 0)),
    ("scarf1-cot", (-0.25, -0.75, 0.0), (0, 1, 0)),
    ("scarf1-cot", (-0.25, 0.75, 0.0), (0, -1, 0)),
    ("rosen-morse2", (2.0, 4.0, 0.0), (0, -1, 0)),      # k(-inf) = rho/eps - eps
    ("rosen-morse2", (2.0, -4.0, 0.0), (0, 1, 0)),      # k(+inf) = eps + rho/eps
    ("rosen-morse2", (3.5, 6.25, 0.0), (0, -1, 0)),     # level 1: s^2 = rho
    ("rosen-morse2", (3.0, 0.0, 0.0), (1, 0, 0)),       # level 3: s = 0
    ("eckart", (0.5, 0.1, 0.0), (-1, 0, 0)), ("eckart", (0.0, -1.0, 0.0), (-1, 0, 0)),
    ("eckart", (-1.5, -2.25, 0.0), (0, -1, 0)),
    ("eckart", (-1.5, -6.25, 0.0), (0, -1, 0)),         # level 1: s^2 = -rho
    ("coulomb", (0.5, 1.0, 0.0), (-1, 0, 0)), ("coulomb", (0.0, -1.0, 0.0), (-1, 0, 0)),
    ("coulomb", (0.0, 1.0, 0.0), (1, 0, 0)), ("coulomb", (-1.5, 0.0, 0.0), (0, -1, 0)),
    ("rosen-morse1", (0.5, 0.5, 0.0), (-1, 0, 0)),
    ("rosen-morse1-cot", (0.5, 0.5, 0.0), (-1, 0, 0)),
]


def test_every_family_has_an_edge():
    assert {fid for fid, _, _ in EDGES} == set(FAMILY_IDS)


@pytest.mark.parametrize("fid,at,into", EDGES)
def test_each_side_of_each_edge(fid, at, into):
    assert derived(fid, *at) == expected(fid, *at)
    sides = []
    for sign in (1, -1):
        e, r, b = (x + sign * 1e-9 * d for x, d in zip(at, into))
        got = derived(fid, e, r, b)
        assert got == expected(fid, e, r, b), (sign, e, r, b)
        sides.append(got)
    inside, outside = sides
    assert inside != outside
    assert outside == REJECTED or inside is None or outside < inside


# exact-integer eps on the ratio families: k = rho/eps + eps G needs eps != 0,
# and a level with s = 0 does not exist
@pytest.mark.parametrize("fid,e,r,want", [
    ("rosen-morse2", 0.0, 1.0, REJECTED), ("rosen-morse2", 3.0, 0.0, 2),
    ("rosen-morse2", 3.0, 0.5, 2), ("rosen-morse2", 4.0, 1.0, 2),
    ("eckart", 0.0, -1.0, REJECTED), ("eckart", -2.0, -20.0, 2),
    ("eckart", -1.0, -5.0, 1),     # (b): the frozen scan stopped at once, at s = -1
    ("coulomb", 0.0, -1.0, REJECTED), ("coulomb", -2.0, -1.0, None),
    ("rosen-morse1", 0.0, 0.5, REJECTED), ("rosen-morse1", -2.0, 0.5, None),
    ("rosen-morse1-cot", 0.0, 0.5, REJECTED), ("rosen-morse1-cot", -1.0, 0.5, None),
])
def test_exact_integer_eps_on_the_ratio_families(fid, e, r, want):
    assert derived(fid, e, r, 0.0) == want == expected(fid, e, r, 0.0)


@pytest.mark.parametrize("fid,e,r,text", [
    ("scarf2", -0.6, 0.0, "k -> 0.6 as x -> -inf, where the limit must be < 0"),
    ("morse", 2.0, 0.0, "k -> nan as x -> -inf, where the limit must be < 0"),
    ("coulomb", -1.5, 0.75, "k -> -0.5 as x -> +inf, where the limit must be > 0"),
    ("poschl-teller", 2.0, 1.0,
     "zeta_0 ~ |x - w|^-1 at the wall w = 0, where the exponent must be > -1/2"),
    ("scarf1", 0.3, 0.9,
     "zeta_0 ~ |x - w|^-1.2 at the wall w = 1.5708, where the exponent must be > -1/2"),
    ("rosen-morse1", 0.0, 1.0, "requires eps != 0"),
])
def test_the_violation_names_the_end_and_its_exponent_or_limit(fid, e, r, text):
    with pytest.raises(RangeViolation) as info:
        simple(fid, e, r)
    assert text in str(info.value)


def norm(fp, k):
    wf = wavefunction(fp, k)
    return quadrature(lambda t: wf(t) * wf(t), fp.domain, 1e-12)


@pytest.mark.parametrize("e", [0.02, 0.1])
def test_coulomb_ground_state_on_the_gained_range_is_normalized(e):
    # (a); near eps = 1/2 the singular wall x^(-2 eps) costs the quadrature digits
    fp = simple("coulomb", e, 1.3)
    assert admissible_range(fp).max_k == 0
    assert abs(norm(fp, 0) - 1.0) < 1e-9


def test_eckart_at_eps_minus_one_has_normalized_levels():
    # (b)
    fp = simple("eckart", -1.0, -5.0)
    assert admissible_range(fp).max_k == 1
    assert math.isfinite(eigenenergy(fp, 1))
    for k in (0, 1):
        assert abs(norm(fp, k) - 1.0) < 1e-12
