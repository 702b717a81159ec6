"""The ladder normalization derived from R against the printed recursions.

The library derives each state's normalization from shape invariance,
prod_{j=1..k} c_j / sqrt(E_j) with E_j summed from the remainder; the seven
recursions below are the paper's printed ones and serve as the reference
oracle.
"""

import math

from hypothesis import assume, given, settings, strategies as st
import pytest

from shapeinv.errors import InadmissibleState, RangeViolation
from shapeinv.families import FAMILY_IDS
from shapeinv.spectra import admissible_range, norm_coefficient

from test_energy_sum import DRAWS
from test_families import simple


def printed_norm(kind: str, k: int, eps: float, rho: float) -> float:
    """One of the printed normalization recursions at level k."""
    value = 1.0
    e = eps

    def radical(rad: float, j: int) -> float:
        if not rad > 0:
            raise InadmissibleState(f"recursion {kind!r}: radicand {rad:.6g} at step {j}")
        return math.sqrt(rad)

    for j in range(k, 0, -1):
        if kind in ("e", "p", "u"):
            if e == 0 or j == e:
                raise InadmissibleState(f"recursion {kind!r}: zero denominator at step {j}")
        if kind == "a":
            value /= radical((2 * e - j) * j, j)
        elif kind == "b":
            value /= radical(j * (2 * e - j), j)
        elif kind == "c":
            value /= radical(4 * rho * j, j)
        elif kind == "d":
            value /= radical(j * (j - 2 * e), j)
        elif kind == "e":
            rad = j * (2 * e - j) - rho ** 2 / (j - e) ** 2 + rho ** 2 / e ** 2
            value *= (2 * e - j) / (e * radical(rad, j))
        elif kind == "p":
            rad = (j - e) ** 2 * e ** 2 / (j * (j - 2 * e) * rho ** 2)
            value *= (2 * e - j) / e * radical(rad, j)
        else:  # u
            rad = j * (j - 2 * e) - rho ** 2 / (j - e) ** 2 + rho ** 2 / e ** 2
            value *= (2 * e - j) / (e * radical(rad, j))
        e -= 1
    return value


# the printed recursion of each family's state; harm-osc has none
KINDS = {
    "scarf2": "a", "poschl-teller": "b", "morse": "a", "morse-mirror": "a",
    "radial-osc": "c", "scarf1": "d", "scarf1-cot": "d",
    "rosen-morse2": "e", "eckart": "e", "coulomb": "p",
    "rosen-morse1": "u", "rosen-morse1-cot": "u",
}


def test_every_family_but_harm_osc_has_a_printed_recursion():
    assert set(KINDS) == set(FAMILY_IDS) - {"harm-osc"}


@pytest.mark.parametrize("fid", sorted(KINDS))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(u=st.floats(0.0, 1.0), w=st.floats(0.0, 1.0))
def test_derived_norm_matches_printed_recursion(fid, u, w):
    e, r = DRAWS[fid](u, w)
    try:
        fp = simple(fid, e, r)
    except RangeViolation:
        assume(False)
    for k in admissible_range(fp).levels(8):
        want = printed_norm(KINDS[fid], k, fp.eps, fp.rho)
        got = norm_coefficient(fp, k)
        assert abs(got - want) <= 1e-13 * abs(want), (fid, fp.eps, fp.rho, k, got, want)


# integer eps in 0..k puts a pole of R on the running sum's path
@pytest.mark.parametrize("eps,k", [(2.0, 2), (2.0, 3), (4.0, 4)])
def test_integer_eps_on_the_ladder_is_inadmissible(eps, k):
    fp = simple("rosen-morse2", eps, 1.0)
    with pytest.raises(InadmissibleState):
        printed_norm("e", k, fp.eps, fp.rho)
    with pytest.raises(InadmissibleState, match=f"^level k={k} is not admissible"):
        norm_coefficient(fp, k)
