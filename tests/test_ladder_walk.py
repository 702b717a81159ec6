"""The ladder walk against the frozen level rules and a separate running sum.

spectra decides the admissible levels and sums E_k in one walk, and the
top level comes from families.top_level's doubling and bisection.  The
reference below keeps these apart: the top level by the hand-written rules
frozen in tests/frozen_ranges.py, with the differences that
tests/test_admissibility.py lists, then one running sum E_k = E_{k-1} +
R(eps - k) to the level asked for.  Both must give the same levels and the
same bits.
"""

import dataclasses
import math

from hypothesis import assume, given, settings, strategies as st
import pytest

from shapeinv.cli import main
from shapeinv.errors import InadmissibleState, RangeViolation, ShapeInvError
from shapeinv.families import FAMILY_IDS, FamilyParams, FamilySpec
from shapeinv.spectra import (
    admissible_range,
    eigenenergy,
    energy_table,
    wavefunction,
)

from frozen_ranges import frozen_max_k
from test_admissibility import expected
from test_families import FIX, simple


def reference_max_k(fp):
    """The top level by the frozen rules, with differences (a) and (b)."""
    return expected(fp.id, fp.eps, fp.rho, fp.beta)


def reference_energies(fp, kmax):
    energies = [0.0]
    for k in range(1, kmax + 1):
        energies.append(energies[-1] + fp.spec.remainder(fp.eps - k, fp.rho, fp.beta))
    return energies


def reference_eigenenergy(fp, k, top):
    if top is not None and k > top:
        raise InadmissibleState(
            f"level k={k} is not admissible for family {fp.id!r} "
            f"(eps={fp.eps:.6g}, rho={fp.rho:.6g})")
    return reference_energies(fp, k)[-1]


def reference_table(fp, kmax, top):
    hi = kmax if top is None else min(kmax, top)
    return list(zip(range(hi + 1), reference_energies(fp, hi)))


def outcome(fn, *args):
    """The bits of a float result, or the type and text of the error raised."""
    try:
        got = fn(*args)
    except (ShapeInvError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return got.hex() if isinstance(got, float) else got


def params(fid, e, r, b=1.0):
    """The family at (eps, rho, beta) as given, with no range conditions applied."""
    return FamilyParams(id=fid, eps=e, rho=r, beta=b, provenance=None)


def check_walk(fp, kmax, top):
    assert admissible_range(fp).max_k == top, (fp.id, fp.eps, fp.rho)
    assert (outcome(lambda: [(k, x.hex()) for k, x in energy_table(fp, kmax)])
            == outcome(lambda: [(k, x.hex()) for k, x in reference_table(fp, kmax, top)]))
    for k in range(kmax + 1):
        assert (outcome(eigenenergy, fp, k)
                == outcome(reference_eigenenergy, fp, k, top)), (fp.id, fp.eps, fp.rho, k)


EPS = st.one_of(st.integers(-300, 300).map(float), st.floats(-300.0, 300.0))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(fid=st.sampled_from(FAMILY_IDS), e=EPS, w=st.floats(-4.0, 4.0),
       j=st.one_of(st.none(), st.integers(-300, 300)), b=st.floats(0.1, 3.0),
       kmax=st.integers(0, 60))
def test_walk_matches_the_climb_and_the_running_sum(fid, e, w, j, b, kmax):
    # rho scales with eps^2 so that the ratio families get towers of every
    # height; rho = +-j^2 puts a level's edge s^2 = |rho| on an integer rung.
    # The levels are those of parameters that build_family accepts.
    r = w * max(1.0, e * e) if j is None else float(j * abs(j))
    try:
        fp = simple(fid, b, r) if fid == "harm-osc" else simple(fid, e, r)
    except RangeViolation:
        assume(False)
    check_walk(fp, kmax, reference_max_k(fp))


# eckart at eps = -1, where level 0 has s = -1 and R(s) divides by s + 1 at
# no level, and parameters that build_family never makes.  The tops are the
# frozen rules' except on the last two ("tall"), where every rung's k points
# outward and E_k past level 0 is nan or inf: the frozen scan stopped at the
# first E_k that did not rise (levels 0 and 1), and top_level finds a tower
# about as tall as floats count.
@pytest.mark.parametrize("fid,e,r,top", [
    pytest.param(fid, e, r, top, id=f"{fid}-{e}-{r}") for fid, e, r, top in [
        ("eckart", -1.0, -5.0, 1),
        ("rosen-morse2", math.inf, 1.0, "tall"), ("rosen-morse2", -math.inf, 1.0, -1),
        ("rosen-morse2", 4.0, math.inf, -1), ("rosen-morse2", 4.0, math.nan, -1),
        ("eckart", -1.5, -math.inf, "tall"), ("eckart", math.inf, -20.0, -1),
        ("eckart", -math.inf, -20.0, -1),
    ]])
def test_walk_at_a_pole_and_on_non_finite_energies(fid, e, r, top):
    fp = params(fid, e, r)
    if top == "tall":
        top = admissible_range(fp).max_k
        assert top > 2 ** 53
    else:
        assert top == frozen_max_k(fid, e, r, fp.beta, poles=(0,) if e == -1 else (0, -1))
    check_walk(fp, 8, top)


def test_walk_passes_65536_levels():
    # the tower has 70000 levels (s > 1/s up to s = 1.5); the CLI's --kmax stops at 65536
    fp = simple("rosen-morse2", 70000.5, 1.0)
    assert admissible_range(fp).max_k == 69999
    table = [(k, x.hex()) for k, x in energy_table(fp, 65536)]
    assert table == [(k, x.hex()) for k, x in reference_table(fp, 65536, 69999)]
    for k in (69999, 70000):
        assert outcome(eigenenergy, fp, k) == outcome(reference_eigenenergy, fp, k, 69999)


# |eps| <= 2^-53 on the ratio form: eps - 1 rounds to -1, so R(eps - 1) would
# divide by (eps - 1) + 1 = 0.  eckart's tower is bounded, and stops at level 0
# as the frozen scan's s = -1 stop had it; at eps = -2^-52, eps - 1 is exact.
@pytest.mark.parametrize("e,r,top", [
    (-1e-20, -2.0, 0), (-2.0 ** -53, -3.0, 0), (-2.0 ** -52, -2.0, 1),
])
def test_a_rounded_pole_stops_a_bounded_tower(e, r, top):
    fp = simple("eckart", e, r)
    assert reference_max_k(fp) == top
    check_walk(fp, 8, top)


def count_verdicts(monkeypatch):
    calls, original = [], FamilySpec.admits

    def admits(self, s, r, b):
        calls.append(s)
        return original(self, s, r, b)

    monkeypatch.setattr(FamilySpec, "admits", admits)
    return calls


@pytest.mark.parametrize("fid,e,r,top", [
    ("scarf2", 1e6, 0.7, 999999), ("rosen-morse2", 1e5, 1.0, 99998),
    ("morse", 3.4, 1.0, 3), ("eckart", -1.5, -20.0, 2),
])
def test_a_tall_tower_takes_logarithmically_many_verdicts(monkeypatch, fid, e, r, top):
    fp = simple(fid, e, r)
    calls = count_verdicts(monkeypatch)
    assert admissible_range(fp).max_k == top
    # the farthest rung, then levels 1, 3, 7, ... and bisection
    assert len(calls) <= 2 + 2 * (top + 1).bit_length()


# coulomb at |rho| < 9e-16, where rho/s rounds to 0 at the farthest rung
@pytest.mark.parametrize("fid,e,r", [(fid, *FIX[fid]) for fid in (
    "radial-osc", "harm-osc", "scarf1", "scarf1-cot", "rosen-morse1", "rosen-morse1-cot",
    "coulomb")] + [("coulomb", -1.0, -1e-20), ("coulomb", -300.0, -5e-324)])
def test_an_unbounded_tower_takes_one_verdict(monkeypatch, fid, e, r):
    fp = simple(fid, e, r)
    calls = count_verdicts(monkeypatch)
    assert admissible_range(fp).max_k is None
    assert len(calls) == 1   # the farthest rung


@pytest.mark.parametrize("call,least,most", [
    (lambda fp: eigenenergy(fp, 2), 2, 2),
    (lambda fp: wavefunction(fp, 2), 1, 4),
    (lambda fp: energy_table(fp, 8), 8, 8),
])
def test_a_level_walks_only_to_itself(monkeypatch, call, least, most):
    # the climb to the top of this tower alone takes 199 R calls
    fp = simple("rosen-morse2", 200.5, 1.0)
    calls, original = [], FamilySpec.remainder

    def remainder(self, e, r, b):
        calls.append(e)
        return original(self, e, r, b)

    monkeypatch.setattr(FamilySpec, "remainder", remainder)
    call(fp)
    assert least <= len(calls) <= most


def test_an_instance_decides_its_tower_once(monkeypatch):
    fp = simple("scarf2", 1e6, 0.7)
    calls = count_verdicts(monkeypatch)
    admissible_range(fp), eigenenergy(fp, 3), energy_table(fp, 8), wavefunction(fp, 3)
    first = len(calls)
    assert 0 < first <= 2 + 2 * (999999 + 1).bit_length()
    admissible_range(fp), eigenenergy(fp, 4), energy_table(fp, 8), wavefunction(fp, 4)
    assert len(calls) == first and fp.max_k == 999999
    # kept outside the fields: ==, repr and dataclasses.replace do not see it
    fresh = simple("scarf2", 1e6, 0.7)
    assert fp == fresh and repr(fp) == repr(fresh)
    assert "max_k" not in {f.name for f in dataclasses.fields(FamilyParams)}
    assert dataclasses.replace(fp, eps=3.4).max_k == 3


# |eps| <= 2^-53 on an unbounded ratio tower: every reader sees the unbounded
# tower, and a level from 1 up fails where R(eps - 1) divides by (eps - 1) + 1 = 0
@pytest.mark.parametrize("fid,e,r", [
    ("coulomb", -1e-20, -2.0), ("rosen-morse1", 2.7e-24, 1.0), ("rosen-morse1-cot", 1e-160, 1.0),
])
def test_a_rounded_pole_on_an_unbounded_tower_is_a_numerical_failure(capsys, fid, e, r):
    fp = simple(fid, e, r)
    assert admissible_range(fp).max_k is None
    for call in (eigenenergy, wavefunction):
        with pytest.raises(ZeroDivisionError):
            call(fp, 1)
    argv = [f"--family={fid}", f"--m={e!r}", f"--rho-invariant={r!r}"]
    for command in (["wavefunction", "--k=1"], ["verify", "ladder", "--k=1"], ["spectrum"]):
        assert main(command + argv) == 3, command
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ZeroDivisionError in _ratio_shift: "), err
