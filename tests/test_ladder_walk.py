"""The ladder walk against a separate climb and running sum.

spectra decides the admissible levels and sums E_k in one walk.  The
reference below keeps the two apart: a climb to the top of the tower that
sums R on its own, then one running sum E_k = E_{k-1} + R(eps - k) to the
level asked for.  Both must give the same levels and the same bits.
"""

import math

from hypothesis import given, settings, strategies as st
import pytest

from shapeinv.errors import InadmissibleState, ShapeInvError
from shapeinv.families import FAMILY_IDS, FAMILY_SPECS, FamilyParams, FamilySpec
from shapeinv.spectra import (
    _SCAN_CAP,
    admissible_range,
    eigenenergy,
    energy_table,
    wavefunction,
)

from test_families import simple


def reference_max_k(fp):
    spec, e, r = fp.spec, fp.eps, fp.rho
    if spec.gamma_args is None:
        return spec.max_level(e, r)

    def ok(k):
        s = e - k
        if s == 0 or s + 1 == 0:
            return False
        return all(a > 0 for a in spec.gamma_args(s, r / s))

    if not ok(0):
        return -1
    last, energy = 0, 0.0
    for k in range(1, _SCAN_CAP):
        if not ok(k):
            break
        raised = energy + spec.remainder(e - k, r, fp.beta)
        if not raised > energy:
            break
        last, energy = k, raised
    return last


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
    return FamilyParams(id=fid, eps=e, rho=r, beta=b, alpha=FAMILY_SPECS[fid].alpha,
                        provenance=None)


def check_walk(fp, kmax):
    top = reference_max_k(fp)
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
    # height; rho = +-j^2 puts a Gamma argument on 0 at an integer rung
    check_walk(params(fid, e, w * max(1.0, e * e) if j is None else float(j * abs(j)), b), kmax)


# s = -1 with every Gamma argument positive (eckart at eps = -1), and
# overflowing or undefined energies: E_k = nan, or inf + inf that does not rise
@pytest.mark.parametrize("fid,e,r", [
    ("eckart", -1.0, -5.0),
    ("rosen-morse2", math.inf, 1.0), ("rosen-morse2", -math.inf, 1.0),
    ("rosen-morse2", 4.0, math.inf), ("rosen-morse2", 4.0, math.nan),
    ("eckart", -1.5, -math.inf), ("eckart", math.inf, -20.0), ("eckart", -math.inf, -20.0),
])
def test_walk_at_a_pole_and_on_non_finite_energies(fid, e, r):
    check_walk(params(fid, e, r), 8)


def test_walk_reaches_the_cap():
    fp = simple("rosen-morse2", 70000.5, 1.0)
    assert admissible_range(fp).max_k == reference_max_k(fp) == _SCAN_CAP - 1
    table = [(k, x.hex()) for k, x in energy_table(fp, _SCAN_CAP)]
    assert table == [(k, x.hex()) for k, x in reference_table(fp, _SCAN_CAP, _SCAN_CAP - 1)]
    for k in (_SCAN_CAP - 1, _SCAN_CAP):
        assert (outcome(eigenenergy, fp, k)
                == outcome(reference_eigenenergy, fp, k, _SCAN_CAP - 1))


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
