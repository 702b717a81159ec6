"""E_k summed from the remainder R against the transcribed closed forms.

The library derives every spectrum from shape invariance alone,
E_k = sum_{j=1..k} R(eps - j); the closed forms below are the paper's
printed E_k and serve as the reference oracle.
"""

from hypothesis import assume, given, settings, strategies as st
import pytest

from shapeinv.cli import main
from shapeinv.errors import RangeViolation
from shapeinv.families import FAMILY_IDS, FAMILY_SPECS, FamilySpec, StateForm
from shapeinv.spectra import admissible_range, eigenenergy

from test_families import simple


def _ratio(e, r, k):
    return r ** 2 / ((k - e) ** 2 * e ** 2)


# E_k(eps, rho, beta) as printed for each family
CLOSED_FORMS = {
    "scarf2": lambda e, r, b, k: (2 * e - k) * k,
    "poschl-teller": lambda e, r, b, k: -k * (k - 2 * e),
    "morse": lambda e, r, b, k: (2 * e - k) * k,
    "morse-mirror": lambda e, r, b, k: (2 * e - k) * k,
    "radial-osc": lambda e, r, b, k: 4 * r * k,
    "harm-osc": lambda e, r, b, k: 2 * b * k,
    "scarf1": lambda e, r, b, k: (k - 2 * e) * k,
    "scarf1-cot": lambda e, r, b, k: (k - 2 * e) * k,
    "rosen-morse2": lambda e, r, b, k: k * (k - 2 * e) * (_ratio(e, r, k) - 1),
    "eckart": lambda e, r, b, k: k * (k - 2 * e) * (_ratio(e, r, k) - 1),
    "coulomb": lambda e, r, b, k: k * (k - 2 * e) * _ratio(e, r, k),
    "rosen-morse1": lambda e, r, b, k: k * (k - 2 * e) * (_ratio(e, r, k) + 1),
    "rosen-morse1-cot": lambda e, r, b, k: k * (k - 2 * e) * (_ratio(e, r, k) + 1),
}


def _span(lo, hi, u):
    return lo + (hi - lo) * u


def _poschl_teller(u, w):
    e = _span(0.2, 4.0, u)
    return e, e - 0.5 + _span(0.05, 3.0, w)


def _scarf1(u, w):
    e = _span(-2.0, 0.45, u)
    return e, 0.95 * _span(-1.0, 1.0, w) * (1 - 2 * e) / 2


def _rosen_morse2(u, w):
    e = _span(0.5, 5.0, u)
    return e, 0.95 * _span(-1.0, 1.0, w) * e ** 2


def _eckart(u, w):
    e = _span(-3.0, -0.2, u)
    return e, -e ** 2 * _span(1.05, 4.0, w)


# (eps, rho) from two unit draws, inside each family's range conditions;
# harm-osc takes (beta, rho)
DRAWS = {
    "scarf2": lambda u, w: (_span(0.1, 5.0, u), _span(-3.0, 3.0, w)),
    "poschl-teller": _poschl_teller,
    "morse": lambda u, w: (_span(0.1, 5.0, u), _span(0.1, 4.0, w)),
    "morse-mirror": lambda u, w: (_span(0.1, 5.0, u), _span(-4.0, -0.1, w)),
    "radial-osc": lambda u, w: (_span(-3.0, 0.45, u), _span(0.1, 4.0, w)),
    "harm-osc": lambda u, w: (_span(0.1, 4.0, u), _span(-3.0, 3.0, w)),
    "scarf1": _scarf1,
    "scarf1-cot": _scarf1,
    "rosen-morse2": _rosen_morse2,
    "eckart": _eckart,
    "coulomb": lambda u, w: (_span(-3.0, -0.2, u), _span(-3.0, -0.1, w)),
    "rosen-morse1": lambda u, w: (_span(-3.0, 0.45, u), _span(-3.0, 3.0, w)),
    "rosen-morse1-cot": lambda u, w: (_span(-3.0, 0.45, u), _span(-3.0, 3.0, w)),
}


def test_state_builders_cover_every_family():
    assert all(isinstance(FAMILY_SPECS[fid].state, StateForm) for fid in FAMILY_IDS)
    assert set(CLOSED_FORMS) == set(DRAWS) == set(FAMILY_IDS)


@pytest.mark.parametrize("fid", FAMILY_IDS)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(u=st.floats(0.0, 1.0), w=st.floats(0.0, 1.0))
def test_summed_energy_matches_closed_form(fid, u, w):
    e, r = DRAWS[fid](u, w)
    try:
        fp = simple(fid, e, r)
    except RangeViolation:
        assume(False)
    closed = CLOSED_FORMS[fid]
    for k in admissible_range(fp).levels(6):
        want = closed(fp.eps, fp.rho, fp.beta, k)
        got = eigenenergy(fp, k)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (fid, fp.eps, fp.rho, k, got, want)


def test_spectrum_table_is_one_running_sum(capsys, monkeypatch):
    # one eigenenergy call per level re-summed from R(eps - 1): kmax²/2 calls
    spec = FAMILY_SPECS["harm-osc"]
    calls, original = [], FamilySpec.remainder

    def remainder(self, e, r, b):
        calls.append(e)
        return original(self, e, r, b)

    monkeypatch.setattr(FamilySpec, "remainder", remainder)
    rc = main(["spectrum", "--family=harm-osc", "--m=0", "--invariant=1", "--beta=1", "--d=0",
               "--kmax=2000"])
    out = capsys.readouterr().out
    assert rc == 0 and 0 < len(calls) <= 2100
    # the bytes of the per-level sums, each taken left to right from 0.0
    fp = simple("harm-osc", 1.0, 0.0)
    rem = spec.remainder
    rows = [f"{k}\t{sum((rem(fp.eps - j, fp.rho, fp.beta) for j in range(1, k + 1)), 0.0):.17g}"
            for k in range(2001)]
    assert out == "\n".join(["k\tE_k", *rows]) + "\n"
