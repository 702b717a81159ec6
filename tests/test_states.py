"""The log-space states: derived constants, large |eps|, and the CLI repros.

Every state is zeta_k = C_k exp(L(x)) P_k(z(x)) with C_k derived from the
ground-state normalization at eps - k (spectra.state_constant).  The ten
k-dependent prefactors below are the ones the paper prints, transcribed
level by level, and serve as the reference oracle for the derived C_k, the
way test_norm_ladder.py keeps the printed recursions.
"""

import cmath
import json
import math
import random

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from shapeinv.cli import main
from shapeinv.families import FAMILY_IDS
from shapeinv.spectra import admissible_range, norm_coefficient, state_constant, wavefunction
from shapeinv.verify import default_grid, quadrature

from test_acceptance import draw_family
from test_families import simple

# ---------------------------------------------------------------------------
# the printed prefactors

_LANCZOS_C = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
              771.32342877765313, -176.61502916214059, 12.507343278686905,
              -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


def gamma_abs(z: complex) -> float:
    """|Gamma(z)| for Re z >= 1/2 by the Lanczos sum (g = 7), in linear space."""
    z = complex(z) - 1.0
    x = _LANCZOS_C[0] + sum(c / (z + i) for i, c in enumerate(_LANCZOS_C[1:], 1))
    t = z + 7.5
    return abs(math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x)


def printed_prefactor(fid: str, e: float, r: float, b: float, k: int):
    """The printed C_k of zeta_k, with the ladder factor N_k where it enters."""
    g, f = math.gamma, math.factorial(k)
    s = e - k
    t = r / s if s else 0.0
    if fid == "scarf2":
        return (2.0 ** (e - 0.5) * gamma_abs(complex(0.5 + s, -r))
                / (math.sqrt(math.pi) * math.sqrt(g(2 * s))) * f * 1j ** k)
    if fid == "poschl-teller":
        return 2.0 ** e * f * math.sqrt(g(0.5 + s + r) / (g(2 * s) * g(0.5 - s + r)))
    if fid in ("morse", "morse-mirror"):
        sign = 1.0 if fid == "morse" else -1.0
        return (-1.0) ** k * 2.0 ** s * (sign * r) ** s * f / math.sqrt(g(2 * s))
    if fid == "radial-osc":
        return math.sqrt(2.0 * r ** (0.5 - s) / g(0.5 - s)) * f * (-2.0) ** k
    if fid == "harm-osc":
        return (b / math.pi) ** 0.25 / math.sqrt(f * 2.0 ** k)
    if fid in ("scarf1", "scarf1-cot"):
        return 2.0 ** e * f * math.sqrt(g(1 - 2 * s) / (g(0.5 - s - r) * g(0.5 - s + r)))
    if fid == "rosen-morse2":
        return 2.0 ** (0.5 - s) * f * math.sqrt(g(2 * s) / (g(s - t) * g(s + t)))
    if fid == "eckart":
        return 2.0 ** (0.5 - s) * f * math.sqrt(g(1 - s + t) / (g(1 - 2 * s) * g(s + t)))
    if fid == "coulomb":
        return (-1.0) ** k * f * math.sqrt(-r / s ** 2 * (r / s) ** (-2 * s) / g(-2 * s))
    # rosen-morse1, rosen-morse1-cot
    return (-1j) ** k * f * gamma_abs(complex(1 - s, -t)) / math.sqrt(math.pi * g(1 - 2 * s))


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_derived_constant_matches_printed_prefactor(fid):
    rng = random.Random(f"si:{fid}")
    for _ in range(16):
        fp = draw_family(fid, rng)
        for k in admissible_range(fp).levels(6):
            want = printed_prefactor(fid, fp.eps, fp.rho, fp.beta, k)
            if fid != "harm-osc":
                want *= norm_coefficient(fp, k)
            log_c, phase = state_constant(fp, k)
            got = phase * math.exp(log_c)
            assert abs(got - want) <= 1e-13 * abs(want), (fid, fp.eps, fp.rho, k, got, want)


# ---------------------------------------------------------------------------
# large |eps|: finite states, norm 1

def _span(lo, hi, u):
    return lo + (hi - lo) * u


def _pos(u):
    return _span(0.5, 300.0, u)


def _neg(u):
    return -_pos(u)


# (eps, rho) from two unit draws, |eps| up to 300 where the range allows,
# and rho where zeta_0 vanishes at every finite wall (harm-osc takes beta).
# scarf1 keeps both wall exponents -(eps -/+ rho)/2 above 1/8: its bases
# 1 -/+ sin x round to 0 within 1e-8 of a wall, and a state that vanishes
# more slowly than that loses mass there (eps = -0.5, rho = -0.475 reads
# norm 1 - 2.6e-9), the open scarf1-wall defect with its own test
LARGE = {
    "scarf2": lambda u, w: (_pos(u), _span(-2.0, 2.0, w) * _pos(u)),
    "poschl-teller": lambda u, w: (_pos(u), _span(1.01, 3.0, w) * _pos(u)),
    "morse": lambda u, w: (_pos(u), _span(0.1, 10.0, w)),
    "morse-mirror": lambda u, w: (_pos(u), -_span(0.1, 10.0, w)),
    "radial-osc": lambda u, w: (_neg(u), _span(0.1, 4.0, w)),
    "harm-osc": lambda u, w: (_span(0.05, 10.0, u), _span(-5.0, 5.0, w)),
    "scarf1": lambda u, w: (_neg(u), _span(-0.95, 0.95, w) * (-0.25 - _neg(u))),
    "scarf1-cot": lambda u, w: (_neg(u), _span(-0.95, 0.95, w) * (-0.25 - _neg(u))),
    "rosen-morse2": lambda u, w: (_pos(u), _span(-0.95, 0.95, w) * _pos(u) ** 2),
    "eckart": lambda u, w: (_neg(u), -_span(1.05, 4.0, w) * _neg(u) ** 2),
    "coulomb": lambda u, w: (_neg(u), _span(0.05, 4.0, w) * _neg(u)),
    "rosen-morse1": lambda u, w: (_neg(u), _span(-2.0, 2.0, w) * _neg(u)),
    "rosen-morse1-cot": lambda u, w: (_neg(u), _span(-2.0, 2.0, w) * _neg(u)),
}


def test_large_draws_cover_every_family():
    assert set(LARGE) == set(FAMILY_IDS)


@pytest.mark.parametrize("fid", FAMILY_IDS)
@settings(derandomize=True, deadline=None, max_examples=10)
@given(u=st.floats(0.0, 1.0), w=st.floats(0.0, 1.0))
def test_states_are_finite_and_normalized(fid, u, w):
    fp = simple(fid, *LARGE[fid](u, w))
    xs = np.linspace(*default_grid(fp))
    levels = admissible_range(fp).levels(3)
    for k in sorted({0, levels[-1]}):
        wf = wavefunction(fp, k)
        assert np.all(np.isfinite(np.asarray(wf(xs)))), (fid, fp.eps, fp.rho, k)
        norm = quadrature(lambda x: wf(x) * wf(x), fp.domain, 1e-10)
        assert abs(norm - 1.0) <= 1e-10, (fid, fp.eps, fp.rho, k, norm)


# ---------------------------------------------------------------------------
# CLI jobs that overflowed Gamma or missed a far peak

def _norm(capsys, *flags):
    rc = main(["wavefunction", *flags, "--grid=0.5,1,3", "--json"])
    out = capsys.readouterr().out
    return rc, (json.loads(out)["norm"] if rc == 0 else None)


@pytest.mark.parametrize("flags", [
    ["--family=morse", "--m=90", "--invariant=1", "--d=1", "--k=1"],
    ["--family=scarf2", "--m=90", "--invariant=1", "--d=1", "--k=0"],
    ["--family=scarf1", "--m=-90", "--invariant=1", "--d=1", "--k=0"],
    ["--family=scarf1-cot", "--m=-90", "--invariant=1", "--d=1", "--k=0"],
    # centered at x = -300, far outside the first peak-sample window
    ["--family=harm-osc", "--m=0", "--invariant=1", "--beta=0.01", "--d=3", "--k=0"],
], ids=["morse", "scarf2", "scarf1", "scarf1-cot", "harm-osc"])
def test_large_eps_and_far_peak_states_are_normalized(capsys, flags):
    rc, norm = _norm(capsys, *flags)
    assert rc == 0 and abs(norm - 1.0) <= 1e-10


@pytest.mark.parametrize("flags", [
    ["--family=poschl-teller", "--m=2.0016969492986423", "--beta=0.0",
     "--d=3.000469007512051", "--kmax=2"],
    ["--family=scarf2", "--m=2.1067317415328546", "--beta=0.0",
     "--d=-1.3966033043019923", "--kmax=2"],
    ["--family=poschl-teller", "--m=2.026269386279497", "--d=1.9500927007800613", "--kmax=1"],
], ids=["poschl-teller-tail", "scarf2-tail", "poschl-teller-origin"])
def test_orthonormal_jobs_that_failed_in_the_tails_pass(capsys, flags):
    assert main(["verify", "orthonormal", "--invariant=1", *flags]) == 0


def test_oracle_at_large_eps_reports_its_own_miss(capsys):
    # the states are fine; the FD oracle's O(h^2) error on a state about
    # 0.07 wide misses the tolerance, which is exit 1, not an internal error
    rc = main(["oracle", "compare", "--family=morse", "--m=200", "--invariant=1", "--d=1",
               "--kmax=3"])
    out = capsys.readouterr().out
    assert rc == 1 and out.startswith("k\tE_k\toracle_gap\tdeviation")
