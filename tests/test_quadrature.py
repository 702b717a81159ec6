"""Batched adaptive quadrature against the one-panel-per-call recursion.

The oracle below is the engine `verify.quadrature` ran before evaluation was
batched: a recursive `_adapt` that evaluates one 20-point panel per
integrand call, and a tail march that samples one point per call.  It uses
the same Gauss-Legendre rule, seed panels and peak sample, so the batched
engine must reach the same verdict, the same NonConvergence message and
the same value.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from shapeinv import families, spectra, verify
from shapeinv.cli import main
from shapeinv.errors import NonConvergence
from shapeinv.invariants import ParamVector, parse_invariant, verify_invariant

from test_families import fixture

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# oracle: the recursive engine, one panel per integrand call

def _gl_panel(f, a, b):
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * verify._GL_X
    return float(half * np.sum(verify._GL_W * np.asarray(f(xs), dtype=float)))


def _adapt(f, a, b, budget, depth):
    coarse = _gl_panel(f, a, b)
    mid = 0.5 * (a + b)
    fine = _gl_panel(f, a, mid) + _gl_panel(f, mid, b)
    if abs(fine - coarse) <= max(budget, 1e-16 * abs(fine)):
        return fine
    if depth >= verify._MAX_DEPTH:
        raise NonConvergence(f"quadrature failed to settle on [{a:.6g}, {b:.6g}] "
                             f"after depth {verify._MAX_DEPTH}")
    return (_adapt(f, a, mid, budget / 2, depth + 1)
            + _adapt(f, mid, b, budget / 2, depth + 1))


def _march_tail(f, start, direction, thresh, beyond):
    # a quiet sample counts only past the outermost loud one of the peak sample
    t = start
    quiet = 0
    while quiet < 3:
        t = t * 1.3 if t * direction > 1 else t + direction
        if abs(t) > 1e9:
            raise NonConvergence("tail truncation point not found below |x| = 1e9")
        small = abs(float(np.max(np.abs(np.asarray(f(np.array([t]))))))) <= thresh
        if small and (t - beyond) * direction > 0:
            quiet += 1
        else:
            quiet = 0
    return t


def oracle_quadrature(f, domain, tol=1e-10):
    a, b = float(domain[0]), float(domain[1])
    peak, loud_lo, loud_hi = verify._peak_sample(f, a, b)
    thresh = verify._TAIL_REL * peak
    grade_lo, grade_hi = math.isfinite(a), math.isfinite(b)
    if not grade_hi:
        b = _march_tail(f, max(1.0, a + 1.0 if grade_lo else 1.0), +1.0, thresh, loud_hi)
    if not grade_lo:
        a = _march_tail(f, min(-1.0, b - 1.0), -1.0, thresh, loud_lo)
    cuts = verify._seed_panels(a, b, grade_lo, grade_hi)
    if grade_lo and len(cuts) > 2:
        cuts = cuts[1:]
    if grade_hi and len(cuts) > 2:
        cuts = cuts[:-1]
    budget = float(tol) / max(1, len(cuts) - 1)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi > lo:
            total += _adapt(f, lo, hi, budget, 0)
    return total


def _outcome(quad, f, domain):
    with np.errstate(all="ignore"):
        try:
            return "value", quad(f, domain)
        except NonConvergence as exc:
            return "NonConvergence", str(exc)


def assert_same_outcome(f, domain):
    want = _outcome(oracle_quadrature, f, domain)
    got = _outcome(verify.quadrature, f, domain)
    assert got[0] == want[0], (got, want)
    if want[0] == "value":
        assert got[1] == pytest.approx(want[1], rel=1e-14, abs=1e-300)
    else:
        assert got[1] == want[1]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(a=st.floats(-0.95, 3.0), width=st.floats(0.1, 5.0), upper=st.booleans())
def test_power_law_at_a_graded_end(a, width, upper):
    # x^a with its singular point at a finite end, exactly at 0 so that the
    # graded panels resolve it
    if upper:
        assert_same_outcome(lambda x: np.abs(x) ** a, (-width, 0.0))
    else:
        assert_same_outcome(lambda x: x ** a, (0.0, width))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(coef=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
       s=st.floats(0.2, 3.0), m=st.floats(-3.0, 3.0), side=st.sampled_from("whole left right".split()))
def test_polynomial_times_gaussian_on_infinite_lines(coef, s, m, side):
    domain = {"whole": (-math.inf, math.inf), "left": (-math.inf, m + 0.5),
              "right": (m - 0.5, math.inf)}[side]
    assert_same_outcome(lambda x: np.polyval(coef, x) * np.exp(-s * (x - m) ** 2), domain)


@pytest.mark.parametrize("f,domain", [
    (lambda x: 1.0 / np.abs(x - 0.5), (0.0, 1.0)),
    (lambda x: np.where(x < 0.5, 0.0, np.nan), (0.0, 1.0)),
    (lambda x: np.ones_like(x), (0.0, math.inf)),
], ids=["pole", "nan-half", "no-tail"])
def test_integrands_that_never_settle(f, domain):
    assert _outcome(verify.quadrature, f, domain)[0] == "NonConvergence"
    assert_same_outcome(f, domain)


# peaks outside the first sample window [-4, 4]: the window doubles toward
# them, and the tail march counts quiet samples only past them
@pytest.mark.parametrize("f,domain,want", [
    (lambda x: np.exp(-(x - 40.0) ** 2), (-math.inf, math.inf), math.sqrt(math.pi)),
    (lambda x: np.exp(-0.005 * (x + 300.0) ** 2), (-math.inf, math.inf),
     math.sqrt(200.0 * math.pi)),
], ids=["narrow-at-40", "wide-at-minus-300"])
def test_far_peaks(f, domain, want):
    assert verify.quadrature(f, domain) == pytest.approx(want, rel=1e-13)
    assert_same_outcome(f, domain)


def test_constant_integrand_is_broadcast():
    assert verify.quadrature(lambda x: 2.0, (0.0, 3.0)) == pytest.approx(6.0, rel=1e-14)


def test_non_finite_nodes_raise_without_warnings():
    # the scarf1 state at the wall, where 1 - sin x rounds to 0, is inf or
    # nan at some nodes; the sampling, tail march and refinement run under
    # np.errstate, so NonConvergence comes without a RuntimeWarning
    one = verify_invariant(parse_invariant("1"), 1)
    data = families.ConstructionData(p=ParamVector((-0.3032802384493791,)),
                                     couplings=(families.Coupling(one, d=0.538051002893123),))
    fp = families.build_family("scarf1", data)
    wf = spectra.wavefunction(fp, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence):
            verify.quadrature(lambda x: wf(x) ** 2, fp.domain)


# ---------------------------------------------------------------------------
# integrand-call guards: a batched engine calls f a handful of times

def _norm_calls(fp, k):
    wf = spectra.wavefunction(fp, k)
    calls = []

    def f(x):
        calls.append(np.size(x))
        return wf(x) * wf(x)

    norm = verify.quadrature(f, fp.domain, 1e-10)
    return norm, len(calls)


@pytest.mark.parametrize("family,k,most", [("harm-osc", 2, 12), ("scarf1", 1, 8)])
def test_norm_integrand_calls(family, k, most):
    norm, calls = _norm_calls(fixture(family), k)
    assert abs(norm - 1.0) < 1e-6
    assert calls <= most


# ---------------------------------------------------------------------------
# the Gauss-Legendre rule

def test_gauss_legendre_rule():
    x, w = verify._GL_X, verify._GL_W
    ref_x, ref_w = np.polynomial.legendre.leggauss(20)
    assert np.max(np.abs(x - ref_x)) <= 1e-13
    assert np.max(np.abs(w / ref_w - 1.0)) <= 1e-13
    for j in range(40):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        assert abs(float(np.sum(w * x ** j)) - exact) <= 1e-14, j


def test_cli_import_leaves_numpy_polynomial_out():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, shapeinv.cli; print('numpy.polynomial' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------------------
# cancellation in the rosen-morse2 and eckart bases

def test_eckart_norm_settles_in_the_tail(capsys):
    # coth x - 1 used to round to 0 near x = 13.4, and the norm quadrature
    # failed to settle there (exit 3)
    rc = main(["wavefunction", "--family=eckart", "--m=-7.292213349403363,3.323965836546764",
               "--invariant=1", "--beta=0.0", "--d=0.0", "--rho-invariant=m1-m2",
               "--k=1", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["norm"] == pytest.approx(1.0, abs=1e-12)


# each log-base against the log of the plain expression where that neither
# cancels nor overflows, and finite where it does
LOG_BASES = {
    "rosen-morse2": (families._log_tanh_sides, lambda x: (1.0 - np.tanh(x), 1.0 + np.tanh(x)),
                     True),
    "eckart": (families._log_coth_sides,
               lambda x: (1.0 / np.tanh(x) - 1.0, 1.0 / np.tanh(x) + 1.0), False),
    "poschl-teller": (families._log_cosh_sides, lambda x: (np.cosh(x) - 1.0, np.cosh(x) + 1.0),
                      False),
    "log-cosh": (lambda x: (families._log_cosh(x),), lambda x: (np.cosh(x),), True),
}


@pytest.mark.parametrize("family", list(LOG_BASES))
def test_hyperbolic_ratio_bases_are_exact(family):
    log_sides, plain_sides, both_signs = LOG_BASES[family]
    x = np.array([1e-9, 1e-3, 0.5, 3.0, 20.0, 200.0, 800.0])
    if both_signs:
        x = np.concatenate((-x, x))
    with np.errstate(all="ignore"):
        plain = plain_sides(x)
    for got, want in zip(log_sides(x), plain):
        assert np.all(np.isfinite(got))
        fair = (want > 0.5) & (want < 1e300)
        assert np.allclose(got[fair], np.log(want[fair]), rtol=1e-14, atol=1e-15)


def test_far_log_is_log_cosh_and_log_sinh_past_the_far_threshold():
    # |z| = cosh x (poschl-teller) or |sinh x| (scarf2) passes 1e8 at |x| = 19.1
    x = np.array([19.2, 20.0, 50.0, 300.0, 700.0])
    x = np.concatenate((-x, x))
    for want in (np.log(np.cosh(x)), np.log(np.abs(np.sinh(x)))):
        assert np.allclose(families._log_far(x), want, rtol=1e-15, atol=0)


def test_poschl_teller_base_near_zero():
    # cosh x - 1 rounds to 0 below x ~ 1e-8; log(cosh x - 1) = 2 log x - log 2 + x^2/12 + O(x^4)
    x = np.array([1e-12, 1e-9, 1e-6, 1e-3])
    lo, _ = families._log_cosh_sides(x)
    assert np.allclose(lo, 2 * np.log(x) - math.log(2.0) + x ** 2 / 12, rtol=1e-15, atol=0)
