"""Family construction: folds, ranges, superpotentials, remainders."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from shapeinv.errors import EvalDomainError, RangeViolation, ValidationError
from shapeinv.families import (
    ConstructionData,
    Coupling,
    _ratio_shift,
    build_family,
    classic_reconstruction,
    construction_remainder,
    coupling_v,
    family_ids,
    get_spec,
    partner_potentials,
    remainder,
    riccati_g,
    superpotential,
    translate_family,
)
from shapeinv.invariants import (
    ParamVector,
    _num_literal,
    eval_invariant,
    parse_invariant,
    verify_invariant,
)


def inv(src: str, n: int):
    return verify_invariant(parse_invariant(src), n)


def data(m, couplings, rho_src=None):
    p = ParamVector(m if isinstance(m, tuple) else (m,))
    rows = tuple(Coupling(inv(src, p.n), beta=b, d=d) for src, b, d in couplings)
    rho = inv(rho_src, p.n) if rho_src is not None else None
    return ConstructionData(p=p, couplings=rows, rho_invariant=rho)


def simple(family_id: str, eps: float, rho: float):
    """Single trivial coupling tuned so the fold lands on (eps, rho)."""
    from shapeinv import families as F
    fold = get_spec(family_id).fold
    if fold in (F._FOLD_BETA_MEAN, F._FOLD_BETA_MEAN_NEG):
        return build_family(family_id, data(eps, [("1", 0.0, rho)]))
    if fold == F._FOLD_D_MEAN:
        return build_family(family_id, data(eps, [("1", 2.0 * rho, 0.0)]))
    if fold == F._FOLD_SLOPE:
        return build_family(family_id, data(0.0, [("1", eps, rho)]))
    return build_family(family_id,
                        data(eps, [("1", 0.0, 0.0)], rho_src=_num_literal(float(rho))))


FIX = {
    "scarf2": (3.4, 0.7),
    "poschl-teller": (3.4, 3.9),
    "morse": (3.4, 1.0),
    "morse-mirror": (3.4, -1.0),
    "radial-osc": (-0.5, 1.0),
    "harm-osc": (1.0, 0.3),      # (beta, rho) for the slope fold
    "scarf1": (-0.3, 0.1),
    "scarf1-cot": (-0.3, 0.1),
    "rosen-morse2": (4.0, 1.0),
    "eckart": (-1.5, -20.0),
    "rosen-morse1": (-0.3, 0.5),
    "rosen-morse1-cot": (-0.3, 0.5),
    "coulomb": (-1.5, -0.75),
}


def fixture(family_id: str):
    e, r = FIX[family_id]
    return simple(family_id, e, r)


def test_registry():
    ids = family_ids()
    assert len(ids) == 13 and len(set(ids)) == 13
    for fid in ids:
        assert get_spec(fid).id == fid
    with pytest.raises(ValidationError):
        get_spec("nope")


def test_fold_conventions():
    # mean + sum(beta I)
    fp = build_family("scarf2", data(3.0, [("1", 0.1, 0.4), ("2", 0.05, 0.0)]))
    assert fp.eps == pytest.approx(3.0 + 0.1 + 0.1)
    assert fp.rho == pytest.approx(0.4)
    # mean - sum(beta I)
    fp = build_family("scarf1", data(0.2, [("sin(2*pi*m1)^2+cos(2*pi*m1)+1", 0.05, 0.1)]))
    i1 = math.sin(0.4 * math.pi) ** 2 + math.cos(0.4 * math.pi) + 1.0
    assert fp.eps == pytest.approx(0.2 - 0.05 * i1, rel=1e-14)
    assert fp.rho == pytest.approx(0.1 * i1, rel=1e-14)
    # mean + sum(d I), rho = sum(beta I)/2
    fp = build_family("radial-osc", data(-1.0, [("1", 3.0, 0.25)]))
    assert fp.eps == pytest.approx(-0.75)
    assert fp.rho == pytest.approx(1.5)
    # slope fold ignores the mean
    fp = build_family("harm-osc", data(7.0, [("1", 1.2, 0.3)]))
    assert fp.eps == 0.0 and fp.beta == pytest.approx(1.2) and fp.rho == pytest.approx(0.3)
    # ratio fold takes rho from its own invariant
    fp = build_family("eckart", data(-1.25, [("1", 0.0, -0.25)], rho_src="-20"))
    assert fp.eps == pytest.approx(-1.5) and fp.rho == pytest.approx(-20.0)


def test_ratio_families_demand_rho_invariant():
    with pytest.raises(ValidationError):
        build_family("eckart", data(-1.5, [("1", 0.0, 0.0)]))
    with pytest.raises(ValidationError):
        build_family("scarf2", data(3.0, [("1", 0.0, 0.4)], rho_src="1"))


def test_range_violations():
    with pytest.raises(RangeViolation):
        simple("scarf2", -0.6, 0.0)
    with pytest.raises(RangeViolation):
        simple("morse", 2.0, -1.0)
    with pytest.raises(RangeViolation):
        simple("radial-osc", 0.7, 1.0)
    with pytest.raises(RangeViolation):
        simple("scarf1", 0.3, 0.9)
    with pytest.raises(RangeViolation):
        simple("poschl-teller", 2.0, 1.0)  # eps - rho = 1 >= 1/2
    with pytest.raises(RangeViolation):
        simple("coulomb", -1.5, 0.75)     # rho/eps < 0


def test_translate_semantics():
    fp = fixture("scarf2")
    down = translate_family(fp, 1)
    assert down.eps == pytest.approx(fp.eps - 1.0)
    assert down.rho == pytest.approx(fp.rho)
    down2 = translate_family(fp, 2)
    assert down2.eps == pytest.approx(fp.eps - 2.0)
    with pytest.raises(ValidationError):
        translate_family(fp, 0)
    # a bool is not a step, as it is not a level index (eigenenergy(fp, True))
    with pytest.raises(ValidationError):
        translate_family(fp, True)
    # slope fold: translation leaves every folded parameter alone
    hp = fixture("harm-osc")
    ht = translate_family(hp, 1)
    assert (ht.eps, ht.rho, ht.beta) == (hp.eps, hp.rho, hp.beta)


def test_translate_can_violate_ranges():
    fp = simple("scarf2", 0.4, 0.0)
    with pytest.raises(RangeViolation):
        translate_family(fp, 1)


def grid_for(fp, n=301):
    lo, hi = fp.domain.clipped()
    lo = max(lo, -8.0)
    hi = min(hi, 8.0)
    return np.linspace(lo, hi, n)


def test_superpotential_derivative_consistency():
    # k' returned by the closed form matches a central difference on k
    h = 1e-6
    for fid in family_ids():
        fp = fixture(fid)
        xs = grid_for(fp, 41)[5:-5]
        k, kp = superpotential(fp, xs)
        kl, _ = superpotential(fp, xs - h)
        kr, _ = superpotential(fp, xs + h)
        fd = (kr - kl) / (2 * h)
        assert np.max(np.abs(fd - kp) / (1 + np.abs(kp))) < 1e-7, fid


def test_partner_potentials_definition():
    fp = fixture("morse")
    xs = grid_for(fp, 101)
    k, kp = superpotential(fp, xs)
    v, vt = partner_potentials(fp, xs)
    assert np.allclose(v, k * k - kp, rtol=1e-14)
    assert np.allclose(vt, k * k + kp, rtol=1e-14)


def test_riccati_equation():
    # G' + G^2 = alpha for every family; scaled since G blows up at poles
    for fid in family_ids():
        spec = get_spec(fid)
        fp = fixture(fid)
        xs = grid_for(fp, 101)
        g, gp = riccati_g(fid, xs)
        res = np.max(np.abs(gp + g * g - spec.alpha) / (1.0 + g * g))
        assert res < 1e-12, (fid, res)


def test_coupling_v_equation():
    # v' + v G = beta for the linear-form families
    linear = [fid for fid in family_ids()
              if fid not in ("rosen-morse2", "eckart", "coulomb",
                             "rosen-morse1", "rosen-morse1-cot")]
    for fid in linear:
        fp = fixture(fid)
        xs = grid_for(fp, 101)
        g, _ = riccati_g(fid, xs)
        beta, d = 0.7, -0.4
        v, vp = coupling_v(fid, xs, beta, d)
        res = np.max(np.abs(vp + v * g - beta) / (1.0 + np.abs(v * g)))
        assert res < 1e-12, (fid, res)
    with pytest.raises(ValidationError):
        coupling_v("eckart", 1.0, 0.1, 0.1)


def test_superpotential_is_coupling_sum():
    # k = sum_j I_j v_j + M G for a two-coupling build
    fid = "scarf2"
    d = data((1.0, 3.0), [("m1-m2", 0.2, 0.5), ("cos(2*pi*M)", -0.1, 0.3)])
    fp = build_family(fid, d)
    xs = np.linspace(-3, 3, 61)
    k, _ = superpotential(fp, xs)
    mean = d.p.mean
    g, _ = riccati_g(fid, xs)
    total = mean * g
    from shapeinv.invariants import eval_invariant
    for c in d.couplings:
        val = eval_invariant(c.invariant, d.p)
        v, _ = coupling_v(fid, xs, c.beta, c.d)
        total = total + val * v
    assert np.max(np.abs(total - k)) < 1e-12


def test_remainder_matches_construction():
    for fid in family_ids():
        if fid in ("rosen-morse2", "eckart", "coulomb",
                   "rosen-morse1", "rosen-morse1-cot"):
            continue
        fp = fixture(fid)
        assert remainder(fp) == pytest.approx(construction_remainder(fp), abs=1e-12), fid
    with pytest.raises(ValidationError):
        construction_remainder(fixture("coulomb"))


LINEAR = tuple(fid for fid in family_ids() if get_spec(fid).v is not None)

# n = 3, two couplings on non-trivial invariants: the centre a of
# m = (a + 1.5, a, a - 0.5), where m1 - m2 = 1.5 and (m1 - m2)(m2 - m3) =
# 0.75, and (beta_1, beta_2), (d_1, d_2) chosen to land inside the ranges
TWO_COUPLINGS = {
    "scarf2": (3.0, (0.2, -0.1), (0.4, 0.3)),
    "poschl-teller": (3.0, (0.2, -0.1), (2.0, 1.0)),
    "morse": (3.0, (0.2, -0.1), (0.4, 0.3)),
    "morse-mirror": (3.0, (0.2, -0.1), (-0.4, -0.3)),
    "radial-osc": (-1.0, (1.0, 0.4), (0.2, -0.1)),
    "harm-osc": (2.0, (0.6, 0.4), (0.2, -0.1)),
    "scarf1": (-1.0, (0.2, -0.1), (0.4, 0.3)),
    "scarf1-cot": (-1.0, (0.2, -0.1), (0.4, 0.3)),
}


def two_couplings(family_id: str):
    a, betas, ds = TWO_COUPLINGS[family_id]
    rows = list(zip(("m1-m2", "(m1-m2)*(m2-m3)"), betas, ds))
    return data((a + 1.5, a, a - 0.5), rows)


@pytest.mark.parametrize("fid", LINEAR)
def test_each_fold_gives_the_coupling_sum(fid):
    # k = sum_j I_j v_j + M G and k' likewise, whatever constants the fold picks
    d = two_couplings(fid)
    fp = build_family(fid, d)
    xs = grid_for(fp, 61)
    k, kp = superpotential(fp, xs)
    g, gp = riccati_g(fid, xs)
    total, slope = d.p.mean * g, d.p.mean * gp
    for c in d.couplings:
        value = eval_invariant(c.invariant, d.p)
        assert value not in (0.0, 1.0)
        v, vp = coupling_v(fid, xs, c.beta, c.d)
        total, slope = total + value * v, slope + value * vp
    assert np.max(np.abs(total - k) / (1.0 + np.abs(k))) < 1e-12, fid
    assert np.max(np.abs(slope - kp) / (1.0 + np.abs(kp))) < 1e-12, fid


@pytest.mark.parametrize("fid", LINEAR)
def test_each_fold_gives_the_construction_remainder(fid):
    # R = (2M + 1) alpha + 2 sum_j beta_j I_j, written out from the data
    d = two_couplings(fid)
    fp = build_family(fid, d)
    coupled = sum(c.beta * eval_invariant(c.invariant, d.p) for c in d.couplings)
    want = (2 * d.p.mean + 1) * get_spec(fid).alpha + 2 * coupled
    assert remainder(fp) == pytest.approx(want, abs=1e-12), fid
    assert construction_remainder(fp) == pytest.approx(want, abs=1e-12), fid


def test_shape_invariance_spot_check():
    for fid in ("scarf2", "eckart", "harm-osc", "rosen-morse1"):
        fp = fixture(fid)
        down = translate_family(fp, 1)
        xs = grid_for(fp, 201)
        _, vt = partner_potentials(fp, xs)
        v_down, _ = partner_potentials(down, xs)
        res = np.max(np.abs(vt - v_down - remainder(down)) / (1 + np.abs(v_down)))
        assert res < 1e-10, (fid, res)


def test_classic_reconstruction_identities():
    xs = np.linspace(0.05, 3.0, 101)
    lhs, rhs = classic_reconstruction("pt2", 1.3, 2.4, xs)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    xs = np.linspace(0.05, math.pi / 2 - 0.05, 101)
    lhs, rhs = classic_reconstruction("pt1", 0.7, 1.9, xs)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    l, r = classic_reconstruction("pt2", 1.0, 2.0, 0.8)
    assert isinstance(l, float) and l == pytest.approx(r, abs=1e-14)
    with pytest.raises(ValidationError):
        classic_reconstruction("pt3", 1.0, 2.0, 0.5)


def test_domain_guard():
    fp = fixture("poschl-teller")
    with pytest.raises(EvalDomainError):
        superpotential(fp, -1.0)


def test_trig_rosen_morse_rejects_eps_zero():
    # k = rho/eps + eps G is undefined at eps = 0
    for fid in ("rosen-morse1", "rosen-morse1-cot"):
        with pytest.raises(RangeViolation, match="eps != 0"):
            simple(fid, 0.0, 1.0)


def _exact_shift(e: float, r: float) -> float:
    """(2e + 1) r^2 / (e^2 (e + 1)^2) in exact rationals, rounded once."""
    e, r = Fraction(e), Fraction(r)
    return float((2 * e + 1) * r ** 2 / (e ** 2 * (e + 1) ** 2))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(e=st.floats(-1e154, 1e154).filter(lambda e: abs(e) > 1e-6 and abs(e + 1) > 1e-6),
       r=st.floats(-1e100, 1e100))
def test_ratio_shift_keeps_its_formula_where_it_is_finite(e, r):
    want = (2 * e + 1) * r ** 2 / (e ** 2 * (e + 1) ** 2)
    got = _ratio_shift(e, r)
    if math.isfinite(want):
        assert repr(got) == repr(want)   # the same bits, signed zeros too
    else:   # inf / inf: the products overflow, the shift does not
        assert math.isfinite(got) and got == pytest.approx(_exact_shift(e, r), rel=1e-14)


@pytest.mark.parametrize("e,r", [(2e154, 1.0), (2e154, 1e300), (-3e200, 7e250),
                                 (1e300, 1e300), (-1e300, -1.0), (-1e200, 1e308)])
def test_ratio_shift_stays_finite_past_the_overflow(e, r):
    exact, got = _exact_shift(e, r), _ratio_shift(e, r)
    assert math.isfinite(got)
    assert abs(got - exact) <= 1e-14 * abs(exact) + 1e-300, (got, exact)
