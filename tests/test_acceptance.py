"""Acceptance gate: ten criteria, one test and one pass/fail line each.

Every criterion runs at its stated tolerance against the library's public
surface.  Random draws are seeded so reruns are bit-for-bit identical;
draw boxes are chosen so the folded parameters stay valid for the build
and for one translation step.
"""

import math
import random
import time

import numpy as np
import pytest

from shapeinv import specfun
from shapeinv import extensions as ext
from shapeinv.errors import NumericalError
from shapeinv.families import (
    ConstructionData,
    Coupling,
    build_family,
    classic_reconstruction,
    construction_remainder,
    family_ids,
    remainder,
)
from shapeinv.invariants import (
    ParamVector,
    _num_literal,
    check_invariance,
    eval_invariant,
    parse_invariant,
    verify_invariant,
)
from shapeinv.spectra import admissible_range, eigenenergy, wavefunction
from shapeinv.verify import (
    OracleSpec,
    fd_spectrum,
    ladder_check,
    orthonormality,
    reference_oracle,
    schrodinger_residual,
    si_residual,
)

TRIV = verify_invariant(parse_invariant("1"), 1)


def report(num: int, name: str, ok: bool, detail: str):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def mk(fid: str, eps: float, rho: float):
    """One trivial coupling tuned to land the fold on (eps, rho)."""
    from shapeinv import families as F
    fold = F.get_spec(fid).fold
    if fold in (F._FOLD_BETA_MEAN, F._FOLD_BETA_MEAN_NEG):
        data = ConstructionData(p=ParamVector((eps,)),
                                couplings=(Coupling(TRIV, 0.0, rho),))
    elif fold == F._FOLD_D_MEAN:
        data = ConstructionData(p=ParamVector((eps,)),
                                couplings=(Coupling(TRIV, 2.0 * rho, 0.0),))
    elif fold == F._FOLD_SLOPE:
        data = ConstructionData(p=ParamVector((0.0,)),
                                couplings=(Coupling(TRIV, eps, rho),))
    else:
        data = ConstructionData(p=ParamVector((eps,)),
                                couplings=(Coupling(TRIV, 0.0, 0.0),),
                                rho_invariant=verify_invariant(
                                    parse_invariant(_num_literal(float(rho))), 1))
    return build_family(fid, data)


def draw_family(fid: str, rng: random.Random):
    """Random valid parameters, safe for one translation step."""
    u = rng.uniform
    if fid == "scarf2":
        return mk(fid, u(1.2, 4.0), u(-2.0, 2.0))
    if fid == "poschl-teller":
        e = u(1.2, 3.0)
        return mk(fid, e, e - 0.5 + u(0.2, 2.0))
    if fid == "morse":
        return mk(fid, u(1.2, 4.0), u(0.3, 3.0))
    if fid == "morse-mirror":
        return mk(fid, u(1.2, 4.0), u(-3.0, -0.3))
    if fid == "radial-osc":
        return mk(fid, u(-2.0, 0.45), u(0.3, 3.0))
    if fid == "harm-osc":
        return mk(fid, u(0.3, 3.0), u(-2.0, 2.0))
    if fid in ("scarf1", "scarf1-cot"):
        e = u(-1.5, 0.4)
        return mk(fid, e, 0.9 * u(-1.0, 1.0) * (1 - 2 * e) / 2)
    if fid == "rosen-morse2":
        e = u(2.0, 4.0)
        return mk(fid, e, 0.8 * (e - 1) ** 2 * u(-1.0, 1.0))
    if fid == "eckart":
        e = u(-2.5, -0.7)
        return mk(fid, e, -((1 - e) ** 2) * (1.1 + u(0.0, 1.0)))
    if fid == "coulomb":
        return mk(fid, u(-3.0, -0.5), u(-3.0, -0.2))
    # rosen-morse1, rosen-morse1-cot
    return mk(fid, u(-2.2, -0.2), u(-2.0, 2.0))


FIX = {
    "scarf2": (3.4, 0.7), "poschl-teller": (3.4, 3.9),
    "morse": (3.4, 1.0), "morse-mirror": (3.4, -1.0),
    "radial-osc": (-0.5, 1.0), "harm-osc": (1.0, 0.3),
    "scarf1": (-0.3, 0.1), "scarf1-cot": (-0.3, 0.1),
    "rosen-morse2": (4.0, 1.0), "eckart": (-1.5, -20.0),
    "coulomb": (-1.5, -0.75),
    "rosen-morse1": (-0.3, 0.5), "rosen-morse1-cot": (-0.3, 0.5),
}


def test_criterion_01_shape_invariance_suite():
    t0 = time.perf_counter()
    worst = 0.0
    worst_at = ""
    for fid in family_ids():
        rng = random.Random(f"si:{fid}")
        for _ in range(16):
            fp = draw_family(fid, rng)
            res = si_residual(fp).max_residual
            if res > worst:
                worst, worst_at = res, f"{fid} eps={fp.eps:.3g} rho={fp.rho:.3g}"
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 10.0
    report(1, "shape-invariance suite 13x16", ok,
           f"max residual {worst:.3e} at {worst_at}, {elapsed:.1f}s")


def test_criterion_02_remainder_cross_check():
    linear = [fid for fid in family_ids()
              if fid not in ("rosen-morse2", "eckart", "coulomb",
                             "rosen-morse1", "rosen-morse1-cot")]
    worst = 0.0
    for fid in linear:
        rng = random.Random(f"rem:{fid}")
        for _ in range(16):
            fp = draw_family(fid, rng)
            worst = max(worst, abs(remainder(fp) - construction_remainder(fp)))
    ok = worst <= 1e-12
    report(2, "remainder equals construction formula", ok,
           f"max |difference| {worst:.3e} over {len(linear)} families")


def test_criterion_03_fd_oracle_agreement():
    t0 = time.perf_counter()
    # the scarf2 k=3 state decays like sech(x)**0.2; the default box is
    # sized from the ground state and clips it, so that job gets its own.
    jobs = [(mk("harm-osc", 1.0, 0.0), None), (mk("morse", 2.5, 1.0), None),
            (mk("scarf2", 3.2, 0.4), OracleSpec(-20.0, 20.0, 3000)),
            (mk("radial-osc", -0.5, 1.0), None)]
    worst = 0.0
    for fp, spec in jobs:
        ks = admissible_range(fp).levels(3)[1:]
        lam = fd_spectrum(fp, spec or reference_oracle(fp), max(ks) + 1)
        for k in ks:
            dev = abs((lam[k] - lam[0]) - eigenenergy(fp, k))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-3 and elapsed <= 30.0
    report(3, "FD oracle eigenvalue gaps", ok,
           f"max |gap - E_k| {worst:.3e}, {elapsed:.1f}s")


def count_nodes(wf, xs) -> int:
    vals = np.asarray(wf(xs))
    signs = np.sign(vals[np.abs(vals) > 1e-9 * np.max(np.abs(vals))])
    return int(np.sum(signs[1:] != signs[:-1]))


def test_criterion_04_eigenfunction_suite():
    worst_norm = worst_gram = worst_schro = worst_imag = 0.0
    nodes_ok = True
    for fid in family_ids():
        fp = mk(fid, *FIX[fid])
        levels = admissible_range(fp).levels(3)
        gram = orthonormality(fp, 3)
        worst_gram = max(worst_gram, gram.max_deviation)
        for i, j, val in gram.entries:
            if i == j:
                worst_norm = max(worst_norm, abs(val - 1.0))
        # coulomb's k=3 outer node sits near x = 27.5: keep the window wide
        lo, hi = fp.domain.clipped()
        xs = np.linspace(max(lo, -40.0), min(hi, 40.0), 4001)
        for k in levels:
            worst_schro = max(worst_schro, schrodinger_residual(fp, k).max_residual)
            wf = wavefunction(fp, k)
            if count_nodes(wf, xs) != k:
                nodes_ok = False
            worst_imag = max(worst_imag, wf.imag_residue(xs))
    ok = (worst_norm <= 1e-6 and worst_gram <= 1e-6
          and worst_schro <= 1e-5 and nodes_ok and worst_imag <= 1e-9)
    report(4, "eigenfunction suite (norm/orth/residual/nodes/imag)", ok,
           f"norm {worst_norm:.2e}, gram {worst_gram:.2e}, "
           f"schrodinger {worst_schro:.2e}, nodes {'ok' if nodes_ok else 'BAD'}, "
           f"imag {worst_imag:.2e}")


def test_criterion_05_ladder_consistency():
    worst = 0.0
    count = 0
    for fid in family_ids():
        fp = mk(fid, *FIX[fid])
        top = admissible_range(fp).max_k
        if top is not None and top < 2:
            continue
        for k in (1, 2):
            worst = max(worst, ladder_check(fp, k).max_residual)
            count += 1
    ok = worst <= 1e-5
    report(5, "ladder intertwining residuals", ok,
           f"max residual {worst:.3e} over {count} checks")


def extension_box(case: int, rng: random.Random):
    """One raw (eps, rho, ell) draw from the criterion 06 box of a case."""
    u = rng.uniform
    pick = rng.choice
    if case == 1:
        e, r, l = u(1.6, 4.0), u(-3.0, -0.2), None
    elif case == 2:
        e, r, l = u(0.6, 1.6), u(-3.5, -2.2), pick((1, 2, 3))
    elif case == 3:
        l = pick((1, 2, 3))
        e = u(0.2, 1.2)
        r = -(l + e + 0.7) - u(0.0, 1.8)
    elif case == 4:
        e, r, l = u(1.6, 4.0), u(-3.0, -0.3), None
    elif case == 5:
        e, r, l = u(-2.5, -0.7), u(0.3, 3.0), pick((1, 2, 3))
    elif case in (6, 7):
        e, r, l = u(0.8, 3.0), 0.0, pick((1, 2, 3))
    elif case == 8:
        e, r, l = u(2.2, 4.0), u(-0.5, 0.5), None
    elif case == 9:
        l = pick((1, 2))
        e = u(0.3, 1.2)
        r = 0.7 * u(-1.0, 1.0) * (1 + 2 * l + 2 * e) / 2
    elif case == 10:
        e, r, l = u(2.2, 3.4), pick((-1, 1)) * u(0.05, 0.4), pick((1, 2))
    else:
        e, r, l = u(0.5, 2.5), u(-2.0, 2.0), pick((1, 2, 3))
    return e, r, l


def draw_extension(case: int, rng: random.Random):
    while True:
        e, r, l = extension_box(case, rng)
        fold = ext.CASE_SPECS[case].fold
        if fold in (ext._FOLD_PLUS_BETA, ext._FOLD_MINUS_BETA):
            c = Coupling(TRIV, 0.0, r)
        elif fold == ext._FOLD_D:
            c = Coupling(TRIV, 2.0 * r, 0.0)
        else:
            c = Coupling(TRIV, 0.0, 0.0)
        data = ConstructionData(p=ParamVector((e,)), couplings=(c,))
        try:
            return ext.build_extension(case, data, ell=l)
        except NumericalError:
            continue  # scan rejected the window; redraw


def test_criterion_06_extension_suite():
    t0 = time.perf_counter()
    worst2 = worst1 = worst_si = 0.0
    for case in sorted(ext.CASE_SPECS):
        rng = random.Random(f"ext:{case}")
        for _ in range(16):
            spec = draw_extension(case, rng)
            worst2 = max(worst2, ext.check_cond2(spec).max_residual)
            worst1 = max(worst1, ext.check_cond1(spec).max_residual)
            worst_si = max(worst_si, ext.extended_si_check(spec).max_residual)
    elapsed = time.perf_counter() - t0
    ok = (worst2 <= 1e-10 and worst1 <= 1e-8 and worst_si <= 1e-7
          and elapsed <= 60.0)
    report(6, "extension suite 11x16 (cond2/cond1/ext-SI)", ok,
           f"cond2 {worst2:.2e}, cond1 {worst1:.2e}, ext-SI {worst_si:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_07_two_parameter_reconstruction():
    rng = random.Random("recon")
    worst = 0.0
    for _ in range(8):
        m1 = rng.uniform(-3.0, 3.0)
        m2 = rng.uniform(-3.0, 3.0)
        xs = np.linspace(0.05, 3.0, 1001)
        lhs, rhs = classic_reconstruction("pt2", m1, m2, xs)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        xs = np.linspace(0.05, math.pi / 2 - 0.05, 1001)
        lhs, rhs = classic_reconstruction("pt1", m1, m2, xs)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    # swap test: a value-matched different invariant leaves the table alone
    p = ParamVector((1.7, 3.3))
    couple = lambda src: ConstructionData(
        p=p, couplings=(Coupling(verify_invariant(parse_invariant(src), 2),
                                 beta=0.0, d=1.5),))
    fa = build_family("poschl-teller", couple("m2-m1"))
    fb = build_family("poschl-teller", couple("1.6"))
    ka = admissible_range(fa).levels(4)
    swap_same = (ka == admissible_range(fb).levels(4)
                 and all(eigenenergy(fa, k) == eigenenergy(fb, k) for k in ka))
    ok = worst <= 1e-12 and swap_same
    report(7, "two-parameter reconstruction + invariant swap", ok,
           f"max |lhs-rhs| {worst:.3e} over 8 draws, swap "
           f"{'unchanged' if swap_same else 'CHANGED'}")


def test_criterion_08_worked_examples():
    # one parameter, periodic invariant
    src = "sin(2*pi*m1)^2+cos(2*pi*m1)+1"
    beta1, d1 = 0.05, 0.1
    p = ParamVector((0.2,))
    expr = verify_invariant(parse_invariant(src), 1)
    data = ConstructionData(p=p, couplings=(Coupling(expr, beta1, d1),))
    fp = build_family("scarf1", data)
    i1 = eval_invariant(expr, p)
    e1 = eigenenergy(fp, 1)
    one_ok = abs(e1 - 0.821353) <= 1e-6
    formula_worst = max(
        abs(eigenenergy(fp, k) - (k - 2 * (0.2 - beta1 * i1)) * k)
        for k in admissible_range(fp).levels(6))

    # three parameters, one random draw
    rng = random.Random("three-param")
    src3 = "sin(2*pi*M)+sin(M-m1)^2+sin(M-m2)^2+cos(M-m3)^2"
    expr3 = verify_invariant(parse_invariant(src3), 3)
    while True:
        m = tuple(rng.uniform(-0.4, 0.4) for _ in range(3))
        p3 = ParamVector(m)
        data3 = ConstructionData(p=p3, couplings=(Coupling(expr3, beta1, d1),))
        try:
            fp3 = build_family("scarf1", data3)
            break
        except Exception:
            continue
    i3 = eval_invariant(expr3, p3)
    mean = p3.mean
    three_worst = max(
        abs(eigenenergy(fp3, k) - k * (k - 2 * mean + 2 * beta1 * i3))
        for k in admissible_range(fp3).levels(6))
    ok = one_ok and formula_worst <= 1e-12 and three_worst <= 1e-12
    report(8, "worked examples (periodic and three-parameter)", ok,
           f"E_1 = {e1:.9f} (target 0.821353), one-param formula "
           f"{formula_worst:.2e}, three-param formula {three_worst:.2e}")


DSL_EXPRESSIONS = [
    "1", "0.5", "pi", "e", "m1-m2", "m2-m1", "(m1-m2)^2", "abs(m1-m2)",
    "sin(2*pi*m1)", "cos(2*pi*m1)", "tan(pi*m1)*0+1", "sin(2*pi*m1)^2",
    "sin(2*pi*m1)^2+cos(2*pi*m1)+1", "cos(2*pi*M)", "sin(2*pi*M)^2",
    "exp(-(m1-m2)^2)", "exp(sin(2*pi*m1))", "ln(2+cos(2*pi*m1))",
    "sqrt(2+sin(2*pi*m2))", "tanh(m1-m2)", "sinh(m1-m2)-sinh(m2-m1)",
    "cosh(m1-m3)", "1/(2+sin(2*pi*m1))", "(m1-m2)*(m2-m3)",
    "(m1-m2)/(1+(m2-m3)^2)", "2^(m1-m2)", "(m1-m2)^3", "-(m1-m2)",
    "sin(2*pi*m1)*cos(2*pi*m2)", "sin(2*pi*(m1-m2))",
    "cos(2*pi*M)^2+sin(2*pi*M)^2", "abs(sin(pi*m1))*0+2",
    "sin(M-m1)^2", "cos(M-m2)^2", "sin(2*pi*M)+sin(M-m1)^2",
    "sin(2*pi*M)+sin(M-m1)^2+sin(M-m2)^2+cos(M-m3)^2",
    "1+2+3", "2*pi", "pi^2", "e^2", "sqrt(abs(m1-m2))+1",
    "(m1-m2)^2/(1+abs(m1-m3))", "tanh((m1-m2)*(m2-m3))",
    "exp(-(M-m1)^2)", "ln(e)", "sin(2*pi*m1+pi)", "cos(2*pi*m1-pi)",
    "0.25*(m1-m2)^2", "sin(4*pi*m1)", "cos(6*pi*m2)",
]


def test_criterion_09_dsl_suite():
    assert len(DSL_EXPRESSIONS) == 50
    rng = random.Random("dsl")
    round_trip_ok = True
    for src in DSL_EXPRESSIONS:
        e1 = parse_invariant(src)
        e2 = parse_invariant(e1.source)
        if e2.source != e1.source:
            round_trip_ok = False
            break
        p = ParamVector(tuple(rng.uniform(-2, 2) for _ in range(3)))
        if abs(eval_invariant(e1, p) - eval_invariant(e2, p)) > 1e-12:
            round_trip_ok = False
            break
    verified_all = all(check_invariance(parse_invariant(src), 3).verified
                       for src in DSL_EXPRESSIONS)
    res = check_invariance(parse_invariant("m1"), 1)
    reject_ok = (not res.verified and res.violation is not None
                 and res.violation.delta > 1e-9)
    ok = round_trip_ok and verified_all and reject_ok
    report(9, "DSL round-trip/verify/reject", ok,
           f"50 round-trips {'ok' if round_trip_ok else 'BAD'}, all verified "
           f"{verified_all}, m1 rejected with delta "
           f"{res.violation.delta if res.violation else 'none'}")


def binom(x, j: int) -> float:
    out = 1.0
    for i in range(j):
        out *= (x - i) / (j - i)
    return out


def test_criterion_10_special_function_suite():
    rng = random.Random("specfun")
    worst = 0.0
    for _ in range(200):
        k = rng.randrange(0, 13)
        a, b, z = (rng.uniform(-3, 3) for _ in range(3))
        series = sum(binom(k + a, k - s) * binom(k + b, s)
                     * ((z - 1) / 2) ** s * ((z + 1) / 2) ** (k - s)
                     for s in range(k + 1))
        worst = max(worst, abs(specfun.jacobi_p(k, a, b, z) - series)
                    / (1 + abs(series)))
        series = sum((-1.0) ** s * binom(k + a, k - s) * z ** s / math.factorial(s)
                     for s in range(k + 1))
        worst = max(worst, abs(specfun.laguerre_l(k, a, z) - series)
                    / (1 + abs(series)))
        series = math.factorial(k) * sum(
            (-1.0) ** s * (2 * z) ** (k - 2 * s)
            / (math.factorial(s) * math.factorial(k - 2 * s))
            for s in range(k // 2 + 1))
        worst = max(worst, abs(specfun.hermite_h(k, z) - series)
                    / (1 + abs(series)))
    gamma_worst = 0.0
    for i in range(50):
        y = -6.0 + i * (12.0 / 49.0)
        want = math.sqrt(math.pi / math.cosh(math.pi * y))
        got = specfun.gamma_abs_complex(complex(0.5, y))
        gamma_worst = max(gamma_worst, abs(got - want) / want)
    ok = worst <= 1e-11 and gamma_worst <= 1e-10
    report(10, "special functions vs series + gamma identity", ok,
           f"polynomials {worst:.2e}, gamma modulus {gamma_worst:.2e}")
