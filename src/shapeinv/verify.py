"""Independent numerical oracles.

Nothing in here trusts the closed-form spectra: the grid residual engine,
the adaptive quadrature, and the finite-difference eigensolver only consume
evaluable callables, so they can sit on the other side of every identity
the library claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import families, spectra
from .errors import NumericalError, NonConvergence, ValidationError
from .families import FamilyParams


@dataclass(frozen=True)
class GridReport:
    max_residual: float
    mean_residual: float
    argmax_x: float
    points_used: int
    points_excluded: int


@dataclass(frozen=True)
class LadderReport(GridReport):
    # +1 if A+ zeta_{k-1} matched +sqrt(E_k) zeta_k, -1 for the flipped sign
    sign: int = 1


@dataclass(frozen=True)
class OracleSpec:
    """Dirichlet truncation box for the finite-difference solver."""

    a: float
    b: float
    n: int = 3000

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValidationError("oracle interval must be finite with a < b")
        if self.n < 500:
            raise ValidationError(f"oracle grid size must be >= 500, got {self.n}")


@dataclass(frozen=True)
class GramReport:
    """Pairwise overlap deviations from the identity matrix."""

    levels: tuple
    max_deviation: float
    entries: tuple  # ((i, j, <zeta_i, zeta_j>), ...)


def _report(xs: np.ndarray, res: np.ndarray, excluded: int) -> GridReport:
    idx = int(np.argmax(res))
    return GridReport(
        max_residual=float(res[idx]),
        mean_residual=float(np.mean(res)),
        argmax_x=float(xs[idx]),
        points_used=int(res.size),
        points_excluded=int(excluded),
    )


def check_grid(grid) -> tuple[float, float, int]:
    """A check grid (a, b, N) with finite ends, a < b and N >= 3."""
    a, b, n = grid
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValidationError(f"check grid must be finite with a < b, got ({a}, {b})")
    if n < 3:
        raise ValidationError(f"check grid needs at least 3 points, got {n}")
    return a, b, int(n)


def default_grid(fp: FamilyParams, n: int = 2001) -> tuple[float, float, int]:
    """Family plotting window intersected with the clipped domain."""
    clo, chi = fp.domain.clipped()
    wlo, whi = fp.spec.window
    lo = wlo if not math.isfinite(clo) else max(wlo, clo)
    hi = whi if not math.isfinite(chi) else min(whi, chi)
    return (lo, hi, n)


def si_residual(fp: FamilyParams, grid=None) -> GridReport:
    """Partner-vs-translated residual of the shape-invariance identity.

    Scaled pointwise by 1/(1 + |V(x)|) of the translated build, so the
    bound reads as a relative tolerance.
    """
    down = families.translate_family(fp, 1)
    shift = families.remainder(down)
    a, b, n = check_grid(grid if grid is not None else default_grid(fp))
    xs = np.linspace(a, b, n)
    clo, chi = fp.domain.clipped()
    keep = (xs >= clo) & (xs <= chi)
    excluded = int(n - keep.sum())
    if excluded == n:
        raise ValidationError("grid lies entirely outside the clipped domain")
    xs = xs[keep]
    _, v_plus = families.partner_potentials(fp, xs)
    v_down, _ = families.partner_potentials(down, xs)
    res = np.abs(v_plus - v_down - shift) / (1.0 + np.abs(v_down))
    return _report(xs, res, excluded)


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre quadrature

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)

_TAIL_REL = 1e-16
_MAX_DEPTH = 30


def _gl_panel(f, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * _GL_X
    return float(half * np.sum(_GL_W * np.asarray(f(xs), dtype=float)))


def _adapt(f, a: float, b: float, budget: float, depth: int) -> float:
    coarse = _gl_panel(f, a, b)
    mid = 0.5 * (a + b)
    fine = _gl_panel(f, a, mid) + _gl_panel(f, mid, b)
    if abs(fine - coarse) <= max(budget, 1e-16 * abs(fine)):
        return fine
    if depth >= _MAX_DEPTH:
        raise NonConvergence(
            f"quadrature failed to settle on [{a:.6g}, {b:.6g}] after depth {_MAX_DEPTH}")
    return (_adapt(f, a, mid, budget / 2, depth + 1)
            + _adapt(f, mid, b, budget / 2, depth + 1))


def _peak_sample(f, lo: float, hi: float) -> float:
    a = lo if math.isfinite(lo) else min(-4.0, hi - 1.0) if math.isfinite(hi) else -4.0
    b = hi if math.isfinite(hi) else max(4.0, lo + 1.0) if math.isfinite(lo) else 4.0
    if math.isfinite(lo) and not math.isfinite(hi):
        b = lo + max(8.0, 2 * abs(lo) + 1.0)
    if math.isfinite(hi) and not math.isfinite(lo):
        a = hi - max(8.0, 2 * abs(hi) + 1.0)
    width = b - a
    xs = np.linspace(a + 1e-9 * width, b - 1e-9 * width, 257)
    vals = np.abs(np.asarray(f(xs), dtype=float))
    peak = float(np.max(vals[np.isfinite(vals)], initial=0.0))
    return peak if peak > 0 else 1.0


def _march_tail(f, start: float, direction: float, thresh: float) -> float:
    t = start
    quiet = 0
    while quiet < 3:
        t = t * 1.3 if t * direction > 1 else t + direction
        if abs(t) > 1e9:
            raise NonConvergence("tail truncation point not found below |x| = 1e9")
        if abs(float(np.max(np.abs(np.asarray(f(np.array([t]))))))) <= thresh:
            quiet += 1
        else:
            quiet = 0
    return t


def _seed_panels(a: float, b: float, grade_lo: bool, grade_hi: bool) -> list:
    """Breakpoints, geometrically graded toward originally-finite endpoints.

    Integrable power-law steepness at an endpoint defeats plain bisection
    (the local budget shrinks faster than the panel error), so the mesh is
    pre-refined down to ~1e-15 of the width there; each cell is then smooth
    enough for the adaptive rule.
    """
    width = b - a
    cuts = {a, b}
    if grade_lo:
        cuts.update(a + width * 0.5 ** j for j in range(1, 51))
    if grade_hi:
        cuts.update(b - width * 0.5 ** j for j in range(1, 51))
    return sorted(cuts)


def quadrature(f: Callable, domain, tol: float = 1e-10) -> float:
    """Adaptive composite Gauss-Legendre integral of f over the domain.

    Infinite tails are truncated where |f| stays below 1e-16 of its sampled
    peak; panels split until the local budget is met or depth 30 trips
    NonConvergence.
    """
    if isinstance(domain, families.Domain):
        a, b = domain.lo, domain.hi
    else:
        a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise ValidationError("quadrature domain must satisfy a < b")
    thresh = _TAIL_REL * _peak_sample(f, a, b)
    grade_lo, grade_hi = math.isfinite(a), math.isfinite(b)
    if not grade_hi:
        b = _march_tail(f, max(1.0, a + 1.0 if grade_lo else 1.0), +1.0, thresh)
    if not grade_lo:
        a = _march_tail(f, min(-1.0, b - 1.0), -1.0, thresh)
    cuts = _seed_panels(a, b, grade_lo, grade_hi)
    # the outermost graded sliver (width 2^-50 of the span) carries ~1e-17
    # of any integrable mass but its nodes round onto the endpoint; drop it
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


# ---------------------------------------------------------------------------
# finite-difference Schrödinger oracle

def _potential_of(target) -> Callable:
    if isinstance(target, FamilyParams):
        return lambda x: families.partner_potentials(target, x)[0]
    pot = getattr(target, "potential", None)
    if pot is not None:
        return pot
    if callable(target):
        return target
    raise ValidationError(
        "fd_spectrum target must be a FamilyParams, an extension, or a callable")


def _sturm_counts(diag: np.ndarray, off2: float, lams: np.ndarray) -> np.ndarray:
    """Number of Dirichlet eigenvalues strictly below each lambda."""
    tiny = 1e-300
    lams = np.asarray(lams, dtype=float)
    d = diag[0] - lams
    d[d == 0.0] = -tiny
    counts = (d < 0).astype(int)
    # one pass over the matrix for all lambdas; the buffers are reused so
    # the per-row cost is a handful of numpy calls and no allocation
    quot = np.empty_like(d)
    neg = np.empty(d.shape, dtype=bool)
    # near-zero pivots overflow the quotient; the sign logic still holds
    with np.errstate(over="ignore", divide="ignore"):
        for a in diag[1:].tolist():
            np.divide(off2, d, out=quot)
            np.subtract(a, lams, out=d)
            d -= quot
            if not d.all():
                d[d == 0.0] = -tiny
            np.less(d, 0.0, out=neg)
            counts += neg
    return counts


# interior sample points of each bracket per Sturm sweep; a sweep costs one
# Python-level pass over the matrix whatever the number of points, so the
# bracket shrinks 65-fold for about the price of one bisection step
_MULTISECTION = np.arange(1, 65) / 65.0


def fd_spectrum(target, oracle: OracleSpec, count: int) -> list:
    """Lowest eigenvalues of -d²/dx² + V on [a, b] with Dirichlet walls.

    Symmetric second-order tridiagonal discretization; eigenvalues located
    from Sturm counts by bracketed multisection, independent of every
    closed-form result.  The first sweep samples a geometric ladder above
    the Gershgorin floor, which brackets every level however wide the
    Gershgorin span; each later sweep samples 64 interior points of every
    bracket, until the widest bracket is within 1e-11 (1 + max |lambda|).
    """
    if count < 1:
        raise ValidationError("eigenvalue count must be >= 1")
    pot = _potential_of(target)
    h = (oracle.b - oracle.a) / (oracle.n - 1)
    xs = oracle.a + h * np.arange(1, oracle.n - 1)
    v = np.asarray(pot(xs), dtype=float)
    if not np.all(np.isfinite(v)):
        bad = xs[~np.isfinite(v)][0]
        raise NumericalError(f"potential is not finite on the oracle grid (x={bad:.6g})")
    diag = 2.0 / h ** 2 + v
    off2 = 1.0 / h ** 4
    lo = float(np.min(diag)) - 2.0 / h ** 2
    hi = float(np.max(diag)) + 2.0 / h ** 2
    # no level lies below lo + the lowest level of the bare discrete
    # Laplacian, so the ladder starts there and doubles up to hi
    step = (2.0 / h * math.sin(0.5 * math.pi / (oracle.n - 1))) ** 2
    ladder = lo + step * 2.0 ** np.arange(int(math.log2((hi - lo) / step)) + 1)
    pts = ladder[None, ladder < hi]
    los = np.full(count, lo)
    his = np.full(count, hi)
    targets = np.arange(count)[:, None]
    rows = np.arange(count)
    for _ in range(200):
        cnt = _sturm_counts(diag, off2, pts)
        # the first sample with more than k levels below it (else the old
        # upper end) closes bracket k: count(lo) <= k < count(hi) holds
        # even if rounding makes the counts non-monotone
        j = np.argmax(np.column_stack((cnt > targets, np.ones(count, dtype=bool))), axis=1)
        edges = np.column_stack((los, np.broadcast_to(pts, (count, pts.shape[1])), his))
        los, his = edges[rows, j], edges[rows, j + 1]
        mids = 0.5 * (los + his)
        if float(np.max(his - los)) <= 1e-11 * (1.0 + float(np.max(np.abs(mids)))):
            break
        pts = los[:, None] + (his - los)[:, None] * _MULTISECTION
    return [float(x) for x in mids]


def reference_oracle(fp: FamilyParams, n: int = 3000) -> OracleSpec:
    """Truncation box sized from the ground-state footprint.

    Infinite ends are cut where zeta_0 drops below 1e-12 of its peak
    (never tighter than the family's oracle floor, |x| = 8, or 25 for the
    slow exponential families); singular finite ends sit at the domain
    clip margin.
    """
    dom = fp.domain
    wf0 = spectra.wavefunction(fp, 0)
    floor = fp.spec.oracle_floor
    lo_fin, hi_fin = math.isfinite(dom.lo), math.isfinite(dom.hi)
    ga = dom.lo + dom.delta if lo_fin else -0.6 * floor
    gb = dom.hi - dom.delta if hi_fin else 0.6 * floor
    peak = float(np.max(np.abs(wf0(np.linspace(ga, gb, 129)))))

    def cut(direction: float) -> float:
        t = floor
        while t < 200.0:
            if float(np.abs(wf0(np.array([direction * t]))[0])) <= 1e-12 * peak:
                break
            t *= 1.25
        return direction * t

    a = dom.lo + dom.delta if lo_fin else cut(-1.0)
    b = dom.hi - dom.delta if hi_fin else cut(+1.0)
    if fp.id == "radial-osc":
        # critical-coupling calibration: a Dirichlet wall at any a >= 0
        # drags the 1/x² limit-circle extension away from the closed-form
        # states; the offset -0.3h keeps the discrete gaps on 4*rho*k.
        # V is only sampled at the interior nodes a + i*h > 0.
        a = -0.3 * b / (n - 1.3)
    return OracleSpec(a=a, b=b, n=n)


# ---------------------------------------------------------------------------
# ladder and state diagnostics

def _deriv5(f, xs: np.ndarray, h) -> np.ndarray:
    return (np.asarray(f(xs - 2 * h)) - 8 * np.asarray(f(xs - h))
            + 8 * np.asarray(f(xs + h)) - np.asarray(f(xs + 2 * h))) / (12 * h)


def _second5(f, xs: np.ndarray, h) -> np.ndarray:
    return (-np.asarray(f(xs - 2 * h)) + 16 * np.asarray(f(xs - h))
            - 30 * np.asarray(f(xs)) + 16 * np.asarray(f(xs + h))
            - np.asarray(f(xs + 2 * h))) / (12 * h ** 2)


def stencil_grid(fp: FamilyParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation grid plus per-point steps for the 5-point stencils.

    Steps shrink in proportion to the distance from finite domain ends,
    where the states' higher derivatives blow up like powers of that
    distance; a fixed step would lose four orders of accuracy there.
    """
    a, b, _ = default_grid(fp, n)
    width = b - a
    h0 = 1e-3 * min(1.0, width / 6.0)
    xs = np.linspace(a + 2.5 * h0, b - 2.5 * h0, n)
    h = np.full(n, h0)
    dom = fp.domain
    if math.isfinite(dom.lo):
        h = np.minimum(h, 0.02 * (xs - dom.lo))
    if math.isfinite(dom.hi):
        h = np.minimum(h, 0.02 * (dom.hi - xs))
    return xs, h


def ladder_check(fp: FamilyParams, k: int, n: int = 801) -> LadderReport:
    """Residual of the intertwining step (-d/dx + k)zeta_{k-1}^down vs sqrt(E_k) zeta_k.

    The closed forms fix phases only up to a sign, so both signs are tried
    and the better one is reported.
    """
    if k < 1:
        raise ValidationError("ladder_check needs k >= 1")
    down = families.translate_family(fp, 1)
    lower = spectra.wavefunction(down, k - 1)
    upper = spectra.wavefunction(fp, k)
    energy = spectra.eigenenergy(fp, k)
    xs, h = stencil_grid(fp, n)
    w, _ = families.superpotential(fp, xs)
    raised = -_deriv5(lower, xs, h) + w * np.asarray(lower(xs))
    rhs = math.sqrt(energy) * np.asarray(upper(xs))
    scale = 1.0 + np.abs(rhs)
    res_plus = np.abs(raised - rhs) / scale
    res_minus = np.abs(raised + rhs) / scale
    if float(np.max(res_plus)) <= float(np.max(res_minus)):
        res, sign = res_plus, 1
    else:
        res, sign = res_minus, -1
    base = _report(xs, res, 0)
    return LadderReport(**base.__dict__, sign=sign)


def schrodinger_residual(fp: FamilyParams, k: int, n: int = 1501) -> GridReport:
    """Pointwise residual of -zeta'' + (V - E_k) zeta via a 5-point stencil."""
    state = spectra.wavefunction(fp, k)
    energy = spectra.eigenenergy(fp, k)
    xs, h = stencil_grid(fp, n)
    v, _ = families.partner_potentials(fp, xs)
    drive = (v - energy) * np.asarray(state(xs))
    res = np.abs(-_second5(state, xs, h) + drive) / (1.0 + np.abs(drive))
    return _report(xs, res, 0)


def orthonormality(fp: FamilyParams, kmax: int, tol: float = 1e-9) -> GramReport:
    """Quadrature Gram matrix of the states up to kmax against the identity."""
    levels = spectra.admissible_range(fp).levels(kmax)
    if not levels:
        raise ValidationError(f"family {fp.id!r} has no admissible levels")
    states = [spectra.wavefunction(fp, k) for k in levels]
    dom = fp.domain
    entries = []
    worst = 0.0
    for i, ki in enumerate(levels):
        for j in range(i, len(levels)):
            fi, fj = states[i], states[j]
            val = quadrature(lambda x: fi(x) * fj(x), dom, tol)
            want = 1.0 if i == j else 0.0
            worst = max(worst, abs(val - want))
            entries.append((ki, levels[j], val))
    return GramReport(levels=tuple(levels), max_deviation=worst, entries=tuple(entries))


def report_json(fp, report: GridReport, grid) -> dict:
    """Stable JSON shape for residual reports of a family or an extension."""
    a, b, n = grid
    if isinstance(fp, FamilyParams):
        name, params = fp.id, {"eps": fp.eps, "rho": fp.rho, "beta": fp.beta}
    else:
        name, params = fp.ext_id, {"eps": fp.eps, "rho": fp.rho, "ell": fp.ell}
    out = {
        "family": name,
        "params": params,
        "residual_max": report.max_residual,
        "residual_mean": report.mean_residual,
        "argmax_x": report.argmax_x,
        "grid": {"a": a, "b": b, "N": n},
    }
    if isinstance(report, LadderReport):
        out["sign"] = report.sign
    return out
