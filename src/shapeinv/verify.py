"""Independent numerical oracles, and the checks built on them.

The grid residual engine, the adaptive quadrature and the finite-difference
eigensolver (`fd_spectrum`) only consume evaluable callables, so they can
sit on the other side of every identity the library claims.  Two places
read a closed form: `reference_oracle` sizes the FD box on an infinite end
from the ground state zeta_0 (`spectra.wavefunction(fp, 0)`; ROADMAP item
11 replaces that cut with one read from V alone), and the state checks
`ladder_check`, `schrodinger_residual` and `orthonormality` read the closed
forms they check.  The quadrature calls its integrand on the nodes of many
panels at once: an integrand maps a 1-D array of any length to values
broadcast to that shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import families, spectra
from .errors import NumericalError, NonConvergence, ValidationError
from .families import FamilyParams

# The most points a check grid or an FD box may take.  Each holds a few
# arrays of N floats (8 MB an array at the cap); no caller needs more than a
# few thousand, and an N near 1e9 would allocate gigabytes before any check.
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class GridReport:
    max_residual: float
    mean_residual: float
    argmax_x: float
    points_used: int
    grid: tuple  # (first x, last x, count) of the points that ran


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
        if self.n > MAX_GRID_POINTS:
            raise ValidationError(f"oracle grid size must be <= {MAX_GRID_POINTS}, got {self.n}")


@dataclass(frozen=True)
class GramReport:
    """Pairwise overlap deviations from the identity matrix."""

    levels: tuple
    max_deviation: float
    entries: tuple  # ((i, j, <zeta_i, zeta_j>), ...)


def _report(xs: np.ndarray, res: np.ndarray) -> GridReport:
    idx = int(np.argmax(res))
    return GridReport(
        max_residual=float(res[idx]),
        mean_residual=float(np.mean(res)),
        argmax_x=float(xs[idx]),
        points_used=int(res.size),
        grid=(float(xs[0]), float(xs[-1]), int(xs.size)),
    )


def clip_window(domain: families.Domain, lo: float, hi: float) -> tuple[float, float]:
    """The interval [lo, hi] intersected with the clipped domain."""
    clo, chi = domain.clipped()
    return max(lo, clo), min(hi, chi)


def grid_points(domain: families.Domain, grid) -> np.ndarray:
    """The points of a check grid (a, b, N) inside the clipped domain; needs
    finite a < b, 3 <= N <= MAX_GRID_POINTS and a point left."""
    a, b, n = grid
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValidationError(f"check grid must be finite with a < b, got ({a}, {b})")
    if n < 3:
        raise ValidationError(f"check grid needs at least 3 points, got {n}")
    if n > MAX_GRID_POINTS:
        raise ValidationError(f"check grid takes at most {MAX_GRID_POINTS} points, got {n}")
    xs = np.linspace(a, b, int(n))
    clo, chi = domain.clipped()
    xs = xs[(xs >= clo) & (xs <= chi)]
    if xs.size == 0:
        raise ValidationError(f"check grid ({a}, {b}, {n}) lies entirely outside "
                              f"the clipped domain [{clo:.6g}, {chi:.6g}]")
    return xs


def default_grid(fp: FamilyParams, n: int = 2001) -> tuple[float, float, int]:
    """Family plotting window intersected with the clipped domain."""
    return (*clip_window(fp.domain, *fp.spec.window), n)


def si_residual(fp: FamilyParams, grid=None) -> GridReport:
    """Partner-vs-translated residual of the shape-invariance identity.

    Scaled pointwise by 1/(1 + |V(x)|) of the translated build, so the
    bound reads as a relative tolerance.
    """
    down = families.translate_family(fp, 1)
    shift = families.remainder(down)
    xs = grid_points(fp.domain, grid if grid is not None else default_grid(fp))
    _, v_plus = families.partner_potentials(fp, xs)
    v_down, _ = families.partner_potentials(down, xs)
    res = np.abs(v_plus - v_down - shift) / (1.0 + np.abs(v_down))
    return _report(xs, res)


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre quadrature

def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule, n even.

    Newton steps on P_n, evaluated by the three-term recurrence, from the
    guesses cos(pi (i - 1/4) / (n + 1/2)); the rule is mirrored from the
    positive roots, so it is exactly symmetric.
    """
    x = np.cos(np.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / dp
        x = x - step
        if float(np.max(np.abs(step))) < 1e-16:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.concatenate((-x, x[::-1])), np.concatenate((w, w[::-1]))


_GL_X, _GL_W = _gauss_legendre(20)

_TAIL_REL = 1e-16
_MAX_DEPTH = 30
# pending panels bisected per integrand call, at most (40 nodes each), and
# tail samples per call; a cap, not a breadth-first sweep, because a region
# that never settles doubles its panels at every depth
_BATCH = 64
_TAIL_BLOCK = 8


def _gl_panels(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """20-point Gauss-Legendre values of f on the panels [a_i, b_i], one call.

    The shape is f's leading (component) shape plus one axis over the panels.
    """
    half = 0.5 * (b - a)
    xs = (0.5 * (a + b))[:, None] + half[:, None] * _GL_X
    vals = np.asarray(f(xs.ravel()), dtype=float)
    if vals.shape[-1:] != (xs.size,):
        vals = np.broadcast_to(vals, (xs.size,))
    return half * np.sum(_GL_W * vals.reshape(vals.shape[:-1] + xs.shape), axis=-1)


def _refine(f, lo: np.ndarray, hi: np.ndarray, budget: float) -> np.ndarray:
    """Sum of the adaptive integrals over the seed panels [lo_i, hi_i].

    The recursion adapt(a, b) = fine when |fine - coarse| <= max(budget/2^depth,
    1e-16 |fine|) for every component, else adapt(a, mid) + adapt(mid, b),
    run depth first and leftmost first, but bisecting up to _BATCH pending
    panels per integrand call; each half's value is its child's coarse value.
    The accepted panels are summed by one np.sum per component, and
    NonConvergence names the leftmost panel still failing at depth 30, the
    one the recursion stops at.  A call in which no panel settles halves the
    next batch (down to 2 panels), and one in which any settles doubles it
    again: in a region that never settles, the one-panel recursion walks only
    its leftmost path to depth 30.  Returns an array of f's leading shape.
    """
    coarse = _gl_panels(f, lo, hi)
    lead = coarse.shape[:-1]
    # pending panels, leftmost first, one column each: the ends, the depth
    # and the coarse value of every component
    pending = np.vstack((lo, hi, np.zeros(lo.size), coarse.reshape(-1, lo.size)))
    accepted = []
    failed = None
    cap = _BATCH
    while pending.shape[1]:
        batch, pending = pending[:, :cap], pending[:, cap:]
        a, b, depth = batch[:3]
        n = a.size
        # the children's ends: [a, mid] for the left halves, then [mid, b]
        ends = np.concatenate((a, 0.5 * (a + b), b))
        halves = _gl_panels(f, ends[:2 * n], ends[n:]).reshape(-1, 2 * n)
        fine = halves[:, :n] + halves[:, n:]
        ok = (np.abs(fine - batch[3:]) <= np.maximum(budget / 2.0 ** depth,
                                                      1e-16 * np.abs(fine))).all(axis=0)
        cap = min(_BATCH, 2 * cap) if ok.any() else max(2, cap // 2)
        stuck = ~ok & (depth >= _MAX_DEPTH)
        if stuck.any():
            # everything pending lies right of this panel: only the panels
            # left of it can still fail first
            i = int(np.argmax(stuck))
            failed = (a[i], b[i])
            pending = pending[:, :0]
            ok = ok[:i]
        accepted.append(np.compress(ok, fine, axis=1))
        # the halves of each split panel, left then right, ahead of the rest;
        # one column per child: its ends, its depth and its values
        split = np.nonzero(~ok)[0]
        deeper = depth + 1
        kids = np.concatenate((ends[:2 * n], ends[n:], deeper, deeper, halves.ravel()))
        kids = kids.reshape(-1, 2 * n)[:, (split[:, None] + (0, n)).ravel()]
        pending = np.concatenate((kids, pending), axis=1)
    if failed is not None:
        raise NonConvergence(f"quadrature failed to settle on [{failed[0]:.6g}, "
                             f"{failed[1]:.6g}] after depth {_MAX_DEPTH}")
    return np.sum(np.concatenate(accepted, axis=1), axis=1).reshape(lead)


def _components(vals, n: int) -> np.ndarray:
    """|f| on n samples as one row per component (one row for a scalar f)."""
    vals = np.asarray(vals)
    if vals.shape[-1:] != (n,):
        vals = np.broadcast_to(vals, (n,))
    return np.abs(vals.reshape(-1, n))


def _peak_sample(f, lo: float, hi: float) -> tuple:
    """Peak |f| on a sample window, and the outermost samples above 1e-16 of it.

    An infinite side of the window doubles while the sampled maximum sits on
    its edge, or while nothing sampled is nonzero, out to |x| = 1e9, so a
    peak far from the origin is found.  Each component of a vector f has its
    own peak and outermost samples, and the window grows while any component
    asks it to.  Returns the peaks as a column (one row per component, one
    row for a scalar f) and the first and last loud samples as rows, inf and
    -inf for a component with none.
    """
    a = lo if math.isfinite(lo) else hi - max(8.0, 2 * abs(hi) + 1) if math.isfinite(hi) else -4.0
    b = hi if math.isfinite(hi) else lo + max(8.0, 2 * abs(lo) + 1) if math.isfinite(lo) else 4.0
    while True:
        width = b - a
        xs = np.linspace(a + 1e-9 * width, b - 1e-9 * width, 257)
        vals = _components(np.asarray(f(xs), dtype=float), 257)
        vals[~np.isfinite(vals)] = 0.0
        top = np.argmax(vals, axis=1)
        peak = vals[np.arange(top.size), top][:, None]
        silent = peak[:, 0] == 0
        grow_lo = not math.isfinite(lo) and a > -1e9 and bool(np.any((top == 0) | silent))
        grow_hi = not math.isfinite(hi) and b < 1e9 and bool(np.any((top == 256) | silent))
        if not (grow_lo or grow_hi):
            break
        a, b = (max(a - width, -1e9) if grow_lo else a), (min(b + width, 1e9) if grow_hi else b)
    peak[silent] = 1.0
    loud = vals > _TAIL_REL * peak
    heard = loud.any(axis=1)
    first = np.where(heard, xs[np.argmax(loud, axis=1)], math.inf)
    last = np.where(heard, xs[256 - np.argmax(loud[:, ::-1], axis=1)], -math.inf)
    return peak, first, last


def _march_tail(f, start: float, direction: float, thresh, beyond) -> list:
    """Each component's tail end: the third of three samples in a row past
    its outermost loud one (beyond) at which its |f| is at most its
    threshold.  thresh is a column and beyond a row, one entry per component
    (one for a scalar f); the march goes on until every component has ended.
    """
    t = start
    ends = [None] * len(beyond)
    quiet = [0] * len(beyond)
    while True:
        ts = []
        for _ in range(_TAIL_BLOCK):
            t = t * 1.3 if t * direction > 1 else t + direction
            if abs(t) > 1e9:
                break
            ts.append(t)
        if ts:
            small = (_components(f(np.array(ts)), len(ts)) <= thresh).tolist()
            for c, (row, edge) in enumerate(zip(small, beyond.tolist())):
                for t_i, quiet_i in zip(ts, row):
                    if ends[c] is not None:
                        break
                    quiet[c] = quiet[c] + 1 if quiet_i and (t_i - edge) * direction > 0 else 0
                    if quiet[c] == 3:
                        ends[c] = t_i
            if None not in ends:
                return ends
        if abs(t) > 1e9:
            raise NonConvergence("tail truncation point not found below |x| = 1e9")


def _seed_panels(a: float, b: float, grade_lo: bool, grade_hi: bool, ends=()) -> list:
    """Breakpoints, geometrically graded toward originally-finite endpoints.

    Integrable power-law steepness at an endpoint defeats plain bisection
    (the local budget shrinks faster than the panel error), so the mesh is
    pre-refined down to ~1e-15 of the width there; each cell is then smooth
    enough for the adaptive rule.  The tail ends of the components of a
    vector integrand are cuts too, so each component's own seed panel is a
    union of shared ones.
    """
    width = b - a
    cuts = {a, b, *ends}
    if grade_lo:
        cuts.update(a + width * 0.5 ** j for j in range(1, 51))
    if grade_hi:
        cuts.update(b - width * 0.5 ** j for j in range(1, 51))
    return sorted(cuts)


def quadrature(f: Callable, domain, tol: float = 1e-10):
    """Adaptive composite Gauss-Legendre integral of f over the domain.

    Infinite tails are truncated where |f| stays below 1e-16 of its sampled
    peak, beyond the outermost sample above that; panels split until the
    local budget is met or depth 30 trips NonConvergence.  Evaluation is
    batched: f receives a 1-D array of nodes of any length (the nodes of up
    to 64 panels, or a block of tail samples).  A constant or 1-D result is
    broadcast to that shape and the integral is a float.  A result of shape
    (..., nodes) is a vector integrand, integrated over one shared
    subdivision, and the integral is an array of the leading shape: a panel
    is accepted when every component meets the rule, each component's tail
    ends where it alone would (1e-16 of its own peak), the shared tail runs
    to the farthest of these ends, and every end is a seed cut.  numpy's
    floating-point warnings are off throughout.
    """
    if isinstance(domain, families.Domain):
        a, b = domain.lo, domain.hi
    else:
        a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise ValidationError("quadrature domain must satisfy a < b")
    with np.errstate(all="ignore"):
        grade_lo, grade_hi = math.isfinite(a), math.isfinite(b)
        if not (grade_lo and grade_hi):    # only the tail march reads the peak sample
            peak, loud_lo, loud_hi = _peak_sample(f, a, b)
            thresh = _TAIL_REL * peak
        ends = []
        if not grade_hi:
            ends += _march_tail(f, max(1.0, a + 1.0 if grade_lo else 1.0), +1.0, thresh, loud_hi)
            b = max(ends)
        if not grade_lo:
            ends += _march_tail(f, min(-1.0, b - 1.0), -1.0, thresh, loud_lo)
            a = min(ends)
        cuts = _seed_panels(a, b, grade_lo, grade_hi, ends)
        # the outermost graded sliver (width 2^-50 of the span) carries ~1e-17
        # of any integrable mass but its nodes round onto the endpoint; drop it
        if grade_lo and len(cuts) > 2:
            cuts = cuts[1:]
        if grade_hi and len(cuts) > 2:
            cuts = cuts[:-1]
        budget = float(tol) / max(1, len(cuts) - 1)
        lo, hi = np.array(cuts[:-1]), np.array(cuts[1:])
        keep = hi > lo
        total = _refine(f, lo[keep], hi[keep], budget)
    return float(total) if total.ndim == 0 else total


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


# row pairs per block of the Sturm sweep: the shifted diagonal a_i - lambda
# of a block is formed by one broadcast subtract and its negative pivots are
# counted by one call, so a pair of rows, one from each half of the matrix,
# costs the two in-place calls of the pivot recurrence
_STURM_BLOCK = 64


def _sturm_sweep(diag: np.ndarray, off2: float, lams: np.ndarray) -> tuple:
    """Number of Dirichlet eigenvalues strictly below each lambda, and the twist.

    One pass over the matrix for all lambdas of any shape, by a twisted
    factorization T - lambda = L diag(d+, gamma_m, d-) L^T at the middle row
    m = N // 2 of the N rows.  The forward pivots
    d+_i = (a_i - lambda) - off2 / d+_{i-1} over rows 0..m-1 and the
    backward pivots d-_i = (a_i - lambda) - off2 / d-_{i+1} over rows
    N-1..m+1 run side by side, then the twist
    gamma_m = (a_m - lambda) - off2 / d+_{m-1} - off2 / d-_{m+1}; by
    Sylvester's law of inertia the count is the number of negative d+ and
    d- plus [gamma_m <= 0].  Both halves start from an infinite pivot, and
    the shorter half of an even N from one row of a_i = inf, so every N >= 1
    takes the same path.  An exactly zero pivot is taken as -1e-300, so it
    counts as negative and the next pivot is large and positive.  Zero
    pivots are rare: a block is swept without the rule and swept again row
    by row, with it, only if it holds a zero.  Returns (counts, gamma_m),
    both of the shape of lams; gamma_m is 1 / ((T - lambda)^-1)_mm, which
    falls through zero at every level that does not vanish at row m.
    """
    tiny = 1e-300
    lams = np.asarray(lams, dtype=float)
    # a 0-d array, which the ufuncs take without converting it on every call
    off2 = np.array(off2, dtype=float)
    m = diag.size // 2
    # row i holds the i-th forward and the i-th backward row
    halves = np.full((m, 2), np.inf)
    halves[:, 0] = diag[:m]
    halves[2 * m + 1 - diag.size:, 1] = diag[:m:-1]
    column = (-1, 2) + (1,) * lams.ndim
    # row 0 of the buffer carries the last pivots of the previous block
    buf = np.empty((_STURM_BLOCK + 1, 2) + lams.shape)
    buf[0] = np.inf
    views = list(buf)
    quot = np.empty(buf.shape[1:])
    counts = np.zeros(lams.shape, dtype=int)
    # near-zero pivots overflow the quotient; the sign logic still holds.  A
    # twist between two near-zero pivots of opposite sign is inf - inf, and
    # that nan counts as positive, like the huge pivot after a zero one
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, m, _STURM_BLOCK):
            rows = halves[start:start + _STURM_BLOCK].reshape(column)
            blk = buf[1:1 + rows.shape[0]]
            np.subtract(rows, lams, blk)
            for prev, cur in zip(views, views[1:1 + rows.shape[0]]):
                np.divide(off2, prev, quot)
                np.subtract(cur, quot, cur)
            if not blk.all():
                # an exact zero pivot: sweep the block again with the rule
                np.subtract(rows, lams, blk)
                for prev, cur in zip(views, views[1:1 + rows.shape[0]]):
                    np.divide(off2, prev, quot)
                    np.subtract(cur, quot, cur)
                    cur[cur == 0.0] = -tiny
            # at most 2 _STURM_BLOCK negatives per block: a uint8 sum holds
            # them and runs faster than a count in the default integer
            counts += np.add.reduce(blk < 0, axis=(0, 1), dtype=np.uint8)
            buf[0] = blk[-1]
        twist = (diag[m] - lams) - off2 / buf[0, 0] - off2 / buf[0, 1]
    return counts + (twist <= 0), twist


# interior sample points of each bracket per Sturm sweep; a sweep costs one
# Python-level pass over the matrix whatever the number of points (two numpy
# calls per pair of rows, see _sturm_sweep), so the bracket shrinks 65-fold
# for about the price of one bisection step
_MULTISECTION = np.arange(1, 65) / 65.0

# the 64 points around an estimate x* of the level, in units of the bracket
# width w and in ascending order, which the bracket rule of fd_spectrum needs: x* -/+ 0.5 w (2e-15)^(i/31), i = 0..31,
# so the next bracket is about twice the estimate's error wide, or 2e-15 w
_RATIOS = (2e-15) ** (np.arange(32) / 31.0)
_AROUND = 0.5 * np.concatenate((-_RATIOS, _RATIOS[::-1]))


def _root_estimate(pts: np.ndarray, gam: np.ndarray, cnt: np.ndarray, j: int) -> float:
    """The level in the bracket between samples j - 1 and j, estimated, or nan.

    pts, gam and cnt are one sweep's samples of the bracket, their twists
    gamma_m and their counts.  1 / gamma_m = ((T - lambda)^-1)_mm is a sum
    of v_i(m)^2 / (lambda_i - lambda) over the eigenpairs, so where the
    counts put one level in the bracket and no other in samples j - 2 ..
    j + 1, it is a simple pole at that level on a smooth background.  The
    second divided differences of c / (r - lambda) + p + q lambda over
    three points are c over the product of the (r - x_i), so two of them,
    over samples j - 2 .. j and j - 1 .. j + 1, give the pole r in closed
    form.  The estimate stands if it lies in the bracket with a positive
    residue c, as a level's v_i(m)^2 has.  Plain floats: a few dozen scalar
    operations cost less than numpy calls on arrays this small.
    """
    if j < 2 or j + 1 >= len(pts):
        return math.nan
    xs, ys, cs = (v[j - 2:j + 2].tolist() for v in (pts, gam, cnt))
    if not (cs[0] == cs[1] and cs[2] == cs[3] == cs[1] + 1 and xs[0] < xs[1] < xs[2] < xs[3]
            and all(math.isfinite(y) and y != 0.0 for y in ys)):
        return math.nan
    g = [1.0 / y for y in ys]
    d1 = [(g[i + 1] - g[i]) / (xs[i + 1] - xs[i]) for i in range(3)]
    d2 = [(d1[i + 1] - d1[i]) / (xs[i + 2] - xs[i]) for i in range(2)]
    if d2[1] == 0.0 or d2[0] == d2[1]:
        return math.nan
    # d2[0] / d2[1] = (r - x3) / (r - x0)
    r = xs[0] + (xs[3] - xs[0]) / (1.0 - d2[0] / d2[1])
    # the residue c = d2[0] (r - x0) (r - x1) (r - x2)
    if xs[1] <= r <= xs[2] and d2[0] * (r - xs[0]) * (r - xs[1]) * (r - xs[2]) > 0.0:
        return r
    return math.nan


def fd_spectrum(target, oracle: OracleSpec, count: int) -> list:
    """Lowest eigenvalues of -d²/dx² + V on [a, b] with Dirichlet walls.

    Symmetric second-order tridiagonal discretization; eigenvalues located
    from Sturm counts by bracketed multisection, independent of every
    closed-form result.  The first sweep samples one sorted ladder of two
    rung sets between the Gershgorin floor plus step (the bare Laplacian's
    lowest level) and the Gershgorin ceiling: +/- step 2^i for i >= -8,
    doubling outward from 0, and floor + step 2^i, doubling up from the
    floor.  It brackets every level however wide the span, each in a
    bracket about as wide as the level where a singular wall puts the floor
    thousands of steps below the levels, and about as wide as the level's
    height above the floor where a large constant offset puts the levels
    far from 0 next to their spread.  Bracket k is
    settled once it is at most 1e-11 (1 + |mid_k|) wide, and each later
    sweep samples 64 points of every bracket still open: around the level
    that the last sweep's twists gamma_m estimate (`_root_estimate`,
    `_AROUND`) where they allow it, and uniformly where they do not or where
    the bracket is within 64 tolerances, which the uniform points then
    settle.  Where the samples land only decides how fast the brackets
    shrink: each returned level is the midpoint of a bracket whose ends the
    Sturm counts certify.  On the benchmark's families a call takes 4.0 to
    4.6 sweeps on average, 4.8 to 5.2 on three half-line families whose
    states are small at the middle row, and 7.1 on eckart, where the
    level's pole in 1 / gamma_m stays hidden.  The matrix has N - 2 rows, so
    a larger count raises ValidationError.
    """
    if count < 1:
        raise ValidationError("eigenvalue count must be >= 1")
    if count > oracle.n - 2:
        raise ValidationError(f"the oracle grid of N = {oracle.n} points has {oracle.n - 2} "
                              f"levels; {count} were asked for")
    pot = _potential_of(target)
    h = (oracle.b - oracle.a) / (oracle.n - 1)
    if h ** 2 == 0.0:
        raise NumericalError(f"the oracle grid spacing h = {h:.6g} has h^2 = 0")
    xs = oracle.a + h * np.arange(1, oracle.n - 1)
    v = np.asarray(pot(xs), dtype=float)
    if not np.all(np.isfinite(v)):
        bad = xs[~np.isfinite(v)][0]
        raise NumericalError(f"potential is not finite on the oracle grid (x={bad:.6g})")
    diag = 2.0 / h ** 2 + v
    off2 = 1.0 / h ** 4
    lo = float(np.min(diag)) - 2.0 / h ** 2
    hi = float(np.max(diag)) + 2.0 / h ** 2
    # no level lies below lo + step, step the lowest level of the bare
    # discrete Laplacian, so the ladder runs from there to hi.  Its rungs
    # double outward from +/- step / 256, so a level's first bracket is
    # about as wide as the level, and a level near 0 (a ground state E_0 =
    # 0, up to the grid's error) sits inside a bracket rather than at one of
    # its ends.  They also double up from lo + step, so levels far from 0
    # (under a large constant offset) start in brackets about as wide as
    # their height above the floor
    step = (2.0 / h * math.sin(0.5 * math.pi / (oracle.n - 1))) ** 2
    reach = max(hi, -lo) / step
    if not (0.0 < (hi - lo) / step < math.inf and reach < math.inf):
        raise NumericalError(f"the Gershgorin span ({lo:.6g}, {hi:.6g}) is not finite and positive")
    rungs = step * 2.0 ** np.arange(-8, int(math.log2(max(reach, 1.0))) + 1)
    ladder = np.concatenate((-rungs[::-1], rungs))
    up = lo + step * 2.0 ** np.arange(int(math.log2((hi - lo) / step)) + 1)
    # np.sort rather than np.unique, which imports numpy.ma on its first call
    pts = np.sort(np.concatenate((ladder[(ladder >= lo + step) & (ladder < hi)],
                                  up[up < hi])))[None]
    los = np.full(count, lo)
    his = np.full(count, hi)
    # the levels whose brackets are still open; a settled one takes no samples
    live = np.arange(count)
    for _ in range(200):
        cnt, gam = _sturm_sweep(diag, off2, pts)
        # the first sample with more than k levels below it (else the old
        # upper end) closes bracket k: count(lo) <= k < count(hi) holds
        # even if rounding makes the counts non-monotone
        j = np.argmax(np.column_stack((cnt > live[:, None], np.ones(live.size, dtype=bool))),
                      axis=1)
        pts, cnt, gam = (np.broadcast_to(a, (live.size, pts.shape[1])) for a in (pts, cnt, gam))
        edges = np.column_stack((los[live], pts, his[live]))
        rows = np.arange(live.size)
        low, high = edges[rows, j], edges[rows, j + 1]
        los[live], his[live] = low, high
        tol = 1e-11 * (1.0 + np.abs(0.5 * (low + high)))
        keep = high - low > tol
        if not keep.any():
            break
        live, low, high, tol, j = (a[keep] for a in (live, low, high, tol, j))
        low, high, width = low[:, None], high[:, None], (high - low)[:, None]
        guess = np.array([_root_estimate(*row) for row in
                          zip(pts[keep], gam[keep], cnt[keep], j.tolist())])[:, None]
        # within 64 tolerances the uniform samples settle a bracket in this
        # sweep, which the samples around an estimate need not do
        around = np.isfinite(guess) & (width > 64.0 * tol[:, None])
        pts = np.where(around, np.clip(guess + width * _AROUND, low, high),
                       low + width * _MULTISECTION)
    return [float(x) for x in 0.5 * (los + his)]


# the first rung of reference_oracle's cut on an infinite end, on every family
_ORACLE_FLOOR = 8.0


def reference_oracle(fp: FamilyParams, n: int = 3000) -> OracleSpec:
    """Truncation box sized from the ground-state footprint.

    Each infinite end is cut at the first |x| = 8 * 1.25^i where zeta_0 is
    at most 1e-12 of its peak (sampled at 129 points, out to |x| = 4.8 on an
    infinite end), or at the first rung past 200 if none is; the rungs
    start at _ORACLE_FLOOR on every family.  Finite ends sit at the domain
    clip margin.  ROADMAP item 11 replaces this cut with one read from V.
    """
    dom = fp.domain
    wf0 = spectra.wavefunction(fp, 0)
    lo_fin, hi_fin = math.isfinite(dom.lo), math.isfinite(dom.hi)
    ga = dom.lo + dom.delta if lo_fin else -0.6 * _ORACLE_FLOOR
    gb = dom.hi - dom.delta if hi_fin else 0.6 * _ORACLE_FLOOR
    peak = float(np.max(np.abs(wf0(np.linspace(ga, gb, 129)))))

    def cut(direction: float) -> float:
        t = _ORACLE_FLOOR
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

_LADDER_POINTS, _SCHRODINGER_POINTS = 801, 1501   # the stencil grids of the two checks
_GRAM_TOL = 1e-9                                   # orthonormality's quadrature tolerance


def _deriv5(f, xs: np.ndarray, h) -> np.ndarray:
    return (np.asarray(f(xs - 2 * h)) - 8 * np.asarray(f(xs - h))
            + 8 * np.asarray(f(xs + h)) - np.asarray(f(xs + 2 * h))) / (12 * h)


def _second5(f, xs: np.ndarray, h, centre: np.ndarray) -> np.ndarray:
    """f'' at xs, given centre = f(xs), so f runs on the four outer nodes only."""
    return (-np.asarray(f(xs - 2 * h)) + 16 * np.asarray(f(xs - h))
            - 30 * centre + 16 * np.asarray(f(xs + h))
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


def ladder_check(fp: FamilyParams, k: int) -> LadderReport:
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
    xs, h = stencil_grid(fp, _LADDER_POINTS)
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
    base = _report(xs, res)
    return LadderReport(**base.__dict__, sign=sign)


def schrodinger_residual(fp: FamilyParams, k: int) -> GridReport:
    """Pointwise residual of -zeta'' + (V - E_k) zeta via a 5-point stencil."""
    state = spectra.wavefunction(fp, k)
    energy = spectra.eigenenergy(fp, k)
    xs, h = stencil_grid(fp, _SCHRODINGER_POINTS)
    v, _ = families.partner_potentials(fp, xs)
    centre = np.asarray(state(xs))
    drive = (v - energy) * centre
    res = np.abs(-_second5(state, xs, h, centre) + drive) / (1.0 + np.abs(drive))
    return _report(xs, res)


def orthonormality(fp: FamilyParams, kmax: int) -> GramReport:
    """Quadrature Gram matrix of the states up to kmax against the identity.

    Two quadratures, each evaluating every state it reads once per node.
    The ground-state norm runs first and alone: it is the entry that meets
    a state's trouble at a wall first, and alone it fails there fast, with
    the message of its own panel.  All other entries then share one vector
    quadrature (one component per pair, one subdivision for all), so a
    panel is refined until every entry settles on it.
    """
    levels = spectra.admissible_range(fp).levels(kmax)
    if not levels:
        raise ValidationError(f"family {fp.id!r} has no admissible levels")
    states = [spectra.wavefunction(fp, k) for k in levels]
    dom = fp.domain

    values = [quadrature(lambda x: (z := states[0](x)) * z, dom, _GRAM_TOL)]
    pairs = [(i, j) for i in range(len(levels)) for j in range(i, len(levels))]
    if len(pairs) > 1:
        left, right = np.array(pairs[1:]).T

        def products(x):
            z = np.array([state(x) for state in states])
            return z[left] * z[right]

        values.extend(quadrature(products, dom, _GRAM_TOL).tolist())
    entries = tuple((levels[i], levels[j], val) for (i, j), val in zip(pairs, values))
    worst = max(0.0, *(abs(val - (1.0 if i == j else 0.0)) for i, j, val in entries))
    return GramReport(levels=tuple(levels), max_deviation=worst, entries=entries)


def report_json(fp, report: GridReport) -> dict:
    """Stable JSON shape for residual reports of a family or an extension;
    its grid is the report's, the points that ran."""
    a, b, n = report.grid
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
