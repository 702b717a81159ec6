"""The four benchmark workloads: seeded job streams, job runners and checks.

Run as a script this module is the workload process that `run.py` launches:
it imports the library, builds its inputs from the seed, runs one untimed
warm-up job and then a closed loop of timed jobs, one at a time, and prints
one JSON document on stdout.  Each job's output is checked against its
contract tolerance; a failing job is recorded with its inputs.

Job streams rotate through families (or cases) and job kinds with coprime
periods, so every run covers the same mix and only the seeded draws differ
between seeds.  The draw boxes are the ones the acceptance criteria use
(criterion 01 for families, criterion 06 for extensions).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, "bench", "out", "work")

WORKLOADS = ("closed-forms", "fd-oracle", "ext-checks", "cli-jobs")

FAMILY_IDS = ("scarf2", "poschl-teller", "morse", "morse-mirror", "radial-osc",
              "harm-osc", "scarf1", "scarf1-cot", "rosen-morse2", "eckart",
              "coulomb", "rosen-morse1", "rosen-morse1-cot")
RATIO_IDS = ("rosen-morse2", "eckart", "coulomb", "rosen-morse1", "rosen-morse1-cot")
D_MEAN_IDS = ("radial-osc",)
SLOPE_IDS = ("harm-osc",)

CF_KINDS = ("spectrum", "si", "ladder", "schrodinger", "wavefunction",
            "orthonormal", "invariant")
EXT_KINDS = ("cond1", "cond2", "ext-si", "potential")
CLI_KINDS = ("families-list", "spectrum", "verify-si", "verify-ladder",
             "verify-cond2", "invalid", "wavefunction", "config-si",
             "spectrum", "verify-si", "config-ladder", "invalid")
CLI_INVALID = ("unknown-family", "range-violation", "not-invariant", "config-bad-m")

FD_SIZES = (1000, 3000)   # grid sizes of one fd-oracle job

# contract tolerances (the CLI defaults, plus the FD oracle's)
TOL = {"si": 1e-9, "ladder": 1e-5, "schrodinger": 1e-5, "orthonormal": 1e-6,
       "cond1": 1e-8, "cond2": 1e-10, "ext-si": 1e-7, "fd-gap": 5e-3,
       "summability": 1e-12}

# criterion 09's fifty invariant expressions
DSL_EXPRESSIONS = (
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
)

# A closed-forms job that outlives this is abandoned and counts as failed.
# Every such job at baseline is a quadrature on its way to NonConvergence,
# which can take up to seconds; the slowest passing job takes about 0.3 s.
# Without the cap a few of those draws decide a run's throughput.
DEADLINE_S = {"closed-forms": 0.5}


class JobDeadline(BaseException):
    """Raised by the interval timer when a job outlives its deadline."""


def _on_alarm(signum, frame):
    raise JobDeadline()


class JobFailure(Exception):
    """A job missed its contract; `cls` names the failure class."""

    def __init__(self, cls: str, detail: str, out: dict | None = None):
        super().__init__(detail)
        self.cls = cls
        self.out = out or {}


# ---------------------------------------------------------------------------
# seeded draws (pure Python; the library never sees the seed)

def draw_family(fid: str, rng) -> tuple[float, float]:
    """(eps, rho) from criterion 01's boxes, safe for one translation step.

    `rng` is anything with `uniform(a, b)`.
    """
    u = rng.uniform
    if fid == "scarf2":
        return u(1.2, 4.0), u(-2.0, 2.0)
    if fid == "poschl-teller":
        e = u(1.2, 3.0)
        return e, e - 0.5 + u(0.2, 2.0)
    if fid == "morse":
        return u(1.2, 4.0), u(0.3, 3.0)
    if fid == "morse-mirror":
        return u(1.2, 4.0), u(-3.0, -0.3)
    if fid == "radial-osc":
        return u(-2.0, 0.45), u(0.3, 3.0)
    if fid == "harm-osc":
        return u(0.3, 3.0), u(-2.0, 2.0)
    if fid in ("scarf1", "scarf1-cot"):
        e = u(-1.5, 0.4)
        return e, 0.9 * u(-1.0, 1.0) * (1 - 2 * e) / 2
    if fid == "rosen-morse2":
        e = u(2.0, 4.0)
        return e, 0.8 * (e - 1) ** 2 * u(-1.0, 1.0)
    if fid == "eckart":
        e = u(-2.5, -0.7)
        return e, -((1 - e) ** 2) * (1.1 + u(0.0, 1.0))
    if fid == "coulomb":
        return u(-3.0, -0.5), u(-3.0, -0.2)
    return u(-2.2, -0.2), u(-2.0, 2.0)   # rosen-morse1, rosen-morse1-cot


def draw_extension(case: int, rng) -> tuple[float, float, int | None]:
    """(eps, rho, ell) from criterion 06's boxes; `rng` has uniform and choice."""
    u = rng.uniform
    pick = rng.choice
    if case == 1:
        return u(1.6, 4.0), u(-3.0, -0.2), None
    if case == 2:
        return u(0.6, 1.6), u(-3.5, -2.2), pick((1, 2, 3))
    if case == 3:
        l = pick((1, 2, 3))
        e = u(0.2, 1.2)
        return e, -(l + e + 0.7) - u(0.0, 1.8), l
    if case == 4:
        return u(1.6, 4.0), u(-3.0, -0.3), None
    if case == 5:
        return u(-2.5, -0.7), u(0.3, 3.0), pick((1, 2, 3))
    if case in (6, 7):
        return u(0.8, 3.0), 0.0, pick((1, 2, 3))
    if case == 8:
        return u(2.2, 4.0), u(-0.5, 0.5), None
    if case == 9:
        l = pick((1, 2))
        e = u(0.3, 1.2)
        return e, 0.7 * u(-1.0, 1.0) * (1 + 2 * l + 2 * e) / 2, l
    if case == 10:
        return u(2.2, 3.4), pick((-1, 1)) * u(0.05, 0.4), pick((1, 2))
    return u(0.5, 2.5), u(-2.0, 2.0), pick((1, 2, 3))


class ShiftedHalton:
    """Randomly shifted Halton points, one sequence per key, scaled to a box.

    A family's failing draws fill part of its box; low-discrepancy points
    put close to the same number of draws there in every run, where
    independent draws would let that count, and a run's throughput, swing
    with the seed.  The seed only sets the shifts.
    """

    BASES = (2, 3, 5, 7)

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.state = {}

    def draw(self, key) -> "ShiftedHalton._Point":
        if key not in self.state:
            self.state[key] = [0, [self.rng.random() for _ in self.BASES]]
        state = self.state[key]
        state[0] += 1
        return self._Point(state[0], state[1])

    class _Point:
        def __init__(self, index: int, shifts: list):
            self.index, self.shifts, self.dim = index, shifts, 0

        def uniform(self, a: float, b: float) -> float:
            k, base = self.index, ShiftedHalton.BASES[self.dim]
            f, u = 1.0, 0.0
            while k:
                f /= base
                u += f * (k % base)
                k //= base
            u = (u + self.shifts[self.dim]) % 1.0
            self.dim += 1
            return a + (b - a) * u

        def choice(self, options):
            return options[min(int(self.uniform(0, len(options))), len(options) - 1)]


def family_config(fid: str, eps: float, rho: float) -> dict:
    """Construction data, in the CLI's config format, that folds to (eps, rho).

    One coupling on the invariant "1"; the ratio families carry rho in the
    invariant m1 - m2 of a two-entry vector whose mean is eps.
    """
    if fid in RATIO_IDS:
        return {"family": fid, "m": [eps + rho / 2, eps - rho / 2],
                "couplings": [{"invariant": "1", "beta": 0.0, "d": 0.0}],
                "rho_invariant": "m1-m2"}
    if fid in D_MEAN_IDS:
        beta, d, m = 2.0 * rho, 0.0, eps
    elif fid in SLOPE_IDS:
        beta, d, m = eps, rho, 0.0
    else:
        beta, d, m = 0.0, rho, eps
    return {"family": fid, "m": [m], "couplings": [{"invariant": "1", "beta": beta, "d": d}]}


def job_stream(workload: str, seed):
    """Endless stream of job descriptors (plain dicts) drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    points = ShiftedHalton(rng)
    expr_offset = rng.randrange(len(DSL_EXPRESSIONS))
    i = 0
    while True:
        if workload == "closed-forms":
            fid, kind = FAMILY_IDS[i % 13], CF_KINDS[i % 7]
            eps, rho = draw_family(fid, points.draw((fid, kind)))
            job = {"family": fid, "eps": eps, "rho": rho, "kind": kind}
            if kind == "invariant":
                job["expr"] = DSL_EXPRESSIONS[(i // 7 + expr_offset) % 50]
        elif workload == "fd-oracle":
            # both grid sizes on one draw, so a job's cost depends on its
            # family only and the median does not sit between two n clusters
            fid = FAMILY_IDS[i % 13]
            eps, rho = draw_family(fid, points.draw(fid))
            job = {"family": fid, "eps": eps, "rho": rho, "kind": "fd"}
        elif workload == "ext-checks":
            # the parameters come from Library.extension_draws, because how
            # many draws a job takes depends on the denominator scan
            job = {"case": 1 + i % 11, "kind": EXT_KINDS[i % 4]}
        else:
            kind = CLI_KINDS[i % 12]
            fid = FAMILY_IDS[(i // 12 * 5 + i) % 13]
            eps, rho = draw_family(fid, rng)
            job = {"kind": kind, "family": fid, "eps": eps, "rho": rho}
            if kind == "invalid":
                job["variant"] = CLI_INVALID[(i // 6) % 4]
        job["index"] = i
        yield job
        i += 1


def warmup_job(workload: str) -> dict:
    """One fixed job, the same for every seed, so set-up time is comparable."""
    if workload == "closed-forms":
        return {"family": "harm-osc", "eps": 1.0, "rho": 0.3, "kind": "wavefunction",
                "index": -1}
    if workload == "fd-oracle":
        return {"family": "harm-osc", "eps": 1.0, "rho": 0.3, "kind": "fd", "sizes": [1000],
                "index": -1}
    if workload == "ext-checks":
        return {"case": 4, "kind": "cond1", "attempts": [[2.5, -1.0, None]], "index": -1}
    return {"kind": "families-list", "index": -1}


# ---------------------------------------------------------------------------
# library-side jobs

class Library:
    """The library handles a workload needs, plus the invariants verified once."""

    def __init__(self, seed=0):
        import numpy as np
        from shapeinv import extensions, families, invariants, spectra, verify
        from shapeinv.errors import DenominatorZero
        self.np = np
        self.F, self.S, self.V, self.X, self.I = families, spectra, verify, extensions, invariants
        self.DenominatorZero = DenominatorZero
        # one point sequence per extension case; rejected draws consume
        # points too, so each run sees about the same number of rejections
        self.extension_draws = ShiftedHalton(random.Random(f"ext-checks:{seed}"))
        # the two invariants `family_config` uses, verified once
        self.one = invariants.verify_invariant(invariants.parse_invariant("1"), 2)
        self.diff = invariants.verify_invariant(invariants.parse_invariant("m1-m2"), 2)

    def family_data(self, fid: str, eps: float, rho: float):
        """`family_config` as library objects, with the invariants verified once."""
        F = self.F
        doc = family_config(fid, eps, rho)
        coupling = doc["couplings"][0]
        return F.ConstructionData(
            p=self.I.ParamVector(tuple(doc["m"])),
            couplings=(F.Coupling(self.one, coupling["beta"], coupling["d"]),),
            rho_invariant=self.diff if "rho_invariant" in doc else None)

    def build(self, job):
        return self.F.build_family(job["family"],
                                   self.family_data(job["family"], job["eps"], job["rho"]))

    def run(self, job, tracer=None) -> dict:
        kind = job["kind"]
        if kind == "fd":
            return self.fd_job(job, tracer)
        if kind in EXT_KINDS:
            return self.ext_job(job)
        return self.closed_form_job(job)

    # closed forms -------------------------------------------------------

    def closed_form_job(self, job) -> dict:
        np, F, S, V = self.np, self.F, self.S, self.V
        fp = self.build(job)
        kind = job["kind"]
        levels = S.admissible_range(fp).levels(3)
        if kind == "spectrum":
            worst = 0.0
            for k in levels:
                e_k = S.eigenenergy(fp, k)
                terms = [F.remainder(F.translate_family(fp, j)) for j in range(1, k + 1)]
                scale = max([abs(e_k)] + [abs(t) for t in terms] + [1e-300])
                dev = abs(e_k - math.fsum(terms)) / scale
                _finite(e_k, "spectrum")
                worst = max(worst, dev)
            return _within(worst, TOL["summability"], "spectrum")
        if kind == "si":
            return _within(V.si_residual(fp).max_residual, TOL["si"], "si")
        if kind == "ladder":
            if not S.admissible_range(fp).contains(1):
                return {"skipped": "level 1 not admissible"}
            return _within(V.ladder_check(fp, 1).max_residual, TOL["ladder"], "ladder")
        if kind == "schrodinger":
            return _within(V.schrodinger_residual(fp, levels[-1]).max_residual,
                           TOL["schrodinger"], "schrodinger")
        if kind == "wavefunction":
            wf = S.wavefunction(fp, levels[-1])
            a, b, n = V.default_grid(fp, 201)
            xs = np.linspace(a, b, n)
            _finite(np.asarray(wf(xs), dtype=float), "wavefunction")
            norm = V.quadrature(lambda t: wf(t) * wf(t), fp.domain, 1e-10)
            return _within(abs(norm - 1.0), TOL["orthonormal"], "wavefunction")
        if kind == "orthonormal":
            return _within(V.orthonormality(fp, 2).max_deviation, TOL["orthonormal"],
                           "orthonormal")
        # invariant: parse, certify, and check the printed form round-trips
        I = self.I
        expr = I.verify_invariant(I.parse_invariant(job["expr"]), 3)
        again = I.parse_invariant(expr.source)
        p = I.ParamVector((0.3, -1.1, 0.7))
        if again.source != expr.source or \
                abs(I.eval_invariant(again, p) - I.eval_invariant(expr, p)) > 1e-12:
            raise JobFailure("invariant:round-trip", f"{job['expr']!r} -> {expr.source!r}")
        return {"value": 0.0}

    # FD oracle ----------------------------------------------------------

    def fd_job(self, job, tracer=None) -> dict:
        """The FD oracle at n = 1000 and n = 3000 on one draw; each gap
        λ_k - λ_0 is checked against E_k at both sizes."""
        S, V = self.S, self.V
        fp = self.build(job)
        ks = S.admissible_range(fp).levels(3)
        worst, worst_n = 0.0, None
        for n in job.get("sizes", FD_SIZES):
            if tracer is not None:     # per-call times by grid size
                tracer.job_label = f"fd/{job['family']}/{n}"
            box = V.reference_oracle(fp, n)
            lam = V.fd_spectrum(fp, box, max(ks) + 1)
            check_discrete_levels(lambda x: self.F.partner_potentials(fp, x)[0], box, lam,
                                  max(ks) + 1)
            for k in ks[1:]:
                dev = abs((lam[k] - lam[0]) - S.eigenenergy(fp, k))
                _finite(dev, "fd")
                if dev >= worst:
                    worst, worst_n = dev, n
        out = {"value": worst, "ratio": worst / TOL["fd-gap"], "levels": len(ks),
               "n": worst_n}
        if worst > TOL["fd-gap"]:
            raise JobFailure("fd:gap-tolerance",
                             f"max |gap - E_k| = {worst:.3e} > {TOL['fd-gap']:g}"
                             f" at n = {worst_n}", out)
        return out

    # extensions ---------------------------------------------------------

    def extension_data(self, case: int, eps: float, rho: float):
        F, I, X = self.F, self.I, self.X
        fold = X.CASE_SPECS[case].fold
        if fold in (X._FOLD_PLUS_BETA, X._FOLD_MINUS_BETA):
            c = F.Coupling(self.one, 0.0, rho)
        elif fold == X._FOLD_D:
            c = F.Coupling(self.one, 2.0 * rho, 0.0)
        else:
            c = F.Coupling(self.one, 0.0, 0.0)
        return F.ConstructionData(p=I.ParamVector((eps,)), couplings=(c,))

    def build_extension(self, job):
        """Draw until the denominator scan accepts; every attempt is kept in
        the job, so a replay repeats the same scans."""
        attempts = job.setdefault("attempts", [])
        todo = list(attempts)
        rejects = 0
        while True:
            if todo:
                eps, rho, ell = todo.pop(0)
            else:
                eps, rho, ell = draw_extension(job["case"],
                                               self.extension_draws.draw(job["case"]))
                attempts.append([eps, rho, ell])
            try:
                spec = self.X.build_extension(job["case"], self.extension_data(
                    job["case"], eps, rho), ell=ell)
                job["rejects"] = rejects
                return spec
            except self.DenominatorZero:
                rejects += 1

    def ext_job(self, job) -> dict:
        np, X = self.np, self.X
        spec = self.build_extension(job)
        kind = job["kind"]
        if kind == "cond1":
            return _within(X.check_cond1(spec).max_residual, TOL["cond1"], "cond1")
        if kind == "cond2":
            return _within(X.check_cond2(spec).max_residual, TOL["cond2"], "cond2")
        if kind == "ext-si":
            return _within(X.extended_si_check(spec).max_residual, TOL["ext-si"], "ext-si")
        # potential on the 501-point window grid, spot-checked at the window
        # middle against W^2 - W' with W' from 5-point stencils of W; the
        # check only judges when stencils at h and h/2 agree
        a, b, n = X.extension_grid(spec)
        xs = np.linspace(a, b, n)
        xp = X.ExtendedSuperpotential(spec)
        _finite(np.asarray(xp.potential(xs)), "potential")
        x0 = 0.5 * (a + b)
        coarse, fine = (_stencil(xp.w, x0, h) for h in (1e-3, 5e-4))
        if abs(coarse - fine) > 1e-7 * (1.0 + abs(fine)):
            return {"skipped": "stencil not converged at the spot point"}
        v_mid = xp.w(x0) ** 2 - fine
        return _within(abs(xp.potential(x0) - v_mid) / (1.0 + abs(v_mid)), 1e-6, "potential")


def check_discrete_levels(potential, box, lam, count: int):
    """Check that `lam` are the lowest `count` eigenvalues of the FD matrix.

    The matrix is the one `fd_spectrum` documents: -d²/dx² + V by second
    differences on the interior nodes of `box`, Dirichlet walls.  Sturm
    counts computed here must put at most k eigenvalues below lam[k] - delta
    and at least k + 1 below lam[k] + delta, with delta = 1e-6 (1 + |lam[k]|).
    So a wrong eigenvalue fails the job whatever the gap to the closed form.
    """
    import numpy as np
    if len(lam) != count or not all(math.isfinite(v) for v in lam):
        raise JobFailure("fd:not-eigenvalue", f"expected {count} finite levels, got {lam!r}")
    h = (box.b - box.a) / (box.n - 1)
    xs = box.a + h * np.arange(1, box.n - 1)
    diag = (2.0 / h ** 2 + np.asarray(potential(xs), dtype=float)).tolist()
    off2 = 1.0 / h ** 4
    for k, value in enumerate(lam):
        delta = 1e-6 * (1.0 + abs(value))
        below, above = (_sturm_count(diag, off2, value + s * delta) for s in (-1.0, 1.0))
        if below > k or above < k + 1:
            raise JobFailure("fd:not-eigenvalue",
                             f"level {k} = {value!r}: {below} eigenvalues below it - {delta:.1e},"
                             f" {above} below it + {delta:.1e}")


def _sturm_count(diag: list, off2: float, lam: float) -> int:
    """Eigenvalues strictly below `lam`: negative pivots of T - lam = LDL^T."""
    count, d = 0, 1.0
    for i, a in enumerate(diag):
        d = a - lam - (off2 / d if i else 0.0)
        if d == 0.0:
            d = -1e-300
        if d < 0.0:
            count += 1
    return count


def _stencil(f, x: float, h: float):
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def _finite(value, what: str):
    import numpy as np
    if not np.all(np.isfinite(value)):
        raise JobFailure(f"{what}:non-finite", f"{what} returned a non-finite value")


def _within(value, tol: float, what: str) -> dict:
    _finite(value, what)
    if not value <= tol:
        raise JobFailure(f"{what}:tolerance", f"{what} residual {value:.3e} > tol {tol:g}",
                         {"value": float(value)})
    return {"value": float(value)}


# ---------------------------------------------------------------------------
# CLI jobs: one `python -m shapeinv.cli` subprocess at a time

README_COND2 = ["verify", "cond2", "--extension", "4", "--m", "3", "--invariant", "1",
                "--d", "1", "--window", "0.75,1.1", "--json"]


def family_flags(fid: str, eps: float, rho: float) -> list[str]:
    """Inline flags for `family_config`; `=` keeps negative values flag-safe."""
    doc = family_config(fid, eps, rho)
    coupling = doc["couplings"][0]
    flags = [f"--family={fid}", "--m=" + ",".join(repr(v) for v in doc["m"]),
             "--invariant=1", f"--beta={coupling['beta']!r}", f"--d={coupling['d']!r}"]
    if "rho_invariant" in doc:
        flags.append(f"--rho-invariant={doc['rho_invariant']}")
    return flags


def cli_argv(job) -> tuple[list[str], int]:
    """(argv, expected exit code); config jobs write their document first."""
    kind, fid = job["kind"], job.get("family")
    flags = family_flags(fid, job["eps"], job["rho"]) if fid else []
    if kind == "families-list":
        return ["families", "list", "--extensions", "--json"], 0
    if kind == "spectrum":
        return ["spectrum", *flags, "--kmax=3", "--json"], 0
    if kind == "verify-si":
        return ["verify", "si", *flags, "--json"], 0
    if kind == "verify-ladder":
        return ["verify", "ladder", *flags, "--k=1", "--json"], 0
    if kind == "verify-cond2":
        return list(README_COND2), 0
    if kind == "wavefunction":
        return ["wavefunction", *flags, "--k=1"], 0
    if kind in ("config-si", "config-ladder"):
        doc = dict(family_config(fid, job["eps"], job["rho"]), format="json")
        path = _write_config(job, doc)
        if kind == "config-si":
            return ["verify", "si", f"--config={path}"], 0
        return ["verify", "ladder", f"--config={path}", "--k=1"], 0
    variant = job["variant"]
    if variant == "unknown-family":
        return ["verify", "si", "--family=no-such-family", "--m=1", "--json"], 2
    if variant == "range-violation":
        return ["verify", "si", "--family=morse", f"--m={-abs(job['eps'])!r}",
                "--invariant=1", "--d=1", "--json"], 2
    if variant == "not-invariant":
        return ["spectrum", "--family=morse", "--m=2.5", "--invariant=m1", "--d=1"], 2
    # a config value that cannot be coerced is a configuration error
    path = _write_config(job, {"family": "morse", "m": ["abc"],
                               "couplings": [{"invariant": "1", "d": 1.0}]})
    return ["verify", "si", f"--config={path}"], 2


def _write_config(job, doc: dict) -> str:
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, f"job-{job['index'] % 64}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return os.path.relpath(path, ROOT)


def check_cli_output(job, code: int, want: int, stdout: str) -> dict:
    """Exit code first, then the JSON `pass` field or the printed values."""
    kind = job["kind"]
    label = kind if kind != "invalid" else f"invalid/{job['variant']}"
    if code != want:
        raise JobFailure(f"{label}:exit", f"exit {code}, expected {want}",
                         {"exit": code})
    if want != 0:
        return {"exit": code}
    if kind == "families-list":
        if len(json.loads(stdout)) != 24:
            raise JobFailure(f"{label}:output", "expected 13 families and 11 extensions")
    elif kind == "spectrum":
        levels = json.loads(stdout)["levels"]
        energies = [row["energy"] for row in levels]
        if [row["k"] for row in levels] != list(range(len(levels))) or energies[0] != 0 \
                or not all(math.isfinite(e) for e in energies):
            raise JobFailure(f"{label}:output", f"bad level table {levels!r}")
    elif kind == "wavefunction":
        head = stdout.split("\n", 1)[0]
        norm = float(head.split("norm=")[1].split(",")[0])
        if not abs(norm - 1.0) <= TOL["orthonormal"]:
            raise JobFailure(f"{label}:tolerance", f"norm {norm!r}")
    elif json.loads(stdout)["pass"] is not True:
        raise JobFailure(f"{label}:pass", "report says FAIL")
    return {"exit": code}


class CliRunner:
    def __init__(self, env: dict):
        self.env = env

    def run(self, job, tracer=None) -> dict:
        argv, want = cli_argv(job)
        cmd = [sys.executable]
        if tracer is not None:
            cmd += ["-X", "importtime"]
        cmd += ["-m", "shapeinv.cli", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=120)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.cli_process(wall, proc.stderr, proc.returncode, argv)
        return check_cli_output(job, proc.returncode, want, proc.stdout)


# ---------------------------------------------------------------------------
# the workload process

def execute(runner, job, tracer=None) -> tuple[str | None, str, dict]:
    """Run one job; returns (failure class or None, detail, output)."""
    kind = job["kind"]
    try:
        return None, "", runner.run(job, tracer)
    except JobFailure as exc:
        return exc.cls, str(exc), exc.out
    except Exception as exc:   # any other raise is a failing job, reported
        cls = type(exc).__name__
        return f"{kind}:{cls}", f"{cls}: {exc}", {}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def loop(runner, stream, seconds: float, tracer=None, deadline=None) -> dict:
    """Closed loop with one client: the next job starts when the last ends."""
    if deadline is not None:
        signal.signal(signal.SIGALRM, _on_alarm)
    jobs, lat, abandoned, failures = [], [], [], []
    t0 = time.perf_counter()
    for job in stream:
        if time.perf_counter() - t0 >= seconds:
            break
        if tracer is not None:
            tracer.begin_job(job)
        ts = time.perf_counter()
        try:
            try:
                if deadline is not None:
                    signal.setitimer(signal.ITIMER_REAL, deadline)
                cls, detail, out = execute(runner, job, tracer)
            finally:
                if deadline is not None:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except JobDeadline:
            cls, detail, out = f"{job['kind']}:deadline", f"abandoned after {deadline} s", {}
            abandoned.append(len(lat))
        te = time.perf_counter()
        if tracer is not None:
            tracer.end_job(job, cls, out)
        jobs.append(job)
        lat.append((te - ts) * 1e3)
        if cls is not None:
            failures.append({"class": cls, "detail": detail, "job": dict(job)})
    return {"elapsed_s": time.perf_counter() - t0, "latencies_ms": lat,
            "abandoned": abandoned, "failures": failures, "jobs": jobs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and the warm-up job")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")
    cli = args.workload == "cli-jobs"
    runner = CliRunner(child_env()) if cli else Library(args.seed)
    stream = job_stream(args.workload, args.seed)
    deadline = DEADLINE_S.get(args.workload)
    # the warm-up job passes on a working library; if it fails there is
    # nothing to measure (a checkout without src/shapeinv ends here too)
    cls, detail, _ = execute(runner, warmup_job(args.workload))
    if cls is not None:
        print(f"warm-up job failed [{cls}]: {detail}", file=sys.stderr)
        return 1
    result = {"t_ready": time.perf_counter()}
    if not args.setup_only:
        if args.trace:
            from tracing import Tracer
            with Tracer(cli_inprocess=cli) as tracer:
                traced = loop(runner, stream, args.seconds / 2, tracer, deadline)
            replay = [dict(job) for job in traced["jobs"]]
            untraced = loop(runner, replay, float("inf"), deadline=deadline)
            result["traced"] = {k: v for k, v in traced.items() if k != "jobs"}
            result["layers"] = tracer.metrics(traced, untraced)
            result["per_call"] = tracer.per_call_summary()
            result["spans_file"] = tracer.write_spans(args.workload, args.seed)
        else:
            run = loop(runner, stream, args.seconds, deadline=deadline)
            result.update({k: v for k, v in run.items() if k != "jobs"})
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    result["peak_rss_kb"] = usage.ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
