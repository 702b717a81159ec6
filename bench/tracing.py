"""Traced runs: spans and counters around the library's public functions.

The tracer replaces module attributes from outside the library, so calls
made between layers (verify -> spectra -> specfun) resolve through the
wrappers and nest as child spans.  Spans stay in memory and are written out
when the run ends.  Hot scalar calls (specfun on floats or Duals, and the
AD `seed`) only bump counters.  A layer's busy time counts its outermost
spans; its self time is each span's duration less the time of the calls
nested in it.
"""

from __future__ import annotations

import functools
import importlib
import io
import os
import statistics
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout

PERF = time.perf_counter
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# layer -> public callables, as (module or class, attribute)
SPANS = {
    "invariants": [("invariants", "parse_invariant"), ("invariants", "verify_invariant"),
                   ("invariants", "eval_invariant"), ("families", "eval_invariant"),
                   ("cli", "parse_invariant"), ("cli", "verify_invariant")],
    "families": [("families", n) for n in ("build_family", "translate_family",
                                           "superpotential", "partner_potentials",
                                           "remainder")],
    "spectra": [("spectra", n) for n in ("admissible_range", "eigenenergy", "wavefunction")]
    + [("spectra.Wavefunction", "__call__")],
    "verify.grid": [("verify", n) for n in ("si_residual", "ladder_check",
                                            "schrodinger_residual")],
    "verify.quadrature": [("verify", "quadrature"), ("verify", "orthonormality")],
    "verify.fd": [("verify", "reference_oracle"), ("verify", "fd_spectrum")],
    "extensions.build": [("extensions", "build_extension")],
    "extensions.checks": [("extensions", n) for n in ("check_cond1", "check_cond2",
                                                      "extended_si_check")],
    "extensions.potential": [("extensions.ExtendedSuperpotential", "potential"),
                             ("extensions.ExtendedSuperpotential", "partner")],
}
# specfun evaluators, under their own module and under the names extensions imports
POLYNOMIALS = ("jacobi_p", "laguerre_l", "hermite_h", "hyp1f1_terminating",
               "hyp2f1_terminating")
GAMMAS = ("gamma", "gamma_abs_complex")
EXT_IMPORTS = ("jacobi_p", "laguerre_l", "hyp1f1_terminating", "hyp2f1_terminating")


def import_profile(stderr: str) -> dict:
    """Cumulative microseconds of the `shapeinv`, `numpy` and `site` imports."""
    out = {}
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in ("shapeinv", "numpy", "site") and parts[1].strip().isdigit():
            out[name] = int(parts[1])
    return out


class Tracer:
    MAX_SPANS = 250_000

    def __init__(self, cli_inprocess: bool = False):
        self.cli_inprocess = cli_inprocess
        self.stack = []            # frames: [layer, name, start, child_s, parent, slot]
        self.depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.count = defaultdict(float)
        self.spans = []            # (name, job, parent slot, start, end)
        self.dropped = 0
        self.job_index = -1
        self.failed = 0
        self.worst_dev_ratio = 0.0
        self.cli = defaultdict(list)
        self.per_call = defaultdict(list)      # library calls made by jobs, by job type
        self.job_label = ""
        self._restore = []

    # -- spans ------------------------------------------------------------

    def _enter(self, layer: str, name: str) -> list:
        parent = self.stack[-1][5] if self.stack else -1
        slot = -1
        if len(self.spans) < self.MAX_SPANS:
            slot = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped += 1
        frame = [layer, name, 0.0, 0.0, parent, slot]
        self.stack.append(frame)
        self.calls[layer] += 1
        self.depth[layer] += 1
        frame[2] = PERF()
        return frame

    def _exit(self, frame: list) -> None:
        end = PERF()
        self.stack.pop()
        layer, dur = frame[0], end - frame[2]
        self.depth[layer] -= 1
        if self.depth[layer] == 0:
            self.busy[layer] += dur
        self.self_s[layer] += dur - frame[3]
        if self.stack:
            self.stack[-1][3] += dur
            if self.stack[-1][0] == "job":
                self.per_call[f"{frame[1]} @ {self.job_label}"].append(dur * 1e3)
        if frame[5] >= 0:
            self.spans[frame[5]] = (frame[1], self.job_index, frame[4], frame[2], end)

    def begin_job(self, job: dict) -> None:
        self.job_index = job["index"]
        self.job_label = "/".join(str(job[k]) for k in ("kind", "family", "case")
                                  if k in job)
        self._job_frame = self._enter("job", f"job:{job['kind']}")

    def end_job(self, job: dict, failure, out: dict) -> None:
        # a deadline can land between a span's entry and its try block
        while self.stack[-1] is not self._job_frame:
            self._exit(self.stack[-1])
        self._exit(self._job_frame)
        self.failed += failure is not None
        if "ratio" in out:
            self.worst_dev_ratio = max(self.worst_dev_ratio, out["ratio"])

    def _span(self, fn, layer: str, name: str, on_result=None, on_error=None,
              wrap_args=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if wrap_args is not None:
                args = wrap_args(args)
            frame = self._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self._exit(frame)
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def _specfun(self, fn, name: str, polynomial: bool):
        ndarray = self.np.ndarray
        array_span = self._span(fn, "specfun", f"specfun.{name}")
        count = self.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if polynomial and isinstance(args[-1], ndarray):
                count["specfun.array_calls"] += 1
                return array_span(*args, **kwargs)
            t0 = PERF()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = PERF() - t0
                count["specfun.scalar_calls"] += 1
                count["specfun.scalar_s"] += dt
                if self.stack:
                    self.stack[-1][3] += dt
        return traced

    def _counted_seed(self, fn):
        count = self.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count["dual.seeds"] += 1
            return fn(*args, **kwargs)
        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _owner(self, path: str):
        mod, _, cls = path.partition(".")
        module = self.modules.get(mod)
        if module is None:
            return None
        return getattr(module, cls) if cls else module

    def install(self) -> None:
        import numpy as np
        from shapeinv.errors import DenominatorZero, NonConvergence
        self.np = np
        names = ["invariants", "families", "specfun", "spectra", "verify", "extensions"]
        if self.cli_inprocess:
            names.append("cli")
        self.modules = {n: importlib.import_module(f"shapeinv.{n}") for n in names}
        size, count = np.size, self.count

        def add(key, amount):
            count[key] += amount

        hooks = {
            ("families", "superpotential"):
                {"on_result": lambda a, r: add("families.points", size(a[1]))},
            ("spectra.Wavefunction", "__call__"):
                {"on_result": lambda a, r: add("spectra.wf_points", size(a[1]))},
            ("verify", "quadrature"): {
                "wrap_args": lambda a: (self._counted_integrand(a[0]),) + a[1:],
                "on_error": lambda e: add("verify.quadrature.nonconvergence",
                                          isinstance(e, NonConvergence))},
            ("verify", "fd_spectrum"): {"on_result": self._fd_counts},
            ("extensions", "build_extension"): {
                "on_error": lambda e: add("extensions.build.rejects",
                                          isinstance(e, DenominatorZero))},
            ("extensions.ExtendedSuperpotential", "potential"):
                {"on_result": lambda a, r: add("extensions.potential.points", size(a[1]))},
            ("extensions.ExtendedSuperpotential", "partner"):
                {"on_result": lambda a, r: add("extensions.potential.points", size(a[1]))},
        }
        for n in ("check_cond1", "check_cond2", "extended_si_check"):
            hooks[("extensions", n)] = {
                "on_result": lambda a, r: add("extensions.checks.points", r.points_used)}
        for layer, targets in SPANS.items():
            for path, attr in targets:
                owner = self._owner(path)
                if owner is None:
                    continue
                self._set(owner, attr, self._span(getattr(owner, attr), layer,
                                                  f"{path}.{attr}",
                                                  **hooks.get((path, attr), {})))
        specfun, extensions = self.modules["specfun"], self.modules["extensions"]
        for name in POLYNOMIALS + GAMMAS:
            self._set(specfun, name, self._specfun(getattr(specfun, name), name,
                                                   name in POLYNOMIALS))
        for name in EXT_IMPORTS:
            self._set(extensions, name, self._specfun(getattr(extensions, name), name, True))
        self._set(extensions, "seed", self._counted_seed(extensions.seed))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _counted_integrand(self, f):
        size, count = self.np.size, self.count

        def counted(x):
            count["verify.quadrature.f_calls"] += 1
            count["verify.quadrature.f_points"] += size(x)
            return f(x)
        return counted

    def _fd_counts(self, args, result) -> None:
        oracle, levels = args[1], args[2]
        self.count["verify.fd.grid_points"] += oracle.n
        self.count["verify.fd.levels"] += levels
        self.count["verify.fd.level_kpts"] += levels * oracle.n / 1000.0

    # -- CLI subprocesses -------------------------------------------------

    def cli_process(self, wall_s: float, stderr: str, code: int, argv: list) -> None:
        """Record one `-X importtime` subprocess, then rerun its argv in-process."""
        prof = import_profile(stderr)
        self.cli["process_ms"].append(wall_s * 1e3)
        self.per_call[f"cli process @ {self.job_label}"].append(wall_s * 1e3)
        self.cli["import_ms"].append(prof.get("shapeinv", 0) / 1e3)
        self.cli["numpy_import_ms"].append(prof.get("numpy", 0) / 1e3)
        self.cli["site_import_ms"].append(prof.get("site", 0) / 1e3)
        cli = self.modules["cli"]
        sink = io.StringIO()
        t0 = PERF()
        with redirect_stdout(sink), redirect_stderr(sink):
            try:
                inproc = cli.main(argv)
            except SystemExit as exc:
                inproc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # the interpreter would print a traceback, exit 1
                inproc = 1
        self.cli["main_ms"].append((PERF() - t0) * 1e3)
        self.cli["exit_mismatch"].append(int(inproc != code))

    # -- results ----------------------------------------------------------

    def metrics(self, traced: dict, untraced: dict) -> dict:
        ms = 1e3
        busy, calls, c = self.busy, self.calls, self.count
        job_s = busy["job"] or 1.0
        specfun_s = busy["specfun"] + c["specfun.scalar_s"]
        checks_pts = c["extensions.checks.points"]
        builds = calls["extensions.build"]
        n = len(traced["latencies_ms"])
        m = {
            "invariants.calls": calls["invariants"],
            "invariants.busy_ms": busy["invariants"] * ms,
            "invariants.share": busy["invariants"] / job_s,
            "families.calls": calls["families"],
            "families.busy_ms": busy["families"] * ms,
            "families.self_ms": self.self_s["families"] * ms,
            "families.points": c["families.points"],
            "families.share": busy["families"] / job_s,
            "specfun.array_calls": c["specfun.array_calls"],
            "specfun.scalar_calls": c["specfun.scalar_calls"],
            "specfun.busy_ms": specfun_s * ms,
            "specfun.share": specfun_s / job_s,
            "spectra.calls": calls["spectra"],
            "spectra.busy_ms": busy["spectra"] * ms,
            "spectra.wf_points": c["spectra.wf_points"],
            "spectra.share": busy["spectra"] / job_s,
            "verify.grid.calls": calls["verify.grid"],
            "verify.grid.busy_ms": busy["verify.grid"] * ms,
            "verify.grid.self_ms": self.self_s["verify.grid"] * ms,
            "verify.grid.share": busy["verify.grid"] / job_s,
            "verify.quadrature.calls": calls["verify.quadrature"],
            "verify.quadrature.busy_ms": busy["verify.quadrature"] * ms,
            "verify.quadrature.f_calls": c["verify.quadrature.f_calls"],
            "verify.quadrature.f_points": c["verify.quadrature.f_points"],
            "verify.quadrature.nonconvergence": c["verify.quadrature.nonconvergence"],
            "verify.quadrature.share": busy["verify.quadrature"] / job_s,
            "verify.fd.calls": calls["verify.fd"],
            "verify.fd.busy_ms": busy["verify.fd"] * ms,
            "verify.fd.self_ms": self.self_s["verify.fd"] * ms,
            "verify.fd.grid_points": c["verify.fd.grid_points"],
            "verify.fd.levels": c["verify.fd.levels"],
            "verify.fd.ms_per_level_kpt": (self.self_s["verify.fd"] * ms
                                           / c["verify.fd.level_kpts"]
                                           if c["verify.fd.level_kpts"] else 0.0),
            "verify.fd.worst_dev_ratio": self.worst_dev_ratio,
            "verify.fd.share": busy["verify.fd"] / job_s,
            "extensions.build.calls": builds,
            "extensions.build.busy_ms": busy["extensions.build"] * ms,
            "extensions.build.reject_ratio": (c["extensions.build.rejects"] / builds
                                              if builds else 0.0),
            "extensions.build.share": busy["extensions.build"] / job_s,
            "extensions.checks.calls": calls["extensions.checks"],
            "extensions.checks.busy_ms": busy["extensions.checks"] * ms,
            "extensions.checks.points": checks_pts,
            "extensions.checks.us_per_point": (busy["extensions.checks"] * 1e6 / checks_pts
                                               if checks_pts else 0.0),
            "extensions.checks.share": busy["extensions.checks"] / job_s,
            "extensions.potential.points": c["extensions.potential.points"],
            "extensions.potential.busy_ms": busy["extensions.potential"] * ms,
            "extensions.potential.share": busy["extensions.potential"] / job_s,
            "dual.seeds": c["dual.seeds"],
            "job.busy_ms": busy["job"] * ms,
            "fail_ratio": self.failed / n if n else 0.0,
            "trace.overhead": ((n / traced["elapsed_s"]) / (n / untraced["elapsed_s"])
                               if n else 0.0),
            "trace.spans": len(self.spans) + self.dropped,
        }
        if self.cli["process_ms"]:
            for key in ("process_ms", "import_ms", "numpy_import_ms", "site_import_ms",
                        "main_ms"):
                m[f"cli.{key}"] = statistics.median(self.cli[key])
            m["cli.exit_mismatch"] = sum(self.cli["exit_mismatch"])
        return m

    def per_call_summary(self) -> dict:
        """Median, minimum and maximum milliseconds of each call a job makes."""
        return {key: {"calls": len(v), "median_ms": statistics.median(v),
                      "min_ms": min(v), "max_ms": max(v)}
                for key, v in sorted(self.per_call.items())}

    def write_spans(self, workload: str, seed) -> str:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.tsv")
        t0 = self.spans[0][3] if self.spans and self.spans[0] else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans kept {len(self.spans)}, dropped {self.dropped}\n")
            fh.write("slot\tname\tjob\tparent\tstart_us\tdur_us\n")
            for slot, span in enumerate(self.spans):
                if span is None:
                    continue
                name, job, parent, start, end = span
                fh.write(f"{slot}\t{name}\t{job}\t{parent}\t{(start - t0) * 1e6:.1f}\t"
                         f"{(end - start) * 1e6:.1f}\n")
        return os.path.relpath(path, os.path.dirname(OUT_DIR))
