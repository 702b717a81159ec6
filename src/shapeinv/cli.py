"""Command-line front end.

One job per invocation, described either by a JSON config document or by
inline flags; identical configs print byte-identical output.  Floats are
written with 17 significant digits so the reports round-trip.  Exit codes:
0 pass, 1 tolerance failure, 2 validation or config error, 3 numerical
failure, 4 internal error (any other exception, reported on one line).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import extensions, families, spectra, verify
from .errors import NumericalError, ValidationError
from .extensions import ExtensionSpec
from .families import FamilyParams
from .invariants import ParamVector, parse_invariant, verify_invariant

EXIT_PASS = 0
EXIT_TOLERANCE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

_CHECK_TOL = {
    "si": 1e-9,
    "cond1": 1e-8,
    "cond2": 1e-10,
    "ext-si": 1e-7,
    "ladder": 1e-5,
    "orthonormal": 1e-6,
}
_ORACLE_TOL = 5e-3
_LADDER_POINTS = 801


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _dumps(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 digits."""
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _dumps(v)
                              for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dumps(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# job configuration

_CONFIG_KEYS = {"family", "extension", "m", "couplings", "rho_invariant",
                "ell", "window", "grid", "oracle", "tol", "format"}


@dataclass
class JobConfig:
    family: Optional[str] = None
    extension: Optional[str] = None
    m: Optional[tuple] = None
    couplings: Optional[tuple] = None      # ((source, beta, d), ...)
    rho_invariant: Optional[str] = None
    ell: Optional[int] = None
    window: Optional[tuple] = None
    grid: Optional[tuple] = None           # (a, b, n)
    oracle: Optional[tuple] = None         # (a, b, n)
    tol: Optional[float] = None
    fmt: Optional[str] = None


def _floats(text: str, what: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"{what} must be comma-separated numbers, got {text!r}") from None


def _parse_grid(text: str, what: str = "grid") -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"{what} must be 'a,b,N', got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError:
        raise ValidationError(f"{what} must be 'a,b,N', got {text!r}") from None


def _box_from(value, what: str) -> tuple:
    if isinstance(value, dict):
        try:
            return (float(value["a"]), float(value["b"]), int(value.get("n", value.get("N"))))
        except (KeyError, TypeError, ValueError):
            raise ValidationError(f"{what} must carry numeric a, b, n") from None
    if isinstance(value, (list, tuple)) and len(value) == 3:
        return (float(value[0]), float(value[1]), int(value[2]))
    raise ValidationError(f"{what} must be an object with a, b, n")


def _config_from_file(path: str) -> JobConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("config document must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(sorted(unknown))}")
    try:
        return _coerce_config(doc)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"config {path!r} has a value of the wrong type: {exc}") from None


def _coerce_config(doc: dict) -> JobConfig:
    cfg = JobConfig()
    cfg.family = doc.get("family")
    cfg.extension = doc.get("extension")
    if "m" in doc:
        cfg.m = tuple(float(v) for v in doc["m"])
    if "couplings" in doc:
        rows = []
        for entry in doc["couplings"]:
            if not isinstance(entry, dict) or "invariant" not in entry:
                raise ValidationError("each coupling needs an 'invariant' source string")
            rows.append((str(entry["invariant"]),
                         float(entry.get("beta", 0.0)), float(entry.get("d", 0.0))))
        cfg.couplings = tuple(rows)
    cfg.rho_invariant = doc.get("rho_invariant")
    if cfg.rho_invariant is not None and not isinstance(cfg.rho_invariant, str):
        raise ValidationError("config value rho_invariant has the wrong type: expected an "
                              f"invariant source string, got {type(cfg.rho_invariant).__name__}")
    if "ell" in doc:
        cfg.ell = int(doc["ell"])
    if "window" in doc:
        w = doc["window"]
        if not (isinstance(w, (list, tuple)) and len(w) == 2):
            raise ValidationError("window must be a two-element array [a, b]")
        cfg.window = (float(w[0]), float(w[1]))
    if "grid" in doc:
        cfg.grid = _box_from(doc["grid"], "grid")
    if "oracle" in doc:
        cfg.oracle = _box_from(doc["oracle"], "oracle")
    if "tol" in doc:
        cfg.tol = float(doc["tol"])
    if "format" in doc:
        if doc["format"] not in ("text", "json", "csv"):
            raise ValidationError(f"format must be text, json, or csv, got {doc['format']!r}")
        cfg.fmt = doc["format"]
    return cfg


def _job_config(args) -> JobConfig:
    cfg = _config_from_file(args.config) if getattr(args, "config", None) else JobConfig()
    if getattr(args, "family", None):
        cfg.family = args.family
    if getattr(args, "extension", None):
        cfg.extension = args.extension
    if getattr(args, "m", None):
        cfg.m = _floats(args.m, "--m")
    if getattr(args, "invariant", None):
        exprs = list(args.invariant)
        betas = _floats(args.beta, "--beta") if getattr(args, "beta", None) else (0.0,) * len(exprs)
        ds = _floats(args.d, "--d") if getattr(args, "d", None) else (0.0,) * len(exprs)
        if len(betas) == 1:
            betas = betas * len(exprs)
        if len(ds) == 1:
            ds = ds * len(exprs)
        if not (len(exprs) == len(betas) == len(ds)):
            raise ValidationError("--invariant, --beta, --d counts must agree")
        cfg.couplings = tuple(zip(exprs, betas, ds))
    elif getattr(args, "beta", None) or getattr(args, "d", None):
        betas = _floats(args.beta, "--beta") if args.beta else (0.0,)
        ds = _floats(args.d, "--d") if args.d else (0.0,)
        if len(betas) != len(ds):
            if len(betas) == 1:
                betas = betas * len(ds)
            elif len(ds) == 1:
                ds = ds * len(betas)
            else:
                raise ValidationError("--beta and --d counts must agree")
        cfg.couplings = tuple(("1", b, d) for b, d in zip(betas, ds))
    if getattr(args, "rho_invariant", None):
        cfg.rho_invariant = args.rho_invariant
    if getattr(args, "ell", None) is not None:
        cfg.ell = args.ell
    if getattr(args, "window", None):
        w = _floats(args.window, "--window")
        if len(w) != 2:
            raise ValidationError("--window must be 'a,b'")
        cfg.window = (w[0], w[1])
    if getattr(args, "grid", None):
        cfg.grid = _parse_grid(args.grid)
    if getattr(args, "oracle_box", None):
        cfg.oracle = _parse_grid(args.oracle_box, "--oracle")
    if getattr(args, "tol", None) is not None:
        cfg.tol = args.tol
    if getattr(args, "json", False):
        cfg.fmt = "json"
    return cfg


def _build_target(cfg: JobConfig):
    """FamilyParams or ExtensionSpec from a config; invariants checked first."""
    if (cfg.family is None) == (cfg.extension is None):
        raise ValidationError("give exactly one of family or extension id")
    if cfg.m is None:
        raise ValidationError("parameter vector m is required")
    p = ParamVector(cfg.m)
    rows = cfg.couplings if cfg.couplings else (("1", 0.0, 0.0),)
    coupled = tuple(
        families.Coupling(verify_invariant(parse_invariant(src), p.n), beta=b, d=d)
        for src, b, d in rows)
    rho_expr = None
    if cfg.rho_invariant is not None:
        rho_expr = verify_invariant(parse_invariant(cfg.rho_invariant), p.n)
    data = families.ConstructionData(p=p, couplings=coupled, rho_invariant=rho_expr)
    if cfg.family is not None:
        if cfg.ell is not None or cfg.window is not None:
            raise ValidationError("ell and window apply to extensions only")
        return families.build_family(cfg.family, data)
    return extensions.build_extension(cfg.extension, data, ell=cfg.ell,
                                      window=cfg.window)


def _need_family(target) -> FamilyParams:
    if not isinstance(target, FamilyParams):
        raise ValidationError("this command needs a base family, not an extension")
    return target


def _need_extension(target) -> ExtensionSpec:
    if not isinstance(target, ExtensionSpec):
        raise ValidationError("this command needs an extension; "
                              "base families use 'verify si'")
    return target


# ---------------------------------------------------------------------------
# subcommands

def cmd_families_list(args) -> int:
    rows = [{"id": fid, "kind": "family", "label": families.FAMILY_SPECS[fid].label}
            for fid in families.family_ids()]
    if args.extensions:
        rows += [{"id": f"ext-{num}", "kind": "extension", "label": cs.label}
                 for num, cs in extensions.CASE_SPECS.items()]
    if args.json:
        print(_dumps(rows))
        return EXIT_PASS
    width = max(len(r["id"]) for r in rows)
    for r in rows:
        print(f"{r['id']:<{width}}  {r['label']}")
    return EXIT_PASS


def _energy_table(args, oracle: bool):
    """Config, family, admissible levels up to --kmax, E_k, tolerance, and,
    if asked, the FD box with its gaps lambda_k - lambda_0."""
    cfg = _job_config(args)
    fp = _need_family(_build_target(cfg))
    ks = spectra.admissible_range(fp).levels(args.kmax)
    if not ks:
        raise ValidationError(f"family {fp.id!r} has no admissible levels here")
    energies = [spectra.eigenenergy(fp, k) for k in ks]
    tol = cfg.tol if cfg.tol is not None else _ORACLE_TOL
    box = gaps = None
    if oracle:
        box = verify.OracleSpec(*cfg.oracle) if cfg.oracle else verify.reference_oracle(fp)
        lam = verify.fd_spectrum(fp, box, max(ks) + 1)
        gaps = [lam[k] - lam[0] for k in ks]
    return cfg, fp, ks, energies, tol, box, gaps


def cmd_spectrum(args) -> int:
    cfg, fp, ks, energies, tol, box, gaps = _energy_table(args, args.oracle)
    if cfg.fmt == "json":
        out = {
            "family": fp.id,
            "params": {"eps": fp.eps, "rho": fp.rho, "beta": fp.beta},
            "levels": [{"k": k, "energy": e} for k, e in zip(ks, energies)],
        }
        if gaps is not None:
            for row, g in zip(out["levels"], gaps):
                row["oracle_gap"] = g
                row["deviation"] = abs(g - row["energy"])
            out["oracle"] = {"a": box.a, "b": box.b, "N": box.n}
        print(_dumps(out))
    else:
        header = "k\tE_k" + ("\toracle_gap\tdeviation" if gaps is not None else "")
        print(header)
        for i, (k, e) in enumerate(zip(ks, energies)):
            line = f"{k}\t{_fmt(e)}"
            if gaps is not None:
                line += f"\t{_fmt(gaps[i])}\t{_fmt(abs(gaps[i] - e))}"
            print(line)
    if gaps is not None and max(abs(g - e) for g, e in zip(gaps, energies)) > tol:
        return EXIT_TOLERANCE
    return EXIT_PASS


def cmd_wavefunction(args) -> int:
    cfg = _job_config(args)
    fp = _need_family(_build_target(cfg))
    wf = spectra.wavefunction(fp, args.k)
    xs, _ = verify.grid_points(fp.domain, cfg.grid or verify.default_grid(fp, 201))
    zeta = np.asarray(wf(xs), dtype=float)
    v, _ = families.partner_potentials(fp, xs)
    norm = verify.quadrature(lambda t: wf(t) * wf(t), fp.domain, 1e-10)
    residue = wf.imag_residue(xs)
    if cfg.fmt == "json":
        out = {
            "family": fp.id,
            "params": {"eps": fp.eps, "rho": fp.rho, "beta": fp.beta},
            "k": args.k,
            "norm": norm,
            "imag_residue": residue,
            "grid": {"a": float(xs[0]), "b": float(xs[-1]), "N": int(xs.size)},
            "rows": [[float(x), float(z), float(p)] for x, z, p in zip(xs, zeta, v)],
        }
        print(_dumps(out))
    else:
        # csv: '.' decimal, ',' separator, diagnostics on a comment line
        print(f"# family={fp.id},k={args.k},norm={_fmt(norm)},imag_residue={_fmt(residue)}")
        print("x,zeta,V")
        for x, z, p in zip(xs, zeta, v):
            print(f"{_fmt(x)},{_fmt(z)},{_fmt(p)}")
    return EXIT_PASS


def _check_report(target, report, tol: float, as_json: bool,
                  extra: Optional[dict] = None) -> int:
    """One residual report line (or JSON object) for a family or an extension."""
    out = verify.report_json(target, report, report.grid)
    out["tol"] = tol
    passed = report.max_residual <= tol
    out["pass"] = bool(passed)
    if extra:
        out.update(extra)
    if as_json:
        print(_dumps(out))
    else:
        kind = "family" if isinstance(target, FamilyParams) else "extension"
        print(f"{kind}={out['family']} max_residual={_fmt(report.max_residual)} "
              f"mean={_fmt(report.mean_residual)} argmax_x={_fmt(report.argmax_x)} "
              f"tol={_fmt(tol)} {'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_TOLERANCE


def cmd_verify(args) -> int:
    cfg = _job_config(args)
    which = args.check
    tol = cfg.tol if cfg.tol is not None else _CHECK_TOL[which]
    target = _build_target(cfg)
    as_json = cfg.fmt == "json"
    if which in ("ladder", "orthonormal") and cfg.grid is not None:
        raise ValidationError("grid {},{},{} does not apply to verify {}, which chooses "
                              "its own points".format(*cfg.grid, which))
    if which == "si":
        fp = _need_family(target)
        return _check_report(fp, verify.si_residual(fp, cfg.grid), tol, as_json)
    if which == "ladder":
        fp = _need_family(target)
        report = verify.ladder_check(fp, args.k, _LADDER_POINTS)
        return _check_report(fp, report, tol, as_json, extra={"k": args.k})
    if which == "orthonormal":
        fp = _need_family(target)
        gram = verify.orthonormality(fp, args.kmax)
        passed = gram.max_deviation <= tol
        out = {
            "family": fp.id,
            "params": {"eps": fp.eps, "rho": fp.rho, "beta": fp.beta},
            "levels": list(gram.levels),
            "max_deviation": gram.max_deviation,
            "entries": [[i, j, val] for i, j, val in gram.entries],
            "tol": tol,
            "pass": bool(passed),
        }
        if as_json:
            print(_dumps(out))
        else:
            print(f"family={fp.id} levels={list(gram.levels)} "
                  f"max_deviation={_fmt(gram.max_deviation)} tol={_fmt(tol)} "
                  f"{'PASS' if passed else 'FAIL'}")
        return EXIT_PASS if passed else EXIT_TOLERANCE
    # extension checks
    spec = _need_extension(target)
    if which == "cond1":
        report = extensions.check_cond1(spec, cfg.grid)
    elif which == "cond2":
        report = extensions.check_cond2(spec, cfg.grid)
    else:
        report = extensions.extended_si_check(spec, cfg.grid)
    return _check_report(spec, report, tol, as_json)


def cmd_oracle_compare(args) -> int:
    cfg, fp, ks, energies, tol, box, gaps = _energy_table(args, True)
    devs = [abs(g - e) for g, e in zip(gaps, energies)]
    passed = max(devs) <= tol
    if cfg.fmt == "json":
        out = {
            "family": fp.id,
            "params": {"eps": fp.eps, "rho": fp.rho, "beta": fp.beta},
            "oracle": {"a": box.a, "b": box.b, "N": box.n},
            "levels": [{"k": k, "energy": e, "oracle_gap": g, "deviation": d}
                       for k, e, g, d in zip(ks, energies, gaps, devs)],
            "tol": tol,
            "pass": bool(passed),
        }
        print(_dumps(out))
    else:
        print("k\tE_k\toracle_gap\tdeviation")
        for k, e, g, d in zip(ks, energies, gaps, devs):
            print(f"{k}\t{_fmt(e)}\t{_fmt(g)}\t{_fmt(d)}")
        print(f"max_deviation={_fmt(max(devs))} tol={_fmt(tol)} "
              f"{'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# parser wiring

def _add_job_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="path to a JSON job document")
    p.add_argument("--family", help="family id (see 'families list')")
    p.add_argument("--extension", help="extension id ext-1 .. ext-11")
    p.add_argument("--m", help="comma-separated parameter vector, e.g. 0.2 or 1,2,3")
    p.add_argument("--invariant", action="append",
                   help="invariant source text; repeat once per coupling")
    p.add_argument("--beta", help="comma-separated beta_j constants")
    p.add_argument("--d", help="comma-separated d_j constants")
    p.add_argument("--rho-invariant", dest="rho_invariant",
                   help="extra invariant for the ratio families")
    p.add_argument("--ell", type=int, help="extension degree (cases that use one)")
    p.add_argument("--window", help="extension scan window 'a,b'")
    p.add_argument("--grid", help="evaluation grid 'a,b,N'")
    p.add_argument("--tol", type=float, help="override the check tolerance")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapeinv",
        description="shape-invariant superpotential families, spectra, and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fam = sub.add_parser("families", help="family and extension registry")
    fam_sub = p_fam.add_subparsers(dest="subcommand", required=True)
    p_list = fam_sub.add_parser("list", help="list known ids")
    p_list.add_argument("--extensions", action="store_true",
                        help="append the extension rows")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=cmd_families_list)

    p_spec = sub.add_parser("spectrum", help="closed-form energy table")
    _add_job_flags(p_spec)
    p_spec.add_argument("--kmax", type=int, default=8, help="largest level index")
    p_spec.add_argument("--oracle", action="store_true",
                        help="add finite-difference gap and deviation columns")
    p_spec.set_defaults(func=cmd_spectrum)

    p_wf = sub.add_parser("wavefunction", help="sample one bound state to CSV/JSON")
    _add_job_flags(p_wf)
    p_wf.add_argument("--k", type=int, default=0, help="level index")
    p_wf.set_defaults(func=cmd_wavefunction)

    p_ver = sub.add_parser("verify", help="run one named check")
    p_ver.add_argument("check",
                       choices=("si", "cond1", "cond2", "ext-si", "ladder", "orthonormal"))
    _add_job_flags(p_ver)
    p_ver.add_argument("--k", type=int, default=1, help="ladder step index")
    p_ver.add_argument("--kmax", type=int, default=3,
                       help="highest level for orthonormality")
    p_ver.set_defaults(func=cmd_verify)

    p_orc = sub.add_parser("oracle", help="independent eigenvalue oracle")
    orc_sub = p_orc.add_subparsers(dest="subcommand", required=True)
    p_cmp = orc_sub.add_parser("compare", help="closed-form E_k against FD gaps")
    _add_job_flags(p_cmp)
    p_cmp.add_argument("--kmax", type=int, default=2,
                       help="largest level index to compare")
    p_cmp.add_argument("--oracle", dest="oracle_box",
                       help="FD truncation box 'a,b,N' (default: sized from the ground state)")
    p_cmp.set_defaults(func=cmd_oracle_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy's floating-point warnings would break the one-line stderr
        # contract of exit codes 2-4
        with np.errstate(all="ignore"):
            return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # the exit-code contract covers every input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
