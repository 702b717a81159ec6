"""Command-line front end.

One job per invocation: a config document whose keys are `_CONFIG_KEYS`,
read from a file by `--config` or written as flags (`--m 1,2` is
`"m": [1, 2]`, `--json` is `"format": "json"`).  Both are coerced by the
same rules; each given flag replaces its key in the file's document.
`_READS` names the inputs each command reads, with their defaults; any
other given input is a validation error.  Identical jobs print
byte-identical output.  Floats are written with 17 significant digits so
the reports round-trip.  Exit codes: 0 pass, 1 tolerance failure, 2
validation or config error, 3 numerical failure, 4 internal error (any
other exception, reported on one line).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Optional

import numpy as np

from . import extensions, families, specfun, spectra, verify
from .errors import NumericalError, ValidationError
from .families import FamilyParams
from .invariants import ParamVector, parse_invariant, verify_invariant

EXIT_PASS = 0
EXIT_TOLERANCE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4
_KMAX_CAP = 65536   # the largest --kmax: a level table is built up to it


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

# the config-document keys, in the order a job's inputs are checked
_CONFIG_KEYS = ("family", "extension", "m", "couplings", "rho_invariant", "ell", "window",
                "grid", "oracle", "tol", "format")
# the inputs every command reads, and each command's other inputs, with
# their defaults (None: none given, or the check chooses from the target);
# --k and --kmax are flags with no config key
_EVERY_COMMAND_READS = {"m": None, "couplings": None, "rho_invariant": None, "format": "text"}
_EXTENSION = {"extension": None, "ell": None, "window": None, "grid": None}
_READS = {
    "spectrum": {"family": None, "kmax": 8},
    "oracle compare": {"family": None, "kmax": 2, "oracle": None, "tol": 5e-3},
    "wavefunction": {"family": None, "k": 0, "grid": None},
    "verify si": {"family": None, "grid": None, "tol": 1e-9},
    "verify ladder": {"family": None, "k": 1, "tol": 1e-5},
    "verify orthonormal": {"family": None, "kmax": 3, "tol": 1e-6},
    "verify cond1": {**_EXTENSION, "tol": 1e-8},
    "verify cond2": {**_EXTENSION, "tol": 1e-10},
    "verify ext-si": {**_EXTENSION, "tol": 1e-7},
}


def _integer(value, what: str) -> int:
    # int() alone would truncate 5.9 and parse "5"
    if isinstance(value, (bool, str)) or isinstance(value, float) and not value.is_integer():
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _number(value, what: str) -> float:
    # float() alone would parse "1.5" and take True as 1
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


def _box(value, what: str) -> tuple:
    """(a, b, n) of a grid or oracle box: an object with a, b and n (or N),
    or an array [a, b, N]."""
    if isinstance(value, dict):
        if not ({"a", "b"} <= value.keys() and {"n", "N"} & value.keys()):
            raise ValidationError(f"{what} must carry numeric a, b, n")
        value = [value["a"], value["b"], value.get("n", value.get("N"))]
    if not (isinstance(value, list) and len(value) == 3):
        raise ValidationError(f"{what} must be an object with a, b, n")
    return (_number(value[0], f"{what} a"), _number(value[1], f"{what} b"),
            _integer(value[2], f"{what} n"))


def _coerce_config(doc: dict) -> dict:
    """A config document, read from a file or built from the flags, with its
    values coerced: m, window and the (a, b, n) boxes as tuples, couplings as
    ((source, beta, d), ...).  A value of the wrong type raises TypeError or
    ValueError."""
    cfg = dict(doc)
    if "m" in doc:
        if not isinstance(doc["m"], list):
            raise TypeError(f"m must be an array of numbers, got {doc['m']!r}")
        cfg["m"] = tuple(_number(v, "m") for v in doc["m"])
    if "couplings" in doc:
        rows = []
        for entry in doc["couplings"]:
            if not isinstance(entry, dict) or "invariant" not in entry:
                raise ValidationError("each coupling needs an 'invariant' source string")
            rows.append((str(entry["invariant"]), _number(entry.get("beta", 0.0), "beta"),
                         _number(entry.get("d", 0.0), "d")))
        cfg["couplings"] = tuple(rows)
    rho_invariant = doc.get("rho_invariant")
    if rho_invariant is not None and not isinstance(rho_invariant, str):
        raise ValidationError("config value rho_invariant has the wrong type: expected an "
                              f"invariant source string, got {type(rho_invariant).__name__}")
    if "ell" in doc:
        cfg["ell"] = _integer(doc["ell"], "ell")
    if "window" in doc:
        w = doc["window"]
        if not (isinstance(w, list) and len(w) == 2):
            raise ValidationError("window must be a two-element array [a, b]")
        cfg["window"] = (_number(w[0], "window a"), _number(w[1], "window b"))
    for key in ("grid", "oracle"):
        if key in doc:
            cfg[key] = _box(doc[key], key)
    if "tol" in doc:
        cfg["tol"] = _number(doc["tol"], "tol")
        if not 0.0 <= cfg["tol"] < math.inf:
            raise ValidationError(f"tol must be finite and at least 0, got {doc['tol']!r}")
    if "format" in doc and doc["format"] not in ("text", "json", "csv"):
        raise ValidationError(f"format must be text, json, or csv, got {doc['format']!r}")
    return cfg


def _config_from_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("config document must be a JSON object")
    unknown = set(doc) - set(_CONFIG_KEYS)
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(sorted(unknown))}")
    try:
        return _coerce_config(doc)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"config {path!r} has a value of the wrong type: {exc}") from None


def _flag_numbers(text: str, what: str, form: str = "") -> list:
    """The numbers of a comma-separated flag value.  A `form` ('a,b' or
    'a,b,N') fixes how many there are, and its N must be an integer."""
    parts = text.split(",")
    kinds = ([int if name == "N" else float for name in form.split(",")] if form
             else [float] * len(parts))
    try:
        if len(parts) != len(kinds):
            raise ValueError(form)
        return [kind(part) for kind, part in zip(kinds, parts)]
    except ValueError:
        shape = f"'{form}'" if form else "comma-separated numbers"
        raise ValidationError(f"{what} must be {shape}, got {text!r}") from None


def _flag_document(args) -> dict:
    """The job flags that were given, as a config document.  A flag given
    with an empty value (`--m=`) is given: its value fails to parse."""
    doc = {key: getattr(args, key) for key in ("family", "extension", "rho_invariant", "ell",
                                               "tol", "k", "kmax")
           if getattr(args, key, None) is not None}
    if args.m is not None:
        doc["m"] = _flag_numbers(args.m, "--m")
    if args.invariant or args.beta is not None or args.d is not None:
        betas = _flag_numbers(args.beta, "--beta") if args.beta is not None else [0.0]
        ds = _flag_numbers(args.d, "--d") if args.d is not None else [0.0]
        # one beta or d stands for every coupling; without --invariant the
        # couplings are on the invariant "1", as many as beta or d values
        sources = args.invariant or ["1"] * max(len(betas), len(ds))
        betas = betas * len(sources) if len(betas) == 1 else betas
        ds = ds * len(sources) if len(ds) == 1 else ds
        if not len(sources) == len(betas) == len(ds):
            raise ValidationError("--invariant, --beta, --d counts must agree")
        doc["couplings"] = [{"invariant": src, "beta": b, "d": d}
                            for src, b, d in zip(sources, betas, ds)]
    if args.window is not None:
        doc["window"] = _flag_numbers(args.window, "--window", "a,b")
    if args.grid is not None:
        doc["grid"] = _flag_numbers(args.grid, "grid", "a,b,N")
    if getattr(args, "oracle", None) is not None:
        doc["oracle"] = _flag_numbers(args.oracle, "--oracle", "a,b,N")
    if args.json:
        doc["format"] = "json"
    return doc


def _resolve(args, command: str) -> tuple:
    """The target of a job and every input `command` reads: the --config
    document, coerced whole, with each given flag in place of its key, over
    the command's defaults in _READS.  Any other given input is rejected
    before a target is built."""
    reads = _READS[command]
    given = _config_from_file(args.config) if args.config else {}
    given.update(_coerce_config(_flag_document(args)))
    given = {key: value for key, value in given.items() if value is not None}
    for key in (*_CONFIG_KEYS, "k", "kmax"):
        if key in given and key not in reads and key not in _EVERY_COMMAND_READS:
            raise ValidationError(f"--{key} does not apply to {command}, "
                                  f"which reads --{', --'.join(reads)}")
    job = {**_EVERY_COMMAND_READS, **reads, **given}
    return _build_target(job), job


def _build_target(job: dict):
    """FamilyParams or ExtensionSpec of a job; invariants checked first."""
    if job.get("family") is None and job.get("extension") is None:
        raise ValidationError("give exactly one of family or extension id")
    if job["m"] is None:
        raise ValidationError("parameter vector m is required")
    p = ParamVector(job["m"])
    rows = job["couplings"] or (("1", 0.0, 0.0),)
    coupled = tuple(
        families.Coupling(verify_invariant(parse_invariant(src), p.n), beta=b, d=d)
        for src, b, d in rows)
    rho_expr = None
    if job["rho_invariant"] is not None:
        rho_expr = verify_invariant(parse_invariant(job["rho_invariant"]), p.n)
    data = families.ConstructionData(p=p, couplings=coupled, rho_invariant=rho_expr)
    if job.get("family") is not None:
        return families.build_family(job["family"], data)
    return extensions.build_extension(job["extension"], data, ell=job["ell"],
                                      window=job["window"])


def _require_finite(values, what: str) -> None:
    """A non-finite number, before it is printed, is a numerical failure."""
    if not all(map(math.isfinite, values)):
        raise NumericalError(f"{what} is not finite: {', '.join(map(_fmt, values))}")


def _verdict(out: dict, value: float, tol: float, as_json: bool, summary: str,
             after: Optional[dict] = None) -> int:
    """Print a report with its verdict on `value <= tol`: the JSON object
    gains tol and pass (then the `after` fields), the text is one line."""
    _require_finite([value], "the value judged against tol")
    passed = value <= tol
    out["tol"] = tol
    out["pass"] = bool(passed)
    out.update(after or {})
    if as_json:
        print(_dumps(out))
    else:
        print(f"{summary} tol={_fmt(tol)} {'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_TOLERANCE


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


def cmd_spectrum(args) -> int:
    """E_k of the admissible levels up to --kmax; on `oracle compare` also
    each FD gap lambda_k - lambda_0 and its deviation from E_k, judged
    against the tolerance."""
    compare = args.command == "oracle"
    fp, job = _resolve(args, "oracle compare" if compare else "spectrum")
    levels = [{"k": k, "energy": energy} for k, energy in spectra.energy_table(fp, job["kmax"])]
    oracle = {}   # the JSON "oracle" entry: the FD box, on oracle compare
    if compare:
        box = verify.OracleSpec(*job["oracle"]) if job["oracle"] else verify.reference_oracle(fp)
        lam = verify.fd_spectrum(fp, box, len(levels))
        for row in levels:
            row["oracle_gap"] = lam[row["k"]] - lam[0]
            row["deviation"] = abs(row["oracle_gap"] - row["energy"])
        oracle["oracle"] = {"a": box.a, "b": box.b, "N": box.n}
    for row in levels:
        _require_finite(list(row.values())[1:], f"the level table at k={row['k']}")
    out = {"family": fp.id, "params": {"eps": fp.eps, "rho": fp.rho, "beta": fp.beta},
           **oracle, "levels": levels}
    as_json = job["format"] == "json"
    if not as_json:
        print("k\tE_k" + ("\toracle_gap\tdeviation" if compare else ""))
        for row in levels:
            print("\t".join([str(row["k"])] + [_fmt(v) for v in list(row.values())[1:]]))
    if compare:
        worst = max(row["deviation"] for row in levels)
        return _verdict(out, worst, job["tol"], as_json, f"max_deviation={_fmt(worst)}")
    if as_json:
        print(_dumps(out))
    return EXIT_PASS


def cmd_wavefunction(args) -> int:
    fp, job = _resolve(args, "wavefunction")
    wf = spectra.wavefunction(fp, job["k"])
    xs = verify.grid_points(fp.domain, job["grid"] or verify.default_grid(fp, 201))
    zeta = np.asarray(wf(xs), dtype=float)
    v, _ = families.partner_potentials(fp, xs)
    norm = verify.quadrature(lambda t: (z := wf(t)) * z, fp.domain, 1e-10)
    residue = wf.imag_residue(xs)
    rows = [[float(x), float(z), float(p)] for x, z, p in zip(xs, zeta, v)]
    _require_finite([norm, residue], "the norm or the imaginary residue")
    for row in rows:
        _require_finite(row[1:], f"the row at x={_fmt(row[0])}")
    if job["format"] == "json":
        out = {
            "family": fp.id,
            "params": {"eps": fp.eps, "rho": fp.rho, "beta": fp.beta},
            "k": job["k"],
            "norm": norm,
            "imag_residue": residue,
            "grid": {"a": float(xs[0]), "b": float(xs[-1]), "N": int(xs.size)},
            "rows": rows,
        }
        print(_dumps(out))
    else:
        # csv: '.' decimal, ',' separator, diagnostics on a comment line
        print(f"# family={fp.id},k={job['k']},norm={_fmt(norm)},imag_residue={_fmt(residue)}")
        print("x,zeta,V")
        for row in rows:
            print(",".join(map(_fmt, row)))
    return EXIT_PASS


def _residual(target, report, **after) -> tuple:
    """A grid residual report of a family or an extension, as _verdict takes it."""
    kind = "family" if isinstance(target, FamilyParams) else "extension"
    out = verify.report_json(target, report)
    summary = (f"{kind}={out['family']} max_residual={_fmt(report.max_residual)} "
               f"mean={_fmt(report.mean_residual)} argmax_x={_fmt(report.argmax_x)}")
    return out, report.max_residual, summary, after


def _orthonormal(fp, job) -> tuple:
    gram = verify.orthonormality(fp, job["kmax"])
    out = {"family": fp.id, "params": {"eps": fp.eps, "rho": fp.rho, "beta": fp.beta},
           **dataclasses.asdict(gram)}
    summary = (f"family={fp.id} levels={list(gram.levels)} "
               f"max_deviation={_fmt(gram.max_deviation)}")
    return out, gram.max_deviation, summary, {}


# check -> runner(target, job inputs) giving the JSON report, its worst
# value, the text summary and the JSON fields that follow the verdict
_CHECKS = {
    "si": lambda fp, job: _residual(fp, verify.si_residual(fp, job["grid"])),
    "cond1": lambda spec, job: _residual(spec, extensions.check_cond1(spec, job["grid"])),
    "cond2": lambda spec, job: _residual(spec, extensions.check_cond2(spec, job["grid"])),
    "ext-si": lambda spec, job: _residual(spec, extensions.extended_si_check(spec, job["grid"])),
    "ladder": lambda fp, job: _residual(fp, verify.ladder_check(fp, job["k"]), k=job["k"]),
    "orthonormal": _orthonormal,
}


def cmd_verify(args) -> int:
    target, job = _resolve(args, f"verify {args.check}")
    out, value, summary, after = _CHECKS[args.check](target, job)
    return _verdict(out, value, job["tol"], job["format"] == "json", summary, after)


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


def _at_most(cap: int):
    """An argparse type: an integer from 0 to cap, for the level flags, so
    that no level table or polynomial is built past what the library takes
    and no negative level reads as a family without levels."""
    def level(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum 0")
        if value > cap:
            raise argparse.ArgumentTypeError(f"{value} is above the maximum {cap}")
        return value
    level.__name__ = "int"    # argparse's "invalid int value" message names it
    return level


class _Parser(argparse.ArgumentParser):
    """argparse's own errors as a ValidationError: one stderr line, exit 2.

    A flag is read only by its full name, in every sub-parser (each is a
    _Parser too), so `spectrum --k=1` is an unrecognized argument, not
    `--kmax=1`.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shapeinv",
        description="shape-invariant superpotential families, spectra, and checks")
    sub = parser.add_subparsers(dest="command", required=True)
    level_cap, degree_cap = _at_most(_KMAX_CAP), _at_most(specfun.MAX_DEGREE)

    p_fam = sub.add_parser("families", help="family and extension registry")
    fam_sub = p_fam.add_subparsers(dest="subcommand", required=True)
    p_list = fam_sub.add_parser("list", help="list known ids")
    p_list.add_argument("--extensions", action="store_true",
                        help="append the extension rows")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=cmd_families_list)

    p_spec = sub.add_parser("spectrum", help="closed-form energy table")
    _add_job_flags(p_spec)
    p_spec.add_argument("--kmax", type=level_cap,
                        help=f"largest level index (default {_READS['spectrum']['kmax']})")
    p_spec.set_defaults(func=cmd_spectrum)

    p_wf = sub.add_parser("wavefunction", help="sample one bound state to CSV/JSON")
    _add_job_flags(p_wf)
    p_wf.add_argument("--k", type=degree_cap,
                      help=f"level index (default {_READS['wavefunction']['k']})")
    p_wf.set_defaults(func=cmd_wavefunction)

    p_ver = sub.add_parser("verify", help="run one named check")
    p_ver.add_argument("check", choices=tuple(_CHECKS))
    _add_job_flags(p_ver)
    p_ver.add_argument("--k", type=degree_cap, help="ladder step index "
                       f"(default {_READS['verify ladder']['k']})")
    p_ver.add_argument("--kmax", type=degree_cap, help="highest level for orthonormality "
                       f"(default {_READS['verify orthonormal']['kmax']})")
    p_ver.set_defaults(func=cmd_verify)

    p_orc = sub.add_parser("oracle", help="independent eigenvalue oracle")
    orc_sub = p_orc.add_subparsers(dest="subcommand", required=True)
    p_cmp = orc_sub.add_parser("compare", help="closed-form E_k against FD gaps")
    _add_job_flags(p_cmp)
    p_cmp.add_argument("--kmax", type=level_cap, help="largest level index to compare "
                       f"(default {_READS['oracle compare']['kmax']})")
    p_cmp.add_argument("--oracle",
                       help="FD truncation box 'a,b,N' (default: sized from the ground state)")
    p_cmp.set_defaults(func=cmd_spectrum)
    return parser


def _innermost(exc: BaseException) -> str:
    """The innermost function of this package on the exception's traceback."""
    name, tb = "main", exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_globals.get("__package__") == __package__:
            name = tb.tb_frame.f_code.co_name
        tb = tb.tb_next
    return name


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
    except ArithmeticError as exc:   # float overflow and division by 0
        print(f"numerical failure: {type(exc).__name__} in {_innermost(exc)}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # the exit-code contract covers every input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
