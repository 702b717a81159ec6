"""Hostile input to the fast commands keeps the exit-code contract.

Each job starts from a valid one and has some of its values replaced.
Every run exits 0 to 3 with at most one stderr line and no traceback, and a
JSON report (exit 0 or 1) parses without an inf or nan token.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st
import pytest

from shapeinv.cli import main

# valid jobs: (command, flags that stay, values that may be replaced)
VALID = {
    "spectrum": (["spectrum", "--family=morse", "--kmax=3"],
                 {"m": "3.4", "invariant": "1", "beta": "0", "d": "1"}),
    "si": (["verify", "si", "--family=harm-osc"],
           {"m": "0", "invariant": "1", "beta": "1", "d": "0.3"}),
    "cond2": (["verify", "cond2", "--extension=ext-4", "--window=0.75,1.1"],
              {"m": "3", "invariant": "1", "beta": "0", "d": "1"}),
}
# flag values: the empty string, signed zero, overflow and non-finite
# spellings, and a plain number
NUMBER_TEXT = st.sampled_from(["", "nan", "inf", "-inf", "1e308", "-1e308", "1e200", "-0",
                               "2.5"])
# config values: numbers as JSON reads them (Python's json takes NaN and
# Infinity), booleans and strings
DOC_NUMBER = st.sampled_from([float("nan"), float("inf"), 1e308, -1e308, -0.0, 0.0,
                              2.5, -3, 1, True, False, "1.5", ""])
# ASCII DSL text with Unicode digits and letters mixed in
SOURCE = st.sampled_from(["1", "m1-m2", "2^(m1-m2)", "pi/(pi-pi)", "ln(0)", "e^(9^9)",
                          "1+²", "1+٣-٣", "é", "m1 +1"]) \
    | st.text(alphabet="m12+-*/^(). ٣²éπ", max_size=10)

FLAG_JOBS = st.builds(
    lambda command, hostile: (command, hostile),
    st.sampled_from(sorted(VALID)),
    st.fixed_dictionaries({}, optional={
        "m": st.lists(NUMBER_TEXT, min_size=1, max_size=2).map(",".join),
        "invariant": SOURCE, "beta": NUMBER_TEXT, "d": NUMBER_TEXT, "tol": NUMBER_TEXT}))
DOC_JOBS = st.fixed_dictionaries({}, optional={
    "m": st.lists(DOC_NUMBER, min_size=1, max_size=2),
    "couplings": st.lists(st.fixed_dictionaries(
        {"invariant": SOURCE}, optional={"beta": DOC_NUMBER, "d": DOC_NUMBER}),
        min_size=1, max_size=2),
    "tol": DOC_NUMBER,
    # N stays an integer: a hostile N would size an array
    "grid": st.tuples(DOC_NUMBER, DOC_NUMBER).map(lambda ab: [*ab, 51])})


def _argv(job, tmp: str) -> list:
    kind, values = job
    if kind == "families":
        return ["families", "list", *values]
    if kind == "doc":
        doc = {"family": "morse", "m": [3.4], "couplings": [{"invariant": "1", "d": 1}],
               **values}
        path = os.path.join(tmp, "job.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return ["verify", "si", f"--config={path}"]
    head, flags = VALID[kind]
    return [*head, *(f"--{key}={value}" for key, value in {**flags, **values}.items())]


JOBS = st.one_of(
    FLAG_JOBS,
    DOC_JOBS.map(lambda values: ("doc", values)),
    st.sampled_from([[], ["--extensions"]]).map(lambda flags: ("families", flags)))


def _no_constant(name):
    raise AssertionError(f"JSON output holds {name}")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(job=JOBS, as_json=st.booleans())
def test_hostile_input_keeps_the_exit_code_contract(job, as_json):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = _argv(job, tmp) + (["--json"] if as_json else [])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    err = err.getvalue()
    assert rc in (0, 1, 2, 3), (argv, rc, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
    if as_json and rc in (0, 1):
        json.loads(out.getvalue(), parse_constant=_no_constant)


# inputs whose closed forms or oracle overflow, underflow or divide by zero
# inside float arithmetic: a numerical failure (exit 3), not an internal one
@pytest.mark.parametrize("argv", [
    "verify si --family=rosen-morse2 --m=1e300 --rho-invariant=1",
    "spectrum --family=rosen-morse1-cot --m=1e-160 --rho-invariant=1",
    "oracle compare --family=harm-osc --m=0 --invariant=1 --beta=1 --oracle=0,1e-300,1000",
    "oracle compare --family=rosen-morse2 --m=1e154 --rho-invariant=0.5 --kmax=8",
    "oracle compare --family=eckart --m=7e-17 --rho-invariant=1 --kmax=8",
    "wavefunction --family=scarf2 --m=1e300 --invariant=1 --d=3 --k=3",
    "wavefunction --family=scarf1 --m=-1e306 --invariant=1 --k=0",
])
def test_float_arithmetic_failures_exit_3(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv.split())
    err = err.getvalue()
    assert rc == 3 and out.getvalue() == "", (argv, rc, err)
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, (argv, err)


# the line names the exception and the innermost library function it left
@pytest.mark.parametrize("argv,where", [
    ("wavefunction --family=scarf1 --m=-1e306 --invariant=1 --k=0",
     "OverflowError in log_gamma: "),
    ("spectrum --family=rosen-morse1-cot --m=1e-160 --rho-invariant=1",
     "ZeroDivisionError in _ratio_shift: "),
])
def test_arithmetic_failures_name_the_operation(argv, where):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv.split())
    err = err.getvalue()
    assert rc == 3 and out.getvalue() == "", (argv, rc, err)
    assert err.startswith("numerical failure: " + where) and err.count("\n") == 1, (argv, err)


# |eps| past 1.34e154, where e^2 (e + 1)^2 in the ratio families' shift
# overflows although R is finite: the spectrum prints finite energies
@pytest.mark.parametrize("argv", [
    "spectrum --family=rosen-morse2 --m=2e154 --rho-invariant=1 --kmax=2",
    "spectrum --family=rosen-morse2 --m=1e300 --rho-invariant=1",
    "spectrum --family=coulomb --m=-1e300 --rho-invariant=-1",
    "spectrum --family=rosen-morse1 --m=-1e300 --rho-invariant=1",
], ids=["rosen-morse2-2e154", "rosen-morse2-1e300", "coulomb-1e300", "rosen-morse1-1e300"])
def test_huge_eps_spectra_are_finite(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv.split() + ["--json"])
    assert rc == 0 and err.getvalue() == "", (argv, rc, err.getvalue())
    energies = [level["energy"] for level in
                json.loads(out.getvalue(), parse_constant=_no_constant)["levels"]]
    assert len(energies) >= 3 and all(map(math.isfinite, energies)), energies
    assert energies == sorted(energies), energies
