"""Command-line behavior: output shapes, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shapeinv.cli import main

MORSE = ["--family", "morse", "--m", "2.5", "--invariant", "1", "--d", "1"]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_families_list(capsys):
    rc, out, _ = run(capsys, "families", "list")
    rows = out.strip().splitlines()
    assert rc == 0 and len(rows) == 13
    assert rows[0].startswith("scarf2")
    rc, out, _ = run(capsys, "families", "list", "--extensions")
    assert rc == 0 and len(out.strip().splitlines()) == 24


def test_families_list_json(capsys):
    rc, out, _ = run(capsys, "families", "list", "--extensions", "--json")
    data = json.loads(out)
    assert rc == 0 and len(data) == 24
    kinds = {row["kind"] for row in data}
    assert kinds == {"family", "extension"}
    assert all(set(row) == {"id", "kind", "label"} for row in data)


def test_spectrum_text(capsys):
    rc, out, _ = run(capsys, "spectrum", *MORSE)
    lines = out.strip().splitlines()
    assert rc == 0
    assert lines[0] == "k\tE_k"
    assert lines[1].split("\t") == ["0", "0"]
    assert lines[2].split("\t") == ["1", "4"]
    assert lines[3].split("\t") == ["2", "6"]
    assert len(lines) == 4  # kmax clamps to the admissible ceiling


def test_spectrum_json_deterministic(capsys):
    rc1, out1, _ = run(capsys, "spectrum", *MORSE, "--json")
    rc2, out2, _ = run(capsys, "spectrum", *MORSE, "--json")
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["family"] == "morse"
    assert [row["k"] for row in doc["levels"]] == [0, 1, 2]
    assert doc["levels"][1]["energy"] == 4.0


def test_wavefunction_csv(capsys):
    rc, out, _ = run(capsys, "wavefunction", *MORSE, "--k", "1",
                     "--grid", "0.1,4,21")
    lines = out.strip().splitlines()
    assert rc == 0
    assert lines[0].startswith("# family=morse,k=1,norm=")
    assert "imag_residue=" in lines[0]
    assert lines[1] == "x,zeta,V"
    assert len(lines) == 23
    first = lines[2].split(",")
    assert len(first) == 3 and float(first[0]) == pytest.approx(0.1)


def test_wavefunction_json(capsys):
    rc, out, _ = run(capsys, "wavefunction", *MORSE, "--k", "0",
                     "--grid", "0.1,4,11", "--json")
    doc = json.loads(out)
    assert rc == 0
    assert doc["norm"] == pytest.approx(1.0, abs=1e-6)
    assert len(doc["rows"]) == 11 and len(doc["rows"][0]) == 3


def test_verify_si_pass_and_tolerance_failure(capsys):
    rc, out, _ = run(capsys, "verify", "si", "--family", "scarf2",
                     "--m", "3.2", "--invariant", "1", "--d", "0.4")
    assert rc == 0 and "PASS" in out
    rc, out, _ = run(capsys, "verify", "si", "--family", "scarf2",
                     "--m", "3.2", "--invariant", "1", "--d", "0.4",
                     "--tol", "1e-30")
    assert rc == 1 and "FAIL" in out


def test_verify_si_range_violation_exits_2(capsys):
    rc, _, err = run(capsys, "verify", "si", "--family", "scarf2", "--m", "0.4")
    assert rc == 2
    assert "eps" in err


def test_verify_kind_mismatch_exits_2(capsys):
    rc, _, err = run(capsys, "verify", "cond1", "--family", "scarf2",
                     "--m", "3.2", "--invariant", "1", "--d", "0.4")
    assert rc == 2 and "extension" in err
    rc, _, err = run(capsys, "verify", "si", "--extension", "ext-4",
                     "--m", "2.0", "--invariant", "1", "--beta", "2",
                     "--window", "0.75,1.1")
    assert rc == 2


def test_verify_extension_checks(capsys):
    ext4 = ["--extension", "ext-4", "--m", "2.0", "--invariant", "1",
            "--beta", "2", "--window", "0.75,1.1"]
    for check in ("cond2", "cond1", "ext-si"):
        rc, out, _ = run(capsys, "verify", check, *ext4, "--json")
        doc = json.loads(out)
        assert rc == 0 and doc["pass"] is True, check
        assert doc["family"] == "ext-4"


def test_denominator_zero_exits_3(capsys):
    # default window scan finds the 5 - 2x^2 root
    rc, _, err = run(capsys, "verify", "cond2", "--extension", "ext-4",
                     "--m", "2.0", "--invariant", "1", "--beta", "2")
    assert rc == 3
    assert "denominator" in err.lower()


@pytest.mark.parametrize("src", ["sin(exp(700)*exp(700))",
                                 "(0-1)^(exp(700)*exp(700)-exp(700)*exp(700))"])
def test_unsampleable_invariant_exits_3(capsys, src):
    # sin(inf) and round(nan) raise ValueError in Python; both are domain
    # errors of the expression, so the certification cannot sample it
    rc, out, err = run(capsys, "spectrum", "--family=morse", "--m=2.5",
                       f"--invariant={src}", "--d=1")
    assert rc == 3 and out == ""
    assert err.startswith("numerical failure: could not sample") and err.count("\n") == 1


@pytest.mark.parametrize("case,window", [("1", "-800,800"), ("4", "-1e200,1e200")])
def test_wide_extension_window_exits_3(capsys, case, window):
    # the bottoms overflow far out on the window: a non-finite denominator
    rc, out, err = run(capsys, "verify", "cond2", "--extension", case, "--m", "3",
                       "--invariant", "1", "--d", "1", f"--window={window}")
    assert rc == 3 and out == ""
    assert err.startswith("numerical failure: case ") and err.count("\n") == 1
    assert "denominator not finite near x = " in err


def test_cond2_grid_past_the_window_exits_3(capsys):
    # the window scan passes; the check grid runs on past the cosh overflow
    rc, _, err = run(capsys, "verify", "cond2", "--extension", "1", "--m", "3",
                     "--invariant", "1", "--d=-1", "--grid", "0.1,800,11")
    assert rc == 3 and "denominator not finite near x = 720.01" in err


# case 4 at eps = m, rho = beta / 2: the bottom 2 eps +- 1 - x^2 is exactly 0
# at the grid point x = 3, for the plus branch at m = 4 and the minus branch
# at m = 5; an exact pole reads like an overflow, never as a raw exception
@pytest.mark.parametrize("check,m", [("cond1", 4), ("ext-si", 4), ("cond1", 5),
                                     ("ext-si", 5), ("cond2", 5)])
def test_exact_pole_on_a_check_grid_exits_3(capsys, check, m):
    rc, out, err = run(capsys, "verify", check, "--extension", "4", "--m", str(m),
                       "--invariant", "1", "--beta", "1", "--window", "0.5,1",
                       "--grid", "2,4,3")
    assert (rc, out) == (3, "")
    assert err == "numerical failure: case 4: denominator not finite near x = 3\n"


def test_target_validation(capsys):
    rc, _, err = run(capsys, "spectrum", "--m", "2.5")
    assert rc == 2 and "family or extension" in err
    rc, _, err = run(capsys, "spectrum", "--family", "morse",
                     "--extension", "ext-1", "--m", "2.5")
    assert rc == 2
    rc, _, err = run(capsys, "spectrum", "--family", "morse")
    assert rc == 2 and "m is required" in err
    rc, _, err = run(capsys, "spectrum", "--family", "morse", "--m", "2.5",
                     "--invariant", "m1", "--d", "1")
    assert rc == 2 and "invariant" in err.lower()


def test_config_file_flow(capsys, tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "family": "morse",
        "m": [2.5],
        "couplings": [{"invariant": "1", "d": 1.0}],
    }))
    rc, out, _ = run(capsys, "spectrum", "--config", str(cfg))
    assert rc == 0 and out.splitlines()[2].split("\t") == ["1", "4"]
    # inline flags override the document
    rc, out, _ = run(capsys, "spectrum", "--config", str(cfg), "--m", "3.5")
    assert rc == 0 and out.splitlines()[2].split("\t") == ["1", "6"]


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"family": "morse", "m": [2.5], "bogus": 1}')
    rc, _, err = run(capsys, "spectrum", "--config", str(cfg))
    assert rc == 2 and "bogus" in err
    cfg2 = tmp_path / "broken.json"
    cfg2.write_text("{not json")
    rc, _, err = run(capsys, "spectrum", "--config", str(cfg2))
    assert rc == 2
    rc, _, err = run(capsys, "spectrum", "--config", str(tmp_path / "missing.json"))
    assert rc == 2


def test_verify_orthonormal_and_ladder(capsys):
    rc, out, _ = run(capsys, "verify", "orthonormal", *MORSE, "--kmax", "2", "--json")
    doc = json.loads(out)
    assert rc == 0 and doc["levels"] == [0, 1, 2] and doc["pass"] is True
    rc, out, _ = run(capsys, "verify", "ladder", *MORSE, "--k", "1")
    assert rc == 0 and "PASS" in out


def test_oracle_compare(capsys):
    rc, out, _ = run(capsys, "oracle", "compare", *MORSE, "--kmax", "2", "--json")
    doc = json.loads(out)
    assert rc == 0 and doc["pass"] is True
    assert max(row["deviation"] for row in doc["levels"]) <= 5e-3


def test_oracle_compare_json_deterministic(capsys):
    # the FD levels depend on where the guided sweeps put their samples;
    # the same job must still print the same bytes
    rc1, out1, _ = run(capsys, "oracle", "compare", *MORSE, "--kmax", "2", "--json")
    rc2, out2, _ = run(capsys, "oracle", "compare", *MORSE, "--kmax", "2", "--json")
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert [row["k"] for row in doc["levels"]] == [0, 1, 2]
    assert 0 < doc["levels"][1]["oracle_gap"] < doc["levels"][2]["oracle_gap"]


def test_oracle_compare_box_flag(capsys):
    rc, out, _ = run(capsys, "oracle", "compare", *MORSE, "--kmax", "2",
                     "--oracle=-3,30,2000", "--json")
    doc = json.loads(out)
    assert rc == 0 and doc["pass"] is True
    assert doc["oracle"] == {"a": -3.0, "b": 30.0, "N": 2000}
    # the box is validated like the config key: N < 500 is a usage error
    rc, out, err = run(capsys, "oracle", "compare", *MORSE, "--oracle=-3,30,400")
    assert rc == 2 and out == "" and "grid size" in err
    rc, out, err = run(capsys, "oracle", "compare", *MORSE, "--oracle=-3,30")
    assert rc == 2 and out == "" and "--oracle must be 'a,b,N'" in err


def test_spectrum_has_no_oracle_switch(capsys):
    # oracle compare is the one command that runs the FD oracle
    rc, out, err = run(capsys, "spectrum", *MORSE, "--oracle")
    assert (rc, out, err) == (2, "", "error: unrecognized arguments: --oracle\n")


def test_inadmissible_level_exits_2(capsys):
    rc, _, err = run(capsys, "wavefunction", *MORSE, "--k", "9")
    assert rc == 2 and "admissible" in err


def test_eckart_where_eps_minus_1_rounds_to_minus_1_prints_level_0(capsys):
    # level 1's R(eps - 1) would divide by (eps - 1) + 1, which rounds to 0
    rc, out, err = run(capsys, "spectrum", "--family", "eckart", "--m=-1e-20",
                       "--rho-invariant=-2")
    assert (rc, out, err) == (0, "k\tE_k\n0\t0\n", "")


def test_trig_rosen_morse_at_eps_zero_exits_2(capsys):
    for fid in ("rosen-morse1", "rosen-morse1-cot"):
        rc, _, err = run(capsys, "spectrum", "--family", fid, "--m", "0",
                         "--rho-invariant", "1")
        assert rc == 2 and "eps != 0" in err, fid


@pytest.mark.parametrize("key,value", [
    ("m", ["abc"]), ("m", 5), ("ell", "two"), ("tol", "tight"),
    ("window", ["a", 1.0]), ("grid", ["0", "1", "many"]),
    ("couplings", [{"invariant": "1", "beta": "x"}]),
    ("couplings", [{"invariant": "1", "d": [1]}]),
    ("rho_invariant", 5),
    ("m", "25"), ("ell", 2.7), ("grid", {"a": 0, "b": 1, "n": 5.9}),
    ("m", [True, 1.5]), ("m", ["1.5"]), ("tol", "1e-9"), ("tol", False),
    ("couplings", [{"invariant": "1", "d": "1"}]),
    ("couplings", [{"invariant": "1", "beta": True}]),
    ("window", [True, 1.0]), ("grid", [0, "1", 5]), ("grid", {"a": False, "b": 1, "n": 5}),
    ("oracle", ["-3", 30, 600]),
])
def test_config_values_that_cannot_be_coerced_exit_2(capsys, tmp_path, key, value):
    doc = {"family": "morse", "m": [2.5], "couplings": [{"invariant": "1", "d": 1.0}]}
    doc[key] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "verify", "si", "--config", str(cfg))
    assert rc == 2 and out == "" and "wrong type" in err


EXT4 = ["--extension", "ext-4", "--m", "2.0", "--invariant", "1", "--beta", "2",
        "--window", "0.75,1.1"]


@pytest.mark.parametrize("command,grid,named", [
    (["verify", "si", *MORSE], "0,1,-5", "-5"),
    (["wavefunction", *MORSE], "0,1,-3", "-3"),
    (["verify", "si", *MORSE], "inf,1,5", "inf"),
    (["wavefunction", *MORSE], "nan,1,5", "nan"),
    (["verify", "si", *MORSE], "0,1,0", "got 0"),
    (["wavefunction", *MORSE], "0,1,0", "got 0"),
    (["verify", "si", *MORSE], "1,0,5", "(1.0, 0.0)"),
    (["verify", "cond2", *EXT4], "0.8,1,2", "got 2"),
])
def test_bad_grids_exit_2(capsys, command, grid, named):
    rc, out, err = run(capsys, *command, f"--grid={grid}")
    assert rc == 2 and out == "" and "check grid" in err and named in err


@pytest.mark.parametrize("check", ["ladder", "orthonormal"])
def test_grid_on_fixed_point_checks_exits_2(capsys, check):
    rc, out, err = run(capsys, "verify", check, *MORSE, "--grid=0,1,5")
    assert rc == 2 and out == "" and "does not apply" in err


@pytest.mark.parametrize("check,target,flag", [
    ("si", MORSE, "--k=5"), ("si", MORSE, "--kmax=7"), ("ladder", MORSE, "--kmax=2"),
    ("orthonormal", MORSE, "--k=1"), ("cond1", EXT4, "--k=1"), ("cond2", EXT4, "--kmax=2"),
    ("ext-si", EXT4, "--k=2"), ("ladder", MORSE, "--grid=0,1,5"),
    ("orthonormal", MORSE, "--grid=0,1,5"),
])
def test_a_flag_the_check_does_not_read_exits_2(capsys, check, target, flag):
    rc, out, err = run(capsys, "verify", check, *target, flag)
    name = flag.split("=")[0]
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {name} does not apply to verify {check}")
    assert len(err.splitlines()) == 1


# each of these jobs used to run with the input dropped without a word and
# exit 0; tests/test_readme.py runs every command with every input alone
@pytest.mark.parametrize("command,flag", [
    ("spectrum", "--grid=0,1,5"), ("spectrum", "--tol=1e-30"), ("wavefunction", "--tol=1e-30"),
    ("oracle compare", "--grid=0,1,5"),
])
def test_an_input_the_command_does_not_read_exits_2(capsys, command, flag):
    rc, out, err = run(capsys, *command.split(), *MORSE, flag)
    named = flag.split("=")[0]
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {named} does not apply to {command}, which reads --")
    assert len(err.splitlines()) == 1


# argparse's prefix matching read these as --kmax and --oracle and exited 0
@pytest.mark.parametrize("command,flag", [
    ("spectrum", "--k=1"), ("oracle compare", "--ora=-3,30,600"),
])
def test_an_abbreviated_flag_exits_2(capsys, command, flag):
    rc, out, err = run(capsys, *command.split(), *MORSE, flag)
    assert rc == 2 and out == ""
    assert err == f"error: unrecognized arguments: {flag}\n"


@pytest.mark.parametrize("check,flag", [("ladder", "--k=1"), ("orthonormal", "--kmax=3")])
def test_level_flags_keep_their_defaults(capsys, check, flag):
    rc, plain, _ = run(capsys, "verify", check, *MORSE, "--json")
    rc_given, given, _ = run(capsys, "verify", check, *MORSE, flag, "--json")
    assert rc == rc_given == 0 and plain == given


def test_ladder_json_reports_the_grid_it_ran(capsys):
    rc, out, _ = run(capsys, "verify", "ladder", *MORSE, "--k", "1", "--json")
    doc = json.loads(out)
    a, b, n = doc["grid"]["a"], doc["grid"]["b"], doc["grid"]["N"]
    assert rc == 0 and n == 801 and a <= doc["argmax_x"] <= b
    # the worst point is one of the printed grid's points
    i = (doc["argmax_x"] - a) / (b - a) * (n - 1)
    assert abs(i - round(i)) < 1e-6


PT = ["--family", "poschl-teller", "--m=2", "--invariant", "1", "--d", "2"]
EXT4_M3 = ["--extension", "4", "--m", "3", "--invariant", "1", "--d", "1"]


@pytest.mark.parametrize("command", [["verify", "si", *PT], ["wavefunction", *PT]])
def test_reports_print_the_grid_that_ran(capsys, command):
    # -1 and 0 lie outside the clipped domain (0.001, inf) and are dropped
    rc, out, _ = run(capsys, *command, "--grid=-1,2,4", "--json")
    assert rc == 0 and json.loads(out)["grid"] == {"a": 1, "b": 2, "N": 2}


def test_extension_check_clips_its_grid_to_the_domain(capsys):
    rc, out, err = run(capsys, "verify", "cond1", *EXT4_M3, "--grid=-1,2,5", "--json")
    doc = json.loads(out)
    assert rc == 0 and err == "" and doc["grid"] == {"a": 0.5, "b": 2, "N": 3}
    rc, out, err = run(capsys, "verify", "cond1", *EXT4_M3, "--grid=-3,-1,5")
    assert rc == 2 and out == "" and "outside the clipped domain" in err


def test_unexpected_exception_exits_4_without_traceback(capsys, monkeypatch):
    from shapeinv import cli

    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_spectrum", broken)
    rc, out, err = run(capsys, "spectrum", *MORSE)
    assert rc == 4 and out == ""
    assert err == "internal error: KeyError: 'boom'\n"


def test_numpy_warnings_stay_off_stderr():
    # the scarf1 state overflows in numpy where 1 - sin x rounds to 0 at the
    # wall (a FOUND defect that makes this job exit 3); numpy's warnings
    # must not reach stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "shapeinv.cli", "wavefunction", "--family=scarf1",
         "--m=-0.3032802384493791", "--invariant=1", "--d=0.538051002893123", "--k=0"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("flags", [
    ["--family", "morse", "--m", "2.5", "--invariant", "m1-m2", "--d", "1"],
    ["--family", "eckart", "--m", "-1.5", "--invariant", "1", "--d", "0",
     "--rho-invariant", "m1-m2"],
])
def test_a_parameter_beyond_the_vector_exits_2(capsys, flags):
    # the invariance check rejects it before it draws
    rc, out, err = run(capsys, "spectrum", *flags)
    assert rc == 2 and out == ""
    assert err == "error: expression 'm1-m2' uses m2 but the vector has n=1\n"


HARM = ["--family", "harm-osc", "--m", "0", "--invariant", "1", "--beta", "1", "--d", "0.5"]


@pytest.mark.parametrize("command,level,message", [
    (["spectrum"], "--kmax=1000000000000", "1000000000000 is above the maximum 65536"),
    (["spectrum"], "--kmax=65537", "65537 is above the maximum 65536"),
    (["oracle", "compare"], "--kmax=65537", "65537 is above the maximum 65536"),
    (["wavefunction"], "--k=65", "65 is above the maximum 64"),
    (["verify", "ladder"], "--k=65", "65 is above the maximum 64"),
    (["verify", "orthonormal"], "--kmax=65", "65 is above the maximum 64"),
    (["spectrum"], "--kmax=x", "invalid int value: 'x'"),
    # a negative level used to read as a family without levels
    (["spectrum"], "--kmax=-1", "-1 is below the minimum 0"),
    (["oracle", "compare"], "--kmax=-1", "-1 is below the minimum 0"),
    (["wavefunction"], "--k=-1", "-1 is below the minimum 0"),
    (["verify", "ladder"], "--k=-1", "-1 is below the minimum 0"),
    (["verify", "orthonormal"], "--kmax=-2", "-2 is below the minimum 0"),
])
def test_level_flags_are_capped_before_anything_is_built(capsys, command, level, message):
    # the level scan's cap and the largest polynomial degree; past them, on
    # a family with unbounded levels, a level table or a polynomial would
    # be built that the library cannot finish
    rc, out, err = run(capsys, *command, *HARM, level)
    flag = level.split("=")[0]
    assert (rc, out, err) == (2, "", f"error: argument {flag}: {message}\n")


@pytest.mark.parametrize("check", ["cond1", "ext-si"])
def test_per_point_checks_past_the_window_exit_3(capsys, check):
    # math.cosh overflows at x = 720.01 in the jet pass: read as non-finite
    rc, out, err = run(capsys, "verify", check, "--extension", "1", "--m", "3",
                       "--invariant", "1", "--d=-1", "--grid", "0.1,800,11")
    assert rc == 3 and out == "" and err.count("\n") == 1
    assert "denominator not finite near x = 720.01" in err


@pytest.mark.parametrize("source,offset", [
    ("+".join(["1"] * 1500), 201), ("(" * 200 + "1" + ")" * 200, 100), ("-" * 990 + "1", 100),
], ids=["long-sum", "nested-parentheses", "unary-minuses"])
def test_deeply_nested_invariants_exit_2(capsys, source, offset):
    rc, out, err = run(capsys, "spectrum", "--family", "morse", "--m", "2.5",
                       f"--invariant={source}", "--d", "1")
    assert rc == 2 and out == ""
    assert f"nests deeper than 100 levels at offset {offset}" in err


MORSE_DOC = {"family": "morse", "m": [2.5], "couplings": [{"invariant": "1", "d": 1.0}]}
EXT2 = ["--extension=ext-2", "--m=1.0", "--invariant=1", "--d=-3", "--ell=2",
        "--window=0.2,1.2", "--grid=0.3,1.1,9"]
EXT2_DOC = {"extension": "ext-2", "m": [1.0], "couplings": [{"invariant": "1", "d": -3}],
            "ell": 2, "window": [0.2, 1.2], "grid": {"a": 0.3, "b": 1.1, "n": 9}}


@pytest.mark.parametrize("command,flags,doc,rest", [
    (["spectrum"], MORSE, MORSE_DOC, ["--kmax=2"]),
    (["wavefunction"], [*MORSE, "--grid=0.1,4,7"], {**MORSE_DOC, "grid": [0.1, 4, 7]},
     ["--k=1"]),
    (["verify", "si"], [*MORSE, "--json"], {**MORSE_DOC, "format": "json"}, []),
    (["verify", "ladder"], MORSE, MORSE_DOC, ["--k=1"]),
    (["oracle", "compare"], [*MORSE, "--oracle=-3,30,600"],
     {**MORSE_DOC, "oracle": {"a": -3, "b": 30, "N": 600}}, ["--kmax=1"]),
    (["verify", "cond1"], EXT2, EXT2_DOC, []),
])
def test_flags_and_config_document_print_the_same(capsys, tmp_path, command, flags, doc,
                                                  rest):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(doc))
    by_flags = run(capsys, *command, *flags, *rest)
    by_doc = run(capsys, *command, "--config", str(cfg), *rest)
    assert by_flags[0] == 0 and by_flags == by_doc


def test_one_beta_or_d_stands_for_every_coupling(capsys):
    job = ["spectrum", "--family=morse", "--m=2.5", "--json"]
    short = run(capsys, *job, "--beta=0.1,0.2", "--d=1")
    spelled_out = run(capsys, *job, "--invariant=1", "--invariant=1", "--beta=0.1,0.2",
                      "--d=1,1")
    assert short[0] == 0 and short == spelled_out


@pytest.mark.parametrize("couplings", [
    ["--beta=1,2", "--d=1,2,3"],
    ["--invariant=1", "--beta=1,2"],
    ["--invariant=1", "--invariant=1", "--d=1,2,3"],
])
def test_coupling_count_mismatch_exits_2(capsys, couplings):
    rc, out, err = run(capsys, "spectrum", "--family=morse", "--m=2.5", *couplings)
    assert rc == 2 and out == "" and "counts must agree" in err


def test_config_is_coerced_whole_before_flags_replace_its_keys(capsys, tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({**MORSE_DOC, "m": "25"}))
    rc, out, err = run(capsys, "spectrum", "--config", str(cfg), "--m=2.5")
    assert rc == 2 and out == "" and "wrong type" in err


@pytest.mark.parametrize("job,flag", [
    (["spectrum", "--family=morse", "--beta=0", "--d=1"], "--m="),
    (["spectrum", "--family=morse", "--m=2.5", "--d=1"], "--beta="),
    (["spectrum", "--family=morse", "--m=2.5", "--beta=0"], "--d="),
    (["verify", "si", *MORSE], "--grid="),
    (["verify", "cond2", *EXT4[:-2]], "--window="),
])
def test_empty_flag_value_exits_2(capsys, job, flag):
    rc, out, err = run(capsys, *job, flag)
    assert rc == 2 and out == "" and f"{flag[2:-1]} must be" in err and "got ''" in err


def test_empty_flag_beside_config_does_not_keep_the_document_value(capsys, tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(MORSE_DOC))
    rc, out, err = run(capsys, "spectrum", "--config", str(cfg), "--m=")
    assert rc == 2 and out == "" and "--m must be comma-separated numbers, got ''" in err


GRID_CAP = "check grid takes at most 1000000 points"
ORACLE_CAP = "oracle grid size must be <= 1000000"


@pytest.mark.parametrize("command,key,box,by_flag,message", [
    (["verify", "si"], "grid", "0,1,1000001", True, GRID_CAP),
    (["verify", "si"], "grid", "0,1,1000001", False, GRID_CAP),
    (["wavefunction"], "grid", "0,1,1000000000000", True, GRID_CAP),
    (["oracle", "compare"], "oracle", "-3,30,1000001", True, ORACLE_CAP),
    (["oracle", "compare"], "oracle", "-3,30,1000001", False, ORACLE_CAP),
])
def test_grid_and_oracle_sizes_are_capped_before_any_array(capsys, tmp_path, monkeypatch,
                                                         command, key, box, by_flag, message):
    # an N near 1e12 exited 4 from a MemoryError; the size is checked before
    # any array of N points is made (a guarded linspace would exit 4 here)
    from shapeinv import verify

    linspace = np.linspace

    def guarded(a, b, n=50, **kwargs):
        assert n <= verify.MAX_GRID_POINTS, n
        return linspace(a, b, n, **kwargs)

    monkeypatch.setattr(np, "linspace", guarded)
    monkeypatch.setattr(verify, "fd_spectrum", lambda *args: pytest.fail("the oracle ran"))
    if by_flag:
        job = [*MORSE, f"--{key}={box}"]
    else:
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({**MORSE_DOC, key: [float(v) for v in box.split(",")]}))
        job = [f"--config={cfg}"]
    rc, out, err = run(capsys, *command, *job)
    assert (rc, out) == (2, "") and err.startswith(f"error: {message}, got ")
    assert err.count("\n") == 1


def test_oracle_levels_beyond_the_grid_rows_exit_2(capsys):
    # a 500-point box has 498 levels; more used to print the bracket end
    rc, out, err = run(capsys, "oracle", "compare", "--family", "harm-osc", "--m", "0",
                       "--invariant", "1", "--beta", "1", "--d", "0.5", "--kmax", "600",
                       "--oracle=-10,10,500")
    assert rc == 2 and out == "" and "498 levels; 601 were asked for" in err


def test_config_numbers_are_json_numbers(capsys, tmp_path):
    # float() used to take the booleans and strings, run m = (1, 1.5) and
    # print tol=nan FAIL
    cfg = tmp_path / "job.json"
    cfg.write_text('{"family": "morse", "m": [true, "1.5"], '
                   '"couplings": [{"invariant": "1", "d": "1"}], "tol": "nan"}')
    rc, out, err = run(capsys, "verify", "si", "--config", str(cfg))
    assert rc == 2 and out == "" and err.count("\n") == 1 and "wrong type" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tol_must_be_finite_and_not_negative(capsys, tmp_path, tol):
    rc, out, err = run(capsys, "verify", "si", *MORSE, f"--tol={tol}")
    assert rc == 2 and out == "" and "tol must be finite and at least 0" in err
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({**MORSE_DOC, "tol": float(tol)}))
    rc, out, err = run(capsys, "verify", "si", "--config", str(cfg))
    assert rc == 2 and out == "" and "tol must be finite and at least 0" in err


@pytest.mark.parametrize("source,char,offset", [
    ("1+\u00b2", "\u00b2", 2), ("1+\u0663-\u0663", "\u0663", 2)])
def test_unicode_digits_in_invariants_exit_2(capsys, source, char, offset):
    # "1+²" exited 4 from float('²'), and "1+٣-٣" parsed as 1
    rc, out, err = run(capsys, "spectrum", "--family", "morse", "--m", "2.5",
                       f"--invariant={source}", "--d", "1")
    assert rc == 2 and out == ""
    assert err == f"error: unexpected character {char!r} at offset {offset}\n"


@pytest.mark.parametrize("flags", [
    ["--m=1e308,1e308", "--invariant=1", "--d=1"],
    ["--m=2.5", "--invariant=1", "--invariant=1", "--beta=1e308,1e308", "--d=1"],
    ["--m=inf,-inf", "--invariant=1", "--d=1"],
], ids=["mean", "coupling-sum", "inf-minus-inf"])
def test_overflowing_sums_exit_2(capsys, flags):
    # math.fsum raised OverflowError (exit 4); the sum now reads as inf
    rc, out, err = run(capsys, "spectrum", "--family=morse", *flags)
    assert rc == 2 and out == "" and err.count("\n") == 1
    assert "folded parameter eps is not finite" in err


@pytest.mark.parametrize("command,what", [
    (["spectrum", "--beta=1e308", "--kmax=1"], "the level table at k=1 is not finite: inf"),
    (["verify", "si", "--beta=1e200"], "the value judged against tol is not finite: nan"),
])
@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_non_finite_results_exit_3(capsys, command, what, as_json):
    # printed "energy":inf (exit 0) and "residual_max":nan (exit 1) before
    rc, out, err = run(capsys, *command, "--family=morse", "--m=2.5", "--invariant=1",
                       "--d=1", *as_json)
    assert rc == 3 and out == "" and err == f"numerical failure: {what}\n"


@pytest.mark.parametrize("doc,message", [
    ('{"grid": {"a": 0, "b": 1}}', "grid must carry numeric a, b, n"),
    ('{"grid": [0, 1]}', "grid must be an object with a, b, n"),
    ('{"couplings": [{"d": 1}]}', "each coupling needs an 'invariant' source string"),
    ('{"window": [1]}', "window must be a two-element array [a, b]"),
    ('{"format": "xml"}', "format must be text, json, or csv, got 'xml'"),
    ("[1]", "config document must be a JSON object"),
])
def test_a_config_document_of_the_wrong_shape_exits_2(capsys, tmp_path, doc, message):
    cfg = tmp_path / "job.json"
    cfg.write_text(doc)
    assert run(capsys, "spectrum", "--config", str(cfg)) == (2, "", f"error: {message}\n")
