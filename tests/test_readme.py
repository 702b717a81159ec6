"""The README's `$ shapeinv ...` examples, run in-process against their shown output,
and its config-key table against the inputs each command rejects.

Each shown line must match the printed line after collapsing whitespace; a
line `...` stands for any number of lines, and `...` or `[...]` inside a
line for any text.  An example that shows no output only has to exit 0.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from shapeinv.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list:
    """(command, shown output lines) for every `$ shapeinv` line in a fenced block."""
    out, block, current = [], None, None
    lines = iter(README.read_text().splitlines())
    for line in lines:
        if line.startswith("```"):
            block = [] if block is None else None
            current = None
            continue
        if block is None:
            continue
        if line.startswith("$ shapeinv"):
            cmd = line[2:]
            while cmd.endswith("\\"):
                cmd = cmd[:-1] + next(lines).strip()
            current = (cmd, [])
            out.append(current)
        elif current is not None and line.strip():
            current[1].append(line)
    return out


def _collapse(line: str) -> str:
    return " ".join(line.split())


def _pattern(shown: str) -> str:
    text = re.escape(_collapse(shown))
    return text.replace(re.escape("[...]"), ".*").replace(re.escape("..."), ".*")


def _matches(shown: list, printed: list) -> bool:
    if not shown:
        return not printed
    if shown[0].strip() == "...":
        return any(_matches(shown[1:], printed[i:]) for i in range(len(printed) + 1))
    return (bool(printed) and re.fullmatch(_pattern(shown[0]), _collapse(printed[0])) is not None
            and _matches(shown[1:], printed[1:]))


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, shown):
    rc = main(shlex.split(command)[1:])
    printed = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
    assert rc == 0
    if shown:
        assert _matches(shown, printed), "\n".join(printed)


def _python_blocks() -> list:
    """The source of every ```python block, in README order."""
    blocks, current = [], None
    for line in README.read_text().splitlines():
        if current is None:
            if line.strip() == "```python":
                current = []
        elif line.startswith("```"):
            blocks.append("\n".join(current))
            current = None
        else:
            current.append(line)
    return blocks


def test_readme_python_blocks_run(capsys):
    # in order and in one namespace, as a reader pastes them: later blocks
    # use the names the first one imports
    blocks = _python_blocks()
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


# ---------------------------------------------------------------------------
# the "read by" column of the config-key table against what the CLI rejects

# the job commands as the column names them, and their argv heads
COMMANDS = {"spectrum": ["spectrum"], "oracle compare": ["oracle", "compare"],
            "wavefunction": ["wavefunction"],
            **{f"verify {check}": ["verify", check]
               for check in ("si", "ladder", "orthonormal", "cond1", "cond2", "ext-si")}}
# one value of each config key, and the flags that give it (the --oracle box
# is a flag of oracle compare alone, so the key goes by the document only)
INPUTS = {
    "family": ("morse", ["--family=morse"]),
    "extension": ("ext-4", ["--extension=ext-4"]),
    "m": ([2.5], ["--m=2.5"]),
    "couplings": ([{"invariant": "1", "d": 1}], ["--d=1"]),
    "rho_invariant": ("1", ["--rho-invariant=1"]),
    "ell": (2, ["--ell=2"]),
    "window": ([0.75, 1.1], ["--window=0.75,1.1"]),
    "grid": ([0, 1, 5], ["--grid=0,1,5"]),
    "oracle": ([-3, 30, 600], None),
    "tol": (1, ["--tol=1"]),
    "format": ("json", ["--json"]),
}


def _read_by() -> dict:
    """key -> the commands that the config-key table says read it."""
    rows = {}
    for line in README.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`"):
            every = cells[3].startswith("every command")
            rows[cells[0].strip("`")] = set(COMMANDS) if every else set(
                re.findall(r"`([^`]+)`", cells[3]))
    return rows


READ_BY = _read_by()


def test_the_config_table_names_every_key_and_only_job_commands():
    assert set(READ_BY) == set(INPUTS)
    assert set().union(*READ_BY.values()) <= set(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_rejects_the_inputs_the_table_says_it_does_not_read(capsys, tmp_path,
                                                                         command):
    # each input alone: an input the command reads fails later, on the
    # missing target or m, and no check runs either way
    for key, (value, flags) in INPUTS.items():
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({key: value}))
        for given in filter(None, ([f"--config={cfg}"], flags)):
            rc = main([*COMMANDS[command], *given])
            err = capsys.readouterr().err
            assert rc == 2 and err.count("\n") == 1, (given, err)
            rejected = err.startswith(f"error: --{key} does not apply to {command}, which reads")
            assert rejected == (command not in READ_BY[key]), (given, err)
