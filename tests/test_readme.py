"""The README's `$ shapeinv ...` examples, run in-process against their shown output.

Each shown line must match the printed line after collapsing whitespace; a
line `...` stands for any number of lines, and `...` or `[...]` inside a
line for any text.  An example that shows no output only has to exit 0.
"""

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
