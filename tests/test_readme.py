"""Every ```python block of README.md runs as written, and so does every
`wpcone` command of its plain ``` blocks."""

import re
import shlex
import sys
from pathlib import Path

import pytest

from wpcone.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def shell_commands(text):
    """(argv, shown) for each `wpcone ...` line of a plain ``` block: shown is
    the `# ...` line that follows it, less any trailing `(= ...)` note, or
    None."""
    commands, fence, lines = [], None, text.splitlines()
    for line, after in zip(lines, lines[1:] + [""]):
        if line.startswith("```"):
            fence = line[3:] if fence is None else None
        elif fence == "" and line.startswith("wpcone "):
            shown = None
            if after.startswith("# "):
                shown = re.sub(r"\s*\(=.*\)$", "", after[2:])
            commands.append((shlex.split(line, comments=True)[1:], shown))
    return commands


COMMANDS = shell_commands(README.read_text())


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_shell_commands():
    assert len(COMMANDS) == 11


@pytest.mark.parametrize(
    "argv, shown", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS]
)
def test_readme_shell_command_runs(argv, shown, capsys):
    # exits 0, and prints first what the README shows below it
    assert main(argv) == 0
    if shown is not None:
        assert capsys.readouterr().out.splitlines()[0] == shown


if __name__ == "__main__":
    sys.exit(pytest.main(sys.argv))
