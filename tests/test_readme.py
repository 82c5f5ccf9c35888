"""README's "Quick start" code and "Command line" commands run as
documented, and its solver paragraph states the solver's limits."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from quadplate import modal
from quadplate.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    section = README.read_text(encoding="utf-8").split("## Command line")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("quadplate ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_exits_zero(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "report")]) == 0


def test_readme_quick_start_prints_documented_values():
    section = README.read_text(encoding="utf-8").split("## Quick start")[1]
    block = section.split("```python\n")[1].split("```")[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    lines = [" ".join(line.split()) for line in out.getvalue().splitlines()]
    assert lines[:2] == ["[10. 0.]", "22.0"]


@pytest.mark.parametrize("phrase,value", [
    (r"at most (\d+) DOFs", modal.DENSE_MAX_DOFS),
    (r"half-bandwidth of at most (\d+)", modal.BAND_MAX_KD),
    (r"any of up to (\d+) DOFs", modal.DENSE_COUNT_MAX_DOFS)],
    ids=["dense-max-dofs", "band-max-kd", "dense-count-max-dofs"])
def test_readme_states_the_solver_limits(phrase, value):
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert {int(v) for v in re.findall(phrase, text)} == {value}
