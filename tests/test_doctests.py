"""Run the usage examples embedded in the module docstrings and the README."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from heckepieces import charsheaf_b4, cli, coxeter, hecke, laurent, pieces

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", [laurent, coxeter, hecke, pieces, charsheaf_b4, cli],
                         ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_quick_tour():
    """Each fenced python block of the README runs as its own DocTest, in
    order, and sees the names the blocks before it defined.  (doctest.testfile
    would read every closing fence as expected output.)"""
    text = README.read_text(encoding="utf-8")
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    globs: dict = {}
    blocks = 0
    for match in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S):
        lineno = text.count("\n", 0, match.start(1))
        test = parser.get_doctest(match.group(1), globs, f"README.md:{lineno + 1}",
                                  str(README), lineno)
        runner.run(test, clear_globs=False)
        globs = test.globs
        blocks += 1
    result = runner.summarize(verbose=False)
    assert blocks >= 5 and result.attempted > blocks
    assert result.failed == 0


def _console_steps(block: str):
    """(command, expected lines) for each ``$`` line of a console block,
    with a trailing ``# ...`` comment dropped from the command."""
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((re.sub(r"\s+#.*$", "", line[2:]), []))
        else:
            steps[-1][1].append(line)
    return steps


def test_readme_console_examples(tmp_path, monkeypatch, capsys):
    """Each ``$ heckepieces ...`` line of the README's console blocks runs
    through ``cli.main``, in order, in an empty working directory, and must
    print the lines below it: ``...`` stands for any run of lines, and
    ``$ echo $?`` prints the last exit code."""
    monkeypatch.chdir(tmp_path)
    text = README.read_text(encoding="utf-8")
    code, commands = None, 0
    for match in re.finditer(r"^```console\n(.*?)^```$", text, re.M | re.S):
        for command, expected in _console_steps(match.group(1)):
            if command == "echo $?":
                printed = f"{code}\n"
            else:
                program, *argv = shlex.split(command)
                assert program == "heckepieces"
                code = cli.main(argv)
                printed = capsys.readouterr().out
            pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n"
                              for line in expected)
            assert re.fullmatch(pattern, printed), (command, printed)
            commands += 1
    assert commands >= 7
