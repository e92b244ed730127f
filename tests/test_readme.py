"""The README's library example runs and prints what its comments say, and its CLI examples exit 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from mmarg.cli import EX_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"
PRINT_WITH_EXPECTATION = re.compile(r"^print\(.*\)\s+# (.*)$")


def fenced(heading: str, lang: str) -> str:
    """The body of the first ``lang`` code block after ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    opening = f"```{lang}\n"
    start = text.index(opening, text.index(heading)) + len(opening)
    return text[start:text.index("```\n", start)]


def test_library_example_prints_its_comments():
    code = fenced("## Library example", "python")
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    expected = [PRINT_WITH_EXPECTATION.match(line) for line in prints]
    assert prints and all(expected), "every print line needs a '# expected output' comment"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [m.group(1) for m in expected]


def cli_examples() -> list[list[str]]:
    """Each ``mmarg ...`` line of the README's CLI block as an argument list, a trailing ``> FILE`` dropped."""
    lines = fenced("## CLI", "sh").splitlines()
    return [shlex.split(line.split(" > ")[0])[1:] for line in lines if line.startswith("mmarg ")]


def test_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    examples = cli_examples()
    assert len(examples) == 6
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert main(argv) == EX_OK, (argv, capsys.readouterr().err)
