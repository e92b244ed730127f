"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PRINT_WITH_EXPECTATION = re.compile(r"^print\(.*\)\s+# (.*)$")


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library example")) + len("```python\n")
    return text[start:text.index("```\n", start)]


def test_library_example_prints_its_comments():
    code = library_example()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    expected = [PRINT_WITH_EXPECTATION.match(line) for line in prints]
    assert prints and all(expected), "every print line needs a '# expected output' comment"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [m.group(1) for m in expected]
