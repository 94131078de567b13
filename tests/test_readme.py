"""The README's library example runs as written and prints what its comments say."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_python_block_runs_and_prints_its_comments():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    expected = [line.split("#", 1)[1].strip() for line in blocks[0].splitlines() if line.startswith("print(")]
    assert expected and out.getvalue().splitlines() == expected
