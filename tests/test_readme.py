"""The README's library quickstart runs and prints what it documents."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quickstart_blocks():
    """The ``python`` blocks of the "Library quickstart" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quickstart\n", 1)[1]
    section = re.split(r"^#{2,3} ", section, maxsplit=1, flags=re.M)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_library_quickstart_prints_its_comments():
    blocks = quickstart_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        printed = out.getvalue().splitlines()
        assert printed
        for line in printed:
            # The line is a whole comment, or one that another comment ends.
            comment = r"# " + re.escape(line) + r"(\s+#.*)?$"
            assert re.search(comment, block, flags=re.M), line
