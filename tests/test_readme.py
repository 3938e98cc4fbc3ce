"""The README's quickstarts run and print what they document."""

import contextlib
import io
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import linemaze
from linemaze import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quickstart_blocks(heading="Library quickstart", lang="python"):
    """The ``lang`` blocks of a README section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## %s\n" % heading, 1)[1]
    section = re.split(r"^#{2,3} ", section, maxsplit=1, flags=re.M)[0]
    return re.findall(r"^```%s\n(.*?)^```$" % lang, section,
                      flags=re.M | re.S)


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


def test_cli_quickstart_prints_what_it_shows(tmp_path):
    # Each console block is one command and its stdout, byte for byte.
    # The plot block prints nothing and writes its SVG into tmp_path.
    blocks = quickstart_blocks("CLI quickstart", "console")
    assert len(blocks) == 5
    for block in blocks:
        command, _, shown = block.partition("\n")
        assert command.startswith("$ linemaze "), command
        argv = shlex.split(command)[2:]
        svg = None
        if "--out" in argv:
            at = argv.index("--out") + 1
            svg = tmp_path / argv[at]
            argv[at] = str(svg)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.run(argv) == 0, command
        assert out.getvalue() == shown, command
        if svg is not None:
            text = svg.read_text(encoding="utf-8")
            assert text.startswith("<svg ") and text.rstrip().endswith(
                "</svg>"), command



def fig1_block():
    """The README's fig1 console block: (argv after ``linemaze``, stdout)."""
    block, = (b for b in quickstart_blocks("CLI quickstart", "console")
              if b.startswith("$ linemaze solve --maze fig1 "))
    command, _, shown = block.partition("\n")
    return shlex.split(command)[2:], shown


@pytest.mark.parametrize("module,maze", [
    ("linemaze", "fig1"), ("linemaze", "nosuch"), ("linemaze.cli", "nosuch")])
def test_python_m_runs_the_cli(tmp_path, module, maze):
    # ``python -m linemaze`` and ``python -m linemaze.cli`` run the console
    # script's main(), here from outside the checkout.
    argv, shown = (fig1_block() if maze == "fig1"
                   else (["solve", "--maze", maze], ""))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(linemaze.__file__)))
    done = subprocess.run([sys.executable, "-m", module, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    if maze == "fig1":
        assert (done.returncode, done.stdout) == (0, shown)
        assert re.fullmatch(r"duration: \d+\.\d{3} s\n", done.stderr)
    else:
        assert (done.returncode, done.stdout, done.stderr) == (
            1, "", "error: no bundled maze named 'nosuch.maze'\n")
