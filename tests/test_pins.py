"""The pin manifest and its recorder, checked without recording a pin."""

import json
import pathlib
import subprocess
import sys

import pytest

import digests
import linemaze
import pins
from linemaze.errors import ExplorationError


def test_the_manifest_holds_the_produced_pins_and_names_its_platform_once(
        monkeypatch):
    # Every exploration fails at once and every command does nothing, so
    # each producer makes its keys as it does when recording, but cheaply.
    def fail(*args, **kwargs):
        raise ExplorationError("not explored")

    monkeypatch.setattr(digests, "explore_map", fail)
    monkeypatch.setattr(digests, "run", lambda argv: 0)
    produced = {group: make() for group, make in pins.producers().items()}
    assert sorted(pins.flat(produced)) == sorted(pins.load()[1])
    manifest = json.loads(pins.MANIFEST.read_text())
    assert sorted(manifest["pins"]) == sorted(pins.CLASSES)
    texts = [path.read_text() for path in pins.MANIFEST.parent.glob("*.py")]
    texts.append(pins.MANIFEST.read_text())
    assert sum(text.count(manifest["platform"]) for text in texts) == 1


def test_diff_prints_each_moved_pin_with_its_class(monkeypatch, capsys):
    recorded = pins.load()[1]
    explorer = {name[len("explorer/"):]: digest
                for name, (_cls, digest) in recorded.items()
                if name.startswith("explorer/")}
    monkeypatch.setattr(pins, "producers", lambda: {
        "explorer": lambda: explorer, "jitter": lambda: recorded["jitter"][1]})
    assert pins.main(["diff"]) == 0
    assert capsys.readouterr().out == ""
    for key, cls in (("decisions/arc/9000", "decisions"),
                     ("arc/9000", "floats")):
        old, explorer[key] = explorer[key], "0" * 16
        assert pins.main(["diff"]) == 1
        assert capsys.readouterr().out == "explorer/%s  %s  %s  %s\n" % (
            key, cls, old, "0" * 16)
        # Only a moved float names the platforms in the failing test.
        with pytest.raises(AssertionError) as failed:
            pins.check("explorer", explorer)
        assert ("floats pinned on" in str(failed.value)) == (cls == "floats")
        explorer[key] = old


def test_the_producers_import_without_scipy():
    # The pin tool runs where neither pytest, Hypothesis nor scipy is
    # installed: it imports its producers from digests.py, which imports
    # none of them. The cheap groups run there and hold their pins; jitter
    # runs last, so it holds only if the stand-in for MonkeyPatch that the
    # other two run under puts back what it moved.
    paths = [str(pathlib.Path(__file__).parent),
             str(pathlib.Path(linemaze.__file__).parents[1])]
    code = ("import sys; sys.path[:0] = %r\n"
            "for name in ('pytest', 'hypothesis', 'scipy'):\n"
            "    sys.modules[name] = None\n"
            "import pins\n"
            "made = {group: pins.producers()[group]()\n"
            "        for group in ('kernel', 'estimator', 'jitter')}\n"
            "assert pins.moved(made) == []" % paths)
    subprocess.run([sys.executable, "-I", "-c", code], check=True,
                   capture_output=True, timeout=60)
