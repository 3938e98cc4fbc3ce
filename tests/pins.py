"""Every output digest the tests pin, in one manifest, ``pins.json``, which
names its recording platform once and files each pin under a class (the
README's determinism paragraph states their contracts).
``PYTHONPATH=src python tests/pins.py record`` rewrites it, and ``diff``
prints ``pin  class  old  new`` per moved pin, "-" for one new or gone, and
exits 1 if any pin moved, 0 if none did. Neither needs pytest, Hypothesis
or scipy: the producers live in ``digests.py``, which imports none of them.
"""

import json
import pathlib
import platform
import sys

import digests

MANIFEST = pathlib.Path(__file__).with_name("pins.json")
CLASSES = ("bytes", "decisions", "floats")


def producers():
    """Each pin group's producer, which makes one digest or a dict of them."""
    return {"explorer": digests.explorer_digests,
            "solve": digests.solve_digests,
            "kernel": digests.kernel_digest,
            "jitter": digests.jitter_digest,
            "estimator": digests.estimator_digests}


def pin_class(name):
    """bytes for printed output, floats where sin, cos, atan2 or asin feeds
    the digest, decisions for the rest: choices, and libm-free floats."""
    if name.startswith("solve/"):
        return "bytes"
    if name == "jitter" or name.startswith(("explorer/ideal/",
                                            "explorer/decisions/")):
        return "decisions"
    return "floats"


def this_platform():
    return "%s %s, %s, %s" % (
        platform.python_implementation(), platform.python_version(),
        " ".join(platform.libc_ver()).strip() or "unknown libc",
        platform.machine())


def load():
    """The recording platform, and each pin's (class, digest) by name."""
    manifest = json.loads(MANIFEST.read_text())
    return manifest["platform"], {
        name: (cls, digest) for cls, pins in manifest["pins"].items()
        for name, digest in pins.items()}


def flat(produced):
    """Each digest of ``{group: digest or {key: digest}}`` by pin name."""
    pins = {}
    for group, made in produced.items():
        pins.update({group: made} if isinstance(made, str) else
                    {"%s/%s" % (group, key): d for key, d in made.items()})
    return pins


def moved(produced):
    """(pin, class, old, new) for each pin of the produced groups whose
    digest is not the manifest's."""
    new, pins = flat(produced), load()[1]
    rows = []
    for name in sorted(new.keys() | {n for n in pins
                                     if n.split("/")[0] in produced}):
        cls, old = pins.get(name, (pin_class(name), "-"))
        if new.get(name, "-") != old:
            rows.append((name, cls, old, new.get(name, "-")))
    return rows


def check(group, made):
    """Assert that one group's digests are the manifest's."""
    rows = moved({group: made})
    text = "\n".join("  ".join(row) for row in rows)
    if any(row[1] == "floats" for row in rows):
        text += ("\nfloats pinned on %s, this run is on %s; another libm may "
                 "round sin, cos, atan2 or asin differently"
                 % (load()[0], this_platform()))
    assert not rows, text


def main(argv):
    """The command's exit status."""
    if argv not in (["record"], ["diff"]):
        sys.exit("usage: python tests/pins.py {record,diff}")
    produced = {group: make() for group, make in producers().items()}
    if argv == ["diff"]:
        rows = moved(produced)
        for row in rows:
            print("  ".join(row))
        return 1 if rows else 0
    pins = {cls: {} for cls in CLASSES}
    for name, digest in flat(produced).items():
        pins[pin_class(name)][name] = digest
    MANIFEST.write_text(json.dumps({"platform": this_platform(), "pins": pins},
                                   indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
