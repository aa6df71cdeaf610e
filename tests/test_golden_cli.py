"""``bq`` outputs on the bundled examples against committed golden files.

For every ideal of both bundled examples in characteristics 0, 2 and 3,
``bq pi1``, ``bq groebner`` and ``bq cover`` with ``--json`` and
``bq homotopic`` on four walk pairs run in process, as do ``bq lift``,
``bq smash`` and ``bq pipeline`` on a few transvections, dilatations and
gradings (the commands that map relations through
``as_path_automorphism`` and ``CoverMorphism.apply_to_relation``).
Their standard output and exit code must equal ``golden_cli.json`` byte
for byte.  The pair ("a*a^-1*c*b", "a") has an unreduced walk, so its
chain opens with the delete step of its free reduction.  A change that
means to change an output rewrites the file and shows the difference in
its diff:

    PYTHONPATH=src python tests/test_golden_cli.py --write

The examples are read from the installed package data, so the argument
lists name them by file name only.
"""

import contextlib
import io
import json
import os
import sys
from importlib import resources

from bqkit.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_cli.json")
CHARS = (0, 2, 3)
EXAMPLES = {
    "exple1.bq": (("I", "J"), (("a", "c*b"), ("d*a", "d*c*b"),
                               ("b^-1*c^-1*a", "e_1"),
                               ("a*a^-1*c*b", "a"))),
    "twobypass.bq": (("I0", "I1", "I2"), (("a", "c*b"), ("d", "f*e"),
                                          ("d*a", "f*e*c*b"),
                                          ("a*a^-1*c*b", "a"))),
}


def invocations():
    """The argument lists, each naming its example by file name."""
    for name, (ideals, pairs) in EXAMPLES.items():
        for ideal in ideals:
            for char in CHARS:
                on = [name, "--ideal", ideal, "--char", str(char)]
                for command in ("pi1", "groebner", "cover"):
                    yield [command] + on + ["--json"]
                for u, v in pairs:
                    yield ["homotopic"] + on + [u, v]
    yield from RELATION_MAPS


RADIUS = ["--radius", "6", "--json"]
# smash on twobypass I0 exits 3: a=1 in Z2 is homogeneous on neither of its
# minimal relations
RELATION_MAPS = (
    ["lift", "exple1.bq", "--ideal", "I", "--transvection", "a:c*b:-1"] + RADIUS,
    ["lift", "exple1.bq", "--ideal", "I", "--dilatation", "a=2,b=3"] + RADIUS,
    ["lift", "twobypass.bq", "--ideal", "I0", "--transvection", "a:c*b:1"] + RADIUS,
    ["lift", "twobypass.bq", "--ideal", "I0", "--dilatation", "a=2"] + RADIUS,
    ["smash", "exple1.bq", "--ideal", "I", "--group", "Z2", "--degrees", "a=1",
     "--json"],
    ["smash", "twobypass.bq", "--ideal", "I0", "--group", "Z2", "--degrees",
     "a=1", "--json"],
    ["pipeline", "exple1.bq", "--ideal", "I", "--group", "Z2", "--degrees",
     "a=1"] + RADIUS,
    ["pipeline", "twobypass.bq", "--ideal", "I0", "--target", "I1"] + RADIUS,
)


def run(argv):
    """(exit code, standard output) of ``bq`` on argv, the example file
    name replaced by its path in the package data."""
    data = resources.files("bqkit") / "data" / "examples"
    with resources.as_file(data / argv[1]) as path:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([argv[0], str(path)] + argv[2:])
    return code, out.getvalue()


def outputs():
    return [{"argv": argv, "exit": code, "stdout": stdout}
            for argv in invocations() for code, stdout in [run(argv)]]


def test_cli_outputs_match_golden_files():
    with open(GOLDEN, encoding="utf-8") as f:
        golden = json.load(f)
    fresh = outputs()
    assert [g["argv"] for g in golden] == [r["argv"] for r in fresh]
    for want, got in zip(golden, fresh):
        assert (got["exit"], got["stdout"]) == (want["exit"], want["stdout"]), \
            " ".join(want["argv"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_cli.py --write")
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(outputs(), f, indent=1)
        f.write("\n")
