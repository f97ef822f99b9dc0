"""Golden digests of the CLI's output.

Each entry pins the exit code and the sha256 of standard output of
``analyze --json`` on one polytope, of one seeded ``corpus --json`` run, or
of ``examples``, whose printed values come from every registry entry.
A kernel rewrite must keep every result and every byte of the reports, so
any change here is a change of behaviour, not of speed. Every digest is
checked on both routes of the exact array passes: as they come, which is
int64 on these inputs, and with every pass sent to Python ints.
"""

import hashlib
import itertools
import json

import pytest

from castelpoly.cli import main
from castelpoly.registry import (
    family_vertices,
    nonspanning_dim4_vertices,
    reflexive_simplex_vertices,
    square_2x2_vertices,
    standard_simplex_vertices,
)

from conftest import ROUTES, exact_route

POLYTOPES = {
    **{f"standard-simplex-{n}": standard_simplex_vertices(n) for n in range(1, 6)},
    "example-3-5": nonspanning_dim4_vertices(),
    "family-a-1": family_vertices(1),
    "family-a-2": family_vertices(2),
    "reflexive-simplex-3": reflexive_simplex_vertices(),
    "square-2x2": square_2x2_vertices(),
    "unit-cube-3": list(itertools.product((0, 1), repeat=3)),
    "unit-cube-4": list(itertools.product((0, 1), repeat=4)),
}

ANALYZE_DIGESTS = {
    "example-3-5": (0, "94188c5d44d19bc3cdd4646c6a953d52b6acd5425305a4627bbb6bd85deeac9b"),
    "family-a-1": (0, "28e593a3d7292d7edfac600aff5d3a8bb257a08094264a60e8e237b257376604"),
    "family-a-2": (0, "2ff2ebb36d13d30ff05c9208749d3e1b7a72a84802f73f86de0eac0948a91878"),
    "reflexive-simplex-3": (0, "d3ff073ef1f2ea259393a2f5bb69ed9e75c89b34a9d08f0964cc82aa70888e36"),
    "square-2x2": (0, "b4c3da2b380200fe12a66a1fd90de3f8714809a5273b8441949f4d3f95cddee5"),
    "standard-simplex-1": (0, "23cb27f98fddada5f4e99f19041ebb1d7cf284441db36a377ae0ebcfb0572c5f"),
    "standard-simplex-2": (0, "208ab2894f91ad6c51dcd22d79087f37bd28c0ee499b3d5a539495e862059dea"),
    "standard-simplex-3": (0, "9ec6b466e77d71a15077c4c806d6d39969a9c82c4b4aa3365763420ddc4df90f"),
    "standard-simplex-4": (0, "4cac5dd690f4c3d5fdadcfb76fb121ccdd9ced9bd55213bbb6f3d41ec18d935c"),
    "standard-simplex-5": (0, "01fcac9260cb59529675e20b7874a1661bafbf1328c5258e16482cff3c64dbc4"),
    "unit-cube-3": (0, "4ed698c0c39cb1dc9bba3f2853997e0b8ad8697bd94851aa49f3543863d424ee"),
    "unit-cube-4": (0, "1d1494c54d173ec209da1a0e776935ee99177fc54ab6c8ab063dc425d9cf90ec"),
}

CORPUS_ARGS = ["corpus", "--dim", "3", "--coord-bound", "2", "--count", "60", "--seed", "17", "--json"]
CORPUS_DIGEST = (0, "d9f02c1643a57c55161fa263dd1c2f1a52964958af9feab6f4a2331f12e57711")

EXAMPLES_DIGEST = (0, "6ece9299f0c6882bd1861a149391bf2dc112753b85948e4b8fa567f74a89ee18")


def run(capsys, argv):
    """(exit code, sha256 of standard output) of one CLI run."""
    code = main(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


# the int64 case keeps the polytope's name as its id
@pytest.mark.parametrize(
    "name, python_ints",
    [
        pytest.param(name, on, id=f"{name}-python-ints" if on else name)
        for name in sorted(POLYTOPES)
        for on in (False, True)
    ],
)
def test_analyze_json_digest(name, python_ints, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "vertices": POLYTOPES[name]}))
    with exact_route(python_ints):
        assert run(capsys, ["analyze", str(path), "--json"]) == ANALYZE_DIGESTS[name]


@ROUTES
def test_corpus_json_digest(python_ints, capsys):
    with exact_route(python_ints):
        assert run(capsys, CORPUS_ARGS) == CORPUS_DIGEST


@ROUTES
def test_examples_digest(python_ints, capsys):
    with exact_route(python_ints):
        assert run(capsys, ["examples"]) == EXAMPLES_DIGEST
