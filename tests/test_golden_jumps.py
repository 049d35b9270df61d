"""Byte-for-byte outputs of the jump-locus path on the spaces of the
``jumps`` and ``pointwise`` benchmark workloads.

``data/golden_jumps.json`` holds, per query, the ``--json`` stdout and
the exit code that the program gave while the cut of a JSON space was
still built at load and the reduction ran one Markowitz loop over all its
pivots; and, per space with a cut, the dimensions of its deformation
complex at t = 3/2, 1 and -1, read from the cut of the space's JSON.  A
change that only makes these paths faster must leave every byte of them
as it is.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from novikov import cli
from novikov.complexes import build_complex
from novikov.corpus import (circle, mapping_torus, space_from_json,
                            space_to_json, sphere_product, surface, torus)
from novikov.twisted import DeformationComplex

GOLDEN = json.loads((Path(__file__).parent / "data"
                     / "golden_jumps.json").read_text())

SEVEN_VERTEX_TORUS = ([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
                      + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)])

SPACES = {
    "surface(2)": lambda: surface(2),
    "surface(3)": lambda: surface(3),
    "surface(4)": lambda: surface(4),
    "surface(5)": lambda: surface(5),
    "surface(6)": lambda: surface(6),
    "S1xS2": lambda: sphere_product(2),
    "S1xS3": lambda: sphere_product(3),
    "klein": lambda: mapping_torus(circle(3).complex, {0: 0, 1: 2, 2: 1}),
    "order3": lambda: mapping_torus(build_complex(SEVEN_VERTEX_TORUS),
                                    {v: 2 * v % 7 for v in range(7)}),
    "torus": torus,
}

MONODROMIES = ("7/3", "-1", "@-1,-3,2")


def _queries():
    """(query id, space name, argv with {space} for the space file)."""
    out = []
    for name in SPACES:
        out.append((f"jumps {name}", name, ["jumps", "{space}", "--json"]))
        out.append((f"info {name}", name, ["info", "{space}", "--json"]))
        out += [(f"twisted-dim {name} a={a}", name,
                 ["twisted-dim", "{space}", "--json", f"--a={a}"])
                for a in MONODROMIES]
    return out


QUERIES = {qid: (name, argv) for qid, name, argv in _queries()}
CUT_SPACES = ["S1xS2", "S1xS3", "klein", "order3", "torus"]


def space_json(name) -> dict:
    space = SPACES[name]()
    space.label = name
    return space_to_json(space)


def run_query(qid, directory):
    """Write the query's space to ``directory`` and run the CLI on it:
    (exit code, stdout)."""
    name, argv = QUERIES[qid]
    path = Path(directory) / "space.json"
    path.write_text(json.dumps(space_json(name)))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main([str(path) if a == "{space}" else a for a in argv])
    return rc, out.getvalue()


def deformation_dims(name):
    """dim H^q of the deformation complex of the space's JSON cut at
    t = 3/2, 1 and -1, for q = 0..top; 3/2 is no jump of any of these
    spaces, so 1 and -1 are there for dims other than 0."""
    D = DeformationComplex(space_from_json(space_json(name)).cut)
    return [[D.dim_at(q, Fraction(a)) for q in range(D.top + 1)]
            for a in ("3/2", "1", "-1")]


def test_golden_file_covers_the_queries():
    assert sorted(GOLDEN["queries"]) == sorted(QUERIES)
    assert sorted(GOLDEN["deformation"]) == sorted(CUT_SPACES)
    assert [n for n in SPACES if space_json(n).get("cut")] == CUT_SPACES


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_output_is_byte_identical(qid, tmp_path):
    rc, stdout = run_query(qid, tmp_path)
    assert rc == GOLDEN["queries"][qid]["exit"]
    assert stdout == GOLDEN["queries"][qid]["stdout"]


@pytest.mark.parametrize("name", CUT_SPACES)
def test_deformation_dims_are_unchanged(name):
    assert deformation_dims(name) == GOLDEN["deformation"][name]
