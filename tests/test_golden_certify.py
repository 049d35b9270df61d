"""Byte-for-byte outputs of the crit-bound and cup-length queries of the
``certify`` benchmark workload at seed 101, and of the queries whose
search reads the fewest of the representatives and products it could.

``data/golden_certify_seed101.json`` holds, per query, the ``--json``
stdout and the exit code that the program gave before the cup products
were made sparse.  ``data/golden_certify_lazy.json`` holds those of
crit-bound at seeds 0, 101 and 404 and of cup-length over seven
candidates on surface(6), the connected sum of three tori and a designed
presentation with three rational jump roots, recorded while the search
still lifted every representative and formed every product before its
first offer.  A change that only makes the search faster must leave
every byte of them as it is: the certificates print every entry of their
cocycle representatives, so a changed entry, order or type shows here.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from novikov import cli
from novikov.corpus import (circle, connected_sum, mapping_torus,
                            space_to_json, sphere_product, surface, torus)
from test_invariants import _designed_presentation

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_certify_seed101.json").read_text())
GOLDEN_LAZY = json.loads((DATA / "golden_certify_lazy.json").read_text())

SPACES = {
    "surface(2)": lambda: surface(2),
    "surface(3)": lambda: surface(3),
    "torus#torus": lambda: connected_sum(torus(), torus()),
    "torus": torus,
    "rotation": lambda: mapping_torus(circle(3).complex, {0: 1, 1: 2, 2: 0}),
    "klein": lambda: mapping_torus(circle(3).complex, {0: 0, 1: 2, 2: 1}),
    "S1xS2": lambda: sphere_product(2),
    "surface(6)": lambda: surface(6),
    "torus#torus#torus": lambda: connected_sum(
        connected_sum(torus(), torus()), torus()),
    # jump roots 2, 3 and 6, whose products reach one another's inverses
    "(t-2)(t-3)(t-6)": lambda: _designed_presentation([-36, 36, -11, 1]),
}

SEED = 101
WORKLOAD_SPACES = ["surface(2)", "surface(3)", "torus#torus", "torus",
                   "rotation", "klein", "S1xS2"]
LAZY_SPACES = ["surface(6)", "torus#torus#torus", "(t-2)(t-3)(t-6)"]


def _queries():
    """(query id, space name, argv with {space} for the space file)."""
    out = [(f"crit-bound {name}", name,
            ["crit-bound", "{space}", "--json", "--seed", str(SEED)])
           for name in WORKLOAD_SPACES]
    out += [(f"cup-length {name}", name,
             ["cup-length", "{space}", "--candidates", "1,2,1/2,3,1/3",
              "--manifold", "--json"])
            for name in ("surface(2)", "torus#torus")]
    return out


def _lazy_queries():
    out = [(f"crit-bound {name} --seed {seed}", name,
            ["crit-bound", "{space}", "--json", "--seed", str(seed)])
           for name in LAZY_SPACES for seed in (0, 101, 404)]
    out += [(f"cup-length {name}", name,
             ["cup-length", "{space}", "--candidates",
              "1,2,1/2,3,1/3,6,1/6", "--json"])
            for name in LAZY_SPACES]
    return out


QUERIES = {qid: (name, argv) for qid, name, argv in _queries()}
LAZY_QUERIES = {qid: (name, argv) for qid, name, argv in _lazy_queries()}


def run_query(qid, directory, queries=QUERIES):
    """Write the query's space to ``directory`` and run the CLI on it:
    (exit code, stdout)."""
    name, argv = queries[qid]
    space = SPACES[name]()
    space.label = name
    path = Path(directory) / "space.json"
    path.write_text(json.dumps(space_to_json(space)))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main([str(path) if a == "{space}" else a for a in argv])
    return rc, out.getvalue()


def test_golden_file_covers_the_workload_queries():
    assert sorted(GOLDEN) == sorted(QUERIES)


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_output_is_byte_identical(qid, tmp_path):
    rc, stdout = run_query(qid, tmp_path)
    assert rc == GOLDEN[qid]["exit"]
    assert stdout == GOLDEN[qid]["stdout"]


def test_lazy_golden_file_covers_its_queries():
    assert sorted(GOLDEN_LAZY) == sorted(LAZY_QUERIES)


@pytest.mark.parametrize("qid", sorted(LAZY_QUERIES))
def test_lazy_search_output_is_byte_identical(qid, tmp_path):
    rc, stdout = run_query(qid, tmp_path, LAZY_QUERIES)
    assert rc == GOLDEN_LAZY[qid]["exit"]
    assert stdout == GOLDEN_LAZY[qid]["stdout"]
