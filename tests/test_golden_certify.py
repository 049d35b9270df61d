"""Byte-for-byte outputs of the crit-bound and cup-length queries of the
``certify`` benchmark workload at seed 101.

``data/golden_certify_seed101.json`` holds, per query, the ``--json``
stdout and the exit code that the program gave before the cup products
were made sparse.  A change that only makes the search faster must leave
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

GOLDEN = json.loads((Path(__file__).parent / "data"
                     / "golden_certify_seed101.json").read_text())

SPACES = {
    "surface(2)": lambda: surface(2),
    "surface(3)": lambda: surface(3),
    "torus#torus": lambda: connected_sum(torus(), torus()),
    "torus": torus,
    "rotation": lambda: mapping_torus(circle(3).complex, {0: 1, 1: 2, 2: 0}),
    "klein": lambda: mapping_torus(circle(3).complex, {0: 0, 1: 2, 2: 1}),
    "S1xS2": lambda: sphere_product(2),
}

SEED = 101


def _queries():
    """(query id, space name, argv with {space} for the space file)."""
    out = [(f"crit-bound {name}", name,
            ["crit-bound", "{space}", "--json", "--seed", str(SEED)])
           for name in SPACES]
    out += [(f"cup-length {name}", name,
             ["cup-length", "{space}", "--candidates", "1,2,1/2,3,1/3",
              "--manifold", "--json"])
            for name in ("surface(2)", "torus#torus")]
    return out


QUERIES = {qid: (name, argv) for qid, name, argv in _queries()}


def run_query(qid, directory):
    """Write the query's space to ``directory`` and run the CLI on it:
    (exit code, stdout)."""
    name, argv = QUERIES[qid]
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
