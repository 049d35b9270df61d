"""Inputs and queries of the three workloads.

A workload is a fixed list of spaces plus a list of queries drawn from
the seed.  Each query runs through a public entry point of the program
(``novikov.cli.main`` or ``novikov.twisted.DeformationComplex``) and is
checked against ``check.py``, which does not import the program.
"""

from __future__ import annotations

import random
from fractions import Fraction

import check

WORKLOADS = ("jumps", "pointwise", "certify")

SPACES = {
    "jumps": ["surface(2)", "surface(3)", "surface(4)", "surface(5)",
              "S1xS2", "S1xS3", "klein", "order3"],
    "pointwise": ["surface(2)", "surface(4)", "surface(6)", "S1xS3",
                  "order3", "torus", "klein"],
    "certify": ["surface(2)", "surface(3)", "torus#torus", "torus",
                "rotation", "klein", "S1xS2"],
}

# The query a smoke run keeps, one per workload: the cheapest of each.
SMOKE = {
    "jumps": "jumps klein",
    "pointwise": "oracle-mv torus a=1",
    "certify": "crit-bound torus",
}

SEVEN_VERTEX_TORUS = ([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
                      + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)])


def build_space(name, corpus, complexes):
    """The named space, generated by ``novikov.corpus``."""
    if name.startswith("surface("):
        space = corpus.surface(int(name[len("surface("):-1]))
    elif name in ("S1xS2", "S1xS3"):
        space = corpus.sphere_product(int(name[-1]))
    elif name == "torus":
        space = corpus.torus()
    elif name == "torus#torus":
        space = corpus.connected_sum(corpus.torus(), corpus.torus())
    elif name == "rotation":
        space = corpus.mapping_torus(corpus.circle(3).complex,
                                     {0: 1, 1: 2, 2: 0})
    elif name == "klein":
        space = corpus.mapping_torus(corpus.circle(3).complex,
                                     {0: 0, 1: 2, 2: 1})
    elif name == "order3":
        F = complexes.build_complex(SEVEN_VERTEX_TORUS)
        space = corpus.mapping_torus(F, {v: 2 * v % 7 for v in range(7)})
    else:
        raise KeyError(name)
    space.label = name
    return space


class Query:
    """One operation of a pass.

    ``kind`` is ``cli`` (argv for ``novikov.cli.main``, with ``{space}``
    standing for the space's JSON file), ``deformation`` (dims of
    ``DeformationComplex(cut)`` at ``a``) or ``boundary`` (malformed input
    that must be refused with exit code 2; kept out of the latency).
    ``check`` takes the parsed JSON output, the space's JSON and its
    ``check.REFERENCES`` entry, and raises ``check.CheckError`` on a wrong
    answer.
    """

    def __init__(self, qid, kind, space, argv=None, stdin=None, a=None,
                 check=None):
        self.qid = qid
        self.kind = kind
        self.space = space
        self.argv = argv
        self.stdin = stdin
        self.a = a
        self.check = check

    def __repr__(self):
        return f"Query({self.qid!r})"


def draw_rational(rng, avoid):
    """A monodromy p/q with |p|, q <= 9, kept small so that the cost of
    exact elimination hardly depends on the seed."""
    while True:
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        if a not in avoid and a not in (0, 1, -1):
            avoid.add(a)
            return a


def _dims_check(a_text, invert=False):
    def run(out, space_json, ref):
        a = check.parse_monodromy(a_text)
        check.check_dims(ref, 1 / a if invert else a, out["dims"])
    return run


def _jumps_check(out, space_json, ref):
    check.check_jumps(ref, out)


def _crit_check(out, space_json, ref):
    check.check_crit(ref, space_json, out)


def _twisted_dim(space, a_text):
    return Query(f"twisted-dim {space} a={a_text}", "cli", space,
                 argv=["twisted-dim", "{space}", "--json", f"--a={a_text}"],
                 check=_dims_check(a_text))


def _oracle(space, a_text):
    return Query(f"oracle-mv {space} a={a_text}", "cli", space,
                 argv=["oracle-mv", "{space}", "--json", f"--a={a_text}"],
                 check=_dims_check(a_text))


def _deformation(space, a):
    return Query(f"deformation {space} a={a}", "deformation", space, a=a,
                 check=_dims_check(str(a), invert=True))


def boundary_queries():
    """Malformed inputs the program must refuse with exit code 2.  The
    last monodromy is a root of (t^2-3t+1)(t^2+1), which is reducible."""
    return [
        Query("info {}", "boundary", None, argv=["info", "--stdin"],
              stdin="{}"),
        Query("info maximal_simplices=5", "boundary", None,
              argv=["info", "--stdin"], stdin='{"maximal_simplices": 5}'),
        Query("info top-level array", "boundary", None,
              argv=["info", "--stdin"], stdin="[[0, 1, 2]]"),
        Query("twisted-dim a=1/0", "boundary", "surface(2)",
              argv=["twisted-dim", "{space}", "--json", "--a=1/0"]),
        Query("twisted-dim a=@1,-3,2,-3,1", "boundary", "surface(2)",
              argv=["twisted-dim", "{space}", "--json",
                    "--a=@1,-3,2,-3,1"]),
    ]


def queries(workload, seed):
    """The queries of one pass, in a seed-dependent order."""
    rng = random.Random(seed)
    out = []
    if workload == "jumps":
        for space in SPACES["jumps"]:
            out.append(Query(f"jumps {space}", "cli", space,
                             argv=["jumps", "{space}", "--json"],
                             check=_jumps_check))
    elif workload == "pointwise":
        avoid = set()
        # surface(4) gets six rationals: its ~0.2 s queries then form the
        # middle of the latency distribution, so the median is taken over
        # several similar queries instead of one
        for space, n in [("surface(2)", 2), ("surface(4)", 6),
                         ("surface(6)", 2), ("S1xS3", 2), ("order3", 2)]:
            algebraic = "@1,1,1" if space == "order3" else "@-1,-3,2"
            for _ in range(n):
                out.append(_twisted_dim(space, str(draw_rational(rng, avoid))))
            out.append(_twisted_dim(space, "1"))
            out.append(_twisted_dim(space, algebraic))
        for space, roots in [("torus", ["1"]), ("klein", ["1", "-1"]),
                             ("order3", ["1", "@1,1,1"])]:
            out.append(_oracle(space, str(draw_rational(rng, avoid))))
            out.extend(_oracle(space, r) for r in roots)
        for space in ["torus", "klein", "order3"]:
            out.append(_deformation(space, draw_rational(rng, avoid)))
        out.append(_deformation("klein", Fraction(-1)))
        out.extend(boundary_queries())
    elif workload == "certify":
        for space in SPACES["certify"]:
            out.append(Query(f"crit-bound {space}", "cli", space,
                             argv=["crit-bound", "{space}", "--json",
                                   "--seed", str(seed)],
                             check=_crit_check))
        for space in ["surface(2)", "torus#torus"]:
            out.append(Query(f"cup-length {space}", "cli", space,
                             argv=["cup-length", "{space}", "--candidates",
                                   "1,2,1/2,3,1/3", "--manifold", "--json"],
                             check=_crit_check))
    else:
        raise KeyError(workload)
    rng.shuffle(out)
    return out
