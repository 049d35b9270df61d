"""The cut of a JSON space is built when it is first read.

``space_from_json`` checks the cut's shape and its vertex maps at load;
N, V and the check that i+ and i- send simplices to simplices wait until
``space.cut`` is read, which only ``oracle-mv`` does among the commands.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from novikov import corpus
from novikov.cli import main
from novikov.complexes import build_complex
from novikov.errors import MalformedInput


def gen_torus() -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["gen", "torus"]) == 0
    return json.loads(out.getvalue())


def run(argv, doc, tmp_path, capsys):
    """(exit code, stdout, stderr) of the CLI on the space doc."""
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main([str(path) if a == "{space}" else a for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def non_simplex_cut() -> dict:
    """The torus whose i- sends the edge (0, 2) of V to (5, 9), no edge of
    N: every vertex check passes, since 9, 10 and 5 are vertices of N that
    i+ (onto 0, 1, 2) does not hit."""
    doc = gen_torus()
    doc["cut"]["i_minus"] = [[0, 9], [1, 10], [2, 5]]
    N = build_complex(doc["cut"]["N"])
    assert N.has_simplex((5,)) and not N.has_simplex((5, 9))
    return doc


COMMANDS = [
    ["info", "{space}", "--json"],
    ["betti", "{space}", "--json"],
    ["novikov", "{space}", "--json"],
    ["jumps", "{space}", "--json"],
    ["twisted-dim", "{space}", "--json", "--a=2"],
    ["cup-length", "{space}", "--json", "--candidates=2,1/2"],
    ["crit-bound", "{space}", "--json"],
    ["thm3-bound", "{space}", "--json", "--approximants=1;2"],
    ["oracle-mv", "{space}", "--json", "--a=2"],
]


def test_info_reports_a_cut_without_building_it(tmp_path, capsys,
                                                monkeypatch):
    built = []
    real = corpus.build_complex

    def spy(simplices):
        built.append(simplices)
        return real(simplices)

    doc = gen_torus()
    monkeypatch.setattr(corpus, "build_complex", spy)
    code, out, _err = run(["info", "{space}", "--json"], doc, tmp_path,
                          capsys)
    assert code == 0 and json.loads(out)["has_cut"] is True
    assert built == [doc["maximal_simplices"]]
    # reading the cut builds N and V, once
    space = corpus.space_from_json(doc)
    assert space.has_cut and len(built) == 2
    assert space.cut.N.f_vector() == (12, 30, 18)
    assert space.cut is space.cut
    assert built[2:] == [doc["cut"]["N"], doc["cut"]["V"]]


@pytest.mark.parametrize("argv", [c for c in COMMANDS
                                  if c[0] != "oracle-mv"],
                         ids=lambda argv: argv[0])
def test_a_cut_no_command_reads_is_not_built(argv, tmp_path, capsys):
    """A cut whose i- sends an edge of V to no simplex of N changes nothing
    for a command that does not read it."""
    broken = non_simplex_cut()
    without = dict(broken)
    without.pop("cut")
    code, out, err = run(argv, broken, tmp_path, capsys)
    assert (code, err) == (0, "")
    expected = run(argv, without, tmp_path, capsys)
    if argv[0] == "info":
        assert json.loads(out) == {**json.loads(expected[1]),
                                   "has_cut": True}
    else:
        assert (code, out, err) == expected


def test_oracle_mv_refuses_a_cut_that_is_no_simplicial_map(tmp_path,
                                                           capsys):
    code, out, err = run(["oracle-mv", "{space}", "--json", "--a=2"],
                         non_simplex_cut(), tmp_path, capsys)
    assert code == 2 and out == ""
    assert err == "error: image (5, 9) of simplex (0, 2) is not a simplex\n"


def _with_cut(**changes):
    doc = gen_torus()
    doc["cut"].update(changes)
    return doc


BAD_CUTS = {
    "cut-not-an-object": dict(gen_torus(), cut=[1, 2]),
    "N-not-lists": _with_cut(N=5),
    "V-float": _with_cut(V=[[0, 1.5]]),
    "i_plus-3-lists": _with_cut(i_plus=[[0, 0, 1], [1, 1, 1], [2, 2, 1]]),
    "i_minus-boolean": _with_cut(i_minus=[[0, True], [1, 10], [2, 11]]),
    # the last pair of a vertex given twice used to win without a word
    "i_plus-vertex-twice": _with_cut(i_plus=[[0, 0], [1, 1], [2, 2], [2, 4]]),
    # vertex checks: no faces of N or V needed
    "i_minus-not-injective": _with_cut(i_minus=[[0, 9], [1, 9], [2, 11]]),
    "i_minus-misses-a-vertex": _with_cut(i_minus=[[0, 9], [1, 10]]),
    "i_minus-leaves-N": _with_cut(i_minus=[[0, 9], [1, 10], [2, 99]]),
    # 99 is no vertex of V, though 5 is a vertex of N that nothing hits
    "i_plus-vertex-outside-V": _with_cut(
        i_plus=[[0, 0], [1, 1], [2, 2], [99, 5]]),
    "walls-meet": _with_cut(i_minus=[[0, 9], [1, 10], [2, 2]]),
}


@pytest.mark.parametrize("name", sorted(BAD_CUTS))
@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_a_cut_of_the_wrong_shape_exits_2_on_every_command(name, argv,
                                                           tmp_path, capsys):
    code, out, err = run(argv, BAD_CUTS[name], tmp_path, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("key, pairs", [
    ("i_plus", [[0, 0], [1, 1], [2, 2], [2, 4]]),
    # the same pair twice is refused too, as a cocycle edge given twice is
    ("i_minus", [[0, 9], [1, 10], [2, 11], [0, 9]]),
])
def test_a_vertex_given_twice_in_a_cut_map_is_refused_at_load(key, pairs):
    with pytest.raises(MalformedInput,
                       match=f"^cut {key} gives vertex [02] twice$"):
        corpus.space_from_json(_with_cut(**{key: pairs}))
