import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import novikov
from novikov import corpus, invariants, twisted
from novikov.complexes import build_complex
from novikov.cli import main, parse_scalar
from novikov.corpus import space_to_json, surface
from novikov.numfield import FieldElement
from novikov.polyq import Poly


def run_cli(argv, stdin_text=None, monkeypatch=None):
    out = io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def gen(family, *flags):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["gen", family, *flags]) == 0
    return out.getvalue()


def test_parse_scalar_forms():
    assert parse_scalar("3") == Fraction(3)
    assert parse_scalar("-2/5") == Fraction(-2, 5)
    a = parse_scalar("@-1,-3,2")
    assert isinstance(a, FieldElement)
    assert a.min_poly_int_coeffs() == (-1, -3, 2)
    with pytest.raises(ValueError):
        parse_scalar("not-a-number")


def test_gen_roundtrip_through_stdin(tmp_path, monkeypatch):
    doc = gen("surface", "--genus", "2")
    parsed = json.loads(doc)
    assert parsed["manifold"] is True
    code, out = run_cli(["novikov", "--stdin", "--json"], doc, monkeypatch)
    assert code == 0
    assert json.loads(out)["novikov"] == [0, 2, 0]


def test_info_and_betti(tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(gen("surface", "--genus", "2"))
    code, out = run_cli(["info", str(path)])
    assert code == 0
    assert "f_vector: [15, 51, 34]" in out
    assert "reduced_cells: [1, 4, 1]" in out
    assert "euler_characteristic: -2" in out
    code, raw = run_cli(["info", str(path), "--json"])
    assert code == 0
    assert json.loads(raw)["reduced_cells"] == [1, 4, 1]
    code, out = run_cli(["betti", str(path)])
    assert code == 0
    assert "[1, 4, 1]" in out


def test_twisted_dim_rational_and_field(tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(gen("surface", "--genus", "2"))
    code, out = run_cli(["twisted-dim", str(path), "--a", "3"])
    assert code == 0 and "[0, 2, 0]" in out
    code, out = run_cli(["twisted-dim", str(path), "--a", "1"])
    assert code == 0 and "[1, 4, 1]" in out
    code, out = run_cli(["twisted-dim", str(path), "--a", "@-1,-3,2"])
    assert code == 0 and "[0, 2, 0]" in out


def test_jumps_text_and_json_agree(tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(gen("surface", "--genus", "3"))
    code, text = run_cli(["jumps", str(path)])
    assert code == 0
    code, raw = run_cli(["jumps", str(path), "--json"])
    assert code == 0
    doc = json.loads(raw)
    for entry in doc["jumps"]:
        line = f"q={entry['q']} factor={entry['factor']} dim={entry['dim']}"
        assert line in text


def test_cup_length_and_crit_bound(tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(gen("surface", "--genus", "2"))
    code, raw = run_cli(["cup-length", str(path), "--candidates", "2,1/2",
                         "--manifold", "--json"])
    assert code == 0
    doc = json.loads(raw)
    assert doc["cl_lower_bound"] == 2
    assert doc["crit_bound"] == 1
    assert doc["certificate"]["k"] == 2
    code, raw = run_cli(["crit-bound", str(path), "--json", "--seed", "0"])
    assert code == 0
    assert json.loads(raw)["crit_bound"] == 1


def test_cup_length_candidates_with_an_algebraic_monodromy(tmp_path):
    """Semicolons separate candidates when one is @c0,c1,...; commas still
    separate a list of rationals."""
    doc = json.loads(gen("torus"))
    # torus wedge circle, the class on the circle: every monodromy sees
    # the torus classes, so a product of two classes at one non-unit
    # algebraic monodromy is nonzero
    doc["maximal_simplices"] += [[0, 100], [100, 101], [0, 101]]
    doc["cocycle"] = {"edges": [[100, 101, 1]]}
    doc.pop("cut")
    doc["manifold"] = False
    path = tmp_path / "wedge.json"
    path.write_text(json.dumps(doc))
    code, raw = run_cli(["cup-length", str(path), "--candidates",
                         "@-1,-3,2;2;1/2", "--json"])
    assert code == 0
    cert = json.loads(raw)["certificate"]
    assert cert["k"] == 2
    assert {"minpoly": ["-1", "-3", "2"], "residue": ["0", "1"]} in \
        [f["monodromy"] for f in cert["factors"]]
    surface_path = tmp_path / "surface.json"
    surface_path.write_text(gen("surface", "--genus", "2"))
    runs = [run_cli(["cup-length", str(surface_path), "--candidates", c,
                     "--manifold", "--json"])
            for c in ("1,2,1/2,3,1/3", "1;2;1/2;3;1/3")]
    assert runs[0][0] == 0 and runs[0] == runs[1]
    assert json.loads(runs[0][1])["cl_lower_bound"] == 2


def test_a_lone_algebraic_candidate_is_one_candidate(tmp_path, monkeypatch):
    """A list that holds @c0,c1,... is split on semicolons even when it has
    none, so a lone algebraic candidate is one candidate; lists of
    rationals and lists with semicolons split as before."""
    path = tmp_path / "surface.json"
    path.write_text(gen("surface", "--genus", "2"))
    seen = []
    search = invariants.cup_length

    def spy(twisted, cands, **kw):
        seen.append(cands)
        return search(twisted, cands, **kw)

    monkeypatch.setattr(invariants, "cup_length", spy)
    for text in ("@2,0,0,0,0,1", "2,3", "2;@1,1,1"):
        assert run_cli(["cup-length", str(path), "--candidates", text])[0] == 0
    assert seen == [[parse_scalar("@2,0,0,0,0,1")], [2, 3],
                    [2, parse_scalar("@1,1,1")]]


@pytest.mark.parametrize("candidates",
                         ["2;", "@-1,1,0,0,0,1;", "1;;2", "1,,2"])
def test_an_empty_candidate_is_refused_naming_the_option(candidates,
                                                         tmp_path, capsys):
    """An empty entry in --candidates exits 2 with one error line that
    names the option and the list it was given."""
    path = tmp_path / "torus.json"
    path.write_text(gen("torus"))
    capsys.readouterr()
    argv = ["cup-length", str(path), "--candidates", candidates]
    assert run_cli(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "--candidates" in err and repr(candidates) in err, err


def test_the_minpoly_spelling_is_no_monodromy(tmp_path, capsys):
    """A monodromy is p/q or @c0,c1,...: the spelling @minpoly:c0,c1,...
    exits 2 with one error line."""
    path = tmp_path / "torus.json"
    path.write_text(gen("torus"))
    assert run_cli(["twisted-dim", str(path), "--a=@1,1,1"])[0] == 0
    capsys.readouterr()
    assert run_cli(["twisted-dim", str(path), "--a=@minpoly:1,1,1"]) \
        == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, option, value", [
    (["twisted-dim", "--a=@"], "--a", "@"),
    (["twisted-dim", "--a=@1,x,1"], "--a", "@1,x,1"),
    (["cup-length", "--candidates", "@1,x;2"], "--candidates", "@1,x"),
])
def test_a_malformed_algebraic_monodromy_is_refused_naming_the_option(
        argv, option, value, tmp_path, capsys):
    """@c0,c1,... with a coefficient that is no integer exits 2 with one
    error line that names the option and the value, not int()'s own
    message."""
    path = tmp_path / "torus.json"
    path.write_text(gen("torus"))
    capsys.readouterr()
    assert run_cli([argv[0], str(path), *argv[1:]]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{option} {value!r}" in err and "int()" not in err, err


def test_a_zero_monodromy_is_refused_by_the_twisted_complex(tmp_path,
                                                            capsys):
    """twisted_dims leaves a = 0 to the complex it reads, and the twisted
    complex refuses it with the message it always gave."""
    path = tmp_path / "torus.json"
    path.write_text(gen("torus"))
    capsys.readouterr()
    assert run_cli(["twisted-dim", str(path), "--a=0"]) == (2, "")
    assert capsys.readouterr().err == \
        "error: monodromy value must be nonzero\n"


def test_cup_length_notes_pairs_skipped_across_number_fields(tmp_path):
    """A root of 2t^2 - 3t - 1 and a root of t^2 + 3t - 2 lie in different
    fields, so their products are never formed; the report says so."""
    path = tmp_path / "surface.json"
    path.write_text(gen("surface", "--genus", "2"))
    argv = ["cup-length", str(path), "--candidates", "@-1,-3,2;@-2,3,1"]
    code, raw = run_cli(argv + ["--json"])
    assert code == 0
    doc = json.loads(raw)
    assert doc["cl_lower_bound"] == 0 and doc["certificate"] is None
    note = ("skipped 2 monodromy pair(s) from different number fields: "
            "their products were not formed, so the bound does not cover "
            "them")
    assert doc["notes"] == [note]
    code, text = run_cli(argv)
    assert code == 0 and text.splitlines()[-1] == f"note: {note}"
    code, raw = run_cli(["cup-length", str(path), "--candidates",
                         "@-1,-3,2;2;1/2", "--json"])
    assert code == 0 and "notes" not in json.loads(raw)


def test_crit_bound_deterministic_for_seed(tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(gen("surface", "--genus", "2"))
    runs = [run_cli(["crit-bound", str(path), "--json", "--seed", "5"])[1]
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_thm3_bound_cli(tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(gen("surface", "--genus", "2"))
    code, raw = run_cli(["thm3-bound", str(path), "--approximants", "1;2",
                         "--manifold", "--json"])
    assert code == 0
    assert json.loads(raw)["cl_lower_bound"] == 2


def test_thm3_bound_reduces_the_class_once(tmp_path, monkeypatch):
    """The approximant 1 is the class itself, whose jumps the report
    prints: its one reduction serves both.  On surface(2) both approximants
    give the bound 2, so the first one's report is printed, which is the
    crit-bound report of the class."""
    path = tmp_path / "surface.json"
    path.write_text(gen("surface", "--genus", "2"))
    _code, expected = run_cli(["crit-bound", str(path), "--seed", "3"])
    reductions = []
    real = twisted._unit_pivot_reduction

    def counting(*args, **kwargs):
        reductions.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(twisted, "_unit_pivot_reduction", counting)
    for approximants, count in [("1", 1), ("1;2", 2)]:
        reductions.clear()
        code, out = run_cli(["thm3-bound", str(path), "--approximants",
                             approximants, "--seed", "3"])
        assert code == 0
        assert len(reductions) == count, approximants
        assert out == expected, approximants


def test_gen_families():
    assert json.loads(gen("circle", "--k", "5"))["dimension"] == 1
    assert json.loads(gen("torus"))["manifold"] is True
    assert json.loads(gen("sphere-product", "--n", "2"))["dimension"] == 3


def test_oracle_mv_matches_twisted(tmp_path, monkeypatch):
    doc = gen("torus")
    assert "cut" in json.loads(doc)
    code, direct = run_cli(["twisted-dim", "--stdin", "--a", "2"],
                           doc, monkeypatch)
    assert code == 0
    code, oracle = run_cli(["oracle-mv", "--stdin", "--a", "1/2"],
                           doc, monkeypatch)
    assert code == 0
    lhs = direct.strip().rsplit(": ", 1)[1]
    assert lhs in oracle or oracle.strip().endswith(lhs)


def test_oracle_mv_refuses_a_renumbered_cut(tmp_path, capsys):
    """The rotation torus with N's vertices renumbered by v -> 5v + 3 mod
    12, and i+ and i- with them, is the same space with the same cut, but
    the fiber map read off that i- is the Klein bottle's: oracle-mv exits
    2 with one error line instead of its dims.  On the numbering that
    mapping_torus writes it agrees with twisted-dim."""
    doc = space_to_json(corpus.mapping_torus(corpus.circle(3).complex,
                                             {0: 1, 1: 2, 2: 0}))
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps(doc))
    dims = {}
    for a in ("1", "-1", "2", "@1,1,1"):
        code, direct = run_cli(["twisted-dim", str(path), "--a", a])
        assert code == 0
        dims[a] = direct
        code, oracle = run_cli(["oracle-mv", str(path), "--a", a])
        assert code == 0
        assert oracle.rsplit(": ", 1)[1] == direct.rsplit(": ", 1)[1], a
    cut = doc["cut"]
    cut["N"] = [[(5 * v + 3) % 12 for v in s] for s in cut["N"]]
    for key in ("i_plus", "i_minus"):
        cut[key] = [[v, (5 * w + 3) % 12] for v, w in cut[key]]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    for a in ("1", "-1"):
        assert run_cli(["twisted-dim", str(path), "--a", a]) == (0, dims[a])
        assert run_cli(["oracle-mv", str(path), "--a", a]) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_self_check_passes():
    code, out = run_cli(["self-check"])
    assert code == 0
    assert "fail" not in out.lower() or "0 fail" in out.lower()


def test_exit_codes(tmp_path, monkeypatch):
    code, _ = run_cli(["novikov", str(tmp_path / "missing.json")])
    assert code == 2
    code, _ = run_cli(["betti", "--stdin"], "{bad json", monkeypatch)
    assert code == 2
    path = tmp_path / "surface.json"
    path.write_text(gen("surface", "--genus", "2"))
    code, _ = run_cli(["twisted-dim", str(path), "--a", "0"])
    assert code == 2


TRIANGLE = '{"maximal_simplices": [[0, 1], [1, 2], [0, 2]]}'


def test_jumps_refuses_a_row_beyond_the_exponent_bound(tmp_path,
                                                      monkeypatch):
    """The Smith forms write each Laurent entry t**low * P with P a dense
    polynomial: on the triangle boundary with one edge of period 10**5,
    whose reduced entry spans the exponents -100000..0, jumps exits 2
    without building any P of degree beyond MAX_EXPONENT; at period 10**3,
    and at the bound itself, it splits t**period - 1 into its jump
    factors."""
    path = tmp_path / "triangle.json"
    as_poly = twisted._as_poly

    def bounded_as_poly(p):
        low, poly = as_poly(p)
        if poly.degree > twisted.MAX_EXPONENT:
            pytest.fail(f"a dense polynomial of degree {poly.degree}")
        return low, poly

    monkeypatch.setattr(twisted, "_as_poly", bounded_as_poly)

    def jumps(period):
        path.write_text(TRIANGLE[:-1] + ', "cocycle": {"edges": [[0, 1, '
                        + str(period) + ']]}}')
        return run_cli(["jumps", str(path), "--json"])

    assert jumps(10 ** 5) == (2, "")
    assert twisted.MAX_EXPONENT == 10 ** 4
    for period in (10 ** 3, twisted.MAX_EXPONENT):
        code, out = jumps(period)
        assert code == 0
        report = json.loads(out)
        assert report["novikov"] == [0, 0]
        for q in (0, 1):
            entries = [e for e in report["jumps"] if e["q"] == q]
            assert [e["dim"] for e in entries] == [1, 1, 1]
            product = Poly([1])
            for e in entries:
                product = product * Poly([Fraction(c) for c in e["factor"]])
            assert product == Poly.monomial(period) - Poly([1]), period


def _surface_declaring(dimension):
    """The genus-2 surface, whose simplices span dimension 2, declaring
    another dimension."""
    doc = space_to_json(surface(2))
    doc["dimension"] = dimension
    return json.dumps(doc)


@pytest.mark.parametrize("argv, stdin_text", [
    (["info", "--stdin"], "{}"),
    (["info", "--stdin"], '{"maximal_simplices": 5}'),
    (["info", "--stdin"], "[[0, 1, 2]]"),
    (["twisted-dim", "--stdin", "--a", "1/0"], None),
    (["info", "--stdin"], TRIANGLE[:-1] + ', "manifold": "false"}'),
    (["info", "--stdin"], TRIANGLE[:-1] + ', "manifold": null}'),
    (["info", "--stdin"], TRIANGLE[:-1] + ', "dimension": "x"}'),
    (["info", "--stdin"], TRIANGLE[:-1] + ', "dimension": true}'),
    (["info", "--stdin"], TRIANGLE[:-1] + ', "name": [1]}'),
    (["jumps", "--stdin"],
     TRIANGLE[:-1] + ', "cocycle": {"edges": [[0, 1, 1], [0, 1, 2]]}}'),
    (["jumps", "--stdin"],
     TRIANGLE[:-1] + ', "cocycle": {"edges": [[0, 1, 1], [1, 0, 1]]}}'),
    # 2**63 and more fail before any list of that length is allocated
    (["jumps", "--stdin"], TRIANGLE[:-1]
     + ', "cocycle": {"edges": [[0, 1, 9223372036854775808]]}}'),
    (["crit-bound", "--stdin"], TRIANGLE[:-1]
     + ', "cocycle": {"edges": [[0, 1, -100000000000000000000]]}}'),
    (["info", "--stdin"], _surface_declaring(7)),
    (["info", "--stdin"], _surface_declaring(-3)),
    # a power t**k at a = 2 that would never finish
    (["twisted-dim", "--stdin", "--a", "2"], TRIANGLE[:-1]
     + ', "cocycle": {"edges": [[0, 1, 100000000000000000000]]}}'),
])
def test_malformed_input_exits_2_with_message(argv, stdin_text, monkeypatch,
                                              capsys):
    if stdin_text is None:
        stdin_text = gen("torus")
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["twisted-dim", "--a=--"],
    ["oracle-mv", "--a=--"],
    ["cup-length", "--candidates=--"],
    ["thm3-bound", "--approximants=--"],
    ["crit-bound", "--seed=--"],
])
def test_an_option_value_of_a_double_dash_exits_2(argv, tmp_path, capsys):
    """CPython 3.10-3.12 parse --a=-- into the value [], where 3.13 keeps
    '--': either way the call exits 2 with a message, through argparse or
    through main's handler, and never with a traceback."""
    path = tmp_path / "torus.json"
    path.write_text(gen("torus"))
    capsys.readouterr()
    try:
        code = main([argv[0], str(path), *argv[1:]])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["info"], ["betti"], ["novikov"], ["jumps"], ["twisted-dim", "--a=2"],
    ["oracle-mv", "--a=2"],
], ids=lambda argv: argv[0])
def test_seed_is_refused_where_it_is_never_read(argv, tmp_path, capsys):
    """Only crit-bound, thm3-bound and cup-length read --seed; the other
    analysis commands refuse it as argparse refuses any unknown flag."""
    path = tmp_path / "torus.json"
    path.write_text(gen("torus"))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(path), *argv[1:], "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_crit_bound_computes_the_jump_locus_once(tmp_path, monkeypatch):
    from novikov import invariants, twisted
    path = tmp_path / "torus.json"
    path.write_text(gen("torus"))
    calls = []
    real = invariants.jump_locus

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(invariants, "jump_locus", counting)
    code, raw = run_cli(["crit-bound", str(path), "--json", "--seed", "3"])
    assert code == 0 and len(calls) == 1
    assert json.loads(raw)["novikov"] == [0, 0, 0]
    calls.clear()
    code, _ = run_cli(["cup-length", str(path), "--candidates", "2,1/2",
                       "--manifold", "--json"])
    assert code == 0 and len(calls) == 1


def test_calls_in_one_process_share_no_flags(tmp_path):
    """The parser is built once per process; each call still starts from
    the defaults, as a lone call in a fresh process does.  --manifold only
    records the claim: it changes the manifold field of info and nothing
    else."""
    path = tmp_path / "surface.json"
    path.write_text(gen("surface", "--genus", "2"))
    src = os.path.dirname(os.path.dirname(novikov.__file__))
    lone = subprocess.run(
        [sys.executable, "-m", "novikov.cli", "crit-bound", str(path),
         "--json"], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}).stdout
    code, seeded = run_cli(["crit-bound", str(path), "--json", "--seed", "5"])
    assert code == 0 and seeded != lone
    assert run_cli(["crit-bound", str(path), "--json"]) == (0, lone)

    doc = json.loads(path.read_text())
    doc["manifold"] = False
    path.write_text(json.dumps(doc))
    infos = []
    for flags in (["--manifold"], []):
        code, raw = run_cli(["info", str(path), "--json", *flags])
        assert code == 0
        infos.append(json.loads(raw))
    assert [info.pop("manifold") for info in infos] == [True, False]
    assert infos[0] == infos[1]


def test_parser_is_built_at_most_once(tmp_path, monkeypatch):
    path = tmp_path / "torus.json"
    path.write_text(gen("torus"))
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["info", str(path)], ["novikov", str(path)],
                 ["twisted-dim", str(path), "--a", "2"]):
        assert run_cli(argv)[0] == 0
    assert built.count("novikov") <= 1
    before = len(built)
    assert run_cli(["betti", str(path)])[0] == 0
    assert len(built) == before


def _order3():
    """The seven-vertex torus under v -> 2v mod 7, an order-3 map."""
    F = build_complex([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
                      + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)])
    return corpus.mapping_torus(F, {v: 2 * v % 7 for v in range(7)})


BOUND_SPACES = {
    **{f"surface({g})": lambda g=g: corpus.surface(g) for g in range(2, 7)},
    "S1xS2": lambda: corpus.sphere_product(2),
    "S1xS3": lambda: corpus.sphere_product(3),
    "torus": corpus.torus,
    "torus#torus": lambda: corpus.connected_sum(corpus.torus(),
                                                corpus.torus()),
    "rotation": lambda: corpus.mapping_torus(corpus.circle(3).complex,
                                             {0: 1, 1: 2, 2: 0}),
    "klein": lambda: corpus.mapping_torus(corpus.circle(3).complex,
                                          {0: 0, 1: 2, 2: 1}),
    "order3": _order3,
    "5_2": lambda: corpus.one_relator_complex("xyXYxyxYXyxYXY",
                                              {"x": 1, "y": 1}),
    "BS(1,2)": lambda: corpus.one_relator_complex("taTAA",
                                                  {"a": 0, "t": 1}),
}


@pytest.mark.parametrize("name", list(BOUND_SPACES))
def test_no_bound_without_a_certificate(name, tmp_path):
    """Every cup-length bound of 2 or more is a certified product of at
    least two non-unit classes, and --manifold, which only records a
    claim, changes no bound: 5_2 and BS(1,2) are no manifolds, and a
    claim that they are gives them no bound."""
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space_to_json(BOUND_SPACES[name]())))
    for argv in (["crit-bound", str(path), "--json"],
                 ["cup-length", str(path), "--candidates", "1,2,1/2,3,1/3",
                  "--json"]):
        plain = run_cli(argv)
        assert plain == run_cli([*argv, "--manifold"])
        code, raw = plain
        doc = json.loads(raw)
        assert code == 0
        if doc["cl_lower_bound"] >= 2:
            cert = doc["certificate"]
            assert cert is not None
            assert sum(not f["is_unit"] for f in cert["factors"]) >= 2


@pytest.mark.parametrize("argv, option, value", [
    (["twisted-dim", "--a=@1,-3,2,-3,1"], "--a", "@1,-3,2,-3,1"),
    (["twisted-dim", "--a=@-2,0,-1,0,1"], "--a", "@-2,0,-1,0,1"),
    (["oracle-mv", "--a=@1,-3,2,-3,1"], "--a", "@1,-3,2,-3,1"),
    (["cup-length", "--candidates", "2;@-2,0,-1,0,1"], "--candidates",
     "@-2,0,-1,0,1"),
])
def test_a_modulus_with_a_cyclotomic_factor_is_refused(argv, option, value,
                                                       tmp_path, capsys):
    """(t^2 - 3t + 1)(t^2 + 1) and (t^2 - 2)(t^2 + 1) are reducible, through
    their cyclotomic factor t^2 + 1: each exits 2 with one error line that
    names the option and the value."""
    path = tmp_path / "torus.json"
    path.write_text(gen("torus"))
    capsys.readouterr()
    assert run_cli([argv[0], str(path), *argv[1:]]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{option} {value!r}" in err and "Phi_4" in err, err


@pytest.mark.parametrize("value", ["@1,1,1", "@1,0,1", "@-1,-3,2", "@-1,1"])
def test_a_cyclotomic_or_irreducible_modulus_is_accepted(value, tmp_path):
    """Phi_3, Phi_4 and Phi_1 are their own cyclotomic factor, and
    2t^2 - 3t - 1 has none: twisted-dim answers at each, off the jump
    locus of surface(2) but at t = 1, where H^1 has dimension 4."""
    path = tmp_path / "surface.json"
    path.write_text(gen("surface", "--genus", "2"))
    code, raw = run_cli(["twisted-dim", str(path), "--json", f"--a={value}"])
    assert code == 0
    assert json.loads(raw)["dims"] == ([1, 4, 1] if value == "@-1,1"
                                       else [0, 2, 0])


@pytest.mark.parametrize("argv, message", [
    (["twisted-dim", "--a=1/0"], "zero denominator in '1/0'"),
    (["twisted-dim", "--a=@1,-3,2,-3,1"], "--a '@1,-3,2,-3,1'"),
    (["oracle-mv", "--a=1/0"], "zero denominator in '1/0'"),
    (["cup-length", "--candidates", "2;"], "--candidates '2;'"),
    (["thm3-bound", "--approximants", "1;x"], "--approximants '1;x'"),
])
def test_options_are_read_before_the_input(argv, message, tmp_path, capsys,
                                           monkeypatch):
    """A refused option exits 2 before the space is loaded: the input is
    never read."""
    def no_load(args):
        raise AssertionError("the input was loaded")

    monkeypatch.setattr("novikov.cli._load_space", no_load)
    path = tmp_path / "missing.json"
    assert run_cli([argv[0], str(path), *argv[1:]]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err, err


@pytest.mark.parametrize("approximants, entry",
                         [("1;x", "x"), ("1;;2", ""), ("2,y", "2,y")])
def test_a_malformed_approximant_is_refused_naming_the_entry(
        approximants, entry, tmp_path, capsys):
    """--approximants with an entry that is no comma list of integers exits
    2 with one error line naming the option, the list and the entry, not
    int()'s own message."""
    path = tmp_path / "torus.json"
    path.write_text(gen("torus"))
    capsys.readouterr()
    argv = ["thm3-bound", str(path), "--approximants", approximants]
    assert run_cli(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"--approximants {approximants!r}" in err, err
    assert f"entry {entry!r}" in err and "int()" not in err, err
