import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from novikov.cli import main, parse_scalar
from novikov.numfield import FieldElement


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
    assert "euler_characteristic: -2" in out
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


@pytest.mark.parametrize("argv, stdin_text", [
    (["info", "--stdin"], "{}"),
    (["info", "--stdin"], '{"maximal_simplices": 5}'),
    (["info", "--stdin"], "[[0, 1, 2]]"),
    (["twisted-dim", "--stdin", "--a", "1/0"], None),
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


def test_crit_bound_computes_the_jump_locus_once(tmp_path, monkeypatch):
    from novikov import invariants
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
