"""Tests of the benchmark's own checker, tracer and smoke mode.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def surface2_jumps():
    return {"novikov": [0, 2, 0],
            "jumps": [{"q": q, "factor": ["-1", "1"], "dim": d}
                      for q, d in ((0, 1), (1, 4), (2, 1))]}


def test_dims_accepted_when_right():
    check.check_dims(check.REFERENCES["surface(2)"], Fraction(3), [0, 2, 0])
    check.check_dims(check.REFERENCES["surface(2)"], Fraction(1), [1, 4, 1])
    omega = check.Root([1, 1, 1])
    check.check_dims(check.REFERENCES["order3"], omega, [0, 1, 1, 0])
    check.check_dims(check.REFERENCES["order3"], Fraction(1), [1, 1, 1, 1])
    check.check_dims(check.REFERENCES["klein"], Fraction(-1), [0, 1, 1])
    check.check_dims(check.REFERENCES["S1xS3"], Fraction(1), [1, 1, 0, 1, 1])


@pytest.mark.parametrize("name,a,dims", [
    ("surface(2)", Fraction(3), [0, 2, 0]),
    ("order3", check.Root([1, 1, 1]), [0, 1, 1, 0]),
    ("klein", Fraction(-1), [0, 1, 1]),
])
def test_dims_perturbed_by_one_rejected(name, a, dims):
    ref = check.REFERENCES[name]
    for i in range(len(dims)):
        for delta in (1, -1):
            bad = list(dims)
            bad[i] += delta
            with pytest.raises(check.CheckError):
                check.check_dims(ref, a, bad)
    # two changes that keep the Euler characteristic are still caught
    bad = list(dims)
    bad[0] += 1
    bad[1] += 1
    with pytest.raises(check.CheckError):
        check.check_dims(ref, a, bad)


def test_fiber_formula_against_hand_values():
    klein = check.REFERENCES["klein"]
    assert klein.dims(Fraction(1)) == [1, 1, 0]
    assert klein.dims(Fraction(2)) == [0, 0, 0]
    order3 = check.REFERENCES["order3"]
    assert order3.dims(check.Root([1, 1, 1])) == [0, 1, 1, 0]
    assert order3.dims(check.Root([-1, -3, 2])) == [0, 0, 0, 0]
    assert check.REFERENCES["S1xS2"].dims(Fraction(1)) == [1, 1, 1, 1]


def test_jumps_accepted_when_right():
    check.check_jumps(check.REFERENCES["surface(2)"], surface2_jumps())
    order3 = {"novikov": [0, 0, 0, 0], "jumps": [
        {"q": q, "factor": ["-1", "1"], "dim": 1} for q in range(4)] + [
        {"q": q, "factor": ["1", "1", "1"], "dim": 1} for q in (1, 2)]}
    check.check_jumps(check.REFERENCES["order3"], order3)


def test_wrong_jump_factor_rejected():
    payload = surface2_jumps()
    payload["jumps"][1]["factor"] = ["1", "1"]
    with pytest.raises(check.CheckError):
        check.check_jumps(check.REFERENCES["surface(2)"], payload)
    payload = surface2_jumps()
    payload["jumps"].append({"q": 1, "factor": ["1", "1", "1"], "dim": 4})
    with pytest.raises(check.CheckError):
        check.check_jumps(check.REFERENCES["surface(2)"], payload)
    payload = surface2_jumps()
    payload["novikov"] = [0, 3, 0]
    with pytest.raises(check.CheckError):
        check.check_jumps(check.REFERENCES["surface(2)"], payload)


@pytest.fixture(scope="module")
def surface2_certificate():
    """A cup-length report on surface(2) from the program itself."""
    work = bench.WORK
    work.mkdir(exist_ok=True)
    space_dir = work / "test-spaces"
    space_dir.mkdir(exist_ok=True)
    try:
        mods, paths = bench.setup_once("certify", space_dir)
        query = workloads.Query(
            "cup-length surface(2)", "cli", "surface(2)",
            argv=["cup-length", "{space}", "--candidates", "2,1/2",
                  "--manifold", "--json"])
        rc, out = bench.execute(query, mods, paths)
        assert rc == 0
        with open(paths["surface(2)"]) as fh:
            space = json.load(fh)
    finally:
        shutil.rmtree(space_dir, ignore_errors=True)
    return space, json.loads(out)


def test_certificate_accepted(surface2_certificate):
    space, payload = surface2_certificate
    check.check_crit(check.REFERENCES["surface(2)"], space, payload)


def test_certificate_with_coboundary_product_rejected(surface2_certificate):
    space, payload = surface2_certificate
    X = check.Complex(space)
    last = payload["certificate"]["factors"][-1]
    a = Fraction(last["monodromy"])
    # delta_a of a random 0-cochain: a cocycle, so every factor still
    # passes, but the product becomes a coboundary by the Leibniz rule
    rng = random.Random(0)
    u = [Fraction(rng.randint(-3, 3)) for _ in X.simplices[0]]
    du = [sum(c * x for c, x in zip(row, u)) for row in X.coboundary(0, a)]
    assert any(du) and X.is_cocycle(du, 1, a)
    tampered = json.loads(json.dumps(payload))
    tampered["certificate"]["factors"][-1]["representative"] = [
        str(c) for c in du]
    with pytest.raises(check.CheckError, match="coboundary"):
        check.check_crit(check.REFERENCES["surface(2)"], space, tampered)
    with pytest.raises(check.CheckError, match="coboundary"):
        v = [Fraction(rng.randint(-3, 3)) for _ in X.simplices[1]]
        dv = [sum(c * x for c, x in zip(row, v)) for row in X.coboundary(1, 1)]
        check.check_product(X, dv, 2, Fraction(1))


def test_certificate_with_unit_factor_rejected(surface2_certificate):
    space, payload = surface2_certificate
    tampered = json.loads(json.dumps(payload))
    for f in tampered["certificate"]["factors"]:
        f["monodromy"], f["is_unit"] = "1", True
    with pytest.raises(check.CheckError):
        check.check_crit(check.REFERENCES["surface(2)"], space, tampered)


def test_positive_bound_on_fibred_space_rejected():
    payload = {"novikov": [0, 0, 0],
               "jumps": [{"q": q, "factor": ["-1", "1"], "dim": d}
                         for q, d in ((0, 1), (1, 2), (2, 1))],
               "cl_lower_bound": 2, "crit_bound": 1, "certificate": None}
    with pytest.raises(check.CheckError, match="fibred"):
        check.check_crit(check.REFERENCES["torus"], {}, payload)


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracer.PER_LAYER


def test_aggregate_self_and_total_time():
    spans = [["f", 0.0, 10.0, -1, "q", None],
             ["g", 1.0, 4.0, 0, "q", {"cells": 6}],
             ["f", 5.0, 7.0, 0, "q", None]]
    stats = tracer.aggregate(spans)
    assert stats["f"]["calls"] == 2
    assert stats["f"]["s"] == 10.0          # the nested f is not re-counted
    assert stats["f"]["self_s"] == (10.0 - 3.0 - 2.0) + 2.0
    assert stats["g"]["cells"] == 6


def _bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1
    assert set(result["metrics"]) == {"setup_s", "run_s", "query_p50_ms",
                                      "peak_rss_mb"}


def test_smoke_traced():
    proc = _bench("--workload", "certify", "--seed", "3", "--seconds", "0",
                  "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [m for m, _u, _b in tracer.PER_LAYER]
    assert result["metrics"]["invariants.cup_length.calls"]["value"] >= 1
    assert result["metrics"]["invariants.jump_locus.calls"]["value"] >= 1


def test_fails_without_program():
    bare = bench.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = _bench("--workload", "jumps", "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
