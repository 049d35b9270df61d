"""Command-line interface.

Subcommands ingest the JSON complex format (file argument or --stdin),
run the invariant computations, and print text or JSON reports.  Exit
codes: 0 success, 2 input validation failure, 3 internal inconsistency
detected by a cross-check.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import corpus, invariants
from .errors import (InternalInconsistency, NotAChainComplex, NovikovError,
                     ZeroMonodromy)
from .numfield import NumberField


def parse_scalar(text: str):
    """p/q rational or @c0,c1,...: the root class of an integer minimal
    polynomial (exactness: the root is never approximated numerically)."""
    text = text.strip()
    if text.startswith("@"):
        body = text[1:]
        if body.startswith("minpoly:"):
            body = body[len("minpoly:"):]
        coeffs = [int(c) for c in body.split(",")]
        return NumberField(coeffs).generator()
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ZeroMonodromy(f"zero denominator in {text!r}") from None


def _load_space(args) -> corpus.GeneratedSpace:
    if getattr(args, "stdin", False):
        data = json.load(sys.stdin)
    else:
        if not args.input:
            raise NovikovError("no input: pass a file or --stdin")
        with open(args.input) as fh:
            data = json.load(fh)
    space = corpus.space_from_json(data)
    if getattr(args, "manifold", False):
        space.manifold = True
    return space


def _emit(args, payload: dict, text_lines):
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def cmd_info(args):
    space = _load_space(args)
    X = space.complex
    payload = {
        "name": space.label,
        "f_vector": list(X.f_vector()),
        "dimension": X.dim,
        "euler_characteristic": X.euler_characteristic(),
        "cocycle_zero": space.cocycle.is_zero(),
        "manifold": space.manifold,
        "has_cut": space.cut is not None,
    }
    _emit(args, payload, [f"{k}: {v}" for k, v in payload.items()])
    return 0


def cmd_betti(args):
    space = _load_space(args)
    dims = invariants.twisted_dims(space, Fraction(1))
    _emit(args, {"betti": dims}, [f"betti: {dims}"])
    return 0


def cmd_novikov(args):
    space = _load_space(args)
    b = invariants.novikov_numbers(space)
    _emit(args, {"novikov": b}, [f"novikov: {b}"])
    return 0


def cmd_jumps(args):
    space = _load_space(args)
    jumps = invariants.jump_locus(space)
    payload = {"novikov": jumps.generic, "jumps": invariants.jumps_json(jumps)}
    lines = [f"generic: {jumps.generic}"]
    for e in payload["jumps"]:
        lines.append(f"q={e['q']} factor={e['factor']} dim={e['dim']}")
    _emit(args, payload, lines)
    return 0


def cmd_twisted_dim(args):
    space = _load_space(args)
    a = parse_scalar(args.a)
    dims = invariants.twisted_dims(space, a)
    _emit(args, {"a": args.a, "dims": dims}, [f"dims at {args.a}: {dims}"])
    return 0


def cmd_cup_length(args):
    space = _load_space(args)
    cands = [parse_scalar(c) for c in args.candidates.split(",")]
    jumps = invariants.jump_locus(space)
    rep = invariants.cup_length(space.complex, space.cocycle, cands,
                                manifold=space.manifold, jumps=jumps,
                                seed=args.seed)
    return _emit_crit(args, jumps, rep)


def cmd_crit_bound(args):
    space = _load_space(args)
    rep = invariants.crit_bound(space, seed=args.seed)
    return _emit_crit(args, rep.jumps, rep)


def _emit_crit(args, jumps, rep):
    payload = invariants.report_json(jumps.generic, jumps, rep)
    _emit(args, payload, _crit_lines(payload))
    return 0


def _crit_lines(payload):
    lines = [f"novikov: {payload['novikov']}"]
    for j in payload["jumps"]:
        lines.append(f"jump q={j['q']} factor={j['factor']} dim={j['dim']}")
    lines.append(f"cl_lower_bound: {payload['cl_lower_bound']}")
    lines.append(f"crit_bound: {payload['crit_bound']}")
    lines.append(f"mode: {payload['mode']}")
    if payload.get("notes"):
        for n in payload["notes"]:
            lines.append(f"note: {n}")
    return lines


def cmd_thm3_bound(args):
    space = _load_space(args)
    base = [space.cocycle]
    approximants = [[int(c) for c in chunk.split(",")]
                    for chunk in args.approximants.split(";")]
    rep = invariants.thm3_bound(space.complex, base, approximants,
                                manifold=space.manifold, seed=args.seed)
    # the report's own jumps belong to the best approximant, not the class
    return _emit_crit(args, invariants.jump_locus(space), rep)


def cmd_gen(args):
    if args.family == "circle":
        space = corpus.circle(args.k)
    elif args.family == "surface":
        space = corpus.surface(args.genus)
    elif args.family == "torus":
        space = corpus.torus()
    elif args.family == "sphere-product":
        space = corpus.sphere_product(args.n)
    else:
        raise NovikovError(f"unknown family {args.family}")
    json.dump(corpus.space_to_json(space), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_oracle_mv(args):
    space = _load_space(args)
    if space.cut is None:
        raise NovikovError("oracle-mv needs a generated mapping torus "
                           "(cut presentation missing)")
    a = parse_scalar(args.a)
    F = space.cut.V
    h = {v: _pull_back_level(space.cut, v) for v in F.vertices()}
    dims = corpus.mv_oracle_dims(F, h, a)
    _emit(args, {"a": args.a, "dims": dims}, [f"oracle dims at {args.a}: {dims}"])
    return 0


def _pull_back_level(cut, v):
    """Fiber vertex h(v) from the cut: i- sends v to the top-level copy of
    h(v), and level copies enumerate V's vertices in sorted order."""
    fverts = sorted(cut.V.vertices())
    nv = len(fverts)
    return fverts[cut.i_minus.vertex_map[v] % nv]


def cmd_self_check(args):
    from . import selfcheck
    failures = selfcheck.run(verbose=not args.json)
    if args.json:
        json.dump({"failures": failures}, sys.stdout)
        sys.stdout.write("\n")
    return 0 if failures == 0 else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="novikov",
        description="Twisted cohomology, Novikov numbers, and "
                    "critical-point bounds for integral 1-classes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", nargs="?", help="JSON complex file")
            p.add_argument("--stdin", action="store_true",
                           help="read the JSON complex from stdin")
            p.add_argument("--manifold", action="store_true",
                           help="assert the input is a closed manifold")
        p.add_argument("--json", action="store_true", help="JSON report")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the generic surrogate monodromy")

    p = sub.add_parser("info", help="f-vector and class summary")
    common(p); p.set_defaults(func=cmd_info)
    p = sub.add_parser("betti", help="ordinary rational Betti numbers")
    common(p); p.set_defaults(func=cmd_betti)
    p = sub.add_parser("novikov", help="generic twisted dimensions b_q")
    common(p); p.set_defaults(func=cmd_novikov)
    p = sub.add_parser("jumps", help="jump locus report")
    common(p); p.set_defaults(func=cmd_jumps)
    p = sub.add_parser("twisted-dim", help="dim H^q(X; E_a) for given a")
    common(p)
    p.add_argument("--a", required=True, help="monodromy: p/q or @c0,c1,...")
    p.set_defaults(func=cmd_twisted_dim)
    p = sub.add_parser("cup-length", help="cup-length bound over candidates")
    common(p)
    p.add_argument("--candidates", required=True,
                   help="comma-separated monodromies")
    p.set_defaults(func=cmd_cup_length)
    p = sub.add_parser("crit-bound", help="critical point lower bound")
    common(p); p.set_defaults(func=cmd_crit_bound)
    p = sub.add_parser("thm3-bound", help="bound over integer approximants")
    common(p)
    p.add_argument("--approximants", required=True,
                   help="semicolon-separated integer coefficient vectors")
    p.set_defaults(func=cmd_thm3_bound)
    p = sub.add_parser("gen", help="emit a corpus space as JSON")
    p.add_argument("family",
                   choices=["circle", "surface", "torus", "sphere-product"])
    p.add_argument("--k", type=int, default=3, help="circle vertex count")
    p.add_argument("--genus", type=int, default=2)
    p.add_argument("--n", type=int, default=2, help="sphere factor dimension")
    p.set_defaults(func=cmd_gen, json=True)
    p = sub.add_parser("oracle-mv", help="mapping torus dims from fiber data")
    common(p)
    p.add_argument("--a", required=True)
    p.set_defaults(func=cmd_oracle_mv)
    p = sub.add_parser("self-check", help="run the cross-convention suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_self_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotAChainComplex, InternalInconsistency) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except (NovikovError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
