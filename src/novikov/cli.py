"""Command-line interface.

Subcommands ingest the JSON complex format (file argument or --stdin),
run the invariant computations, and print text or JSON reports.  Exit
codes: 0 success, 2 input validation failure, 3 internal inconsistency
detected by a cross-check.

``main(argv)`` is the one entry point and may be called any number of
times in one process: the argument parser is built on the first call and
reused, and each call parses its ``argv`` into a fresh namespace, so no
call sees another call's flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import corpus, invariants
from .errors import (InternalInconsistency, MalformedInput,
                     NotAChainComplex, NovikovError, ZeroMonodromy)
from .numfield import NumberField
from .polyq import cyclotomic_factor
from .twisted import TwistedComplex


def parse_scalar(text: str, option: str = "monodromy"):
    """p/q rational or @c0,c1,...: the root class of an integer minimal
    polynomial (exactness: the root is never approximated numerically).
    A modulus with a cyclotomic factor other than itself is reducible and
    refused.  ``option`` names the value in the error a malformed or
    reducible @c0,c1,... gives."""
    text = text.strip()
    if text.startswith("@"):
        try:
            coeffs = [int(c) for c in text[1:].split(",")]
        except ValueError:
            raise MalformedInput(
                f"{option} {text!r}: @c0,c1,... takes integer "
                "coefficients") from None
        field = NumberField(coeffs)
        d = cyclotomic_factor(field.min_poly)
        if d is not None:
            raise MalformedInput(
                f"{option} {text!r}: the modulus is reducible, with the "
                f"cyclotomic factor Phi_{d}")
        return field.generator()
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


def _load_twisted(args):
    """The input space and its TwistedComplex, the one complex that every
    invariant of a command reads."""
    space = _load_space(args)
    return space, TwistedComplex(space.complex, space.cocycle)


def _emit(args, payload: dict, text_lines):
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def cmd_info(args):
    space, twisted = _load_twisted(args)
    X = space.complex
    payload = {
        "name": space.label,
        "f_vector": list(X.f_vector()),
        "reduced_cells": twisted.reduced().sizes,
        "dimension": X.dim,
        "euler_characteristic": X.euler_characteristic(),
        "cocycle_zero": space.cocycle.is_zero(),
        "manifold": space.manifold,
        "has_cut": space.has_cut,
    }
    _emit(args, payload, [f"{k}: {v}" for k, v in payload.items()])
    return 0


def cmd_betti(args):
    _, twisted = _load_twisted(args)
    dims = invariants.twisted_dims(twisted.reduced(), Fraction(1))
    _emit(args, {"betti": dims}, [f"betti: {dims}"])
    return 0


def cmd_novikov(args):
    _, twisted = _load_twisted(args)
    b = invariants.novikov_numbers(twisted.reduced())
    _emit(args, {"novikov": b}, [f"novikov: {b}"])
    return 0


def cmd_jumps(args):
    _, twisted = _load_twisted(args)
    jumps = invariants.jump_locus(twisted.reduced())
    payload = {"novikov": jumps.generic, "jumps": invariants.jumps_json(jumps)}
    lines = [f"generic: {jumps.generic}"]
    for e in payload["jumps"]:
        lines.append(f"q={e['q']} factor={e['factor']} dim={e['dim']}")
    _emit(args, payload, lines)
    return 0


def cmd_twisted_dim(args):
    a = parse_scalar(args.a, "--a")
    _, twisted = _load_twisted(args)
    dims = invariants.twisted_dims(twisted.reduced(), a)
    _emit(args, {"a": args.a, "dims": dims}, [f"dims at {args.a}: {dims}"])
    return 0


def cmd_cup_length(args):
    # an algebraic candidate @c0,c1,... contains commas, so a list holding
    # one, even alone, is separated by semicolons, as --approximants is
    sep = ";" if {";", "@"} & set(args.candidates) else ","
    entries = args.candidates.split(sep)
    if not all(c.strip() for c in entries):
        raise MalformedInput(
            f"--candidates {args.candidates!r} has an empty entry")
    cands = [parse_scalar(c, "--candidates") for c in entries]
    _, twisted = _load_twisted(args)
    jumps = invariants.jump_locus(twisted.reduced())
    rep = invariants.cup_length(twisted, cands, seed=args.seed)
    return _emit_crit(args, jumps, rep)


def cmd_crit_bound(args):
    _, twisted = _load_twisted(args)
    rep = invariants.crit_bound(twisted, seed=args.seed)
    return _emit_crit(args, rep.jumps, rep)


def _emit_crit(args, jumps, rep):
    payload = invariants.report_json(jumps, rep)
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
    approximants = []
    for chunk in args.approximants.split(";"):
        try:
            approximants.append([int(c) for c in chunk.split(",")])
        except ValueError:
            raise MalformedInput(
                f"--approximants {args.approximants!r}: entry {chunk!r} "
                "is not integers separated by commas") from None
    _, twisted = _load_twisted(args)
    rep = invariants.thm3_bound(twisted, [twisted.z], approximants,
                                seed=args.seed)
    # the report's own jumps belong to the best approximant, not the
    # class; the class's complex also serves its own approximant, so the
    # class is reduced once
    return _emit_crit(args, invariants.jump_locus(twisted.reduced()), rep)


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
    a = parse_scalar(args.a, "--a")
    space = _load_space(args)
    if space.cut is None:
        raise NovikovError("oracle-mv needs a generated mapping torus "
                           "(cut presentation missing)")
    h = corpus.mapping_torus_map(space.cut)
    if h is None:
        raise NovikovError("oracle-mv needs the cut that mapping_torus "
                           "builds; this cut's N, i+ or i- differ from it")
    dims = corpus.mv_oracle_dims(space.cut.V, h, a)
    _emit(args, {"a": args.a, "dims": dims}, [f"oracle dims at {args.a}: {dims}"])
    return 0


def cmd_self_check(args):
    from . import selfcheck
    failures = selfcheck.run(verbose=not args.json)
    if args.json:
        json.dump({"failures": failures}, sys.stdout)
        sys.stdout.write("\n")
    return 0 if failures == 0 else 3


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built once per process on
    first use (not at import)."""
    parser = argparse.ArgumentParser(
        prog="novikov",
        description="Twisted cohomology, Novikov numbers, and "
                    "critical-point bounds for integral 1-classes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("input", nargs="?", help="JSON complex file")
        p.add_argument("--stdin", action="store_true",
                       help="read the JSON complex from stdin")
        p.add_argument("--manifold", action="store_true",
                       help="record the claim that the input is a "
                            "closed manifold (info prints it; no "
                            "bound depends on it)")
        p.add_argument("--json", action="store_true", help="JSON report")
        if seed:
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
    common(p, seed=True)
    p.add_argument("--candidates", required=True,
                   help="monodromies separated by commas, or by "
                        "semicolons when one is algebraic (@c0,c1,...)")
    p.set_defaults(func=cmd_cup_length)
    p = sub.add_parser("crit-bound", help="critical point lower bound")
    common(p, seed=True); p.set_defaults(func=cmd_crit_bound)
    p = sub.add_parser("thm3-bound", help="bound over integer approximants")
    common(p, seed=True)
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
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        # CPython 3.10-3.12 read an option value of exactly "--", as in
        # --a=--, as no value at all, [] (3.13 keeps the string); no
        # option here takes a list
        if isinstance(value, list):
            parser.error(f"argument --{name}: expected one argument, "
                         f"not '--'")
    try:
        return args.func(args)
    except (NotAChainComplex, InternalInconsistency) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except (NovikovError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # e.g. a cocycle value too large to index a polynomial's exponents
        print(f"error: a number in the input is too large: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
