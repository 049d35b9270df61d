"""Pipeline benchmark of the novikov program.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {jumps,pointwise,certify} \\
        --seed N --seconds S --trace {0,1} [--smoke]

The program is imported from ``src/`` of the same checkout and driven in
this one process and thread: subcommands through ``novikov.cli.main(argv)``
with stdout captured, the deformation complex through
``novikov.twisted.DeformationComplex``.  A run sets up several times, then
runs whole passes over the workload's queries until at least ``--seconds``
of wall time have been measured, and checks every answer against
``check.py``.  Reported times are reference seconds (``hostclock.py``).  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced pass with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import check
import hostclock
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "_work"
SETUP_REPEATS = 9
MODULES = ("cli", "corpus", "complexes", "twisted", "invariants", "matrix",
           "polyq", "linalg", "kernels", "numfield")


class ProgramMissing(Exception):
    """The checkout holds no importable ``src/novikov``."""


def load_program():
    """Import every ``novikov`` module afresh from ``src/`` of this checkout."""
    src = ROOT / "src"
    if not (src / "novikov" / "__init__.py").is_file():
        raise ProgramMissing(f"no src/novikov package under {ROOT}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules
                 if n == "novikov" or n.startswith("novikov.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"novikov.{m}") for m in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ProgramMissing(f"novikov imported from {origin}, not {src}")
    return mods


def setup_once(workload, space_dir):
    """Imports, space generation and JSON writing: what a user pays
    before the first query.  Returns (modules, space files)."""
    mods = load_program()
    paths = {}
    for i, name in enumerate(workloads.SPACES[workload]):
        space = workloads.build_space(name, mods["corpus"], mods["complexes"])
        path = space_dir / f"space{i}.json"
        with open(path, "w") as fh:
            json.dump(mods["corpus"].space_to_json(space), fh)
        paths[name] = path
    return mods, paths


def execute(query, mods, paths):
    """Run one query; returns (exit code, or None when the program raised,
    and its JSON output or the error)."""
    stdin = sys.stdin
    if query.stdin is not None:
        sys.stdin = io.StringIO(query.stdin)
    try:
        if query.kind == "deformation":
            with open(paths[query.space]) as fh:
                space = mods["corpus"].space_from_json(json.load(fh))
            D = mods["twisted"].DeformationComplex(space.cut)
            dims = [D.dim_at(q, query.a) for q in range(D.top + 1)]
            return 0, json.dumps({"dims": dims})
        argv = [str(paths[query.space]) if arg == "{space}" else arg
                for arg in query.argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = mods["cli"].main(argv)
        return rc, out.getvalue()
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), ""
    except Exception as exc:  # an uncaught error is a failed operation
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = stdin


class Results:
    """Outcome of every operation of a run, and the verdict of the checks."""

    def __init__(self, space_json):
        self.space_json = space_json  # space name -> its JSON document
        self.attempted = 0
        self.failed = []          # (query id, reason)
        self.latencies = []       # seconds, computational queries only
        self.slowest = {}         # query id -> max seconds
        self.errors = []          # wrong answers
        self._checked = set()

    def record(self, query, rc, output, seconds):
        self.attempted += 1
        if query.kind == "boundary":
            if rc != 2:
                self.failed.append((query.qid, f"exit {rc}, expected 2"))
            return
        if rc != 0:
            self.failed.append((query.qid, f"exit {rc}: {output}"[:200]))
            return
        self.latencies.append(seconds)
        self.slowest[query.qid] = max(seconds, self.slowest.get(query.qid, 0))
        if (query.qid, output) in self._checked:
            return
        self._checked.add((query.qid, output))
        try:
            query.check(json.loads(output), self.space_json[query.space],
                        check.REFERENCES[query.space])
        except (check.CheckError, KeyError, TypeError, ValueError) as exc:
            self.errors.append(f"{query.qid}: {type(exc).__name__}: {exc}")


def timed(clock, fn):
    """Run fn; returns (result, wall seconds, reference seconds)."""
    wall0, ref0 = clock.read()
    result = fn()
    wall1, ref1 = clock.read()
    return result, wall1 - wall0, ref1 - ref0


def run_pass(clock, queries, mods, paths, results, tracer=None):
    """One pass over the queries; returns its (wall, reference) seconds.
    Answers are checked after the pass, so checking is not timed."""
    outcomes = []
    for q in queries:
        if tracer is not None:
            tracer.qid = q.qid
        (rc, output), wall, scaled = timed(
            clock, lambda: execute(q, mods, paths))
        outcomes.append((q, rc, output, wall, scaled))
    if tracer is not None:
        tracer.qid = None
    for q, rc, output, _wall, scaled in outcomes:
        results.record(q, rc, output, scaled)
    return (sum(o[3] for o in outcomes), sum(o[4] for o in outcomes))


def run_passes(clock, queries, mods, paths, results, seconds, tracer=None,
               spans=None):
    """Whole passes until at least ``seconds`` of wall time are measured.
    With a tracer, ``spans`` collects each pass's slice of its spans."""
    passes = []
    while not passes or sum(w for w, _s in passes) < seconds:
        lo = len(tracer.spans) if tracer else 0
        passes.append(run_pass(clock, queries, mods, paths, results, tracer))
        if tracer:
            spans.append((lo, len(tracer.spans)))
    return passes


def commit_id():
    """HEAD of the checkout read from .git, without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "novikov").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(mods, args):
    return {
        "novikov.kernels.IMPLEMENTATION": mods["kernels"].IMPLEMENTATION,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it, or
    None below forty samples."""
    n = len(samples)
    if n < 40:
        return None
    p = int(100 * (n - 10) / n)
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def report(what, samples):
    """One line on (wall, reference) timing samples."""
    walls = [w for w, _s in samples]
    scaled = [s for _w, s in samples]
    print(f"# {what}: {len(samples)} samples, wall s median "
          f"{statistics.median(walls):.4f}, reference s median "
          f"{statistics.median(scaled):.4f} (min {min(scaled):.4f}, "
          f"max {max(scaled):.4f})")


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run only the cheapest query of the workload")
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    space_dir = Path(tempfile.mkdtemp(prefix="spaces-", dir=WORK))
    try:
        with hostclock.HostClock() as clock:
            return _measure(args, space_dir, clock)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(space_dir, ignore_errors=True)


def _measure(args, space_dir, clock):
    setups = []
    for _ in range(SETUP_REPEATS):
        (mods, paths), wall, scaled = timed(
            clock, lambda: setup_once(args.workload, space_dir))
        setups.append((wall, scaled))
    space_json = {}
    for name, path in paths.items():
        with open(path) as fh:
            space_json[name] = json.load(fh)
    print("# env " + json.dumps(environment(mods, args)))

    results = Results(space_json)
    for name, data in space_json.items():
        try:
            check.check_space(check.REFERENCES[name], data)
        except check.CheckError as exc:
            results.errors.append(f"input {name}: {exc}")

    queries = workloads.queries(args.workload, args.seed)
    if args.smoke:
        queries = [q for q in queries
                   if q.qid == workloads.SMOKE[args.workload]]
    passes = run_passes(clock, queries, mods, paths, results, args.seconds)
    run_s = statistics.median(s for _w, s in passes)
    report("setup", setups)
    report("pass", passes)

    if args.trace:
        tr = tracing.Tracer()
        tr.install(mods)
        bounds = []
        try:
            traced = run_passes(clock, queries, mods, paths, results,
                                args.seconds, tr, bounds)
        finally:
            tr.uninstall()
        report("traced pass", traced)
        per_pass = [tracing.per_layer_metrics(
            tracing.aggregate(tr.spans, lo, hi)) for lo, hi in bounds]
        traced_s = statistics.median(s for _w, s in traced)
        values = {name: statistics.median(p[name] for p in per_pass)
                  for name in per_pass[0]}
        values.update({"run_s.untraced": run_s, "run_s.traced": traced_s,
                       "trace.overhead_s": traced_s - run_s})
        metrics = {name: metric(values[name], unit)
                   for name, unit, _ in tracing.PER_LAYER}
        print(f"# tracing overhead: {traced_s - run_s:.3f} s on "
              f"{run_s:.3f} s ({100 * (traced_s - run_s) / run_s:.1f}%), "
              f"{len(tr.spans)} spans")
        lo, hi = bounds[0]
        names = ["invariants.jump_locus", "invariants.cup_length"]
        for qid, calls in sorted(tracing.per_query_calls(
                tr.spans[lo:hi], names).items()):
            print(f"# calls per query: {qid}: "
                  + ", ".join(f"{n}={c}" for n, c in calls.items()))
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.tsv"
        tr.write(spans_path)
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    else:
        # with no successful query (all failed) the pass stands in as one
        lat_ms = [s * 1000 for s in results.latencies] or [run_s * 1000]
        metrics = {
            "setup_s": metric(statistics.median(s for _w, s in setups), "s"),
            "run_s": metric(run_s, "s"),
            "query_p50_ms": metric(statistics.median(lat_ms), "ms"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        tail = tail_percentile(lat_ms)
        print(f"# query latency: {len(lat_ms)} samples, p50 "
              f"{statistics.median(lat_ms):.1f} ms" +
              (f", p{tail[0]} {tail[1]:.1f} ms" if tail else
               " (under 40 samples: no tail percentile)"))
        for qid, s in sorted(results.slowest.items(), key=lambda kv: -kv[1])[:5]:
            print(f"# slow query: {qid}: {s:.3f} s")

    for qid, reason in sorted(set(results.failed)):
        print(f"# failed operation: {qid}: {reason}")
    for err in results.errors:
        print(f"# WRONG ANSWER: {err}")
    print(json.dumps({
        "correct": not results.errors,
        "attempted": results.attempted,
        "failed": len(results.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
