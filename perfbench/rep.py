"""One repetition of a workload in a fresh interpreter, so no cache of the
program (the oracle's ``lru_cache``, ``BooleanAlgebra._poset``, the
coproduct caches) carries over from an earlier repetition.

Started by ``run.py``; writes its report as JSON to ``--report``.  Set-up
is timed from ``--t-spawn``, the parent's monotonic clock just before it
started this interpreter, to the first timed call.  Set-up and operation
times are reported at the reference host speed (``speed.py``), with the
raw wall times beside them.  With ``--trace 1`` it
wraps the program's public names in spans first and derives the per-layer
metrics from them; the spans are written next to the report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

import speed
from spans import Recorder, layer_metrics, missing_layers


def _search_outcome(args, out, exc):
    from fnlab.errors import BudgetExceeded

    if exc is not None:
        return "budget" if isinstance(exc, BudgetExceeded) else "error"
    return "infeasible" if out is None or out is False else "found"


def _poset_size(args, out, exc):
    return None if out is None else out.n


def _pairs_scanned(args, out, exc):
    """Comparable pairs of the verified poset, computed from its up rows:
    the number of pairs a full verifier scan visits."""
    return sum(row.bit_count() for row in args[0].poset.up)


def _text_bytes(args, out, exc):
    return len(out) if isinstance(out, str) else None


def install_tracing(rec: Recorder) -> None:
    """Wrap each name where the program looks it up at call time."""
    import types

    import fnlab.cli as cli
    import fnlab.gen as gen
    import fnlab.oracle as oracle
    import fnlab.poset as poset
    import fnlab.serialize as serialize
    from fnlab import boolalg
    from fnlab.fnmaps import search, transports

    # frontier calls feasible through its own module globals
    rec.patch(search, "feasible", "search.feasible", _search_outcome)
    rec.patch(oracle, "brute_frontier", "oracle.brute_frontier")
    rec.patch(boolalg.BooleanAlgebra, "as_poset", "boolalg.as_poset", _poset_size)
    for name in ("powerset_algebra", "coproduct", "exponential"):
        for owner in (boolalg, serialize, cli):
            rec.patch(owner, name, f"boolalg.{name}")
    for name in ("subalgebra_masks", "literal_normal_forms"):
        rec.patch(transports, name, f"boolalg.{name}")
    for name in ("transport_coproduct", "transport_exponential"):
        for owner in (transports, cli):
            rec.patch(owner, name, f"transports.{name}")
    for owner in (transports, cli):
        rec.patch(owner, "verify_pair", "core.verify_pair", _pairs_scanned)
    for owner in (poset, gen, serialize):
        rec.patch(owner, "poset_from_covers", "poset.poset_from_covers")
    for name in ("random_poset", "random_valid_pair"):
        for owner in (gen, cli):
            rec.patch(owner, name, f"gen.{name}")
    rec.patch(cli, "search_pair", "search.search_pair", _search_outcome)
    rec.patch(cli, "frontier", "search.frontier")
    rec.patch(cli, "brute_frontier", "oracle.brute_frontier")
    rec.patch(cli, "main", "cli.main")
    # cli reaches serialize only as ``ser.<name>``: give it a traced view
    view = types.SimpleNamespace()
    for name in dir(serialize):
        fn = getattr(serialize, name)
        if name.startswith("_") or not isinstance(fn, types.FunctionType):
            continue
        if fn.__module__ != serialize.__name__:
            continue
        kind = "dump" if name in ("dumps", "frontier_to_csv") or name.endswith("_to_obj") else "load"
        setattr(view, name, rec.wrap(fn, f"serialize.{kind}.{name}", _text_bytes))
    rec.replace(cli, "ser", view)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--in-process", type=int, choices=(0, 1), default=0,
                    help="run cli commands through fnlab.cli.main (implied by --trace 1)")
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--report", required=True)
    args = ap.parse_args()
    # One CPU for this interpreter and the fnlab commands it starts, so the
    # probes run where the measured work runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    report: dict = {}
    rec = None
    if args.trace:
        if args.workload == "cli":
            t = time.perf_counter()
            import fnlab.cli  # noqa: F401  (first fnlab import of this process)
            report["cli.import_s"] = time.perf_counter() - t
        rec = Recorder()
        install_tracing(rec)

    import workloads

    def span(name):
        return contextlib.nullcontext() if rec is None else rec.span(name)

    with span("bench.inputs"):
        ops = workloads.make_ops(args.workload, args.seed, args.rep, Path(args.workdir),
                                 bool(args.in_process or args.trace))

    results = []
    setup_wall = time.monotonic() - args.t_spawn
    # set-up is mostly an interpreter start and imports: gauge it by one
    setup_probe = speed.INTERPRETER_START
    report["setup_s"] = setup_wall / setup_probe.factor() ** setup_probe.sensitivity
    report["setup_wall_s"] = setup_wall
    # fnlab commands started one per operation are gauged by an interpreter start
    subprocesses = args.workload == "cli" and not (args.in_process or args.trace)
    clock = speed.ScaledClock(speed.INTERPRETER_START if subprocesses else speed.PYTHON)
    clock.start()
    for op in ops:
        t = time.perf_counter()
        try:
            with span("bench.op"):
                results.append(op.run())
        except Exception:
            traceback.print_exc()
            results.append(("error", None))
        clock.add(time.perf_counter() - t)
    clock.finish()
    report["op_s"] = clock.scaled_ops()
    report["batch_s"] = sum(report["op_s"])
    report["batch_wall_s"] = sum(clock.raw)
    report["host_factor"] = clock.factor
    report["probes"] = len(clock.probes)
    report["labels"] = [op.label for op in ops]

    if rec is not None:
        rec.restore()
        report["layers"] = {
            name: clock.scaled(value) if name.endswith("_s") else value
            for name, value in layer_metrics(rec.spans).items()
        }
        if "cli.import_s" in report:
            report["cli.import_s"] = clock.scaled(report["cli.import_s"])
        report["missing_spans"] = missing_layers(rec.spans, workloads.REQUIRED_SPANS[args.workload])
        rec.dump(Path(args.report).with_suffix(".spans.json"))

    t_check = time.perf_counter()
    errors = []
    for op, result in zip(ops, results):
        if result[0] == "error":
            errors.append(f"{op.label}: raised an exception")
            continue
        try:
            err = op.check(result)
        except Exception:
            traceback.print_exc()
            err = "its check raised an exception"
        if err is not None:
            errors.append(f"{op.label}: {err}")
    report["check_s"] = time.perf_counter() - t_check
    report["attempted"] = len(ops)
    report["decided"] = sum(1 for r in results if r[0] == "ok")
    report["errors"] = errors
    report["confirmed_points"] = sum(
        op.points(r) for op, r in zip(ops, results) if r[0] != "error"
    )
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
