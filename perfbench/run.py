"""fnlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the root of a checkout; it uses the sources under ``src/``.
Each run makes a fixed number of repetitions (see ``REPS_AT_20_S``),
one at a time, each in a fresh interpreter with its
own seeded inputs; see ``rep.py``.  The checks of every output run after
the timed region; any failure makes the exit code 1.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
taken from a traced copy of each repetition, and the tracing overhead
against an untraced copy on the same inputs.  Lines above it give every
metric by name with its unit, and how it was pooled.  Times are scaled to
a reference host speed (``speed.py``); the raw wall time of a batch is
printed beside ``batch_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

WORKLOADS = ("frontier", "oracle", "transport", "cli")

# Repetitions at --seconds 20, scaled in proportion to --seconds: a count
# that follows from --seconds alone, so every run of a workload pools the
# same number of operations.  A batch takes about 6 s on frontier, 8 s on
# oracle and transport and 5 s on cli on a 2-core x86 host; with checks
# and set-up a run of each then takes 20 s to 35 s.  More repetitions of
# transport and cli steadied their tails but made the runs of all
# workloads too long for a 3420 s budget.
REPS_AT_20_S = {"frontier": 4, "oracle": 2, "transport": 3, "cli": 4}
MIN_REPS = 2
REP_TIMEOUT_S = 150


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class BenchError(Exception):
    """A repetition failed to run; no result is printed."""


def child_env() -> dict:
    """This checkout's sources first on the path, and no budget override."""
    env = dict(os.environ)
    env.pop("FNLAB_NODE_BUDGET", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_rep(workload: str, seed: int, rep: int, trace: bool, in_process: bool) -> dict:
    tag = f"{workload}-s{seed}-r{rep}-{'traced' if trace else 'plain'}{'-inproc' if in_process else ''}"
    workdir = WORK / tag
    workdir.mkdir(parents=True, exist_ok=True)
    report = WORK / f"{tag}.json"
    report.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
        "--rep", str(rep), "--trace", str(int(trace)), "--in-process", str(int(in_process)),
        "--workdir", str(workdir), "--report", str(report),
    ]
    t_spawn = time.monotonic()
    # a session of its own, so a timeout also ends the fnlab commands it runs
    proc = subprocess.Popen(
        [*cmd, "--t-spawn", repr(t_spawn)], env=child_env(), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"repetition {tag} ran over {REP_TIMEOUT_S} s") from None
    finally:
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()
    sys.stderr.write(err)
    if proc.returncode != 0 or not report.exists():
        raise BenchError(f"repetition {tag} exited with code {proc.returncode}")
    return json.loads(report.read_text())


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the
    sample with exactly ten larger ones in sorted order, its percentile and
    the number beyond it (fewer than ten only when there are fewer than
    eleven samples)."""
    s = sorted(samples)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - k - 1


def end_to_end(reports: list[dict]) -> tuple[dict, list[str]]:
    ops = [t for r in reports for t in r["op_s"]]
    attempted = sum(r["attempted"] for r in reports)
    decided = sum(r["decided"] for r in reports)
    failed = sum(len(r["errors"]) for r in reports)
    tail_s, pct, beyond = tail(ops)
    n = len(reports)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        # the mean, so every repetition's inputs count
        "batch_s": statistics.fmean(r["batch_s"] for r in reports),
        # the lower median is always an observed operation, never the
        # average of two operations of different kinds
        "op_p50_s": statistics.median_low(ops),
        "op_tail_s": tail_s,
        "decided_share": decided / attempted,
    }
    points = statistics.median(r["confirmed_points"] for r in reports)
    notes = [
        f"setup_s           {values['setup_s']:.4f} s      median of {n} set-ups "
        f"(checks took {sum(r['check_s'] for r in reports):.1f} s, untimed)",
        f"batch_s           {values['batch_s']:.4f} s      mean of {n} batches "
        f"({statistics.fmean(r['batch_wall_s'] for r in reports):.4f} s wall, host factor "
        f"{min(r['host_factor'] for r in reports):.2f} to {max(r['host_factor'] for r in reports):.2f})",
        f"op_p50_s          {values['op_p50_s']:.4f} s      lower median of {len(ops)} operations",
        f"op_tail_s         {tail_s:.4f} s      p{pct:.1f} of {len(ops)} operations, "
        f"{beyond} beyond",
        f"decided_share     {values['decided_share']:.4f}        "
        f"{decided} of {attempted} operations decided",
        f"confirmed_points  {points:g}            median per batch",
        f"error_share       {failed / attempted:.4f}        {failed} of {attempted} operations failed",
    ]
    return values, notes


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    values = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    values["confirmed_points"] = statistics.median(r["confirmed_points"] for r in traced)
    values["cli.import_s"] = statistics.median(r.get("cli.import_s", 0.0) for r in traced)
    values["trace.overhead_share"] = (
        statistics.fmean(r["batch_s"] for r in traced)
        / statistics.fmean(r["batch_s"] for r in plain) - 1.0
    )
    return {name: values[name] for name in metric_units("per_layer")}


def run_workload(workload: str, seed: int, seconds: int, trace: bool):
    reps = max(MIN_REPS, round(REPS_AT_20_S[workload] * seconds / 20))
    plain, traced = [], []
    for rep in range(reps):
        plain.append(run_rep(workload, seed, rep, False, trace and workload == "cli"))
        if trace:
            traced.append(run_rep(workload, seed, rep, True, True))
    values, notes = end_to_end(plain)
    errors = [e for r in plain + traced for e in r["errors"]]
    attempted = sum(r["attempted"] for r in plain + traced)
    missing = sorted({m for r in traced for m in r["missing_spans"]})
    print(f"workload {workload}: seed {seed}, {reps} repetitions of "
          f"{plain[0]['attempted']} operations{' (cli in-process)' if trace and workload == 'cli' else ''}")
    for line in notes:
        print("  " + line)
    if trace:
        values = per_layer(traced, plain)
        print(f"  traced run: {reps} repetitions on the same inputs; "
              f"tracing overhead {values['trace.overhead_share']:+.1%} of batch_s")
        for name, unit in metric_units("per_layer").items():
            label = f"{name} (computed)" if name == "core.pairs_scanned" else name
            print(f"  {label:26s} {values[name]:.6g} {unit}")
        for name in missing:
            print(f"  span self-check: no {name} span recorded on {workload}")
    for e in errors:
        print(f"  error: {e}")
    units = metric_units("per_layer" if trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return metrics, attempted, len(errors), not errors and not missing


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "fnlab" / "__init__.py").is_file():
        print(f"error: no fnlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for name in names:
            m, a, f, ok = run_workload(name, args.seed, args.seconds, bool(args.trace))
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted, failed, correct = attempted + a, failed + f, correct and ok
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
