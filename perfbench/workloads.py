"""The four benchmark workloads: seeded inputs, timed operations and the
correctness checks run on their outputs after the timed region.

Every call into fnlab goes through a module attribute (``search.frontier``,
``boolalg.coproduct``, ...) so that the traced run, which replaces those
attributes, sees it.  The seed reaches the program only as generated
inputs.
"""

from __future__ import annotations

import contextlib
import io
import random
import subprocess
import sys
from pathlib import Path

import fnlab.boolalg as boolalg
import fnlab.gen as gen
import fnlab.poset as poset
from fnlab import serialize as ser
from fnlab.errors import BudgetExceeded
from fnlab.fnmaps import search, transports
from fnlab.fnmaps.core import verify_pair

# Node budget per feasibility query, passed explicitly so FNLAB_NODE_BUDGET
# cannot change it.
BUDGET = 2 * 10**6
DENSITIES = (0.2, 0.35, 0.5)


def rng_for(workload: str, seed: int, rep: int) -> random.Random:
    """The random stream of one repetition; a string seed hashes the same
    way in every interpreter."""
    return random.Random(f"{workload}/{seed}/{rep}")


class Op:
    """One unit of work on ``data``, its generated input.  ``run()`` returns
    ``(status, output)`` with status ``ok`` (a verdict was reached) or
    ``undecided`` (the node budget ran out).  ``check((status, output))``
    returns an error message or ``None``; ``points((status, output))``
    counts the frontier points it confirmed."""

    def __init__(self, label, data, run, check, points=None):
        self.label, self.data, self.run, self.check = label, data, run, check
        self.points = points or (lambda result: 0)


def _count_points(result):
    return len(result[1])


# ------------------------------------------------------------------ frontier

def _frontier_ops(seed: int, rep: int) -> list[Op]:
    """chain_6/7/8/10 and powerset_3, then one random poset for each of
    n = 6, 7, 8, 10.  The density cycles with the repetition, so three
    repetitions cover every (n, density) pair."""
    rng = rng_for("frontier", seed, rep)
    fixed = [(f"chain_{n}", poset.chain(n)) for n in (6, 7, 8, 10)]
    fixed.append(("powerset_3", boolalg.powerset_algebra(3).as_poset()))
    drawn = []
    for i, n in enumerate((6, 7, 8, 10)):
        d = DENSITIES[(i + rep) % len(DENSITIES)]
        drawn.append((f"random_{n}_{d}", gen.random_poset(n, rng, d)))
    # The fixed posets repeat in every repetition; their (slow) oracle
    # comparison is made once per run.
    return [
        Op(label, P, _walk(P), _frontier_check(P, with_oracle), _count_points)
        for items, with_oracle in ((fixed, rep == 0), (drawn, True))
        for label, P in items
    ]


def _walk(P):
    def run():
        try:
            return "ok", search.frontier(P, BUDGET, workers=1).points
        except BudgetExceeded as e:
            return "undecided", tuple(e.partial or ())
    return run


def _as_sets(masks):
    return [set(poset.bits_of(m)) for m in masks]


def _witness(P, a, b):
    """A search witness for the feasible point ``(a, b)`` as plain sets,
    from its mirror ``(b, a)`` with the maps swapped when the direct search
    runs out of budget."""
    try:
        w = search.search_pair(P, (a, b), BUDGET)
        return None if w is None else (_as_sets(w.f), _as_sets(w.g))
    except BudgetExceeded:
        w = search.search_pair(P, (b, a), BUDGET)
        return None if w is None else (_as_sets(w.g), _as_sets(w.f))


def _frontier_check(P, with_oracle: bool):
    """A sorted, symmetric antichain whose every point has a witness the
    reference verifier accepts; for n <= 6 a decided frontier must also
    equal the oracle's (when ``with_oracle``)."""

    def check(output):
        from fnlab import oracle

        status, points = output
        points = tuple(points)
        if list(points) != sorted(set(points)):
            return f"frontier {points} is not sorted and duplicate-free"
        if set(points) != {(b, a) for a, b in points}:
            return f"frontier {points} is not symmetric"
        for p in points:
            for q in points:
                if p != q and p[0] <= q[0] and p[1] <= q[1]:
                    return f"frontier {points} is not an antichain"
        for a, b in points:
            w = _witness(P, a, b)
            if w is None:
                return f"search finds no pair at confirmed point {(a, b)}"
            f, g = w
            if max(map(len, f)) > a or max(map(len, g)) > b:
                return f"witness for {(a, b)} exceeds its capacities"
            if not oracle.reference_valid_pair(P, f, g):
                return f"witness for {(a, b)} rejected by the reference verifier"
        if with_oracle and status == "ok" and P.n <= 6:
            brute = oracle.brute_frontier(P, max_size=6)
            if points != brute:
                return f"frontier {points} != oracle {brute}"
        return None

    return check


# -------------------------------------------------------------------- oracle

ORACLE_SAMPLE = 800


def _oracle_ops(seed: int, rep: int) -> list[Op]:
    """A sample of labeled 5-element posets drawn without replacement."""
    from fnlab import oracle

    every = list(oracle.enumerate_posets(5))
    rng = rng_for("oracle", seed, rep)
    return [
        Op(f"poset_{i}", every[i], _differential(oracle, every[i]), _agrees, _count_search_points)
        for i in sorted(rng.sample(range(len(every)), ORACLE_SAMPLE))
    ]


def _count_search_points(result):
    return len(result[1][1] or ())


def _differential(oracle, P):
    def run():
        brute = oracle.brute_frontier(P)
        try:
            points = search.frontier(P, BUDGET, workers=1).points
        except BudgetExceeded:
            return "undecided", (brute, None)
        return "ok", (brute, points)
    return run


def _agrees(output):
    _status, (brute, points) = output
    if points is not None and tuple(points) != tuple(brute):
        return f"search frontier {points} != oracle {brute}"
    return None


# ----------------------------------------------------------------- transport

# (atoms of the cofactors, or of the exponential's base) and how many
# seeded input pairs; the cheap transports run on several pairs so that a
# batch has enough operations for its median and tail.
COPRODUCTS = (((3, 3), 3), ((2, 5), 3), ((3, 4), 1))
EXPONENTIALS = ((3, 3),)
REFERENCE_MAX = 128  # outputs this small also pass the naive verifier


def _transport_ops(seed: int, rep: int) -> list[Op]:
    """Coproduct transports with 512, 1024 and 4096 elements and the
    exponential transport of the 3-atom powerset (128 elements), on seeded
    valid input pairs.  The algebras are built inside the timed operation,
    as a CLI run builds them.  The kinds take turns, so the repeats of one
    kind fall before and after the long 4096-element transport rather than
    in one stretch of the host's speed."""
    rng = rng_for("transport", seed, rep)
    kinds = []
    for ks, count in COPRODUCTS:
        ops = []
        for i in range(count):
            pairs = [gen.random_valid_pair(boolalg.powerset_algebra(k).as_poset(), rng) for k in ks]
            ops.append(Op(f"coproduct_{ks[0]}x{ks[1]}_{i}", pairs, _coproduct(ks, pairs),
                          _transport_check))
        kinds.append(ops)
    for k, count in EXPONENTIALS:
        ops = []
        for i in range(count):
            pair = gen.random_valid_pair(boolalg.powerset_algebra(k).as_poset(), rng)
            ops.append(Op(f"exponential_{k}_{i}", [pair], _exponential(k, pair), _transport_check))
        kinds.append(ops)
    turns = max(len(ops) for ops in kinds)
    return [ops[i] for i in range(turns) for ops in kinds if i < len(ops)]


def _coproduct(ks, pairs):
    def run():
        C = boolalg.coproduct([boolalg.powerset_algebra(k) for k in ks])
        return "ok", transports.transport_coproduct(C, pairs)
    return run


def _exponential(k, pair):
    def run():
        E = boolalg.exponential(boolalg.powerset_algebra(k))
        return "ok", transports.transport_exponential(E, pair)
    return run


def _transport_check(output):
    from fnlab import oracle

    out = output[1]
    if not verify_pair(out).valid:
        return "transport output fails verify_pair"
    if out.poset.n <= REFERENCE_MAX and not oracle.reference_valid_pair(
        out.poset, _as_sets(out.f), _as_sets(out.g)
    ):
        return "transport output fails the reference verifier"
    return None


# ----------------------------------------------------------------------- cli

def _cli_ops(seed: int, rep: int, workdir: Path, in_process: bool) -> list[Op]:
    """A scripted session of fnlab commands, one at a time (a closed loop
    with one client).  Each command reads the files its predecessors wrote;
    a subprocess per command pays interpreter start and imports, as a shell
    user does.  The traced run calls ``fnlab.cli.main`` in-process."""
    rng = rng_for("cli", seed, rep)
    s_poset, s_pair = rng.randrange(2**31), rng.randrange(2**31)
    p6 = gen.random_poset(6, rng, DENSITIES[rep % len(DENSITIES)])
    p5 = gen.random_poset(5, rng, DENSITIES[(rep + 1) % len(DENSITIES)])
    q2 = gen.random_valid_pair(boolalg.powerset_algebra(2).as_poset(), rng)
    q5 = gen.random_valid_pair(boolalg.powerset_algebra(5).as_poset(), rng)
    files = {name: workdir / f"{name}.json" for name in
             ("p6", "p5", "q2", "q5", "poset256", "pair256", "c25")}
    for name, obj in (("p6", ser.poset_to_obj(p6)), ("p5", ser.poset_to_obj(p5)),
                      ("q2", ser.pair_to_obj(q2)), ("q5", ser.pair_to_obj(q5))):
        files[name].write_text(ser.dumps(obj))
    f = {k: str(v) for k, v in files.items()}
    session = [
        (["gen", "poset", "--n", "256", "--seed", str(s_poset)], "poset256",
         _expect_gen_poset(s_poset)),
        (["gen", "pair", f["poset256"], "--seed", str(s_pair)], "pair256",
         _expect_gen_pair(s_poset, s_pair)),
        (["verify", f["pair256"], "--interpolants"], None, _expect_verify(s_poset, s_pair)),
        (["search", f["p6"], "--cap", "2,3"], None, _expect_search(p6)),
        (["frontier", f["p6"]], None, _expect_frontier(p6)),
        (["construct", "coproduct", "--atoms-list", "2,5"], "c25", _expect_construct()),
        (["transport", "coproduct", "--algebra", f["c25"], "--pair", f["q2"], "--pair", f["q5"]],
         None, _expect_transport(q2, q5)),
        (["oracle", "frontier", f["p5"]], None, _expect_oracle(p5)),
    ]
    launch = _in_process if in_process else _subprocess
    return [
        Op(argv[0] if argv[1] in f.values() else " ".join(argv[:2]), argv,
           _command(launch, argv, files.get(save)), expect,
           _count_csv_rows if argv[0] == "frontier" else None)
        for argv, save, expect in session
    ]


def _count_csv_rows(result):
    _rc, out = result[1]
    return sum(1 for line in out.splitlines() if line and not line.startswith("#"))


def _command(launch, argv, save_to):
    def run():
        rc, out = launch(argv)
        if save_to is not None:
            save_to.write_text(out)
        return ("undecided" if rc == 3 else "ok"), (rc, out)
    return run


def _subprocess(argv):
    # The environment, set by run.py, points at this checkout's sources.
    proc = subprocess.run(
        [sys.executable, "-m", "fnlab", *argv], capture_output=True, text=True, timeout=120,
    )
    if proc.returncode not in (0, 1, 3):
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def _in_process(argv):
    import fnlab.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fnlab.cli.main(argv)
    return rc, out.getvalue()


def _expect(parse, expected, exit_code=lambda want: 0):
    """Check the documented exit code and that stdout parses back to the
    library result for the same input."""
    def check(result):
        rc, out = result[1]
        want = expected()
        if rc != exit_code(want):
            return f"exit code {rc}, expected {exit_code(want)}"
        got = parse(out)
        if got != want:
            return f"stdout parses to {got!r:.200}, library gives {want!r:.200}"
        return None
    return check


def _poset256(s_poset):
    return gen.random_poset(256, random.Random(s_poset))


def _pair256(s_poset, s_pair):
    return gen.random_valid_pair(_poset256(s_poset), random.Random(s_pair))


def _algebra25():
    return boolalg.coproduct([boolalg.powerset_algebra(2), boolalg.powerset_algebra(5)])


def _expect_gen_poset(s_poset):
    return _expect(lambda out: ser.poset_from_obj(ser.loads(out)), lambda: _poset256(s_poset))


def _expect_gen_pair(s_poset, s_pair):
    return _expect(lambda out: ser.pair_from_obj(ser.loads(out)),
                   lambda: _pair256(s_poset, s_pair))


def _expect_verify(s_poset, s_pair):
    return _expect(lambda out: ser.verdict_from_obj(ser.loads(out)),
                   lambda: verify_pair(_pair256(s_poset, s_pair), with_interpolants=True),
                   lambda verdict: 0 if verdict.valid else 1)


def _expect_search(P):
    return _expect(lambda out: None if out == "null\n" else ser.pair_from_obj(ser.loads(out)),
                   lambda: search.search_pair(P, (2, 3)),
                   lambda found: 1 if found is None else 0)


def _expect_frontier(P):
    return _expect(ser.frontier_from_csv, lambda: search.frontier(P))


def _expect_construct():
    return _expect(lambda out: ser.algebra_to_obj(ser.algebra_from_obj(ser.loads(out))),
                   lambda: ser.algebra_to_obj(_algebra25()))


def _expect_transport(q2, q5):
    return _expect(lambda out: ser.pair_from_obj(ser.loads(out)),
                   lambda: transports.transport_coproduct(_algebra25(), [q2, q5]))


def _expect_oracle(P):
    from fnlab import oracle

    return _expect(lambda out: ser.frontier_from_csv(out).points, lambda: oracle.brute_frontier(P))


# ------------------------------------------------------------------ registry

# Span names the traced run must record on each workload; a trailing dot
# matches any name with that prefix.
REQUIRED_SPANS = {
    "frontier": ("search.feasible", "poset.poset_from_covers", "gen.random_poset", "bench.inputs"),
    "oracle": ("search.feasible", "oracle.brute_frontier", "bench.inputs"),
    "transport": ("boolalg.as_poset", "boolalg.literal_normal_forms", "boolalg.subalgebra_masks",
                  "boolalg.coproduct", "boolalg.exponential", "core.verify_pair",
                  "transports.transport_coproduct", "transports.transport_exponential",
                  "gen.random_valid_pair", "bench.inputs"),
    "cli": ("cli.main", "serialize.load.", "serialize.dump.", "search.feasible",
            "search.search_pair", "core.verify_pair", "boolalg.as_poset", "boolalg.coproduct",
            "transports.transport_coproduct", "oracle.brute_frontier",
            "poset.poset_from_covers", "gen.random_poset", "gen.random_valid_pair",
            "bench.inputs"),
}

def make_ops(workload: str, seed: int, rep: int, workdir: Path, in_process: bool) -> list[Op]:
    if workload == "frontier":
        return _frontier_ops(seed, rep)
    if workload == "oracle":
        return _oracle_ops(seed, rep)
    if workload == "transport":
        return _transport_ops(seed, rep)
    if workload == "cli":
        return _cli_ops(seed, rep, workdir, in_process)
    raise ValueError(f"unknown workload {workload!r}")
