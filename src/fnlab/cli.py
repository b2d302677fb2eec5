"""Command-line front door.

Data goes to stdout (or ``-o``), diagnostics to stderr.  Exit codes:
0 success, 1 invalid verdict or no pair found, 2 usage or parse error,
3 size cap or node budget exceeded, 4 transport output failed its own
verification (internal-error class).  The library checks its own
arguments; ``main`` maps its errors to exit codes in one place.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import serialize as ser
from .boolalg import (
    BooleanAlgebra,
    CoproductAlgebra,
    ExponentialAlgebra,
    coproduct,
    exponential,
    generated_subalgebra,
    interval_algebra,
    powerset_algebra,
    tree_algebra,
)
from .errors import (
    FnLabError,
    ParseError,
    SizeExceeded,
    TransportDefect,
)
from .fnmaps import (
    Verdict,
    frontier,
    search_pair,
    transport_coproduct,
    transport_exponential,
    transport_retract,
    transport_subalgebra,
    verify_pair,
)
from .fnmaps.search import DEFAULT_NODE_BUDGET, Frontier
from .gen import DEFAULT_SEED, random_poset, random_valid_pair
from .oracle import brute_feasible, brute_frontier, enumerate_posets
from .poset import SubsetView

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_SIZE = 3
EXIT_DEFECT = 4


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_pair(path: str):
    return ser.pair_from_obj(ser.load_file(path), Path(path).parent)


def _load_algebra(path: str, cls: type):
    """The algebra in ``path``, which must be a ``cls``."""
    A = ser.algebra_from_obj(ser.load_file(path))
    if not isinstance(A, cls):
        raise ParseError(f"{path} holds a {type(A).__name__}, need a {cls.__name__}")
    return A


def _parse_cap(text: str) -> tuple[int, int]:
    try:
        a, b = (int(t) for t in text.split(","))
    except ValueError:
        raise ParseError("capacity must be 'a,b'") from None
    return a, b


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise ParseError("expected comma-separated integers") from None


def _coproduct_parts(args) -> list:
    if args.cofactor:
        return [_load_algebra(p, BooleanAlgebra) for p in args.cofactor]
    if args.atoms_list is not None:
        return [powerset_algebra(k) for k in _parse_ints(args.atoms_list)]
    raise ParseError("construct coproduct needs --cofactor or --atoms-list")


def _one_pair(args):
    """The pair of a transport that takes one."""
    if len(args.pair) > 1:
        raise ParseError(f"transport {args.kind} takes one --pair")
    return _load_pair(args.pair[0])


def _subalgebra_transport(args):
    pair = _one_pair(args)
    view = SubsetView(pair.poset, frozenset(_parse_ints(args.members)))
    return transport_subalgebra(pair, view)[0]


# For each construction and transport: the options it cannot do without, and
# what it runs.  The library is reached through this module's globals at
# call time, where a tracer may have wrapped it.
_CONSTRUCT = {
    "powerset": (("atoms",), lambda a: powerset_algebra(a.atoms)),
    "interval": (("n",), lambda a: interval_algebra(a.n)),
    "tree": (("lam", "kap"), lambda a: tree_algebra(a.lam, a.kap)),
    "subalgebra": (
        ("ambient", "gens"),
        lambda a: generated_subalgebra(
            _load_algebra(a.ambient, BooleanAlgebra), _parse_ints(a.gens)
        ),
    ),
    "coproduct": ((), lambda a: coproduct(_coproduct_parts(a))),
    "exponential": (("base",), lambda a: exponential(_load_algebra(a.base, BooleanAlgebra))),
}
_TRANSPORT = {
    "retract": (
        ("pair", "section", "retraction"),
        lambda a: transport_retract(
            _one_pair(a),
            ser.map_from_obj(ser.load_file(a.section)),
            ser.map_from_obj(ser.load_file(a.retraction)),
        ),
    ),
    "subalgebra": (("pair", "members"), _subalgebra_transport),
    "coproduct": (
        ("pair", "algebra"),
        lambda a: transport_coproduct(
            _load_algebra(a.algebra, CoproductAlgebra), [_load_pair(p) for p in a.pair]
        ),
    ),
    "exponential": (
        ("pair", "algebra"),
        lambda a: transport_exponential(
            _load_algebra(a.algebra, ExponentialAlgebra), _one_pair(a)
        ),
    ),
}


def _run_kind(args, table):
    """Run ``table[args.kind]`` once its options are all given."""
    needs, run = table[args.kind]
    missing = [o for o in needs if getattr(args, o) is None]
    if missing:
        raise ParseError(f"{args.cmd} {args.kind} needs --" + " and --".join(missing))
    return run(args)


def cmd_verify(args) -> int:
    verdict = verify_pair(_load_pair(args.pair), with_interpolants=args.interpolants)
    _emit(ser.dumps(ser.verdict_to_obj(verdict)), args.output)
    return EXIT_OK if verdict.valid else EXIT_INVALID


def cmd_search(args) -> int:
    P = ser.poset_from_obj(ser.load_file(args.poset))
    found = search_pair(P, _parse_cap(args.cap), args.budget)
    if found is None:
        _emit("null\n", args.output)
        return EXIT_INVALID
    _emit(ser.dumps(ser.pair_to_obj(found)), args.output)
    return EXIT_OK


def cmd_frontier(args) -> int:
    P = ser.poset_from_obj(ser.load_file(args.poset))
    try:
        fr = frontier(P, args.budget)
    except SizeExceeded as e:  # a budget or cap cut: the confirmed rows still go out
        _emit(ser.frontier_to_csv(Frontier(e.partial), e), args.output)
        raise
    _emit(ser.frontier_to_csv(fr), args.output)
    return EXIT_OK


def cmd_construct(args) -> int:
    _emit(ser.dumps(ser.algebra_to_obj(_run_kind(args, _CONSTRUCT))), args.output)
    return EXIT_OK


def cmd_transport(args) -> int:
    try:
        out = _run_kind(args, _TRANSPORT)
    except TransportDefect as e:
        print(ser.dumps(ser.verdict_to_obj(e.verdict)), file=sys.stderr, end="")
        print("error: transport output failed verification", file=sys.stderr)
        return EXIT_DEFECT
    # every transport verifies its output before returning it
    print(ser.dumps(ser.verdict_to_obj(Verdict(True))), file=sys.stderr, end="")
    _emit(ser.dumps(ser.pair_to_obj(out)), args.output)
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.oracle_cmd == "count":
        n = 0
        for _ in enumerate_posets(args.n):
            n += 1
        _emit(f"{n}\n", args.output)
        return EXIT_OK
    P = ser.poset_from_obj(ser.load_file(args.poset))
    if args.oracle_cmd == "feasible":
        ok = brute_feasible(P, _parse_cap(args.cap))
        _emit(("true" if ok else "false") + "\n", args.output)
        return EXIT_OK if ok else EXIT_INVALID
    _emit(ser.frontier_to_csv(Frontier(brute_frontier(P))), args.output)
    return EXIT_OK


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    if args.gen_cmd == "poset":
        P = random_poset(args.n, rng, args.density)
        _emit(ser.dumps(ser.poset_to_obj(P)), args.output)
    else:
        P = ser.poset_from_obj(ser.load_file(args.poset))
        pair = random_valid_pair(P, rng, args.enlarge)
        _emit(ser.dumps(ser.pair_to_obj(pair)), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fnlab",
        description="finite laboratory for two-sided interpolation pairs",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--output")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", parents=[out], help="verify a pair file")
    p.add_argument("pair")
    p.add_argument("--interpolants", action="store_true")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("search", parents=[out], help="search for a capacity-bounded pair")
    p.add_argument("poset")
    p.add_argument("--cap", required=True, help="a,b")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(run=cmd_search)

    p = sub.add_parser("frontier", parents=[out], help="Pareto frontier of feasible capacities")
    p.add_argument("poset")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(run=cmd_frontier)

    p = sub.add_parser("construct", parents=[out], help="build an algebra file")
    p.add_argument("kind", choices=list(_CONSTRUCT))
    p.add_argument("--atoms", type=int, help="powerset atom count")
    p.add_argument("--n", type=int, help="interval chain length")
    p.add_argument("--lam", type=int, help="tree branching")
    p.add_argument("--kap", type=int, help="tree depth bound")
    p.add_argument("--ambient", help="algebra file for subalgebra")
    p.add_argument("--gens", help="comma-separated generator masks")
    p.add_argument("--cofactor", action="append", help="algebra file (repeatable)")
    p.add_argument("--atoms-list", help="comma-separated powerset cofactor atom counts")
    p.add_argument("--base", help="algebra file for exponential")
    p.set_defaults(run=cmd_construct)

    p = sub.add_parser("transport", parents=[out], help="transport pairs along a construction")
    p.add_argument("kind", choices=list(_TRANSPORT))
    p.add_argument("--pair", action="append", help="pair file (repeatable for coproduct)")
    p.add_argument("--section", help="monotone map file i: P -> Q")
    p.add_argument("--retraction", help="monotone map file j: Q -> P")
    p.add_argument("--members", help="comma-separated subset elements")
    p.add_argument("--algebra", help="coproduct/exponential algebra file")
    p.set_defaults(run=cmd_transport)

    p = sub.add_parser("oracle", help="brute-force references")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    q = osub.add_parser("count", parents=[out], help="count labeled posets")
    q.add_argument("--n", type=int, required=True)
    q = osub.add_parser("feasible", parents=[out], help="exhaustive feasibility decision")
    q.add_argument("poset")
    q.add_argument("--cap", required=True)
    q = osub.add_parser("frontier", parents=[out], help="frontier from the brute boundary table")
    q.add_argument("poset")
    p.set_defaults(run=cmd_oracle)

    p = sub.add_parser("gen", help="seeded random inputs")
    gsub = p.add_subparsers(dest="gen_cmd", required=True)
    q = gsub.add_parser("poset", parents=[out])
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--density", type=float, default=0.35)
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    q = gsub.add_parser("pair", parents=[out])
    q.add_argument("poset")
    q.add_argument("--enlarge", type=float, default=0.25)
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(run=cmd_gen)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except SizeExceeded as e:  # BudgetExceeded too
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SIZE
    except (FnLabError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
