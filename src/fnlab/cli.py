"""Command-line front door.

Data goes to stdout (or ``-o``), diagnostics to stderr.  Exit codes:
0 success, 1 invalid verdict or no pair found, 2 usage or parse error,
3 size cap or node budget exceeded, 4 transport output failed its own
verification (internal-error class).  ``FNLAB_NODE_BUDGET`` overrides the
default search budget; a ``--budget`` flag overrides both.
"""

from __future__ import annotations

import argparse
import os
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
    BudgetExceeded,
    FnLabError,
    ParseError,
    SizeExceeded,
    TransportDefect,
)
from .fnmaps import (
    frontier,
    search_pair,
    transport_coproduct,
    transport_exponential,
    transport_retract,
    transport_subalgebra,
    verify_pair,
)
from .gen import DEFAULT_SEED, random_poset, random_valid_pair
from .oracle import brute_feasible, brute_frontier, enumerate_posets
from .poset import SubsetView
from .fnmaps.search import DEFAULT_NODE_BUDGET

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
    if a < 1 or b < 1:
        raise ParseError("capacities must be at least 1")
    return a, b


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise ParseError("expected comma-separated integers") from None


def _budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("FNLAB_NODE_BUDGET")
    if env:
        return int(env)
    return DEFAULT_NODE_BUDGET


def cmd_verify(args) -> int:
    verdict = verify_pair(_load_pair(args.pair), with_interpolants=args.interpolants)
    _emit(ser.dumps(ser.verdict_to_obj(verdict)), args.output)
    return EXIT_OK if verdict.valid else EXIT_INVALID


def cmd_search(args) -> int:
    P = ser.poset_from_obj(ser.load_file(args.poset))
    found = search_pair(P, _parse_cap(args.cap), _budget(args))
    if found is None:
        _emit("null\n", args.output)
        return EXIT_INVALID
    _emit(ser.dumps(ser.pair_to_obj(found)), args.output)
    return EXIT_OK


def cmd_frontier(args) -> int:
    P = ser.poset_from_obj(ser.load_file(args.poset))
    try:
        fr = frontier(P, _budget(args), workers=args.workers)
    except BudgetExceeded as e:
        rows = "".join(f"{a},{b}\n" for a, b in (e.partial or ()))
        _emit(rows + f"# inconclusive: {e}\n", args.output)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SIZE
    _emit(ser.frontier_to_csv(fr), args.output)
    return EXIT_OK


# the options each construction or transport cannot do without
_NEEDS = {
    ("construct", "powerset"): ("atoms",),
    ("construct", "interval"): ("n",),
    ("construct", "tree"): ("lam", "kap"),
    ("construct", "subalgebra"): ("ambient", "gens"),
    ("construct", "exponential"): ("base",),
    ("transport", "retract"): ("pair", "section", "retraction"),
    ("transport", "subalgebra"): ("pair", "members"),
    ("transport", "coproduct"): ("pair", "algebra"),
    ("transport", "exponential"): ("pair", "algebra"),
}


# the least value each size option accepts, in every command that has it
_SIZE_LEAST = {"n": 0, "atoms": 0, "lam": 0, "kap": 1}


def cmd_construct(args) -> int:
    if args.kind == "coproduct" and not args.cofactor and args.atoms_list is None:
        raise ParseError("construct coproduct needs --cofactor or --atoms-list")
    if args.kind == "powerset":
        A = powerset_algebra(args.atoms)
    elif args.kind == "interval":
        A = interval_algebra(args.n)
    elif args.kind == "tree":
        A = tree_algebra(args.lam, args.kap)
    elif args.kind == "subalgebra":
        ambient = _load_algebra(args.ambient, BooleanAlgebra)
        A = generated_subalgebra(ambient, _parse_ints(args.gens))
    elif args.kind == "coproduct":
        if args.cofactor:
            parts = [_load_algebra(p, BooleanAlgebra) for p in args.cofactor]
        else:
            parts = [powerset_algebra(k) for k in _parse_ints(args.atoms_list)]
        A = coproduct(parts)
    elif args.kind == "exponential":
        A = exponential(_load_algebra(args.base, BooleanAlgebra))
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown construction {args.kind}")
    _emit(ser.dumps(ser.algebra_to_obj(A)), args.output)
    return EXIT_OK


def cmd_transport(args) -> int:
    try:
        if args.kind == "retract":
            pair = _load_pair(args.pair[0])
            i = ser.map_from_obj(ser.load_file(args.section))
            j = ser.map_from_obj(ser.load_file(args.retraction))
            out = transport_retract(pair, i, j)
        elif args.kind == "subalgebra":
            pair = _load_pair(args.pair[0])
            view = SubsetView(pair.poset, frozenset(_parse_ints(args.members)))
            out, _ = transport_subalgebra(pair, view)
        elif args.kind == "coproduct":
            C = _load_algebra(args.algebra, CoproductAlgebra)
            pairs = [_load_pair(p) for p in args.pair]
            out = transport_coproduct(C, pairs)
        else:
            E = _load_algebra(args.algebra, ExponentialAlgebra)
            out = transport_exponential(E, _load_pair(args.pair[0]))
    except TransportDefect as e:
        print(ser.dumps(ser.verdict_to_obj(e.verdict)), file=sys.stderr, end="")
        print("error: transport output failed verification", file=sys.stderr)
        return EXIT_DEFECT
    verdict = verify_pair(out)
    print(ser.dumps(ser.verdict_to_obj(verdict)), file=sys.stderr, end="")
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
    points = brute_frontier(P)
    _emit("".join(f"{a},{b}\n" for a, b in points), args.output)
    return EXIT_OK


def cmd_gen(args) -> int:
    seed = args.sub_seed if args.sub_seed is not None else args.seed
    rng = random.Random(seed)
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
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for gen")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", help="verify a pair file")
    p.add_argument("pair")
    p.add_argument("--interpolants", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("search", help="search for a capacity-bounded pair")
    p.add_argument("poset")
    p.add_argument("--cap", required=True, help="a,b")
    p.add_argument("--budget", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(run=cmd_search)

    p = sub.add_parser("frontier", help="Pareto frontier of feasible capacities")
    p.add_argument("poset")
    p.add_argument("--budget", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(run=cmd_frontier)

    p = sub.add_parser("construct", help="build an algebra file")
    p.add_argument(
        "kind",
        choices=["powerset", "interval", "tree", "subalgebra", "coproduct", "exponential"],
    )
    p.add_argument("--atoms", type=int, help="powerset atom count")
    p.add_argument("--n", type=int, help="interval chain length")
    p.add_argument("--lam", type=int, help="tree branching")
    p.add_argument("--kap", type=int, help="tree depth bound")
    p.add_argument("--ambient", help="algebra file for subalgebra")
    p.add_argument("--gens", help="comma-separated generator masks")
    p.add_argument("--cofactor", action="append", help="algebra file (repeatable)")
    p.add_argument("--atoms-list", help="comma-separated powerset cofactor atom counts")
    p.add_argument("--base", help="algebra file for exponential")
    p.add_argument("-o", "--output")
    p.set_defaults(run=cmd_construct)

    p = sub.add_parser("transport", help="transport pairs along a construction")
    p.add_argument("kind", choices=["retract", "subalgebra", "coproduct", "exponential"])
    p.add_argument("--pair", action="append", help="pair file (repeatable for coproduct)")
    p.add_argument("--section", help="monotone map file i: P -> Q")
    p.add_argument("--retraction", help="monotone map file j: Q -> P")
    p.add_argument("--members", help="comma-separated subset elements")
    p.add_argument("--algebra", help="coproduct/exponential algebra file")
    p.add_argument("-o", "--output")
    p.set_defaults(run=cmd_transport)

    p = sub.add_parser("oracle", help="brute-force references")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    q = osub.add_parser("count", help="count labeled posets")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("-o", "--output")
    q = osub.add_parser("feasible", help="exhaustive feasibility decision")
    q.add_argument("poset")
    q.add_argument("--cap", required=True)
    q.add_argument("-o", "--output")
    q = osub.add_parser("frontier", help="frontier from the brute boundary table")
    q.add_argument("poset")
    q.add_argument("-o", "--output")
    p.set_defaults(run=cmd_oracle)

    p = sub.add_parser("gen", help="seeded random inputs")
    gsub = p.add_subparsers(dest="gen_cmd", required=True)
    q = gsub.add_parser("poset")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--density", type=float, default=0.35)
    q.add_argument("--seed", type=int, dest="sub_seed", default=None)
    q.add_argument("-o", "--output")
    q = gsub.add_parser("pair")
    q.add_argument("poset")
    q.add_argument("--enlarge", type=float, default=0.25)
    q.add_argument("--seed", type=int, dest="sub_seed", default=None)
    q.add_argument("-o", "--output")
    p.set_defaults(run=cmd_gen)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        kind = getattr(args, "kind", None)
        missing = [o for o in _NEEDS.get((args.cmd, kind), ()) if getattr(args, o) is None]
        if missing:
            raise ParseError(f"{args.cmd} {kind} needs --" + " and --".join(missing))
        for name, least in _SIZE_LEAST.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise ParseError(f"--{name} must be at least {least}")
        return args.run(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (SizeExceeded, BudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SIZE
    except FnLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
