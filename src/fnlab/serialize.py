"""JSON and CSV wire formats.

Posets travel as cover (Hasse) edge lists with the closure recomputed on
load; algebra elements travel as integer atom masks (bit ``i`` = atom ``i``,
bit 0 least significant) under an atom-count header.  Serialization is
canonical (sorted keys, two-space indent, trailing newline) so equal values
produce identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

from .boolalg import (
    BooleanAlgebra,
    CoproductAlgebra,
    ExponentialAlgebra,
    coproduct,
    exponential,
    interval_algebra,
    powerset_algebra,
    tree_algebra,
)
from .errors import ParseError
from .fnmaps.core import FnPair, Verdict
from .fnmaps.search import Frontier
from .poset import MonotoneMap, Poset, bits_of, mask_of, poset_from_covers


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON: {e.msg}", e.lineno, e.colno) from e


def load_file(path):
    return loads(Path(path).read_text())


# ---------------------------------------------------------------- posets

def poset_to_obj(P: Poset) -> dict:
    obj = {"n": P.n, "covers": [list(c) for c in P.covers()]}
    if P.labels is not None:
        obj["labels"] = list(P.labels)
    return obj


def poset_from_obj(obj) -> Poset:
    if not isinstance(obj, dict) or "n" not in obj:
        raise ParseError("poset object needs an 'n' field")
    try:
        n = int(obj["n"])
        covers = [(int(lo), int(hi)) for lo, hi in obj.get("covers", [])]
    except (TypeError, ValueError):
        raise ParseError("poset needs an integer 'n' and [lo, hi] integer covers") from None
    if n < 0:
        raise ParseError("poset 'n' must be at least 0")
    labels = obj.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != n):
        raise ParseError("poset 'labels' must name each of the n elements")
    return poset_from_covers(n, covers, labels)


# ----------------------------------------------------------------- pairs

def pair_to_obj(pair: FnPair) -> dict:
    return {
        "poset": poset_to_obj(pair.poset),
        "f": [sorted(bits_of(m)) for m in pair.f],
        "g": [sorted(bits_of(m)) for m in pair.g],
    }


def pair_from_obj(obj, base_dir: Path | None = None) -> FnPair:
    if not isinstance(obj, dict) or not {"poset", "f", "g"} <= set(obj):
        raise ParseError("pair object needs 'poset', 'f' and 'g' fields")
    ref = obj["poset"]
    if isinstance(ref, str):
        path = Path(ref)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        P = poset_from_obj(load_file(path))
    else:
        P = poset_from_obj(ref)
    f = tuple(mask_of(s) for s in obj["f"])
    g = tuple(mask_of(s) for s in obj["g"])
    return FnPair(P, f, g)


# -------------------------------------------------------------- verdicts

def verdict_to_obj(v: Verdict) -> dict:
    obj: dict = {"valid": v.valid}
    if v.violation is not None:
        p, q, clause = v.violation
        obj["violation"] = {"p": p, "q": q, "clause": clause}
    if v.interpolants is not None:
        obj["interpolants"] = [
            {"p": p, "q": q, "r": r, "s": s}
            for (p, q), (r, s) in sorted(v.interpolants.items())
        ]
    return obj


def verdict_from_obj(obj) -> Verdict:
    violation = None
    if obj.get("violation") is not None:
        v = obj["violation"]
        violation = (v["p"], v["q"], v["clause"])
    inter = None
    if obj.get("interpolants") is not None:
        inter = {
            (rec["p"], rec["q"]): (rec["r"], rec["s"]) for rec in obj["interpolants"]
        }
    return Verdict(obj["valid"], violation, inter)


# -------------------------------------------------------------- monotone maps

def map_to_obj(m: MonotoneMap) -> dict:
    return {
        "dom": poset_to_obj(m.dom),
        "cod": poset_to_obj(m.cod),
        "image": list(m.image),
    }


def map_from_obj(obj) -> MonotoneMap:
    if not isinstance(obj, dict) or not {"dom", "cod", "image"} <= set(obj):
        raise ParseError("map object needs 'dom', 'cod' and 'image' fields")
    return MonotoneMap(
        poset_from_obj(obj["dom"]), poset_from_obj(obj["cod"]), tuple(obj["image"])
    )


# -------------------------------------------------------------- frontiers

def frontier_to_csv(fr: Frontier) -> str:
    return "".join(f"{a},{b}\n" for a, b in fr.points)


def frontier_from_csv(text: str) -> Frontier:
    points = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError("frontier rows must be 'a,b'", lineno, 1)
        points.append((int(parts[0]), int(parts[1])))
    return Frontier(tuple(sorted(points)))


# --------------------------------------------------------------- algebras

def algebra_to_obj(A) -> dict:
    if isinstance(A, CoproductAlgebra):
        return {
            "kind": "coproduct",
            "cofactors": [algebra_to_obj(B) for B in A.cofactors],
            "atoms": A.katoms,
            "elements": A.base.size,
        }
    if isinstance(A, ExponentialAlgebra):
        return {
            "kind": "exponential",
            "base": algebra_to_obj(A.base),
            "atoms": len(A.points),
            "elements": A.algebra.size,
            "points": list(A.points),
        }
    if isinstance(A, BooleanAlgebra):
        prov = dict(A.provenance)
        kind = prov.get("kind", "subalgebra")
        obj = {"kind": kind, "atoms": A.k, "elements": A.size}
        if kind == "interval":
            obj["n"] = prov["n"]
        elif kind == "tree":
            obj["lam"] = prov["lam"]
            obj["kap"] = prov["kap"]
        if "generators" in prov:
            obj["generators"] = list(prov["generators"])
        if A.carrier is not None:
            obj["carrier"] = list(A.carrier)
        return obj
    raise TypeError(f"cannot serialize {type(A).__name__}")


def algebra_from_obj(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("algebra object needs a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "powerset":
            return powerset_algebra(int(obj["atoms"]))
        if kind == "interval":
            return interval_algebra(int(obj["n"]))
        if kind == "tree":
            return tree_algebra(int(obj["lam"]), int(obj["kap"]))
        if kind == "subalgebra":
            return BooleanAlgebra(
                int(obj["atoms"]),
                carrier=[int(x) for x in obj["carrier"]],
                provenance={
                    "kind": "subalgebra",
                    "atoms": int(obj["atoms"]),
                    "generators": [int(x) for x in obj.get("generators", [])],
                },
            )
        if kind == "coproduct":
            return coproduct([_plain_algebra_from_obj(c) for c in obj["cofactors"]])
        if kind == "exponential":
            return exponential(_plain_algebra_from_obj(obj["base"]))
    except KeyError as e:
        raise ParseError(f"{kind} algebra needs a {e} field") from None
    except (TypeError, ValueError) as e:
        raise ParseError(f"bad {kind} algebra: {e}") from None
    raise ParseError(f"unknown algebra kind {kind!r}")


def _plain_algebra_from_obj(obj) -> BooleanAlgebra:
    """A coproduct cofactor or an exponential base."""
    A = algebra_from_obj(obj)
    if not isinstance(A, BooleanAlgebra):
        raise ParseError("cofactors and exponential bases must be plain algebras")
    return A
