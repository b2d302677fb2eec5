"""JSON and CSV wire formats.

Posets travel as cover (Hasse) edge lists with the closure recomputed on
load; algebra elements travel as integer atom masks (bit ``i`` = atom ``i``,
bit 0 least significant) under an atom-count header.  Serialization is
canonical (sorted keys, two-space indent, trailing newline) so equal values
produce identical bytes.  The text comes from this module's own writer,
which equals ``json.dumps(obj, sort_keys=True, indent=2)`` byte for byte but
writes whole lists of integers at C speed.  A pair object holds one index
list per distinct image, and the writer renders each such list once per
indent, so equal images cost one lookup after the first; a list of
integer records (verdict interpolants) is written through one template.
Integers may be as wide as a mask of ``ALGEBRA_CAP`` atoms, past the
interpreter's default conversion limit; wider ones are a parse error.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path

from .boolalg import (
    ALGEBRA_CAP,
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
from .poset import MonotoneMap, Poset, mask_of, poset_from_covers


@contextmanager
def _mask_digits():
    """Convert integers as wide as a mask of ``ALGEBRA_CAP`` atoms, and no
    wider (interpreters before the conversion limit take any width)."""
    limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    limit(math.ceil(ALGEBRA_CAP * math.log10(2)))
    try:
        yield
    finally:
        limit(old)


_escape = json.encoder.encode_basestring_ascii


def _write(o, pad: str, out: list, memo: dict) -> None:
    """Append ``o`` as ``json.dumps(o, sort_keys=True, indent=2)`` writes it
    at indent ``pad``; leaves it does not special-case go to ``json.dumps``.
    ``memo`` maps ``(id(list), pad)`` to a list of plain ints written
    earlier in this call and its text; holding the list keeps its id from
    being reused while the call runs."""
    if type(o) is int:
        out.append(str(o))
    elif isinstance(o, str):
        out.append(_escape(o))
    elif isinstance(o, (list, tuple)) and o:
        seen = memo.get((id(o), pad))
        if seen is not None:
            out.append(seen[1])
            return
        inner = pad + "  "
        sep = ",\n" + inner
        if set(map(type, o)) == {int}:
            text = "[\n" + inner + sep.join(map(str, o)) + "\n" + pad + "]"
            memo[id(o), pad] = o, text
            out.append(text)
            return
        out.append("[\n" + inner)
        records = _record_template(o, inner)
        if records is not None:
            template, fields = records
            out.append(sep.join(map(template.__mod__, map(fields, o))))
        else:
            for i, x in enumerate(o):
                if i:
                    out.append(sep)
                _write(x, inner, out, memo)
        out.append("\n" + pad + "]")
    elif isinstance(o, dict) and o:
        inner = pad + "  "
        out.append("{\n" + inner)
        for i, (k, v) in enumerate(sorted(o.items())):
            if i:
                out.append(",\n" + inner)
            out.append(_escape(k if isinstance(k, str) else _key_text(k)) + ": ")
            _write(v, inner, out, memo)
        out.append("\n" + pad + "}")
    else:
        out.append(json.dumps(o))


def _record_template(o: list, pad: str):
    """For a list of dicts with one set of ``str`` keys and plain-int values,
    the ``%`` template of one record at indent ``pad`` and the getter of its
    values in key order; otherwise ``None``."""
    first = o[0]
    if type(first) is not dict or not first or not all(type(k) is str for k in first):
        return None
    keys = first.keys()
    if not all(type(r) is dict and r.keys() == keys for r in o):
        return None
    if set(map(type, chain.from_iterable(map(dict.values, o)))) != {int}:
        return None
    names = sorted(keys)
    inner = pad + "  "
    body = (",\n" + inner).join(_escape(k).replace("%", "%%") + ": %d" for k in names)
    return "{\n" + inner + body + "\n" + pad + "}", itemgetter(*names)


def _key_text(k) -> str:
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def dumps(obj) -> str:
    out: list[str] = []
    with _mask_digits():
        _write(obj, "", out, {})
    out.append("\n")
    return "".join(out)


def loads(text: str):
    try:
        with _mask_digits():
            return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON: {e.msg}", e.lineno, e.colno) from e
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError:  # from the integer conversion
        raise ParseError(f"an integer is wider than a mask of {ALGEBRA_CAP} atoms") from None


def load_file(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from None
    return loads(text)


# ---------------------------------------------------------------- posets

def poset_to_obj(P: Poset) -> dict:
    obj = {"n": P.n, "covers": [list(c) for c in P.covers()]}
    if P.labels is not None:
        obj["labels"] = list(P.labels)
    return obj


def poset_from_obj(obj) -> Poset:
    if not isinstance(obj, dict) or "n" not in obj:
        raise ParseError("poset object needs an 'n' field")
    n, covers = obj["n"], obj.get("covers", [])
    if not _plain_ints([n]) or not isinstance(covers, list) or not all(
        _plain_ints(c) and len(c) == 2 for c in covers
    ):
        raise ParseError("poset needs an integer 'n' and [lo, hi] integer covers")
    labels = obj.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ParseError("poset 'labels' must be a list")
    if not all(type(s) is str for s in labels or ()):
        raise ParseError("poset labels must be strings")
    return poset_from_covers(n, [tuple(c) for c in covers], labels)


# ----------------------------------------------------------------- pairs

_BITS = bytes.maketrans(b"01", b"\0\1")


def _indices(mask: int) -> list[int]:
    """``list(bits_of(mask))`` at C speed: the 1 digits of ``bin(mask)``,
    read from the least significant end."""
    return list(compress(range(mask.bit_length()), bin(mask)[:1:-1].encode().translate(_BITS)))


def pair_to_obj(pair: FnPair) -> dict:
    """The pair as JSON data.  Equal images share one index list, so the
    object is read-only."""
    lists = {m: _indices(m) for m in {*pair.f, *pair.g}}
    return {
        "poset": poset_to_obj(pair.poset),
        "f": list(map(lists.__getitem__, pair.f)),
        "g": list(map(lists.__getitem__, pair.g)),
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
    return FnPair(P, _masks(obj["f"], P.n, "f"), _masks(obj["g"], P.n, "g"))


def _masks(images, n: int, name: str) -> tuple[int, ...]:
    """The image lists of a pair file as masks, each entry checked before
    it is shifted."""
    if not isinstance(images, list) or not all(
        _plain_ints(s) and (not s or 0 <= min(s) and max(s) < n) for s in images
    ):
        raise ParseError(f"pair '{name}' images must be lists of integers in [0, {n})")
    return tuple(map(mask_of, images))


def _plain_ints(values) -> bool:
    """``values`` is a list of ints; JSON ``true`` and ``false`` do not count."""
    return isinstance(values, list) and set(map(type, values)) <= {int}


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
    if not isinstance(obj, dict) or type(obj.get("valid")) is not bool:
        raise ParseError("verdict object needs a boolean 'valid' field")
    violation = None
    if obj.get("violation") is not None:
        violation = _record(obj["violation"], ("p", "q", "clause"))
        if violation[2] not in (1, 2):
            raise ParseError("verdict violation clause must be 1 or 2")
    if (violation is None) != obj["valid"]:
        raise ParseError("a verdict carries a violation exactly when it is invalid")
    inter = None
    if obj.get("interpolants") is not None:
        records = obj["interpolants"]
        if not isinstance(records, list):
            raise ParseError("verdict 'interpolants' must be a list")
        if not obj["valid"]:
            raise ParseError("only a valid verdict carries interpolants")
        inter = {}
        for rec in records:
            p, q, r, s = _record(rec, ("p", "q", "r", "s"))
            if (p, q) in inter:
                raise ParseError(f"verdict repeats the interpolant of ({p}, {q})")
            inter[p, q] = (r, s)
    return Verdict(obj["valid"], violation, inter)


def _record(rec, fields) -> tuple[int, ...]:
    """The ``fields`` of a verdict record, each a plain int."""
    values = [rec.get(f) for f in fields] if isinstance(rec, dict) else None
    if not _plain_ints(values):
        raise ParseError("verdict records need integer fields " + ", ".join(fields))
    return tuple(values)


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
    dom, cod, image = poset_from_obj(obj["dom"]), poset_from_obj(obj["cod"]), obj["image"]
    if not _plain_ints(image):
        raise ParseError("map 'image' must be a list of integers")
    return MonotoneMap(dom, cod, tuple(image))


# -------------------------------------------------------------- frontiers

def frontier_to_csv(fr: Frontier, inconclusive: Exception | None = None) -> str:
    """One ``a,b`` row per point; a walk cut short by ``inconclusive`` ends
    with a ``# inconclusive`` marker line."""
    rows = "".join(f"{a},{b}\n" for a, b in fr.points)
    return rows if inconclusive is None else rows + f"# inconclusive: {inconclusive}\n"


def frontier_from_csv(text: str) -> Frontier:
    points = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError("frontier rows must be 'a,b'", lineno, 1)
        try:
            points.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError("frontier rows must be two integers", lineno, 1) from None
    points.sort()
    if any(a < 1 or b < 1 for a, b in points):
        raise ParseError("frontier capacities must be at least 1")
    if any(a1 >= a2 or b1 <= b2 for (a1, b1), (a2, b2) in zip(points, points[1:])):
        raise ParseError("frontier points must form an antichain without repeats")
    if set(points) != {(b, a) for a, b in points}:
        raise ParseError("frontier points must be symmetric under swapping a and b")
    return Frontier(tuple(points))


# --------------------------------------------------------------- algebras

def _headers(A) -> dict:
    """The fields of an algebra's file that the writer derives from the
    algebra and the reader compares with the one it builds: the ``atoms``
    and ``elements`` the file counts, those of the powerset a coproduct or
    an exponential is built on, an exponential's ``points``, and the
    ``carrier`` and ``generators`` of an interval or a tree algebra (a
    subalgebra's carrier is an input to the reader)."""
    if isinstance(A, CoproductAlgebra):
        return {"atoms": A.katoms, "elements": A.base.size}
    if isinstance(A, ExponentialAlgebra):
        return {"atoms": A.algebra.k, "elements": A.algebra.size, "points": list(A.points)}
    headers = {"atoms": A.k, "elements": A.size}
    if A.provenance.get("kind") in ("interval", "tree") and "generators" in A.provenance:
        headers.update(carrier=list(A.carrier), generators=A.provenance["generators"])
    return headers


def algebra_to_obj(A) -> dict:
    if isinstance(A, CoproductAlgebra):
        obj = {"kind": "coproduct", "cofactors": [algebra_to_obj(B) for B in A.cofactors]}
    elif isinstance(A, ExponentialAlgebra):
        obj = {"kind": "exponential", "base": algebra_to_obj(A.base)}
    elif isinstance(A, BooleanAlgebra):
        obj = dict(A.provenance)
        if "generators" in obj:
            obj["carrier"] = list(A.carrier)
    else:
        raise TypeError(f"cannot serialize {type(A).__name__}")
    return {**obj, **_headers(A)}


def algebra_from_obj(obj):
    """The algebra ``obj`` describes.  Every field of :func:`_headers` it
    holds must match the algebra built."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("algebra object needs a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "powerset":
            A = powerset_algebra(_int(obj, "atoms"))
        elif kind == "interval":
            A = interval_algebra(_int(obj, "n"))
        elif kind == "tree":
            A = tree_algebra(_int(obj, "lam"), _int(obj, "kap"))
        elif kind == "subalgebra":
            atoms, carrier, gens = _int(obj, "atoms"), obj["carrier"], obj.get("generators", [])
            if not isinstance(carrier, list) or not isinstance(gens, list):
                raise TypeError("'carrier' and 'generators' must be lists")
            A = BooleanAlgebra(
                atoms, carrier, provenance={"kind": "subalgebra", "generators": gens}
            )
            for g in gens:
                A.element_index(g)  # membership check
        elif kind == "coproduct":
            A = coproduct([algebra_from_obj(c) for c in obj["cofactors"]])
        elif kind == "exponential":
            A = exponential(algebra_from_obj(obj["base"]))
        else:
            raise ParseError(f"unknown algebra kind {kind!r}")
        for field, value in _headers(A).items():
            got = obj.get(field, value)
            # compared by value and type, so true is not 1 and 4.0 is not 4
            if got != value or not _plain_ints(got if type(value) is list else [got]):
                if field in ("carrier", "generators"):  # too wide to print
                    raise ParseError(f"bad {kind} algebra: '{field}' does not match")
                with _mask_digits():
                    raise ParseError(f"bad {kind} algebra: '{field}' is {got!r}, not {value!r}")
        return A
    except KeyError as e:
        raise ParseError(f"{kind} algebra needs a {e} field") from None
    except (TypeError, ValueError) as e:
        raise ParseError(f"bad {kind} algebra: {e}") from None
    except RecursionError:  # bases and cofactors nested past the interpreter's stack
        raise ParseError("JSON nested too deeply") from None


def _int(obj: dict, field: str) -> int:
    """``obj[field]``, which must be a plain int."""
    if not _plain_ints([obj[field]]):
        raise TypeError(f"'{field}' must be an integer")
    return obj[field]
