"""Map pairs with two-sided interpolation and their verification.

An ``(f, g)`` pair on a poset ``P`` is *valid* when for every comparable
``p <= q`` there are witnesses ``r in f(p) ∩ g(q)`` and ``s in g(p) ∩ f(q)``
with ``p <= r, s <= q``.  A single map ``h`` is valid when ``(h, h)`` is;
the two notions are interchangeable via ``collapse``.  Capacities ``(a, b)``
bound ``|f(x)| <= a`` and ``|g(x)| <= b`` inclusively.

The verifier skips every pair its own endpoint witnesses: when ``q`` lies in
``f(p)``, ``g(p)``, ``f(q)`` and ``g(q)``, then ``r = s = q`` satisfies both
clauses at ``(p, q)``.  Skipping those pairs leaves the first violation, and
so every verdict, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from ..errors import IndexOutOfRange, InvalidArgument
from ..poset import Poset, bits_of, check_count, mask_of

SetMap = tuple[int, ...]  # one bitmask per poset element


class CapacityPair(NamedTuple):
    """Inclusive bounds on the image sizes of ``f`` and ``g``.

    Any feasible pair has ``a, b >= 1`` since every valid pair satisfies
    ``x in f(x) ∩ g(x)``.
    """

    a: int
    b: int


def check_capacities(cap) -> CapacityPair:
    """``cap``, any two-item iterable of plain ints of at least 1, as a
    :class:`CapacityPair`."""
    try:
        a, b = cap
    except (TypeError, ValueError):
        raise InvalidArgument(f"capacities {cap!r} are not a pair (a, b)") from None
    check_count(a, "capacity a", 1)
    check_count(b, "capacity b", 1)
    return CapacityPair(a, b)


def _coerce_map(P: Poset, values: Iterable[object], name: str) -> SetMap:
    try:
        values = tuple(values)
    except TypeError:
        values = None
    if values is None or len(values) != P.n:
        raise InvalidArgument(f"{name} must assign a set to each of the {P.n} elements")
    masks = []
    for x, v in enumerate(values):
        if type(v) is int:  # not bool, not a float or a numpy scalar
            m = v
        else:
            try:
                idx = tuple(v)
            except TypeError:
                idx = None
            if idx is None or any(type(i) is not int for i in idx):
                raise InvalidArgument(f"{name}({x}) must be a mask or an iterable of indices")
            # an index outside [0, n) sets bit n, so a huge one allocates nothing
            m = mask_of(i if 0 <= i < P.n else P.n for i in idx)
        if m < 0 or m >> P.n:
            raise IndexOutOfRange(f"{name}({x}) mentions elements outside the poset")
        masks.append(m)
    return tuple(masks)


@dataclass(frozen=True)
class FnPair:
    """A total pair of set-valued maps on a poset, stored as bitmask rows.

    ``f`` and ``g`` give each element a bitmask or an iterable of indices."""

    poset: Poset
    f: SetMap
    g: SetMap

    def __post_init__(self):
        object.__setattr__(self, "f", _coerce_map(self.poset, self.f, "f"))
        object.__setattr__(self, "g", _coerce_map(self.poset, self.g, "g"))

    def f_set(self, x: int) -> frozenset[int]:
        return frozenset(bits_of(self.f[x]))

    def g_set(self, x: int) -> frozenset[int]:
        return frozenset(bits_of(self.g[x]))

    def capacities(self) -> CapacityPair:
        a = max((m.bit_count() for m in self.f), default=0)
        b = max((m.bit_count() for m in self.g), default=0)
        return CapacityPair(a, b)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification run.

    ``violation`` is the lexicographically least failing ``(p, q, clause)``
    with clause 1 meaning ``f(p) ∩ g(q)`` and clause 2 meaning
    ``g(p) ∩ f(q)``.  ``interpolants`` maps each comparable ``(p, q)`` to its
    least-index witnesses ``(r, s)`` when requested on a valid pair.
    """

    valid: bool
    violation: tuple[int, int, int] | None = None
    interpolants: Mapping[tuple[int, int], tuple[int, int]] | None = None


def _scan(P: Poset, f: SetMap, g: SetMap) -> tuple[int, int, int] | None:
    up = P.up
    down = P.down
    # the diagonals: x in df when x in f(x), x in dg when x in g(x)
    df = dg = 0
    for x in range(P.n):
        bit = 1 << x
        df |= f[x] & bit
        dg |= g[x] & bit
    for p in range(P.n):
        fp = f[p]
        gp = g[p]
        # q in f(p) ∩ g(q) is its own clause-1 witness and q in g(p) ∩ f(q)
        # its own clause-2 witness, so such a q needs no scan
        for q in bits_of(up[p] & ~(fp & gp & df & dg)):
            box = up[p] & down[q]
            if not fp & g[q] & box:
                return (p, q, 1)
            if not gp & f[q] & box:
                return (p, q, 2)
    return None


def _interpolants(P: Poset, f: SetMap, g: SetMap) -> dict[tuple[int, int], tuple[int, int]]:
    out = {}
    for p in range(P.n):
        for q in bits_of(P.up[p]):
            box = P.up[p] & P.down[q]
            r = f[p] & g[q] & box
            s = g[p] & f[q] & box
            out[(p, q)] = ((r & -r).bit_length() - 1, (s & -s).bit_length() - 1)
    return out


def verify_pair(pair: FnPair, with_interpolants: bool = False) -> Verdict:
    """Check both interpolation clauses on every comparable pair.

    Returns the least violation in lexicographic ``(p, q)`` index order,
    clause 1 before clause 2.  A pair whose endpoint ``q`` lies in ``f(p)``,
    ``g(p)``, ``f(q)`` and ``g(q)`` is witnessed by ``r = s = q`` and is not
    scanned.  Interpolants, when requested, are still the least-index
    witnesses of every comparable pair.
    """
    hit = _scan(pair.poset, pair.f, pair.g)
    if hit is not None:
        return Verdict(False, hit)
    inter = _interpolants(pair.poset, pair.f, pair.g) if with_interpolants else None
    return Verdict(True, None, inter)


def verify_single(P: Poset, h: Iterable[object]) -> Verdict:
    """Single-map verification: ``r in h(p) ∩ h(q)`` with ``p <= r <= q``.

    With ``f = g`` the two clauses coincide, so a violation is clause 1."""
    h = _coerce_map(P, h, "h")
    return verify_pair(FnPair(P, h, h))


def collapse(pair: FnPair) -> SetMap:
    """Merge a pair into the single map ``h(x) = f(x) ∪ g(x)``.

    A valid pair always collapses to a valid single map, and a valid single
    map ``h`` is exactly a valid pair ``(h, h)``.
    """
    return tuple(fm | gm for fm, gm in zip(pair.f, pair.g))


def trivial_pair(P: Poset) -> FnPair:
    """The universal pair ``f(x) = P``, ``g(x) = {x}``: always valid."""
    full = P.full_mask()
    return FnPair(P, tuple(full for _ in range(P.n)), tuple(1 << x for x in range(P.n)))


def wellorder_map(P: Poset, order: Sequence[int]) -> SetMap:
    """Prefix map of an element ordering: ``h(q) = {p : p before-or-at q}``.

    Always a valid single map, with ``|h(q)| = position(q) + 1``.
    """
    if any(type(x) is not int for x in order) or sorted(order) != list(range(P.n)):
        raise InvalidArgument("order must be a permutation of the elements")
    h = [0] * P.n
    prefix = 0
    for x in order:
        prefix |= 1 << x
        h[x] = prefix
    return tuple(h)


def interpolant_lookup(pair: FnPair, p: int, q: int) -> tuple[int, int]:
    """Deterministic least-index witnesses ``(r, s)`` for a comparable pair."""
    P = pair.poset
    P.check_index(p)
    P.check_index(q)
    if not P.up[p] >> q & 1:
        raise InvalidArgument(f"{p} <= {q} does not hold")
    box = P.up[p] & P.down[q]
    r = pair.f[p] & pair.g[q] & box
    s = pair.g[p] & pair.f[q] & box
    if not r:
        raise InvalidArgument(f"no witness in f({p}) ∩ g({q}) within [{p}, {q}]")
    if not s:
        raise InvalidArgument(f"no witness in g({p}) ∩ f({q}) within [{p}, {q}]")
    return ((r & -r).bit_length() - 1, (s & -s).bit_length() - 1)
