"""Map pairs with two-sided interpolation and their verification.

An ``(f, g)`` pair on a poset ``P`` is *valid* when for every comparable
``p <= q`` there are witnesses ``r in f(p) ∩ g(q)`` and ``s in g(p) ∩ f(q)``
with ``p <= r, s <= q``.  A single map ``h`` is valid when ``(h, h)`` is;
the two notions are interchangeable via ``collapse``.  Capacities ``(a, b)``
bound ``|f(x)| <= a`` and ``|g(x)| <= b`` inclusively.

The verifier is one loop over the comparable pairs in index order.
Without interpolants it skips every pair its own endpoint witnesses: when
``q`` lies in ``f(p)``, ``g(p)``, ``f(q)`` and ``g(q)``, then ``r = s = q``
satisfies both clauses at ``(p, q)``.  Skipping those pairs leaves the first
violation, and so every verdict, unchanged.  With interpolants nothing is
skipped, so the same loop visits every comparable pair and takes its
witnesses.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from ..errors import InvalidArgument
from ..poset import Poset, bits_of, check_count

SetMap = tuple[int, ...]  # one bitmask per poset element


def check_capacities(cap) -> tuple[int, int]:
    """``cap``, any two-item iterable of plain ints of at least 1, as a
    tuple ``(a, b)``: inclusive bounds on the image sizes of ``f`` and ``g``,
    at least 1 since every valid pair has ``x in f(x) ∩ g(x)``."""
    try:
        a, b = cap
    except (TypeError, ValueError):
        raise InvalidArgument(f"capacities {cap!r} are not a pair (a, b)") from None
    check_count(a, "capacity a", 1)
    check_count(b, "capacity b", 1)
    return a, b


def _coerce_map(P: Poset, values: Iterable[int], name: str) -> SetMap:
    try:
        values = tuple(values)
    except TypeError:
        values = None
    if values is None or len(values) != P.n:
        raise InvalidArgument(f"{name} must assign a set to each of the {P.n} elements")
    for x, m in enumerate(values):
        if type(m) is not int:  # not bool, not a float or a numpy scalar
            raise InvalidArgument(f"{name}({x}) must be a mask")
        if m < 0 or m >> P.n:
            raise InvalidArgument(f"{name}({x}) mentions elements outside the poset")
    return values


class FnPair:
    """A total pair of set-valued maps on a poset, stored as bitmask rows.

    ``f`` and ``g`` give each element its image as a plain-int mask, bit
    ``i`` standing for element ``i``; :func:`fnlab.poset.mask_of` builds
    one from indices.  Pair files hold index lists, which the reader
    converts."""

    def __init__(self, poset: Poset, f: Iterable[int], g: Iterable[int]):
        self.poset = poset
        self.f = _coerce_map(poset, f, "f")
        self.g = _coerce_map(poset, g, "g")

    def __eq__(self, other):
        return isinstance(other, FnPair) and vars(self) == vars(other)

    def __hash__(self):
        return hash((self.poset, self.f, self.g))

    def __repr__(self):
        return f"FnPair(poset={self.poset!r}, f={self.f!r}, g={self.g!r})"

    def capacities(self) -> tuple[int, int]:
        a = max((m.bit_count() for m in self.f), default=0)
        b = max((m.bit_count() for m in self.g), default=0)
        return a, b


class Verdict(NamedTuple):
    """Outcome of a verification run.

    ``violation`` is the lexicographically least failing ``(p, q, clause)``
    with clause 1 meaning ``f(p) ∩ g(q)`` and clause 2 meaning
    ``g(p) ∩ f(q)``.  ``interpolants`` maps each comparable ``(p, q)`` to its
    least-index witnesses ``(r, s)`` when requested on a valid pair.
    """

    valid: bool
    violation: tuple[int, int, int] | None = None
    interpolants: Mapping[tuple[int, int], tuple[int, int]] | None = None


def verify_pair(pair: FnPair, with_interpolants: bool = False) -> Verdict:
    """Check both interpolation clauses on every comparable pair.

    Returns the least violation in lexicographic ``(p, q)`` index order,
    clause 1 before clause 2.  Without interpolants, a pair whose endpoint
    ``q`` lies in ``f(p)``, ``g(p)``, ``f(q)`` and ``g(q)`` is witnessed by
    ``r = s = q`` and is not scanned.  With them, the same loop skips
    nothing and records each comparable pair's least-index witnesses, which
    a valid pair's verdict carries.
    """
    P, f, g = pair.poset, pair.f, pair.g
    up, down = P.up, P.down
    # x is in skip when x lies in f(x) and g(x): q in skip and in f(p) ∩ g(p)
    # is its own witness for both clauses at (p, q)
    skip = 0
    if not with_interpolants:
        for x in range(P.n):
            skip |= f[x] & g[x] & (1 << x)
    out = {} if with_interpolants else None
    for p in range(P.n):
        fp = f[p]
        gp = g[p]
        for q in bits_of(up[p] & ~(fp & gp & skip)):
            box = up[p] & down[q]
            r = fp & g[q] & box
            if not r:
                return Verdict(False, (p, q, 1))
            s = gp & f[q] & box
            if not s:
                return Verdict(False, (p, q, 2))
            if out is not None:
                out[(p, q)] = ((r & -r).bit_length() - 1, (s & -s).bit_length() - 1)
    return Verdict(True, None, out)


def verify_single(P: Poset, h: Iterable[int]) -> Verdict:
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
    full = (1 << P.n) - 1
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
    if not P.leq(p, q):
        raise InvalidArgument(f"{p} <= {q} does not hold")
    box = P.up[p] & P.down[q]
    r = pair.f[p] & pair.g[q] & box
    s = pair.g[p] & pair.f[q] & box
    if not r:
        raise InvalidArgument(f"no witness in f({p}) ∩ g({q}) within [{p}, {q}]")
    if not s:
        raise InvalidArgument(f"no witness in g({p}) ∩ f({q}) within [{p}, {q}]")
    return ((r & -r).bit_length() - 1, (s & -s).bit_length() - 1)
