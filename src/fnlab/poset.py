"""Finite partial orders and the order-theoretic kernel.

Elements are dense integer indices ``0..n-1``; the relation is stored as the
full reflexive-transitive closure, one bitmask row per element, so that
``leq`` queries, intervals (``up[p] & down[q]``) and down/up sets are O(1)
word operations.  Every builder fills the up rows and their transpose, the
down rows, side by side, from a cover list or the oracle's walk, and hands
both to one check for size and a cycle.
Labels are decorative only. Values are never modified after construction:
no method assigns an attribute.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

from .errors import InvalidArgument, SizeExceeded

MAX_ELEMENTS = 4096


def check_count(value: int, what: str, least: int = 0) -> None:
    """Refuse a count (a size, a capacity, a budget) that is not a plain int
    (a bool, a float or a numpy scalar) or is below ``least``."""
    if type(value) is not int:
        raise InvalidArgument(f"{what} {value!r} is not an integer")
    if value < least:
        raise InvalidArgument(f"{what} {value} is below {least}")


def check_index(value: int, what: str, size: int) -> None:
    """Refuse an index (an element, a cover-edge end, a cofactor) that is
    not a plain int or lies outside ``0..size-1``."""
    if type(value) is not int or not 0 <= value < size:
        check_count(value, what)
        raise InvalidArgument(f"{what} {value} is not below {size}")


def check_poset_size(n: int) -> None:
    """Refuse a poset of ``n`` elements: not a count, or above
    ``MAX_ELEMENTS`` (every materialized order obeys this cap)."""
    check_count(n, "poset size")
    if n > MAX_ELEMENTS:
        raise SizeExceeded(f"poset size {n} exceeds cap {MAX_ELEMENTS}")


def mask_of(indices: Collection[int]) -> int:
    """The bitmask of nonnegative indices, in time linear in their count and
    the largest of them: up to 64 are shifted in one at a time, more are
    written as base-2 digits and parsed once."""
    if len(indices) <= 64:
        m = 0
        for i in indices:
            m |= 1 << i
        return m
    digits = bytearray(b"0") * (max(indices) + 1)
    for i in indices:
        digits[i] = 49  # ord("1")
    digits.reverse()
    return int(digits, 2)


def bits_of(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """A finite poset.

    ``up[x]`` is the bitmask of ``{y : x <= y}`` and ``down[x]`` the bitmask
    of ``{y : y <= x}``; both include ``x``.  ``labels`` take no part in
    equality or hashing.
    """

    def __init__(self, n: int, up: tuple[int, ...], down: tuple[int, ...], labels=None):
        self.n, self.up, self.down, self.labels = n, up, down, labels

    def __eq__(self, other):
        return isinstance(other, Poset) and (self.up, self.down) == (other.up, other.down)

    def __hash__(self):
        return hash((self.n, self.up, self.down))

    def check_index(self, p: int) -> None:
        """Refuse an element index that is not a plain int (a bool, a float
        or a numpy scalar) or lies outside ``0..n-1``."""
        check_index(p, "element", self.n)

    def leq(self, p: int, q: int) -> bool:
        self.check_index(p)
        self.check_index(q)
        return bool(self.up[p] >> q & 1)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def covers(self) -> list[tuple[int, int]]:
        """Hasse edges ``(p, q)`` with ``p < q`` and nothing strictly between."""
        out = []
        for p in range(self.n):
            out.extend((p, q) for q in bits_of(_eliminate(self.up, self.up[p] & ~(1 << p))))
        return out

    def __repr__(self):
        return f"Poset(n={self.n}, covers={self.covers()})"


def _eliminate(rows: Sequence[int], mask: int) -> int:
    """The minimal elements of ``mask`` for up rows, the maximal for down
    rows.

    Walk the elements of ``mask`` still left in ascending order; each one
    drops every other element its row holds.  An extremal element is never
    dropped.  Every other element has an extremal element of ``mask``
    beyond it (below it for up rows, above it for down rows); that one is
    never dropped, so the walk visits it, and the visit drops the other.
    The covers of ``p`` are the minimal elements strictly above ``p``.
    """
    above = rest = mask
    while rest:
        low = rest & -rest
        row = rows[low.bit_length() - 1]
        above &= ~row | low
        rest = above & -(low << 1)
    return above


def _poset_from_rows(n: int, up: Sequence[int], down: Sequence[int], labels=None) -> Poset:
    """Check the size, a cycle and the labels, and build the :class:`Poset`.

    Each caller builds reflexive, transitive up rows and ``down``, their
    transpose, side by side, so the one fault left to find is a cycle: it
    is raised as an antisymmetry failure with its witness.
    """
    check_poset_size(n)
    # the least x in a cycle pairs with the least y on both sides of it: a
    # partner below x would have been caught at that partner
    for x in range(n):
        both = up[x] & down[x] & ~(1 << x)
        if both:
            y = (both & -both).bit_length() - 1
            raise InvalidArgument(f"relation is not antisymmetric: {x} <= {y} and {y} <= {x}")
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise InvalidArgument("labels must match element count")
    return Poset(n, tuple(up), tuple(down), labels)


def _reach(rows: list[int]) -> None:
    """Close successor rows (each holding its own bit) in place under
    reachability.

    Rows are closed in depth-first post-order: a reached element whose row
    is already closed joins whole, and any other (only on a cycle) is
    expanded one step, its newly reached elements queued.  Without a cycle
    every successor is closed first, so the closure costs one join per edge.
    """
    seen = closed = 0
    for root in range(len(rows)):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        stack = [root]
        while stack:
            x = stack[-1]
            fresh = rows[x] & ~seen
            if fresh:
                low = fresh & -fresh
                seen |= low
                stack.append(low.bit_length() - 1)
                continue
            stack.pop()
            acc = rows[x]
            work = acc & ~(1 << x)
            while work:
                low = work & -work
                row = rows[low.bit_length() - 1]
                if closed & low:
                    acc |= row
                    work &= ~row
                else:
                    new = row & ~acc
                    acc |= new
                    work = work ^ low | new
            rows[x] = acc
            closed |= 1 << x


def poset_from_covers(
    n: int, covers: Iterable[tuple[int, int]], labels: Sequence[str] | None = None
) -> Poset:
    """Build a poset from Hasse/cover edges ``lo < hi``.

    The reflexive-transitive closure is computed first and then checked,
    so a cyclic edge list is reported as an antisymmetry failure.  The up
    rows close the edges and the down rows the reversed edges, each by
    :func:`_reach`.
    """
    check_poset_size(n)
    up = [1 << x for x in range(n)]
    down = list(up)
    for edge in covers:
        try:
            lo, hi = edge
        except (TypeError, ValueError):
            raise InvalidArgument(f"cover edge {edge!r} is not a pair of integer indices") from None
        check_index(lo, "cover edge end", n)
        check_index(hi, "cover edge end", n)
        up[lo] |= 1 << hi
        down[hi] |= 1 << lo
    _reach(up)
    _reach(down)
    return _poset_from_rows(n, up, down, labels)


def chain(n: int) -> Poset:
    check_poset_size(n)  # before the range of covers
    return poset_from_covers(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> Poset:
    return poset_from_covers(n, [])


def diamond() -> Poset:
    """The four-element boolean algebra as a poset: 0 < a, b < 1."""
    return poset_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


class MonotoneMap:
    """An order-preserving map between posets, validated at construction."""

    def __init__(self, dom: Poset, cod: Poset, image: tuple[int, ...]):
        self.dom, self.cod, self.image = dom, cod, image
        if len(self.image) != self.dom.n:
            raise InvalidArgument("image must assign every element of the domain")
        for v in self.image:
            self.cod.check_index(v)
        # the domain order is the closure of its covers and the codomain's
        # is transitive, so the covers decide; a failing cover means some
        # pair fails, and the pairwise scan names the first one
        up, image = self.cod.up, self.image
        if any(not up[image[p]] >> image[q] & 1 for p, q in self.dom.covers()):
            for p in range(self.dom.n):
                for q in bits_of(self.dom.up[p]):
                    if not up[image[p]] >> image[q] & 1:
                        raise InvalidArgument(f"map is not order-preserving at {p} <= {q}")

    def __eq__(self, other):
        return isinstance(other, MonotoneMap) and vars(self) == vars(other)

    def __hash__(self):
        return hash((self.dom, self.cod, self.image))


def check_retraction(i: MonotoneMap, j: MonotoneMap) -> bool:
    """True iff ``j`` retracts ``i``: both composable and ``j(i(p)) = p``."""
    if i.cod != j.dom or i.dom != j.cod:
        raise InvalidArgument("retraction check needs i: P -> Q and j: Q -> P")
    return all(j.image[i.image[p]] == p for p in range(i.dom.n))


class SubsetView:
    """A subset of a poset's elements, inheriting the ambient order."""

    def __init__(self, ambient: Poset, members: frozenset[int]):
        self.ambient, self.members = ambient, members
        for p in self.members:
            self.ambient.check_index(p)
        self.mask = mask_of(members)
        # member -> local index, members ascending
        self._pos = {e: i for i, e in enumerate(sorted(members))}

    def __eq__(self, other):
        # mask and _pos follow from members
        return isinstance(other, SubsetView) and vars(self) == vars(other)

    def __hash__(self):
        return hash((self.ambient, self.members))

    def local(self, mask: int) -> int:
        """The members in the ambient bitmask ``mask``, as a bitmask over
        local indices."""
        pos = self._pos
        out = 0
        for e in bits_of(mask & self.mask):
            out |= 1 << pos[e]
        return out

    def as_poset(self) -> tuple[Poset, tuple[int, ...]]:
        """Induced poset on the members plus the local->ambient index map."""
        elems = tuple(self._pos)
        up = tuple(self.local(self.ambient.up[e]) for e in elems)
        down = tuple(self.local(self.ambient.down[e]) for e in elems)
        return Poset(len(elems), up, down), elems


def cofinality_below(A: SubsetView, p: int) -> int:
    """Size of the unique minimum cofinal subset of ``A ∩ ↓p``.

    For finite posets this is the number of maximal elements of the trace;
    0 iff the trace is empty.
    """
    A.ambient.check_index(p)
    trace = A.mask & A.ambient.down[p]
    return _eliminate(A.ambient.down, trace).bit_count()


def coinitiality_above(A: SubsetView, p: int) -> int:
    """Dual of :func:`cofinality_below` for ``A ∩ ↑p``."""
    A.ambient.check_index(p)
    trace = A.mask & A.ambient.up[p]
    return _eliminate(A.ambient.up, trace).bit_count()


def subposet_degree(A: SubsetView) -> int:
    """Worst-case trace size of the view inside its ambient poset.

    The maximum over all ambient ``p`` of the cofinality of ``A ∩ ↓p`` and
    the coinitiality of ``A ∩ ↑p``.  The whole poset has degree 1; a view
    is a "capacity-b" subposet iff its degree is at most ``b``.
    """
    best = 0
    for p in range(A.ambient.n):
        best = max(best, cofinality_below(A, p), coinitiality_above(A, p))
    return best
