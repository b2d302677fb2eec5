"""Finite partial orders and the order-theoretic kernel.

Elements are dense integer indices ``0..n-1``; the relation is stored as the
full reflexive-transitive closure, one bitmask row per element, so that
``leq`` queries, interval masks and down/up sets are O(1) word operations.
Labels are decorative only. All values are immutable after validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    DomainMismatch,
    IndexOutOfRange,
    InvalidArgument,
    NotAntisymmetric,
    NotMonotone,
    NotReflexive,
    NotTransitive,
    SizeExceeded,
)

MAX_ELEMENTS = 4096


def check_poset_size(n: int) -> None:
    """Refuse a poset of ``n`` elements: negative, or above ``MAX_ELEMENTS``
    (every materialized order obeys this cap)."""
    if n < 0:
        raise InvalidArgument(f"poset size {n} is negative")
    if n > MAX_ELEMENTS:
        raise SizeExceeded(f"poset size {n} exceeds cap {MAX_ELEMENTS}")


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits_of(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits_of(mask))


@dataclass(frozen=True)
class Poset:
    """An immutable finite poset.

    ``up[x]`` is the bitmask of ``{y : x <= y}`` and ``down[x]`` the bitmask
    of ``{y : y <= x}``; both include ``x``.
    """

    n: int
    up: tuple[int, ...]
    down: tuple[int, ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def check_index(self, p: int) -> None:
        if not 0 <= p < self.n:
            raise IndexOutOfRange(f"element {p} out of range for poset of size {self.n}")

    def leq(self, p: int, q: int) -> bool:
        self.check_index(p)
        self.check_index(q)
        return bool(self.up[p] >> q & 1)

    def interval_mask(self, p: int, q: int) -> int:
        """Bitmask of ``[p, q] = {r : p <= r <= q}``."""
        return self.up[p] & self.down[q]

    def down_set(self, p: int) -> frozenset[int]:
        self.check_index(p)
        return set_of(self.down[p])

    def up_set(self, p: int) -> frozenset[int]:
        self.check_index(p)
        return set_of(self.up[p])

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def covers(self) -> list[tuple[int, int]]:
        """Hasse edges ``(p, q)`` with ``p < q`` and nothing strictly between."""
        out = []
        for p in range(self.n):
            # each q still above p, in ascending order, drops everything
            # strictly above it; no cover is ever dropped, so what remains
            # is exactly the covers of p
            above = rest = self.up[p] & ~(1 << p)
            while rest:
                low = rest & -rest
                above &= ~self.up[low.bit_length() - 1] | low
                rest = above & -(low << 1)
            out.extend((p, q) for q in bits_of(above))
        return out

    def __repr__(self):
        return f"Poset(n={self.n}, covers={self.covers()})"


def validate_poset(
    matrix: Sequence[Sequence[object]], labels: Sequence[str] | None = None
) -> Poset:
    """Validate a square boolean relation matrix and build a :class:`Poset`.

    Axioms are checked in order (reflexive, antisymmetric, transitive) and
    the first violation is raised with its witness elements.
    """
    n = len(matrix)
    check_poset_size(n)
    rows = []
    for row in matrix:
        if len(row) != n:
            raise InvalidArgument("relation matrix must be square")
        rows.append(mask_of(i for i, v in enumerate(row) if v))
    return _poset_from_up_rows(n, rows, labels)


def _poset_from_up_rows(n: int, rows: list[int], labels=None) -> Poset:
    check_poset_size(n)
    for x in range(n):
        if not rows[x] >> x & 1:
            raise NotReflexive(x)
    down = [0] * n
    for x in range(n):
        for y in bits_of(rows[x]):
            down[y] |= 1 << x
    # the least x in a cycle pairs with the least y on both sides of it: a
    # partner below x would have been caught at that partner
    for x in range(n):
        both = rows[x] & down[x] & ~(1 << x)
        if both:
            raise NotAntisymmetric(x, (both & -both).bit_length() - 1)
    for x in range(n):
        for y in bits_of(rows[x]):
            missing = rows[y] & ~rows[x]
            if missing:
                z = (missing & -missing).bit_length() - 1
                raise NotTransitive(x, y, z)
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise InvalidArgument("labels must match element count")
    return Poset(n, tuple(rows), tuple(down), labels)


def poset_from_covers(
    n: int, covers: Iterable[tuple[int, int]], labels: Sequence[str] | None = None
) -> Poset:
    """Build a poset from Hasse/cover edges ``lo < hi``.

    The reflexive-transitive closure is computed first and then validated,
    so a cyclic edge list is reported as an antisymmetry failure.  Each row
    grows in one pass: ``work`` holds only the elements newly reached, so
    every element the row reaches is visited once.
    """
    check_poset_size(n)
    rows = [1 << x for x in range(n)]
    for lo, hi in covers:
        if not (0 <= lo < n and 0 <= hi < n):
            raise IndexOutOfRange(f"cover edge ({lo}, {hi}) out of range")
        rows[lo] |= 1 << hi
    for x in range(n):
        acc = rows[x]
        work = acc & ~(1 << x)
        while work:
            low = work & -work
            new = rows[low.bit_length() - 1] & ~acc
            acc |= new
            work = work ^ low | new
        rows[x] = acc
    return _poset_from_up_rows(n, rows, labels)


def chain(n: int) -> Poset:
    return poset_from_covers(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> Poset:
    return poset_from_covers(n, [])


def diamond() -> Poset:
    """The four-element boolean algebra as a poset: 0 < a, b < 1."""
    return poset_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@dataclass(frozen=True)
class MonotoneMap:
    """An order-preserving map between posets, validated at construction."""

    dom: Poset
    cod: Poset
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != self.dom.n:
            raise InvalidArgument("image must assign every element of the domain")
        for v in self.image:
            self.cod.check_index(v)
        for p in range(self.dom.n):
            for q in bits_of(self.dom.up[p]):
                if not self.cod.leq(self.image[p], self.image[q]):
                    raise NotMonotone(p, q)

    def __call__(self, p: int) -> int:
        self.dom.check_index(p)
        return self.image[p]

    def image_mask(self, mask: int) -> int:
        """Pointwise image of a domain bitmask, as a codomain bitmask."""
        out = 0
        for p in bits_of(mask):
            out |= 1 << self.image[p]
        return out


def identity_map(P: Poset) -> MonotoneMap:
    return MonotoneMap(P, P, tuple(range(P.n)))


def check_retraction(i: MonotoneMap, j: MonotoneMap) -> bool:
    """True iff ``j`` retracts ``i``: both composable and ``j(i(p)) = p``."""
    if i.cod != j.dom or i.dom != j.cod:
        raise DomainMismatch("retraction check needs i: P -> Q and j: Q -> P")
    return all(j.image[i.image[p]] == p for p in range(i.dom.n))


@dataclass(frozen=True)
class SubsetView:
    """A subset of a poset's elements, inheriting the ambient order."""

    ambient: Poset
    members: frozenset[int]

    def __post_init__(self):
        for p in self.members:
            self.ambient.check_index(p)

    @cached_property
    def mask(self) -> int:
        return mask_of(self.members)

    @cached_property
    def _pos(self) -> dict[int, int]:
        """Member -> local index, members ascending."""
        return {e: i for i, e in enumerate(sorted(self.members))}

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


def _extremal_in(rows: Sequence[int], mask: int) -> int:
    """Bitmask of the elements of ``mask`` whose row meets ``mask`` only in
    themselves: the maximal elements for up rows, the minimal for down rows."""
    out = 0
    for x in bits_of(mask):
        if not rows[x] & ~(1 << x) & mask:
            out |= 1 << x
    return out


def cofinality_below(A: SubsetView, p: int) -> int:
    """Size of the unique minimum cofinal subset of ``A ∩ ↓p``.

    For finite posets this is the number of maximal elements of the trace;
    0 iff the trace is empty.
    """
    A.ambient.check_index(p)
    trace = A.mask & A.ambient.down[p]
    return _extremal_in(A.ambient.up, trace).bit_count()


def coinitiality_above(A: SubsetView, p: int) -> int:
    """Dual of :func:`cofinality_below` for ``A ∩ ↑p``."""
    A.ambient.check_index(p)
    trace = A.mask & A.ambient.up[p]
    return _extremal_in(A.ambient.down, trace).bit_count()


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
