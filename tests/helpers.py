"""What only the tests use: seeded random generators (arbitrary set-valued
maps, batteries of single maps, retractions and subset views), the writer
of map files, the labeled poset counts, and a frontier walk in the other
direction.

Like :mod:`fnlab.gen`, every generator is driven by an explicit
:class:`random.Random`, so a test's inputs are reproducible bit for bit.
"""

from __future__ import annotations

import random

from fnlab.errors import InvalidArgument
from fnlab.fnmaps.core import wellorder_map
from fnlab.fnmaps.search import feasible
from fnlab.gen import _check_share
from fnlab.poset import MonotoneMap, Poset, SubsetView, bits_of, mask_of, poset_from_covers
from fnlab.serialize import poset_to_obj

# Labeled poset counts, confirmed by the enumeration itself (test suite)
# before being relied on as a regression value.
LABELED_POSET_COUNTS = (1, 1, 3, 19, 219, 4231)


def sets_of(masks) -> list[frozenset[int]]:
    """Each bitmask of a map as the set of its element indices."""
    return [frozenset(bits_of(m)) for m in masks]


def masks_of(sets) -> tuple[int, ...]:
    """Each set of element indices of a map as its bitmask: the inverse of
    :func:`sets_of`, for writing a map's images as index sets."""
    return tuple(map(mask_of, sets))


def identity_map(P: Poset) -> MonotoneMap:
    return MonotoneMap(P, P, tuple(range(P.n)))


def map_to_obj(m: MonotoneMap) -> dict:
    return {
        "dom": poset_to_obj(m.dom),
        "cod": poset_to_obj(m.cod),
        "image": list(m.image),
    }


def random_total_map(P: Poset, rng: random.Random, density: float = 0.4) -> tuple[int, ...]:
    """Arbitrary set-valued map (not necessarily valid, may miss ``x``)."""
    _check_share("density", density)
    out = []
    for _ in range(P.n):
        m = 0
        for i in range(P.n):
            if rng.random() < density:
                m |= 1 << i
        out.append(m)
    return tuple(out)


def random_retraction(
    P: Poset, rng: random.Random, max_total: int = 8
) -> tuple[Poset, MonotoneMap, MonotoneMap]:
    """A poset ``Q`` retracting onto ``P``: blow each element up into a small
    chain block (ordered blockwise by the order of ``P``), relabel the
    elements randomly, and return ``Q`` with the section ``i: P -> Q`` and
    retraction ``j: Q -> P``."""
    if P.n == 0:
        raise InvalidArgument("cannot blow up the empty poset")
    extra = max(0, max_total - P.n)
    sizes = [1] * P.n
    for _ in range(extra):
        if rng.random() < 0.6:
            sizes[rng.randrange(P.n)] += 1
    total = sum(sizes)
    # block members get consecutive slots, then a random relabeling
    slots = []
    start = 0
    for p in range(P.n):
        slots.append(list(range(start, start + sizes[p])))
        start += sizes[p]
    relabel = list(range(total))
    rng.shuffle(relabel)
    covers = []
    owner = {}
    for p in range(P.n):
        for a, b in zip(slots[p], slots[p][1:]):
            covers.append((relabel[a], relabel[b]))
        for s in slots[p]:
            owner[relabel[s]] = p
    for p in range(P.n):
        for q in range(P.n):
            if p != q and P.leq(p, q):
                covers.append((relabel[slots[p][-1]], relabel[slots[q][0]]))
    Q = poset_from_covers(total, covers)
    i = MonotoneMap(P, Q, tuple(relabel[slots[p][0]] for p in range(P.n)))
    j = MonotoneMap(Q, P, tuple(owner[x] for x in range(total)))
    return Q, i, j


def random_subset_view(P: Poset, rng: random.Random) -> SubsetView:
    """A uniformly random nonempty subset of the elements."""
    members = [x for x in range(P.n) if rng.random() < 0.5]
    if not members:
        members = [rng.randrange(P.n)]
    return SubsetView(P, frozenset(members))


def random_single_maps(P: Poset, rng: random.Random):
    """A deterministic battery of single maps for equivalence testing:
    prefix maps, the full and singleton maps, plus four arbitrary random
    ones."""
    out = []
    order = list(range(P.n))
    out.append(wellorder_map(P, order))
    shuffled = order[:]
    rng.shuffle(shuffled)
    out.append(wellorder_map(P, shuffled))
    out.append(tuple((1 << P.n) - 1 for _ in range(P.n)))
    out.append(tuple(1 << x for x in range(P.n)))
    for _ in range(4):
        out.append(random_total_map(P, rng))
    return out


def downward_frontier(P: Poset) -> tuple[tuple[int, int], ...]:
    """The frontier walked down each row: row 1 is ``(1, w)``, ``w`` the
    widest cone, and row ``a = 2, 3, ...`` starts at the last row's ``b``
    and asks :func:`feasible` at ``(a, b - 1)`` while ``b > a``, stepping
    down on each yes; a row that dropped adds ``(a, b)``.  Mirrored and
    sorted, as :func:`fnlab.frontier` returns its points."""
    a, b = 1, max(((P.up[x] | P.down[x]).bit_count() for x in range(P.n)), default=1)
    points = [(a, b)]
    while b > a:
        a += 1
        while b > a and feasible(P, (a, b - 1)):
            b -= 1
        if b < points[-1][1]:
            points.append((a, b))
    return tuple(sorted({*points, *((b, a) for a, b in points)}))
