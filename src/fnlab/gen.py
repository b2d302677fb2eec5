"""Seeded random generators for posets, maps, pairs and retractions.

Everything is driven by an explicit :class:`random.Random` so runs are
reproducible bit for bit; the CLI's ``gen poset`` and ``gen pair`` seed it
from their ``--seed`` (default ``DEFAULT_SEED``).
"""

from __future__ import annotations

import random

from .errors import InvalidArgument
from .fnmaps.core import FnPair, trivial_pair, wellorder_map
from .poset import MonotoneMap, Poset, SubsetView, check_poset_size, poset_from_covers

DEFAULT_SEED = 0


def _check_share(name: str, p: float) -> None:
    if not 0 <= p <= 1:  # NaN fails both comparisons
        raise InvalidArgument(f"{name} {p} is outside [0, 1]")


def random_poset(n: int, rng: random.Random, density: float = 0.35) -> Poset:
    """Random labeled poset: random edges compatible with a hidden random
    linear extension, then transitive closure."""
    check_poset_size(n)  # before the n^2 edge draws
    _check_share("density", density)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((perm[i], perm[j]))
    return poset_from_covers(n, edges)


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


def random_valid_pair(P: Poset, rng: random.Random, enlarge: float = 0.25) -> FnPair:
    """A valid pair: start from a known-valid base (the whole-poset/singleton
    pair or a random-order prefix map) and randomly enlarge images, which
    preserves validity pointwise."""
    _check_share("enlarge", enlarge)
    if rng.random() < 0.5:
        base = trivial_pair(P)
    else:
        order = list(range(P.n))
        rng.shuffle(order)
        h = wellorder_map(P, order)
        base = FnPair(P, h, h)
    f = list(base.f)
    g = list(base.g)
    for x in range(P.n):
        for i in range(P.n):
            if rng.random() < enlarge:
                f[x] |= 1 << i
            if rng.random() < enlarge:
                g[x] |= 1 << i
    return FnPair(P, tuple(f), tuple(g))


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


def random_single_maps(P: Poset, rng: random.Random, count: int = 4):
    """A deterministic battery of single maps for equivalence testing:
    prefix maps, the full and singleton maps, plus arbitrary random ones."""
    out = []
    order = list(range(P.n))
    out.append(wellorder_map(P, order))
    shuffled = order[:]
    rng.shuffle(shuffled)
    out.append(wellorder_map(P, shuffled))
    out.append(tuple(P.full_mask() for _ in range(P.n)))
    out.append(tuple(1 << x for x in range(P.n)))
    for _ in range(count):
        out.append(random_total_map(P, rng))
    return out
