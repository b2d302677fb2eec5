"""Seeded random posets and valid pairs, the inputs of ``fnlab gen``.

Everything is driven by an explicit :class:`random.Random` so runs are
reproducible bit for bit; the CLI's ``gen poset`` and ``gen pair`` seed it
from their ``--seed`` (default ``DEFAULT_SEED``), and the benchmark from
its workload seeds.
"""

from __future__ import annotations

import random

from .errors import InvalidArgument
from .fnmaps.core import FnPair, trivial_pair, wellorder_map
from .poset import Poset, check_poset_size, poset_from_covers

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

