"""Independent brute-force references.

Everything here re-derives its answers from first principles and shares no
verification or search code with the optimized kernels; agreement between
the two sides is what the differential tests check.  None of it is meant to
be fast beyond desk scale.

Feasibility does not depend on labels, so the feasibility tables are cached
per isomorphism class: each is keyed on a canonical relabeling of the poset
(:func:`_canonical_rows`) and the capacity, and the 4231 labeled 5-element
posets need only 63 classes' tables per capacity.  numpy (the ``oracle``
extra) is imported by the table builder alone, so that importing this module
(and the CLI) stays cheap and works without it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, groupby, permutations, product

from .boolalg import CoproductAlgebra
from .errors import FnLabError, SizeExceeded
from .fnmaps.core import CapacityPair
from .poset import Poset, SubsetView, _poset_from_rows, bits_of, check_poset_size

ORACLE_MAX_ELEMENTS = 5
ORACLE_CELL_BUDGET = 2**25

# Labeled poset counts, confirmed by the enumeration itself (test suite)
# before being relied on as a regression value.
LABELED_POSET_COUNTS = (1, 1, 3, 19, 219, 4231)


def reference_valid_pair(P: Poset, f, g) -> bool:
    """Naive double-map verifier over plain sets; uses only ``P.leq``."""
    f = [set(s) for s in f]
    g = [set(s) for s in g]
    for p in range(P.n):
        for q in range(P.n):
            if not P.leq(p, q):
                continue
            between = [r for r in range(P.n) if P.leq(p, r) and P.leq(r, q)]
            if not any(r in f[p] and r in g[q] for r in between):
                return False
            if not any(s in g[p] and s in f[q] for s in between):
                return False
    return True


def reference_valid_single(P: Poset, h) -> bool:
    """Naive single-map verifier over plain sets."""
    h = [set(s) for s in h]
    for p in range(P.n):
        for q in range(P.n):
            if not P.leq(p, q):
                continue
            if not any(
                r in h[p] and r in h[q]
                for r in range(P.n)
                if P.leq(p, r) and P.leq(r, q)
            ):
                return False
    return True


def enumerate_posets(n: int):
    """All labeled posets on ``n`` elements, in a fixed enumeration order.

    Reflexivity and antisymmetry are built in by choosing one of three
    states per unordered pair (incomparable, below, above), pairs in
    ``combinations`` order and states in ``product`` order.  The walk is
    depth first, and pair ``(lo, hi)`` is the last pair of every triple
    ``{h, lo, hi}`` with ``h < lo``: those triples are checked for
    transitivity on the up and down masks as soon as it is set, and a
    failing branch is cut.  Each relation that survives is transitive and
    is validated once more by :func:`_poset_from_rows`, on the up and down
    rows the walk keeps.  Enumeration is labeled, not up-to-isomorphism.
    """
    if n > ORACLE_MAX_ELEMENTS:
        raise SizeExceeded(f"oracle capped at {ORACLE_MAX_ELEMENTS} elements, got {n}")
    check_poset_size(n)
    pairs = list(combinations(range(n), 2))
    up = [1 << x for x in range(n)]
    down = list(up)

    def walk(i):
        if i == len(pairs):
            yield _poset_from_rows(n, up, down)
            return
        lo, hi = pairs[i]
        earlier = (1 << lo) - 1
        # incomparable: no h < lo may lie between them either way
        if not (up[lo] & down[hi] | up[hi] & down[lo]) & earlier:
            yield from walk(i + 1)
        # x <= y: what is below x is below y, what is above y is above x,
        # and no h < lo lies above y and below x
        for x, y in ((lo, hi), (hi, lo)):
            if (
                down[x] & ~down[y] | up[y] & ~up[x] | up[y] & down[x]
            ) & earlier == 0:
                up[x] |= 1 << y
                down[y] |= 1 << x
                yield from walk(i + 1)
                up[x] ^= 1 << y
                down[y] ^= 1 << x

    yield from walk(0)


def _exact_size_choices(n: int, x: int, size: int) -> list[int]:
    """Masks containing ``x`` with exactly ``size`` bits (validity is
    pointwise monotone, so exact-size maps decide feasibility)."""
    others = [i for i in range(n) if i != x]
    return [
        (1 << x) | sum(1 << i for i in combo)
        for combo in combinations(others, size - 1)
    ]


def _canonical_rows(P: Poset) -> tuple[int, ...]:
    """Up-rows of a canonical relabeling of ``P``: isomorphic posets, and
    only they, get the same rows.

    Elements are sorted by the invariant ``(|↓x|, |↑x|)``; an isomorphism
    preserves it, so it can only permute elements within blocks of equal
    invariant.  The least rows tuple over every relabeling that permutes
    inside the blocks is therefore the same for the whole isomorphism class,
    and it is itself a relabeling of ``P``.  At most ``n!`` relabelings are
    tried, which is fine at desk scale.
    """

    def invariant(x):
        return P.down[x].bit_count(), P.up[x].bit_count()

    blocks = [list(b) for _, b in groupby(sorted(range(P.n), key=invariant), key=invariant)]

    def relabeled(order):
        pos = [0] * P.n
        for i, x in enumerate(order):
            pos[x] = i
        return tuple(sum(1 << pos[y] for y in bits_of(P.up[x])) for x in order)

    return min(
        relabeled([x for block in choice for x in block])
        for choice in product(*(permutations(b) for b in blocks))
    )


@lru_cache(maxsize=None)
def _needed_g_table(rows: tuple[int, ...], a: int) -> int:
    """Smallest worst-case ``g`` image size over all exact-``a`` choices of
    ``f`` on the poset with up-rows ``rows`` (a key from
    :func:`_canonical_rows`), by exhaustive tensor enumeration.

    For a fixed ``f`` the two interpolation clauses decompose per element:
    ``g(x)`` must hit ``f(p) ∩ [p, x]`` for every ``p <= x`` and
    ``f(q) ∩ [x, q]`` for every ``q >= x``.  Each element ``x`` gets one
    boolean tensor: an axis of ``f`` choices per element comparable to
    ``x`` (length 1 for the others), and a last axis of every candidate
    ``g(x)``, each subset holding ``x``, smallest first.  Every comparable
    ``c`` and box ANDs in its hit test, one table over the ``f(c)`` choices
    and the candidates broadcast along the axis of ``c`` and the last one,
    so a cell stays True exactly when that ``f`` and that ``g(x)`` satisfy
    both clauses.  The first True along the last axis is the least ``g(x)``
    size for that ``f``, and there always is one: the last candidate, the
    full set, meets each ``f(c) ∩ box`` in ``c``.  Broadcasting the
    elementwise maximum of these over the joint ``f`` space and taking the
    minimum is therefore an exhaustive sweep of all pairs.  With
    ``K = C(n - 1, a - 1)`` choices per element, one element's tensor has
    at most ``K**n * 2**(n - 1)`` cells, which :data:`ORACLE_CELL_BUDGET`
    caps.

    The cache is unbounded but small: one int per isomorphism class and
    capacity, and posets up to ``ORACLE_MAX_ELEMENTS`` elements fall into
    88 classes.
    """
    try:
        import numpy as np
    except ImportError:
        raise FnLabError("the oracle tables need numpy: install fnlab[oracle]") from None

    n = len(rows)
    down = [sum(1 << x for x in range(n) if rows[x] >> y & 1) for y in range(n)]
    P = _poset_from_rows(n, rows, down)
    cands = [_exact_size_choices(n, x, a) for x in range(n)]
    K = len(cands[0])
    if K**n << (n - 1) > ORACLE_CELL_BUDGET:
        raise SizeExceeded(f"oracle tensor would need {K}**{n} * 2**{n - 1} cells")
    joint = np.int16(0)
    for x in range(n):
        own = sorted((S for S in range(1 << n) if S >> x & 1), key=lambda S: (S.bit_count(), S))
        sizes = np.array([S.bit_count() for S in own], dtype=np.int16)
        comp = [c for c in range(n) if P.leq(c, x) or P.leq(x, c)]
        ok = np.ones([K if c in comp else 1 for c in range(n)] + [len(own)], dtype=bool)
        for c in comp:
            for lo, hi in ((c, x), (x, c)):
                if P.leq(lo, hi):
                    hit = (np.bitwise_and.outer(cands[c], own) & P.up[lo] & P.down[hi]) != 0
                    ok &= hit.reshape([K if cc == c else 1 for cc in range(n)] + [-1])
        joint = np.maximum(joint, sizes[ok.argmax(-1)])
    return int(joint.min())


def brute_feasible(P: Poset, cap: CapacityPair | tuple[int, int]) -> bool:
    """Exhaustive feasibility decision for capacities ``(a, b)``."""
    a, b = CapacityPair(*cap).check()
    if P.n > ORACLE_MAX_ELEMENTS:
        raise SizeExceeded(f"oracle capped at {ORACLE_MAX_ELEMENTS} elements, got {P.n}")
    if P.n == 0:
        return True
    return _needed_g_table(_canonical_rows(P), min(a, P.n)) <= b


def brute_frontier(P: Poset, max_size: int = ORACLE_MAX_ELEMENTS):
    """Pareto-minimal feasible capacities straight from the boundary table."""
    if P.n > max_size:
        raise SizeExceeded(f"oracle capped at {max_size} elements, got {P.n}")
    if P.n == 0:
        return ((1, 1),)
    rows = _canonical_rows(P)
    betas = {a: _needed_g_table(rows, a) for a in range(1, P.n + 1)}
    points = []
    prev = None
    for a in sorted(betas):
        if prev is None or betas[a] < prev:
            points.append((a, betas[a]))
        prev = betas[a]
    return tuple(sorted({(b, a) for a, b in points} | set(points)))


def brute_pair_product_feasible(P: Poset, cap) -> bool:
    """Literal joint enumeration of all exact-size ``(f, g)`` assignments,
    each checked by the naive verifier.  Tiny posets only; exists to certify
    the decomposed oracle."""
    a, b = CapacityPair(*cap).check()
    n = P.n
    if n > 3:
        raise SizeExceeded("joint enumeration capped at 3 elements")
    if n == 0:
        return True
    fchoices = [_exact_size_choices(n, x, min(a, n)) for x in range(n)]
    gchoices = [_exact_size_choices(n, x, min(b, n)) for x in range(n)]
    for f in product(*fchoices):
        fsets = [set(bits_of(m)) for m in f]
        for g in product(*gchoices):
            gsets = [set(bits_of(m)) for m in g]
            if reference_valid_pair(P, fsets, gsets):
                return True
    return False


def brute_minmax_in_subset(A: SubsetView, x: int) -> tuple[int | None, int | None]:
    """Literal scan for the minimum of ``A ∩ ↑x`` and maximum of ``A ∩ ↓x``;
    ``None`` when no least/greatest element exists."""
    P = A.ambient
    P.check_index(x)
    above = [m for m in sorted(A.members) if P.leq(x, m)]
    below = [m for m in sorted(A.members) if P.leq(m, x)]
    least = [m for m in above if all(P.leq(m, o) for o in above)]
    greatest = [m for m in below if all(P.leq(o, m) for o in below)]
    return (least[0] if least else None, greatest[0] if greatest else None)


def brute_cofactor_minmax(C: CoproductAlgebra, j: int, x: int) -> tuple[int | None, int | None]:
    """Same scan as :func:`brute_minmax_in_subset`, but over a cofactor
    image inside a coproduct base too large to materialize as a poset."""
    image = C.embedded_image(j)
    above = [m for m in image if x & ~m == 0]
    below = [m for m in image if m & ~x == 0]
    least = [m for m in above if all(m & ~o == 0 for o in above)]
    greatest = [m for m in below if all(o & ~m == 0 for o in below)]
    return (least[0] if least else None, greatest[0] if greatest else None)


def fixpoint_subalgebra(k: int, gens) -> frozenset[int]:
    """Naive worklist closure of ``gens ∪ {0, 1}`` under meet, join and
    complement inside the ``k``-atom powerset; the reference for the
    partition-based construction."""
    one = (1 << k) - 1
    elems = {0, one} | set(gens)
    work = True
    while work:
        work = False
        current = list(elems)
        for i, xm in enumerate(current):
            if one ^ xm not in elems:
                elems.add(one ^ xm)
                work = True
            for ym in current[i:]:
                for z in (xm & ym, xm | ym):
                    if z not in elems:
                        elems.add(z)
                        work = True
            if len(elems) > 2**16:
                raise SizeExceeded("fixpoint closure exceeded cap")
    return frozenset(elems)
