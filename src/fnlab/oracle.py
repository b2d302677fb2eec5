"""Independent brute-force references.

Everything here re-derives its answers from first principles and shares no
verification or search code with the optimized kernels; agreement between
the two sides is what the differential tests check.  None of it is meant to
be fast beyond desk scale.

Feasibility does not depend on labels, so the feasibility tables are cached
per isomorphism class: each is keyed on a canonical relabeling of the poset
(:func:`_canonical_rows`) and the capacity, and the 4231 labeled 5-element
posets fall into only 63 classes.  :func:`brute_frontier` walks the rows
``a = 1, 2, …`` as the search's frontier walk does and stops at the first
row whose table is at most ``a``, since every frontier is its own mirror;
:func:`brute_feasible` still reads the table of whatever row it is asked.
The tables are sweeps over Python ints used as bitsets, so the oracle, like
the rest of the package, needs nothing beyond the standard library.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, groupby, permutations, product

from .boolalg import CoproductAlgebra
from .errors import SizeExceeded
from .fnmaps.core import check_capacities
from .poset import Poset, SubsetView, _poset_from_rows, bits_of, check_count, check_poset_size

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


def enumerate_posets(n: int):
    """All labeled posets on ``n`` elements, in a fixed enumeration order.

    Reflexivity and antisymmetry are built in by choosing one of three
    states per unordered pair (incomparable, below, above), pairs in
    ``combinations`` order and states in ``product`` order.  The walk is
    depth first, and pair ``(lo, hi)`` is the last pair of every triple
    ``{h, lo, hi}`` with ``h < lo``: those triples are checked for
    transitivity on the up and down masks as soon as it is set, and a
    failing branch is cut.  Each relation that survives is transitive and
    is checked once more for size and a cycle by :func:`_poset_from_rows`,
    on the up and down rows the walk keeps.  Enumeration is labeled, not
    up-to-isomorphism.
    """
    check_poset_size(n)
    if n > ORACLE_MAX_ELEMENTS:
        raise SizeExceeded(f"oracle capped at {ORACLE_MAX_ELEMENTS} elements, got {n}")
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
    :func:`_canonical_rows`), by an exhaustive sweep over bitsets.

    For a fixed ``f`` the two interpolation clauses decompose per element:
    ``g(x)`` must hit ``f(p) ∩ [p, x]`` for every ``p <= x`` and
    ``f(q) ∩ [x, q]`` for every ``q >= x``.  With ``K = C(n - 1, a - 1)``
    choices per element, the joint choice of ``f`` that takes choice
    ``k_c`` at each ``c`` has the index ``Σ k_c·K**c``, and a Python int of
    ``K**n`` bits is a set of joint choices.  ``pat[c][k]``, the set whose
    digit ``c`` is ``k``, is ``pat[c][0]`` shifted, and ``pat[c][0]`` is
    built by doubling shifts.  For each ``x``, every candidate ``g(x)``
    holding ``x`` has a hit set: the AND, over each ``c`` comparable to
    ``x``, of the OR of ``pat[c][k]`` over the choices ``f(c)`` that meet
    ``g(x)`` in the box between ``c`` and ``x`` (memoized per ``c`` and
    box-trace of ``g(x)``; ``c = x`` always hits, as both maps hold ``x``).
    ``good[s]``, the union of the hit sets of the candidates of at most
    ``s`` elements, holds each ``f`` that some ``g(x)`` of size at most
    ``s`` serves at ``x``; ``good[n]`` holds every ``f``, as the full set
    meets each ``f(c) ∩ box`` in ``c``.  The table is the least ``b`` for
    which the ``good[b]`` of every ``x`` share an ``f``: an exhaustive sweep
    of all pairs.  Each element ANDs sets of ``K**n`` bits for each of its
    ``2**(n - 1)`` candidates, and :data:`ORACLE_CELL_BUDGET` caps that
    product.

    The cache is unbounded but small: one int per isomorphism class and
    capacity, and posets up to ``ORACLE_MAX_ELEMENTS`` elements fall into
    88 classes.
    """
    n = len(rows)
    down = [sum(1 << x for x in range(n) if rows[x] >> y & 1) for y in range(n)]
    cands = [_exact_size_choices(n, x, a) for x in range(n)]
    K = len(cands[0])
    if K**n << (n - 1) > ORACLE_CELL_BUDGET:
        raise SizeExceeded(f"oracle table would need {K}**{n} * 2**{n - 1} cells")
    every = (1 << K**n) - 1
    pat = []
    for c in range(n):
        zero, span = (1 << K**c) - 1, K ** (c + 1)
        while span < K**n:
            zero |= zero << span
            span *= 2
        pat.append([(zero & every) << (k * K**c) for k in range(K)])
    meets = [every] * (n + 1)
    for x in range(n):
        boxes = [(c, rows[c] & down[x] | rows[x] & down[c]) for c in range(n) if c != x]
        boxes = [(c, box) for c, box in boxes if box]
        union = {}
        good = [0] * (n + 1)
        for g in range(1 << n):
            if not g >> x & 1:
                continue
            hit = every
            for c, box in boxes:
                key = c, box & g
                if key not in union:
                    union[key] = 0
                    for k, f in enumerate(cands[c]):
                        if f & box & g:
                            union[key] |= pat[c][k]
                hit &= union[key]
            good[g.bit_count()] |= hit
        for s in range(1, n + 1):
            good[s] |= good[s - 1]
        meets = [m & gd for m, gd in zip(meets, good)]
    return next(b for b in range(1, n + 1) if meets[b])


def brute_feasible(P: Poset, cap: tuple[int, int]) -> bool:
    """Exhaustive feasibility decision for capacities ``(a, b)``."""
    a, b = check_capacities(cap)
    if P.n > ORACLE_MAX_ELEMENTS:
        raise SizeExceeded(f"oracle capped at {ORACLE_MAX_ELEMENTS} elements, got {P.n}")
    if P.n == 0:
        return True
    return _needed_g_table(_canonical_rows(P), min(a, P.n)) <= b


def brute_frontier(P: Poset, max_size: int = ORACLE_MAX_ELEMENTS):
    """Pareto-minimal feasible capacities, read off the boundary tables by
    the row walk of :func:`fnlab.fnmaps.search.frontier`.

    Row ``a``'s table is the least feasible ``b``, and ``(a, b)`` is kept
    when ``b`` drops below the last kept ``b``.  Feasibility is symmetric
    in the two capacities, so the walk stops at the first row whose table
    is at most ``a``: every Pareto point past that row is the mirror of one
    already kept.  The kept points and their mirrors are returned sorted.
    """
    check_count(max_size, "oracle element cap")
    if P.n > max_size:
        raise SizeExceeded(f"oracle capped at {max_size} elements, got {P.n}")
    if P.n == 0:
        return ((1, 1),)
    rows = _canonical_rows(P)
    points = []
    for a in range(1, P.n + 1):
        b = _needed_g_table(rows, a)
        if not points or b < points[-1][1]:
            points.append((a, b))
        if b <= a:
            break
    return tuple(sorted({(b, a) for a, b in points} | set(points)))


def brute_pair_product_feasible(P: Poset, cap) -> bool:
    """Literal joint enumeration of all exact-size ``(f, g)`` assignments,
    each checked by the naive verifier.  Tiny posets only; exists to certify
    the decomposed oracle."""
    a, b = check_capacities(cap)
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
