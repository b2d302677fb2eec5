"""Independent brute-force references.

Everything here re-derives its answers from first principles and shares no
verification or search code with the optimized kernels; agreement between
the two sides is what the differential tests check.  None of it is meant to
be fast beyond desk scale.

Feasibility does not depend on labels, so the feasibility tables are cached
per isomorphism class: each is keyed on a canonical relabeling of the poset
(:func:`_canonical_rows`), and the 4231 labeled 5-element posets need only
63 classes' tables.  numpy (the ``oracle`` extra) is imported by the table
builder alone, so that importing this module (and the CLI) stays cheap and
works without it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, groupby, permutations, product

from .boolalg import CoproductAlgebra
from .errors import FnLabError, SizeExceeded
from .fnmaps.core import CapacityPair
from .poset import Poset, SubsetView, _poset_from_up_rows, bits_of

ORACLE_MAX_ELEMENTS = 5
ORACLE_CELL_BUDGET = 2**24

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


def enumerate_posets(n: int, max_size: int = ORACLE_MAX_ELEMENTS):
    """All labeled posets on ``n`` elements, in a fixed enumeration order.

    Reflexivity and antisymmetry are built in by choosing one of three
    states per unordered pair (below, above, incomparable); transitivity is
    filtered by a direct scan.  Enumeration is labeled, not
    up-to-isomorphism.
    """
    if n > max_size:
        raise SizeExceeded(f"refusing to enumerate posets on {n} > {max_size} elements")
    pairs = list(combinations(range(n), 2))
    for states in product((0, 1, 2), repeat=len(pairs)):
        rows = [1 << x for x in range(n)]
        for (lo, hi), state in zip(pairs, states):
            if state == 1:
                rows[lo] |= 1 << hi
            elif state == 2:
                rows[hi] |= 1 << lo
        transitive = True
        for x in range(n):
            acc = rows[x]
            for y in bits_of(acc):
                if rows[y] & ~acc:
                    transitive = False
                    break
            if not transitive:
                break
        if transitive:
            yield _poset_from_up_rows(n, rows)


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
def _needed_g_table(rows: tuple[int, ...], a: int, cell_budget: int) -> int:
    """Smallest worst-case ``g`` image size over all exact-``a`` choices of
    ``f`` on the poset with up-rows ``rows`` (a key from
    :func:`_canonical_rows`), by exhaustive tensor enumeration; 127 when no
    ``f`` works.

    For a fixed ``f`` the two interpolation clauses decompose per element:
    ``g(x)`` must hit ``f(p) ∩ [p, x]`` for every ``p <= x`` and
    ``f(q) ∩ [x, q]`` for every ``q >= x``.  The tensor holds, per element,
    the least hitting-set size as a function of the relevant ``f`` choices;
    broadcasting the elementwise maximum over the joint ``f`` space and
    taking the minimum is therefore an exhaustive sweep of all pairs.
    """
    try:
        import numpy as np
    except ImportError:
        raise FnLabError("the oracle tables need numpy: install fnlab[oracle]") from None

    n = len(rows)
    P = _poset_from_up_rows(n, list(rows))
    cands = [_exact_size_choices(n, x, a) for x in range(n)]
    K = len(cands[0]) if n else 1
    if K**n > cell_budget:
        raise SizeExceeded(f"oracle tensor would need {K}**{n} cells")
    INF = 127
    subsets = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    per_element = []
    for x in range(n):
        comp = [c for c in range(n) if P.leq(c, x) or P.leq(x, c)]
        shape = tuple(K if c in comp else 1 for c in range(n))
        need = np.full(shape, INF, dtype=np.int16)
        own = [S for S in subsets if S >> x & 1]
        for S in own:
            if not (need == INF).any():
                break
            ok = np.ones(shape, dtype=bool)
            for c in comp:
                boxes = []
                if P.leq(c, x):
                    boxes.append(P.up[c] & P.down[x])
                if P.leq(x, c):
                    boxes.append(P.up[x] & P.down[c])
                vec = np.array(
                    [all(S & fc & box for box in boxes) for fc in cands[c]],
                    dtype=bool,
                )
                ok &= vec.reshape(tuple(K if cc == c else 1 for cc in range(n)))
            size = bin(S).count("1")
            need = np.where(ok & (need == INF), np.int16(size), need)
        per_element.append(need)
    if not per_element:
        return 0
    joint = per_element[0]
    for arr in per_element[1:]:
        joint = np.maximum(joint, arr)
    return int(joint.min())


def brute_feasible(
    P: Poset,
    cap: CapacityPair | tuple[int, int],
    max_size: int = ORACLE_MAX_ELEMENTS,
    cell_budget: int = ORACLE_CELL_BUDGET,
) -> bool:
    """Exhaustive feasibility decision for capacities ``(a, b)``."""
    a, b = CapacityPair(*cap).check()
    if P.n > max_size:
        raise SizeExceeded(f"oracle capped at {max_size} elements, got {P.n}")
    if P.n == 0:
        return True
    return _needed_g_table(_canonical_rows(P), min(a, P.n), cell_budget) <= b


def brute_frontier(P: Poset, max_size: int = ORACLE_MAX_ELEMENTS):
    """Pareto-minimal feasible capacities straight from the boundary table."""
    if P.n > max_size:
        raise SizeExceeded(f"oracle capped at {max_size} elements, got {P.n}")
    if P.n == 0:
        return ((1, 1),)
    rows = _canonical_rows(P)
    betas = {a: _needed_g_table(rows, a, ORACLE_CELL_BUDGET) for a in range(1, P.n + 1)}
    points = []
    prev = None
    for a in sorted(betas):
        if prev is None or betas[a] < prev:
            points.append((a, betas[a]))
        prev = betas[a]
    return tuple(sorted({(b, a) for a, b in points} | set(points)))


def brute_pair_product_feasible(P: Poset, cap, max_size: int = 3) -> bool:
    """Literal joint enumeration of all exact-size ``(f, g)`` assignments,
    each checked by the naive verifier.  Tiny posets only; exists to certify
    the decomposed oracle."""
    a, b = CapacityPair(*cap).check()
    n = P.n
    if n > max_size:
        raise SizeExceeded(f"joint enumeration capped at {max_size} elements")
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


def fixpoint_subalgebra(k: int, gens, max_size: int = 2**16) -> frozenset[int]:
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
            if len(elems) > max_size:
                raise SizeExceeded("fixpoint closure exceeded cap")
    return frozenset(elems)
