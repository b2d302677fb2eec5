"""Exact capacity-bounded pair search and the Pareto frontier walk.

``search_pair`` is a complete search that decides whether a valid pair
within capacities ``(a, b)`` exists and returns a witness when one does;
``feasible`` only decides, and builds no pair.  ``frontier`` reads its
``a = 1`` row off the widest cone ``up[x] | down[x]``, which is proved, and
asks ``feasible`` only from row 2 on, climbing each row up from the
diagonal, so it builds no table above a row's point.
Slot ``2x`` holds ``f(x)`` and slot ``2x + 1`` holds ``g(x)``.  Each map
has one candidate table, every ``size``-subset of the elements in
``combinations`` order; a slot's domain is a bitmask over the indices of
that table, starting as the sets that hold the slot's element.  Validity is
pointwise monotone, so every image may be fixed to its exact capacity
without losing completeness.

Both interpolation clauses are one binary constraint: for comparable
``x != y`` with box ``B = [min, max]``, ``f(x) ∩ g(y) ∩ B`` is non-empty.
The search keeps every domain arc-consistent (AC-3 at the root and after
each assignment), branches on the unassigned slot with the fewest values
left (ties to the least slot index) and tries values least index first, so
the witness is deterministic bit for bit.  Every value tried counts one
node, forced slots included.

Arc revision works on element masks (bitwise arc consistency, after
Lecoutre and Vion).  When slot ``v`` is popped, the union of the candidate
sets left in its domain is one element mask ``held``; the values of a
partner slot ``u`` supported across a box ``B`` are the candidates of ``u``
holding some element of ``held & B``, one OR of per-element candidate
masks.  Both steps are pure functions of a candidate table, so each table
memoizes them, and every slot of a map (of both maps when ``a == b``)
shares its memos: ``held`` keyed by the domain, the support keyed by the
element mask.  The tables and their memos live in the ``lru_cache`` of
``_table``, are shared by every query and walk with the same ``n`` and
capacity, and last as long as that cache entry; a miss that would take a
``held`` memo past ``_HELD_MEMO_BITS`` bits of keys (its domains times the
table's length) clears it first, so one long query on a large table
cannot grow it without end.  The arcs, each box as an element mask,
depend only on the poset and are built once per poset.

Each slot ``v`` also keeps ``last[v]``, the element mask its arcs were last
revised against (residual supports, after Lecoutre and Hemery), copied
with the domains in every node frame.  When ``v`` is popped only the arcs
whose box meets ``gone = last[v] & ~held`` are revised, and ``last[v]``
becomes ``held``; every other arc has the same key ``held & box`` as at its
last revision, so its partner's domain already lies inside that support.
At the root ``last`` is every element: each candidate of a slot holds the
slot's element, which lies in every box of its arcs, so the root domains
already meet that invariant.  A skipped arc could remove no value, and arc
consistency has one greatest fixpoint, so every propagation ends in the
same domains as a full revision would: the branching, the node counts, the
witnesses and the node where a budget runs out do not change.

A walk needs only yes or no, and the fewest-values order has heavy tails
on some queries (``chain(10)`` at ``(3, 3)`` takes 8981 nodes), so
``feasible`` restarts the ones that run long.  It runs the same search
for its first ``_RESTART_NODES`` nodes: every query settled by then is
decided node for node as ``search_pair`` decides it.  A query still open
there goes back to the root and first prunes it by singleton arc
consistency (SAC-1, after Debruyne and Bessière): slot by slot in index
order, each value of a slot holding more than one is probed by one
revision on copies of the domains and ``last``, least value first, and
the values whose probe wipes out leave the root domain, which is revised
again; an emptied domain refutes the query.  Passes repeat until one
removes nothing or ``_RESTART_NODES`` probes are spent, and each probe
counts one node.  The search then starts over from the pruned root and
branches on the free slot with the least domain size over failure weight
(dom/wdeg, after Boussemart, Hemery, Lecoutre and Sais), ties to the
least slot index.  A slot's weight starts at 1, and each wipeout adds 1
to the weights of the emptied slot and of the slot it was revised from;
the restart resets them to 1 after the probes, so its first branch is
the plain search's from the pruned root.  ``chain(10)`` at ``(3, 3)``
then takes 2678 nodes in all and at ``(2, 4)`` 1117, and ``chain(14)``
at ``(2, 6)`` is refuted in 4001.  SAC removes only values that no
solution holds, so the search stays complete and no answer changes.
Nodes count across all phases, and the budget runs out at ``budget + 1``
as before.

``MAX_CANDIDATES`` caps the candidates of a map summed over its slots,
``n * C(n - 1, size - 1)`` (``size`` times its table's length); a query
over it is refused with :class:`SizeExceeded` before any table is built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

from ..errors import BudgetExceeded, SizeExceeded
from ..poset import Poset, bits_of, check_count
from .core import FnPair, check_capacities

DEFAULT_NODE_BUDGET = 10**8
# candidates per map summed over its slots, n * C(n - 1, size - 1): every
# query on at most 19 elements is within it (19 * C(18, 9) = 923780), n = 20
# at size 10 is not
MAX_CANDIDATES = 2**20
# bits of domain keys a table's held memo may store (a key has one bit per
# candidate) before a miss clears it
_HELD_MEMO_BITS = 2**24
# nodes a feasibility query runs on the fewest-values order before it
# restarts from the root, pruned by at most as many SAC probes, on
# failure-weighted branching
_RESTART_NODES = 1024

_Table = tuple[tuple[int, ...], tuple[int, ...], dict[int, int], dict[int, int]]


@lru_cache(maxsize=16)
def _table(n: int, size: int) -> _Table:
    """Every ``size``-element subset of ``range(n)`` as a mask, in
    ``combinations`` order; for each element ``r`` the bitmask of the indices
    of those that hold ``r``; and the memos ``held`` (domain -> element mask)
    and support (element mask -> domain)."""
    cands = tuple(sum(1 << i for i in combo) for combo in combinations(range(n), size))
    contains = [0] * n
    for i, m in enumerate(cands):
        for r in bits_of(m):
            contains[r] |= 1 << i
    return cands, tuple(contains), {}, {}


@lru_cache(maxsize=1)
def _arcs(P: Poset) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each slot ``v``: ``(u, box)`` for each slot ``u`` whose support
    depends on ``v``, ``box`` the element mask of the interval between
    their two elements."""
    arcs = [[] for _ in range(2 * P.n)]
    up, down = P.up, P.down
    for x in range(P.n):
        for y in bits_of((up[x] | down[x]) & ~(1 << x)):
            box = up[x] & down[y] | up[y] & down[x]
            arcs[2 * y + 1].append((2 * x, box))
            arcs[2 * y].append((2 * x + 1, box))
    return tuple(map(tuple, arcs))


def _propagation(P: Poset, sizes: tuple[int, int]):
    """The root domains, the root element masks ``last`` (every element), the
    ``revise(dom, last, pending)`` closure, each slot's candidates and each
    slot's failure weight (1, plus 1 for each wipeout it took part in) for a
    query on ``P`` with images of sizes ``sizes``."""
    n = P.n
    # slot 2x draws from the f table and slot 2x + 1 from the g table;
    # contains[u][r] is the bitmask of the indices of the sets holding r
    tables = [_table(n, size) for size in sizes] * n
    cands, contains, held_memo, support_memo = zip(*tables)
    # the domains a held memo may store before a miss clears it
    held_max = [_HELD_MEMO_BITS // len(c) for c in cands]
    arcs = _arcs(P)
    weight = [1] * (2 * n)

    def revise(dom: list[int], last: list[int], pending: list[int]) -> bool:
        """Make ``dom`` arc-consistent after the slots in ``pending``
        shrank, revising only the arcs whose box lost an element since
        ``last``; False when some domain empties."""
        while pending:
            v = pending.pop()
            dv = dom[v]
            try:
                held = held_memo[v][dv]
            except KeyError:
                cv = contains[v]
                held = 0
                for r in range(n):
                    if cv[r] & dv:
                        held |= 1 << r
                if len(held_memo[v]) >= held_max[v]:
                    held_memo[v].clear()
                held_memo[v][dv] = held
            gone = last[v] & ~held
            if not gone:
                continue
            last[v] = held
            for u, box in arcs[v]:
                if not box & gone:
                    continue
                key = held & box
                try:
                    support = support_memo[u][key]
                except KeyError:
                    cu = contains[u]
                    support = 0
                    for r in bits_of(key):
                        support |= cu[r]
                    support_memo[u][key] = support
                du = dom[u]
                if du & support != du:
                    du &= support
                    if not du:
                        weight[u] += 1
                        weight[v] += 1
                        return False
                    dom[u] = du
                    if u not in pending:
                        pending.append(u)
        return True

    # a slot's candidates are the sets holding its element
    dom = [c[u >> 1] for u, c in enumerate(contains)]
    return dom, [(1 << n) - 1] * (2 * n), revise, cands, weight


def _root_frame(dom: list[int], last: list[int]):
    """The first frame of a search from ``dom``: it branches on the slot
    with the fewest values, ties to the least slot index."""
    u = min(range(len(dom)), key=[d.bit_count() for d in dom].__getitem__)
    return dom, last, [v for v in range(len(dom)) if v != u], u, dom[u]


def _singleton_prune(
    dom: list[int], last: list[int], revise, nodes: int, node_budget: int
) -> int | None:
    """Prune the root ``dom`` and ``last`` in place by singleton arc
    consistency and return the node count after its probes, or None when a
    domain empties.  Each value of each slot holding more than one, in slot
    and value order, is probed by one ``revise`` on copies of ``dom`` and
    ``last``, counting one node; the values whose probe wipes out leave the
    slot's domain, which is revised again.  Passes repeat until one removes
    nothing or ``_RESTART_NODES`` probes are spent."""
    stop = nodes + _RESTART_NODES
    pruned = True
    while pruned and nodes < stop:
        pruned = False
        for v in range(len(dom)):
            values, gone = dom[v], 0
            if not values & (values - 1):
                continue
            while values and nodes < stop:
                value = values & -values
                values ^= value
                nodes += 1
                if nodes > node_budget:
                    raise BudgetExceeded(nodes, node_budget)
                probe, seen = dom.copy(), last.copy()
                probe[v] = value
                if not revise(probe, seen, [v]):
                    gone |= value
            if gone:
                pruned = True
                dom[v] ^= gone
                # a slot whose every probe wiped out has arcs, and emptied
                # it wipes out their partners
                if not revise(dom, last, [v]):
                    return None
    return nodes


def _search(
    P: Poset, cap: tuple[int, int], node_budget: int, restart: bool
) -> list[int] | None:
    """The images of a valid pair within ``cap``, slot by slot, or None.
    With ``restart`` a query still open after ``_RESTART_NODES`` nodes starts
    over from the root, pruned by singleton arc consistency, and branches on
    failure weight."""
    a, b = check_capacities(cap)
    check_count(node_budget, "node budget")
    n = P.n
    if n == 0:
        return []
    sizes = min(a, n), min(b, n)
    for size in sizes:
        count = n * comb(n - 1, size - 1)
        if count > MAX_CANDIDATES:
            raise SizeExceeded(
                f"{count} candidate sets of size {size} exceed cap {MAX_CANDIDATES}"
            )
    dom, last, revise, cands, weight = _propagation(P, sizes)
    if not revise(dom, last, list(range(2 * n))):
        return None
    # depth first over explicit frames (domains, element masks, slots still
    # free, the slot branched on, its values not yet tried as a bitmask), so
    # the depth is not bounded by the recursion limit
    nodes = 0
    restart_at = _RESTART_NODES if restart else None
    weighted = False
    # no frame changes the root's lists, so the restart prunes them in place
    root = dom, last
    stack = [_root_frame(dom, last)]
    while stack:
        if nodes == restart_at:
            dom, last = root
            nodes = _singleton_prune(dom, last, revise, nodes, node_budget)
            if nodes is None:
                return None
            # fresh weights are all 1, so the pruned root branches on the
            # same slot under either rule
            weight[:] = [1] * (2 * n)
            weighted = True
            stack = [_root_frame(dom, last)]
        dom, last, free, u, untried = stack.pop()
        value = untried & -untried
        if untried != value:
            stack.append((dom, last, free, u, untried ^ value))
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceeded(nodes, node_budget)
        child, seen = dom.copy(), last.copy()
        child[u] = value
        if not revise(child, seen, [u]):
            continue
        if not free:
            return [c[d.bit_length() - 1] for c, d in zip(cands, child)]
        if weighted:
            u = min(free, key=[d.bit_count() / w for d, w in zip(child, weight)].__getitem__)
        else:
            u = min(free, key=[d.bit_count() for d in child].__getitem__)
        rest = free.copy()
        rest.remove(u)
        stack.append((child, seen, rest, u, child[u]))
    return None


def search_pair(
    P: Poset,
    cap: tuple[int, int],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> FnPair | None:
    """Find a valid pair with ``|f(x)| <= a`` and ``|g(x)| <= b``, or prove
    there is none.

    Complete within the capacity bounds; raises :class:`BudgetExceeded` when
    the node budget runs out, which is reported distinctly from ``None``,
    and :class:`SizeExceeded` when a map's candidates, summed over its
    slots, would exceed ``MAX_CANDIDATES``.

    Unlike :func:`feasible` it never restarts: the witness is the first leaf
    of one walk in one fixed order.  So a point the frontier walk confirmed
    can take far longer to get a witness for; on
    ``random_poset(24, random.Random("24/0.1"), 0.1)`` at ``(2, 4)``,
    ``feasible`` answers True in about a second, while this search runs out
    of ``2·10^6`` nodes only after twenty times as long.
    """
    images = _search(P, cap, node_budget, restart=False)
    return None if images is None else FnPair(P, tuple(images[0::2]), tuple(images[1::2]))


def feasible(
    P: Poset,
    cap: tuple[int, int],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> bool:
    """Whether a valid pair within ``cap`` exists, refused as
    :func:`search_pair` refuses.  A query still open after
    ``_RESTART_NODES`` nodes prunes the root by singleton arc consistency,
    spending at most ``_RESTART_NODES`` probes of one node each, and
    restarts from it on failure-weighted branching; ``chain(14)`` at
    ``(2, 6)`` is refuted in 4001 nodes, where the search without the
    probes is still open after ``10**5``."""
    return _search(P, cap, node_budget, restart=True) is not None


class Frontier(NamedTuple):
    """Pareto-minimal feasible capacity pairs, sorted by first component.

    The point set is an antichain under componentwise order and is symmetric
    under swapping the two capacities.
    """

    points: tuple[tuple[int, int], ...]


def frontier(
    P: Poset,
    node_budget: int = DEFAULT_NODE_BUDGET,
    workers: int = 1,
) -> Frontier:
    """Walk the monotone feasibility boundary and return its Pareto points.

    Feasibility is monotone in both capacities and symmetric under swapping
    them, so the walk only descends the boundary for ``a`` up to the
    diagonal and mirrors the result.  Row ``a = 1`` asks no query: there
    ``f(x) = {x}`` forces ``g(x)`` to hold ``cone(x) = up[x] | down[x]``,
    and ``g(x) = cone(x)`` is valid, so its point is ``(1, w)`` with ``w``
    the widest cone.  Row ``a = 2, 3, ...`` asks :func:`feasible` at
    ``(a, a), (a, a + 1), ...`` below the last row's point ``b`` and keeps
    the first feasible ``(a, c)``; when none is, the boundary does not drop
    there.  Feasibility is monotone in ``b``, so ``c`` is the row's least
    feasible ``b``, and no table is built for a size above it.  A row
    starts at the diagonal: below it, ``(a, c)`` with ``c < a`` is the
    mirror of ``(c, a)``, which row ``c`` already decided, so every point it
    could add is the mirror of one the walk already has, and no such query
    is asked.
    The walk ends at the first row whose point is on the diagonal.
    ``workers`` has no effect beyond being checked to be a plain int of at
    least 1; it stays only because the benchmark's ``frontier`` and
    ``oracle`` workloads still pass ``workers=1``.
    When the budget or the candidate cap cuts the walk short, the
    :class:`SizeExceeded` (or :class:`BudgetExceeded`) carries the boundary
    points confirmed so far as ``partial``, which always holds ``(1, w)``
    and its mirror.
    """
    check_count(node_budget, "node budget")
    check_count(workers, "worker count", 1)
    # row 1 asks no query (see above); the empty poset's frontier is (1, 1)
    a, b = 1, max(((P.up[x] | P.down[x]).bit_count() for x in range(P.n)), default=1)
    # (a, b) for each a where the boundary drops, up to the diagonal
    points = [(a, b)]

    def mirrored() -> tuple[tuple[int, int], ...]:
        return tuple(sorted({*points, *((b, a) for a, b in points)}))

    try:
        while b > a:
            a += 1
            c = a
            while c < b and not feasible(P, (a, c), node_budget):
                c += 1
            if c < b:
                b = c
                points.append((a, b))
    except SizeExceeded as e:  # BudgetExceeded too
        # boundary points confirmed so far are true frontier points
        e.partial = mirrored()
        raise
    return Frontier(mirrored())
