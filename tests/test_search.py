import random
from functools import lru_cache
from hashlib import sha256
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fnlab import FnPair, Frontier, feasible, frontier, search_pair, verify_pair
from fnlab import serialize as ser
from fnlab.cli import main
from fnlab.errors import BudgetExceeded, InvalidArgument, SizeExceeded
from fnlab.fnmaps import search as search_module
from fnlab.fnmaps.core import check_capacities
from fnlab.fnmaps.search import MAX_CANDIDATES
from fnlab.gen import random_poset
from fnlab.boolalg import powerset_algebra
from fnlab.oracle import (
    brute_feasible,
    brute_frontier,
    enumerate_posets,
    reference_valid_pair,
)
from fnlab.poset import antichain, bits_of, chain, diamond, poset_from_covers
from helpers import masks_of, sets_of

# Frontiers past the oracle's n <= 5 reach, frozen from the search. A MILP
# model of the same problem, solved separately, gave the same points, except
# where an entry says otherwise.
FROZEN_BEYOND_ORACLE = {
    "chain_8": (chain(8), ((1, 8), (2, 4), (3, 3), (4, 2), (8, 1))),
    "chain_10": (chain(10), ((1, 10), (2, 5), (3, 3), (5, 2), (10, 1))),
    "powerset_3": (
        powerset_algebra(3).as_poset(),
        ((1, 8), (2, 4), (3, 3), (4, 2), (8, 1)),
    ),
    # a decided 16-element walk; no second engine has confirmed its points
    # yet (ROADMAP C)
    "random_16": (
        random_poset(16, random.Random(0), 0.2),
        ((1, 11), (2, 4), (3, 3), (4, 2), (11, 1)),
    ),
}
# sha256 of the outcomes of ``witness_log``, frozen from the search: a change
# to the value order, the node count or any witness changes it
WITNESS_LOG_SHA256 = "06fb3feb7c3bfdeb633364d541d3356cb1331a83854f2d01feaabc113d882856"


def _widest_cone(P):
    """The proved a = 1 row of every frontier: ``b = max |up[x] | down[x]|``,
    1 on the empty poset."""
    return max(((P.up[x] | P.down[x]).bit_count() for x in range(P.n)), default=1)


class TestSearchPair:
    def test_antichain_singletons(self):
        got = search_pair(antichain(3), (1, 1))
        assert got is not None
        assert got.f == (1, 2, 4) and got.g == (1, 2, 4)

    def test_chain2_tight_infeasible(self):
        assert search_pair(chain(2), (1, 1)) is None

    def test_chain2_forced_form(self):
        got = search_pair(chain(2), (1, 2))
        assert got is not None
        assert got.f == (0b01, 0b10) and got.g == (0b11, 0b11)

    def test_caps_respected_and_valid(self):
        got = search_pair(diamond(), (2, 2))
        assert got is not None
        a, b = got.capacities()
        assert a <= 2 and b <= 2
        assert verify_pair(got).valid

    def test_deterministic(self):
        first = search_pair(diamond(), (2, 3))
        second = search_pair(diamond(), (2, 3))
        assert first == second

    def test_budget_exceeded_distinct_from_none(self):
        with pytest.raises(BudgetExceeded):
            search_pair(chain(4), (2, 2), node_budget=3)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            search_pair(chain(2), (0, 1))

    @pytest.mark.parametrize("cap", [(2.5, 3), ("2", 3), (True, 2), (2, False)])
    def test_capacities_must_be_plain_ints(self, cap):
        with pytest.raises(InvalidArgument):
            search_pair(chain(3), cap)
        with pytest.raises(InvalidArgument):
            feasible(chain(3), cap)
        with pytest.raises(InvalidArgument):
            brute_feasible(chain(3), cap)

    def test_capacities_are_a_plain_tuple(self):
        cap = check_capacities([2, 3])
        assert type(cap) is tuple and cap == (2, 3)
        got = FnPair(chain(2), masks_of([{0, 1}, {1}]), masks_of([{0}, {1}])).capacities()
        assert type(got) is tuple and got == (2, 1)

    @pytest.mark.parametrize("budget", [2.5, "2", True, 10.0**6])
    def test_node_budget_must_be_a_plain_int(self, budget):
        with pytest.raises(InvalidArgument):
            search_pair(chain(3), (2, 2), budget)
        with pytest.raises(InvalidArgument):
            feasible(chain(3), (2, 2), budget)
        with pytest.raises(InvalidArgument):
            frontier(chain(3), budget)

    def test_empty_poset(self):
        got = search_pair(chain(0), (1, 1))
        assert got == FnPair(chain(0), (), ())

    def test_depth_beyond_recursion_limit(self):
        # 1200 slots: deeper than the interpreter's default recursion limit
        P = antichain(600)
        singletons = tuple(1 << x for x in range(600))
        assert search_pair(P, (1, 1)) == FnPair(P, singletons, singletons)

    def test_oversized_query_refused(self):
        # 256 * C(255, 127) candidate sets per map; listing them never ends
        with pytest.raises(SizeExceeded):
            search_pair(chain(256), (128, 128))
        with pytest.raises(SizeExceeded):  # one map over the cap is enough
            search_pair(chain(256), (1, 128))
        assert 20 * comb(19, 9) > MAX_CANDIDATES
        with pytest.raises(SizeExceeded):
            search_pair(chain(20), (2, 10))

    def test_largest_sixteen_element_query_allowed(self):
        assert 16 * comb(15, 7) <= MAX_CANDIDATES
        got = search_pair(antichain(16), (8, 8))
        assert got is not None and got.capacities() == (8, 8)


def reference_search(P, cap, node_budget):
    """The search with the per-box arc revision that the element-mask
    kernel replaced: same branching, value order and node count."""
    a, b = cap
    n = P.n
    cands, contains = [], []
    for x in range(n):
        for size in (min(a, n), min(b, n)):
            others = [i for i in range(n) if i != x]
            cs = [(1 << x) | sum(1 << i for i in c) for c in combinations(others, size - 1)]
            cands.append(cs)
            contains.append([sum(1 << i for i, m in enumerate(cs) if m >> r & 1) for r in range(n)])
    arcs = [[] for _ in range(2 * n)]
    for x in range(n):
        for y in bits_of((P.up[x] | P.down[x]) & ~(1 << x)):
            box = list(bits_of(P.up[x] & P.down[y] | P.up[y] & P.down[x]))
            arcs[2 * y + 1].append((2 * x, box))
            arcs[2 * y].append((2 * x + 1, box))

    def revise(dom, pending):
        while pending:
            v = pending.pop()
            dv, cv = dom[v], contains[v]
            for u, box in arcs[v]:
                cu = contains[u]
                support = 0
                for r in box:
                    if cv[r] & dv:
                        support |= cu[r]
                du = dom[u] & support
                if du != dom[u]:
                    if not du:
                        return False
                    dom[u] = du
                    if u not in pending:
                        pending.append(u)
        return True

    nodes = 0

    def walk(dom, free):
        nonlocal nodes
        if not free:
            return dom
        u = min(free, key=lambda s: dom[s].bit_count())
        rest = [s for s in free if s != u]
        for i in bits_of(dom[u]):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(nodes, node_budget)
            child = dom.copy()
            child[u] = 1 << i
            if revise(child, [u]):
                found = walk(child, rest)
                if found is not None:
                    return found
        return None

    dom = [(1 << len(c)) - 1 for c in cands]
    if n == 0 or not revise(dom, list(range(2 * n))):
        return FnPair(P, (), ()) if n == 0 else None
    found = walk(dom, list(range(2 * n)))
    if found is None:
        return None
    images = [c[d.bit_length() - 1] for c, d in zip(cands, found)]
    return FnPair(P, tuple(images[0::2]), tuple(images[1::2]))


def outcome(search, P, cap, node_budget):
    """The witness or ``None``, or the node count where the budget ran out."""
    try:
        return search(P, cap, node_budget)
    except BudgetExceeded as e:
        return ("budget", e.nodes)


class TestAgainstPerBoxReference:
    @given(
        st.integers(0, 10**6),
        st.integers(1, 9),
        st.lists(st.integers(3, 1000), min_size=1, max_size=3),
    )
    @settings(max_examples=20)
    def test_witnesses_and_budget_points(self, seed, n, budgets):
        P = random_poset(n, random.Random(seed))
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for budget in (10**6, *budgets):
                    got = outcome(search_pair, P, (a, b), budget)
                    assert got == outcome(reference_search, P, (a, b), budget), (a, b, budget)


class TestWitnessFreeFeasibility:
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("n", range(1, 10))
    def test_feasible_matches_search_pair(self, n, seed):
        """``feasible`` decides as ``search_pair`` does and runs out of
        budget at the same node."""
        P = random_poset(n, random.Random(f"{n}/{seed}"))
        for a, b in product(range(1, n + 1), repeat=2):
            for budget in (3, 40, 10**6):
                want = outcome(search_pair, P, (a, b), budget)
                if not isinstance(want, tuple):  # not a budget cut
                    want = want is not None
                assert outcome(feasible, P, (a, b), budget) == want, (a, b, budget)


class TestRestart:
    """``feasible`` restarts a query still open after ``_RESTART_NODES``
    nodes on failure-weighted branching; no query the tests pin elsewhere
    runs that long, so these move the restart down to reach it."""

    @pytest.mark.parametrize("restart", [0, 1, 7, 64])
    def test_decides_as_search_pair(self, monkeypatch, restart):
        monkeypatch.setattr(search_module, "_RESTART_NODES", restart)
        for seed in range(8):
            n = 1 + seed
            P = random_poset(n, random.Random(f"restart/{seed}"))
            for a, b in product(range(1, n + 1), repeat=2):
                want = search_pair(P, (a, b)) is not None
                assert feasible(P, (a, b)) == want, (seed, a, b)
        for P, points in FROZEN_BEYOND_ORACLE.values():
            assert frontier(P).points == points

    def test_budget_cut_after_the_restart(self, monkeypatch):
        """A budget that runs out after the restart counts the nodes of
        both phases and stops at ``budget + 1``."""
        monkeypatch.setattr(search_module, "_RESTART_NODES", 16)
        budget = 100
        with pytest.raises(BudgetExceeded) as cut:
            feasible(chain(10), (3, 3), budget)
        assert (cut.value.nodes, cut.value.budget) == (budget + 1, budget)

    def test_chain10_hard_queries(self):
        """The two chain(10) queries that run past the restart, decided the
        same way, at the same node, on a second run."""
        P = chain(10)
        for _ in range(2):
            for cap, want, nodes in (((3, 3), True, 1958), ((2, 4), False, 2749)):
                assert outcome(feasible, P, cap, nodes) is want
                assert outcome(feasible, P, cap, nodes - 1) == ("budget", nodes)


def asked(monkeypatch):
    """The caps the walk asks ``feasible``, in order, from now on."""
    caps = []
    ask = search_module.feasible

    def counted(P, cap, node_budget):
        caps.append(cap)
        return ask(P, cap, node_budget)

    monkeypatch.setattr(search_module, "feasible", counted)
    return caps


class TestMirroredQueries:
    """Each row of the walk stops at the diagonal: ``(a, c)`` with ``c < a``
    is the mirror of ``(c, a)``, which row ``c`` decided, so ``feasible`` is
    never asked it."""

    def test_no_mirrored_query(self, monkeypatch):
        caps = asked(monkeypatch)
        for seed in range(40):
            P = random_poset(1 + seed % 5, random.Random(f"mirror/{seed}"))
            assert frontier(P).points == brute_frontier(P)
        assert all(c >= a for a, c in caps), caps

    def test_chain10_skips_its_mirrored_query(self, monkeypatch):
        caps = asked(monkeypatch)
        assert frontier(chain(10)).points == FROZEN_BEYOND_ORACLE["chain_10"][1]
        assert (3, 3) in caps and (3, 2) not in caps
        assert all(c >= a for a, c in caps), caps


class TestHeldMemoBound:
    def test_memo_stays_within_its_bound(self, monkeypatch):
        """A budget-cut query with a small ``held`` memo bound keeps the
        memo within it and ends where the unbounded run ends."""
        P, cap, budget, bound = chain(10), (3, 3), 1000, 64
        search_module._table.cache_clear()
        unbounded = outcome(search_pair, P, cap, budget)
        assert unbounded == ("budget", budget + 1)
        assert len(search_module._table(10, 3)[2]) > bound

        peak = 0

        class Watched(dict):
            def __setitem__(self, key, value):
                nonlocal peak
                super().__setitem__(key, value)
                peak = max(peak, len(self))

        build = search_module._table.__wrapped__

        def watched_table(n, size):
            cands, contains, _, support = build(n, size)
            return cands, contains, Watched(), support

        bits = bound * len(search_module._table(10, 3)[0])
        monkeypatch.setattr(search_module, "_HELD_MEMO_BITS", bits)
        monkeypatch.setattr(search_module, "_table", lru_cache(watched_table))
        assert outcome(search_pair, P, cap, budget) == unbounded
        assert 0 < peak <= bound


class TestUniversalPairs:
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_trivial_and_wellorder_capacities(self, seed, n):
        P = random_poset(n, random.Random(seed))
        assert feasible(P, (n, 1))
        assert feasible(P, (1, n))
        assert feasible(P, (n, n))


class TestAgainstOracle:
    @given(st.integers(0, 10**6), st.integers(1, 5))
    @settings(max_examples=30)
    def test_random_instances(self, seed, n):
        rng = random.Random(seed)
        P = random_poset(n, rng)
        a = rng.randint(1, n)
        b = rng.randint(1, n)
        assert (search_pair(P, (a, b)) is not None) == brute_feasible(P, (a, b))

    def test_all_three_element_posets(self):
        for P in enumerate_posets(3):
            for a in range(1, 4):
                for b in range(1, 4):
                    got = search_pair(P, (a, b))
                    assert (got is not None) == brute_feasible(P, (a, b))
                    if got is not None:
                        ca, cb = got.capacities()
                        assert ca <= a and cb <= b
                        assert verify_pair(got).valid


class TestFrontier:
    def test_antichain(self):
        assert frontier(antichain(3)).points == ((1, 1),)

    def test_chain2(self):
        assert frontier(chain(2)).points == ((1, 2), (2, 1))

    def test_chain4_frozen(self):
        assert frontier(chain(4)).points == ((1, 4), (2, 2), (4, 1))

    def test_diamond_frozen(self):
        assert frontier(diamond()).points == ((1, 4), (2, 2), (4, 1))

    def test_empty_poset(self):
        assert frontier(chain(0)).points == ((1, 1),)

    def test_workers_match_sequential(self):
        for P in (chain(3), diamond()):
            assert frontier(P, workers=2) == frontier(P)

    @given(st.integers(0, 10**6), st.integers(1, 5))
    @settings(max_examples=25)
    def test_properties_and_oracle_match(self, seed, n):
        P = random_poset(n, random.Random(seed))
        fr = frontier(P)
        assert fr.points == brute_frontier(P)
        assert fr.points[0] == (1, _widest_cone(P))
        pts = set(fr.points)
        # symmetric
        assert {(b, a) for a, b in pts} == pts
        # antichain under componentwise order
        for x in pts:
            for y in pts:
                if x != y:
                    assert not (x[0] <= y[0] and x[1] <= y[1])
        # every point is genuinely feasible and one step down is not
        for a, b in pts:
            assert feasible(P, (a, b))
            if b > 1:
                assert not feasible(P, (a, b - 1))
            if a > 1:
                assert not feasible(P, (a - 1, b))


CAP_CUT = "1511640 candidate sets of size 12 exceed cap 1048576"


class TestCapCutWalk:
    """A walk the candidate cap cuts short keeps the rows it confirmed.
    Both tests walk the 20-element star; the second reuses the candidate
    tables the first one built."""

    star = poset_from_covers(20, [(0, i) for i in range(1, 20)])

    def test_size_exceeded_carries_partial(self):
        with pytest.raises(SizeExceeded) as e:
            frontier(self.star)
        assert type(e.value) is SizeExceeded and str(e.value) == CAP_CUT
        assert e.value.partial == ((1, 20), (20, 1))

    def test_cli_prints_confirmed_rows(self, tmp_path, capsys):
        path = tmp_path / "star.json"
        path.write_text(ser.dumps(ser.poset_to_obj(self.star)))
        assert main(["frontier", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == f"1,20\n20,1\n# inconclusive: {CAP_CUT}\n"
        assert captured.err == f"error: {CAP_CUT}\n"


class TestRowOne:
    """The walk reads row ``a = 1`` off the widest cone and asks ``feasible``
    nothing there; the oracle differential in ``TestFrontier`` checks the
    formula against an independent walk of row 1."""

    def test_no_row_one_query(self, monkeypatch):
        caps = asked(monkeypatch)
        posets = [*witness_posets(), chain(0), chain(1), antichain(5), TestCapCutWalk.star]
        for P in posets:
            try:
                points = frontier(P, 2 * 10**6).points
            except SizeExceeded as e:
                points = e.partial
            assert points[0] == (1, _widest_cone(P))
        assert caps and all(a > 1 for a, _ in caps), caps


class TestReach:
    """Walks the candidate cap refused inside row 1 while that row was
    searched."""

    def test_twenty_element_frontier(self):
        # no second engine has confirmed these points yet (ROADMAP R)
        P = random_poset(20, random.Random("20/0.1"), 0.1)
        assert frontier(P).points == ((1, 8), (2, 4), (3, 3), (4, 2), (8, 1))
        # (1, 8) is not searched: its table holds nearly 2**20 candidates
        for cap in ((2, 4), (3, 3)):
            w = search_pair(P, cap)
            assert w is not None and verify_pair(w).valid
            assert reference_valid_pair(P, sets_of(w.f), sets_of(w.g))
        assert search_pair(P, (2, 3)) is None

    def test_twenty_four_elements_cut_at_row_two(self):
        P = random_poset(24, random.Random("24/0.1"), 0.1)
        with pytest.raises(SizeExceeded) as e:
            frontier(P)
        assert str(e.value) == "32449872 candidate sets of size 12 exceed cap 1048576"
        assert e.value.partial == ((1, 13), (13, 1))


class TestBeyondOracle:
    @pytest.mark.parametrize("name", sorted(FROZEN_BEYOND_ORACLE))
    def test_frozen_frontier(self, name):
        P, points = FROZEN_BEYOND_ORACLE[name]
        assert frontier(P).points == points
        assert points[0] == (1, _widest_cone(P))
        for a, b in points:
            w = search_pair(P, (a, b))
            assert w is not None
            ca, cb = w.capacities()
            assert ca <= a and cb <= b
            assert reference_valid_pair(P, sets_of(w.f), sets_of(w.g))
            if a > 1:
                assert search_pair(P, (a - 1, b)) is None
            if b > 1:
                assert search_pair(P, (a, b - 1)) is None

    @pytest.mark.parametrize("seed", [*range(4), "chain"])
    def test_six_element_frontier_matches_oracle(self, seed):
        # chain(6) builds the largest 6-element table the cell budget allows
        P = chain(6) if seed == "chain" else random_poset(6, random.Random(seed))
        assert frontier(P).points == brute_frontier(P, max_size=6)


def logged(run, *args):
    """A frontier's points, a witness's images, ``None``, or where the budget
    ran out with the points confirmed by then."""
    try:
        got = run(*args)
    except BudgetExceeded as e:
        return (e.nodes, e.budget, e.partial)
    if isinstance(got, Frontier):
        return got.points
    return got if got is None else (got.f, got.g)


def witness_posets():
    """The 18 posets of ``witness_log``."""
    posets = [chain(6), chain(7), chain(8), chain(10), powerset_algebra(3).as_poset(), diamond()]
    return posets + [random_poset(6 + i % 5, random.Random(i)) for i in range(12)]


def witness_log():
    """Every outcome of a fixed procedure on 18 posets: the walk at a large
    budget, every capacity pair at a large and at small budgets, and the
    walk at small budgets."""
    log = []
    for P in witness_posets():
        log.append(logged(frontier, P, 2 * 10**6))
        for a, b in product(range(1, P.n + 1), repeat=2):
            for budget in (2 * 10**6, 3, 5, 40, 300):
                log.append(logged(search_pair, P, (a, b), budget))
        for budget in (3, 10, 100, 1000):
            log.append(logged(frontier, P, budget))
    return log


class TestFrozenWitnesses:
    def test_witness_log_hash(self):
        assert sha256(repr(witness_log()).encode()).hexdigest() == WITNESS_LOG_SHA256

    def test_cut_walks_keep_decided_points(self):
        """A walk the budget cuts short carries only points of the decided
        frontier, and always the row-1 point and its mirror."""
        cut = 0
        for P in witness_posets():
            decided = set(frontier(P, 2 * 10**6).points)
            w = _widest_cone(P)
            for budget in (3, 10, 100, 1000):
                try:
                    frontier(P, budget)
                except BudgetExceeded as e:
                    cut += 1
                    assert set(e.partial) <= decided, (P, budget)
                    assert {(1, w), (w, 1)} <= set(e.partial), (P, budget)
        assert cut == 18 + 17 + 3 + 2  # cut walks at budgets 3, 10, 100, 1000

    @pytest.mark.parametrize("n", range(1, 9))
    def test_table_lists_each_elements_sets_in_order(self, n):
        """A slot's candidates, in ascending table index, are the sets that
        hold its element in lexicographic order of the other elements."""
        for size in range(1, n + 1):
            cands, contains, _, _ = search_module._table(n, size)
            for x in range(n):
                others = [i for i in range(n) if i != x]
                listed = [(1 << x) | sum(1 << i for i in c) for c in combinations(others, size - 1)]
                assert [cands[i] for i in bits_of(contains[x])] == listed
