import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fnlab.errors import BudgetExceeded
from fnlab.fnmaps import (
    FnPair,
    Frontier,
    feasible,
    frontier,
    search_pair,
    trivial_pair,
    verify_pair,
    wellorder_map,
)
from fnlab.gen import random_poset
from fnlab.boolalg import powerset_algebra
from fnlab.oracle import (
    brute_feasible,
    brute_frontier,
    enumerate_posets,
    reference_valid_pair,
)
from fnlab.poset import antichain, chain, diamond

# Frontiers past the oracle's n <= 5 reach, frozen from the search. A MILP
# model of the same problem, solved separately, gave the same points.
FROZEN_BEYOND_ORACLE = {
    "chain_8": (chain(8), ((1, 8), (2, 4), (3, 3), (4, 2), (8, 1))),
    "chain_10": (chain(10), ((1, 10), (2, 5), (3, 3), (5, 2), (10, 1))),
    "powerset_3": (
        powerset_algebra(3).as_poset(),
        ((1, 8), (2, 4), (3, 3), (4, 2), (8, 1)),
    ),
}


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

    def test_empty_poset(self):
        got = search_pair(chain(0), (1, 1))
        assert got == FnPair(chain(0), (), ())

    def test_depth_beyond_recursion_limit(self):
        # 1200 slots: deeper than the interpreter's default recursion limit
        P = antichain(600)
        singletons = tuple(1 << x for x in range(600))
        assert search_pair(P, (1, 1)) == FnPair(P, singletons, singletons)


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

    def test_dominates(self):
        fr = Frontier(((1, 2), (2, 1)))
        assert fr.dominates((2, 2)) and not fr.dominates((1, 1))

    @given(st.integers(0, 10**6), st.integers(1, 5))
    @settings(max_examples=25)
    def test_properties_and_oracle_match(self, seed, n):
        P = random_poset(n, random.Random(seed))
        fr = frontier(P)
        assert fr.points == brute_frontier(P)
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


class TestBeyondOracle:
    @pytest.mark.parametrize("name", sorted(FROZEN_BEYOND_ORACLE))
    def test_frozen_frontier(self, name):
        P, points = FROZEN_BEYOND_ORACLE[name]
        assert frontier(P).points == points
        for a, b in points:
            w = search_pair(P, (a, b))
            assert w is not None
            ca, cb = w.capacities()
            assert ca <= a and cb <= b
            fs = [w.f_set(x) for x in range(P.n)]
            gs = [w.g_set(x) for x in range(P.n)]
            assert reference_valid_pair(P, fs, gs)
            if a > 1:
                assert search_pair(P, (a - 1, b)) is None
            if b > 1:
                assert search_pair(P, (a, b - 1)) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_six_element_frontier_matches_oracle(self, seed):
        P = random_poset(6, random.Random(seed))
        assert frontier(P).points == brute_frontier(P, max_size=6)
