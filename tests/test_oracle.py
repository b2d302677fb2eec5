import hashlib
import random

import pytest

from fnlab import FnPair, frontier, verify_pair, verify_single
from fnlab.errors import InvalidArgument, SizeExceeded
from fnlab.gen import random_poset
from fnlab.oracle import (
    ORACLE_CELL_BUDGET,
    _canonical_rows,
    _needed_g_table,
    brute_feasible,
    brute_frontier,
    brute_minmax_in_subset,
    brute_pair_product_feasible,
    enumerate_posets,
    reference_valid_pair,
)
from fnlab.poset import SubsetView, _poset_from_rows, antichain, bits_of, chain, diamond
from helpers import LABELED_POSET_COUNTS, random_total_map, sets_of

# Unlabeled poset counts (OEIS A000112; Brinkmann & McKay 2002): one
# canonical key per isomorphism class.
UNLABELED_POSET_COUNTS = (1, 1, 2, 5, 16, 63)


def relabel(P, perm):
    """``P`` with element ``x`` renamed ``perm[x]``."""
    up = [0] * P.n
    down = [0] * P.n
    for x in range(P.n):
        up[perm[x]] = sum(1 << perm[y] for y in bits_of(P.up[x]))
        down[perm[x]] = sum(1 << perm[y] for y in bits_of(P.down[x]))
    return _poset_from_rows(P.n, up, down)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(5))
    def test_counts_match_known_sequence(self, n):
        assert sum(1 for _ in enumerate_posets(n)) == LABELED_POSET_COUNTS[n]

    def test_all_emitted_are_posets(self):
        """For every n <= 5, each emitted relation is distinct and, by a
        pairwise scan, reflexive, antisymmetric and transitive, with
        ``down`` its transpose."""
        for n in range(6):
            seen = set()
            for P in enumerate_posets(n):
                seen.add(P.up)
                assert P.n == n
                for x in range(n):
                    assert P.up[x] >> x & 1
                    for y in bits_of(P.up[x] & ~(1 << x)):
                        assert not P.up[y] >> x & 1
                    for y in bits_of(P.up[x]):
                        assert not P.up[y] & ~P.up[x]
                assert P.down == tuple(
                    sum(1 << x for x in range(n) if P.up[x] >> y & 1) for y in range(n)
                )
            assert len(seen) == LABELED_POSET_COUNTS[n]

    def test_order_frozen(self):
        """The enumeration order and rows, frozen: the benchmark samples
        the 5-element posets by index."""
        h = hashlib.sha256()
        for n in range(6):
            for P in enumerate_posets(n):
                h.update(repr((P.up, P.down)).encode())
        assert h.hexdigest() == "c9046278ffc9416679ad9ffa4991711df7ec355b1a19661d0a0f49f4eb02271b"

    def test_size_guard(self):
        with pytest.raises(SizeExceeded):
            next(enumerate_posets(6))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            next(enumerate_posets(-1))


class TestBruteFeasible:
    def test_chain2_one_one(self):
        assert not brute_feasible(chain(2), (1, 1))

    def test_chain2_one_two(self):
        assert brute_feasible(chain(2), (1, 2))

    def test_antichain2_one_one(self):
        assert brute_feasible(antichain(2), (1, 1))

    def test_symmetric(self):
        for a in range(1, 5):
            for b in range(1, 5):
                assert brute_feasible(diamond(), (a, b)) == brute_feasible(
                    diamond(), (b, a)
                )

    def test_size_guard(self):
        with pytest.raises(SizeExceeded):
            brute_feasible(chain(6), (1, 1))

    def test_matches_literal_product_enumeration(self):
        for n in range(1, 4):
            for P in enumerate_posets(n):
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        assert brute_feasible(P, (a, b)) == brute_pair_product_feasible(
                            P, (a, b)
                        )


class TestBruteFrontier:
    def test_empty_poset(self):
        """The empty poset carries the empty pair at every capacity."""
        assert brute_feasible(chain(0), (1, 1))
        assert brute_pair_product_feasible(chain(0), (1, 1))
        assert brute_frontier(chain(0)) == frontier(chain(0)).points == ((1, 1),)

    def test_size_guard(self):
        with pytest.raises(SizeExceeded):
            brute_frontier(chain(6))

    def test_walk_matches_full_table_sweep(self):
        """The walk gives the frontier that every row's table gives: the
        rows where the table drops, and their mirrors."""

        def swept(P):
            if P.n == 0:
                return ((1, 1),)
            rows = _canonical_rows(P)
            betas = [_needed_g_table(rows, a) for a in range(1, P.n + 1)]
            drops = {(a, b) for a, b in enumerate(betas, 1) if a == 1 or b < betas[a - 2]}
            return tuple(sorted(drops | {(b, a) for a, b in drops}))

        for n in range(6):
            for P in enumerate_posets(n):
                assert brute_frontier(P) == swept(P)
        rng = random.Random(0x7AB1E)
        for P in [chain(6), *(random_poset(6, rng) for _ in range(24))]:
            assert brute_frontier(P, max_size=6) == swept(P)

    def test_walk_stops_at_the_diagonal(self, monkeypatch):
        """No table is asked for past the first row ``a`` whose table is at
        most ``a``, and every row up to it is asked for once."""
        asked = []

        def spy(rows, a):
            asked.append(a)
            return _needed_g_table(rows, a)

        monkeypatch.setattr("fnlab.oracle._needed_g_table", spy)
        rng = random.Random(0xD1A6)
        for P in [*enumerate_posets(4), *(random_poset(5, rng) for _ in range(40)), antichain(5)]:
            asked.clear()
            brute_frontier(P)
            key = _canonical_rows(P)
            stop = next(a for a in range(1, P.n + 1) if _needed_g_table(key, a) <= a)
            assert asked == list(range(1, stop + 1))

    def test_seven_elements_refused_only_past_row_two(self):
        # the walk of an antichain stops at row 1, before any table the
        # cell budget refuses; a 7-chain's walk reaches row 3 (test_cell_budget)
        assert brute_frontier(antichain(7), max_size=7) == ((1, 1),)

    @pytest.mark.parametrize("cap, message", [
        ("6", "oracle element cap '6' is not an integer"),
        (True, "oracle element cap True is not an integer"),
        (2.5, "oracle element cap 2.5 is not an integer"),
        (-1, "oracle element cap -1 is below 0"),
    ])
    def test_max_size_refused(self, cap, message):
        with pytest.raises(InvalidArgument) as e:
            brute_frontier(chain(3), max_size=cap)
        assert str(e.value) == message

    def test_cell_budget(self):
        # past the size guard, the a = 3 table of a 7-chain needs 15**7 * 2**6 cells
        with pytest.raises(SizeExceeded, match="cells"):
            brute_frontier(chain(7), max_size=7)

    def test_cell_budget_counts_the_subset_axis(self):
        # 7**8 f choices fit in the budget, but with the 2**7 candidate
        # g(x) subsets per element the bitset work does not
        assert 7**8 <= ORACLE_CELL_BUDGET < 7**8 * 2**7
        with pytest.raises(SizeExceeded, match="cells"):
            _needed_g_table(chain(8).up, 2)


def test_joint_enumeration_size_guard():
    with pytest.raises(SizeExceeded, match="3 elements"):
        brute_pair_product_feasible(chain(4), (1, 1))


class TestCanonicalForm:
    @pytest.mark.parametrize("n", range(6))
    def test_one_key_per_isomorphism_class(self, n):
        keys = {_canonical_rows(P) for P in enumerate_posets(n)}
        assert len(keys) == UNLABELED_POSET_COUNTS[n]

    def test_key_is_idempotent(self):
        for n in range(6):
            for key in {_canonical_rows(P) for P in enumerate_posets(n)}:
                down = [sum(1 << x for x in range(n) if key[x] >> y & 1) for y in range(n)]
                assert _canonical_rows(_poset_from_rows(n, key, down)) == key

    def test_invariant_under_relabeling(self):
        rng = random.Random(0xCA11)
        drawn = [random_poset(rng.randint(5, 6), rng) for _ in range(12)]
        for P in [*enumerate_posets(4), *drawn]:
            key, points = _canonical_rows(P), brute_frontier(P, max_size=6)
            for _ in range(3):
                perm = list(range(P.n))
                rng.shuffle(perm)
                Q = relabel(P, perm)
                assert _canonical_rows(Q) == key
                assert brute_frontier(Q, max_size=6) == points

    def test_table_of_key_is_table_of_poset(self):
        """The cached table built from the key equals the table built from
        the labeled poset's own rows, uncached."""
        for n in range(1, 5):
            for P in enumerate_posets(n):
                key = _canonical_rows(P)
                for a in range(1, n + 1):
                    own = _needed_g_table.__wrapped__(P.up, a)
                    assert _needed_g_table(key, a) == own

    def test_tables_frozen(self):
        """Every table of every class with up to 5 elements, of ``chain(6)``
        and of eight seeded 6-element posets, at every capacity, frozen."""
        rng = random.Random(0x7AB1E)
        keys = sorted({_canonical_rows(P) for n in range(1, 6) for P in enumerate_posets(n)})
        keys += [_canonical_rows(P) for P in [chain(6), *(random_poset(6, rng) for _ in range(8))]]
        h = hashlib.sha256()
        for rows in keys:
            for a in range(1, len(rows) + 1):
                h.update(repr((rows, a, _needed_g_table(rows, a))).encode())
        assert h.hexdigest() == "7c0ba66f7406983330421c01e680548090fd7aa143bbcc69e02aac6200b30d16"

    def test_sweep_builds_one_table_per_class_and_capacity(self):
        """One table per class and walked row: rows 1, 2, … up to the first
        whose table is at most its row."""
        _needed_g_table.cache_clear()
        for P in enumerate_posets(5):
            brute_frontier(P)
        built = _needed_g_table.cache_info().currsize
        keys = {_canonical_rows(P) for P in enumerate_posets(5)}
        walked = sum(next(a for a in range(1, 6) if _needed_g_table(key, a) <= a) for key in keys)
        assert len(keys) == UNLABELED_POSET_COUNTS[5]
        assert built == walked == 143


class TestReferenceVerifier:
    def test_agrees_with_optimized_on_random_instances(self):
        rng = random.Random(0xD1FF)
        for trial in range(10_000):
            P = random_poset(rng.randint(1, 6), rng)
            pair = FnPair(P, random_total_map(P, rng), random_total_map(P, rng))
            fsets, gsets = sets_of(pair.f), sets_of(pair.g)
            assert reference_valid_pair(P, fsets, gsets) == verify_pair(pair).valid
            if trial % 5 == 0:
                h = random_total_map(P, rng)
                hs = sets_of(h)
                assert reference_valid_pair(P, hs, hs) == verify_single(P, h).valid


class TestBruteMinMax:
    def test_whole_poset(self):
        P = diamond()
        A = SubsetView(P, frozenset(range(4)))
        for x in range(4):
            assert brute_minmax_in_subset(A, x) == (x, x)

    def test_no_minimum_over_incomparable_pair(self):
        A = SubsetView(diamond(), frozenset({1, 2}))
        assert brute_minmax_in_subset(A, 0) == (None, None)

    def test_chain_subset(self):
        A = SubsetView(chain(4), frozenset({1, 2}))
        assert brute_minmax_in_subset(A, 0) == (1, None)
        assert brute_minmax_in_subset(A, 3) == (None, 2)
