import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fnlab.errors import InvalidArgument
from fnlab.fnmaps import (
    FnPair,
    Verdict,
    collapse,
    interpolant_lookup,
    trivial_pair,
    verify_pair,
    verify_single,
    wellorder_map,
)
from fnlab.gen import random_poset, random_valid_pair
from fnlab.poset import antichain, bits_of, chain, diamond
from helpers import random_total_map


@pytest.mark.parametrize("density", [float("nan"), -0.1, 1.5])
def test_random_total_map_refuses_density_outside_unit_interval(density):
    with pytest.raises(InvalidArgument):
        random_total_map(chain(3), random.Random(0), density)


class TestVerifySingle:
    def test_full_sets_valid(self):
        P = chain(2)
        assert verify_single(P, [{0, 1}, {0, 1}]).valid

    def test_singletons_invalid(self):
        v = verify_single(chain(2), [{0}, {1}])
        assert not v.valid and v.violation[:2] == (0, 1)

    def test_bst_style_chain3(self):
        assert verify_single(chain(3), [{0, 1}, {1}, {1, 2}]).valid

    def test_not_total(self):
        with pytest.raises(
            InvalidArgument, match="^h must assign a set to each of the 2 elements$"
        ):
            verify_single(chain(2), [{0}])

    def test_out_of_range(self):
        with pytest.raises(InvalidArgument):
            verify_single(chain(2), [{0}, {5}])
        # a negative index gets the same error as one past the end
        with pytest.raises(InvalidArgument, match=r"^h\(0\) mentions elements outside the poset$"):
            verify_single(chain(2), [[0, -3], [1]])
        with pytest.raises(InvalidArgument, match=r"^f\(0\) mentions elements outside the poset$"):
            FnPair(chain(2), [[-1], [1]], [[0], [1]])
        # an index far past the poset is refused without building its mask
        with pytest.raises(InvalidArgument, match=r"^g\(1\) mentions elements outside the poset$"):
            FnPair(chain(2), [[0], [1]], [[0], [10**15]])

    @pytest.mark.parametrize("entry", [True, [0.0], ["0"], "0", None, 1.5, [True], [None]])
    def test_entry_neither_mask_nor_indices(self, entry):
        tail = " must be a mask or an iterable of indices$"
        with pytest.raises(InvalidArgument, match=rf"^f\(0\){tail}"):
            FnPair(chain(2), [entry, [1]], [[0], [1]])
        with pytest.raises(InvalidArgument, match=rf"^g\(1\){tail}"):
            FnPair(chain(2), [[0], 2], [1, entry])
        with pytest.raises(InvalidArgument, match=rf"^h\(0\){tail}"):
            verify_single(chain(2), [entry, [1]])

    @pytest.mark.parametrize("images", [None, 5, 1.5])
    def test_map_not_iterable(self, images):
        with pytest.raises(
            InvalidArgument, match=r"^f must assign a set to each of the 2 elements$"
        ):
            FnPair(chain(2), images, [[0], [1]])
        with pytest.raises(
            InvalidArgument, match=r"^h must assign a set to each of the 2 elements$"
        ):
            verify_single(chain(2), images)

    def test_map_read_once(self):
        """A map given as an iterator is read once, into the stored masks."""
        pair = FnPair(chain(2), (s for s in ([0], [1])), iter([[0, 1], 0b10]))
        assert pair.f == (0b01, 0b10) and pair.g == (0b11, 0b10)
        assert verify_single(chain(2), (s for s in ([0, 1], [1]))).valid


class TestVerifyPair:
    def test_downsets_valid(self):
        P = chain(2)
        pair = FnPair(P, [{0}, {0, 1}], [{0}, {0, 1}])
        assert verify_pair(pair).valid

    def test_singletons_clause_one(self):
        v = verify_pair(FnPair(chain(2), [{0}, {1}], [{0}, {1}]))
        assert not v.valid and v.violation == (0, 1, 1)

    def test_trivial_pair_on_diamond(self):
        assert verify_pair(trivial_pair(diamond())).valid

    def test_interpolants_satisfy_clauses(self):
        pair = trivial_pair(diamond())
        v = verify_pair(pair, with_interpolants=True)
        P = pair.poset
        for (p, q), (r, s) in v.interpolants.items():
            assert P.leq(p, r) and P.leq(r, q)
            assert P.leq(p, s) and P.leq(s, q)
            assert r in pair.f_set(p) and r in pair.g_set(q)
            assert s in pair.g_set(p) and s in pair.f_set(q)


class TestInvariants:
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_forced_membership(self, seed, n):
        rng = random.Random(seed)
        P = random_poset(n, rng)
        pair = FnPair(P, random_total_map(P, rng), random_total_map(P, rng))
        if verify_pair(pair).valid:
            for x in range(n):
                assert x in pair.f_set(x) and x in pair.g_set(x)

    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_clause_symmetry(self, seed, n):
        rng = random.Random(seed)
        P = random_poset(n, rng)
        f = random_total_map(P, rng)
        g = random_total_map(P, rng)
        assert verify_pair(FnPair(P, f, g)).valid == verify_pair(FnPair(P, g, f)).valid

    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_pointwise_enlargement_preserves_validity(self, seed, n):
        rng = random.Random(seed)
        P = random_poset(n, rng)
        pair = random_valid_pair(P, rng)
        f = list(pair.f)
        g = list(pair.g)
        f[rng.randrange(n)] |= 1 << rng.randrange(n)
        g[rng.randrange(n)] |= 1 << rng.randrange(n)
        assert verify_pair(FnPair(P, tuple(f), tuple(g))).valid

    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_single_pair_equivalence(self, seed, n):
        rng = random.Random(seed)
        P = random_poset(n, rng)
        h = random_total_map(P, rng)
        assert verify_single(P, h).valid == verify_pair(FnPair(P, h, h)).valid


def _reference_verify(pair: FnPair) -> Verdict:
    """The verifier as a full scan: every comparable pair, both clauses,
    then the least-index witnesses of a valid pair."""
    P, f, g = pair.poset, pair.f, pair.g
    for p in range(P.n):
        for q in bits_of(P.up[p]):
            box = P.up[p] & P.down[q]
            if not f[p] & g[q] & box:
                return Verdict(False, (p, q, 1))
            if not g[p] & f[q] & box:
                return Verdict(False, (p, q, 2))
    inter = {}
    for p in range(P.n):
        for q in bits_of(P.up[p]):
            box = P.up[p] & P.down[q]
            r = f[p] & g[q] & box
            s = g[p] & f[q] & box
            inter[p, q] = ((r & -r).bit_length() - 1, (s & -s).bit_length() - 1)
    return Verdict(True, None, inter)


def _verifier_input(kind: str, P, rng: random.Random) -> FnPair:
    if kind == "total":  # arbitrary maps, which often miss the diagonal
        density = rng.choice((0.4, 0.7, 0.9))
        return FnPair(P, random_total_map(P, rng, density), random_total_map(P, rng, density))
    pair = random_valid_pair(P, rng)
    if kind == "valid":
        return pair
    # a valid pair with one image bit cleared
    maps = [list(pair.f), list(pair.g)]
    m = maps[rng.randrange(2)]
    x = rng.randrange(P.n)
    if m[x]:
        bits = list(bits_of(m[x]))
        m[x] &= ~(1 << rng.choice(bits))
    return FnPair(P, tuple(maps[0]), tuple(maps[1]))


class TestVerifierAgainstFullScan:
    """The verifier skips pairs that their own endpoint witnesses; its verdict
    must equal the full scan's, interpolants included."""

    @given(st.integers(0, 10**6))
    def test_same_verdict(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            P = random_poset(rng.randint(1, 7), rng, rng.choice((0.2, 0.35, 0.6)))
            for kind in ("total", "valid", "cleared"):
                pair = _verifier_input(kind, P, rng)
                expected = _reference_verify(pair)
                assert verify_pair(pair, with_interpolants=True) == expected, (kind, pair)


class TestCollapse:
    def test_trivial_pair_collapses_to_full(self):
        P = diamond()
        h = collapse(trivial_pair(P))
        assert h == tuple(P.full_mask() for _ in range(4))
        assert verify_single(P, h).valid

    def test_collapse_of_doubled_single_is_itself(self):
        P = chain(3)
        h = wellorder_map(P, [1, 0, 2])
        assert collapse(FnPair(P, h, h)) == h

    @given(st.integers(0, 10**6))
    def test_random_valid_pair_collapses_valid(self, seed):
        rng = random.Random(seed)
        P = random_poset(6, rng)
        pair = random_valid_pair(P, rng)
        assert verify_single(P, collapse(pair)).valid


class TestWellorderMap:
    @given(st.integers(0, 10**6), st.integers(1, 7))
    def test_always_valid(self, seed, n):
        rng = random.Random(seed)
        P = random_poset(n, rng)
        order = list(range(n))
        rng.shuffle(order)
        h = wellorder_map(P, order)
        assert verify_single(P, h).valid
        for pos, x in enumerate(order):
            assert h[x].bit_count() == pos + 1

    def test_reversed_chain2(self):
        h = wellorder_map(chain(2), [1, 0])
        assert h[1] == 0b10 and h[0] == 0b11
        assert verify_single(chain(2), h).valid

    def test_singleton(self):
        assert wellorder_map(chain(1), [0]) == (1,)

    def test_not_permutation(self):
        with pytest.raises(InvalidArgument, match="^order must be a permutation of the elements$"):
            wellorder_map(chain(2), [0, 0])

    @pytest.mark.parametrize("order", [[0.0, 1], [0, "a"], [True, 0], [1, False], [0, None]])
    def test_entries_not_plain_ints(self, order):
        with pytest.raises(InvalidArgument, match="^order must be a permutation of the elements$"):
            wellorder_map(chain(2), order)


class TestInterpolantLookup:
    def test_reflexive_pair(self):
        pair = trivial_pair(diamond())
        assert interpolant_lookup(pair, 2, 2) == (2, 2)

    def test_diamond_trivial_bottom_top(self):
        # g is singleton, so r is forced to the top; s to the bottom.
        pair = trivial_pair(diamond())
        assert interpolant_lookup(pair, 0, 3) == (3, 0)

    def test_chain2_asymmetric_pair(self):
        pair = FnPair(chain(2), [{0}, {1}], [{0, 1}, {0, 1}])
        assert verify_pair(pair).valid
        assert interpolant_lookup(pair, 0, 1) == (0, 1)

    def test_not_comparable(self):
        with pytest.raises(InvalidArgument, match="^0 <= 1 does not hold$"):
            interpolant_lookup(trivial_pair(antichain(2)), 0, 1)

    def test_no_witness_on_invalid_pair(self):
        pair = FnPair(chain(2), [{0}, {1}], [{0}, {1}])
        with pytest.raises(
            InvalidArgument, match=r"^no witness in f\(0\) ∩ g\(1\) within \[0, 1\]$"
        ):
            interpolant_lookup(pair, 0, 1)

    def test_no_second_clause_witness(self):
        # f(0) ∩ g(1) holds 0, but g(0) ∩ f(1) is empty
        pair = FnPair(chain(2), [{0}, {1}], [{0}, {0}])
        with pytest.raises(
            InvalidArgument, match=r"^no witness in g\(0\) ∩ f\(1\) within \[0, 1\]$"
        ):
            interpolant_lookup(pair, 0, 1)
