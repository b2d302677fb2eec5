import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fnlab import (
    FnPair,
    Frontier,
    MonotoneMap,
    Poset,
    SubsetView,
    Verdict,
    collapse,
    interpolant_lookup,
    trivial_pair,
    verify_pair,
    verify_single,
    wellorder_map,
)
from fnlab.boolalg import coproduct, exponential, powerset_algebra
from fnlab.errors import InvalidArgument
from fnlab.gen import random_poset, random_valid_pair
from fnlab.poset import antichain, bits_of, chain, diamond, poset_from_covers
from helpers import masks_of, random_total_map, sets_of


@pytest.mark.parametrize("density", [float("nan"), -0.1, 1.5])
def test_random_total_map_refuses_density_outside_unit_interval(density):
    with pytest.raises(InvalidArgument):
        random_total_map(chain(3), random.Random(0), density)


class TestVerifySingle:
    def test_full_sets_valid(self):
        P = chain(2)
        assert verify_single(P, masks_of([{0, 1}, {0, 1}])).valid

    def test_singletons_invalid(self):
        v = verify_single(chain(2), masks_of([{0}, {1}]))
        assert not v.valid and v.violation[:2] == (0, 1)

    def test_bst_style_chain3(self):
        assert verify_single(chain(3), masks_of([{0, 1}, {1}, {1, 2}])).valid

    def test_not_total(self):
        with pytest.raises(
            InvalidArgument, match="^h must assign a set to each of the 2 elements$"
        ):
            verify_single(chain(2), [0b01])

    def test_out_of_range(self):
        with pytest.raises(InvalidArgument, match=r"^h\(1\) mentions elements outside the poset$"):
            verify_single(chain(2), [0b01, 0b100])
        # a negative mask gets the same error as a bit past the end
        with pytest.raises(InvalidArgument, match=r"^f\(0\) mentions elements outside the poset$"):
            FnPair(chain(2), [-1, 0b10], [0b01, 0b10])
        with pytest.raises(InvalidArgument, match=r"^g\(1\) mentions elements outside the poset$"):
            FnPair(chain(2), [0b01, 0b10], [0b01, 1 << 64])

    @pytest.mark.parametrize(
        "entry",
        [True, [0.0], ["0"], "0", None, 1.5, [True], [None], {0}, [0], (0,), range(1)],
    )
    def test_entry_neither_mask_nor_indices(self, entry):
        """Only a plain int is an image: a bool, a float, a string, None and
        every collection of indices are refused, whatever they hold."""
        tail = " must be a mask$"
        with pytest.raises(InvalidArgument, match=rf"^f\(0\){tail}"):
            FnPair(chain(2), [entry, 0b10], [0b01, 0b10])
        with pytest.raises(InvalidArgument, match=rf"^g\(1\){tail}"):
            FnPair(chain(2), [0b01, 0b10], [0b01, entry])
        with pytest.raises(InvalidArgument, match=rf"^h\(0\){tail}"):
            verify_single(chain(2), [entry, 0b10])

    @pytest.mark.parametrize("images", [None, 5, 1.5])
    def test_map_not_iterable(self, images):
        with pytest.raises(
            InvalidArgument, match=r"^f must assign a set to each of the 2 elements$"
        ):
            FnPair(chain(2), images, [0b01, 0b10])
        with pytest.raises(
            InvalidArgument, match=r"^h must assign a set to each of the 2 elements$"
        ):
            verify_single(chain(2), images)

    def test_map_read_once(self):
        """A map given as an iterator is read once, into the stored masks."""
        pair = FnPair(chain(2), (m for m in (0b01, 0b10)), iter([0b11, 0b10]))
        assert pair.f == (0b01, 0b10) and pair.g == (0b11, 0b10)
        assert verify_single(chain(2), (m for m in (0b11, 0b10))).valid


class TestVerifyPair:
    def test_downsets_valid(self):
        P = chain(2)
        pair = FnPair(P, masks_of([{0}, {0, 1}]), masks_of([{0}, {0, 1}]))
        assert verify_pair(pair).valid

    def test_singletons_clause_one(self):
        v = verify_pair(FnPair(chain(2), masks_of([{0}, {1}]), masks_of([{0}, {1}])))
        assert not v.valid and v.violation == (0, 1, 1)

    def test_trivial_pair_on_diamond(self):
        assert verify_pair(trivial_pair(diamond())).valid

    def test_interpolants_satisfy_clauses(self):
        pair = trivial_pair(diamond())
        v = verify_pair(pair, with_interpolants=True)
        P = pair.poset
        f, g = sets_of(pair.f), sets_of(pair.g)
        for (p, q), (r, s) in v.interpolants.items():
            assert P.leq(p, r) and P.leq(r, q)
            assert P.leq(p, s) and P.leq(s, q)
            assert r in f[p] and r in g[q]
            assert s in g[p] and s in f[q]


class TestInvariants:
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_forced_membership(self, seed, n):
        rng = random.Random(seed)
        P = random_poset(n, rng)
        pair = FnPair(P, random_total_map(P, rng), random_total_map(P, rng))
        if verify_pair(pair).valid:
            for x in range(n):
                assert (pair.f[x] & pair.g[x]) >> x & 1

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
    """The verifier skips pairs that their own endpoint witnesses unless it
    takes interpolants; either way its verdict must equal the full scan's,
    interpolants included."""

    @given(st.integers(0, 10**6))
    def test_same_verdict(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            P = random_poset(rng.randint(1, 7), rng, rng.choice((0.2, 0.35, 0.6)))
            for kind in ("total", "valid", "cleared"):
                pair = _verifier_input(kind, P, rng)
                expected = _reference_verify(pair)
                assert verify_pair(pair, with_interpolants=True) == expected, (kind, pair)
                plain = Verdict(expected.valid, expected.violation)
                assert verify_pair(pair) == plain, (kind, pair)


class TestCollapse:
    def test_trivial_pair_collapses_to_full(self):
        P = diamond()
        h = collapse(trivial_pair(P))
        assert h == tuple((1 << P.n) - 1 for _ in range(4))
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
        pair = FnPair(chain(2), masks_of([{0}, {1}]), masks_of([{0, 1}, {0, 1}]))
        assert verify_pair(pair).valid
        assert interpolant_lookup(pair, 0, 1) == (0, 1)

    def test_not_comparable(self):
        with pytest.raises(InvalidArgument, match="^0 <= 1 does not hold$"):
            interpolant_lookup(trivial_pair(antichain(2)), 0, 1)

    def test_no_witness_on_invalid_pair(self):
        pair = FnPair(chain(2), masks_of([{0}, {1}]), masks_of([{0}, {1}]))
        with pytest.raises(
            InvalidArgument, match=r"^no witness in f\(0\) ∩ g\(1\) within \[0, 1\]$"
        ):
            interpolant_lookup(pair, 0, 1)

    def test_no_second_clause_witness(self):
        # f(0) ∩ g(1) holds 0, but g(0) ∩ f(1) is empty
        pair = FnPair(chain(2), masks_of([{0}, {1}]), masks_of([{0}, {0}]))
        with pytest.raises(
            InvalidArgument, match=r"^no witness in g\(0\) ∩ f\(1\) within \[0, 1\]$"
        ):
            interpolant_lookup(pair, 0, 1)


def _chain2():
    """A two-element chain, built afresh on each call."""
    return poset_from_covers(2, [(0, 1)])


RECORDS = [
    pytest.param(lambda: Poset(2, (3, 2), (1, 3)), lambda: Poset(2, (3, 3), (1, 3)), id="Poset"),
    pytest.param(
        lambda: MonotoneMap(_chain2(), _chain2(), (0, 1)),
        lambda: MonotoneMap(_chain2(), _chain2(), (0, 0)),
        id="MonotoneMap",
    ),
    pytest.param(
        lambda: SubsetView(_chain2(), frozenset({0})),
        lambda: SubsetView(_chain2(), frozenset({1})),
        id="SubsetView",
    ),
    pytest.param(
        lambda: FnPair(_chain2(), [3, 3], [1, 2]),
        lambda: FnPair(_chain2(), [3, 3], [3, 2]),
        id="FnPair",
    ),
    pytest.param(lambda: Verdict(False, (0, 1, 1)), lambda: Verdict(False, (0, 1, 2)), id="Verdict"),
    pytest.param(
        lambda: Verdict(True, None, {(0, 1): (1, 0)}),
        lambda: Verdict(True, None, {(0, 1): (1, 1)}),
        id="Verdict-interpolants",
    ),
    pytest.param(lambda: Frontier(((1, 1),)), lambda: Frontier(((1, 2), (2, 1))), id="Frontier"),
]


@pytest.mark.parametrize("make, changed", RECORDS)
def test_records_compare_and_hash_by_value(make, changed):
    """Two records built from equal values are equal and hash equal; one
    changed field makes them unequal.  A verdict that carries interpolants
    holds a dict, so it is compared but not hashed."""
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if not isinstance(a, Verdict) or a.interpolants is None:
        assert hash(a) == hash(b)
    assert a != changed() and not a == changed()


def test_record_reprs():
    P = chain(2)
    assert repr(P) == "Poset(n=2, covers=[(0, 1)])"
    assert repr(FnPair(P, [3, 2], [1, 2])) == (
        "FnPair(poset=Poset(n=2, covers=[(0, 1)]), f=(3, 2), g=(1, 2))"
    )
    assert repr(Verdict(True)) == "Verdict(valid=True, violation=None, interpolants=None)"
    assert repr(Frontier(((1, 1),))) == "Frontier(points=((1, 1),))"
    assert repr(coproduct([powerset_algebra(1), powerset_algebra(2)])) == (
        "CoproductAlgebra(cofactor_atoms=[1, 2])"
    )
    assert repr(exponential(powerset_algebra(2))) == "ExponentialAlgebra(base_size=4, points=3)"
