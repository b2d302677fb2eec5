import hashlib
import random

import pytest

from fnlab.boolalg import coproduct, exponential, powerset_algebra
from fnlab.errors import (
    DomainMismatch,
    EmptySubset,
    InvalidInputPair,
    NotARetraction,
)
from fnlab.fnmaps import (
    FnPair,
    cofactor_projections,
    transport_coproduct,
    transport_exponential,
    transport_retract,
    transport_subalgebra,
    trivial_pair,
    verify_pair,
    wellorder_map,
)
from fnlab.gen import (
    random_poset,
    random_retraction,
    random_subset_view,
    random_valid_pair,
)
from fnlab.oracle import brute_cofactor_minmax, brute_minmax_in_subset
from fnlab.poset import (
    MonotoneMap,
    SubsetView,
    chain,
    diamond,
    identity_map,
    subposet_degree,
)


class TestRetract:
    def test_identity_is_pass_through(self):
        P = chain(3)
        idm = identity_map(P)
        pair = trivial_pair(P)
        assert transport_retract(pair, idm, idm) == pair

    def test_chain3_onto_chain2(self):
        Q, P = chain(3), chain(2)
        i = MonotoneMap(P, Q, (0, 2))
        j = MonotoneMap(Q, P, (0, 0, 1))
        out = transport_retract(trivial_pair(Q), i, j)
        assert out.poset == P and verify_pair(out).valid

    def test_not_a_retraction(self):
        Q, P = chain(3), chain(2)
        i = MonotoneMap(P, Q, (0, 2))
        j = MonotoneMap(Q, P, (0, 0, 0))
        with pytest.raises(NotARetraction):
            transport_retract(trivial_pair(Q), i, j)

    def test_invalid_input_rejected(self):
        Q, P = chain(3), chain(2)
        i = MonotoneMap(P, Q, (0, 2))
        j = MonotoneMap(Q, P, (0, 0, 1))
        bad = FnPair.from_sets(Q, [{0}, {1}, {2}], [{0}, {1}, {2}])
        with pytest.raises(InvalidInputPair):
            transport_retract(bad, i, j)

    def test_seeded_instances_valid_with_smaller_capacity(self):
        rng = random.Random(40)
        for _ in range(25):
            base = random_poset(rng.randint(1, 4), rng)
            Q, i, j = random_retraction(base, rng, max_total=7)
            pair = random_valid_pair(Q, rng)
            out = transport_retract(pair, i, j)
            assert verify_pair(out).valid
            oa, ob = out.capacities()
            pa, pb = pair.capacities()
            assert oa <= pa and ob <= pb


class TestSubalgebraView:
    def test_whole_poset_is_identity(self):
        pair = trivial_pair(diamond())
        out, elems = transport_subalgebra(pair, SubsetView(diamond(), frozenset(range(4))))
        assert out == pair and elems == (0, 1, 2, 3)

    def test_diamond_onto_three_chain(self):
        pair = trivial_pair(diamond())
        out, elems = transport_subalgebra(pair, SubsetView(diamond(), frozenset({0, 1, 3})))
        assert out.poset == chain(3)
        assert verify_pair(out).valid

    def test_cofactor_image_of_coproduct(self):
        C = coproduct([powerset_algebra(2)] * 2)
        BP = C.base.as_poset()
        view = SubsetView(BP, frozenset(C.embedded_image(0)))
        assert subposet_degree(view) == 1
        out, _ = transport_subalgebra(trivial_pair(BP), view)
        assert out.poset.n == 4 and verify_pair(out).valid

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptySubset):
            transport_subalgebra(trivial_pair(chain(2)), SubsetView(chain(2), frozenset()))

    def test_seeded_capacity_bound(self):
        rng = random.Random(41)
        for _ in range(25):
            Q = random_poset(rng.randint(1, 8), rng)
            pair = random_valid_pair(Q, rng)
            view = random_subset_view(Q, rng)
            out, _ = transport_subalgebra(pair, view)
            assert verify_pair(out).valid
            deg = subposet_degree(view)
            oa, ob = out.capacities()
            pa, pb = pair.capacities()
            assert oa <= pa * deg and ob <= pb * deg


class TestCofactorProjections:
    def test_element_of_the_cofactor_is_fixed(self):
        C = coproduct([powerset_algebra(2)] * 2)
        for b in C.cofactors[0].elements():
            x = C.embed(0, b)
            assert cofactor_projections(C, 0, x) == (x, x)

    def test_meet_of_mixed_literals(self):
        C = coproduct([powerset_algebra(2)] * 2)
        x = C.embed(0, 1) & C.embed(1, 1)
        assert cofactor_projections(C, 0, x) == (C.embed(0, 1), 0)

    def test_join_of_mixed_literals(self):
        C = coproduct([powerset_algebra(2)] * 2)
        x = C.embed(0, 1) | C.embed(1, 1)
        assert cofactor_projections(C, 0, x) == (C.base.one, C.embed(0, 1))

    def test_against_both_brute_flavors(self):
        C = coproduct([powerset_algebra(2)] * 2)
        BP = C.base.as_poset()
        for j in (0, 1):
            view = SubsetView(BP, frozenset(C.embedded_image(j)))
            for x in range(C.base.size):
                got = cofactor_projections(C, j, x)
                assert got == brute_cofactor_minmax(C, j, x)
                assert got == brute_minmax_in_subset(view, x)


class TestCoproductTransport:
    def test_single_cofactor(self):
        B = powerset_algebra(2)
        C = coproduct([B])
        out = transport_coproduct(C, [trivial_pair(B.as_poset())])
        assert verify_pair(out).valid

    def test_two_diamonds_with_trivial_pairs(self):
        B = powerset_algebra(2)
        C = coproduct([B, B])
        P = B.as_poset()
        out = transport_coproduct(C, [trivial_pair(P), trivial_pair(P)])
        assert out.poset.n == 16 and verify_pair(out).valid

    def test_three_small_cofactors_seeded(self):
        rng = random.Random(42)
        B = powerset_algebra(2)
        C = coproduct([B] * 3)
        P = B.as_poset()
        for _ in range(20):
            pairs = [random_valid_pair(P, rng) for _ in range(3)]
            out = transport_coproduct(C, pairs)
            assert verify_pair(out).valid

    def test_pair_count_mismatch(self):
        C = coproduct([powerset_algebra(1)] * 2)
        with pytest.raises(DomainMismatch):
            transport_coproduct(C, [trivial_pair(powerset_algebra(1).as_poset())])

    def test_invalid_input_rejected(self):
        B = powerset_algebra(1)
        C = coproduct([B])
        P = B.as_poset()
        bad = FnPair.from_sets(P, [{0}, {1}], [{0}, {1}])
        with pytest.raises(InvalidInputPair):
            transport_coproduct(C, [bad])


class TestExponentialTransport:
    def test_two_element_base(self):
        B = powerset_algebra(1)
        out = transport_exponential(exponential(B), trivial_pair(B.as_poset()))
        assert out.poset.n == 2 and verify_pair(out).valid

    def test_diamond_base_trivial_pair(self):
        B = powerset_algebra(2)
        out = transport_exponential(exponential(B), trivial_pair(B.as_poset()))
        assert out.poset.n == 8 and verify_pair(out).valid

    def test_diamond_base_wellorder_pair(self):
        B = powerset_algebra(2)
        P = B.as_poset()
        h = wellorder_map(P, [3, 1, 0, 2])
        out = transport_exponential(exponential(B), FnPair(P, h, h))
        assert verify_pair(out).valid

    def test_wrong_poset_rejected(self):
        B = powerset_algebra(2)
        with pytest.raises(DomainMismatch):
            transport_exponential(exponential(B), trivial_pair(chain(3)))

    def test_carrier_base(self):
        from fnlab.boolalg import generated_subalgebra

        A = generated_subalgebra(powerset_algebra(3), [0b011])
        out = transport_exponential(exponential(A), trivial_pair(A.as_poset()))
        assert out.poset.n == 8 and verify_pair(out).valid


class TestCarrierCofactorTransport:
    def test_tree_algebra_cofactor(self):
        from fnlab.boolalg import tree_algebra

        A = tree_algebra(2, 2)
        C = coproduct([A, powerset_algebra(1)])
        pairs = [trivial_pair(A.as_poset()), trivial_pair(powerset_algebra(1).as_poset())]
        out = transport_coproduct(C, pairs)
        assert verify_pair(out).valid


def test_transport_outputs_frozen():
    """One sha256 over the order rows and both maps of seeded coproduct and
    exponential transports, frozen from the pairwise-order, element-by-element
    closure implementation; the word-parallel kernel must reproduce it."""
    h = hashlib.sha256()
    rng = random.Random(2012)
    outs = []
    for ks in [(3, 3), (2, 5), (3, 4), (1, 2, 3)]:
        pairs = [random_valid_pair(powerset_algebra(k).as_poset(), rng) for k in ks]
        outs.append(transport_coproduct(coproduct([powerset_algebra(k) for k in ks]), pairs))
    for k in (2, 3):
        pair = random_valid_pair(powerset_algebra(k).as_poset(), rng)
        outs.append(transport_exponential(exponential(powerset_algebra(k)), pair))
    for out in outs:
        h.update(repr((out.poset.up, out.poset.down, out.f, out.g)).encode())
    assert h.hexdigest() == "b3332a123c41732e6be22b343f6e970039851513c417d7f9481813aeefbce789"
