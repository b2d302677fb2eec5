import hashlib
import random

import pytest

from fnlab import (
    FnPair,
    cofactor_projections,
    frontier,
    interpolant_lookup,
    search_pair,
    transport_coproduct,
    transport_exponential,
    transport_retract,
    transport_subalgebra,
    trivial_pair,
    verify_pair,
    verify_single,
    wellorder_map,
)
from fnlab.boolalg import (
    BooleanAlgebra,
    CoproductAlgebra,
    coproduct,
    exponential,
    generated_subalgebra,
    hyperspace_basic_set,
    interval_algebra,
    literal_normal_forms,
    powerset_algebra,
    subalgebra_index_mask,
    subalgebra_masks,
    tree_algebra,
)
from fnlab.errors import InvalidArgument, TransportDefect
from fnlab.fnmaps import transports
from fnlab.gen import random_poset, random_valid_pair
from fnlab.oracle import (
    brute_cofactor_minmax,
    brute_feasible,
    brute_minmax_in_subset,
    enumerate_posets,
)
from fnlab.poset import (
    MonotoneMap,
    SubsetView,
    antichain,
    bits_of,
    chain,
    check_retraction,
    diamond,
    poset_from_covers,
    subposet_degree,
)
from helpers import identity_map, random_retraction, random_subset_view


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
        with pytest.raises(InvalidArgument, match="^j ∘ i is not the identity$"):
            transport_retract(trivial_pair(Q), i, j)

    def test_pair_off_the_section_codomain(self):
        i = MonotoneMap(chain(2), chain(3), (0, 2))
        j = MonotoneMap(chain(3), chain(2), (0, 0, 1))
        with pytest.raises(
            InvalidArgument, match="^input pair must live on the codomain of the section$"
        ):
            transport_retract(trivial_pair(diamond()), i, j)

    def test_empty_poset_has_no_blow_up(self):
        with pytest.raises(InvalidArgument):
            random_retraction(chain(0), random.Random(0))

    def test_invalid_input_rejected(self):
        Q, P = chain(3), chain(2)
        i = MonotoneMap(P, Q, (0, 2))
        j = MonotoneMap(Q, P, (0, 0, 1))
        bad = FnPair(Q, [{0}, {1}, {2}], [{0}, {1}, {2}])
        with pytest.raises(
            InvalidArgument, match=r"^retract input is not a valid pair: violation \(0, 1, 1\)$"
        ):
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

    def test_view_on_another_poset(self):
        with pytest.raises(InvalidArgument, match="^view must live on the pair's poset$"):
            transport_subalgebra(trivial_pair(diamond()), SubsetView(chain(3), frozenset({0})))

    def test_empty_subset_rejected(self):
        with pytest.raises(InvalidArgument, match="^cannot transport onto an empty view$"):
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


def relocal_recipe(pair, view):
    """Reference images of ``transport_subalgebra``: each image is the union
    of the maximal view members below its elements, in ambient indices,
    moved to local indices afterwards."""
    Q = pair.poset
    elems = tuple(sorted(view.members))
    pos = {e: k for k, e in enumerate(elems)}

    def trace_max(q):
        trace = [e for e in elems if Q.leq(e, q)]
        return {e for e in trace if not any(d != e and Q.leq(e, d) for d in trace)}

    def relocal(ambient):
        return sum(1 << pos[e] for e in ambient)

    return tuple(
        tuple(relocal(set().union(*map(trace_max, bits_of(m[e])))) for e in elems)
        for m in (pair.f, pair.g)
    )


def test_subalgebra_images_match_relocal_recipe():
    rng = random.Random(43)
    for _ in range(40):
        Q = random_poset(rng.randint(1, 9), rng)
        pair = random_valid_pair(Q, rng)
        view = random_subset_view(Q, rng)
        out, elems = transport_subalgebra(pair, view)
        assert (out.poset, elems) == view.as_poset()
        assert (out.f, out.g) == relocal_recipe(pair, view)


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

    BAD = {
        (2, 0): "cofactor index 2 is not below 2",
        (-1, 0): "cofactor index -1 is below 0",
        (0, 1 << 4): "mask 16 is not an element of the algebra",
        (0, -1): "mask -1 is not an element of the algebra",
    }

    @pytest.mark.parametrize("j, x", list(BAD))
    def test_bad_cofactor_or_mask(self, j, x):
        """A bad cofactor index is refused as ``embed`` refuses it, and a bad
        mask as ``literal_normal_forms`` refuses it."""
        C = coproduct([powerset_algebra(2)] * 2)
        with pytest.raises(InvalidArgument, match=f"^{self.BAD[j, x]}$"):
            cofactor_projections(C, j, x)

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
        with pytest.raises(InvalidArgument, match="^need exactly one pair per cofactor$"):
            transport_coproduct(C, [trivial_pair(powerset_algebra(1).as_poset())])

    def test_pair_off_the_cofactor_order(self):
        C = coproduct([powerset_algebra(2)])
        with pytest.raises(
            InvalidArgument, match="^pair does not live on its cofactor's element order$"
        ):
            transport_coproduct(C, [trivial_pair(chain(4))])

    def test_invalid_input_rejected(self):
        B = powerset_algebra(1)
        C = coproduct([B])
        P = B.as_poset()
        bad = FnPair(P, [{0}, {1}], [{0}, {1}])
        with pytest.raises(
            InvalidArgument, match=r"^cofactor 0 input is not a valid pair: violation \(0, 1, 1\)$"
        ):
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
        with pytest.raises(
            InvalidArgument, match="^pair must live on the base algebra's element order$"
        ):
            transport_exponential(exponential(B), trivial_pair(chain(3)))

    def test_carrier_base(self):
        from fnlab.boolalg import generated_subalgebra

        A = generated_subalgebra(powerset_algebra(3), [0b011])
        out = transport_exponential(exponential(A), trivial_pair(A.as_poset()))
        assert out.poset.n == 8 and verify_pair(out).valid


@pytest.mark.parametrize("transport", [
    lambda B: transport_coproduct(coproduct([B, B]), [trivial_pair(B.as_poset())] * 2),
    lambda B: transport_exponential(exponential(B), trivial_pair(B.as_poset())),
], ids=["coproduct", "exponential"])
def test_defective_construction_raises_transport_defect(monkeypatch, transport):
    """An output that fails its own check is a defect of the construction,
    not an invalid input: with every image emptied, the output breaks
    clause 1 at ``(0, 0)``."""
    monkeypatch.setattr(transports, "subalgebra_index_mask", lambda *args: 0)
    with pytest.raises(TransportDefect) as e:
        transport(powerset_algebra(2))
    assert not e.value.verdict.valid
    assert e.value.verdict.violation == (0, 0, 1)


def _scanned_bracket(E, a):
    return sum(1 << t for t, p in enumerate(E.points) if p & ~a == 0)


def _reference_transport_exponential(E, pair):
    """The per-element recipe: each hyperspace element's own literal set,
    closed in the base, lifted through the maps by a scan of the points and
    closed in the exponential."""

    def literals(pointmask):
        out = set()
        for t in bits_of(pointmask):
            b = E.points[t]
            if b != E.base.one:
                out.add(b)
            out |= {E.base.complement(a) for a in E.base.atoms() if a & ~b == 0} - {0}
        return out

    full = E.algebra.one
    F, G = [], []
    for x in range(E.algebra.size):
        idx = set() if x in (0, full) else literals(x) | literals(full ^ x)
        H = [E.base.element_index(h) for h in subalgebra_masks(E.base.k, sorted(idx))]
        for m, out in ((pair.f, F), (pair.g, G)):
            gens = {_scanned_bracket(E, E.base.element_mask(d)) for h in H for d in bits_of(m[h])}
            out.append(subalgebra_index_mask(len(E.points), frozenset(gens)))
    return FnPair(E.algebra.as_poset(), tuple(F), tuple(G))


@pytest.mark.parametrize(
    "base",
    [
        *(powerset_algebra(k) for k in range(4)),
        generated_subalgebra(powerset_algebra(3), [0b011]),
        generated_subalgebra(powerset_algebra(5), [0b00111, 0b11100]),
        tree_algebra(2, 1),
    ],
)
def test_exponential_transport_matches_per_element_recipe(base):
    """Two literal sets give what each element's own literal set gave, and
    the brackets read off the base order are the per-point scan."""
    rng = random.Random(base.size)
    E = exponential(base)
    for a in base.elements():
        assert E.bracket(a) == _scanned_bracket(E, a)
    for _ in range(6):
        pair = random_valid_pair(base.as_poset(), rng)
        assert transport_exponential(E, pair) == _reference_transport_exponential(E, pair)


def test_exponential_transport_closes_two_literal_sets(monkeypatch):
    calls = []

    def counted(k, gens):
        calls.append(k)
        return subalgebra_masks(k, gens)

    monkeypatch.setattr(transports, "subalgebra_masks", counted)
    B = powerset_algebra(3)
    transport_exponential(exponential(B), random_valid_pair(B.as_poset(), random.Random(3)))
    assert len(calls) == 2


def _reference_transport_coproduct(C, pairs):
    """The per-element recipe: each base element's own literal set, its
    literals' images embedded and closed, with no sharing between elements."""
    F, G = [], []
    for x in range(C.base.size):
        nf = literal_normal_forms(C, x)
        f0, g0 = set(), set()
        for i, c in set().union(*nf.dnf, *nf.cnf):
            B = C.cofactors[i]
            ci = B.element_index(c)
            f0 |= {C.embed(i, B.element_mask(d)) for d in bits_of(pairs[i].f[ci])}
            g0 |= {C.embed(i, B.element_mask(d)) for d in bits_of(pairs[i].g[ci])}
        F.append(subalgebra_index_mask(C.katoms, frozenset(f0)))
        G.append(subalgebra_index_mask(C.katoms, frozenset(g0)))
    return FnPair(C.base.as_poset(), tuple(F), tuple(G))


@pytest.mark.parametrize(
    "ks",
    [
        (1, 2, 3),
        (2, 3),
        (3, 3),
        (6, 1),
        (generated_subalgebra(powerset_algebra(5), [0b00111, 0b01100]), tree_algebra(2, 2)),
    ],
)
def test_coproduct_transport_matches_per_element_recipe(ks):
    """Closing each lane-state class once gives what each element's own
    closure gave.  ``ks`` lists the cofactors: an int ``k`` stands for the
    ``k``-atom powerset.  The carrier cofactors' lanes are atom blocks."""
    rng = random.Random(repr(ks))
    cofactors = [powerset_algebra(k) if type(k) is int else k for k in ks]
    C = coproduct(cofactors)
    for _ in range(3):
        pairs = [random_valid_pair(B.as_poset(), rng) for B in cofactors]
        assert transport_coproduct(C, pairs) == _reference_transport_coproduct(C, pairs)


def test_coproduct_transport_takes_one_normal_form_per_class(monkeypatch):
    """The 512 elements of the (3,3) coproduct fall into 111 lane-state
    classes, and each class takes one normal form."""
    calls = []

    def counted(C, x):
        calls.append(x)
        return literal_normal_forms(C, x)

    monkeypatch.setattr(transports, "literal_normal_forms", counted)
    B = powerset_algebra(3)
    rng = random.Random(3)
    transport_coproduct(coproduct([B, B]), [random_valid_pair(B.as_poset(), rng) for _ in range(2)])
    assert len(calls) == 111 and calls == sorted(set(calls))


def test_coproduct_transport_embeds_each_cofactor_element_once(monkeypatch):
    """The (3,3) transport embeds each of the 16 cofactor elements once,
    and no more: literal images are read from that one table."""
    calls = []
    embed = CoproductAlgebra.embed

    def counted(C, i, b):
        calls.append((i, b))
        return embed(C, i, b)

    monkeypatch.setattr(CoproductAlgebra, "embed", counted)
    B = powerset_algebra(3)
    rng = random.Random(3)
    transport_coproduct(coproduct([B, B]), [random_valid_pair(B.as_poset(), rng) for _ in range(2)])
    assert sorted(calls) == [(i, b) for i in range(2) for b in range(8)]


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


def test_carrier_cofactor_transport_frozen():
    """One sha256 over the order rows and both maps of seeded coproduct
    transports with a carrier cofactor (a generated subalgebra, then a tree
    algebra), where an element's index differs from its mask.  Frozen from
    the implementation that embedded each literal's images on demand."""
    h = hashlib.sha256()
    rng = random.Random(2013)
    for cofactors in (
        [generated_subalgebra(powerset_algebra(3), [3]), powerset_algebra(2)],
        [tree_algebra(2, 2), powerset_algebra(1)],
    ):
        C = coproduct(cofactors)
        for _ in range(2):
            pairs = [random_valid_pair(B.as_poset(), rng) for B in cofactors]
            out = transport_coproduct(C, pairs)
            h.update(repr((out.poset.up, out.poset.down, out.f, out.g)).encode())
    assert h.hexdigest() == "19bdb5772329299a04431b9b39a1d6bf00fecf1417eda65f23e379a96ca1793c"


def test_coproduct_tables_frozen():
    """One sha256 over the normal forms, embeddings, embedded images and
    cofactor projections of every element of four coproducts, the last with
    carrier cofactors (a generated subalgebra and a tree algebra).  Frozen
    from the tuple-indexed coproduct implementation; the lane-mask tables
    must reproduce it."""
    h = hashlib.sha256()
    cofactor_lists = [[powerset_algebra(k) for k in ks] for ks in [(2, 3), (3, 3), (1, 2, 3)]]
    cofactor_lists.append(
        [generated_subalgebra(powerset_algebra(5), [0b00111, 0b01100]), tree_algebra(2, 2)]
    )
    for cofactors in cofactor_lists:
        C = coproduct(cofactors)
        for i, B in enumerate(C.cofactors):
            h.update(repr([C.embed(i, b) for b in B.elements()]).encode())
            h.update(repr(C.embedded_image(i)).encode())
        for x in range(C.base.size):
            forms = [[sorted(c) for c in form] for form in literal_normal_forms(C, x)]
            projections = [cofactor_projections(C, j, x) for j in range(len(C.cofactors))]
            h.update(repr((forms, projections)).encode())
    assert h.hexdigest() == "74b7b0d9e8d38ce0853de7866fa0ee150a3096fc5c238ab4b1300b8f2f3f83fb"


def _refusals():
    """One refused call per ``InvalidArgument`` raise site of the order,
    algebra, pair and transport modules, with its message, and every size,
    count, capacity or budget that is not a plain int."""
    c2, c3, E = chain(2), chain(3), exponential(powerset_algebra(2))
    C, P2 = coproduct([powerset_algebra(1)] * 2), powerset_algebra(2)
    up, flat = MonotoneMap(c2, c3, (0, 2)), MonotoneMap(c3, c2, (0, 0, 1))
    singletons = FnPair(c2, [{0}, {1}], [{0}, {1}])
    return [
        (lambda: check_retraction(up, identity_map(c2)),
         "retraction check needs i: P -> Q and j: Q -> P"),
        (lambda: coproduct([powerset_algebra(1), powerset_algebra(0)]),
         "cofactors must have at least two elements"),
        (lambda: hyperspace_basic_set(E, []), "basic sets need a nonempty family"),
        (lambda: hyperspace_basic_set(E, [0, 1]), "basic set members must be nonzero"),
        (lambda: verify_single(c2, [{0}]), "h must assign a set to each of the 2 elements"),
        (lambda: wellorder_map(c2, [0, 0]), "order must be a permutation of the elements"),
        (lambda: interpolant_lookup(trivial_pair(antichain(2)), 0, 1), "0 <= 1 does not hold"),
        (lambda: interpolant_lookup(singletons, 0, 1), "no witness in f(0) ∩ g(1) within [0, 1]"),
        (lambda: interpolant_lookup(FnPair(c2, [{0}, {1}], [{0}, {0}]), 0, 1),
         "no witness in g(0) ∩ f(1) within [0, 1]"),
        (lambda: transport_retract(FnPair(c3, [{0}, {1}, {2}], [{0}, {1}, {2}]), up, flat),
         "retract input is not a valid pair: violation (0, 1, 1)"),
        (lambda: transport_retract(trivial_pair(c3), up, MonotoneMap(c3, c2, (0, 0, 0))),
         "j ∘ i is not the identity"),
        (lambda: transport_retract(trivial_pair(diamond()), up, flat),
         "input pair must live on the codomain of the section"),
        (lambda: transport_subalgebra(trivial_pair(diamond()), SubsetView(c3, frozenset({0}))),
         "view must live on the pair's poset"),
        (lambda: transport_subalgebra(trivial_pair(c2), SubsetView(c2, frozenset())),
         "cannot transport onto an empty view"),
        (lambda: transport_coproduct(coproduct([powerset_algebra(1)] * 2), [trivial_pair(c2)]),
         "need exactly one pair per cofactor"),
        (lambda: transport_coproduct(coproduct([powerset_algebra(2)]), [trivial_pair(chain(4))]),
         "pair does not live on its cofactor's element order"),
        (lambda: transport_exponential(E, trivial_pair(c3)),
         "pair must live on the base algebra's element order"),
        (lambda: coproduct([powerset_algebra(1), E]), "cofactors must be plain boolean algebras"),
        (lambda: exponential(E), "an exponential base must be a plain boolean algebra"),
        (lambda: generated_subalgebra(E, [1]),
         "a subalgebra's ambient must be a plain boolean algebra"),
        (lambda: c3.leq(0.5, 1), "element 0.5 is not an integer"),
        (lambda: c3.leq(5, 0), "element 5 is not below 3"),
        (lambda: c3.leq(-1, 0), "element -1 is below 0"),
        (lambda: poset_from_covers(2, [(0, 1), (1, 0)]),
         "relation is not antisymmetric: 0 <= 1 and 1 <= 0"),
        (lambda: MonotoneMap(c2, c2, (1, 0)), "map is not order-preserving at 0 <= 1"),
        (lambda: poset_from_covers(2, [(0, 5)]), "cover edge end 5 is not below 2"),
        (lambda: poset_from_covers(2, [(0.0, 1)]), "cover edge end 0.0 is not an integer"),
        (lambda: P2.element_mask(-1), "element index -1 is below 0"),
        (lambda: P2.element_mask(4), "element index 4 is not below 4"),
        (lambda: P2.element_mask(2.0), "element index 2.0 is not an integer"),
        (lambda: C.embedded_image(-1), "cofactor index -1 is below 0"),
        (lambda: FnPair(c2, [[0], [5]], [[0], [1]]), "f(1) mentions elements outside the poset"),
        (lambda: chain(2.0), "poset size 2.0 is not an integer"),
        (lambda: chain(-1), "poset size -1 is below 0"),
        (lambda: antichain(2.0), "poset size 2.0 is not an integer"),
        (lambda: random_poset(3.0, random.Random(0)), "poset size 3.0 is not an integer"),
        (lambda: list(enumerate_posets(2.0)), "poset size 2.0 is not an integer"),
        (lambda: powerset_algebra(2.0), "atom count 2.0 is not an integer"),
        (lambda: powerset_algebra(-1), "atom count -1 is below 0"),
        (lambda: interval_algebra(2.0), "interval chain length 2.0 is not an integer"),
        (lambda: tree_algebra(2.0, 2), "tree branching lam 2.0 is not an integer"),
        (lambda: tree_algebra(2, 2.0), "tree depth kap 2.0 is not an integer"),
        (lambda: tree_algebra(2, 0), "tree depth kap 0 is below 1"),
        (lambda: BooleanAlgebra(2, [0.0, 3.0]), "carrier is not a subalgebra of the 2-atom powerset"),
        (lambda: BooleanAlgebra(2, [0, "3"]), "carrier is not a subalgebra of the 2-atom powerset"),
        (lambda: generated_subalgebra(P2, [1.0]), "mask 1.0 is not an element of the algebra"),
        (lambda: generated_subalgebra(P2, [True]), "mask True is not an element of the algebra"),
        (lambda: hyperspace_basic_set(E, [1.0]), "mask 1.0 is not an element of the algebra"),
        (lambda: cofactor_projections(C, 0.0, 1), "cofactor index 0.0 is not an integer"),
        (lambda: search_pair(c3, (1,)), "capacities (1,) are not a pair (a, b)"),
        (lambda: search_pair(c3, 5), "capacities 5 are not a pair (a, b)"),
        (lambda: search_pair(c3, (0, 1)), "capacity a 0 is below 1"),
        (lambda: search_pair(c3, (1, 1), -1), "node budget -1 is below 0"),
        (lambda: brute_feasible(c3, (1,)), "capacities (1,) are not a pair (a, b)"),
        (lambda: frontier(c3, 10**6, workers=True), "worker count True is not an integer"),
        (lambda: frontier(c3, 10**6, workers=1.5), "worker count 1.5 is not an integer"),
        (lambda: literal_normal_forms(C, 1.0), "mask 1.0 is not an element of the algebra"),
        (lambda: literal_normal_forms(C, 99), "mask 99 is not an element of the algebra"),
        (lambda: C.embed(5, 1), "cofactor index 5 is not below 2"),
        (lambda: C.embed(0, 1.0), "mask 1.0 is not an element of the algebra"),
    ]


@pytest.mark.parametrize("call, message", _refusals())
def test_refusal_is_invalid_argument(call, message):
    with pytest.raises(InvalidArgument) as e:
        call()
    assert type(e.value) is InvalidArgument and str(e.value) == message
