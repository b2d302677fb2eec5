import ast
import inspect
import random
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fnlab
from fnlab import boolalg, poset
from fnlab import serialize as ser
from fnlab.boolalg import (
    ALGEBRA_CAP,
    BooleanAlgebra,
    CoproductAlgebra,
    _prefix_family,
    atom_patterns,
    coproduct,
    exponential,
    generated_subalgebra,
    hyperspace_basic_set,
    interval_algebra,
    interval_mask,
    literal_normal_forms,
    powerset_algebra,
    subalgebra_index_mask,
    subalgebra_masks,
    tree_algebra,
    tree_nodes,
)
from fnlab.errors import FnLabError, InvalidArgument, SizeExceeded
from fnlab.oracle import fixpoint_subalgebra
from fnlab.poset import Poset, diamond


def eval_dnf(C: CoproductAlgebra, conjuncts) -> int:
    out = 0
    for conj in conjuncts:
        term = C.base.one
        for i, c in conj:
            term &= C.embed(i, c)
        out |= term
    return out


def naive_order(elems) -> Poset:
    """The inclusion order on ``elems`` by comparing every pair."""
    n = len(elems)
    up = [0] * n
    down = [0] * n
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if x & ~y == 0:
                up[i] |= 1 << j
                down[j] |= 1 << i
    return Poset(n, tuple(up), tuple(down))


def is_closed(k: int, elems) -> bool:
    """Closure of a mask set under meet and complement, pair by pair."""
    one = (1 << k) - 1
    s = set(elems)
    return 0 in s and all(one ^ x in s and x & y in s for x in s for y in s)


def eval_cnf(C: CoproductAlgebra, clauses) -> int:
    out = C.base.one
    for clause in clauses:
        term = 0
        for i, c in clause:
            term |= C.embed(i, c)
        out &= term
    return out


class TestPowerset:
    def test_degenerate(self):
        A = powerset_algebra(0)
        assert A.size == 1 and A.one == A.zero == 0

    def test_two_element(self):
        assert powerset_algebra(1).size == 2

    def test_diamond_poset(self):
        assert powerset_algebra(2).as_poset() == diamond()

    def test_size_cap(self):
        with pytest.raises(SizeExceeded):
            powerset_algebra(30)


def full_forms(n: int) -> list[BooleanAlgebra]:
    """The ``n``-atom powerset four ways: implicit, listed, as the interval
    algebra and as the subalgebra its singletons generate."""
    return [
        powerset_algebra(n),
        BooleanAlgebra(n, carrier=range(1 << n)),
        interval_algebra(n),
        generated_subalgebra(powerset_algebra(n), [1 << i for i in range(n)]),
    ]


class TestElementSetEquality:
    """Algebras compare and hash by their element sets; provenance and the
    way the carrier is held do not count."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_forms_equal(self, n):
        forms = full_forms(n)
        for A in forms:
            assert A.atoms() == tuple(1 << i for i in range(n))
            for B in forms:
                assert A == B and hash(A) == hash(B)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_coproducts_and_exponentials_of_full_forms_equal(self, n):
        forms = full_forms(n)
        for A in forms:
            for B in forms:
                assert coproduct([A, B]) == coproduct([B, A])
                assert exponential(A) == exponential(B)

    def test_proper_subalgebras_differ(self):
        P2, P3 = powerset_algebra(2), powerset_algebra(3)
        assert generated_subalgebra(P2, []) != P2
        assert generated_subalgebra(P3, [1]) != generated_subalgebra(P3, [2])
        assert generated_subalgebra(P3, [1]) == BooleanAlgebra(3, carrier=[0, 1, 6, 7])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: powerset_algebra(2),
            lambda: BooleanAlgebra(2, carrier=range(4)),
            lambda: generated_subalgebra(powerset_algebra(3), [1]),
        ],
    )
    def test_element_mask_past_size_raises(self, make):
        A = make()
        assert [A.element_mask(i) for i in range(A.size)] == list(A.elements())
        with pytest.raises(InvalidArgument):
            A.element_mask(A.size)


class TestProvenance:
    """An algebra's provenance is the recipe its file holds: the kind and its
    parameters, and nothing the algebra itself already knows."""

    @pytest.mark.parametrize(
        "make, recipe",
        [
            (lambda: powerset_algebra(2), {"kind": "powerset"}),
            (lambda: BooleanAlgebra(2, [0, 3]), {"kind": "subalgebra", "generators": []}),
            (
                lambda: generated_subalgebra(powerset_algebra(3), [6, 1, 1]),
                {"kind": "subalgebra", "generators": [1, 6]},
            ),
            (lambda: interval_algebra(2), {"kind": "interval", "n": 2, "generators": [1, 3, 2]}),
            (
                lambda: tree_algebra(2, 2),
                {"kind": "tree", "lam": 2, "kap": 2, "generators": [255, 85]},
            ),
            (lambda: coproduct([powerset_algebra(2), powerset_algebra(1)]).base,
             {"kind": "powerset"}),
            (lambda: exponential(powerset_algebra(2)).algebra, {"kind": "powerset"}),
        ],
    )
    def test_recipe(self, make, recipe):
        assert make().provenance == recipe

    def test_coproduct_base_repr_says_powerset(self):
        base = coproduct([powerset_algebra(2), powerset_algebra(1)]).base
        assert repr(base) == "BooleanAlgebra(atoms=2, size=4, kind=powerset)"


NOT_PLAIN = {
    "coproduct": lambda: coproduct([powerset_algebra(1)]),
    "exponential": lambda: exponential(powerset_algebra(1)),
}


@pytest.mark.parametrize("arg", NOT_PLAIN)
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda A: coproduct([powerset_algebra(1), A]), "cofactors must be plain boolean algebras"),
        (exponential, "an exponential base must be a plain boolean algebra"),
        (
            lambda A: generated_subalgebra(A, [1]),
            "a subalgebra's ambient must be a plain boolean algebra",
        ),
    ],
    ids=["coproduct", "exponential", "generated_subalgebra"],
)
def test_constructors_take_plain_algebras_only(arg, build, message):
    with pytest.raises(InvalidArgument) as e:
        build(NOT_PLAIN[arg]())
    assert type(e.value) is InvalidArgument and str(e.value) == message


class TestGeneratedSubalgebra:
    def test_empty_generators(self):
        A = generated_subalgebra(powerset_algebra(2), [])
        assert A.carrier == (0, 3)

    def test_complement_closure_fills_diamond(self):
        A = generated_subalgebra(powerset_algebra(2), [1])
        assert A.carrier == (0, 1, 2, 3)

    def test_two_overlapping_two_atom_masks(self):
        A = generated_subalgebra(powerset_algebra(3), [0b011, 0b110])
        assert A.size == 8

    def test_contains_generators_and_idempotent(self):
        B = powerset_algebra(4)
        gens = [0b0011, 0b0101]
        A = generated_subalgebra(B, gens)
        assert all(g in A.carrier for g in gens)
        again = generated_subalgebra(A, A.carrier)
        assert again.carrier == A.carrier

    @given(st.integers(0, 10**6))
    def test_monotone_in_generators(self, seed):
        rng = random.Random(seed)
        k = rng.randint(1, 6)
        B = powerset_algebra(k)
        gens = [rng.randrange(1 << k) for _ in range(3)]
        small = set(generated_subalgebra(B, gens[:2]).carrier)
        big = set(generated_subalgebra(B, gens).carrier)
        assert small <= big

    @given(st.integers(0, 10**6))
    def test_matches_fixpoint_oracle(self, seed):
        rng = random.Random(seed)
        k = rng.randint(1, 6)
        gens = [rng.randrange(1 << k) for _ in range(rng.randint(0, 4))]
        got = set(generated_subalgebra(powerset_algebra(k), gens).carrier)
        assert got == fixpoint_subalgebra(k, gens)

    def test_carrier_validation(self):
        with pytest.raises(ValueError):
            BooleanAlgebra(2, carrier=[0, 1, 3])  # missing complement of 1


class TestIntervalAlgebra:
    def test_one_point(self):
        assert interval_algebra(1).size == 2

    def test_singleton_intervals_generate_everything(self):
        assert interval_algebra(3).size == 8

    def test_generator_count_enumerates_pairs(self):
        # one generator per alpha < beta <= n
        gens = interval_algebra(4).provenance["generators"]
        assert len(gens) == 10
        assert gens[0] == interval_mask(0, 1)
        assert interval_mask(1, 3) == 0b0110

    def test_closure_is_full_powerset(self):
        for n in range(1, 6):
            assert interval_algebra(n).size == 1 << n

    def test_same_as_listed_closure(self):
        """The powerset equals the closure of its generators, listed, and
        writes the same file bytes."""
        for n in range(17):
            A = interval_algebra(n)
            gens = A.provenance["generators"]
            listed = BooleanAlgebra(n, subalgebra_masks(n, gens), provenance=A.provenance)
            assert A == listed
            assert ser.dumps(ser.algebra_to_obj(A)) == ser.dumps(ser.algebra_to_obj(listed))

    def test_size_cap_before_generators(self):
        # a million-point chain has about 5 * 10^11 generators to list
        t = time.perf_counter()
        with pytest.raises(SizeExceeded):
            interval_algebra(10**6)
        assert time.perf_counter() - t < 0.5


class TestTreeAlgebra:
    def test_depth_one_is_two_element(self):
        for lam in (1, 2, 3):
            A = tree_algebra(lam, 1)
            assert A.size == 2

    def test_two_by_two(self):
        A = tree_algebra(2, 2)
        nodes = tree_nodes(2, 2)
        assert len(nodes) == 3
        assert [sorted(f) for f in _prefix_family(nodes)] == [[], [0]]
        assert A.size == 4

    def test_two_by_three_frozen(self):
        A = tree_algebra(2, 3)
        nodes = tree_nodes(2, 3)
        assert len(nodes) == 7
        assert len(_prefix_family(nodes)) == 5
        assert A.size == 32

    def test_family_matches_brute_enumeration(self):
        # independently enumerate the strict-prefix unions over all finite
        # subsets of the node set
        for lam, kap in ((2, 2), (2, 3), (3, 2)):
            nodes = tree_nodes(lam, kap)
            pos = {tuple(s): i for i, s in enumerate(nodes)}
            brute = set()
            for picks in product([0, 1], repeat=len(nodes)):
                members = frozenset(
                    pos[tuple(s[:i])]
                    for s, take in zip(nodes, picks)
                    if take
                    for i in range(len(s))
                )
                brute.add(members)
            got = {frozenset(f) for f in _prefix_family(nodes)}
            assert got == brute

    def test_generators_are_vanishing_sets(self):
        A = tree_algebra(2, 2)
        # Z(emptyset) is everything
        assert A.provenance["generators"][0] == (1 << A.k) - 1
        # point by point: the colourings that are 0 on every node of I
        for lam, kap in ((2, 2), (2, 3), (3, 2), (1, 5)):
            A = tree_algebra(lam, kap)
            family = _prefix_family(tree_nodes(lam, kap))
            assert len(family) == len(A.provenance["generators"])
            for member, z in zip(family, A.provenance["generators"]):
                imask = sum(1 << i for i in member)
                assert z == sum(1 << p for p in range(A.k) if p & imask == 0)


class TestCoproduct:
    def test_two_two_element_cofactors(self):
        C = coproduct([powerset_algebra(1), powerset_algebra(1)])
        assert C.katoms == 1 and C.base.size == 2

    def test_two_diamonds(self):
        C = coproduct([powerset_algebra(2)] * 2)
        assert C.katoms == 4 and C.base.size == 16
        # e1(a1) covers the atom tuples (a1, *)
        assert C.embed(0, 1) == 0b0011
        assert C.embed(1, 1) == 0b0101

    def test_embeddings_are_homomorphisms(self):
        C = coproduct([powerset_algebra(2)] * 2)
        for i in (0, 1):
            B = C.cofactors[i]
            assert C.embed(i, 0) == 0 and C.embed(i, B.one) == C.base.one
            for x in B.elements():
                assert C.embed(i, B.complement(x)) == C.base.one ^ C.embed(i, x)
                for y in B.elements():
                    assert C.embed(i, x & y) == C.embed(i, x) & C.embed(i, y)
                    assert C.embed(i, x | y) == C.embed(i, x) | C.embed(i, y)

    def test_images_intersect_in_zero_one(self):
        C = coproduct([powerset_algebra(2)] * 2)
        img0 = set(C.embedded_image(0))
        img1 = set(C.embedded_image(1))
        assert img0 & img1 == {0, C.base.one}

    def test_embeddings_injective(self):
        C = coproduct([powerset_algebra(2), powerset_algebra(3)])
        for i, B in enumerate(C.cofactors):
            assert len(set(C.embedded_image(i))) == B.size

    def test_carrier_cofactor(self):
        A = tree_algebra(2, 2)  # 4-element carrier inside an 8-atom ambient
        C = coproduct([A, powerset_algebra(1)])
        assert C.katoms == 2
        assert len(set(C.embedded_image(0))) == 4

    def test_atom_count_is_product(self):
        C = coproduct([powerset_algebra(2), powerset_algebra(3), powerset_algebra(1)])
        assert C.katoms == 6

    def test_degenerate_cofactor_rejected(self):
        with pytest.raises(InvalidArgument, match="^cofactors must have at least two elements$"):
            coproduct([powerset_algebra(1), powerset_algebra(0)])

    def test_size_cap(self):
        with pytest.raises(SizeExceeded):
            coproduct([powerset_algebra(3)] * 3)  # 27 atoms > 2^20 elements


class TestLiteralNormalForms:
    def test_zero_and_one_conventions(self):
        C = coproduct([powerset_algebra(2)] * 2)
        nf0 = literal_normal_forms(C, 0)
        assert nf0.dnf == () and nf0.cnf == (frozenset(),)
        nf1 = literal_normal_forms(C, C.base.one)
        assert nf1.dnf == (frozenset(),) and nf1.cnf == ()

    def test_single_atom_tuple(self):
        C = coproduct([powerset_algebra(2)] * 2)
        x = C.embed(0, 1) & C.embed(1, 1)
        nf = literal_normal_forms(C, x)
        assert nf.dnf == (frozenset({(0, 1), (1, 1)}),)

    def test_eval_back_exhaustive(self):
        for arities in ((2, 2), (1, 2), (2, 3)):
            C = coproduct([powerset_algebra(k) for k in arities])
            for x in range(C.base.size):
                nf = literal_normal_forms(C, x)
                assert eval_dnf(C, nf.dnf) == x
                assert eval_cnf(C, nf.cnf) == x

    def test_literals_avoid_zero_and_one(self):
        C = coproduct([powerset_algebra(1), powerset_algebra(2)])
        for x in range(C.base.size):
            nf = literal_normal_forms(C, x)
            for clause in nf.dnf + nf.cnf:
                for i, c in clause:
                    assert c not in (0, C.cofactors[i].one)


class TestExponential:
    def test_two_element_base(self):
        E = exponential(powerset_algebra(1))
        assert E.points == (1,) and E.algebra.size == 2

    def test_diamond_base(self):
        E = exponential(powerset_algebra(2))
        assert E.points == (1, 2, 3)
        assert E.algebra.size == 8
        assert E.bracket(1) == 0b001
        assert E.bracket(E.base.one) == E.algebra.one

    def test_atom_count_is_base_size_minus_one(self):
        for k in (1, 2, 3):
            E = exponential(powerset_algebra(k))
            assert E.algebra.k == E.base.size - 1

    def test_relations_hold(self):
        # they hold by construction, on every kind of plain base
        bases = [powerset_algebra(k) for k in (1, 2, 3)] + [
            generated_subalgebra(powerset_algebra(4), [0b0011, 0b0110]),
            tree_algebra(2, 2),
        ]
        for B in bases:
            E = exponential(B)
            assert E.bracket(0) == 0 and E.bracket(B.one) == E.algebra.one
            elems = list(E.base.elements())
            for a in elems:
                for b in elems:
                    assert E.bracket(a & b) == E.bracket(a) & E.bracket(b)
                    assert (E.bracket(a) | E.bracket(b)) & ~E.bracket(a | b) == 0
                    if E.base.leq(a, b):
                        assert E.algebra.leq(E.bracket(a), E.bracket(b))

    def test_join_strictness_witness(self):
        E = exponential(powerset_algebra(2))
        w = E.join_strictness_witness()
        assert w == (1, 2)
        assert E.bracket(1) | E.bracket(2) == 0b011
        assert E.bracket(3) == 0b111  # the top point witnesses strictness

    def test_no_strictness_below_two_atoms(self):
        assert exponential(powerset_algebra(1)).join_strictness_witness() is None

    def test_base_cap(self):
        with pytest.raises(SizeExceeded):
            exponential(powerset_algebra(5))  # 2^31 elements > ALGEBRA_CAP

    @pytest.mark.parametrize(
        "base, mask",
        [
            (powerset_algebra(2), 4),  # past the atoms
            (powerset_algebra(2), -1),
            (generated_subalgebra(powerset_algebra(3), [0b011]), 0b001),  # not in the carrier
        ],
    )
    def test_bracket_of_non_element(self, base, mask):
        with pytest.raises(InvalidArgument):
            exponential(base).bracket(mask)

    def test_carrier_base(self):
        A = generated_subalgebra(powerset_algebra(3), [0b011])
        E = exponential(A)
        assert E.points == (0b011, 0b100, 0b111)


class TestHyperspaceBasicSets:
    def test_full_family(self):
        E = exponential(powerset_algebra(2))
        assert hyperspace_basic_set(E, [E.base.one]) == E.algebra.one

    def test_single_atom(self):
        E = exponential(powerset_algebra(2))
        assert hyperspace_basic_set(E, [1]) == 0b001

    def test_both_atoms_pin_the_top(self):
        E = exponential(powerset_algebra(2))
        assert hyperspace_basic_set(E, [1, 2]) == 0b100

    def test_empty_family_rejected(self):
        with pytest.raises(InvalidArgument, match="^basic sets need a nonempty family$"):
            hyperspace_basic_set(exponential(powerset_algebra(2)), [])

    def test_zero_member_rejected(self):
        E = exponential(powerset_algebra(2))
        with pytest.raises(InvalidArgument, match="^basic set members must be nonzero$"):
            hyperspace_basic_set(E, [0, 1])


class TestAtoms:
    def test_powerset_atoms(self):
        assert powerset_algebra(3).atoms() == (1, 2, 4)

    def test_carrier_atoms_partition(self):
        A = generated_subalgebra(powerset_algebra(4), [0b0011, 0b0100])
        atoms = A.atoms()
        union = 0
        for x in atoms:
            assert union & x == 0
            union |= x
        assert union == A.one


class TestWordParallelKernel:
    def test_atom_patterns(self):
        for k in range(7):
            pats = atom_patterns(k)
            assert len(pats) == k
            for i, pat in enumerate(pats):
                assert pat == sum(1 << x for x in range(1 << k) if x >> i & 1)

    @pytest.mark.parametrize("k", range(9))
    def test_powerset_order_matches_pairwise(self, k):
        assert powerset_algebra(k).as_poset() == naive_order(range(1 << k))

    def test_carrier_order_matches_pairwise(self):
        rng = random.Random(8)
        algebras = [generated_subalgebra(powerset_algebra(5), [0b00111, 0b01100])]
        for _ in range(60):
            k = rng.randint(0, 8)
            gens = [rng.randrange(1 << k) for _ in range(rng.randint(0, 4))]
            algebras.append(generated_subalgebra(powerset_algebra(k), gens))
        algebras += [interval_algebra(n) for n in range(6)]
        trees = [(0, 1), (1, 1), (1, 3), (1, 6), (2, 2), (2, 3), (3, 2), (3, 3)]
        algebras += [tree_algebra(lam, kap) for lam, kap in trees]
        for A in algebras:
            # the order is built on each call and the algebra keeps no state
            state = dict(vars(A))
            assert A.as_poset() == naive_order(A.carrier) == A.as_poset(), A
            assert vars(A) == state, A

    def test_carrier_order_is_word_parallel(self):
        A = tree_algebra(1, 12)  # 4096 elements: a pairwise order takes seconds
        t = time.perf_counter()
        assert A.as_poset().n == 4096
        assert time.perf_counter() - t < 1.0

    def test_index_mask_matches_listed_masks(self):
        rng = random.Random(6)
        for _ in range(200):
            k = rng.randint(0, 8)
            gens = [rng.randrange(1 << k) for _ in range(rng.randint(0, 5))]
            listed = sum(1 << m for m in subalgebra_masks(k, gens))
            assert subalgebra_index_mask(k, frozenset(gens)) == listed

    def test_carrier_check_matches_pairwise_closure(self):
        rng = random.Random(7)
        for _ in range(300):
            k = rng.randint(0, 4)
            if rng.random() < 0.5:
                elems = set(subalgebra_masks(k, [rng.randrange(1 << k) for _ in range(2)]))
                elems ^= {rng.randrange(1 << k)} if rng.random() < 0.5 else set()
            else:
                elems = {0, (1 << k) - 1} | {rng.randrange(1 << k) for _ in range(3)}
            if is_closed(k, elems):
                A = BooleanAlgebra(k, carrier=elems)
                nonzero = [x for x in elems if x]
                minimal = [x for x in nonzero if not any(y != x and y & ~x == 0 for y in nonzero)]
                assert A.atoms() == tuple(sorted(minimal))
            else:
                with pytest.raises(ValueError):
                    BooleanAlgebra(k, carrier=elems)

    def test_carrier_check_refuses_duplicates_and_wide_masks(self):
        for carrier in ([0, 0, 3, 3], [0, 1, 2, 3, 4, 7, 8, 15], [-1, 0]):
            with pytest.raises(ValueError):
                BooleanAlgebra(2, carrier=carrier)

    def test_tree_vanishing_sets_past_the_work_bound(self):
        # 13 nested vanishing sets give 2^13 elements of 2^13 atoms
        with pytest.raises(SizeExceeded):
            tree_algebra(1, 13)
        assert tree_algebra(1, 12).size == 4096


class TestSizeCaps:
    def test_order_obeys_poset_cap(self):
        # 8192 elements > MAX_ELEMENTS: refused before the all-pairs loop
        with pytest.raises(SizeExceeded):
            powerset_algebra(13).as_poset()

    def test_element_cap_in_constructor(self):
        with pytest.raises(SizeExceeded):
            BooleanAlgebra(21)

    def test_carrier_length_cap_in_constructor(self):
        # one atom keeps the carrier under the work bound: the length is refused
        with pytest.raises(SizeExceeded, match="1048577 elements exceed cap"):
            BooleanAlgebra(1, carrier=range(ALGEBRA_CAP + 1))

    def test_atom_cap_in_constructor(self):
        with pytest.raises(SizeExceeded):
            BooleanAlgebra(ALGEBRA_CAP + 1, carrier=[0, 1])

    def test_carrier_work_bound_in_constructor(self):
        # 32 masks of 2^20 bits hold more bits than 2^20 masks of 20 bits
        with pytest.raises(SizeExceeded):
            BooleanAlgebra(ALGEBRA_CAP, carrier=range(32))

    def test_negative_atoms_rejected(self):
        with pytest.raises(ValueError):
            BooleanAlgebra(-1)

    def test_exponential_base_bound_follows_from_algebra_cap(self):
        assert exponential(powerset_algebra(4)).algebra.size == 2**15
        with pytest.raises(SizeExceeded):
            exponential(powerset_algebra(5))


def test_no_cap_parameters():
    """Caps are module constants checked where data is built, not per-call
    knobs."""
    found = []
    for module in (boolalg, poset):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [
                    (f"{name}.{m}", f)
                    for m, f in vars(obj).items()
                    if inspect.isfunction(f) and not m.startswith("_")
                ]
            for qualname, fn in members:
                if callable(fn):
                    params = inspect.signature(fn).parameters
                    found += [(qualname, p) for p in ("max_size", "max_base") if p in params]
    assert found == []


def test_no_bare_value_errors():
    """The library reports a bad argument as ``InvalidArgument``, which the
    CLI maps to exit 2, never as a bare ``ValueError``."""
    root = Path(fnlab.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id == "ValueError"
    ]
    assert found == []


def test_refused_arguments_share_one_class():
    """Every refused argument is an ``InvalidArgument``: an error class of its
    own either carries witness data (its own ``__init__``) or is one of the
    message-only classes with a distinct meaning or exit code."""
    message_only = {"InvalidArgument", "SizeExceeded"}
    found, todo = [], [FnLabError]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if "__init__" not in vars(cls) and cls.__name__ not in message_only:
                found.append(cls.__name__)
    assert found == []
