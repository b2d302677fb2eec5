import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fnlab import interpolant_lookup, transport_subalgebra, trivial_pair
from fnlab.errors import FnLabError, InvalidArgument, SizeExceeded
from fnlab.boolalg import powerset_algebra
from fnlab.gen import random_poset
from fnlab.poset import (
    MAX_ELEMENTS,
    MonotoneMap,
    Poset,
    SubsetView,
    antichain,
    bits_of,
    chain,
    check_retraction,
    cofinality_below,
    coinitiality_above,
    diamond,
    mask_of,
    _eliminate,
    _poset_from_rows,
    poset_from_covers,
    subposet_degree,
)
from helpers import identity_map


def fixpoint_closure(n, covers):
    """Reference closure: rerun every row until no row grows."""
    rows = [1 << x for x in range(n)]
    for lo, hi in covers:
        rows[lo] |= 1 << hi
    changed = True
    while changed:
        changed = False
        for x in range(n):
            acc = rows[x]
            for y in bits_of(acc):
                acc |= rows[y]
            if acc != rows[x]:
                rows[x] = acc
                changed = True
    return rows


def pairwise_axioms(n, rows):
    """Reference axiom scan over every comparable pair; the down rows."""
    for x in range(n):
        if not rows[x] >> x & 1:
            raise InvalidArgument(f"relation is not reflexive at element {x}")
    for x in range(n):
        for y in bits_of(rows[x] & ~(1 << x)):
            if rows[y] >> x & 1:
                lo, hi = sorted((x, y))
                raise InvalidArgument(f"relation is not antisymmetric: {lo} <= {hi} and {hi} <= {lo}")
    for x in range(n):
        for y in bits_of(rows[x]):
            for z in bits_of(rows[y]):
                if not rows[x] >> z & 1:
                    raise InvalidArgument(
                        f"relation is not transitive: {x} <= {y} <= {z} but not {x} <= {z}"
                    )
    return [sum(1 << x for x in range(n) if rows[x] >> y & 1) for y in range(n)]


def bitloop_transpose(n, rows):
    """Reference transpose, one bit per step."""
    down = [0] * n
    for x in range(n):
        for y in bits_of(rows[x]):
            down[y] |= 1 << x
    return down


def pairwise_covers(n, up, down):
    """Reference Hasse edges: test every comparable pair for an element
    strictly between, then sort."""
    out = []
    for p in range(n):
        strict_up = up[p] & ~(1 << p)
        for q in bits_of(strict_up):
            if not strict_up & down[q] & ~(1 << q):
                out.append((p, q))
    out.sort()
    return out


def reference_order(n, rows):
    """``(up, down, covers)`` by the reference recipes, or the error."""
    try:
        down = pairwise_axioms(n, rows)
    except FnLabError as e:
        return type(e), str(e)
    return tuple(rows), tuple(down), pairwise_covers(n, rows, down)


def built_order(build, *args):
    try:
        P = build(*args)
    except FnLabError as e:
        return type(e), str(e)
    return P.up, P.down, P.covers()


def check_against_references(n, pairs):
    """A cover list builds what the references build, or fails the same
    way."""
    assert built_order(poset_from_covers, n, pairs) == reference_order(
        n, fixpoint_closure(n, pairs)
    )


class TestAgainstReferences:
    """The one-pass closure, antisymmetry and Hasse edges against the
    fixpoint closure, the pairwise axiom scan and the pairwise covers test."""

    def test_seeded_sweep(self):
        rng = random.Random(14)
        for _ in range(1500):
            n = rng.randint(0, 7)
            # up to 2n random edges: cycles and self-loops included
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
            check_against_references(n, pairs)

    def test_random_posets(self):
        rng = random.Random(15)
        for _ in range(200):
            P = random_poset(rng.randint(0, 7), rng, rng.random())
            assert built_order(poset_from_covers, P.n, P.covers()) == reference_order(
                P.n, fixpoint_closure(P.n, P.covers())
            )

    def test_relabeled_and_cyclic_sweep(self):
        """Up to 12 elements on orders whose index order is not a linear
        extension: their whole relation, some of its pairs dropped, or one
        pair reversed (a cycle)."""
        rng = random.Random(16)
        for _ in range(800):
            n = rng.randint(0, 12)
            P = random_poset(n, rng, rng.random())
            pairs = [(x, y) for x in range(n) for y in bits_of(P.up[x]) if x != y]
            kind = rng.randrange(3)
            if kind == 1:
                pairs = [e for e in pairs if rng.random() < 0.8]
            elif kind == 2 and pairs:
                pairs.append(rng.choice(pairs)[::-1])
            rng.shuffle(pairs)
            check_against_references(n, pairs)

    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14),
            )
        )
    )
    def test_property(self, case):
        check_against_references(*case)


def random_covers(n, rng):
    """Up to ``min(n * n // 4, 4 * n)`` random edges, each ``lo -> hi`` in
    a shuffled index order; then sometimes one edge reversed, or a few
    random edges in either direction, which may close cycles."""
    if n < 2:
        return []
    order = rng.sample(range(n), n)
    covers = []
    for _ in range(rng.randint(0, min(n * n // 4, 4 * n))):
        i, j = sorted(rng.sample(range(n), 2))
        covers.append((order[i], order[j]))
    kind = rng.randrange(3)
    if kind == 1 and covers:
        covers.append(rng.choice(covers)[::-1])
    elif kind == 2:
        covers.extend(tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3)))
    return covers


class TestTranspose:
    @pytest.mark.parametrize("n", [*range(71), 255, 256, 257, 1024])
    def test_matches_bit_loop(self, n):
        """The down rows are the bit-loop transpose of the reference
        closure, or a cyclic list fails with the reference witness."""
        rng = random.Random(n)
        for _ in range(3):
            covers = random_covers(n, rng)
            rows = fixpoint_closure(n, covers)
            try:
                P = poset_from_covers(n, covers)
            except InvalidArgument as e:
                with pytest.raises(InvalidArgument) as ref:
                    pairwise_axioms(n, rows)
                assert str(e) == str(ref.value)
            else:
                assert P.up == tuple(rows)
                assert P.down == tuple(bitloop_transpose(n, rows))

    def test_powerset_order_from_its_covers(self):
        P = powerset_algebra(12).as_poset()
        assert poset_from_covers(4096, P.covers()) == P  # up and down rows


class TestValidate:
    def test_two_cycle_rejected(self):
        with pytest.raises(
            InvalidArgument, match="^relation is not antisymmetric: 0 <= 1 and 1 <= 0$"
        ):
            poset_from_covers(2, [(0, 1), (1, 0)])

    def test_size_cap(self):
        with pytest.raises(SizeExceeded):
            poset_from_covers(MAX_ELEMENTS + 1, [])

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            _poset_from_rows(-1, [], [])
        with pytest.raises(ValueError):
            poset_from_covers(-1, [])

    def test_closure_is_word_parallel(self):
        covers = powerset_algebra(12).as_poset().covers()
        t = time.perf_counter()
        assert poset_from_covers(4096, covers).n == 4096  # a pairwise closure takes seconds
        assert time.perf_counter() - t < 1.0

    def test_covers_round_trip(self):
        for P in (chain(4), antichain(3), diamond()):
            assert poset_from_covers(P.n, P.covers()) == P

    def test_cyclic_covers_rejected(self):
        with pytest.raises(InvalidArgument, match="^relation is not antisymmetric"):
            poset_from_covers(3, [(0, 1), (1, 2), (2, 0)])


class TestDownUpSets:
    def test_chain_top(self):
        assert chain(3).down[2] == 0b111

    def test_antichain_singleton(self):
        assert antichain(4).down[2] == 0b100

    def test_diamond_side(self):
        assert diamond().down[1] == 0b11

    @given(st.integers(0, 10**6), st.integers(1, 7))
    def test_duality(self, seed, n):
        P = random_poset(n, random.Random(seed))
        for p in range(n):
            for x in range(n):
                assert (P.down[p] >> x & 1) == (P.up[x] >> p & 1)


class TestPlainIntIndices:
    """An element index is a plain int: a float, a bool or a string is
    refused as ``InvalidArgument`` naming it, and so is an int outside the
    poset."""

    @pytest.mark.parametrize(
        "call, bad",
        [
            (lambda: chain(3).leq(0.5, 1), 0.5),
            (lambda: chain(3).leq(True, 2), True),
            (lambda: chain(3).leq(1, 1.0), 1.0),
            (lambda: chain(3).leq("0", 2), "0"),
            (lambda: SubsetView(chain(3), frozenset({0.5, 1})), 0.5),
            (lambda: interpolant_lookup(trivial_pair(chain(2)), 0.0, 1), 0.0),
            (lambda: cofinality_below(SubsetView(chain(3), frozenset({1})), 1.0), 1.0),
            (lambda: coinitiality_above(SubsetView(chain(3), frozenset({1})), False), False),
            (lambda: MonotoneMap(chain(2), chain(2), (0.0, 1)), 0.0),
            (lambda: MonotoneMap(chain(2), chain(2), (False, True)), False),
        ],
    )
    def test_element_refused(self, call, bad):
        with pytest.raises(InvalidArgument) as e:
            call()
        assert type(e.value) is InvalidArgument
        assert str(e.value) == f"element {bad!r} is not an integer"

    @pytest.mark.parametrize("edge", [(0.0, 1), (False, True), (0, "1"), (None, 1)])
    def test_cover_edge_refused(self, edge):
        with pytest.raises(InvalidArgument) as e:
            poset_from_covers(3, [edge])
        assert type(e.value) is InvalidArgument
        bad = next(end for end in edge if type(end) is not int)
        assert str(e.value) == f"cover edge end {bad!r} is not an integer"

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: poset_from_covers(2, [(0, 1, 2)]),
             "cover edge (0, 1, 2) is not a pair of integer indices"),
            (lambda: poset_from_covers(2, [5]), "cover edge 5 is not a pair of integer indices"),
        ],
    )
    def test_malformed_cover_or_matrix_refused(self, call, message):
        with pytest.raises(InvalidArgument) as e:
            call()
        assert type(e.value) is InvalidArgument and str(e.value) == message

    def test_view_refused_before_transport(self):
        with pytest.raises(InvalidArgument):
            transport_subalgebra(trivial_pair(chain(3)), SubsetView(chain(3), frozenset({0.5, 1})))

    def test_out_of_range_int_is_index_error(self):
        with pytest.raises(InvalidArgument):
            chain(3).leq(0, 3)
        with pytest.raises(InvalidArgument):
            poset_from_covers(3, [(0, 3)])
        with pytest.raises(InvalidArgument):
            MonotoneMap(chain(2), chain(2), (0, -1))


class TestCofinality:
    def test_singleton_trace(self):
        assert cofinality_below(SubsetView(diamond(), frozenset({0})), 1) == 1

    def test_two_incomparable_maximal(self):
        assert cofinality_below(SubsetView(diamond(), frozenset({1, 2})), 3) == 2

    def test_chain_trace(self):
        assert cofinality_below(SubsetView(chain(3), frozenset({0, 1})), 2) == 1

    def test_empty_trace(self):
        assert cofinality_below(SubsetView(chain(2), frozenset({1})), 0) == 0

    def test_coinitiality_dual(self):
        assert coinitiality_above(SubsetView(diamond(), frozenset({1, 2})), 0) == 2

    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_bounded_by_subset_size(self, seed, n):
        rng = random.Random(seed)
        P = random_poset(n, rng)
        members = frozenset(x for x in range(n) if rng.random() < 0.5)
        A = SubsetView(P, members)
        for p in range(n):
            assert cofinality_below(A, p) <= len(members)
            assert coinitiality_above(A, p) <= len(members)


class TestSubposetDegree:
    def test_whole_poset_is_one(self):
        for P in (chain(4), antichain(3), diamond()):
            assert subposet_degree(SubsetView(P, frozenset(range(P.n)))) == 1

    def test_diamond_antichain_is_two(self):
        assert subposet_degree(SubsetView(diamond(), frozenset({1, 2}))) == 2

    def test_empty_view(self):
        assert subposet_degree(SubsetView(chain(2), frozenset())) == 0


def scanned_extremal(P, members, maximal):
    """Reference: the members with no other member above them
    (``maximal``) or below them, by ``P.leq`` on every pair."""
    return frozenset(
        x
        for x in members
        if not any(y != x and (P.leq(x, y) if maximal else P.leq(y, x)) for y in members)
    )


def reference_posets(rng):
    for density in (0.2, 0.35, 0.5):
        for _ in range(5):
            yield random_poset(rng.randint(1, 12), rng, density)
    yield from (chain(6), diamond(), powerset_algebra(3).as_poset())


class TestExtremalAgainstScan:
    """Maximal elements of ``A ∩ ↓p``, minimal elements of ``A ∩ ↑p`` and
    the elimination walk on any mask, against a pairwise scan."""

    def test_degree_functions(self):
        rng = random.Random(37)
        for P in reference_posets(rng):
            for _ in range(3):
                members = frozenset(x for x in range(P.n) if rng.random() < 0.5)
                A = SubsetView(P, members)
                degree = 0
                for p in range(P.n):
                    below = scanned_extremal(P, [x for x in members if P.leq(x, p)], True)
                    above = scanned_extremal(P, [x for x in members if P.leq(p, x)], False)
                    assert cofinality_below(A, p) == len(below), (P, members, p)
                    assert coinitiality_above(A, p) == len(above), (P, members, p)
                    degree = max(degree, len(below), len(above))
                assert subposet_degree(A) == degree, (P, members)

    def test_eliminate_on_masks(self):
        rng = random.Random(38)
        for P in reference_posets(rng):
            for _ in range(10):
                m = rng.getrandbits(P.n)
                members = list(bits_of(m))
                assert _eliminate(P.up, m) == mask_of(scanned_extremal(P, members, False))
                assert _eliminate(P.down, m) == mask_of(scanned_extremal(P, members, True))


class TestMonotoneMap:
    def test_rejects_non_monotone(self):
        with pytest.raises(InvalidArgument, match="^map is not order-preserving at 0 <= 1$"):
            MonotoneMap(chain(2), chain(2), (1, 0))

    def test_rejects_partial(self):
        with pytest.raises(ValueError):
            MonotoneMap(chain(2), chain(2), (0,))

    def test_identity_retraction(self):
        idm = identity_map(chain(2))
        assert check_retraction(idm, idm)

    def test_chain3_retraction(self):
        i = MonotoneMap(chain(2), chain(3), (0, 2))
        j = MonotoneMap(chain(3), chain(2), (0, 0, 1))
        assert check_retraction(i, j)

    def test_failed_retraction(self):
        i = MonotoneMap(chain(2), chain(3), (0, 2))
        j = MonotoneMap(chain(3), chain(2), (0, 0, 0))
        assert not check_retraction(i, j)

    def test_domain_mismatch(self):
        i = MonotoneMap(chain(2), chain(3), (0, 2))
        with pytest.raises(
            InvalidArgument, match="^retraction check needs i: P -> Q and j: Q -> P$"
        ):
            check_retraction(i, identity_map(chain(2)))


def pairwise_monotone(dom, cod, image):
    """Reference monotonicity scan: the first comparable pair whose images
    are not comparable, or None."""
    for p in range(dom.n):
        for q in bits_of(dom.up[p]):
            if not cod.leq(image[p], image[q]):
                return InvalidArgument, f"map is not order-preserving at {p} <= {q}"
    return None


def slipping_map(dom, cod, rng, slip):
    """Images chosen along a linear extension of ``dom``: each element
    goes above the images of the elements below it, or anywhere with
    probability ``slip``."""
    image = [0] * dom.n
    for x in sorted(range(dom.n), key=lambda x: dom.down[x].bit_count()):
        allowed = cod.full_mask()
        for y in bits_of(dom.down[x] & ~(1 << x)):
            allowed &= cod.up[image[y]]
        choices = list(bits_of(allowed))
        if not choices or rng.random() < slip:
            choices = range(cod.n)
        image[x] = rng.choice(choices)
    return tuple(image)


class TestMonotoneAgainstPairwiseScan:
    def test_seeded_maps(self):
        rng = random.Random(17)
        verdicts = set()
        for _ in range(1000):
            dom = random_poset(rng.randint(0, 10), rng, rng.random())
            cod = random_poset(rng.randint(1, 10), rng, rng.random())
            image = slipping_map(dom, cod, rng, rng.choice((0.0, 0.05, 0.3)))
            try:
                MonotoneMap(dom, cod, image)
                got = None
            except InvalidArgument as e:
                got = type(e), str(e)
            assert got == pairwise_monotone(dom, cod, image)
            verdicts.add(got is None)
        assert verdicts == {True, False}


def transpose_as_poset(A: SubsetView):
    """Reference induced order: local up rows from the ambient up rows, the
    down rows by transposing them as they are built."""
    elems = tuple(sorted(A.members))
    pos = {e: i for i, e in enumerate(elems)}
    up = [0] * len(elems)
    down = [0] * len(elems)
    for a, ea in enumerate(elems):
        for eb in bits_of(A.ambient.up[ea] & A.mask):
            b = pos[eb]
            up[a] |= 1 << b
            down[b] |= 1 << a
    return len(elems), tuple(up), tuple(down), elems


class TestSubsetViewAsPoset:
    def test_rows_match_transpose_reference(self):
        rng = random.Random(15)
        for _ in range(300):
            P = random_poset(rng.randint(0, 12), rng, rng.random())
            A = SubsetView(P, frozenset(x for x in range(P.n) if rng.random() < 0.5))
            induced, elems = A.as_poset()
            assert (induced.n, induced.up, induced.down, elems) == transpose_as_poset(A)

    def test_induced_chain(self):
        induced, elems = SubsetView(diamond(), frozenset({0, 1, 3})).as_poset()
        assert induced == chain(3)
        assert elems == (0, 1, 3)

    def test_induced_antichain(self):
        induced, _ = SubsetView(diamond(), frozenset({1, 2})).as_poset()
        assert induced == antichain(2)


@st.composite
def index_lists(draw):
    """A list of indices below some ``n <= 1100``, repeats allowed, of any
    length up to ``n``, so both ways ``mask_of`` builds a mask are drawn."""
    n = draw(st.integers(0, 1100))
    size = draw(st.integers(0, n))
    return draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=size, max_size=size))


class TestMaskOf:
    @given(index_lists())
    @settings(max_examples=60, deadline=None)
    def test_matches_one_shift_per_index(self, indices):
        m = 0
        for i in indices:
            m |= 1 << i
        assert mask_of(indices) == m
        assert mask_of(frozenset(indices)) == m
