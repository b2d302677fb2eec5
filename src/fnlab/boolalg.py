"""Finite boolean algebras with atom-mask elements.

Every algebra lives inside the powerset of a finite atom set: an element is
the bitmask of the atoms below it, so meet/join/complement are single word
operations (exact finite Stone duality).  Every algebra's ``carrier`` is
the ascending sequence of its element masks: ``range(2**k)`` for a powerset
(the interval algebra is one), a listed tuple otherwise; algebras are equal
when their atom counts and element sets are.  All values are immutable
after construction.

Constructions provided: powerset, generated subalgebra, interval algebra,
tree algebra, coproduct (free product), and the exponential (the clopen
algebra of the hyperspace of the Stone dual, here the powerset over the
nonzero elements since every filter of a finite algebra is principal).
The coproduct, the exponential and a generated subalgebra take plain
algebras only.

An algebra's ``provenance`` is the recipe its file holds: the ``kind``
(``powerset``, ``interval``, ``tree`` or ``subalgebra``) plus the kind's
``n`` or ``lam`` and ``kap`` and its ``generators``, where it has them, and
nothing else.  A coproduct's base and an exponential's algebra are
powersets.

Every algebra builds its element order, and generated subalgebras their
element masks, word-parallel from per-atom bit patterns (``atom_patterns``)
and atom blocks (``atom_blocks``); coproducts embed by lane masks.

Size caps: every algebra goes through the :class:`BooleanAlgebra`
constructor, which refuses more than ``ALGEBRA_CAP`` elements or atoms, and
a listed carrier past the work bound: more bits (elements × atoms) than the
largest powerset under that cap would hold if listed.  A builder checks
these earlier only where it would do exponential work first.  The element
order (``as_poset``) obeys the poset cap ``MAX_ELEMENTS``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .errors import InvalidArgument, SizeExceeded
from .poset import Poset, bits_of, check_count, check_index, check_poset_size

ALGEBRA_CAP = 2**20


def _check_power(exponent: int, what: str) -> None:
    """Refuse ``2**exponent`` of ``what`` above ``ALGEBRA_CAP``, without
    computing the power."""
    if exponent >= ALGEBRA_CAP.bit_length():
        raise SizeExceeded(f"2^{exponent} {what} exceed cap {ALGEBRA_CAP}")


def _check_carrier(size: int, k: int) -> None:
    """The work bound: ``size`` masks of ``k`` bits may hold no more bits
    than the largest powerset under ``ALGEBRA_CAP`` would if listed."""
    bound = ALGEBRA_CAP * (ALGEBRA_CAP.bit_length() - 1)
    if size * k > bound:
        raise SizeExceeded(f"{size} elements of {k} atoms exceed {bound} carrier bits")


def _tiled(pattern: int, period: int, count: int) -> int:
    """``pattern`` repeated ``count`` times (a power of two), ``period``
    bits apart."""
    while count > 1:
        pattern |= pattern << period
        period *= 2
        count //= 2
    return pattern


@lru_cache(maxsize=None)
def atom_patterns(k: int) -> tuple[int, ...]:
    """Per atom ``i``, the ``2**k``-bit mask of the powerset elements that
    contain ``i`` (bit ``x`` for element mask ``x``): one period of ``2**i``
    zeros and ``2**i`` ones, tiled by :func:`_tiled`.

    The cache is unbounded but small: a powerset under ``ALGEBRA_CAP`` has
    at most 20 atoms, and the patterns of every ``k`` up to 20 take about
    5 MB together."""
    return tuple(
        _tiled(((1 << (1 << i)) - 1) << (1 << i), 2 << i, 1 << (k - i - 1)) for i in range(k)
    )


def atom_blocks(k: int, gens, most: int | None = None) -> list[int]:
    """The blocks of atoms with equal membership across ``gens``: the
    partition of the ``k`` atoms refined by each generator ``g`` into
    ``b & g`` and ``b & ~g``.  Refining stops once a split brings the count
    to ``most`` or more."""
    blocks = [(1 << k) - 1] if k else []
    for g in gens:
        parts = [p for b in blocks for p in (b & g, b & ~g) if p]
        if len(parts) > len(blocks):
            blocks = parts
            if most is not None and len(blocks) >= most:
                break
    return blocks


def _unions(blocks) -> tuple[int, ...]:
    """All unions of ``blocks``, ascending."""
    masks = [0]
    for b in blocks:
        masks += [m | b for m in masks]
    return tuple(sorted(masks))


class BooleanAlgebra:
    """A subalgebra of the powerset of ``k`` atoms.

    Pass ``carrier=None`` for the full powerset, else the element masks
    (which must contain 0 and 1 and be closed under the three operations).
    Either way ``self.carrier`` is the ascending sequence of element masks:
    ``range(2**k)`` for the powerset, the sorted tuple otherwise (with
    ``_validate=False``, the carrier is taken as given: ascending masks).
    ``provenance`` is the recipe the algebra's file holds: the ``kind``,
    plus ``n`` (interval), ``lam`` and ``kap`` (tree) and ``generators``
    (interval, tree, subalgebra), and nothing else.  By default it is
    ``{"kind": "powerset"}``, or ``{"kind": "subalgebra", "generators": []}``
    when there is a carrier.  It does not affect equality, which is by
    element set.
    """

    def __init__(self, k: int, carrier=None, provenance=None, _validate=True):
        check_count(k, "atom count")
        if carrier is None:
            _check_power(k, "elements")
        elif k > ALGEBRA_CAP:
            raise SizeExceeded(f"{k} atoms exceed cap {ALGEBRA_CAP}")
        elif len(carrier) > ALGEBRA_CAP:
            raise SizeExceeded(f"{len(carrier)} elements exceed cap {ALGEBRA_CAP}")
        else:
            _check_carrier(len(carrier), k)
        self.k = k
        self.one = (1 << k) - 1
        self.zero = 0
        self.carrier = range(1 << k) if carrier is None else tuple(carrier)
        self.provenance = provenance or (
            {"kind": "powerset"} if carrier is None else {"kind": "subalgebra", "generators": []}
        )
        if carrier is not None and _validate:
            self._validate_carrier()

    def _validate_carrier(self):
        """A subalgebra of ``2**b`` elements has ``b`` atom blocks, and a
        coarser partition than its own has fewer: refine until there are
        ``b``, then the carrier must be exactly their unions.  The masks
        must be plain ints, and are sorted here."""
        if not set(map(type, self.carrier)) <= {int}:
            raise InvalidArgument(f"carrier is not a subalgebra of the {self.k}-atom powerset")
        self.carrier = tuple(sorted(self.carrier))
        b = len(self.carrier).bit_length() - 1
        blocks = atom_blocks(self.k, self.carrier, b)
        if len(blocks) != b or _unions(blocks) != self.carrier:
            raise InvalidArgument(f"carrier is not a subalgebra of the {self.k}-atom powerset")

    # Lattice operations on element masks.
    def complement(self, x: int) -> int:
        return self.one ^ x

    def leq(self, x: int, y: int) -> bool:
        return x & ~y == 0

    @property
    def size(self) -> int:
        return len(self.carrier)

    def elements(self):
        return iter(self.carrier)

    def element_mask(self, index: int) -> int:
        check_index(index, "element index", self.size)
        return self.carrier[index]

    def element_index(self, mask: int) -> int:
        i = bisect_left(self.carrier, mask) if type(mask) is int else len(self.carrier)
        if i == len(self.carrier) or self.carrier[i] != mask:
            raise InvalidArgument(f"mask {mask} is not an element of the algebra")
        return i

    def atoms(self) -> tuple[int, ...]:
        """Minimal nonzero elements; they partition the ambient atom set."""
        if self.size == 1 << self.k:
            return tuple(1 << i for i in range(self.k))
        return tuple(sorted(atom_blocks(self.k, self.carrier, self.size.bit_length() - 1)))

    def as_poset(self) -> Poset:
        """The inclusion order on the elements, indexed by ascending mask.
        An algebra of ``2**b`` elements has the order of the ``b``-atom
        powerset (two unions of atom blocks compare as integers by the top
        block of their symmetric difference), so row ``x`` extends row
        ``x ^ low`` by the least atom ``low`` of ``x``.  Each call builds
        the order afresh; the algebra keeps no copy."""
        n = self.size
        check_poset_size(n)
        pat = atom_patterns(n.bit_length() - 1)
        up = [(1 << n) - 1] + [0] * (n - 1)
        down = [1] + [0] * (n - 1)
        for x in range(1, n):
            low = x & -x
            up[x] = up[x ^ low] & pat[low.bit_length() - 1]
            down[x] = down[x ^ low] | down[x ^ low] << low
        return Poset(n, tuple(up), tuple(down))

    def __eq__(self, other):
        """Equal element sets: both full powersets (listed or not) of the
        same atoms, or equal carriers."""
        return (
            isinstance(other, BooleanAlgebra)
            and (self.k, self.size) == (other.k, other.size)
            and (self.size == 1 << self.k or self.carrier == other.carrier)
        )

    def __hash__(self):
        return hash((self.k, self.size))

    def __repr__(self):
        kind = self.provenance.get("kind", "?")
        return f"BooleanAlgebra(atoms={self.k}, size={self.size}, kind={kind})"


def powerset_algebra(k: int) -> BooleanAlgebra:
    """The full algebra on ``k`` atoms."""
    return BooleanAlgebra(k)


def subalgebra_masks(k: int, gens) -> tuple[int, ...]:
    """Element masks of the subalgebra of the ``k``-atom powerset generated
    by ``gens``: the unions of the atom blocks the generators induce.  The
    carrier's size and its work bound are checked before it is listed."""
    blocks = atom_blocks(k, gens)
    _check_power(len(blocks), "elements")
    _check_carrier(1 << len(blocks), k)
    return _unions(blocks)


@lru_cache(maxsize=1024)
def subalgebra_index_mask(k: int, gens: frozenset[int]) -> int:
    """``subalgebra_masks(k, gens)`` as one ``2**k``-bit mask over the
    powerset (bit ``m`` for element mask ``m``), computed word-parallel: the
    AND over the blocks of (contains the block OR misses it).

    The cache holds at most 1024 masks.  The transports, its library
    callers, ask for one only after building an element order, which
    ``MAX_ELEMENTS`` caps at ``2**12`` elements, so each mask they cache
    has at most ``2**12`` bits."""
    pat = atom_patterns(k)
    full = (1 << (1 << k)) - 1
    out = full
    for b in atom_blocks(k, gens):
        holds = misses = full
        for i in bits_of(b):
            holds &= pat[i]
            misses &= ~pat[i]
        out &= holds | misses
    return out


def generated_subalgebra(B: BooleanAlgebra, gens) -> BooleanAlgebra:
    """Least subalgebra of ``B`` containing ``gens`` (and 0, 1)."""
    if not isinstance(B, BooleanAlgebra):
        raise InvalidArgument("a subalgebra's ambient must be a plain boolean algebra")
    # the carrier ascends, so index order is mask order; a non-member is refused
    gens = sorted(set(gens), key=B.element_index)
    carrier = subalgebra_masks(B.k, gens)
    return BooleanAlgebra(
        B.k, carrier, provenance={"kind": "subalgebra", "generators": gens}, _validate=False
    )


def interval_mask(alpha: int, beta: int) -> int:
    """Atoms ``alpha..beta-1`` as a mask: the half-open interval [alpha, beta)."""
    return ((1 << beta) - 1) ^ ((1 << alpha) - 1)


def interval_algebra(n: int) -> BooleanAlgebra:
    """Algebra of finite unions of half-open intervals of the chain ``0..n-1``.

    Every singleton ``[a, a+1)`` is an interval, so for finite ``n`` this is
    the whole powerset; the nonempty generators ``[alpha, beta)`` with
    ``alpha < beta <= n`` are kept in the provenance for experiments.
    """
    check_count(n, "interval chain length")
    _check_power(n, "elements")  # before the n(n+1)/2 generators are listed
    gens = [interval_mask(a, b) for a in range(n) for b in range(a + 1, n + 1)]
    return BooleanAlgebra(n, provenance={"kind": "interval", "n": n, "generators": gens})


def tree_nodes(lam: int, kap: int) -> list[tuple[int, ...]]:
    """All sequences over ``0..lam-1`` of length below ``kap``, shortlex order.

    Refuses a tree whose ``2**nodes`` colourings (the points of
    ``tree_algebra``) exceed ``ALGEBRA_CAP`` before listing any node.
    """
    check_count(lam, "tree branching lam")
    check_count(kap, "tree depth kap", 1)
    # the tree has lam**0 + ... + lam**(kap-1) nodes; levels past the cap's
    # exponent only grow a count that is refused already
    _check_power(sum(lam**i for i in range(min(kap, ALGEBRA_CAP.bit_length()))), "points")
    out = [()]
    level = [()]
    while level and len(level[0]) < kap - 1:
        level = [s + (i,) for s in level for i in range(lam)]
        out += level
    return out


def _prefix_family(nodes: list[tuple[int, ...]]) -> list[frozenset[int]]:
    """All unions of strict initial-segment sets of tree nodes.

    The family is generated from the per-node strict prefix chains and
    closed under finite union (the empty union included), one chain at a
    time.
    """
    pos = {s: i for i, s in enumerate(nodes)}
    chains = {
        frozenset(pos[s[:i]] for i in range(len(s))) for s in nodes
    }
    family = {frozenset()}
    for chain in chains:
        family |= {f | chain for f in family}
    return sorted(family, key=lambda f: (len(f), sorted(f)))


def tree_algebra(lam: int, kap: int) -> BooleanAlgebra:
    """Subalgebra of the powerset of all 0/1 colourings of the tree of
    sequences over ``0..lam-1`` shorter than ``kap``, generated by the
    vanishing sets of the prefix-union family.

    A colouring ``p`` (a point) is encoded as the bitmask of nodes coloured
    1; the generator for a family member ``I`` collects the points that
    vanish on ``I``.
    """
    nodes = tree_nodes(lam, kap)
    npoints = 1 << len(nodes)
    pat = atom_patterns(len(nodes))
    gens = []
    for member in _prefix_family(nodes):
        z = (1 << npoints) - 1
        for i in member:
            z &= ~pat[i]
        gens.append(z)
    return BooleanAlgebra(
        npoints,
        subalgebra_masks(npoints, gens),
        provenance={"kind": "tree", "lam": lam, "kap": kap, "generators": gens},
        _validate=False,
    )


class CoproductAlgebra:
    """Free product of finite boolean algebras.

    The base is the full powerset over the cartesian product of the cofactor
    atom sets, product atoms indexed row-major by cofactor atom index.  One
    pass over the product builds two tables: ``lanes[i][j]``, the mask of
    the product atoms whose ``i``-th coordinate is atom ``j``, and
    ``conjuncts[t]``, the literals of product atom ``t`` (its coordinate
    atoms other than a cofactor's 1).  ``e_i(b)`` is the union of the lanes
    of the atoms below ``b``; images of distinct cofactors meet exactly in
    ``{0, 1}``.
    """

    def __init__(self, cofactors):
        cofactors = list(cofactors)
        if not cofactors:
            raise InvalidArgument("need at least one cofactor")
        for B in cofactors:
            if not isinstance(B, BooleanAlgebra):
                raise InvalidArgument("cofactors must be plain boolean algebras")
            if B.size < 2:
                raise InvalidArgument("cofactors must have at least two elements")
        self.cofactors = cofactors
        self.atom_lists = [B.atoms() for B in cofactors]
        self.arities = [len(a) for a in self.atom_lists]
        katoms = 1
        for m in self.arities:
            katoms *= m
        self.base = BooleanAlgebra(katoms)
        lanes = [[0] * m for m in self.arities]
        conjuncts = []
        for t, combo in enumerate(product(*map(range, self.arities))):
            lits = []
            for i, j in enumerate(combo):
                lanes[i][j] |= 1 << t
                atom = self.atom_lists[i][j]
                if atom != cofactors[i].one:
                    lits.append((i, atom))
            conjuncts.append(frozenset(lits))
        self.lanes = tuple(map(tuple, lanes))
        self.conjuncts = tuple(conjuncts)

    @property
    def katoms(self) -> int:
        return self.base.k

    def check_cofactor(self, i: int) -> None:
        """Refuse a cofactor index that is not a count below the number of
        cofactors."""
        check_index(i, "cofactor index", len(self.cofactors))

    def embed(self, i: int, b: int) -> int:
        """Embedding of cofactor-``i`` element ``b`` into the base; a
        cofactor index or an element outside the coproduct is refused."""
        self.check_cofactor(i)
        self.cofactors[i].element_index(b)
        mask = 0
        for atom, lane in zip(self.atom_lists[i], self.lanes[i]):
            if atom & ~b == 0:
                mask |= lane
        return mask

    def embedded_image(self, i: int) -> tuple[int, ...]:
        """All base elements in the image of cofactor ``i``, ascending."""
        self.check_cofactor(i)
        return _unions(self.lanes[i])

    def __eq__(self, other):
        return (
            isinstance(other, CoproductAlgebra) and self.cofactors == other.cofactors
        )

    def __repr__(self):
        return f"CoproductAlgebra(cofactor_atoms={self.arities})"


def coproduct(cofactors) -> CoproductAlgebra:
    return CoproductAlgebra(cofactors)


class LiteralNF(NamedTuple):
    """Canonical disjunctive and conjunctive forms of a coproduct element.

    Literals are ``(cofactor index, cofactor element)`` pairs, never 0 or 1
    of their cofactor.  The DNF has one conjunct per product atom below the
    element (the per-coordinate atom literals); the CNF is the De Morgan
    dual of the complement's DNF.  The empty join is 0 and the empty meet 1,
    so ``0`` has DNF ``()`` and CNF ``({},)`` while ``1`` has DNF ``({},)``
    and CNF ``()``.
    """

    dnf: tuple[frozenset[tuple[int, int]], ...]
    cnf: tuple[frozenset[tuple[int, int]], ...]


def literal_normal_forms(C: CoproductAlgebra, x: int) -> LiteralNF:
    """Canonical DNF/CNF of a base element over cofactor literals; a mask
    that is not a base element is refused."""
    C.base.element_index(x)
    one = C.base.one
    if x == 0:
        return LiteralNF((), (frozenset(),))
    if x == one:
        return LiteralNF((frozenset(),), ())
    dnf = tuple(C.conjuncts[t] for t in bits_of(x))
    cnf = tuple(
        frozenset((i, C.cofactors[i].complement(c)) for i, c in C.conjuncts[t])
        for t in bits_of(one ^ x)
    )
    return LiteralNF(dnf, cnf)


class ExponentialAlgebra:
    """Powerset algebra over the nonzero elements of a base algebra.

    Points stand in for the filters of the base (all principal in the finite
    case); ``bracket(a)`` collects the points below ``a``.  The points are
    the base's nonzero elements in index order, so the bracket of base
    element ``i`` is row ``i`` of the base's down order without its bit 0
    (the zero element): ``brackets[i]``.  The defining relations ``[0] = 0``,
    ``[1] = 1``, monotone brackets and ``[a ∧ b] = [a] ∧ [b]`` hold by
    construction: a bracket is a down set without 0, and down sets grow with
    their element and meet as their elements do.  Joins are only subadditive:
    ``[a] ∨ [b] <= [a ∨ b]`` with strictness in general.
    """

    def __init__(self, base: BooleanAlgebra):
        if not isinstance(base, BooleanAlgebra):
            raise InvalidArgument("an exponential base must be a plain boolean algebra")
        self.algebra = BooleanAlgebra(base.size - 1)
        self.base = base
        self.points = tuple(base.carrier[1:])
        self.brackets = tuple(row >> 1 for row in base.as_poset().down)

    def bracket(self, a: int) -> int:
        """The hyperspace element ``[a]``: points ``b != 0`` with ``b <= a``."""
        return self.brackets[self.base.element_index(a)]

    def join_strictness_witness(self) -> tuple[int, int] | None:
        """Least base pair with ``[a] ∨ [b]`` strictly below ``[a ∨ b]``."""
        brackets = dict(zip(self.base.elements(), self.brackets))
        for a, ba in brackets.items():
            for b, bb in brackets.items():
                if ba | bb != brackets[a | b]:
                    return (a, b)
        return None

    def __eq__(self, other):
        return isinstance(other, ExponentialAlgebra) and self.base == other.base

    def __repr__(self):
        return f"ExponentialAlgebra(base_size={self.base.size}, points={len(self.points)})"


def exponential(base: BooleanAlgebra) -> ExponentialAlgebra:
    return ExponentialAlgebra(base)


def hyperspace_basic_set(E: ExponentialAlgebra, F) -> int:
    """The basic clopen set of a finite family: points ``p <= ⋁F`` that meet
    every member of ``F`` (``p`` is not below any ``-f``)."""
    members = list(F)
    if not members:
        raise InvalidArgument("basic sets need a nonempty family")
    for f in members:  # each looked up before the masks are joined
        if E.base.element_index(f) == 0:
            raise InvalidArgument("basic set members must be nonzero")
    out = E.bracket(_join(members))
    for f in members:
        out &= E.algebra.one ^ E.bracket(E.base.complement(f))
    return out


def _join(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out
