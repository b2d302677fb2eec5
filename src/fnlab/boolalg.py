"""Finite boolean algebras with atom-mask elements.

Every algebra lives inside the powerset of a finite atom set: an element is
the bitmask of the atoms below it, so meet/join/complement are single word
operations (exact finite Stone duality).  A proper subalgebra carries an
explicit sorted ``carrier`` tuple; full powersets keep their elements
implicit.  All values are immutable after construction.

Constructions provided: powerset, generated subalgebra, interval algebra,
tree algebra, coproduct (free product), and the exponential (the clopen
algebra of the hyperspace of the Stone dual, here the powerset over the
nonzero elements since every filter of a finite algebra is principal).

Size caps: every algebra goes through the :class:`BooleanAlgebra`
constructor, which refuses more than ``ALGEBRA_CAP`` elements or atoms; a
builder checks that cap earlier only where it would do exponential work
first.  The element order (``as_poset``) obeys the poset cap ``MAX_ELEMENTS``.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import NamedTuple

from .errors import (
    DegenerateCofactor,
    EmptySubset,
    RelationViolation,
    SizeExceeded,
    ZeroMember,
)
from .poset import Poset, bits_of, check_poset_size

ALGEBRA_CAP = 2**20


def _check_power(exponent: int, what: str) -> None:
    """Refuse ``2**exponent`` of ``what`` above ``ALGEBRA_CAP``, without
    computing the power."""
    if exponent >= ALGEBRA_CAP.bit_length():
        raise SizeExceeded(f"2^{exponent} {what} exceed cap {ALGEBRA_CAP}")


class BooleanAlgebra:
    """A subalgebra of the powerset of ``k`` atoms.

    ``carrier`` is ``None`` for the full powerset, else the sorted tuple of
    element masks (which must contain 0 and 1 and be closed under the three
    operations).  ``provenance`` records how the algebra was constructed;
    it does not affect equality.
    """

    def __init__(self, k: int, carrier=None, provenance=None, _validate=True):
        if k < 0:
            raise ValueError(f"atom count {k} is negative")
        if carrier is None:
            _check_power(k, "elements")
        elif k > ALGEBRA_CAP:
            raise SizeExceeded(f"{k} atoms exceed cap {ALGEBRA_CAP}")
        elif len(carrier) > ALGEBRA_CAP:
            raise SizeExceeded(f"{len(carrier)} elements exceed cap {ALGEBRA_CAP}")
        self.k = k
        self.one = (1 << k) - 1
        self.zero = 0
        self.carrier = tuple(sorted(carrier)) if carrier is not None else None
        self.provenance = provenance or {"kind": "powerset", "atoms": k}
        self._poset = None
        if self.carrier is not None and _validate:
            self._validate_carrier()

    def _validate_carrier(self):
        elems = set(self.carrier)
        if len(elems) != len(self.carrier):
            raise ValueError("carrier has duplicate elements")
        if self.zero not in elems or self.one not in elems:
            raise ValueError("carrier must contain 0 and 1")
        for x in elems:
            if x >> self.k:
                raise ValueError(f"carrier mask {x} does not fit {self.k} atoms")
            if self.one ^ x not in elems:
                raise ValueError(f"carrier not closed under complement at {x}")
        for x, y in combinations(elems, 2):
            if x & y not in elems:
                raise ValueError(f"carrier not closed under meet at {x}, {y}")

    # Lattice operations on element masks.
    def meet(self, x: int, y: int) -> int:
        return x & y

    def join(self, x: int, y: int) -> int:
        return x | y

    def complement(self, x: int) -> int:
        return self.one ^ x

    def leq(self, x: int, y: int) -> bool:
        return x & ~y == 0

    @property
    def size(self) -> int:
        return len(self.carrier) if self.carrier is not None else 1 << self.k

    def elements(self):
        if self.carrier is not None:
            return iter(self.carrier)
        return iter(range(1 << self.k))

    def element_mask(self, index: int) -> int:
        return self.carrier[index] if self.carrier is not None else index

    def element_index(self, mask: int) -> int:
        if self.carrier is None:
            return mask
        import bisect

        i = bisect.bisect_left(self.carrier, mask)
        if i == len(self.carrier) or self.carrier[i] != mask:
            raise ValueError(f"mask {mask} is not an element of the algebra")
        return i

    def atoms(self) -> tuple[int, ...]:
        """Minimal nonzero elements; for a carrier algebra these partition
        the ambient atom set."""
        if self.carrier is None:
            return tuple(1 << i for i in range(self.k))
        nonzero = [x for x in self.carrier if x]
        return tuple(x for x in nonzero if not any(y & ~x == 0 and y != x for y in nonzero))

    def as_poset(self) -> Poset:
        """The inclusion order on the elements, indexed by ascending mask."""
        if self._poset is None:
            check_poset_size(self.size)
            elems = list(self.elements())
            n = len(elems)
            up = [0] * n
            down = [0] * n
            for i, x in enumerate(elems):
                for j, y in enumerate(elems):
                    if x & ~y == 0:
                        up[i] |= 1 << j
                        down[j] |= 1 << i
            self._poset = Poset(n, tuple(up), tuple(down))
        return self._poset

    def __eq__(self, other):
        return (
            isinstance(other, BooleanAlgebra)
            and self.k == other.k
            and self.carrier == other.carrier
        )

    def __hash__(self):
        return hash((self.k, self.carrier))

    def __repr__(self):
        kind = self.provenance.get("kind", "?")
        return f"BooleanAlgebra(atoms={self.k}, size={self.size}, kind={kind})"


def powerset_algebra(k: int) -> BooleanAlgebra:
    """The full algebra on ``k`` atoms."""
    return BooleanAlgebra(k)


def subalgebra_masks(k: int, gens) -> tuple[int, ...]:
    """Element masks of the subalgebra of the ``k``-atom powerset generated
    by ``gens``, via the atom partition the generators induce.

    Atoms with the same membership pattern across the generators form one
    block; the closure of ``gens ∪ {0, 1}`` under meet, join and complement
    is exactly the set of unions of blocks.
    """
    gens = list(gens)
    sig_to_block: dict[tuple, int] = {}
    for atom in range(k):
        sig = tuple((g >> atom) & 1 for g in gens)
        sig_to_block[sig] = sig_to_block.get(sig, 0) | (1 << atom)
    blocks = list(sig_to_block.values())
    _check_power(len(blocks), "elements")
    masks = [0]
    for b in blocks:
        masks += [m | b for m in masks]
    return tuple(sorted(masks))


def generated_subalgebra(B: BooleanAlgebra, gens) -> BooleanAlgebra:
    """Least subalgebra of ``B`` containing ``gens`` (and 0, 1)."""
    gens = sorted(set(gens))
    for x in gens:
        if B.carrier is not None:
            B.element_index(x)  # membership check
        elif x >> B.k:
            raise ValueError(f"generator {x} does not fit {B.k} atoms")
    carrier = subalgebra_masks(B.k, gens)
    return BooleanAlgebra(
        B.k,
        carrier,
        provenance={"kind": "subalgebra", "atoms": B.k, "generators": gens},
        _validate=False,
    )


def interval_mask(alpha: int, beta: int) -> int:
    """Atoms ``alpha..beta-1`` as a mask: the half-open interval [alpha, beta)."""
    return ((1 << beta) - 1) ^ ((1 << alpha) - 1)


def interval_algebra(n: int) -> BooleanAlgebra:
    """Algebra of finite unions of half-open intervals of the chain ``0..n-1``.

    For finite ``n`` the closure of the intervals is the whole powerset; the
    nonempty generators ``[alpha, beta)`` with ``alpha < beta <= n`` are kept
    in the provenance for experiments.
    """
    _check_power(n, "elements")
    gens = [interval_mask(a, b) for a in range(n) for b in range(a + 1, n + 1)]
    return BooleanAlgebra(
        n,
        subalgebra_masks(n, gens),
        provenance={"kind": "interval", "n": n, "atoms": n, "generators": gens},
        _validate=False,
    )


def tree_nodes(lam: int, kap: int) -> list[tuple[int, ...]]:
    """All sequences over ``0..lam-1`` of length below ``kap``, shortlex order."""
    out = [()]
    level = [()]
    while level and len(level[0]) < kap - 1:
        level = [s + (i,) for s in level for i in range(lam)]
        out += level
    return out


def _prefix_family(nodes: list[tuple[int, ...]]) -> list[frozenset[int]]:
    """All unions of strict initial-segment sets of tree nodes.

    The family is generated from the per-node strict prefix chains and
    closed under finite union (the empty union included).
    """
    pos = {s: i for i, s in enumerate(nodes)}
    chains = {
        frozenset(pos[s[:i]] for i in range(len(s))) for s in nodes
    }
    family = {frozenset()}
    frontier = set(chains)
    while frontier:
        family |= frontier
        frontier = {
            old | ch for old in family for ch in chains if old | ch not in family
        }
    return sorted(family, key=lambda f: (len(f), sorted(f)))


def tree_algebra(lam: int, kap: int) -> BooleanAlgebra:
    """Subalgebra of the powerset of all 0/1 colourings of the tree of
    sequences over ``0..lam-1`` shorter than ``kap``, generated by the
    vanishing sets of the prefix-union family.

    A colouring ``p`` (a point) is encoded as the bitmask of nodes coloured
    1; the generator for a family member ``I`` collects the points that
    vanish on ``I``.
    """
    if lam < 0 or kap < 1:
        raise ValueError("need lam >= 0 and kap >= 1")
    # the tree has lam**0 + ... + lam**(kap-1) nodes; levels past the cap's
    # exponent only grow a count that is refused already
    _check_power(sum(lam**i for i in range(min(kap, ALGEBRA_CAP.bit_length()))), "points")
    nodes = tree_nodes(lam, kap)
    npoints = 1 << len(nodes)
    family = _prefix_family(nodes)
    gens = []
    for member in family:
        imask = sum(1 << i for i in member)
        z = 0
        for p in range(npoints):
            if p & imask == 0:
                z |= 1 << p
        gens.append(z)
    carrier = subalgebra_masks(npoints, gens)
    return BooleanAlgebra(
        npoints,
        carrier,
        provenance={
            "kind": "tree",
            "lam": lam,
            "kap": kap,
            "atoms": npoints,
            "nodes": [list(s) for s in nodes],
            "family": [sorted(f) for f in family],
            "generators": gens,
        },
        _validate=False,
    )


class CoproductAlgebra:
    """Free product of finite boolean algebras.

    The base is the full powerset over the cartesian product of the cofactor
    atom sets (product atoms are indexed row-major by cofactor atom index).
    Each cofactor embeds by ``e_i(b) = {atom tuples whose i-th coordinate
    lies below b}``; images of distinct cofactors meet exactly in ``{0, 1}``.
    """

    def __init__(self, cofactors):
        cofactors = list(cofactors)
        if not cofactors:
            raise ValueError("need at least one cofactor")
        for B in cofactors:
            if B.size < 2:
                raise DegenerateCofactor("cofactors must have at least two elements")
        self.cofactors = cofactors
        self.atom_lists = [B.atoms() for B in cofactors]
        self.arities = [len(a) for a in self.atom_lists]
        katoms = 1
        for m in self.arities:
            katoms *= m
        self.base = BooleanAlgebra(
            katoms,
            provenance={
                "kind": "coproduct",
                "atoms": katoms,
                "cofactor_atoms": self.arities,
            },
        )
        # strides for row-major atom-tuple indexing
        self._strides = [0] * len(cofactors)
        s = 1
        for i in range(len(cofactors) - 1, -1, -1):
            self._strides[i] = s
            s *= self.arities[i]
        self._embed_cache: list[dict[int, int]] = [dict() for _ in cofactors]
        self._nf_cache: dict[int, "LiteralNF"] = {}
        self._image_cache: dict[int, tuple[int, ...]] = {}
        self._proj_cache: dict[int, tuple[list[int], list[int]]] = {}

    @property
    def katoms(self) -> int:
        return self.base.k

    def atom_tuple(self, t: int) -> tuple[int, ...]:
        """Cofactor atom indices of product atom ``t``."""
        out = []
        for i, m in enumerate(self.arities):
            out.append((t // self._strides[i]) % m)
        return tuple(out)

    def embed(self, i: int, b: int) -> int:
        """Embedding of cofactor-``i`` element ``b`` into the base."""
        cached = self._embed_cache[i].get(b)
        if cached is not None:
            return cached
        coords = [range(m) for m in self.arities]
        below = [
            j for j, atom in enumerate(self.atom_lists[i]) if atom & ~b == 0
        ]
        coords[i] = below
        mask = 0
        for combo in product(*coords):
            mask |= 1 << sum(c * s for c, s in zip(combo, self._strides))
        self._embed_cache[i][b] = mask
        return mask

    def projection_tables(self, j: int) -> tuple[list[int], list[int]]:
        """Per product atom ``t``: the embedded ``j``-coordinate atom, and the
        embedded complement of that atom (used for the upper and lower
        cofactor projections)."""
        cached = self._proj_cache.get(j)
        if cached is not None:
            return cached
        plus = []
        minus = []
        Bj = self.cofactors[j]
        emb = {}
        for t in range(self.katoms):
            atom = self.atom_lists[j][self.atom_tuple(t)[j]]
            if atom not in emb:
                emb[atom] = (self.embed(j, atom), self.embed(j, Bj.complement(atom)))
            plus.append(emb[atom][0])
            minus.append(emb[atom][1])
        self._proj_cache[j] = (plus, minus)
        return plus, minus

    def embedded_image(self, i: int) -> tuple[int, ...]:
        """All base elements in the image of cofactor ``i``, ascending."""
        if i not in self._image_cache:
            self._image_cache[i] = tuple(
                sorted(self.embed(i, b) for b in self.cofactors[i].elements())
            )
        return self._image_cache[i]

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


def _atom_conjuncts(C: CoproductAlgebra, x: int):
    conjuncts = []
    for t in bits_of(x):
        lits = []
        for i, ai in enumerate(C.atom_tuple(t)):
            atom = C.atom_lists[i][ai]
            if atom != C.cofactors[i].one:
                lits.append((i, atom))
        conjuncts.append(frozenset(lits))
    return tuple(conjuncts)


def literal_normal_forms(C: CoproductAlgebra, x: int) -> LiteralNF:
    """Canonical DNF/CNF of a base element over cofactor literals."""
    cached = C._nf_cache.get(x)
    if cached is not None:
        return cached
    one = C.base.one
    if x == 0:
        nf = LiteralNF((), (frozenset(),))
    elif x == one:
        nf = LiteralNF((frozenset(),), ())
    else:
        dnf = _atom_conjuncts(C, x)
        cnf = tuple(
            frozenset((i, C.cofactors[i].complement(c)) for i, c in clause)
            for clause in _atom_conjuncts(C, one ^ x)
        )
        nf = LiteralNF(dnf, cnf)
    C._nf_cache[x] = nf
    return nf


class ExponentialAlgebra:
    """Powerset algebra over the nonzero elements of a base algebra.

    Points stand in for the filters of the base (all principal in the finite
    case); ``bracket(a)`` collects the points below ``a``.  The defining
    relations are checked at construction: ``[0] = 0``, ``[1] = 1``,
    monotone brackets, and ``[a ∧ b] = [a] ∧ [b]``.  Joins are only
    subadditive: ``[a] ∨ [b] <= [a ∨ b]`` with strictness in general.
    """

    def __init__(self, base: BooleanAlgebra):
        self.algebra = BooleanAlgebra(
            base.size - 1,
            provenance={"kind": "exponential", "atoms": base.size - 1},
        )
        self.base = base
        self.points = tuple(x for x in base.elements() if x != 0)
        self._check_relations()

    def bracket(self, a: int) -> int:
        """The hyperspace element ``[a]``: points ``b != 0`` with ``b <= a``."""
        out = 0
        for t, p in enumerate(self.points):
            if p & ~a == 0:
                out |= 1 << t
        return out

    def _check_relations(self):
        if self.bracket(0) != 0:
            raise RelationViolation("[0] must be 0")
        if self.bracket(self.base.one) != self.algebra.one:
            raise RelationViolation("[1] must be 1")
        elems = list(self.base.elements())
        brackets = {a: self.bracket(a) for a in elems}
        for a in elems:
            for b in elems:
                if brackets[a & b] != brackets[a] & brackets[b]:
                    raise RelationViolation(f"[a ∧ b] != [a] ∧ [b] at {a}, {b}")
                if a & ~b == 0 and brackets[a] & ~brackets[b]:
                    raise RelationViolation(f"brackets not monotone at {a} <= {b}")

    def join_strictness_witness(self) -> tuple[int, int] | None:
        """Least base pair with ``[a] ∨ [b]`` strictly below ``[a ∨ b]``."""
        elems = list(self.base.elements())
        for a in elems:
            for b in elems:
                if self.bracket(a) | self.bracket(b) != self.bracket(a | b):
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
        raise EmptySubset("basic sets need a nonempty family")
    for f in members:
        if f == 0:
            raise ZeroMember("basic set members must be nonzero")
    out = E.bracket(_join(members))
    for f in members:
        out &= E.algebra.one ^ E.bracket(E.base.complement(f))
    return out


def _join(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out
