"""Constructive transports of valid pairs along structure maps.

Each transport builds the output pair by the explicit recipe that proves
the corresponding preservation fact, then verifies it: outputs are checked,
never trusted.  A failed check raises :class:`TransportDefect`, which
signals a defect in the construction rather than an ordinary invalid input.
"""

from __future__ import annotations

from ..boolalg import (
    CoproductAlgebra,
    ExponentialAlgebra,
    literal_normal_forms,
    subalgebra_index_mask,
    subalgebra_masks,
)
from ..errors import (
    DomainMismatch,
    EmptySubset,
    IndexOutOfRange,
    InvalidInputPair,
    NotARetraction,
    TransportDefect,
)
from ..poset import MonotoneMap, Poset, SubsetView, _maximal_in, bits_of, check_retraction
from .core import FnPair, verify_pair


def _require_valid(pair: FnPair, what: str) -> None:
    verdict = verify_pair(pair)
    if not verdict.valid:
        raise InvalidInputPair(f"{what} is not a valid pair: violation {verdict.violation}")


def _checked(pair: FnPair) -> FnPair:
    verdict = verify_pair(pair)
    if not verdict.valid:
        raise TransportDefect(verdict)
    return pair


def transport_retract(pair: FnPair, i: MonotoneMap, j: MonotoneMap) -> FnPair:
    """Pull a valid pair on ``Q`` back to a retract ``P``.

    ``i: P -> Q`` is the section and ``j: Q -> P`` the retraction
    (``j ∘ i = id_P``); the output maps are ``p -> j[f(i(p))]`` and
    ``p -> j[g(i(p))]``.  Capacities never increase.
    """
    if not check_retraction(i, j):
        raise NotARetraction("j ∘ i is not the identity")
    if pair.poset != i.cod:
        raise DomainMismatch("input pair must live on the codomain of the section")
    _require_valid(pair, "retract input")
    P = i.dom
    F = tuple(j.image_mask(pair.f[i.image[p]]) for p in range(P.n))
    G = tuple(j.image_mask(pair.g[i.image[p]]) for p in range(P.n))
    return _checked(FnPair(P, F, G))


def transport_subalgebra(pair: FnPair, A: SubsetView) -> tuple[FnPair, tuple[int, ...]]:
    """Restrict a valid pair on ``Q`` to a subposet view ``A``.

    With ``L_q`` the maximal elements of ``A ∩ ↓q`` (the minimum cofinal
    subset of the trace), the output maps are ``p -> ⋃{L_q : q in f(p)}``
    and likewise for ``g``.  Returns the pair on the induced poset together
    with the local-to-ambient element map.  The output capacity is at most
    the input capacity times the subposet degree of ``A``.
    """
    Q = pair.poset
    if A.ambient != Q:
        raise DomainMismatch("view must live on the pair's poset")
    if not A.members:
        raise EmptySubset("cannot transport onto an empty view")
    _require_valid(pair, "subalgebra input")
    amask = A.mask
    L = [_maximal_in(Q, amask & Q.down[q]) for q in range(Q.n)]
    induced, elems = A.as_poset()
    pos = {e: k for k, e in enumerate(elems)}

    def relocal(ambient_mask: int) -> int:
        out = 0
        for e in bits_of(ambient_mask):
            out |= 1 << pos[e]
        return out

    F = []
    G = []
    for e in elems:
        fm = 0
        for q in bits_of(pair.f[e]):
            fm |= L[q]
        gm = 0
        for q in bits_of(pair.g[e]):
            gm |= L[q]
        F.append(relocal(fm))
        G.append(relocal(gm))
    return _checked(FnPair(induced, tuple(F), tuple(G))), elems


def cofactor_projections(C: CoproductAlgebra, j: int, x: int) -> tuple[int, int]:
    """Least element of the ``j``-th cofactor image above ``x`` and greatest
    below ``x``.

    ``x+`` is the join over the canonical DNF conjuncts of the meet of their
    ``j``-literals (empty meet 1); since each conjunct is a product atom
    with a single ``j``-coordinate, this reduces to a join of embedded
    coordinate atoms over the atoms of ``x``.  ``x-`` is the De Morgan dual
    over the canonical CNF.
    """
    if not 0 <= j < len(C.cofactors):
        raise IndexOutOfRange(f"no cofactor {j}")
    if x >> C.katoms:
        raise IndexOutOfRange(f"mask {x} is not a base element")
    plus_t, minus_t = C.projection_tables(j)
    xplus = 0
    for t in bits_of(x):
        xplus |= plus_t[t]
    xminus = C.base.one
    for t in bits_of(C.base.one ^ x):
        xminus &= minus_t[t]
    return xplus, xminus


def transport_coproduct(C: CoproductAlgebra, pairs: list[FnPair]) -> FnPair:
    """Combine valid pairs on the cofactors into a pair on the coproduct.

    Every base element is rewritten in its canonical DNF and CNF over
    cofactor literals; the images of all literals under the cofactor maps
    are embedded and closed into generated subalgebras, which interpolate
    by the normal-form argument.
    """
    if len(pairs) != len(C.cofactors):
        raise DomainMismatch("need exactly one pair per cofactor")
    posets = [B.as_poset() for B in C.cofactors]
    for pr, ps in zip(pairs, posets):
        if pr.poset != ps:
            raise DomainMismatch("pair does not live on its cofactor's element order")
    for idx, pr in enumerate(pairs):
        _require_valid(pr, f"cofactor {idx} input")
    base_poset = C.base.as_poset()
    # per literal (i, c): the embedded images of f(c) and of g(c)
    images: dict[tuple[int, int], tuple[set[int], set[int]]] = {}
    F = []
    G = []
    for x in range(base_poset.n):
        nf = literal_normal_forms(C, x)
        f0: set[int] = set()
        g0: set[int] = set()
        for i, c in set().union(*nf.dnf, *nf.cnf):
            if (i, c) not in images:
                B = C.cofactors[i]
                ci = B.element_index(c)
                images[i, c] = tuple(
                    {C.embed(i, B.element_mask(d)) for d in bits_of(m[ci])}
                    for m in (pairs[i].f, pairs[i].g)
                )
            fi, gi = images[i, c]
            f0 |= fi
            g0 |= gi
        # base poset index == element mask
        F.append(subalgebra_index_mask(C.katoms, frozenset(f0)))
        G.append(subalgebra_index_mask(C.katoms, frozenset(g0)))
    return _checked(FnPair(base_poset, tuple(F), tuple(G)))


def _bracket_literal_indices(E: ExponentialAlgebra, pointmask: int) -> set[int]:
    """Base elements indexing the literals of the canonical conjunct of each
    point in ``pointmask``.

    A point ``b`` is the basic set of its base-algebra atoms: the conjunct
    of ``[b]`` with the negated brackets of the atom complements.  Literals
    equal to 0 or 1 of the hyperspace are dropped.
    """
    out: set[int] = set()
    base = E.base
    atoms = base.atoms()
    for t in bits_of(pointmask):
        b = E.points[t]
        if b != base.one:
            out.add(b)
        for atom in atoms:
            if atom & ~b == 0:
                comp = base.complement(atom)
                if comp != 0:
                    out.add(comp)
    return out


def transport_exponential(E: ExponentialAlgebra, pair: FnPair) -> FnPair:
    """Lift a valid pair on the base algebra to its exponential.

    Each hyperspace element is rewritten over bracket literals; the finite
    base subalgebra generated by the literal indices is pushed through the
    input maps, bracketed, and closed into generated subalgebras of the
    exponential.  The three-case interpolant argument guarantees validity,
    which is checked at the end rather than re-derived.
    """
    base_poset = E.base.as_poset()
    if pair.poset != base_poset:
        raise DomainMismatch("pair must live on the base algebra's element order")
    _require_valid(pair, "exponential input")
    exp_poset = E.algebra.as_poset()
    n = exp_poset.n
    full = E.algebra.one
    bracket_cache = {h: E.bracket(h) for h in E.base.elements()}
    F = []
    G = []
    for x in range(n):
        if x == 0 or x == full:
            idx: set[int] = set()
        else:
            idx = _bracket_literal_indices(E, x) | _bracket_literal_indices(E, full ^ x)
        H = subalgebra_masks(E.base.k, sorted(idx))
        fgen: set[int] = set()
        ggen: set[int] = set()
        for h in H:
            hi = E.base.element_index(h)
            for d in bits_of(pair.f[hi]):
                fgen.add(bracket_cache[E.base.element_mask(d)])
            for d in bits_of(pair.g[hi]):
                ggen.add(bracket_cache[E.base.element_mask(d)])
        # exponential poset index == element mask
        F.append(subalgebra_index_mask(len(E.points), frozenset(fgen)))
        G.append(subalgebra_index_mask(len(E.points), frozenset(ggen)))
    return _checked(FnPair(exp_poset, tuple(F), tuple(G)))
