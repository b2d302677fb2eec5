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
from ..errors import InvalidArgument, TransportDefect
from ..poset import MonotoneMap, SubsetView, _eliminate, bits_of, check_retraction
from .core import FnPair, verify_pair


def _require_valid(pair: FnPair, what: str) -> None:
    verdict = verify_pair(pair)
    if not verdict.valid:
        raise InvalidArgument(f"{what} is not a valid pair: violation {verdict.violation}")


def _checked(pair: FnPair) -> FnPair:
    verdict = verify_pair(pair)
    if not verdict.valid:
        raise TransportDefect(verdict)
    return pair


def _lift(rows: list[int], image: int) -> int:
    """The union of ``rows[q]`` over the elements ``q`` of ``image``."""
    out = 0
    for q in bits_of(image):
        out |= rows[q]
    return out


def transport_retract(pair: FnPair, i: MonotoneMap, j: MonotoneMap) -> FnPair:
    """Pull a valid pair on ``Q`` back to a retract ``P``.

    ``i: P -> Q`` is the section and ``j: Q -> P`` the retraction
    (``j ∘ i = id_P``); the output maps are ``p -> j[f(i(p))]`` and
    ``p -> j[g(i(p))]``.  Capacities never increase.
    """
    if not check_retraction(i, j):
        raise InvalidArgument("j ∘ i is not the identity")
    if pair.poset != i.cod:
        raise InvalidArgument("input pair must live on the codomain of the section")
    _require_valid(pair, "retract input")
    rows = [1 << p for p in j.image]
    F = tuple(_lift(rows, pair.f[q]) for q in i.image)
    G = tuple(_lift(rows, pair.g[q]) for q in i.image)
    return _checked(FnPair(i.dom, F, G))


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
        raise InvalidArgument("view must live on the pair's poset")
    if not A.members:
        raise InvalidArgument("cannot transport onto an empty view")
    _require_valid(pair, "subalgebra input")
    induced, elems = A.as_poset()
    # each trace L_q in local indices, converted once
    L = [A.local(_eliminate(Q.down, A.mask & Q.down[q])) for q in range(Q.n)]
    F = tuple(_lift(L, pair.f[e]) for e in elems)
    G = tuple(_lift(L, pair.g[e]) for e in elems)
    return _checked(FnPair(induced, F, G)), elems


def cofactor_projections(C: CoproductAlgebra, j: int, x: int) -> tuple[int, int]:
    """Least element of the ``j``-th cofactor image above ``x`` and greatest
    below ``x``.

    Each DNF conjunct of ``x`` is a product atom with a single
    ``j``-coordinate, and the embedded ``j``-atoms are the lanes
    ``C.lanes[j]``: ``x+`` is the join of the lanes that meet ``x``, and
    ``x-``, the De Morgan dual over the CNF, the join of the lanes inside it.
    """
    C.check_cofactor(j)
    C.base.element_index(x)
    xplus = xminus = 0
    for lane in C.lanes[j]:
        if lane & x:
            xplus |= lane
            if lane & ~x == 0:
                xminus |= lane
    return xplus, xminus


def transport_coproduct(C: CoproductAlgebra, pairs: list[FnPair]) -> FnPair:
    """Combine valid pairs on the cofactors into a pair on the coproduct.

    Every base element is rewritten in its canonical DNF and CNF over
    cofactor literals; the images of all literals under the cofactor maps
    are embedded and closed into generated subalgebras, which interpolate
    by the normal-form argument.  An element's literals depend only on
    which lanes ``C.lanes[i][j]`` it misses, meets or holds: the DNF takes
    the atoms of the lanes it meets and the CNF the complements of the
    atoms of the lanes it does not hold.  So the elements are grouped by
    that lane state, one normal form is taken per class (its least
    element), and each distinct literal set is closed once.
    """
    if len(pairs) != len(C.cofactors):
        raise InvalidArgument("need exactly one pair per cofactor")
    posets = [B.as_poset() for B in C.cofactors]
    for pr, ps in zip(pairs, posets):
        if pr.poset != ps:
            raise InvalidArgument("pair does not live on its cofactor's element order")
    for idx, pr in enumerate(pairs):
        _require_valid(pr, f"cofactor {idx} input")
    base_poset = C.base.as_poset()
    lanes = [lane for row in C.lanes for lane in row]
    # per side (f, then g) and per literal (i, c), with c an atom of
    # cofactor i other than its 1 or such an atom's complement (the only
    # literals a normal form holds): the embedded image of c, read from one
    # embedding of every element of the cofactor
    images: tuple[dict[tuple[int, int], set[int]], ...] = ({}, {})
    for i, (B, pr) in enumerate(zip(C.cofactors, pairs)):
        emb = [C.embed(i, b) for b in B.carrier]
        atoms = [a for a in C.atom_lists[i] if a != B.one]
        for c in atoms + [B.complement(a) for a in atoms]:
            ci = B.element_index(c)
            for side, m in zip(images, (pr.f, pr.g)):
                side[i, c] = {emb[d] for d in bits_of(m[ci])}
    # per literal set, and per lane state (0 misses, 1 meets, 2 holds, lane
    # by lane): the two generated subalgebras
    closures: dict[frozenset[tuple[int, int]], tuple[int, int]] = {}
    classes: dict[tuple[int, ...], tuple[int, int]] = {}
    maps = []
    for x in range(base_poset.n):
        key = tuple([(x & lane != 0) + (x & lane == lane) for lane in lanes])
        if key not in classes:
            nf = literal_normal_forms(C, x)
            lits = frozenset().union(*nf.dnf, *nf.cnf)
            if lits not in closures:
                # base poset index == element mask
                closures[lits] = tuple(
                    subalgebra_index_mask(C.base.k, frozenset().union(*map(side.get, lits)))
                    for side in images
                )
            classes[key] = closures[lits]
        maps.append(classes[key])
    F, G = zip(*maps)
    return _checked(FnPair(base_poset, F, G))


def transport_exponential(E: ExponentialAlgebra, pair: FnPair) -> FnPair:
    """Lift a valid pair on the base algebra to its exponential.

    Each hyperspace element is rewritten over bracket literals; the base
    subalgebra its literals generate is pushed through the input maps,
    bracketed, and closed into generated subalgebras of the exponential.
    There are only two literal sets, so each map has two images.  The
    three-case interpolant argument guarantees validity, which is checked
    at the end rather than re-derived.
    """
    base = E.base
    if pair.poset != base.as_poset():
        raise InvalidArgument("pair must live on the base algebra's element order")
    _require_valid(pair, "exponential input")
    exp_poset = E.algebra.as_poset()
    # 0 and 1 have no literals.  Every other x takes the literals of the
    # points in x and of the points in its complement, which together are
    # all the points.  A point b has the literals b (unless b is 1) and the
    # complements of the atoms below b (unless 0), so the literals of x are
    # every base element other than 0 and 1.
    images = []
    for lits in ((), base.carrier[1:-1]):
        H = [base.element_index(h) for h in subalgebra_masks(base.k, lits)]
        images.append([
            subalgebra_index_mask(
                len(E.points), frozenset(E.brackets[d] for h in H for d in bits_of(m[h]))
            )
            for m in (pair.f, pair.g)
        ])
    (f_end, g_end), (f_mid, g_mid) = images
    ends = (0, E.algebra.one)
    # exponential poset index == element mask
    F = tuple(f_end if x in ends else f_mid for x in range(exp_poset.n))
    G = tuple(g_end if x in ends else g_mid for x in range(exp_poset.n))
    return _checked(FnPair(exp_poset, F, G))
