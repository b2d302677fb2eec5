"""fnlab: a finite laboratory for two-sided interpolation pairs.

Verify and search for capacity-bounded Freese-Nation style map pairs on
finite posets, build boolean algebras (powersets, interval and tree
algebras, coproducts, exponentials), and transport valid pairs along
retracts, subposet views, coproducts and exponentials — every construction
checked against an independent verifier.
"""

from .boolalg import (
    BooleanAlgebra,
    CoproductAlgebra,
    ExponentialAlgebra,
    LiteralNF,
    coproduct,
    exponential,
    generated_subalgebra,
    hyperspace_basic_set,
    interval_algebra,
    literal_normal_forms,
    powerset_algebra,
    tree_algebra,
)
from .errors import FnLabError
from .fnmaps.core import (
    FnPair,
    Verdict,
    collapse,
    interpolant_lookup,
    trivial_pair,
    verify_pair,
    verify_single,
    wellorder_map,
)
from .fnmaps.search import Frontier, feasible, frontier, search_pair
from .fnmaps.transports import (
    cofactor_projections,
    transport_coproduct,
    transport_exponential,
    transport_retract,
    transport_subalgebra,
)
from .poset import (
    MonotoneMap,
    Poset,
    SubsetView,
    antichain,
    chain,
    check_retraction,
    cofinality_below,
    coinitiality_above,
    diamond,
    poset_from_covers,
    subposet_degree,
)

__version__ = "0.1.0"
