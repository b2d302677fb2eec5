"""Acceptance suite.

Each test exercises one criterion end to end at its stated (exact)
tolerance and prints a single PASS/FAIL line; run with ``pytest -s`` to see
the lines as they complete.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fnlab
from fnlab import (
    FnPair,
    cofactor_projections,
    collapse,
    frontier,
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
from fnlab import serialize as ser
from fnlab.boolalg import coproduct, exponential, powerset_algebra
from fnlab.errors import BudgetExceeded, SizeExceeded
from fnlab.gen import random_poset, random_valid_pair
from fnlab.oracle import (
    brute_cofactor_minmax,
    brute_feasible,
    brute_frontier,
    enumerate_posets,
)
from fnlab.poset import SubsetView, antichain, chain, diamond, subposet_degree
from helpers import (
    LABELED_POSET_COUNTS,
    random_retraction,
    random_single_maps,
    random_subset_view,
)

# Frontier fixtures: antichain_3 and chain_2 are forced by hand; chain_4 and
# diamond were computed once by the oracle boundary table and frozen here.
FROZEN_FRONTIERS = {
    "antichain_3": ((1, 1),),
    "chain_2": ((1, 2), (2, 1)),
    "chain_4": ((1, 4), (2, 2), (4, 1)),
    "diamond": ((1, 4), (2, 2), (4, 1)),
}


def _report(num, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_oracle_equivalence():
    """search_pair Some <=> brute_feasible on every labeled poset with at
    most 5 elements and every capacity pair up to (n, n)."""
    t0 = time.time()
    mismatches = []
    capped = []
    instances = 0
    counts = []
    for n in range(1, 6):
        count = 0
        for P in enumerate_posets(n):
            count += 1
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    instances += 1
                    want = brute_feasible(P, (a, b))
                    try:
                        got = search_pair(P, (a, b), node_budget=10**7) is not None
                    except BudgetExceeded:
                        capped.append((P.covers(), a, b))
                        continue
                    if got != want:
                        mismatches.append((P.covers(), a, b, got, want))
        counts.append(count)
    assert tuple([1] + counts) == LABELED_POSET_COUNTS
    _report(
        1,
        not mismatches and not capped,
        f"{instances} instances, {len(mismatches)} mismatches, "
        f"{len(capped)} budget-capped, {time.time() - t0:.0f}s",
    )


def test_criterion_2_definition_equivalence():
    """Single-map and doubled-pair verification agree, and every pair the
    search finds collapses to a valid single map (500 seeded posets, n <= 8)."""
    t0 = time.time()
    rng = random.Random(0x5EED2)
    equiv_checks = 0
    collapse_checks = 0
    capped = 0
    for trial in range(500):
        n = 1 + trial % 8
        P = random_poset(n, rng)
        for h in random_single_maps(P, rng):
            assert verify_single(P, h).valid == verify_pair(FnPair(P, h, h)).valid
            equiv_checks += 1
        for cap in ((1, n), (n, 1), (n, n), (2, 2)):
            try:
                found = search_pair(P, cap, node_budget=50_000)
            except BudgetExceeded:
                capped += 1
                continue
            if found is not None:
                assert verify_single(P, collapse(found)).valid
                collapse_checks += 1
    _report(
        2,
        True,
        f"{equiv_checks} equivalences, {collapse_checks} collapses, "
        f"{capped} budget-capped searches, {time.time() - t0:.0f}s",
    )


def test_criterion_3_coproduct_transport():
    """Coproduct transport output verifies for all cofactor pairs with at
    most 3 atoms each and 20 seeded valid input pairs per combination."""
    t0 = time.time()
    rng = random.Random(0x5EED3)
    transports = 0
    for k1 in (1, 2, 3):
        for k2 in (1, 2, 3):
            C = coproduct([powerset_algebra(k1), powerset_algebra(k2)])
            posets = [B.as_poset() for B in C.cofactors]
            for _ in range(20):
                pairs = [random_valid_pair(ps, rng) for ps in posets]
                out = transport_coproduct(C, pairs)
                assert verify_pair(out).valid
                transports += 1
    _report(3, True, f"{transports} transports verified, {time.time() - t0:.0f}s")


def test_criterion_4_exponential_transport():
    """Exponential transport output verifies for all bases with at most 3
    atoms under the trivial and prefix-map input pairs (exp up to 128
    elements)."""
    t0 = time.time()
    transports = 0
    largest = 0
    for k in (0, 1, 2, 3):
        B = powerset_algebra(k)
        E = exponential(B)
        P = B.as_poset()
        h = wellorder_map(P, list(range(P.n)))
        for pair in (trivial_pair(P), FnPair(P, h, h)):
            out = transport_exponential(E, pair)
            assert verify_pair(out).valid
            largest = max(largest, out.poset.n)
            transports += 1
    assert largest == 128
    _report(4, True, f"{transports} transports verified, exp size up to {largest}, "
            f"{time.time() - t0:.0f}s")


def test_criterion_5_retract_and_subalgebra_transport():
    """100 seeded retraction and 100 seeded subposet-view instances on
    posets with at most 8 elements: outputs verify; view outputs respect
    capacity x degree."""
    t0 = time.time()
    rng = random.Random(0x5EED5)
    for _ in range(100):
        base = random_poset(rng.randint(1, 4), rng)
        Q, i, j = random_retraction(base, rng, max_total=8)
        pair = random_valid_pair(Q, rng)
        out = transport_retract(pair, i, j)
        assert verify_pair(out).valid
        oa, ob = out.capacities()
        pa, pb = pair.capacities()
        assert oa <= pa and ob <= pb
    for _ in range(100):
        Q = random_poset(rng.randint(1, 8), rng)
        pair = random_valid_pair(Q, rng)
        view = random_subset_view(Q, rng)
        out, _ = transport_subalgebra(pair, view)
        assert verify_pair(out).valid
        deg = subposet_degree(view)
        oa, ob = out.capacities()
        pa, pb = pair.capacities()
        assert oa <= pa * deg and ob <= pb * deg
    _report(5, True, f"200 transports verified, {time.time() - t0:.0f}s")


def test_criterion_6_cofactor_projections():
    """DNF/CNF projection formulas match the literal scan on every element
    of every constructible coproduct of <= 3-atom algebras (two and three
    cofactors); combinations beyond the size cap must refuse loudly."""
    t0 = time.time()
    checked = 0
    excluded = []
    combos = [(k1, k2) for k1 in (1, 2, 3) for k2 in (1, 2, 3) if k1 <= k2]
    combos += [
        (k1, k2, k3)
        for k1 in (1, 2, 3)
        for k2 in (1, 2, 3)
        for k3 in (1, 2, 3)
        if k1 <= k2 <= k3
    ]
    for ks in combos:
        try:
            C = coproduct([powerset_algebra(k) for k in ks])
        except SizeExceeded:
            excluded.append(ks)
            continue
        for x in range(C.base.size):
            for j in range(len(ks)):
                assert cofactor_projections(C, j, x) == brute_cofactor_minmax(C, j, x)
                checked += 1
    assert excluded == [(3, 3, 3)]  # 2^27 elements exceeds the default cap
    _report(
        6,
        True,
        f"{checked} projections checked, excluded beyond cap: {excluded}, "
        f"{time.time() - t0:.0f}s",
    )


def test_criterion_7_exponential_relations():
    """Bracket relations on every base with at most 4 atoms: meets are
    exact, joins subadditive with an exhibited strict instance for every
    base with at least 2 atoms, and exp(B) has |B| - 1 atoms."""
    t0 = time.time()
    for k in (0, 1, 2, 3, 4):
        E = exponential(powerset_algebra(k))
        elems = list(E.base.carrier)
        brackets = {a: E.bracket(a) for a in elems}
        for a in elems:
            for b in elems:
                assert brackets[a & b] == brackets[a] & brackets[b]
                assert (brackets[a] | brackets[b]) & ~brackets[a | b] == 0
        if k >= 2:
            w = E.join_strictness_witness()
            assert w is not None
            a, b = w
            assert brackets[a] | brackets[b] != brackets[a | b]
        assert E.algebra.k == E.base.size - 1
    _report(7, True, f"bases up to 4 atoms, {time.time() - t0:.0f}s")


def test_criterion_8_frozen_frontiers():
    """Named frontiers match the frozen oracle fixtures, recomputed by both
    the oracle boundary table and the optimized search."""
    posets = {
        "antichain_3": antichain(3),
        "chain_2": chain(2),
        "chain_4": chain(4),
        "diamond": diamond(),
    }
    for name, P in posets.items():
        frozen = FROZEN_FRONTIERS[name]
        assert brute_frontier(P) == frozen, name
        assert frontier(P).points == frozen, name
    _report(8, True, f"{len(posets)} fixtures matched")


@pytest.fixture
def cli_env(tmp_path):
    diamond_file = tmp_path / "diamond.json"
    diamond_file.write_text(ser.dumps(ser.poset_to_obj(diamond())))
    return tmp_path, diamond_file


# The source root of the ``fnlab`` this test run imported: the CLI children
# run from a temporary directory, where a relative PYTHONPATH entry such as
# ``src`` would no longer find it.
SRC_ROOT = Path(fnlab.__file__).resolve().parents[1]


def _run(args, cwd):
    """Run the CLI on the imported ``fnlab``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_ROOT), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fnlab", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_9_determinism(cli_env):
    """Frontier, search and gen outputs are byte-identical across repeated
    runs with the same inputs and seed."""
    tmp_path, diamond_file = cli_env
    outs = set()
    for _ in range(2):
        rc, out, err = _run(["frontier", str(diamond_file)], tmp_path)
        assert rc == 0, err
        outs.add(out)
    assert len(outs) == 1
    searches = {
        _run(["search", str(diamond_file), "--cap", "2,3"], tmp_path)[1] for _ in range(2)
    }
    assert len(searches) == 1
    gens = {
        _run(["gen", "pair", str(diamond_file), "--seed", "11"], tmp_path)[1]
        for _ in range(2)
    }
    assert len(gens) == 1
    _report(9, True, "repeated frontier, search and seeded gen runs byte-identical")
