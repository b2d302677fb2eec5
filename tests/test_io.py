import json
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fnlab import FnPair, Verdict, trivial_pair, verify_pair
from fnlab import serialize as ser
from fnlab.boolalg import (
    BooleanAlgebra,
    coproduct,
    exponential,
    generated_subalgebra,
    interval_algebra,
    powerset_algebra,
    tree_algebra,
)
from fnlab.cli import main
from fnlab.errors import ParseError
from fnlab.poset import MonotoneMap, bits_of, chain, diamond, poset_from_covers


class TestPosetRoundTrip:
    def test_plain(self):
        for P in (chain(4), diamond(), chain(0)):
            assert ser.poset_from_obj(ser.poset_to_obj(P)) == P

    def test_labels_survive(self):
        P = poset_from_covers(2, [(0, 1)], labels=["lo", "hi"])
        back = ser.poset_from_obj(ser.poset_to_obj(P))
        assert back.labels == ("lo", "hi")
        # labels take no part in equality or hashing
        plain = poset_from_covers(2, [(0, 1)])
        assert back == plain and hash(back) == hash(plain)

    def test_parse_error(self):
        with pytest.raises(ParseError):
            ser.poset_from_obj({"covers": []})

    @pytest.mark.parametrize("labels", [[None, True], [1, {"a": 2}], ["lo", 2], [["lo"], "hi"]])
    def test_non_string_label_refused(self, labels):
        """A label that is not a string would be written back as its repr."""
        with pytest.raises(ParseError, match="^poset labels must be strings$"):
            ser.poset_from_obj({"n": 2, "covers": [[0, 1]], "labels": labels})


class TestPairRoundTrip:
    def test_inline_poset(self):
        pair = trivial_pair(diamond())
        back = ser.pair_from_obj(ser.pair_to_obj(pair))
        assert back == pair

    def test_path_reference(self, tmp_path):
        (tmp_path / "p.json").write_text(ser.dumps(ser.poset_to_obj(chain(2))))
        obj = {"poset": "p.json", "f": [[0], [0, 1]], "g": [[0], [0, 1]]}
        pair = ser.pair_from_obj(obj, tmp_path)
        assert pair.poset == chain(2) and verify_pair(pair).valid

    def test_missing_field(self):
        with pytest.raises(ParseError):
            ser.pair_from_obj({"poset": {"n": 1, "covers": []}, "f": [[0]]})


class TestVerdictRoundTrip:
    def test_valid_with_interpolants(self):
        v = verify_pair(trivial_pair(diamond()), with_interpolants=True)
        back = ser.verdict_from_obj(ser.verdict_to_obj(v))
        assert back == v

    def test_invalid_with_violation(self):
        v = verify_pair(FnPair(chain(2), [{0}, {1}], [{0}, {1}]))
        back = ser.verdict_from_obj(ser.verdict_to_obj(v))
        assert back == Verdict(False, (0, 1, 1))


@pytest.mark.parametrize(
    "obj",
    [
        [],  # not a dict
        None,
        {},  # no 'valid'
        {"valid": 1},  # 'valid' is not a bool
        {"valid": "true"},
        {"valid": False, "violation": {"p": 0, "q": 1}},  # no 'clause'
        {"valid": False, "violation": {"p": 0, "clause": 1}},  # no 'q'
        {"valid": False, "violation": [0, 1, 1]},  # not a record
        {"valid": False, "violation": {"p": 0, "q": 1, "clause": "1"}},
        {"valid": False, "violation": {"p": 0, "q": True, "clause": 1}},
        {"valid": True, "interpolants": [{"p": 0, "q": 1, "r": 1}]},  # no 's'
        {"valid": True, "interpolants": [{"q": 1, "r": 1, "s": 0}]},  # no 'p'
        {"valid": True, "interpolants": [{"p": 0, "q": 1, "r": 1.0, "s": 0}]},
        {"valid": True, "interpolants": [{"p": 0, "q": 1, "r": 1, "s": None}]},
        {"valid": True, "interpolants": {"p": 0}},  # not a list
        {"valid": True, "violation": {"p": 0, "q": 1, "clause": 7}},
        {"valid": False, "violation": {"p": 0, "q": 1, "clause": 7}},  # clause 1 or 2
        {"valid": False, "violation": {"p": 0, "q": 1, "clause": 0}},
        {"valid": True, "violation": {"p": 0, "q": 1, "clause": 1}},  # valid, violated
        {"valid": False},  # invalid without a violation
        {"valid": False, "violation": None},
        {  # interpolants on an invalid verdict
            "valid": False,
            "violation": {"p": 0, "q": 1, "clause": 1},
            "interpolants": [{"p": 0, "q": 1, "r": 5, "s": 9}],
        },
        {  # two records for the same (p, q)
            "valid": True,
            "interpolants": [{"p": 0, "q": 1, "r": 1, "s": 1}, {"p": 0, "q": 1, "r": 2, "s": 2}],
        },
    ],
)
def test_malformed_verdict_parse_error(obj):
    with pytest.raises(ParseError):
        ser.verdict_from_obj(obj)


class TestMapRoundTrip:
    def test_monotone_map(self):
        m = MonotoneMap(chain(2), chain(3), (0, 2))
        assert ser.map_from_obj(ser.map_to_obj(m)) == m


class TestFrontierRoundTrip:
    def test_csv(self):
        from fnlab import Frontier

        fr = Frontier(((1, 4), (2, 2), (4, 1)))
        text = ser.frontier_to_csv(fr)
        assert text == "1,4\n2,2\n4,1\n"
        assert ser.frontier_from_csv(text) == fr

    def test_partial_frontier_parses(self):
        from fnlab import Frontier

        assert ser.frontier_from_csv("1,5\n5,1\n# inconclusive: budget\n") == Frontier(
            ((1, 5), (5, 1))
        )
        assert ser.frontier_from_csv("# inconclusive: budget\n") == Frontier(())

    @pytest.mark.parametrize(
        "text",
        [
            "0,-1\n2,2\n2,2\n",  # capacities below 1, a repeated point
            "1,0\n0,1\n",  # capacity 0
            "2,2\n2,2\n",  # a repeated point
            "1,4\n2,4\n4,2\n4,1\n",  # (1,4) <= (2,4): not an antichain
            "1,4\n2,2\n",  # not symmetric
            "2,3\n",
        ],
    )
    def test_csv_meaningless_frontier(self, text):
        with pytest.raises(ParseError):
            ser.frontier_from_csv(text)

    def test_csv_bad_row(self):
        with pytest.raises(ParseError):
            ser.frontier_from_csv("1,2\n3\n")

    @pytest.mark.parametrize("text", ["1,x\n", "1,2\n1.5,1\n", "1,2\n\n,3\n"])
    def test_csv_non_integer_cell(self, text):
        with pytest.raises(ParseError) as e:
            ser.frontier_from_csv(text)
        assert e.value.line == text.count("\n")


class TestAlgebraRoundTrip:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: powerset_algebra(3),
            lambda: interval_algebra(3),
            lambda: tree_algebra(2, 2),
            lambda: generated_subalgebra(powerset_algebra(3), [0b011, 0b110]),
            lambda: coproduct([powerset_algebra(2), powerset_algebra(1)]).base,
            lambda: exponential(powerset_algebra(2)).algebra,
        ],
    )
    def test_plain_algebras(self, make):
        A = make()
        back = ser.algebra_from_obj(ser.algebra_to_obj(A))
        assert back == A

    def test_coproduct(self):
        C = coproduct([powerset_algebra(2), powerset_algebra(1)])
        back = ser.algebra_from_obj(ser.algebra_to_obj(C))
        assert back == C

    def test_coproduct_base_and_exponential_algebra_are_powersets(self):
        C = coproduct([powerset_algebra(2), powerset_algebra(1)])
        E = exponential(powerset_algebra(2))
        assert ser.algebra_to_obj(C.base) == {"kind": "powerset", "atoms": 2, "elements": 4}
        assert ser.algebra_to_obj(E.algebra) == {"kind": "powerset", "atoms": 3, "elements": 8}

    @pytest.mark.parametrize(
        "obj, message",
        [
            (
                {"kind": "coproduct", "cofactors": [
                    {"kind": "coproduct", "cofactors": [{"kind": "powerset", "atoms": 1}]}
                ]},
                "bad coproduct algebra: cofactors must be plain boolean algebras",
            ),
            (
                {"kind": "exponential", "base": {
                    "kind": "exponential", "base": {"kind": "powerset", "atoms": 1}
                }},
                "bad exponential algebra: an exponential base must be a plain boolean algebra",
            ),
        ],
    )
    def test_nested_algebra_refused(self, obj, message):
        with pytest.raises(ParseError) as e:
            ser.algebra_from_obj(obj)
        assert str(e.value) == message

    def test_exponential(self):
        E = exponential(powerset_algebra(2))
        back = ser.algebra_from_obj(ser.algebra_to_obj(E))
        assert back == E

    def test_carrier_without_provenance(self):
        A = BooleanAlgebra(2, [0, 3])
        text = ser.dumps(ser.algebra_to_obj(A))
        back = ser.algebra_from_obj(ser.loads(text))
        assert back == A and back.size == 2
        assert ser.dumps(ser.algebra_to_obj(back)) == text

    @pytest.mark.parametrize("gens", [[1, 99], [1], [-3]])
    def test_generator_outside_carrier_refused(self, gens):
        """Each recorded generator must be an element of the carrier."""
        with pytest.raises(ParseError):
            ser.algebra_from_obj({"kind": "subalgebra", "atoms": 2, "carrier": [0, 3], "generators": gens})

    def test_carrier_not_a_list_refused(self):
        with pytest.raises(ParseError) as e:
            ser.algebra_from_obj({"kind": "subalgebra", "atoms": 2, "carrier": "03"})
        assert str(e.value) == "bad subalgebra algebra: 'carrier' and 'generators' must be lists"

    def test_subalgebra_carrier_in_any_order(self):
        """A subalgebra's carrier is an input, not a derived field."""
        obj = {"kind": "subalgebra", "atoms": 2, "carrier": [3, 0], "generators": [3]}
        assert ser.algebra_from_obj(obj) == BooleanAlgebra(2, [0, 3])

    @pytest.mark.parametrize(
        "make, field, value",
        [
            (lambda: interval_algebra(2), "carrier", [0, 3]),
            (lambda: interval_algebra(2), "generators", [99]),
            (lambda: interval_algebra(2), "carrier", "0123"),
            (lambda: interval_algebra(3), "carrier", [0]),
            (lambda: tree_algebra(2, 2), "carrier", [0, 85, 255, 170]),
            (lambda: tree_algebra(2, 2), "generators", [True, 85]),
        ],
    )
    def test_derived_field_mismatch_refused(self, make, field, value):
        """The ``carrier`` and ``generators`` an interval or a tree file
        holds are derived from its parameters and must match them; the
        message does not print the lists."""
        A = make()
        obj = {**ser.algebra_to_obj(A), field: value}
        kind = A.provenance["kind"]
        with pytest.raises(ParseError) as e:
            ser.algebra_from_obj(obj)
        assert str(e.value) == f"bad {kind} algebra: '{field}' does not match"

    def test_element_count_header(self):
        obj = ser.algebra_to_obj(interval_algebra(3))
        assert obj["elements"] == 8 and obj["atoms"] == 3
        assert obj["kind"] == "interval"

    @pytest.mark.parametrize(
        "obj, message",
        [
            (
                {"kind": "powerset", "atoms": 2, "elements": 7},
                "bad powerset algebra: 'elements' is 7, not 4",
            ),
            (
                {"kind": "exponential", "base": {"kind": "powerset", "atoms": 1}, "points": [5]},
                "bad exponential algebra: 'points' is [5], not [1]",
            ),
            (  # a listed carrier whose provenance claims a powerset
                ser.algebra_to_obj(BooleanAlgebra(2, [0, 3], provenance={"kind": "powerset"})),
                "bad powerset algebra: 'elements' is 2, not 4",
            ),
            (
                {"kind": "subalgebra", "atoms": 2, "elements": 4, "carrier": [0, 3]},
                "bad subalgebra algebra: 'elements' is 4, not 2",
            ),
            (
                {"kind": "interval", "n": 2, "atoms": 3},
                "bad interval algebra: 'atoms' is 3, not 2",
            ),
            (
                {"kind": "coproduct", "cofactors": [{"kind": "powerset", "atoms": 1}] * 2,
                 "atoms": 3},
                "bad coproduct algebra: 'atoms' is 3, not 1",
            ),
            (
                {"kind": "exponential", "base": {"kind": "powerset", "atoms": 1}, "elements": 4},
                "bad exponential algebra: 'elements' is 4, not 2",
            ),
            (  # JSON true equals 1 but is no integer
                {"kind": "powerset", "atoms": 0, "elements": True},
                "bad powerset algebra: 'elements' is True, not 1",
            ),
            (
                {"kind": "exponential", "base": {"kind": "powerset", "atoms": 1}, "points": [True]},
                "bad exponential algebra: 'points' is [True], not [1]",
            ),
        ],
    )
    def test_header_mismatch_refused(self, obj, message):
        """Every ``atoms``, ``elements`` and ``points`` header a file holds
        must match the algebra built from it."""
        with pytest.raises(ParseError) as e:
            ser.algebra_from_obj(obj)
        assert str(e.value) == message

    @pytest.mark.parametrize(
        "base",
        [
            lambda: tree_algebra(13, 2),  # masks over 2^14 points
            lambda: BooleanAlgebra(20000, [0, (1 << 20000) - 1]),
        ],
    )
    def test_wide_points_header_round_trip(self, base):
        """Points wider than the interpreter's 4300-digit conversion limit
        are checked against their header without being written as text."""
        E = exponential(base())
        assert max(E.points).bit_length() > 14000
        back = ser.algebra_from_obj(ser.loads(ser.dumps(ser.algebra_to_obj(E))))
        assert back == E and back.points == E.points

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            ser.algebra_from_obj({"kind": "mystery"})

    def test_degenerate_cofactor_refused(self):
        obj = {"kind": "coproduct", "cofactors": [{"kind": "powerset", "atoms": 0}]}
        with pytest.raises(ParseError) as e:
            ser.algebra_from_obj(obj)
        assert str(e.value) == "bad coproduct algebra: cofactors must have at least two elements"


class TestNestingDepth:
    """Input nested past the interpreter's stack is a parse error, not a
    ``RecursionError``."""

    def test_deep_json_refused(self):
        with pytest.raises(ParseError, match="^JSON nested too deeply$"):
            ser.loads("[" * 200000)

    def test_deep_algebra_refused(self):
        """Exponentials nested deeper than the stack, in an object that a
        newer interpreter's JSON decoder would still return."""
        obj = {"kind": "powerset", "atoms": 1}
        for _ in range(3000):
            obj = {"kind": "exponential", "base": obj}
        with pytest.raises(ParseError, match="^JSON nested too deeply$"):
            ser.algebra_from_obj(obj)

    @pytest.mark.parametrize("wrap", [
        lambda inner: {"kind": "exponential", "base": inner},
        lambda inner: {"kind": "coproduct", "cofactors": [inner, {"kind": "powerset", "atoms": 1}]},
    ], ids=["exponential", "coproduct"])
    def test_algebra_nested_past_the_stack_refused(self, wrap):
        """5000 levels built as Python objects, not parsed from text, so the
        recursion that overflows is ``algebra_from_obj``'s own."""
        assert sys.getrecursionlimit() < 5000
        obj = {"kind": "powerset", "atoms": 1}
        for _ in range(5000):
            obj = wrap(obj)
        with pytest.raises(ParseError, match="^JSON nested too deeply$"):
            ser.algebra_from_obj(obj)

    def test_deep_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "\n")
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == "error: JSON nested too deeply\n"


class TestCanonicalBytes:
    def test_equal_values_equal_bytes(self):
        a = ser.dumps(ser.pair_to_obj(trivial_pair(diamond())))
        b = ser.dumps(ser.pair_to_obj(trivial_pair(diamond())))
        assert a == b and a.endswith("\n")


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.text(),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(), inner, max_size=6),
    max_leaves=40,
)


# record keys the writer's template must escape, or must not read as a format
RECORD_KEYS = st.text(max_size=3) | st.sampled_from(
    ["p", "q", "r", "s", 'a"b', "%", "%d", "%(p)s", "{", "{p}", ""]
)
INTS = st.integers(0, 4095) | st.integers(-(10**30), 10**30)
ODD_VALUES = st.booleans() | st.none() | st.floats() | st.text(max_size=3)


@st.composite
def shared_trees(draw):
    """A tree that holds the same list objects at several places and
    indents: an int list (as a pair's shared image) and a mixed one."""
    ints = draw(st.lists(INTS, min_size=1, max_size=6))
    mixed = draw(st.lists(INTS | ODD_VALUES, min_size=1, max_size=4))
    leaves = st.sampled_from([ints, mixed, tuple(ints)]) | INTS | ODD_VALUES
    tree = st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=4),
        max_leaves=20,
    )
    return {"ints": ints, "again": [ints, [ints]], "tree": draw(tree)}


@st.composite
def record_lists(draw):
    """Lists of dicts: one key set or mixed ones, int values or any, and
    records nested inside records."""
    keys = draw(st.lists(RECORD_KEYS, max_size=4, unique=True))
    one_key_set = draw(st.booleans())
    values = INTS
    if draw(st.booleans()):
        values = INTS | ODD_VALUES | st.dictionaries(RECORD_KEYS, INTS, max_size=3)
    records = []
    for _ in range(draw(st.integers(1, 5))):
        own = keys if one_key_set else [k for k in keys if draw(st.booleans())]
        records.append({k: draw(values) for k in own})
    return records


class TestWriter:
    """``dumps`` is ``json.dumps(sort_keys=True, indent=2)`` plus a newline."""

    @given(shared_trees())
    def test_shared_lists(self, obj):
        assert ser.dumps(obj) == reference(obj)

    @given(record_lists())
    def test_record_lists(self, records):
        obj = {"records": records, "nested": [records, {"in": [{"p": 1, "rec": records}]}]}
        assert ser.dumps(obj) == reference(obj)

    @given(JSON_VALUES)
    def test_equals_json_dumps(self, obj):
        assert ser.dumps(obj) == reference(obj)

    @given(st.lists(st.integers(-5, 5000)), st.lists(st.integers(0, 4095)))
    def test_int_lists(self, mixed, indices):
        obj = {"mixed": mixed, "indices": indices, "nested": [indices, [mixed]]}
        assert ser.dumps(obj) == reference(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {},
            [[], {}, [[]]],
            [1, True, 0, False, None],
            [True, False],
            (1, 2, 3),
            {"labels": [0, 1, 2, 10]},
            {"labels": [0, "1", 2.5, -3]},
            {"s": 'a"b\\c\n\u00e9\u2603\U0001f600\x00\x1f'},
            {"b": 1, "a": {"z": [], "y": {}}},
            {"\u00e9": "non-ASCII key", 'k"\\\n': None, "\u2603": [True]},
            {"": 0, " ": 1},
            [{"p": 1}, {"p": 2}],
            [{"%": 1, '"': 2, "{": 3}, {"%": 4, '"': 5, "{": 6}],
            [{"a": 1}, {"b": 2}],
            [{"a": 1, "b": True}],
            [{"a": 1}, {}],
            [{}, {}],
            [{"a": 2**70, "b": -1}],
            "top-level string",
            7,
            None,
        ],
    )
    def test_explicit_cases(self, obj):
        assert ser.dumps(obj) == reference(obj)

    def test_numeric_labels(self):
        P = poset_from_covers(3, [(0, 1), (0, 2)], labels=[10, 20, 30])
        obj = ser.poset_to_obj(P)
        assert ser.dumps(obj) == reference(obj)

    def test_mask_about_two_to_the_twenty_bits(self):
        wide = (1 << (1 << 20)) - 12345
        obj = {"kind": "subalgebra", "carrier": [0, 3, wide], "atoms": 1 << 20}
        text = ser.dumps(obj)
        with ser._mask_digits():
            assert text == reference(obj)

    def test_bad_key_refused_like_json(self):
        with pytest.raises(TypeError):
            ser.dumps({(1, 2): 0})

    def test_non_str_key_refused(self):
        # json.dumps would write the key as "2"; the writer takes str keys only
        with pytest.raises(TypeError):
            ser.dumps({2: 0})


def test_pair_index_lists_match_bits_of():
    n = 512
    rng = random.Random(7)
    masks = [0, 1, 1 << (n - 1), (1 << n) - 1]
    masks += [rng.getrandbits(rng.randrange(1, n + 1)) for _ in range(n - len(masks))]
    masks += rng.choices(masks, k=n)  # every mask again, some many times, in f and in g
    rng.shuffle(masks)
    pair = FnPair(poset_from_covers(n, []), tuple(masks[:n]), tuple(masks[n:]))
    obj = ser.pair_to_obj(pair)
    assert obj["f"] == [list(bits_of(m)) for m in pair.f]
    assert obj["g"] == [list(bits_of(m)) for m in pair.g]
    # equal masks share one list object, distinct masks do not
    lists = {}
    for m, image in zip(masks, obj["f"] + obj["g"]):
        assert lists.setdefault(m, image) is image
    assert len({id(image) for image in lists.values()}) == len(set(masks))
    assert ser.pair_from_obj(obj) == pair
    assert ser.pair_from_obj(ser.loads(ser.dumps(obj))) == pair
