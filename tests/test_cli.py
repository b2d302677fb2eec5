import ast
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fnlab
from fnlab import FnPair, Verdict, trivial_pair
from fnlab import serialize as ser
from fnlab.boolalg import coproduct, exponential, powerset_algebra
from fnlab.cli import build_parser, main
from fnlab.errors import TransportDefect
from fnlab.poset import MonotoneMap, chain, diamond
from helpers import map_to_obj, masks_of


def write(path, text):
    path.write_text(text)
    return str(path)


def assert_one_error_line(capsys):
    """Check that stderr holds a single ``error:`` line; return stdout."""
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    return captured.out


@pytest.fixture
def diamond_file(tmp_path):
    return write(tmp_path / "diamond.json", ser.dumps(ser.poset_to_obj(diamond())))


@pytest.fixture
def valid_pair_file(tmp_path):
    pair = trivial_pair(diamond())
    return write(tmp_path / "pair.json", ser.dumps(ser.pair_to_obj(pair)))


@pytest.fixture
def invalid_pair_file(tmp_path):
    pair = FnPair(chain(2), masks_of([{0}, {1}]), masks_of([{0}, {1}]))
    return write(tmp_path / "bad_pair.json", ser.dumps(ser.pair_to_obj(pair)))


@pytest.mark.parametrize(
    "args",
    [
        ["construct", "subalgebra", "--ambient", "{p3}", "--gens", "99"],
        ["construct", "subalgebra", "--ambient", "{p3}", "--gens", "-1"],
        ["construct", "coproduct", "--atoms-list", ","],
        ["construct", "coproduct", "--atoms-list=-1,2"],
        ["verify", "{dir}"],
        ["verify", "{dir_pair}"],  # a pair whose "poset" path is a directory
        ["verify", "{latin1}"],
        ["search", "{diamond}", "--cap", "2,2", "--budget", "-1"],
        ["frontier", "{diamond}", "--budget", "-1"],
        ["search", "{diamond}", "--cap", "2,x"],
        ["transport", "subalgebra", "--pair", "{pair}", "--members", "0,99"],
        ["frontier", "{cover_past_n}"],
        ["frontier", "{text_labels}"],
        ["construct", "exponential", "--base", "{empty}"],
        ["transport", "retract", "--pair", "{pair}", "--section", "{no_image}",
         "--retraction", "{identity}"],
        # a second --pair, which the one-pair transports refuse
        ["transport", "retract", "--pair", "{pair}", "--pair", "{pair}",
         "--section", "{identity}", "--retraction", "{identity}"],
        ["transport", "subalgebra", "--pair", "{pair}", "--pair", "{pair}", "--members", "0,3"],
        ["transport", "exponential", "--algebra", "{e2}", "--pair", "{pair}", "--pair", "{pair}"],
        *(["gen", "poset", "--n", "3", f"--density={p}"] for p in ("nan", "-0.1", "1.5")),
        *(["gen", "pair", "{diamond}", f"--enlarge={p}"] for p in ("nan", "-0.1", "1.5")),
        ["construct", "coproduct"],  # neither --cofactor nor --atoms-list
        # a subalgebra file whose generators are not elements of its carrier
        ["construct", "exponential", "--base", "{stray_generator}"],
    ],
)
def test_bad_argument_exit_two(tmp_path, diamond_file, capsys, args):
    """Library argument errors and unreadable files: exit 2, one line."""
    (tmp_path / "dir").mkdir()
    identity = map_to_obj(MonotoneMap(diamond(), diamond(), (0, 1, 2, 3)))
    d, e2 = identity["dom"], exponential(powerset_algebra(2))
    files = {
        "p3": write(tmp_path / "p3.json", ser.dumps(ser.algebra_to_obj(powerset_algebra(3)))),
        "dir": str(tmp_path / "dir"),
        "dir_pair": write(tmp_path / "dp.json", '{"poset": "dir", "f": [], "g": []}'),
        "latin1": str(tmp_path / "l.json"),
        "diamond": diamond_file,
        "cover_past_n": write(tmp_path / "c.json", '{"n": 2, "covers": [[0, 5]]}'),
        "text_labels": write(tmp_path / "t.json", '{"n": 2, "labels": "ab"}'),
        "empty": write(tmp_path / "e.json", "{}"),
        "pair": write(tmp_path / "pr.json", ser.dumps(ser.pair_to_obj(trivial_pair(diamond())))),
        "identity": write(tmp_path / "id.json", ser.dumps(identity)),
        "no_image": write(tmp_path / "ni.json", json.dumps({"dom": d, "cod": d})),
        "e2": write(tmp_path / "e2.json", ser.dumps(ser.algebra_to_obj(e2))),
        "stray_generator": write(
            tmp_path / "sg.json",
            '{"kind": "subalgebra", "atoms": 2, "carrier": [0, 3], "generators": [1, 99]}',
        ),
    }
    (tmp_path / "l.json").write_bytes('{"n": 1, "labels": ["\xe9"]}'.encode("latin-1"))
    assert main([a.format(**files) for a in args]) == 2
    assert assert_one_error_line(capsys) == ""


@pytest.mark.parametrize(
    "args", [["frontier", "p.json", "--workers", "2"], ["--seed", "9", "gen", "poset", "--n", "5"]]
)
def test_removed_option_exit_two(args):
    with pytest.raises(SystemExit) as e:
        main(args)
    assert e.value.code == 2


def test_readme_commands_parse():
    """Every ``fnlab`` line of the README's command-line block parses, with
    brackets and comments dropped and placeholders such as ``N`` set."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("fnlab ")]
    assert len(lines) > 10
    parser = build_parser()
    for line in lines:
        words = line.split("#")[0].replace("[", " ").replace("]", " ").split()[1:]
        try:
            parser.parse_args(["1" if w.isupper() else w for w in words])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_readme_quick_tour_runs():
    """The README's library quick tour runs, and each bare expression in it
    has the value its comment gives."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    scope, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), scope))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), scope)
    assert values == [True, None, ((1, 4), (2, 2), (4, 1)), True]


class TestVerify:
    def test_valid_exit_zero(self, valid_pair_file, capsys):
        assert main(["verify", valid_pair_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is True

    def test_invalid_exit_one_with_violation(self, invalid_pair_file, capsys):
        assert main(["verify", invalid_pair_file]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["violation"] == {"p": 0, "q": 1, "clause": 1}

    def test_malformed_exit_two(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.json", "{nope")
        assert main(["verify", bad]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exit_two(self):
        assert main(["verify", "/nonexistent/x.json"]) == 2

    def test_interpolants_included(self, valid_pair_file, capsys):
        assert main(["verify", valid_pair_file, "--interpolants"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert {"p": 0, "q": 3, "r": 3, "s": 0} in out["interpolants"]

    @pytest.mark.parametrize(
        "f",
        [
            [[0], [1], [5, [1]], [3]],  # a list inside an image
            [[0], [1], [-1], [3]],  # a negative index
            [[0], [1], [1.5], [3]],  # a float
            [[0], [1], [99999999999], [3]],  # an index far past n
            [[0], [1], [4], [3]],  # the first index past n
            [[0], [True], [2], [3]],  # JSON true is not element 1
            [[0], [1], "2", [3]],  # an image that is not a list
            {"0": [0]},  # images that are not a list
        ],
    )
    def test_bad_image_entry_exit_two(self, tmp_path, capsys, f):
        obj = ser.pair_to_obj(trivial_pair(diamond()))
        obj["f"] = f
        assert main(["verify", write(tmp_path / "p.json", json.dumps(obj))]) == 2
        assert assert_one_error_line(capsys) == ""


class TestSearch:
    def test_found(self, diamond_file, capsys):
        assert main(["search", diamond_file, "--cap", "2,2"]) == 0
        pair = ser.pair_from_obj(json.loads(capsys.readouterr().out))
        a, b = pair.capacities()
        assert a <= 2 and b <= 2

    def test_not_found(self, tmp_path, capsys):
        chain2 = write(tmp_path / "c2.json", ser.dumps(ser.poset_to_obj(chain(2))))
        assert main(["search", chain2, "--cap", "1,1"]) == 1
        assert capsys.readouterr().out == "null\n"

    def test_budget_exit_three(self, diamond_file):
        assert main(["search", diamond_file, "--cap", "2,2", "--budget", "2"]) == 3

    def test_bad_cap_exit_two(self, diamond_file):
        assert main(["search", diamond_file, "--cap", "2"]) == 2

    def test_non_integer_cap_exit_two(self, diamond_file, capsys):
        assert main(["search", diamond_file, "--cap", "x,1"]) == 2
        assert_one_error_line(capsys)

    def test_zero_cap_exit_two(self, diamond_file, capsys):
        assert main(["search", diamond_file, "--cap", "0,1"]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "poset",
        [
            '{"n": 3, "covers": [[0]]}',
            '{"n": "x", "covers": []}',
            '{"n": -1, "covers": []}',
            '{"n": 2, "covers": [], "labels": ["a"]}',
            '{"n": 2, "covers": [[0, 1]], "labels": [null, true]}',
        ],
    )
    def test_malformed_poset_exit_two(self, tmp_path, capsys, poset):
        f = write(tmp_path / "p.json", poset)
        assert main(["search", f, "--cap", "1,1"]) == 2
        assert_one_error_line(capsys)


class TestFrontier:
    def test_diamond_rows(self, diamond_file, capsys):
        assert main(["frontier", diamond_file]) == 0
        assert capsys.readouterr().out == "1,4\n2,2\n4,1\n"

    def test_antichain(self, tmp_path, capsys):
        f = write(tmp_path / "a3.json", ser.dumps(ser.poset_to_obj(chain(1))))
        assert main(["frontier", f]) == 0
        assert capsys.readouterr().out == "1,1\n"

    def test_budget_capped_marks_partial_inconclusive(self, tmp_path, capsys):
        from fnlab.poset import chain as mkchain

        f = write(tmp_path / "c5.json", ser.dumps(ser.poset_to_obj(mkchain(5))))
        assert main(["frontier", f, "--budget", "5"]) == 3
        out = capsys.readouterr().out
        assert out.startswith("1,5\n5,1\n")
        assert "# inconclusive" in out


    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2.7, "covers": [[0.9, 1]]}',  # floats are not cut to ints
            '{"n": true}',  # JSON true is not 1
            '{"n": 2, "covers": [[0, true]]}',
            '{"n": "2"}',
            '{"n": 2, "covers": [[0, 1, 1]]}',
        ],
    )
    def test_non_integer_poset_file_exit_two(self, tmp_path, capsys, text):
        assert main(["frontier", write(tmp_path / "p.json", text)]) == 2
        assert assert_one_error_line(capsys) == ""

    def test_budget_outcome_same_on_repeat(self, tmp_path, capsys):
        assert main(["gen", "poset", "--n", "8", "--seed", "3"]) == 0
        f = write(tmp_path / "p8.json", capsys.readouterr().out)
        outs = []
        for _ in range(2):
            assert main(["frontier", f, "--budget", "5"]) == 3
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "# inconclusive" in outs[0]


class TestConstruct:
    def test_interval(self, tmp_path, capsys):
        assert main(["construct", "interval", "--n", "3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["elements"] == 8

    def test_tree(self, capsys):
        assert main(["construct", "tree", "--lam", "2", "--kap", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["elements"] == 4

    def test_coproduct_shorthand(self, capsys):
        assert main(["construct", "coproduct", "--atoms-list", "2,2"]) == 0
        assert json.loads(capsys.readouterr().out)["elements"] == 16

    def test_exponential_of_diamond(self, tmp_path, capsys):
        base = write(
            tmp_path / "d.json", ser.dumps(ser.algebra_to_obj(powerset_algebra(2)))
        )
        assert main(["construct", "exponential", "--base", base]) == 0
        assert json.loads(capsys.readouterr().out)["elements"] == 8

    def test_subalgebra(self, tmp_path, capsys):
        amb = write(
            tmp_path / "p3.json", ser.dumps(ser.algebra_to_obj(powerset_algebra(3)))
        )
        assert main(["construct", "subalgebra", "--ambient", amb, "--gens", "3,6"]) == 0
        assert json.loads(capsys.readouterr().out)["elements"] == 8

    def test_size_cap_exit_three(self, capsys):
        assert main(["construct", "powerset", "--atoms", "30"]) == 3

    @pytest.mark.parametrize(
        "args, base",
        [
            # 2^40 - 1 tree nodes: refused from the count, before listing them
            (["tree", "--lam", "2", "--kap", "40"], None),
            (["exponential", "--base"], {"kind": "subalgebra", "atoms": 10**11, "carrier": [0]}),
        ],
    )
    def test_over_algebra_cap_exit_three(self, tmp_path, capsys, args, base):
        if base is not None:
            args = [*args, write(tmp_path / "base.json", ser.dumps(base))]
        assert main(["construct", *args]) == 3
        assert assert_one_error_line(capsys) == ""

    def test_missing_atoms_exit_two(self, capsys):
        assert main(["construct", "powerset"]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "args",
        [
            ["powerset", "--atoms", "-1"],
            ["interval", "--n", "-1"],
            ["tree", "--lam", "-1", "--kap", "2"],
            ["tree", "--lam", "2", "--kap", "0"],
        ],
    )
    def test_negative_size_exit_two(self, args, capsys):
        assert main(["construct", *args]) == 2
        assert assert_one_error_line(capsys) == ""

    @pytest.mark.parametrize(
        "args", [["coproduct", "--atoms-list", "2,x"], ["subalgebra", "--gens", "x", "--ambient"]]
    )
    def test_non_integer_list_exit_two(self, tmp_path, args, capsys):
        amb = write(tmp_path / "p2.json", ser.dumps(ser.algebra_to_obj(powerset_algebra(2))))
        assert main(["construct", *args, *([amb] if args[-1] == "--ambient" else [])]) == 2
        assert assert_one_error_line(capsys) == ""


_COPRODUCT = ser.algebra_to_obj(coproduct([powerset_algebra(1)] * 2))
_EXPONENTIAL = ser.algebra_to_obj(exponential(powerset_algebra(1)))

# algebra files that are malformed, or of a kind the option does not take
BAD_ALGEBRA_FILES = {
    "no_atoms": {"kind": "powerset"},
    "text_atoms": {"kind": "powerset", "atoms": "x"},
    "float_atoms": {"kind": "powerset", "atoms": 2.5},
    "true_atoms": {"kind": "powerset", "atoms": True},
    "float_kap": {"kind": "tree", "lam": 2, "kap": 2.0},
    "float_carrier": {"kind": "subalgebra", "atoms": 2, "carrier": [0, 3.0]},
    "true_generator": {"kind": "subalgebra", "atoms": 2, "carrier": [0, 3], "generators": [True]},
    "negative_lam": {"kind": "tree", "lam": -1, "kap": 2},
    "carrier_without_one": {"kind": "subalgebra", "atoms": 2, "carrier": [0, 1, 2]},
    "coproduct": _COPRODUCT,
    "exponential": _EXPONENTIAL,
    "powerset": ser.algebra_to_obj(powerset_algebra(2)),
    "coproduct_of_coproduct": {"kind": "coproduct", "cofactors": [_COPRODUCT, _COPRODUCT]},
    "exponential_of_coproduct": {"kind": "exponential", "base": _COPRODUCT},
}


@pytest.mark.parametrize(
    "args, name",
    [
        (["construct", "exponential", "--base"], "no_atoms"),
        (["construct", "exponential", "--base"], "text_atoms"),
        (["construct", "exponential", "--base"], "negative_lam"),
        (["construct", "exponential", "--base"], "carrier_without_one"),
        (["construct", "exponential", "--base"], "coproduct"),
        (["construct", "subalgebra", "--gens", "1", "--ambient"], "coproduct"),
        (["construct", "coproduct", "--cofactor"], "exponential"),
        (["construct", "coproduct", "--cofactor"], "coproduct"),
        (["transport", "coproduct", "--algebra"], "powerset"),
        (["transport", "coproduct", "--algebra"], "coproduct_of_coproduct"),
        (["transport", "exponential", "--algebra"], "powerset"),
        (["transport", "exponential", "--algebra"], "exponential_of_coproduct"),
        (["construct", "exponential", "--base"], "float_atoms"),
        (["construct", "exponential", "--base"], "true_atoms"),
        (["construct", "exponential", "--base"], "float_kap"),
        (["construct", "exponential", "--base"], "float_carrier"),
        (["construct", "exponential", "--base"], "true_generator"),
        (["construct", "coproduct", "--cofactor"], "float_atoms"),
    ],
)
def test_bad_algebra_file_exit_two(tmp_path, valid_pair_file, capsys, args, name):
    alg = write(tmp_path / "alg.json", ser.dumps(BAD_ALGEBRA_FILES[name]))
    pair = ["--pair", valid_pair_file] if args[0] == "transport" else []
    assert main([*args, alg, *pair]) == 2
    assert assert_one_error_line(capsys) == ""


@pytest.mark.parametrize(
    "args, name, held, needed",
    [
        (["transport", "exponential", "--algebra"], "powerset", "BooleanAlgebra",
         "ExponentialAlgebra"),
        (["transport", "coproduct", "--algebra"], "exponential", "ExponentialAlgebra",
         "CoproductAlgebra"),
        (["construct", "exponential", "--base"], "coproduct", "CoproductAlgebra",
         "BooleanAlgebra"),
    ],
)
def test_wrong_kind_algebra_file_names_both_classes(
    tmp_path, valid_pair_file, capsys, args, name, held, needed
):
    alg = write(tmp_path / "alg.json", ser.dumps(BAD_ALGEBRA_FILES[name]))
    pair = ["--pair", valid_pair_file] if args[0] == "transport" else []
    assert main([*args, alg, *pair]) == 2
    err = f"error: {alg} holds an algebra of class {held}, need class {needed}\n"
    assert capsys.readouterr() == ("", err)


def test_degenerate_cofactor_file_exit_two(tmp_path, capsys):
    degenerate = '{"kind": "coproduct", "cofactors": [{"kind": "powerset", "atoms": 0}]}'
    f = write(tmp_path / "c.json", degenerate)
    assert main(["construct", "exponential", "--base", f]) == 2
    err = "error: bad coproduct algebra: cofactors must have at least two elements\n"
    assert capsys.readouterr() == ("", err)


def test_nested_coproduct_file_exit_two(tmp_path, capsys):
    inner = '{"kind": "coproduct", "cofactors": [{"kind": "powerset", "atoms": 1}]}'
    f = write(tmp_path / "c.json", '{"kind": "coproduct", "cofactors": [%s]}' % inner)
    assert main(["construct", "exponential", "--base", f]) == 2
    err = "error: bad coproduct algebra: cofactors must be plain boolean algebras\n"
    assert capsys.readouterr() == ("", err)


class TestTransport:
    def test_retract(self, tmp_path, capsys):
        Q, P = chain(3), chain(2)
        i = MonotoneMap(P, Q, (0, 2))
        j = MonotoneMap(Q, P, (0, 0, 1))
        pair_f = write(tmp_path / "pq.json", ser.dumps(ser.pair_to_obj(trivial_pair(Q))))
        i_f = write(tmp_path / "i.json", ser.dumps(map_to_obj(i)))
        j_f = write(tmp_path / "j.json", ser.dumps(map_to_obj(j)))
        rc = main(
            ["transport", "retract", "--pair", pair_f, "--section", i_f, "--retraction", j_f]
        )
        captured = capsys.readouterr()
        assert rc == 0
        out = ser.pair_from_obj(json.loads(captured.out))
        assert out.poset == P
        assert json.loads(captured.err)["valid"] is True

    def test_coproduct(self, tmp_path, capsys):
        B = powerset_algebra(2)
        alg_f = write(
            tmp_path / "c.json", ser.dumps(ser.algebra_to_obj(coproduct([B, B])))
        )
        pair_f = write(
            tmp_path / "pd.json", ser.dumps(ser.pair_to_obj(trivial_pair(B.as_poset())))
        )
        rc = main(
            ["transport", "coproduct", "--algebra", alg_f, "--pair", pair_f, "--pair", pair_f]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert ser.pair_from_obj(json.loads(captured.out)).poset.n == 16

    def test_exponential(self, tmp_path, capsys):
        B = powerset_algebra(2)
        alg_f = write(
            tmp_path / "e.json", ser.dumps(ser.algebra_to_obj(exponential(B)))
        )
        pair_f = write(
            tmp_path / "pb.json", ser.dumps(ser.pair_to_obj(trivial_pair(B.as_poset())))
        )
        rc = main(["transport", "exponential", "--algebra", alg_f, "--pair", pair_f])
        captured = capsys.readouterr()
        assert rc == 0
        assert ser.pair_from_obj(json.loads(captured.out)).poset.n == 8

    def test_subalgebra(self, valid_pair_file, capsys):
        rc = main(["transport", "subalgebra", "--pair", valid_pair_file, "--members", "0,1,3"])
        captured = capsys.readouterr()
        assert rc == 0
        assert ser.pair_from_obj(json.loads(captured.out)).poset == chain(3)

    @pytest.mark.parametrize("image", [[0, "x"], [0, None], [0, 1.0], [0, True], [0], "02", 2])
    def test_bad_section_image_exit_two(self, tmp_path, capsys, image):
        Q, P = chain(3), chain(2)
        pair_f = write(tmp_path / "pq.json", ser.dumps(ser.pair_to_obj(trivial_pair(Q))))
        i = {"dom": ser.poset_to_obj(P), "cod": ser.poset_to_obj(Q), "image": image}
        i_f = write(tmp_path / "i.json", json.dumps(i))
        j_f = write(tmp_path / "j.json", ser.dumps(map_to_obj(MonotoneMap(Q, P, (0, 0, 1)))))
        rc = main(
            ["transport", "retract", "--pair", pair_f, "--section", i_f, "--retraction", j_f]
        )
        assert rc == 2
        assert assert_one_error_line(capsys) == ""

    def test_missing_pair_exit_two(self):
        assert main(["transport", "retract"]) == 2

    def test_defect_exit_four(self, tmp_path, valid_pair_file, capsys, monkeypatch):
        def defective(pair, i, j):
            raise TransportDefect(Verdict(False, (0, 1, 1)))

        monkeypatch.setattr("fnlab.cli.transport_retract", defective)
        m = map_to_obj(MonotoneMap(diamond(), diamond(), (0, 1, 2, 3)))
        m_f = write(tmp_path / "id.json", ser.dumps(m))
        rc = main(
            ["transport", "retract", "--pair", valid_pair_file, "--section", m_f,
             "--retraction", m_f]
        )
        captured = capsys.readouterr()
        assert rc == 4 and captured.out == ""
        verdict = ser.dumps(ser.verdict_to_obj(Verdict(False, (0, 1, 1))))
        assert captured.err == verdict + "error: transport output failed verification\n"

    @pytest.mark.parametrize("kind", ["retract", "subalgebra", "coproduct", "exponential"])
    def test_missing_option_exit_two(self, valid_pair_file, capsys, kind):
        assert main(["transport", kind, "--pair", valid_pair_file]) == 2
        assert assert_one_error_line(capsys) == ""

    def test_order_over_poset_cap_exit_three(self, tmp_path, capsys):
        # 2^15 elements > MAX_ELEMENTS: refused before the order is built
        assert main(["construct", "coproduct", "--atoms-list", "3,5"]) == 0
        alg_f = write(tmp_path / "c35.json", capsys.readouterr().out)
        pairs = []
        for k in (3, 5):
            pair = trivial_pair(powerset_algebra(k).as_poset())
            pairs += ["--pair", write(tmp_path / f"p{k}.json", ser.dumps(ser.pair_to_obj(pair)))]
        assert main(["transport", "coproduct", "--algebra", alg_f, *pairs]) == 3
        assert assert_one_error_line(capsys) == ""


class TestOracle:
    def test_count(self, capsys):
        assert main(["oracle", "count", "--n", "3"]) == 0
        assert capsys.readouterr().out == "19\n"

    def test_feasible(self, tmp_path, capsys):
        c2 = write(tmp_path / "c2.json", ser.dumps(ser.poset_to_obj(chain(2))))
        assert main(["oracle", "feasible", c2, "--cap", "1,2"]) == 0
        assert capsys.readouterr().out == "true\n"
        assert main(["oracle", "feasible", c2, "--cap", "1,1"]) == 1

    def test_frontier(self, diamond_file, capsys):
        assert main(["oracle", "frontier", diamond_file]) == 0
        assert capsys.readouterr().out == "1,4\n2,2\n4,1\n"

    @pytest.mark.parametrize("cmd", [["feasible", "--cap", "1,1"], ["frontier"]])
    def test_size_cap_exit_three(self, tmp_path, capsys, cmd):
        c6 = write(tmp_path / "c6.json", ser.dumps(ser.poset_to_obj(chain(6))))
        assert main(["oracle", cmd[0], c6, *cmd[1:]]) == 3
        assert assert_one_error_line(capsys) == ""

    def test_count_negative_size_exit_two(self, capsys):
        assert main(["oracle", "count", "--n", "-1"]) == 2
        assert assert_one_error_line(capsys) == ""


class TestGen:
    def test_poset_deterministic(self, capsys):
        assert main(["gen", "poset", "--n", "5", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "poset", "--n", "5", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first
        ser.poset_from_obj(json.loads(first))

    def test_negative_size_exit_two(self, capsys):
        assert main(["gen", "poset", "--n", "-1"]) == 2
        assert assert_one_error_line(capsys) == ""

    def test_over_poset_cap_exit_three(self, capsys):
        # refused before drawing 5 * 10^13 candidate edges
        assert main(["gen", "poset", "--n", "10000000"]) == 3
        assert assert_one_error_line(capsys) == ""

    def test_pair_is_valid(self, diamond_file, capsys):
        assert main(["gen", "pair", diamond_file, "--seed", "4"]) == 0
        pair = ser.pair_from_obj(json.loads(capsys.readouterr().out))
        from fnlab import verify_pair

        assert verify_pair(pair).valid

    def test_output_file(self, tmp_path, diamond_file):
        out = tmp_path / "g.json"
        assert main(["gen", "pair", diamond_file, "-o", str(out)]) == 0
        assert out.exists()


def test_cli_outputs_frozen(tmp_path, capsys):
    """One sha256 per stdout of a seeded session, frozen from the output of
    ``json.dumps(obj, sort_keys=True, indent=2)``: ``gen pair`` on a
    256-element poset, ``verify --interpolants`` on that pair, and
    ``transport coproduct`` over 2 and 5 atoms on seeded pairs."""

    def run(*argv, save=None):
        assert main(list(argv)) == 0
        captured = capsys.readouterr()
        if save is not None:
            write(tmp_path / save, captured.out)
        return captured

    def digest(captured):
        return hashlib.sha256(captured.out.encode()).hexdigest()

    run("gen", "poset", "--n", "256", "--seed", "2012", save="p256.json")
    pair = run("gen", "pair", str(tmp_path / "p256.json"), "--seed", "7", save="q256.json")
    verdict = run("verify", str(tmp_path / "q256.json"), "--interpolants")
    run("construct", "coproduct", "--atoms-list", "2,5", save="c25.json")
    args = ["transport", "coproduct", "--algebra", str(tmp_path / "c25.json")]
    for k in (2, 5):
        write(tmp_path / f"b{k}.json", ser.dumps(ser.poset_to_obj(powerset_algebra(k).as_poset())))
        run("gen", "pair", str(tmp_path / f"b{k}.json"), "--seed", str(k), save=f"q{k}.json")
        args += ["--pair", str(tmp_path / f"q{k}.json")]
    transported = run(*args)
    assert transported.err == '{\n  "valid": true\n}\n'
    assert [digest(c) for c in (pair, verdict, transported)] == [
        "a2b2d35c7703b72a8e5de78ea050db49e54934666611181a78e10857cfc6b985",
        "49b82201a3d403ca24af90654e0198add66a4cb72f4261ccdf6419cd6f90b47d",
        "0273709df392fbddc230e1c17f05ea29ac7e0b750f7db62c481cea11d8745f01",
    ]


def run_child(args, prelude="pass", memory=None, timeout=60):
    """Run the CLI in a fresh interpreter on the imported ``fnlab``, after
    ``prelude``, with at most ``memory`` bytes of address space; return the
    finished process and its wall time."""
    env = dict(os.environ)
    src_root = str(Path(fnlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    code = f"import sys; {prelude}; from fnlab.cli import main; raise SystemExit(main(sys.argv[1:]))"
    limit = None
    if memory is not None:
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
        preexec_fn=limit,
    )
    return proc, time.perf_counter() - start


def test_import_leaves_numpy_unloaded():
    """Neither starting the CLI nor the oracle's tables import numpy, and
    neither imports ``dataclasses``.  Runs in a fresh interpreter on the
    imported ``fnlab``."""
    proc, _ = run_child([], prelude=(
        "import fnlab.cli; from fnlab.oracle import brute_frontier; from fnlab.poset import chain; "
        "assert brute_frontier(chain(5)) == ((1, 5), (2, 3), (3, 2), (5, 1)); "
        "assert 'numpy' not in sys.modules; assert 'dataclasses' not in sys.modules; sys.exit(0)"
    ))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("cmd", [["feasible", "--cap", "1,1"], ["frontier"]])
def test_oracle_without_numpy_exit_two(diamond_file, cmd):
    """Named for the exit 2 the oracle once gave without numpy; the name is
    kept so its ids stay.  The oracle no longer uses numpy, so with numpy
    hidden both commands answer on the diamond as usual."""
    expected = {"feasible": (1, "false\n", ""), "frontier": (0, "1,4\n2,2\n4,1\n", "")}[cmd[0]]
    proc, _ = run_child(["oracle", cmd[0], diamond_file, *cmd[1:]], prelude="sys.modules['numpy'] = None")
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_oversized_search_exit_three_fast(tmp_path):
    """256 * C(255, 127) candidate sets per map: refused before any
    candidate table is listed."""
    poset256 = write(tmp_path / "p256.json", ser.dumps(ser.poset_to_obj(chain(256))))
    proc, wall = run_child(["search", poset256, "--cap", "128,128"], memory=2 << 30, timeout=30)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == ""
    assert wall < 5


def test_tree_past_work_bound_exit_three_fast():
    """2^20 points and 20 nested vanishing sets: 2^20 elements of 2^20
    atoms, refused from the block count before the carrier is listed."""
    proc, wall = run_child(
        ["construct", "tree", "--lam", "1", "--kap", "20"], memory=2 << 30, timeout=30
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert wall < 2


def test_tree_nodes_past_cap_refused_fast():
    """A direct ``tree_nodes(20, 21)`` call, with no ``tree_algebra`` in
    front of it: refused from the node count before any level is listed."""
    proc, wall = run_child(
        [], prelude="from fnlab.boolalg import tree_nodes; tree_nodes(20, 21)",
        memory=2 << 30, timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("fnlab.errors.SizeExceeded: "), proc.stderr
    assert wall < 2


class TestCarrierFile:
    """A 2^16-element carrier over 24 atoms: the unions of 16 seeded blocks."""

    @pytest.fixture
    def carrier(self):
        rng = random.Random(16)
        owner = [a % 16 for a in range(24)]
        rng.shuffle(owner)
        blocks = [sum(1 << a for a in range(24) if owner[a] == b) for b in range(16)]
        masks = [0]
        for b in blocks:
            masks += [m | b for m in masks]
        return sorted(masks), blocks

    def _construct(self, tmp_path, carrier):
        alg = write(tmp_path / "big.json", ser.dumps({"kind": "subalgebra", "atoms": 24, "carrier": carrier}))
        return run_child(["construct", "subalgebra", "--ambient", alg, "--gens", "0"])

    def test_loads_within_a_second(self, tmp_path, carrier):
        proc, wall = self._construct(tmp_path, carrier[0])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["carrier"] == [0, (1 << 24) - 1]
        assert wall < 1

    def test_unclosed_refused_within_a_second(self, tmp_path, carrier):
        masks, blocks = carrier
        masks[len(masks) // 2] ^= blocks[0] & -blocks[0]  # split one block once
        proc, wall = self._construct(tmp_path, masks)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert wall < 1


class TestWideIntegers:
    """Masks wider than the interpreter's 4300-digit conversion limit."""

    def test_construct_prints_and_reloads(self, tmp_path, capsys):
        # 14 tree nodes: generators are masks over 2^14 points
        assert main(["construct", "tree", "--lam", "13", "--kap", "2"]) == 0
        out = capsys.readouterr().out
        assert max(len(line) for line in out.splitlines()) > 4300
        base = write(tmp_path / "tree.json", out)
        assert main(["construct", "exponential", "--base", base]) == 0
        assert ser.loads(capsys.readouterr().out)["base"] == ser.loads(out)

    def test_loads_file_with_wide_mask(self, tmp_path, capsys):
        one = (1 << 20000) - 1
        obj = {"kind": "subalgebra", "atoms": 20000, "carrier": [0, one]}
        assert main(["construct", "exponential", "--base", write(tmp_path / "w.json", ser.dumps(obj))]) == 0
        assert ser.loads(capsys.readouterr().out)["base"]["carrier"] == [0, one]

    def test_integer_wider_than_any_mask_exit_two(self, tmp_path, capsys):
        text = '{"kind": "powerset", "atoms": %s}' % ("9" * 400000)
        assert main(["construct", "exponential", "--base", write(tmp_path / "w.json", text)]) == 2
        assert assert_one_error_line(capsys) == ""
