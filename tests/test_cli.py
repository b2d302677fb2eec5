import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fnlab
from fnlab import serialize as ser
from fnlab.boolalg import coproduct, exponential, powerset_algebra
from fnlab.cli import main
from fnlab.fnmaps import FnPair, trivial_pair
from fnlab.poset import MonotoneMap, chain, diamond


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
    pair = FnPair.from_sets(chain(2), [{0}, {1}], [{0}, {1}])
    return write(tmp_path / "bad_pair.json", ser.dumps(ser.pair_to_obj(pair)))


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

    def test_env_budget(self, diamond_file, monkeypatch):
        monkeypatch.setenv("FNLAB_NODE_BUDGET", "2")
        assert main(["search", diamond_file, "--cap", "2,2"]) == 3

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


    def test_budget_outcome_same_for_every_worker_count(self, tmp_path, capsys):
        assert main(["gen", "poset", "--n", "8", "--seed", "3"]) == 0
        f = write(tmp_path / "p8.json", capsys.readouterr().out)
        outs = []
        for w in ("1", "2"):
            assert main(["frontier", f, "--workers", w, "--budget", "5"]) == 3
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


_COPRODUCT = ser.algebra_to_obj(coproduct([powerset_algebra(1)] * 2))
_EXPONENTIAL = ser.algebra_to_obj(exponential(powerset_algebra(1)))

# algebra files that are malformed, or of a kind the option does not take
BAD_ALGEBRA_FILES = {
    "no_atoms": {"kind": "powerset"},
    "text_atoms": {"kind": "powerset", "atoms": "x"},
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
    ],
)
def test_bad_algebra_file_exit_two(tmp_path, valid_pair_file, capsys, args, name):
    alg = write(tmp_path / "alg.json", ser.dumps(BAD_ALGEBRA_FILES[name]))
    pair = ["--pair", valid_pair_file] if args[0] == "transport" else []
    assert main([*args, alg, *pair]) == 2
    assert assert_one_error_line(capsys) == ""


class TestTransport:
    def test_retract(self, tmp_path, capsys):
        Q, P = chain(3), chain(2)
        i = MonotoneMap(P, Q, (0, 2))
        j = MonotoneMap(Q, P, (0, 0, 1))
        pair_f = write(tmp_path / "pq.json", ser.dumps(ser.pair_to_obj(trivial_pair(Q))))
        i_f = write(tmp_path / "i.json", ser.dumps(ser.map_to_obj(i)))
        j_f = write(tmp_path / "j.json", ser.dumps(ser.map_to_obj(j)))
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

    def test_missing_pair_exit_two(self):
        assert main(["transport", "retract"]) == 2

    @pytest.mark.parametrize("kind", ["retract", "subalgebra", "coproduct", "exponential"])
    def test_missing_option_exit_two(self, valid_pair_file, capsys, kind):
        assert main(["transport", kind, "--pair", valid_pair_file]) == 2
        assert assert_one_error_line(capsys) == ""

    def test_order_over_poset_cap_exit_three(self, tmp_path, capsys):
        # 2^15 elements > MAX_ELEMENTS: refused before the all-pairs order
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

    def test_global_seed_position(self, capsys):
        assert main(["--seed", "9", "gen", "poset", "--n", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "poset", "--n", "5", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_pair_is_valid(self, diamond_file, capsys):
        assert main(["gen", "pair", diamond_file, "--seed", "4"]) == 0
        pair = ser.pair_from_obj(json.loads(capsys.readouterr().out))
        from fnlab.fnmaps import verify_pair

        assert verify_pair(pair).valid

    def test_output_file(self, tmp_path, diamond_file):
        out = tmp_path / "g.json"
        assert main(["gen", "pair", diamond_file, "-o", str(out)]) == 0
        assert out.exists()


def test_import_leaves_numpy_unloaded():
    """Only the oracle's tables use numpy, so starting the CLI must not
    import it.  Runs in a fresh interpreter on the imported ``fnlab``."""
    env = dict(os.environ)
    src_root = str(Path(fnlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import fnlab.cli, sys; assert 'numpy' not in sys.modules"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
