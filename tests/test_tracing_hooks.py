"""The traced benchmark in ``perfbench/`` wraps program names where callers
look them up (module globals and class attributes).  Installing its tracing
fails with an ``AttributeError`` if one of those names is gone."""

import importlib
import random
from pathlib import Path

import fnlab.cli as cli
from fnlab import boolalg, trivial_pair
from fnlab import serialize as ser
from fnlab.fnmaps import transports
from fnlab.gen import random_poset
from fnlab.oracle import brute_frontier

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _recorder(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("rep"), importlib.import_module("spans").Recorder()


def test_traced_names_exist(monkeypatch):
    rep, rec = _recorder(monkeypatch)
    try:
        rep.install_tracing(rec)
        assert transports.literal_normal_forms is not boolalg.literal_normal_forms
    finally:
        rec.restore()
    assert transports.literal_normal_forms is boolalg.literal_normal_forms
    assert transports.subalgebra_masks is boolalg.subalgebra_masks


def test_cli_calls_traced_names(monkeypatch, tmp_path, capsys):
    """The CLI looks the library up in its globals at call time, so the
    traced wrappers see ``construct``, ``transport``, ``oracle frontier``
    and ``frontier`` commands, and the traced oracle's stdout still passes
    the benchmark's own check of it."""
    rep, rec = _recorder(monkeypatch)
    pair = tmp_path / "pair.json"
    pair.write_text(ser.dumps(ser.pair_to_obj(trivial_pair(boolalg.powerset_algebra(1).as_poset()))))
    algebra = str(tmp_path / "c.json")
    P = random_poset(5, random.Random(3))
    poset = tmp_path / "p5.json"
    poset.write_text(ser.dumps(ser.poset_to_obj(P)))
    # each command and the span it must record itself
    commands = [
        ("boolalg.coproduct", ["construct", "coproduct", "--atoms-list", "1,1", "-o", algebra]),
        ("transports.transport_coproduct", [
            "transport", "coproduct", "--algebra", algebra, "--pair", str(pair), "--pair", str(pair)
        ]),
        ("oracle.brute_frontier", ["oracle", "frontier", str(poset)]),
        ("search.feasible", ["frontier", str(poset)]),
    ]
    try:
        rep.install_tracing(rec)
        for span, argv in commands:
            first = len(rec.spans)
            capsys.readouterr()
            assert cli.main(argv) == 0
            assert span in {s[2] for s in rec.spans[first:]}, argv
            if argv[:2] == ["oracle", "frontier"]:
                assert ser.frontier_from_csv(capsys.readouterr().out).points == brute_frontier(P)
    finally:
        rec.restore()
