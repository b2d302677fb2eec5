"""The traced benchmark in ``perfbench/`` wraps program names where callers
look them up (module globals and class attributes).  Installing its tracing
fails with an ``AttributeError`` if one of those names is gone."""

import importlib
from pathlib import Path

import fnlab.cli as cli
from fnlab import boolalg
from fnlab import serialize as ser
from fnlab.fnmaps import transports, trivial_pair

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


def test_cli_calls_traced_names(monkeypatch, tmp_path):
    """The CLI looks the library up in its globals at call time, so the
    traced wrappers see ``construct`` and ``transport`` commands."""
    rep, rec = _recorder(monkeypatch)
    pair = tmp_path / "pair.json"
    pair.write_text(ser.dumps(ser.pair_to_obj(trivial_pair(boolalg.powerset_algebra(1).as_poset()))))
    algebra = str(tmp_path / "c.json")
    # each command and the span it must record itself
    commands = {
        "boolalg.coproduct": ["construct", "coproduct", "--atoms-list", "1,1", "-o", algebra],
        "transports.transport_coproduct": [
            "transport", "coproduct", "--algebra", algebra, "--pair", str(pair), "--pair", str(pair)
        ],
    }
    try:
        rep.install_tracing(rec)
        for span, argv in commands.items():
            first = len(rec.spans)
            assert cli.main(argv) == 0
            assert span in {s[2] for s in rec.spans[first:]}, argv
    finally:
        rec.restore()
