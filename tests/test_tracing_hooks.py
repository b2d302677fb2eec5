"""The traced benchmark in ``perfbench/`` wraps program names where callers
look them up (module globals and class attributes).  Installing its tracing
fails with an ``AttributeError`` if one of those names is gone."""

import importlib
from pathlib import Path

from fnlab import boolalg
from fnlab.fnmaps import transports

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    rep = importlib.import_module("rep")
    spans = importlib.import_module("spans")
    rec = spans.Recorder()
    try:
        rep.install_tracing(rec)
        assert transports.literal_normal_forms is not boolalg.literal_normal_forms
    finally:
        rec.restore()
    assert transports.literal_normal_forms is boolalg.literal_normal_forms
    assert transports.subalgebra_masks is boolalg.subalgebra_masks
