"""Tests of the benchmark itself: seeded inputs repeat byte for byte, and
the span arithmetic behind the per-layer metrics and the host-speed
scaling of the times are right.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from fnlab import serialize as ser  # noqa: E402
from fnlab.fnmaps.core import FnPair  # noqa: E402
from fnlab.poset import Poset  # noqa: E402


def _encode(value):
    if isinstance(value, Poset):
        return ser.poset_to_obj(value)
    if isinstance(value, FnPair):
        return ser.pair_to_obj(value)
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _input_bytes(workload: str, seed: int, rep: int, workdir: Path) -> bytes:
    workdir.mkdir()
    ops = workloads.make_ops(workload, seed, rep, workdir, in_process=False)
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return ser.dumps({"ops": [_encode(op.data) for op in ops], "files": files}).encode()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first = _input_bytes(workload, 7, 1, tmp_path / "a")
    again = _input_bytes(workload, 7, 1, tmp_path / "b")
    # cli argv name the files of their own directory
    again = again.replace(str(tmp_path / "b").encode(), str(tmp_path / "a").encode())
    assert first == again
    other = _input_bytes(workload, 8, 1, tmp_path / "c")
    other = other.replace(str(tmp_path / "c").encode(), str(tmp_path / "a").encode())
    assert first != other


def _span(sid, parent, name, start, end, info=None):
    return [sid, parent, name, float(start), float(end), info]


# transport [0, 10] holds as_poset [1, 4], verify [3, 6] (overlapping its
# sibling) and a literal_normal_forms span [8, 12] that overruns its
# parent; as_poset holds a subalgebra closure [2, 3].
TREE = [
    _span(0, None, "transports.transport_coproduct", 0, 10),
    _span(1, 0, "boolalg.as_poset", 1, 4, 16),
    _span(2, 1, "boolalg.subalgebra_masks", 2, 3),
    _span(3, 0, "core.verify_pair", 3, 6, 81),
    _span(4, 0, "boolalg.literal_normal_forms", 8, 12),
    _span(5, None, "search.feasible", 20, 21, "found"),
    _span(6, None, "search.feasible", 21, 24, "budget"),
    _span(7, None, "search.search_pair", 24, 26, "infeasible"),
]


def test_self_time_subtracts_the_union_of_clipped_children():
    own = spans.self_times(TREE)
    # children cover [1, 6] and [8, 10] of [0, 10]
    assert own[0] == pytest.approx(10 - 5 - 2)
    assert own[1] == pytest.approx(3 - 1)
    assert own[2] == pytest.approx(1)
    assert own[3] == pytest.approx(3)
    assert own[4] == pytest.approx(4)


def test_layer_metrics_on_a_synthetic_tree():
    m = spans.layer_metrics(TREE)
    assert m["transports.self_s"] == pytest.approx(3)
    assert m["boolalg.as_poset_s"] == pytest.approx(3)
    assert m["boolalg.as_poset_elems"] == 16
    assert m["core.verify_calls"] == 1
    assert m["core.pairs_scanned"] == 81
    assert m["search.queries"] == 3
    assert m["search.query_s"] == pytest.approx(6)
    assert m["search.query_p50_s"] == pytest.approx(2)
    assert (m["search.found"], m["search.infeasible"], m["search.budget_hits"]) == (1, 1, 1)
    assert m["oracle.calls"] == 0


def test_span_self_check_names_the_missing_layers():
    required = ("search.feasible", "boolalg.", "serialize.load.", "cli.main")
    assert spans.missing_layers(TREE, required) == ["serialize.load.", "cli.main"]


def test_recorder_nests_spans_and_restores_patches():
    class Owner:
        @staticmethod
        def leaf(x):
            return x + 1

    rec = spans.Recorder()
    original = Owner.leaf
    rec.patch(Owner, "leaf", "test.leaf", lambda args, out, exc: out)
    with rec.span("test.root"):
        assert Owner.leaf(1) == 2
    rec.restore()
    assert Owner.leaf is original
    (root, leaf) = rec.spans
    assert root[1] is None and leaf[1] == root[0]
    assert leaf[5] == 2 and root[3] <= leaf[3] <= leaf[4] <= root[4]
    assert json.loads(json.dumps(rec.spans))[1][2] == "test.leaf"


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10)
    assert pct == pytest.approx(90.0)


def _fake_probe(factors, every_s, sensitivity=1.0):
    probe = speed.Probe(None, ref_s=1.0, sensitivity=sensitivity, every_s=every_s, tries=1)
    probe.factor = lambda: next(factors)
    return probe


def test_scaled_clock_weights_each_stretch_by_its_wall_time():
    clock = speed.ScaledClock(_fake_probe(iter([1.0, 2.0, 4.0]), every_s=0.0))
    clock.start()
    clock.add(1.0)  # stretch between probes 1.0 and 2.0: factor 1.5
    clock.add(3.0)  # between 2.0 and 4.0: factor 3.0
    clock.finish()  # nothing pending: no further probe
    assert clock.probes == [1.0, 2.0, 4.0]
    assert clock.factor == pytest.approx((1.0 * 1.5 + 3.0 * 3.0) / 4.0)
    assert clock.scaled(2.625) == pytest.approx(1.0)


def test_scaled_clock_shares_a_probe_between_short_operations():
    clock = speed.ScaledClock(_fake_probe(iter([1.0, 3.0]), every_s=3600.0, sensitivity=0.5))
    clock.start()
    for t in (0.5, 0.25, 0.25):
        clock.add(t)
    clock.finish()
    assert clock.raw == [0.5, 0.25, 0.25]
    assert clock.factor == pytest.approx(2.0)
    assert clock.scaled(2.0) == pytest.approx(2.0 / 2.0 ** 0.5)


def test_scaled_clock_per_operation_uses_the_probes_beside_each():
    probe = _fake_probe(iter([1.0, 3.0, 1.0]), every_s=0.0)
    probe.per_operation = True
    clock = speed.ScaledClock(probe)
    clock.start()
    clock.add(4.0)  # between 1.0 and 3.0
    clock.add(4.0)  # between 3.0 and 1.0
    clock.finish()
    assert clock.scaled_ops() == pytest.approx([2.0, 2.0])
    clock = speed.ScaledClock(_fake_probe(iter([1.0, 3.0, 5.0]), every_s=0.0))
    clock.start()
    clock.add(4.0)  # between 1.0 and 3.0: factor 2.0
    clock.add(4.0)  # between 3.0 and 5.0: factor 4.0
    clock.finish()
    assert clock.scaled_ops() == pytest.approx([4.0 / 3.0, 4.0 / 3.0])  # mean factor 3.0


@pytest.mark.parametrize("probe", [speed.PYTHON, speed.INTERPRETER_START])
def test_probes_give_a_positive_factor(probe):
    assert probe.factor() > 0
