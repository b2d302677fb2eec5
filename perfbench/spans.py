"""In-memory spans recorded from outside the program, and the per-layer
metrics derived from them.

A span is ``[id, parent_id, name, start, end, info]``.  Spans are appended
in start order by wrappers installed around the names the program looks up
at call time (module globals and class attributes), so the program itself
is unchanged.  A layer's self time is its span's duration minus the part of
that interval covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time


class Recorder:
    """Collects spans for one process; nothing is written until ``dump``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name,
               time.perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.open(name)
        try:
            yield rec
        finally:
            self.close(rec)

    def wrap(self, fn, name: str, info=None):
        """``fn`` recording one span per call; ``info(args, result, exc)``
        may attach a small JSON value (an outcome or a count) to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                self.close(rec)
                if info is not None:
                    rec[5] = info(args, out, exc)

        return traced

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until ``restore``."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, info=None) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute) by a
        traced version, so every caller that looks the name up there is
        seen."""
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, info))

    def restore(self) -> None:
        """Undo every ``replace`` and ``patch``, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    each child clipped to its parent's interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    bounds = {s[0]: (s[3], s[4]) for s in spans}
    for sid, parent, _name, start, end, _info in spans:
        if parent is not None:
            lo, hi = bounds[parent]
            children.setdefault(parent, []).append((max(start, lo), min(end, hi)))
    return {
        sid: (end - start) - _union_length(children.get(sid, []))
        for sid, _parent, _name, start, end, _info in spans
    }


# Span names by layer.  The benchmark's own spans ("bench.*") are not a layer.
QUERY = ("search.feasible", "search.search_pair")
TRANSPORT = ("transports.transport_coproduct", "transports.transport_exponential")
CONSTRUCT = ("boolalg.powerset_algebra", "boolalg.coproduct", "boolalg.exponential")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and seconds of one batch, from its spans."""
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def total(items):
        return sum(s[4] - s[3] for s in items)

    def self_total(items):
        return sum(own[s[0]] for s in items)

    def prefixed(prefix):
        return [s for n, items in by_name.items() if n.startswith(prefix) for s in items]

    queries = named(*QUERY)
    outcomes = [s[5] for s in queries]
    verifies = named("core.verify_pair")
    return {
        "search.queries": len(queries),
        "search.query_s": total(queries),
        "search.query_p50_s": statistics.median([s[4] - s[3] for s in queries]) if queries else 0.0,
        "search.found": outcomes.count("found"),
        "search.infeasible": outcomes.count("infeasible"),
        "search.budget_hits": outcomes.count("budget"),
        "oracle.calls": len(named("oracle.brute_frontier")),
        "oracle.frontier_s": total(named("oracle.brute_frontier")),
        "boolalg.as_poset_s": total(named("boolalg.as_poset")),
        "boolalg.as_poset_elems": sum(s[5] for s in named("boolalg.as_poset") if s[5]),
        "boolalg.nf_s": total(named("boolalg.literal_normal_forms")),
        "boolalg.subalgebra_calls": len(named("boolalg.subalgebra_masks")),
        "boolalg.subalgebra_s": total(named("boolalg.subalgebra_masks")),
        "boolalg.construct_s": self_total(named(*CONSTRUCT)),
        "core.verify_calls": len(verifies),
        "core.verify_s": total(verifies),
        "core.pairs_scanned": sum(s[5] for s in verifies if s[5]),
        "transports.self_s": self_total(named(*TRANSPORT)),
        "poset.closure_s": total(named("poset.poset_from_covers")),
        "serialize.load_s": self_total(prefixed("serialize.load.")),
        "serialize.dump_s": self_total(prefixed("serialize.dump.")),
        "serialize.bytes_out": sum(s[5] for s in prefixed("serialize.dump.") if s[5]),
        "cli.self_s": self_total(named("cli.main")),
        "gen.inputs_s": total(named("bench.inputs")),
    }


def missing_layers(spans, required) -> list[str]:
    """Required span names (or ``prefix.`` patterns) with no span recorded."""
    names = {s[2] for s in spans}
    return [
        r for r in required
        if not (any(n.startswith(r) for n in names) if r.endswith(".") else r in names)
    ]
