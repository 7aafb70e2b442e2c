"""Spans around each layer's public functions, installed from outside the program.

Every wrapped function is patched at the name its caller looks up, for
example `augment.max_matching_in_subset` (the exact solver as the augment
layer calls it) or `absorbing._augment_solve` (absorbing's alias of
`augment.solve`).  A span records its name, start, end and the span that
called it; a few spans also note counts read from the returned value, such
as B&B nodes.  Spans stay in memory until the run ends.

A layer's self time is its spans' durations minus the durations of their
child spans.  Per-layer metrics are reported per completed item.
"""

from __future__ import annotations

import json
from time import perf_counter

NAME, START, END, PARENT, NOTE = range(5)


def _exact_note(rep):
    return {"nodes": rep.nodes, "budget_stop": int(not rep.optimal)}


def _hook_points(mods):
    """(owner, attribute, span name, note) for every traced call site."""
    cli, core, exact = mods["cli"], mods["core"], mods["exact"]
    augment, extremal, absorbing = mods["augment"], mods["extremal"], mods["absorbing"]
    return [
        (cli, "main", "cli.main", lambda rc: {"exit_nonzero": int(rc != 0)}),
        (cli, "read_h3", "core.read_h3", None),
        (core.Hypergraph3, "remove_vertices", "core.remove_vertices", None),
        (cli, "verify_fact1", "links.verify_fact1", None),
        (exact, "max_matching", "exact.max_matching", _exact_note),
        (augment, "max_matching_in_subset", "exact.max_matching_in_subset", _exact_note),
        (augment, "solve", "augment.solve", lambda r: {"stall": int(r[0].detail == "stalled")}),
        (absorbing, "_augment_solve", "augment.solve", lambda r: {"stall": int(r[0].detail == "stalled")}),
        (extremal, "_augment_solve", "augment.solve", lambda r: {"stall": int(r[0].detail == "stalled")}),
        (augment, "augment_once", "augment.augment_once", lambda r: {"move": int(r is not None)}),
        (extremal, "find_partition", "extremal.find_partition", None),
        (extremal, "deficiency", "extremal.deficiency", None),
        (extremal, "classify_goodness", "extremal.classify_goodness", None),
        (extremal, "staged_matching", "extremal.staged", lambda r: {"stall": int(r[0] is None)}),
        (absorbing, "perfect_via_absorbing", "absorbing.perfect_via_absorbing", lambda r: {"perfect": int(r.optimal)}),
        (absorbing, "find_absorbing", "absorbing.find_absorbing", lambda a: {"mstar_edges": len(a.edges)}),
        (absorbing, "absorbs", "absorbing.absorbs", None),
        (absorbing, "absorb_leftover", "absorbing.absorb_leftover", None),
    ]


def _setup_points(mods):
    C = mods["constructions"]
    return [(C, f, f"constructions.{f}", None) for f in ("extremal_star", "blocker_family", "cut_family", "random_triples")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(result)
            return result

        return traced

    def install(self, mods, setup: bool = False):
        for owner, attr, name, note in _setup_points(mods) if setup else _hook_points(mods):
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, note))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"], "spans": self.spans}, fh)


def totals(spans, lo: int = 0) -> dict:
    """Per span name, over spans[lo:]: calls, inclusive and self seconds, summed notes."""
    hi = len(spans)
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        p = spans[i][PARENT]
        if p >= lo:
            child[p - lo] += spans[i][END] - spans[i][START]
    out: dict[str, dict] = {}
    for i in range(lo, hi):
        name, start, end, _, note = spans[i]
        t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - child[i - lo]
        for k, v in (note or {}).items():
            t[k] = t.get(k, 0) + v
    return out


def _get(t, name, key="calls"):
    return t.get(name, {}).get(key, 0)


def _layer(t, prefix, key):
    return sum(v.get(key, 0) for k, v in t.items() if k.startswith(prefix))


def _ratio(a, b):
    return a / b if b else 0.0


def counters(t) -> dict:
    """The deterministic work counts of a span total, unscaled."""
    return {
        "core.remove_vertices.calls": _get(t, "core.remove_vertices"),
        "exact.calls": _layer(t, "exact.", "calls"),
        "exact.nodes": _layer(t, "exact.", "nodes"),
        "exact.budget_stops": _layer(t, "exact.", "budget_stop"),
        "augment.probes": _get(t, "exact.max_matching_in_subset"),
        "augment.moves": _get(t, "augment.augment_once", "move"),
        "augment.stalls": _get(t, "augment.solve", "stall"),
        "extremal.deficiency.calls": _get(t, "extremal.deficiency"),
        "extremal.staged.stalls": _get(t, "extremal.staged", "stall"),
        "absorbing.mstar_edges": _get(t, "absorbing.find_absorbing", "mstar_edges"),
        "absorbing.absorbs.calls": _get(t, "absorbing.absorbs"),
        "cli.exit_nonzero": _get(t, "cli.main", "exit_nonzero"),
    }


def layer_metrics(t, items: int, constructions_s: float, overhead: float) -> dict:
    """Per-layer metrics per completed item, from the totals of the traced passes."""
    ms = 1000.0 / items
    c = counters(t)
    per_item = {k: v / items for k, v in c.items()}
    nodes = c["exact.nodes"]
    probes = c["augment.probes"]
    exact_self = _layer(t, "exact.", "self_s")
    return {
        "core.read_h3.ms": _get(t, "core.read_h3", "s") * ms,
        "core.remove_vertices.calls": per_item["core.remove_vertices.calls"],
        "core.remove_vertices.ms": _get(t, "core.remove_vertices", "s") * ms,
        "constructions.ms": constructions_s * 1000.0,
        "links.verify_fact1.ms": _get(t, "links.verify_fact1", "s") * ms,
        "exact.calls": per_item["exact.calls"],
        "exact.nodes": per_item["exact.nodes"],
        "exact.self_ms": exact_self * ms,
        "exact.us_per_node": _ratio(exact_self * 1e6, nodes),
        "exact.budget_stops": per_item["exact.budget_stops"],
        "augment.self_ms": _layer(t, "augment.", "self_s") * ms,
        "augment.probes": per_item["augment.probes"],
        "augment.probe_us": _ratio(_get(t, "exact.max_matching_in_subset", "s") * 1e6, probes),
        "augment.moves": per_item["augment.moves"],
        "augment.probe_hit_ratio": _ratio(c["augment.moves"], probes),
        "augment.stalls": per_item["augment.stalls"],
        "extremal.find_partition.self_ms": _get(t, "extremal.find_partition", "self_s") * ms,
        "extremal.deficiency.calls": per_item["extremal.deficiency.calls"],
        "extremal.deficiency.us": _ratio(_get(t, "extremal.deficiency", "s") * 1e6, c["extremal.deficiency.calls"]),
        "extremal.staged.self_ms": _get(t, "extremal.staged", "self_s") * ms,
        "extremal.staged.stalls": per_item["extremal.staged.stalls"],
        "absorbing.find_absorbing.self_ms": _get(t, "absorbing.find_absorbing", "self_s") * ms,
        "absorbing.mstar_edges": per_item["absorbing.mstar_edges"],
        "absorbing.absorbs.calls": per_item["absorbing.absorbs.calls"],
        "absorbing.absorb_leftover.ms": _get(t, "absorbing.absorb_leftover", "s") * ms,
        "absorbing.success_ratio": _ratio(
            _get(t, "absorbing.perfect_via_absorbing", "perfect"), _get(t, "absorbing.perfect_via_absorbing")
        ),
        "cli.self_ms": _get(t, "cli.main", "self_s") * ms,
        "cli.exit_nonzero": per_item["cli.exit_nonzero"],
        "trace.overhead": overhead,
    }

