"""Seeded corpora for the four benchmark workloads, with reference answers.

Every item is one `hypermatch` CLI invocation on an `.h3` file written at
set-up.  Its reference answer comes from the construction, never from the
solver under test:

* star family on n vertices: n/3 - 1; blocker family with parameter d: d - 1;
* planted instances (random triples plus a planted perfect matching): n/3;
* disjoint unions of 9-vertex random blocks: the sum of the block optima,
  found here by brute force over at most three disjoint edges per block;
* cut family with a protected d-matching and 2% of the other edges removed:
  a d-matching exists, and the planted partition has deficiency equal to
  the number of removed edges, so a recovered deficiency above that is short;
* `verify thresholds`: 59049 of the 2^20 hypergraphs on 6 vertices lack a
  2-matching (pinned), and only the empty hypergraph lacks a 1-matching;
* `verify fact1`: 512 patterns and no violation.

`check` re-validates every returned matching against the instance itself.
A wrong or invalid answer raises WrongAnswer; an answer that is valid but
short of the reference (a stall, a budget stop, a non-zero exit) is a
failure and returns its reason.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from itertools import combinations

WORKLOADS = ("certify", "search", "closeness", "scan")

# Minimum passes per run.  The tail percentile of a workload is fixed so that
# it has at least ten samples beyond it after this many passes, which keeps
# the percentile the same however many passes fit into a run.
MIN_PASSES = {"certify": 4, "search": 4, "closeness": 4, "scan": 3}

# The calibration kernel (calibrate.py) that each workload's times are
# scaled by: the threshold scan is an integer bitmask loop, the rest is set,
# dict and tuple work.
KERNEL = {"certify": "mixed", "search": "mixed", "closeness": "mixed", "scan": "bits"}

# Density of the sparse planted augment instances.  At p <= 0.03 the k_max=3
# local search stalls short of the planted perfect matching on 30-50% of
# instances (measured on n = 45..60), so those densities would make items fail
# by design rather than by regression.
SPARSE_P = 0.05
DENSE_P = 0.5
# Blocks are sparse random triples plus a planted perfect matching.  Blocks
# without one make today's B&B search exponential across blocks (16 blocks at
# p = 0.12 took 34 s), and dense blocks (p = 0.5) vary 3x in cost between seeds.
BLOCK_P = 0.1


class WrongAnswer(Exception):
    """The program returned an invalid or impossible answer."""


@dataclass
class Item:
    id: str
    argv: list[str]
    kind: str
    ref: dict = field(default_factory=dict)
    edges: frozenset = frozenset()


def _perm(n: int, rng) -> list[int]:
    perm = list(range(n))
    for j in range(n - 1):
        r = j + next(rng) % (n - j)
        perm[j], perm[r] = perm[r], perm[j]
    return perm


def _relabel(edges, perm):
    return [tuple(sorted(perm[v] for v in e)) for e in edges]


def planted(C, core, n: int, p: float, seed: int):
    """Random triples at density p plus a perfect matching on a seeded permutation."""
    rng = C.splitmix64_stream(seed)
    perm = _perm(n, rng)
    H = C.random_triples(n, p, next(rng))
    pm = [tuple(sorted(perm[3 * i : 3 * i + 3])) for i in range(n // 3)]
    return core.Hypergraph3(n, list(H.edges) + pm)


def block_optimum(edges) -> int:
    """Maximum matching of a hypergraph on at most 9 vertices, by brute force."""
    sets = [frozenset(e) for e in edges]
    for r in (3, 2, 1):
        for combo in combinations(sets, r):
            if len(frozenset().union(*combo)) == 3 * r:
                return r
    return 0


def block_union(C, core, k: int, seed: int):
    """k vertex-disjoint 9-vertex planted blocks with shuffled labels; returns (H, optimum)."""
    rng = C.splitmix64_stream(seed)
    edges = []
    opt = 0
    for b in range(k):
        B = planted(C, core, 9, BLOCK_P, next(rng))
        opt += block_optimum(B.edges)
        edges.extend(tuple(9 * b + v for v in e) for e in B.edges)
    return core.Hypergraph3(9 * k, _relabel(edges, _perm(9 * k, rng))), opt


def perturbed_cut(C, core, n: int, d: int, seed: int):
    """Cut family minus 2% of its edges, sparing a planted d-matching, labels shuffled.

    Returns (H, removed).
    """
    H, P = C.cut_family(n, d)
    V = [v for v in range(n) if v not in P.W]
    protected = {tuple(sorted((V[2 * i], V[2 * i + 1], w))) for i, w in enumerate(sorted(P.W))}
    pool = [e for e in H.edges if e not in protected]
    k = round(0.02 * H.m)
    rng = C.splitmix64_stream(seed)
    for j in range(k):
        r = j + next(rng) % (len(pool) - j)
        pool[j], pool[r] = pool[r], pool[j]
    kept = pool[k:] + sorted(protected)
    return core.Hypergraph3(n, _relabel(kept, _perm(n, rng))), k


def build(workload: str, seed: int, C, core, directory: str) -> list[Item]:
    """Generate the workload's instances from `seed`, write them, return the pass items."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    seeds = C.splitmix64_stream(seed)
    items: list[Item] = []

    def add(name, H, argv, kind, **ref):
        path = os.path.join(directory, f"{name}.h3")
        core.write_h3(H, path)
        items.append(Item(f"{workload}/{name}", [a if a != "@" else path for a in argv], kind, ref, H.edge_set))

    if workload == "certify":
        # repeats put the median inside the four star n=21 items and the tail
        # among dense n=30 / star n=24, not in a gap between two item classes
        for n, reps in ((18, 1), (21, 4), (24, 1)):
            H, _ = C.extremal_star(n)
            for r in range(reps):
                add(f"star-n{n}-r{r}", H, ["solve", "--exact", "@"], "exact", size=n // 3 - 1)
            d = n // 3 - 1
            H, _ = C.blocker_family(n, d)
            add(f"blocker-n{n}", H, ["solve", "--exact", "@"], "exact", size=d - 1)
        for i, n in enumerate((24, 24, 27, 27, 30, 30, 30)):
            add(f"dense-n{n}-i{i}", planted(C, core, n, DENSE_P, next(seeds)), ["solve", "--exact", "@"], "exact", size=n // 3)
        for k in (8, 12, 16):
            H, opt = block_union(C, core, k, next(seeds))
            add(f"union-k{k}", H, ["solve", "--exact", "@"], "exact", size=opt)
    elif workload == "search":
        for n in (45, 51, 57, 60, 54, 48):
            H = planted(C, core, n, SPARSE_P, next(seeds))
            add(f"sparse-n{n}", H, ["solve", "--augment", "--k-max", "3", "@"], "augment", size=n // 3)
        # repeats put the median inside blocker n=18 and the tail among
        # absorbing n=21 / blocker n=24
        for n, reps in ((18, 4), (21, 3), (24, 2)):
            d = n // 3 - 1
            H, _ = C.blocker_family(n, d)
            for r in range(reps):
                add(f"blocker-n{n}-r{r}", H, ["solve", "--augment", "--k-max", "2", "@"], "augment", size=d - 1)
        for n in (18, 21, 24):
            H = planted(C, core, n, DENSE_P, next(seeds))
            add(f"absorbing-n{n}", H, ["solve", "--absorbing", "@"], "absorbing", size=n // 3)
    elif workload == "closeness":
        # median inside n=24, tail inside n=30; each instance serves both
        # commands, except n=45 (m ~ 9.5k, the largest file parsed), whose
        # extremal solve would double the pass and so halve the passes per run
        for n, reps in ((15, 2), (24, 4), (30, 3), (45, 1)):
            d = n // 3
            for r in range(reps):
                H, removed = perturbed_cut(C, core, n, d, next(seeds))
                add(f"local-n{n}-r{r}", H, ["closeness", "@", "--d", str(d), "--mode", "local"],
                    "closeness", d=d, removed=removed, n=n)
                if n < 45:
                    add(f"extremal-n{n}-r{r}", H, ["solve", "--extremal", "@", "--d", str(d)], "extremal", size=d)
    else:
        # the d=1 scan is repeated so that the median falls in the middle of
        # its copies: second-long items average over the machine's speed
        # changes, where the ~20 ms fact1 and tightness items sample them one
        # at a time; the d=2 copies sit above them, the two short items below
        for d in (2, 1, 1, 1, 2):
            items.append(Item(f"scan/thresholds-n6-d{d}-i{len(items)}", ["verify", "thresholds", "--n", "6", "--d", str(d)],
                              "thresholds", {"without": 59049 if d == 2 else 1, "total": 1 << 20}))
        items.append(Item("scan/fact1", ["verify", "fact1"], "fact1"))
        items.append(Item("scan/tightness", ["verify", "tightness", "--n-max", "15"], "tightness", {"n_max": 15}))
    return items


def _matching(item: Item, out: dict) -> int:
    """Size of the returned matching, after checking it against the instance."""
    edges = [tuple(sorted(e)) for e in out["matching"]]
    seen: set[int] = set()
    for e in edges:
        if e not in item.edges:
            raise WrongAnswer(f"{item.id}: {e} is not an edge of the instance")
        if seen & set(e):
            raise WrongAnswer(f"{item.id}: edge {e} overlaps another matching edge")
        seen.update(e)
    return len(edges)


def _deficiency(item: Item, n: int, W) -> int:
    """Model edges (one or two endpoints in W) missing from the instance."""
    Wset = set(W)
    w, v = len(Wset), n - len(Wset)
    present = sum(1 for e in item.edges if 1 <= sum(x in Wset for x in e) <= 2)
    return w * math.comb(v, 2) + v * math.comb(w, 2) - present


def check(item: Item, rc: int, stdout: str) -> str | None:
    """None when the item met its reference; otherwise the failure reason.

    Raises WrongAnswer when the output is invalid or better than possible.
    """
    if rc == 3:
        return "budget stop"
    if rc != 0:
        return f"exit {rc}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise WrongAnswer(f"{item.id}: output is not JSON ({exc})") from None
    ref = item.ref
    kind = item.kind
    if kind in ("exact", "augment", "absorbing", "extremal"):
        size = _matching(item, out)
        if size != out["size"]:
            raise WrongAnswer(f"{item.id}: reported size {out['size']} but {size} edges")
        if size > ref["size"]:
            raise WrongAnswer(f"{item.id}: size {size} exceeds the optimum {ref['size']}")
        if kind == "exact" and size < ref["size"]:
            raise WrongAnswer(f"{item.id}: certified {size}, optimum is {ref['size']}")
        if kind == "extremal" and size not in (0, ref["size"]):
            raise WrongAnswer(f"{item.id}: staged matcher returned {size} edges, wanted {ref['size']}")
        if size < ref["size"]:
            return f"stall at {size} of {ref['size']}"
        return None
    if kind == "closeness":
        if len(out["W"]) != ref["d"]:
            raise WrongAnswer(f"{item.id}: |W| = {len(out['W'])}, wanted {ref['d']}")
        actual = _deficiency(item, ref["n"], out["W"])
        if actual != out["deficiency"]:
            raise WrongAnswer(f"{item.id}: reported deficiency {out['deficiency']}, recomputed {actual}")
        if actual > ref["removed"]:
            return f"deficiency {actual} above the {ref['removed']} removed edges"
        return None
    if kind == "thresholds":
        if out["without_d_matching"] != ref["without"] or out["total_hypergraphs"] != ref["total"]:
            raise WrongAnswer(f"{item.id}: {out['without_d_matching']} without, expected {ref['without']}")
        return None
    if kind == "fact1":
        if out["violations"] != 0 or out["total"] != 512:
            raise WrongAnswer(f"{item.id}: {out['violations']} violations over {out['total']} patterns")
        return None
    if kind == "tightness":
        rows = out["rows"]
        if [r["n"] for r in rows] != list(range(6, ref["n_max"] + 1, 3)):
            raise WrongAnswer(f"{item.id}: unexpected rows {[r['n'] for r in rows]}")
        for r in rows:
            if r["max_matching"] != r["n"] // 3 - 1 or not r["optimal"] or not r["ok"]:
                raise WrongAnswer(f"{item.id}: star family n={r['n']} row {r}")
        return None
    raise ValueError(f"unknown item kind {kind!r}")
