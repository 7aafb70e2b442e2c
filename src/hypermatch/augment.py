"""Local search by swap moves: trade k matching edges for k + 1.

A move removes a subset S of k matching edges and re-matches the freed
vertices V(S) together with some uncovered vertices into k + 1 disjoint
edges.  Rather than pattern-matching each known move shape separately,
the subproblem is handed to the exact solver; the named move shapes
become fixtures the generic search must find.

Each removed set S gets one probe: a (k+1)-matching inside V(S) ∪ U,
with U the set of all uncovered vertices.  A standard component argument
(Hurkens & Schrijver, SIAM J. Discrete Math 1989) shows this is
complete: if a larger matching exists, some connected component of the
edge-intersection graph between the current and the larger matching has
k old edges and k+1 new ones, and the new edges lie inside V(S) ∪ U for
the k old edges S.  So a probe that exhausts its search without a
(k+1)-matching rules S out, and one that finds it is the move.  A probe
stopped by its node budget leaves S unresolved.

Removed sets are enumerated exhaustively below the configured cap and
sampled (deterministically, from the seed) above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .constructions import splitmix64_stream
from .core import Edge, Hypergraph3, Matching, Report
from .exact import SolveBudget, SolveReport, max_matching_in_subset

__all__ = ["AugmentConfig", "Move", "MoveTrace", "greedy_matching", "augment_once", "solve", "replay"]


@dataclass(frozen=True)
class AugmentConfig:
    """Knobs for the move search.

    k_max: most matching edges removable in one move (1..5 by default).
    s_cap: candidate removed-subsets tried per k.
    probe_nodes: node budget per exact-solver probe.
    """

    k_max: int = 5
    s_cap: int = 200
    probe_nodes: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.k_max:
            raise ValueError("k_max must be at least 1")
        # "not > 0" also rejects NaN: min(200, nan) is 200
        if not (self.s_cap > 0 and self.probe_nodes > 0):
            raise ValueError("caps and budgets must be positive")


@dataclass(frozen=True)
class Move:
    removed: tuple[Edge, ...]
    added: tuple[Edge, ...]
    uncovered_used: tuple[int, ...]


@dataclass
class MoveTrace(Report):
    SCHEMA = "hypermatch.trace/1"

    initial: tuple[Edge, ...]
    moves: list[Move] = field(default_factory=list)


def replay(H: Hypergraph3, trace: MoveTrace) -> Matching:
    """Re-apply a trace from its initial matching; validates every step."""
    edges = list(trace.initial)
    Matching(H, edges)
    for mv in trace.moves:
        for e in mv.removed:
            edges.remove(e)
        edges.extend(mv.added)
        Matching(H, edges)
    return Matching(H, sorted(edges))


def greedy_matching(H: Hypergraph3) -> Matching:
    """Maximal matching: scan edges in lexicographic order greedily."""
    labels, picked = H.labels, []
    # pick the lowest available edge, then drop its vertices' edges: n/3 steps, not m
    free, inc = (1 << H.m) - 1, H.incidence
    while free:
        j = 3 * (free & -free).bit_length() - 3
        a, b, c = e = labels[j : j + 3]
        picked.append(e)
        free &= ~(inc[a] | inc[b] | inc[c])
    return Matching(H, picked)


def _subsets(pool: tuple, size: int, cap: int, rng) -> list[tuple]:
    """All size-subsets of pool when few enough, else cap distinct samples."""
    if math.comb(len(pool), size) <= cap:
        return list(combinations(pool, size))
    seen = set()
    out = []
    idx = list(range(len(pool)))
    while len(out) < cap:
        # Floyd-ish sample of a size-subset, deterministic from the stream
        chosen = []
        avail = idx[:]
        for _ in range(size):
            chosen.append(avail.pop(next(rng) % len(avail)))
        key = tuple(sorted(chosen))
        if key not in seen:
            seen.add(key)
            out.append(tuple(pool[i] for i in key))
    return out


def augment_once(
    H: Hypergraph3, M: Matching, cfg: AugmentConfig | None = None, stats: dict | None = None
) -> tuple[Matching, Move] | None:
    """Find and apply one size-increasing move, or return None if none is found.

    Enumerates k = 1..k_max and removed subsets S of the matching, and
    asks the exact solver for a (k+1)-matching inside V(S) ∪ U, U being
    every uncovered vertex.  The first success (in deterministic
    enumeration order) is applied; its uncovered_used is V(added) - V(S).
    With fewer than 3 uncovered vertices no move exists (k + 1 edges need
    3k + 3 vertices), so nothing is probed.  When a stats dict is given,
    its "nodes" entry grows by the B&B nodes of every probe, "probes" by
    the number of probes and "union_skips" by the removed sets a probe
    ruled out.
    """
    cfg = cfg or AugmentConfig()
    stats = {} if stats is None else stats
    for key in ("nodes", "probes", "union_skips"):
        stats.setdefault(key, 0)
    uncovered = list(M.uncovered)
    if len(uncovered) < 3:
        return None
    medges = M.edges
    rng = splitmix64_stream(cfg.seed)
    for k in range(1, min(cfg.k_max, len(medges)) + 1):
        budget = SolveBudget(node_limit=cfg.probe_nodes, target=k + 1)
        for S in _subsets(medges, k, cfg.s_cap, rng):
            freed = [v for e in S for v in e]
            rep = max_matching_in_subset(H, freed + uncovered, budget)
            stats["nodes"] += rep.nodes
            stats["probes"] += 1
            if rep.size > k:
                removed = set(S)
                new_edges = [e for e in medges if e not in removed]
                new_edges.extend(rep.edges)
                used = sorted({v for e in rep.edges for v in e}.difference(freed))
                move = Move(removed=tuple(S), added=rep.edges, uncovered_used=tuple(used))
                return Matching(H, sorted(new_edges)), move
            if rep.optimal:
                stats["union_skips"] += 1
    return None


def solve(
    H: Hypergraph3, d: int, cfg: AugmentConfig | None = None
) -> tuple[SolveReport, MoveTrace]:
    """Greedy start, then swap moves (each adds one edge) until size d or a stall.

    The report's optimal flag records whether the target was reached,
    and its nodes sum the B&B nodes of every probe, the failed ones
    included; a stall is a result, not an error.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    cfg = cfg or AugmentConfig()
    M = greedy_matching(H)
    trace = MoveTrace(initial=M.edges)
    stats = {"nodes": 0}
    while M.size < d:
        step = augment_once(H, M, cfg, stats)
        if step is None:
            break
        M, move = step
        trace.moves.append(move)
    reached = M.size >= d
    return (
        SolveReport(
            size=M.size,
            edges=M.edges,
            optimal=reached,
            nodes=stats["nodes"],
            detail="target reached" if reached else "stalled",
        ),
        trace,
    )
