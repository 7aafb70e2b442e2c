"""Exact maximum-matching oracle via branch and bound.

The search state is one int over edge indices: bit i is set iff edge i
is still available (inside the solved vertex set and disjoint from the
chosen edges).  With H.incidence[v] the mask of edges at v, the degree
of v is (avail & incidence[v]).bit_count(), and choosing edge (a, b, c)
leaves avail & ~(incidence[a] | incidence[b] | incidence[c]).

Branching rule: among uncovered vertices that still lie on an available
edge, pick the one with minimum remaining degree (lowest index on ties)
and branch on each of its edges in lexicographic order, with the "leave
it unmatched" branch explored last.  With a target size and early exit
this makes the first descent a greedy dive, which produces certificates
fast on dense instances.  Each expanded node keeps one frame on an
explicit stack, with a mask of the edge children it has not visited yet:
they are taken lowest index first, then the unmatched child, in that same
order and without a recursion depth limit.  A child's edge mask is built
only when it is tested alone (the first edge child, the unmatched child,
or one whose test must grow the shared cover) or survives the bounds.

Pruning at each node, against the best size found so far:
  * counting bound: |chosen| + floor(#coverable_vertices / 3),
  * cover bound:    |chosen| + (size of a greedy vertex cover of the
                    available edges: maximum degree first, lowest index
                    on ties), since any vertex cover bounds the matching
                    size from above,
  * shared cover:   a child first tries |chosen| + |C - gone|, with C the
                    parent's greedy cover and gone the vertices the branch
                    took; siblings extend that one cover on demand.
The cover bound is what keeps certification cheap on instances whose
edges all pass through a small blocker set.  The greedy cover stops as
soon as it is too large to prune, which changes no decision.  The shared
cover only prunes subtrees that cannot beat the best size: it can lower
the node count and change nothing else an unbudgeted solve reports.
Vertices with no available edge are dropped from the counting bound
(degree-zero elimination).

Siblings in bulk: once best_size exceeds the parent's depth, an edge
child can change the search only by being expanded, and the slack is
the same for every sibling until one is.  Every edge child keeps
|live| - 3 free vertices, so the counting bound prunes all of them or
none; with the cover C complete, the shared cover prunes exactly the
edges with at least |C| - slack vertices in C (1 to 3; see
_pruned_by_cover), a bit-sliced count over the incidence of C's vertices.
The siblings pruned before the next survivor are added to the node count
at once.  Each of them is still one node: the node limit stops on the
same node, and the clock is read on every node numbered by a multiple of
256, as if they were taken one at a time.  A bulk count never grows the
cover: while C is incomplete every sibling is tested alone, and a lone
child with no edges left is pruned before its cover test, so the greedy
cover makes the same picks as when every child had its own frame.

Connected components: a maximum matching is the union of maximum
matchings of the connected components (Abu-Khzam, TAMC 2009).
max_matching (and so has_d_matching) searches each component that has
edges on its own, from its own edge and vertex masks, in order of lowest
vertex, and sums sizes, edges and nodes; the node budget, the clock and
the target are shared.  An input with no edges is one search of one
node.  Every max_matching_in_subset call runs one search over its subset.

Everything is deterministic: identical inputs give identical reports,
including node counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .core import Edge, Hypergraph3, Report

__all__ = ["SolveBudget", "SolveReport", "max_matching", "max_matching_in_subset", "has_d_matching"]


@dataclass(frozen=True)
class SolveBudget:
    """Limits for one solve call.  target enables early exit at that size."""

    node_limit: int = 10_000_000
    time_limit_ms: float | None = None
    target: int | None = None

    def __post_init__(self):
        # "not > 0" also rejects NaN, which no node count or elapsed time would ever exceed
        if not self.node_limit > 0:
            raise ValueError("node_limit must be positive")
        if self.time_limit_ms is not None and not self.time_limit_ms > 0:
            raise ValueError("time_limit_ms must be positive")
        if self.target is not None and self.target < 0:
            raise ValueError("target must be non-negative")


@dataclass(frozen=True)
class SolveReport(Report):
    """Result of a solve: best matching found plus search statistics.

    optimal is True only if the search space was exhausted or the
    requested target size was reached; a budgeted stop reports
    optimal=False with the reason in detail.  It carries no wall time, so
    equal inputs give byte-identical reports.
    """

    SCHEMA = "hypermatch.solve/1"

    size: int
    edges: tuple[Edge, ...]
    optimal: bool
    nodes: int
    detail: str | None = None

    def to_json_dict(self) -> dict:
        out = super().to_json_dict()
        out["matching"] = out.pop("edges")
        return out


def _search(
    H: Hypergraph3, avail: int, free: int, budget: SolveBudget, t0: float, nodes: int = 0, found: int = 0
) -> SolveReport:
    """Branch and bound from the root node (avail edges, free vertices).

    nodes and found are what earlier components of the same solve spent
    and matched: the node limit, the clock check every 256 nodes and the
    target apply to the whole solve, and the report's nodes include them.
    """
    inc, labels = H.incidence, H.labels
    node_limit, time_limit = budget.node_limit, budget.time_limit_ms
    target = None if budget.target is None else budget.target - found
    best_size = 0
    best = None
    optimal, detail = True, None
    depth, chosen, slack = 0, None, 0
    nodes += 1  # the root
    if nodes > node_limit or (time_limit is not None and not nodes & 255):
        nodes, detail = _spend(nodes - 1, 1, node_limit, time_limit, t0)
        optimal = detail is None
    # the counting bound cannot exceed |free| // 3: skip the degree pass
    if not (optimal and avail and free.bit_count() // 3 > slack):
        free = 0
    # frame of an expanded node: [available edges, live vertices, their number, depth,
    #   chosen chain of label offsets, greedy cover state, pivot, edge children not taken yet]
    stack = []
    while True:
        # free is non-zero iff a node waits to be expanded: the vertices of the edges it has left
        if free:
            # live vertices and their degrees; the pivot has minimum degree, lowest index
            live = []
            live_mask = 0
            pivot_deg = None
            while free:
                low = free & -free
                free ^= low
                v = low.bit_length() - 1
                deg = (avail & inc[v]).bit_count()
                if deg:
                    live.append(v)
                    live_mask |= low
                    if pivot_deg is None or deg < pivot_deg:
                        pivot, pivot_deg = v, deg
            state = [avail, live, 0, 0]
            if len(live) // 3 > slack and not _greedy_cover(state, inc, slack):
                stack.append([avail, live_mask, len(live), depth, chosen, state, pivot, avail & inc[pivot]])
        if not stack:
            break

        # take the next child: alone (tested in full below), or after a run of
        # siblings that the bounds prune, which are only counted
        frame = stack[-1]
        avail, live_mask, nlive, depth, chosen, state, pivot, rest = frame
        if not rest:
            stack.pop()  # the unmatched child comes last
            low, k, alone = 0, 1, True
        else:
            alone = depth >= best_size  # the first edge child, which sets best_size to depth + 1
            if not alone:
                # best_size > depth, so an edge child can raise it only by being expanded
                slack = best_size - depth - 1
                if (nlive - 3) // 3 <= slack:  # every edge child keeps nlive - 3 free vertices
                    pruned = rest
                elif state[0]:
                    alone = True  # only a lone child grows the cover, which a child without edges skips
                else:
                    pruned = _pruned_by_cover(state, inc, rest, slack)
            if alone:
                low, k = rest & -rest, 1
                frame[7] = rest ^ low
            else:
                low = rest & ~pruned
                low &= -low
                if low:
                    k = (rest & (low - 1)).bit_count() + 1
                    frame[7] = rest & -(low << 1)
                else:
                    k = rest.bit_count() + 1  # and the unmatched child
                    stack.pop()
                    alone = True
        nodes += k
        if nodes > node_limit or (time_limit is not None and nodes >> 8 != (nodes - k) >> 8):
            nodes, detail = _spend(nodes - k, k, node_limit, time_limit, t0)
            if detail is not None:
                optimal = False
                break

        if low:
            j = 3 * low.bit_length() - 3  # the offset of the edge's labels
            a, b, c = labels[j], labels[j + 1], labels[j + 2]
            depth += 1
            chosen = (j, chosen)
            if depth > best_size:
                best_size, best = depth, chosen
                if target is not None and depth >= target:
                    detail = "target reached"
                    break
            gone = 1 << a | 1 << b | 1 << c
            avail &= ~(inc[a] | inc[b] | inc[c])
            left = nlive - 3
        else:
            gone = 1 << pivot
            avail &= ~inc[pivot]
            left = nlive - 1
        if not avail:
            continue
        slack = best_size - depth
        if alone:
            if left // 3 <= slack:
                continue
            # the parent's cover minus the vertices this child took covers its edges
            # (gone holds at most 3 vertices, so only a cover of <= slack + 3 can prune)
            if state[0] and state[3] < slack + 3:
                _greedy_cover(state, inc, slack + 3)
            if not state[0] and (state[2] & ~gone).bit_count() <= slack:
                continue
        free = live_mask & ~gone

    chain = []
    while best is not None:
        j, best = best
        chain.append(labels[j : j + 3])
    return SolveReport(
        size=best_size,
        edges=tuple(reversed(chain)),
        optimal=optimal,
        nodes=nodes,
        detail=detail,
    )


def _spend(nodes: int, k: int, node_limit: int, time_limit: float | None, t0: float) -> tuple[int, str | None]:
    """Count k more nodes: (nodes, None), or the node a budget stopped on and why.

    The k nodes are checked as if taken one at a time: the node limit
    stops on the first node past it, and the clock is read on each node
    whose number is a multiple of 256, up to the limit.
    """
    if time_limit is not None:
        for at in range((nodes | 255) + 1, min(nodes + k, node_limit) + 1, 256):
            if (time.perf_counter() - t0) * 1000.0 > time_limit:
                return at, "time budget exhausted"
    if nodes + k > node_limit:
        return max(nodes, node_limit) + 1, "node budget exhausted"
    return nodes + k, None


def _pruned_by_cover(state: list, inc, rest: int, slack: int) -> int:
    """The edge children in rest that the parent's complete cover C prunes at this slack.

    A child is pruned iff it has at least |C| - slack vertices in C, and
    1 <= |C| - slack <= 3: best_size stays at most depth + |C| (C covers
    the frame's edges and outgrew the slack it was pushed at), and C
    completes only on a lone edge child, within slack + 3; slack never falls.
    """
    need = state[3] - slack
    one = two = three = 0  # edges of rest with at least one, two, three vertices in C
    cover = state[2]
    while cover:
        low = cover & -cover
        cover ^= low
        x = inc[low.bit_length() - 1] & rest
        three |= two & x
        two |= one & x
        one |= x
    return (one, two, three)[need - 1]


def _greedy_cover(state: list, inc, limit: int) -> bool:
    """Extend a greedy vertex cover in place; True iff it is complete with at most limit vertices.

    state is [uncovered edges, candidate vertices, cover mask, cover size].
    Greedy picks the vertex of maximum remaining degree, lowest index on
    ties, and stops once the cover holds limit vertices, so a later call
    with a larger limit resumes the same sequence of picks.
    """
    avail, live, mask, count = state
    while avail and count < limit:
        best_deg = 0
        keep = []
        for v in live:
            deg = (avail & inc[v]).bit_count()
            if deg:
                keep.append(v)
                if deg > best_deg:
                    pick, best_deg = v, deg
        avail &= ~inc[pick]
        mask |= 1 << pick
        live = keep
        count += 1
    state[:] = avail, live, mask, count
    return not avail


def _components(H: Hypergraph3) -> list[tuple[int, int]]:
    """(edge mask, vertex mask) of each connected component with edges, by lowest vertex.

    Stops after one component when it holds every edge.  A component grows
    in rounds: the vertices of its new edges come from OR-ing their vertex
    bits (read from H.labels), or, once the new edges outnumber the
    vertices, from one incidence test per vertex.  So a sparse component
    costs work in proportion to its own edges, and a dense input a few
    passes over n (walking the new edges one by one is quadratic in m:
    each step rewrites an m-bit mask).
    """
    inc, labels, n = H.incidence, H.labels, H.n
    left = (1 << H.m) - 1  # edges of components not found yet
    comps = []
    for s in range(n):
        if not left:
            break
        if not inc[s] & left:
            continue
        comp_edges = new = inc[s]
        comp_vertices = 1 << s
        while new:
            grown = 0
            if new.bit_count() > n:
                for v in range(n):
                    if inc[v] & new:
                        grown |= 1 << v
            else:
                while new:
                    low = new & -new
                    new ^= low
                    j = 3 * low.bit_length() - 3
                    grown |= 1 << labels[j] | 1 << labels[j + 1] | 1 << labels[j + 2]
            grown &= ~comp_vertices
            comp_vertices |= grown
            while grown:
                low = grown & -grown
                grown ^= low
                new |= inc[low.bit_length() - 1]
            new &= ~comp_edges
            comp_edges |= new
        comps.append((comp_edges, comp_vertices))
        left &= ~comp_edges
    return comps


def max_matching(H: Hypergraph3, budget: SolveBudget | None = None) -> SolveReport:
    """Maximum matching of H, exact unless the budget runs out first.

    Each component that has edges is solved on its own, in order of
    lowest vertex, and the sizes, edges and nodes are summed.  The
    components share the node budget, the clock and the target: the solve
    stops once the running size reaches the target.  A budget stop keeps
    the components already solved to optimality plus the best matching
    found so far in the one being searched; later components add nothing.
    """
    budget = budget or SolveBudget()
    t0 = time.perf_counter()
    comps = _components(H)
    if not comps:
        return _search(H, 0, (1 << H.n) - 1, budget, t0)
    size = nodes = 0
    edges = []
    for avail, free in comps:
        rep = _search(H, avail, free, budget, t0, nodes, size)
        size += rep.size
        edges.extend(rep.edges)
        nodes = rep.nodes
        if rep.detail is not None:
            return SolveReport(size, tuple(edges), rep.optimal, nodes, rep.detail)
    return SolveReport(size, tuple(edges), True, nodes)


def max_matching_in_subset(H: Hypergraph3, subset, budget: SolveBudget | None = None) -> SolveReport:
    """Maximum matching using only edges entirely inside the given vertex set.

    Never split into components, so every augment probe runs one search.
    """
    budget = budget or SolveBudget()
    t0 = time.perf_counter()
    active = 0
    for v in subset:
        active |= 1 << H._check_vertex(v)
    outside = 0  # the edges that leave the subset
    for v, vinc in enumerate(H.incidence):
        if not active >> v & 1:
            outside |= vinc
    return _search(H, ((1 << H.m) - 1) & ~outside, active, budget, t0)


def has_d_matching(
    H: Hypergraph3, d: int, budget: SolveBudget | None = None
) -> tuple[str, SolveReport]:
    """Decide whether H has a matching of size d.

    Returns ("yes", report-with-certificate), ("no", report) when the
    search space was exhausted, or ("unknown", report) on budget stop.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    if d == 0:
        return "yes", SolveReport(size=0, edges=(), optimal=True, nodes=0)
    rep = max_matching(H, replace(budget or SolveBudget(), target=d))
    if rep.size >= d:
        return "yes", rep
    return ("no", rep) if rep.optimal else ("unknown", rep)
