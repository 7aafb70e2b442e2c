"""Absorbing matchings: greedy construction over absorb masks.

An edge e absorbs a disjoint vertex triple T when the 6 vertices of
e ∪ T carry a 2-matching, i.e. split into two edges of H.  Other than
e | T, every split pairs two vertices {x, y} of e with one vertex t_j
of T, so e absorbs T iff T is an edge, or for some split of e into
{x, y} and z and some position j, both {x, y, t_j} and {z} ∪ (T - t_j)
are edges.  An absorbing matching M* with redundancy t gives every small
leftover triple at least t candidate edges to be folded into, so an
almost-perfect matching outside V(M*) can be upgraded to one covering
exactly V(M*) ∪ leftover.

Construction is greedy: repeatedly add the disjoint edge that newly
absorbs the most still-undercovered triples.  Each round indexes its
tracked triples as bits and gives every edge one absorb mask over them,
built from the rule above with 9 ANDs per edge (see _absorb_masks);
coverage counts are bit-sliced over the chosen edges' masks, and a gain
is one popcount.  Verification of the coverage is exhaustive while at
most 12 vertices remain outside M*, and sampled (10^4 seeded triples)
above that; the report says which.  A "sampled" verification holds
every triple whenever there are at most 10^4 of them, since the seeded
sampling would draw until it held them all.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations, tee

from .augment import AugmentConfig, solve as _augment_solve
from .constructions import splitmix64_stream
from .core import Edge, Hypergraph3, Matching
from .exact import SolveReport

__all__ = ["AbsorbingMatching", "absorbs", "find_absorbing", "absorb_leftover", "perfect_via_absorbing"]

_SAMPLE_TRIPLES = 10_000
_EXHAUSTIVE_LIMIT = 12


def _bits(mask: int) -> list[int]:
    return [k for k, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _split2(H: Hypergraph3, pool: int) -> tuple[int, int] | None:
    """A partition of a 6-vertex mask into two edges of H, or None."""
    inc = H.incidence
    x, *rest = _bits(pool)
    for a, b in combinations(rest, 2):
        c, d, e = (v for v in rest if v != a and v != b)
        # three distinct vertices share an edge iff they are one
        if inc[x] & inc[a] & inc[b] and inc[c] & inc[d] & inc[e]:
            m1 = (1 << x) | (1 << a) | (1 << b)
            return m1, pool ^ m1
    return None


def absorbs(H: Hypergraph3, e, T) -> bool:
    """True iff edge e can fold in the disjoint triple T: e ∪ T has a 2-matching."""
    e = tuple(sorted(e))
    T = tuple(sorted(T))
    if e not in H.edge_set:
        raise ValueError(f"{e} is not an edge of the host")
    if len(set(T)) != 3 or any(not 0 <= v < H.n for v in T):
        raise ValueError("T must be a set of 3 distinct vertices of the host")
    if set(e) & set(T):
        raise ValueError("T must be disjoint from e")
    emask = (1 << e[0]) | (1 << e[1]) | (1 << e[2])
    tmask = (1 << T[0]) | (1 << T[1]) | (1 << T[2])
    return _split2(H, emask | tmask) is not None


@dataclass
class AbsorbingMatching:
    """An absorbing matching with its per-edge absorption index.

    absorb_index maps each M*-edge to the tracked triples it can absorb
    (triples over the vertices left outside V(M*)).  success is False
    when the greedy construction stopped with undercovered triples.
    """

    edges: tuple[Edge, ...]
    gamma: float
    t: int
    success: bool
    absorb_index: dict[Edge, tuple[tuple[int, int, int], ...]]
    verification: str  # "exhaustive" or "sampled"
    min_coverage: int
    uncovered_triples: int
    capacity: int
    gamma6_capacity: int
    delta1_hypothesis: bool
    detail: str | None = None

    @property
    def size(self) -> int:
        return len(self.edges)

    def to_json_dict(self) -> dict:
        return {
            "schema": "hypermatch.absorbing/1",
            "edges": [list(e) for e in self.edges],
            "gamma": self.gamma,
            "t": self.t,
            "success": self.success,
            "verification": self.verification,
            "min_coverage": self.min_coverage,
            "uncovered_triples": self.uncovered_triples,
            "capacity": self.capacity,
            "gamma6_capacity": self.gamma6_capacity,
            "delta1_hypothesis": self.delta1_hypothesis,
            "absorb_index": {
                " ".join(map(str, e)): [list(t) for t in ts]
                for e, ts in self.absorb_index.items()
            },
            "detail": self.detail,
        }


def _tracked_triples(outside: list[int], stream) -> tuple[list, str]:
    """The triples to track over `outside`, and how they were chosen.

    Samples are drawn from `stream`, the seeded splitmix64 stream read from
    its start.
    """
    pool = sorted(outside)
    size = len(pool)
    if size <= _EXHAUSTIVE_LIMIT:
        return list(combinations(pool, 3)), "exhaustive"
    if math.comb(size, 3) <= _SAMPLE_TRIPLES:
        # the seeded sampling below would draw until it held every triple
        return list(combinations(pool, 3)), "sampled"
    draw = stream.__next__
    seen = set()
    while len(seen) < _SAMPLE_TRIPLES:
        # three distinct pool positions, in order of drawing; pool is sorted,
        # so sorting the positions sorts the triple
        a = draw() % size
        b = draw() % size
        while b == a:
            b = draw() % size
        c = draw() % size
        while c == a or c == b:
            c = draw() % size
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        seen.add((pool[a], pool[b], pool[c]))
    return sorted(seen), "sampled"


def _pair_links(H: Hypergraph3) -> dict[tuple[int, int], list[int]]:
    """For each pair {x, y} (x < y) that lies in an edge, the third vertices w of its edges."""
    links: dict[tuple[int, int], list[int]] = {}
    for a, b, c in H.edges:
        links.setdefault((a, b), []).append(c)
        links.setdefault((a, c), []).append(b)
        links.setdefault((b, c), []).append(a)
    return links


def _absorb_masks(H: Hypergraph3, links, triples) -> Callable[[int], int]:
    """mask_of(i): the triples (bit k for triples[k]) that edge i absorbs.

    Edge e absorbs a disjoint triple T = (t0, t1, t2) iff T is an edge, or
    for a split of e into a pair {x, y} and a vertex z and a position j,
    both {x, y, t_j} and {z} ∪ (T - t_j) are edges.  Per position j:
    posj[w] holds the triples with t_j = w; restj[(u, v)] the triples
    whose two vertices other than t_j are u < v; Qj[z] ORs restj over the
    edges {z, u, v}; and pair_mask(x, y) ORs posj over the third vertices
    of the pair's edges, once per pair.
    """
    n = H.n
    pos0, pos1, pos2 = [0] * n, [0] * n, [0] * n
    rest0: dict[tuple[int, int], int] = {}
    rest1: dict[tuple[int, int], int] = {}
    rest2: dict[tuple[int, int], int] = {}
    is_edge = 0
    for k, T in enumerate(triples):
        bit = 1 << k
        a, b, c = T
        pos0[a] |= bit
        pos1[b] |= bit
        pos2[c] |= bit
        rest0[b, c] = rest0.get((b, c), 0) | bit
        rest1[a, c] = rest1.get((a, c), 0) | bit
        rest2[a, b] = rest2.get((a, b), 0) | bit
        if T in H.edge_set:
            is_edge |= bit
    touch = [p0 | p1 | p2 for p0, p1, p2 in zip(pos0, pos1, pos2)]
    Q0, Q1, Q2 = [0] * n, [0] * n, [0] * n
    for rest, Q in ((rest0, Q0), (rest1, Q1), (rest2, Q2)):
        for pair, tm in rest.items():
            for z in links.get(pair, ()):
                Q[z] |= tm
    R: dict[tuple[int, int], tuple[int, int, int]] = {}

    def pair_mask(x: int, y: int) -> tuple[int, int, int]:
        got = R.get((x, y))
        if got is None:
            r0 = r1 = r2 = 0
            for w in links[(x, y)]:
                r0 |= pos0[w]
                r1 |= pos1[w]
                r2 |= pos2[w]
            got = R[(x, y)] = (r0, r1, r2)
        return got

    def mask_of(i: int) -> int:
        a, b, c = H.edges[i]
        acc = is_edge
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            r0, r1, r2 = pair_mask(x, y)
            acc |= (r0 & Q0[z]) | (r1 & Q1[z]) | (r2 & Q2[z])
        return acc & ~(touch[a] | touch[b] | touch[c])

    return mask_of


def _coverage_levels(masks: list[int], top: int) -> list[int]:
    """ge[c] for c = 0..top: the triples set in at least c of the masks (bit-sliced count)."""
    ge = [-1] + [0] * top
    for M in masks:
        for c in range(top, 0, -1):
            ge[c] |= ge[c - 1] & M
    return ge


def find_absorbing(
    H: Hypergraph3,
    gamma: float,
    t: int = 2,
    seed: int = 0,
    contract: bool = False,
) -> AbsorbingMatching:
    """Greedy absorbing matching: every leftover triple gets >= t absorbers.

    The size cap is floor(gamma^3 n / 3); outside contract mode at least
    one edge is always allowed.  Each round adds the edge disjoint from
    V(M*) that absorbs the most tracked triples still below t absorbers
    (lowest edge index on ties).  Reaching the cap with undercovered
    triples sets success=False (a result, not an exception).  The degree
    hypothesis delta1 >= (1/2 + 2 gamma) C(n,2) is checked and logged,
    not enforced.
    """
    if not 0 < gamma:
        raise ValueError("gamma must be positive")
    if t < 1:
        raise ValueError("redundancy t must be at least 1")
    n = H.n
    cap = math.floor(gamma**3 * n / 3)
    if not contract:
        cap = max(1, cap)
    hyp = H.m > 0 and H.min_degree(1) >= (0.5 + 2 * gamma) * math.comb(n, 2)
    links = _pair_links(H)

    chosen: list[int] = []  # edge indices
    covered = 0
    # base is never advanced: each round reads a fresh copy from the start,
    # and tee draws every stream value only once
    base = splitmix64_stream(seed)
    while True:
        outside = [v for v in range(n) if not covered >> v & 1]
        base, stream = tee(base)
        triples, verification = _tracked_triples(outside, stream)
        mask_of = _absorb_masks(H, links, triples)
        masks = [mask_of(i) for i in chosen]
        ge = _coverage_levels(masks, max(t, len(chosen)))
        full = (1 << len(triples)) - 1
        lacking = full & ~ge[t]
        if not lacking or len(chosen) >= cap:
            break
        best_i = None
        best_gain = 0
        for i, em in enumerate(H.edge_masks):
            if em & covered:
                continue
            gain = (mask_of(i) & lacking).bit_count()
            if gain > best_gain:
                best_gain, best_i = gain, i
        if best_i is None:
            break
        chosen.append(best_i)
        covered |= H.edge_masks[best_i]

    edges = tuple(H.edges[i] for i in chosen)
    min_cvg = sum(1 for level in ge[1:] if not full & ~level) if triples else t
    lacking_n = lacking.bit_count()
    success = lacking_n == 0 and (not contract or len(chosen) <= gamma**3 * n / 3)
    return AbsorbingMatching(
        edges=edges,
        gamma=gamma,
        t=t,
        success=success,
        absorb_index={e: tuple(triples[k] for k in _bits(M)) for e, M in zip(edges, masks)},
        verification=verification,
        min_coverage=min_cvg,
        uncovered_triples=lacking_n,
        capacity=3 * len(edges),
        gamma6_capacity=math.floor(gamma**6 * n),
        delta1_hypothesis=hyp,
        detail=None if lacking_n == 0 else f"{lacking_n} tracked triples below redundancy {t}",
    )


def absorb_leftover(H: Hypergraph3, A: AbsorbingMatching, Vp) -> Matching | None:
    """Fold a leftover vertex set into the absorbing matching.

    Partitions Vp into triples and assigns each to a distinct absorbing
    edge (backtracking over both choices); every assigned edge e is
    replaced by the 2-matching on e ∪ T.  The result covers exactly
    V(M*) ∪ Vp.  Returns None when no assignment exists or Vp exceeds
    the declared capacity.
    """
    Vp = sorted(set(Vp))
    if len(Vp) % 3 != 0:
        raise ValueError("leftover set must have size divisible by 3")
    star_vertices = {v for e in A.edges for v in e}
    if star_vertices & set(Vp):
        raise ValueError("leftover set must be disjoint from the absorbing matching")
    if not Vp:
        return Matching(H, A.edges)
    if len(Vp) > A.capacity:
        return None

    def partitions(rest):
        if not rest:
            yield []
            return
        first = rest[0]
        for two in combinations(rest[1:], 2):
            T = (first,) + two
            remaining = [v for v in rest if v not in T]
            for tail in partitions(remaining):
                yield [T] + tail

    def assign(triples, free_edges, acc):
        if not triples:
            return list(acc)
        T = triples[0]
        for e in free_edges:
            if not set(e) & set(T) and absorbs(H, e, T):
                got = assign(triples[1:], [f for f in free_edges if f != e], acc + [(e, T)])
                if got is not None:
                    return got
        return None

    for part in partitions(Vp):
        got = assign(part, list(A.edges), [])
        if got is not None:
            out = [e for e in A.edges if e not in {e for e, _ in got}]
            for e, T in got:
                out.extend(_two_matching_on(H, e, T))
            return Matching(H, sorted(out))
    return None


def _two_matching_on(H: Hypergraph3, e, T) -> list[Edge]:
    pool = 0
    for v in (*e, *T):
        pool |= 1 << v
    split = _split2(H, pool)
    if split is None:
        raise AssertionError("absorbs() certified a split that does not exist")
    return [tuple(_bits(m)) for m in split]


def perfect_via_absorbing(
    H: Hypergraph3,
    gamma: float = 0.8,
    cfg: AugmentConfig | None = None,
    t: int = 2,
    seed: int = 0,
) -> SolveReport:
    """Absorb, match the rest, fold the leftover: a perfect matching or the failing phase.

    Phases: find_absorbing on H; the augmenting solver on H - V(M*);
    absorb_leftover on whatever stayed uncovered.  An M* that falls short
    of redundancy t is used all the same: the fold is exact, so the
    pipeline fails only in the augment or leftover phase that cannot go
    on.  The report's detail names the phase that failed, if any, and its
    nodes are the B&B nodes of the augment phase's probes.
    """
    n = H.n

    def report(edges, optimal, detail, nodes=0):
        return SolveReport(
            size=len(edges),
            edges=tuple(sorted(edges)),
            optimal=optimal,
            nodes=nodes,
            detail=detail,
        )

    if n % 3 != 0:
        return report((), False, "phase absorbing: n not divisible by 3")
    A = find_absorbing(H, gamma, t=t, seed=seed)
    star_vertices = sorted(v for e in A.edges for v in e)
    sub, new_to_old = H.remove_vertices(star_vertices)
    rep, _ = _augment_solve(sub, sub.n // 3, cfg or AugmentConfig())
    outer = [tuple(sorted(new_to_old[v] for v in e)) for e in rep.edges]
    covered = {v for e in outer for v in e} | set(star_vertices)
    leftover = [v for v in range(n) if v not in covered]
    if len(leftover) > A.capacity:
        return report(
            tuple(sorted(outer + list(A.edges))),
            False,
            f"phase augment: leftover {len(leftover)} exceeds capacity {A.capacity}",
            rep.nodes,
        )
    folded = absorb_leftover(H, A, leftover)
    if folded is None:
        return report(
            tuple(sorted(outer + list(A.edges))),
            False,
            "phase leftover: no assignment of leftover triples to absorbing edges",
            rep.nodes,
        )
    total = sorted(outer + list(folded.edges))
    matching = Matching(H, total)
    perfect = len(matching.covered) == n
    return report(
        matching.edges,
        perfect,
        "perfect matching" if perfect else "phase leftover: cover incomplete",
        rep.nodes,
    )
