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
absorbs the most still-undercovered triples.  The tracked triples are
the bits of an index, and one pass gives every edge an absorb mask over
it (9 ANDs per edge, see _absorb_masks).  Once a round tracks every
triple over its outside vertices, so does every later round, over a
subset of those triples.  Absorption does not depend on what is tracked,
so the later rounds only narrow a `tracked` mask over the same index;
masks are rebuilt only for rounds that sample.  Coverage counts are
bit-sliced over the chosen edges' masks, and a gain is one popcount.
Verification is exhaustive while at most 12 vertices remain outside M*,
and sampled (10^4 seeded triples) above that; the report says which.
"sampled" holds every triple whenever there are at most 10^4 of them,
since the seeded sampling would draw until it held them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .augment import AugmentConfig, solve as _augment_solve
from .constructions import splitmix64_stream
from .core import Edge, Hypergraph3, Matching, Report
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
    inc = H.incidence
    # three distinct vertices of the host form an edge iff their incidences meet
    if not (len(e) == 3 and 0 <= e[0] < e[1] < e[2] < H.n and inc[e[0]] & inc[e[1]] & inc[e[2]]):
        raise ValueError(f"{e} is not an edge of the host")
    if len(set(T)) != 3 or any(not 0 <= v < H.n for v in T):
        raise ValueError("T must be a set of 3 distinct vertices of the host")
    if set(e) & set(T):
        raise ValueError("T must be disjoint from e")
    return _split2(H, sum(1 << v for v in e + T)) is not None


@dataclass
class AbsorbingMatching(Report):
    """An absorbing matching with its per-edge absorption index.

    absorb_index maps each M*-edge to the tracked triples it can absorb
    (triples over the vertices left outside V(M*)).  success is False
    when the greedy construction stopped with undercovered triples.
    """

    SCHEMA = "hypermatch.absorbing/1"

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


def _tracked_triples(outside: list[int], stream) -> list:
    """The triples to track over `outside`: all of them, or 10^4 sampled when there are more.

    Samples are drawn from `stream`, a splitmix64 stream fresh from its seed.
    """
    pool = sorted(outside)
    size = len(pool)
    if math.comb(size, 3) <= _SAMPLE_TRIPLES:
        # the seeded sampling below would draw until it held every triple
        return list(combinations(pool, 3))
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
    return sorted(seen)


def _pair_links(H: Hypergraph3) -> dict[tuple[int, int], list[int]]:
    """For each pair {x, y} (x < y) that lies in an edge, the third vertices w of its edges."""
    links: dict[tuple[int, int], list[int]] = {}
    labels = iter(H.labels)
    for a, b, c in zip(labels, labels, labels):
        links.setdefault((a, b), []).append(c)
        links.setdefault((a, c), []).append(b)
        links.setdefault((b, c), []).append(a)
    return links


def _absorb_masks(H: Hypergraph3, links, triples) -> tuple[list[int], list[int]]:
    """masks[i]: the triples (bit k for triples[k]) that edge i absorbs; touch[v]: those holding v.

    The rule is the module docstring's, for T = (t0, t1, t2).  Per position
    j: posj[w] holds the triples with t_j = w; restj[u n + v] those whose
    two other vertices are u < v; Qj[z] ORs restj over the edges {z, u, v};
    Rj[x n + y] ORs posj over the third vertices of the pair's edges.
    One pass over the pairs, then 9 ANDs per edge.
    """
    n, inc = H.n, H.incidence
    pos0, pos1, pos2 = [0] * n, [0] * n, [0] * n
    rest0, rest1, rest2 = [0] * (n * n), [0] * (n * n), [0] * (n * n)
    is_edge = 0
    for k, (a, b, c) in enumerate(triples):
        bit = 1 << k
        pos0[a] |= bit
        pos1[b] |= bit
        pos2[c] |= bit
        rest0[b * n + c] |= bit
        rest1[a * n + c] |= bit
        rest2[a * n + b] |= bit
        # three distinct vertices form an edge iff their incidences meet
        if inc[a] & inc[b] & inc[c]:
            is_edge |= bit
    touch = [p0 | p1 | p2 for p0, p1, p2 in zip(pos0, pos1, pos2)]
    Q0, Q1, Q2 = [0] * n, [0] * n, [0] * n
    R0, R1, R2 = [0] * (n * n), [0] * (n * n), [0] * (n * n)
    for (u, v), ws in links.items():
        i = u * n + v
        for rest, Q in ((rest0, Q0), (rest1, Q1), (rest2, Q2)):
            if tm := rest[i]:
                for z in ws:
                    Q[z] |= tm
        r0 = r1 = r2 = 0
        for w in ws:
            r0 |= pos0[w]
            r1 |= pos1[w]
            r2 |= pos2[w]
        R0[i], R1[i], R2[i] = r0, r1, r2
    masks = []
    labels = iter(H.labels)
    for a, b, c in zip(labels, labels, labels):
        ab, ac, bc = a * n + b, a * n + c, b * n + c
        acc = is_edge | R0[ab] & Q0[c] | R1[ab] & Q1[c] | R2[ab] & Q2[c]
        acc |= R0[ac] & Q0[b] | R1[ac] & Q1[b] | R2[ac] & Q2[b]
        acc |= R0[bc] & Q0[a] | R1[bc] & Q1[a] | R2[bc] & Q2[a]
        masks.append(acc & ~(touch[a] | touch[b] | touch[c]))
    return masks, touch


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
    one edge is always allowed.  A gamma that is not positive and finite,
    or whose cap or gamma^6 n overflows a float, raises ValueError.  Each
    round adds the edge disjoint from V(M*) that absorbs the most tracked
    triples still below t absorbers (lowest edge index on ties).  Reaching
    the cap with undercovered triples sets success=False (a result, not an
    exception).  The degree hypothesis delta1 >= (1/2 + 2 gamma) C(n,2) is
    checked and logged, not enforced.
    """
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    if t < 1:
        raise ValueError("redundancy t must be at least 1")
    n = H.n
    try:
        cap, gamma6_capacity = math.floor(gamma**3 * n / 3), math.floor(gamma**6 * n)
    except OverflowError:
        raise ValueError(f"gamma {gamma} overflows the size cap for n = {n}") from None
    if not contract:
        cap = max(1, cap)
    hyp = H.m > 0 and H.min_degree(1) >= (0.5 + 2 * gamma) * math.comb(n, 2)
    links = _pair_links(H)

    chosen: list[int] = []  # edge indices
    covered = 0
    free = (1 << H.m) - 1  # the edges disjoint from V(M*)
    indexed = False  # triples holds every triple over the last round's outside
    while True:
        outside = [v for v in range(n) if not covered >> v & 1]
        verification = "exhaustive" if len(outside) <= _EXHAUSTIVE_LIMIT else "sampled"
        if indexed:
            # this round's triples are the index's that miss (a, b, c), the edge just added
            tracked &= ~(touch[a] | touch[b] | touch[c])
        else:
            triples = _tracked_triples(outside, splitmix64_stream(seed))
            masks = touch = None  # a sampled round's masks go before the next build
            masks, touch = _absorb_masks(H, links, triples)
            tracked = (1 << len(triples)) - 1
            indexed = len(triples) == math.comb(len(outside), 3)
        ge = _coverage_levels([masks[i] for i in chosen], max(t, len(chosen)))
        lacking = tracked & ~ge[t]
        if not lacking or len(chosen) >= cap:
            break
        best_i, best_gain = None, 0
        for i in _bits(free):
            gain = (masks[i] & lacking).bit_count()
            if gain > best_gain:
                best_gain, best_i = gain, i
        if best_i is None:
            break
        chosen.append(best_i)
        a, b, c = H.labels[3 * best_i : 3 * best_i + 3]
        covered |= 1 << a | 1 << b | 1 << c
        free &= ~(H.incidence[a] | H.incidence[b] | H.incidence[c])

    min_cvg = sum(1 for level in ge[1:] if not tracked & ~level) if tracked else t
    lacking_n = lacking.bit_count()
    edges = [H.labels[3 * i : 3 * i + 3] for i in chosen]
    return AbsorbingMatching(
        edges=tuple(edges),
        gamma=gamma,
        t=t,
        success=lacking_n == 0,  # the loop stops at the cap, so contract mode always keeps it
        absorb_index={e: tuple(triples[k] for k in _bits(masks[i] & tracked)) for i, e in zip(chosen, edges)},
        verification=verification,
        min_coverage=min_cvg,
        uncovered_triples=lacking_n,
        capacity=3 * len(chosen),
        gamma6_capacity=gamma6_capacity,
        delta1_hypothesis=hyp,
        detail=None if lacking_n == 0 else f"{lacking_n} tracked triples below redundancy {t}",
    )


def absorb_leftover(H: Hypergraph3, A: AbsorbingMatching, Vp) -> Matching | None:
    """Fold a leftover vertex set into the absorbing matching.

    Partitions Vp into triples and assigns each to a distinct absorbing
    edge; every assigned edge e is replaced by the 2-matching on e ∪ T.
    The result covers exactly V(M*) ∪ Vp.  Returns None when no
    assignment exists or Vp exceeds the declared capacity; a vertex of
    Vp outside 0..n-1 raises ValueError either way.

    Depth first over vertex masks: each new triple holds the lowest
    unplaced leftover vertex, its other two in lexicographic order.  Each
    partial partition gets its first injective assignment, triple by
    triple over the edges of A in order; with none, no completion has
    one, and the branch ends.  The first partition that fits wins.
    """
    Vp = sorted(set(Vp))
    if len(Vp) % 3 != 0:
        raise ValueError("leftover set must have size divisible by 3")
    rest = sum(1 << H._check_vertex(v) for v in Vp)  # before the capacity test, which returns None
    star = Matching(H, A.edges)  # an edge of A that is not an edge of H raises ValueError
    if star.covered.intersection(Vp):
        raise ValueError("leftover set must be disjoint from the absorbing matching")
    if not Vp:
        return star
    if len(Vp) > A.capacity:
        return None
    emasks = [sum(1 << v for v in e) for e in star.edges]
    absorbers: dict[int, list] = {}  # triple mask -> its (edge index, split) pairs

    def fit(part, k=0, used=0):
        """The first assignment of part[k:] to edges outside `used`, as {edge index: split}."""
        if k == len(part):
            return {}
        if (T := part[k]) not in absorbers:
            absorbers[T] = [(i, s) for i, em in enumerate(emasks) if (s := _split2(H, em | T))]
        for i, split in absorbers[T]:
            if not used >> i & 1 and (tail := fit(part, k + 1, used | 1 << i)) is not None:
                return {i: split, **tail}
        return None

    def search(part, rest):
        got = fit(part)
        if got is None or not rest:
            return got
        low = rest & -rest
        for a, b in combinations(_bits(rest ^ low), 2):
            T = low | 1 << a | 1 << b
            if (got := search(part + (T,), rest ^ T)) is not None:
                return got
        return None

    got = search((), rest)
    if got is None:
        return None
    out = [e for i, e in enumerate(star.edges) if i not in got]
    out.extend(tuple(_bits(m)) for split in got.values() for m in split)
    return Matching(H, sorted(out))


def perfect_via_absorbing(
    H: Hypergraph3,
    gamma: float = 0.8,
    cfg: AugmentConfig | None = None,
    seed: int = 0,
) -> SolveReport:
    """Absorb, match the rest, fold the leftover: a perfect matching or the failing phase.

    Phases: find_absorbing on H (redundancy t = 2); the augmenting solver
    on H - V(M*); absorb_leftover on whatever stayed uncovered.  An M*
    that falls short of its redundancy is used all the same: the fold is
    exact, so the pipeline fails only in the augment or leftover phase
    that cannot go on.  The report's detail names the phase that failed,
    if any, and its nodes are the B&B nodes of the augment phase's probes.
    """
    n = H.n
    if n % 3 != 0:
        return SolveReport(0, (), False, 0, "phase absorbing: n not divisible by 3")
    A = find_absorbing(H, gamma, seed=seed)
    star_vertices = sorted(v for e in A.edges for v in e)
    sub, new_to_old = H.remove_vertices(star_vertices)
    rep, _ = _augment_solve(sub, sub.n // 3, cfg or AugmentConfig())
    outer = [tuple(sorted(new_to_old[v] for v in e)) for e in rep.edges]
    covered = {v for e in outer for v in e} | set(star_vertices)
    leftover = [v for v in range(n) if v not in covered]
    if len(leftover) > A.capacity:
        failed = f"phase augment: leftover {len(leftover)} exceeds capacity {A.capacity}"
    elif (folded := absorb_leftover(H, A, leftover)) is None:
        failed = "phase leftover: no assignment of leftover triples to absorbing edges"
    else:
        matching = Matching(H, sorted(outer + list(folded.edges)))
        perfect = len(matching.covered) == n
        detail = "perfect matching" if perfect else "phase leftover: cover incomplete"
        return SolveReport(matching.size, matching.edges, perfect, rep.nodes, detail)
    edges = tuple(sorted(outer + list(A.edges)))
    return SolveReport(len(edges), edges, False, rep.nodes, failed)
