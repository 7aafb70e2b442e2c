"""Independent brute-force oracles used by the tests.

These deliberately avoid the package's search code: matchings are found
by raw combination enumeration, pattern perfect matchings by the 3x3
permanent, closeness by listing every triple of the cut-family model,
hypergraph views by the original per-edge constructor, incidence also by
the packed-row loop that preceded the bit-plane builder, the
canonical-body test of the reader by its six conditions on edge tuples,
degree profiles by the table of every pair's codegree, .h3 text by the
original line-by-line writer, random instances by one splitmix64 step
per candidate triple, perturbed instances by a partial Fisher-Yates over
the edge list, edge types by counting W-endpoints, the good-case and staged matchers
by their original nested loops over triple lookups, the greedy start by
its pass over every edge, the move search by its original loop over
small uncovered sets U', the threshold scan by the old down-set walk,
by an independent-set count over the disjointness graph and by the
count in lexicographic order, pattern relabelings bit by bit, the Fact 1
classes grouped by canonical form, the exact branch and bound by its original form,
with a fresh greedy cover at every node, and by its form with one stack
frame and one edge mask per child, the absorbing construction by its
original form, with fresh absorb masks in every round, its absorb masks
also by the pass over vertex-pair lists that preceded the block-packed
builder, and the leftover
fold by its original enumeration of every partition with a public
absorbs() test per (edge, triple) pair.  They are slow and obviously
correct, which is the point.
"""

import math
import random
import time
from collections.abc import Callable
from itertools import chain, combinations, count, cycle, permutations, repeat, tee
from operator import lt
from types import SimpleNamespace

from hypermatch.absorbing import (
    _EXHAUSTIVE_LIMIT,
    _SAMPLE_TRIPLES,
    AbsorbingMatching,
    _bits,
    _coverage_levels,
    _pair_links,
    _split2,
    absorbs,
)
from hypermatch.augment import AugmentConfig, Move, _subsets
from hypermatch.constructions import splitmix64_stream
from hypermatch.core import Hypergraph3, Matching, Partition, threshold
from hypermatch.exact import SolveBudget, SolveReport, max_matching_in_subset
from hypermatch.extremal import StageLog, classify_goodness
from hypermatch.links import PatternClass, PatternKind, _col_degrees, _find_base, _row_degrees


def _edge_masks(H) -> list[int]:
    """One vertex mask per edge of H (bit v set iff v is on the edge), from H.edges."""
    return [(1 << a) | (1 << b) | (1 << c) for a, b, c in H.edges]


def naive_max_matching(H) -> int:
    """Largest k such that some k edges are pairwise disjoint (combinations scan)."""
    masks = _edge_masks(H)
    for k in range(H.n // 3, 0, -1):
        for combo in combinations(masks, k):
            total = 0
            ok = True
            for m in combo:
                if total & m:
                    ok = False
                    break
                total |= m
            if ok:
                return k
    return 0


def naive_has_k_matching(H, k: int) -> bool:
    if k == 0:
        return True
    for combo in combinations(_edge_masks(H), k):
        total = 0
        ok = True
        for m in combo:
            if total & m:
                ok = False
                break
            total |= m
        if ok:
            return True
    return False


def permanent3(mask: int) -> int:
    """Permanent of the 3x3 biadjacency matrix encoded row-major in 9 bits."""
    total = 0
    for perm in permutations(range(3)):
        total += (
            (mask >> (3 * 0 + perm[0]) & 1)
            * (mask >> (3 * 1 + perm[1]) & 1)
            * (mask >> (3 * 2 + perm[2]) & 1)
        )
    return total


def pairing_has_pm_n6(H) -> bool:
    """Perfect matching on 6 vertices by direct check of the 10 triple pairings."""
    assert H.n == 6
    vs = list(range(6))
    for two in combinations(vs[1:], 2):
        t1 = tuple(sorted((vs[0],) + two))
        t2 = tuple(sorted(set(vs) - set(t1)))
        if t1 in H.edge_set and t2 in H.edge_set:
            return True
    return False


def _model_edges(n: int, W):
    """Edges of the cut-family model over (V, W): one or two W-endpoints."""
    Ws = sorted(W)
    Vs = [v for v in range(n) if v not in W]
    for a, b in combinations(Vs, 2):
        for w in Ws:
            yield tuple(sorted((a, b, w)))
    for v in Vs:
        for w1, w2 in combinations(Ws, 2):
            yield tuple(sorted((v, w1, w2)))


def model_deficiency(H, W) -> int:
    """Model edges over (V, W) that H lacks, by enumerating the model."""
    return sum(1 for e in _model_edges(H.n, frozenset(W)) if e not in H.edge_set)


def model_badness(H, W) -> tuple[int, ...]:
    """Per-vertex count of model edges over (V, W) that H lacks."""
    bad = [0] * H.n
    for e in _model_edges(H.n, frozenset(W)):
        if e not in H.edge_set:
            for v in e:
                bad[v] += 1
    return tuple(bad)


def percover_search(H, active: int, budget: SolveBudget) -> SolveReport:
    """The exact B&B before children shared their parent's cover: one fresh greedy cover per node."""
    t0 = time.perf_counter()
    inc, edges, edge_masks = H.incidence, H.edges, _edge_masks(H)
    node_limit, time_limit, target = budget.node_limit, budget.time_limit_ms, budget.target
    inside = outside = 0
    for v, vinc in enumerate(inc):
        if active >> v & 1:
            inside |= vinc
        else:
            outside |= vinc
    nodes = best_size = 0
    best = None
    optimal, detail = True, None
    # frame: (available edges, vertices that may still lie on one, depth, chosen chain)
    stack = [(inside & ~outside, active, 0, None)]
    while stack:
        avail, free, depth, chosen = stack.pop()
        nodes += 1
        if nodes > node_limit:
            optimal, detail = False, "node budget exhausted"
            break
        if time_limit is not None and nodes % 256 == 0 and (time.perf_counter() - t0) * 1000.0 > time_limit:
            optimal, detail = False, "time budget exhausted"
            break
        if depth > best_size:
            best_size, best = depth, chosen
            if target is not None and depth >= target:
                detail = "target reached"
                break
        slack = best_size - depth
        # the counting bound cannot exceed |free| // 3: skip the degree pass
        if not avail or free.bit_count() // 3 <= slack:
            continue

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
        if len(live) // 3 <= slack or _cover_at_most(avail, live, inc, slack):
            continue

        stack.append((avail & ~inc[pivot], live_mask & ~(1 << pivot), depth, chosen))
        branch = avail & inc[pivot]
        while branch:
            i = branch.bit_length() - 1
            branch ^= 1 << i
            a, b, c = edges[i]
            stack.append(
                (avail & ~(inc[a] | inc[b] | inc[c]), live_mask & ~edge_masks[i], depth + 1, (edges[i], chosen))
            )

    chain = []
    while best is not None:
        edge, best = best
        chain.append(edge)
    return SolveReport(
        size=best_size,
        edges=tuple(reversed(chain)),
        optimal=optimal,
        nodes=nodes,
        detail=detail,
    )


def _cover_at_most(avail: int, live: list[int], inc, limit: int) -> bool:
    """True iff the greedy vertex cover of the available edges has at most limit vertices.

    Greedy picks the vertex of maximum remaining degree, lowest index on
    ties, and stops as soon as it would exceed limit.
    """
    count = 0
    while avail:
        if count == limit:
            return False
        best_deg = 0
        keep = []
        for v in live:
            deg = (avail & inc[v]).bit_count()
            if deg:
                keep.append(v)
                if deg > best_deg:
                    pick, best_deg = v, deg
        avail &= ~inc[pick]
        live = keep
        count += 1
    return True


def childframe_search(H, avail: int, free: int, budget: SolveBudget, t0: float, nodes: int = 0, found: int = 0):
    """The exact B&B before siblings were taken from one frame: every child of an
    expanded node gets its own stack frame and edge mask, and is counted when popped."""
    inc, edges = H.incidence, H.edges
    node_limit, time_limit = budget.node_limit, budget.time_limit_ms
    target = None if budget.target is None else budget.target - found
    best_size = 0
    best = None
    optimal, detail = True, None
    # frame: (available edges, vertices that may still lie on one, depth, chosen chain,
    #         the parent's greedy cover state, vertices the branch took from the parent)
    stack = [(avail, free, 0, None, None, 0)]
    while stack:
        avail, free, depth, chosen, shared, gone = stack.pop()
        nodes += 1
        if nodes > node_limit:
            optimal, detail = False, "node budget exhausted"
            break
        if time_limit is not None and nodes % 256 == 0 and (time.perf_counter() - t0) * 1000.0 > time_limit:
            optimal, detail = False, "time budget exhausted"
            break
        if depth > best_size:
            best_size, best = depth, chosen
            if target is not None and depth >= target:
                detail = "target reached"
                break
        slack = best_size - depth
        if not avail or free.bit_count() // 3 <= slack:
            continue
        if shared is not None:
            if shared[0] and shared[3] < slack + 3:
                _resumable_cover(shared, inc, slack + 3)
            if not shared[0] and (shared[2] & ~gone).bit_count() <= slack:
                continue

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
        if len(live) // 3 <= slack or _resumable_cover(state, inc, slack):
            continue

        gone = 1 << pivot
        stack.append((avail & ~inc[pivot], live_mask & ~gone, depth, chosen, state, gone))
        branch = avail & inc[pivot]
        while branch:
            i = branch.bit_length() - 1
            branch ^= 1 << i
            a, b, c = edges[i]
            gone = 1 << a | 1 << b | 1 << c
            stack.append(
                (avail & ~(inc[a] | inc[b] | inc[c]), live_mask & ~gone, depth + 1, (edges[i], chosen), state, gone)
            )

    chain = []
    while best is not None:
        edge, best = best
        chain.append(edge)
    return SolveReport(
        size=best_size,
        edges=tuple(reversed(chain)),
        optimal=optimal,
        nodes=nodes,
        detail=detail,
    )


def _resumable_cover(state: list, inc, limit: int) -> bool:
    """Extend the greedy cover in state = [uncovered edges, candidates, cover mask, size] up to limit vertices.

    True iff it is complete.  Picks as _cover_at_most does, so a later call
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


def naive_threshold_scan(n: int, d: int) -> tuple[int, int]:
    """Every edge mask on n vertices against every d-matching of K_n^(3).

    Returns (masks without a d-matching, largest delta1 among them): the
    full 2^C(n,3) scan that `verify thresholds` replaced by a down-set walk.
    """
    triples = list(combinations(range(n), 3))
    incident = [0] * n
    for i, tr in enumerate(triples):
        for v in tr:
            incident[v] |= 1 << i
    dsets = []
    for idxs in combinations(range(len(triples)), d):
        used: set[int] = set()
        good = True
        for i in idxs:
            if used & set(triples[i]):
                good = False
                break
            used.update(triples[i])
        if good:
            dsets.append(sum(1 << i for i in idxs))
    none_count = 0
    max_without = -1
    for mask in range(1 << len(triples)):
        if any(mask & ds == ds for ds in dsets):
            continue
        none_count += 1
        delta = min((mask & incident[v]).bit_count() for v in range(n))
        if delta > max_without:
            max_without = delta
    return none_count, max_without


def walk_threshold_scan(n: int, d: int) -> tuple[int, int]:
    """The down-set walk that `verify thresholds` used before it counted.

    Visits every hypergraph on n <= 7 vertices without a d-matching once
    (d <= 2), from a stack of (next triple, chosen, forbidden) masks.
    Returns (hypergraphs without a d-matching, largest delta1 among them).
    """
    K = Hypergraph3(n, combinations(range(n), 3))
    inc = K.incidence
    full = (1 << K.m) - 1
    disjoint = [full & ~(inc[a] | inc[b] | inc[c]) for a, b, c in K.edges]
    none_count = 0
    max_without = -1
    stack = [(0, 0, full if d == 1 else 0)]
    while stack:
        start, chosen, forbidden = stack.pop()
        none_count += 1
        max_without = max(max_without, min((chosen & mask).bit_count() for mask in inc))
        for j in range(start, K.m):
            if not forbidden >> j & 1:
                stack.append((j + 1, chosen | 1 << j, forbidden | disjoint[j]))
    return none_count, max_without


def lexorder_census(n: int, d: int) -> dict:
    """The `verify thresholds` report as the count in lexicographic order made it.

    The decision tree of `hypermatch.thresholds`, with `count` branching on
    the lowest open triple in lexicographic order, as `grow` still does.
    """
    K = Hypergraph3(n, combinations(range(n), 3))
    inc = K.incidence
    full = (1 << K.m) - 1
    disjoint = [full & ~(inc[a] | inc[b] | inc[c]) for a, b, c in combinations(range(n), 3)]
    root = 0 if d == 1 else full
    memo = {0: 1}
    known = memo.get

    def count(open_: int) -> int:
        low = open_ & -open_
        rest = open_ ^ low
        take = rest & ~disjoint[low.bit_length() - 1]
        memo[open_] = got = (known(rest) or count(rest)) + (known(take) or count(take))
        return got

    best = -1

    def grow(chosen: int, open_: int) -> None:
        nonlocal best
        bound = min(((chosen | open_) & mask).bit_count() for mask in inc)
        if bound <= best:
            return
        if not open_:
            best = bound
            return
        low = open_ & -open_
        rest = open_ ^ low
        grow(chosen | low, rest & ~disjoint[low.bit_length() - 1])
        grow(chosen, rest)

    grow(0, root)
    return {
        "schema": "hypermatch.thresholds/1",
        "n": n,
        "d": d,
        "total_hypergraphs": 1 << K.m,
        "without_d_matching": known(root) or count(root),
        "max_delta1_without_d_matching": best,
        "empirical_forcing_min_degree": best + 1,
        "threshold_formula": threshold(n, d),
    }


def intersecting_family_count(n: int, seed: int = 0) -> int:
    """Families of triples on n vertices with no two disjoint, as independent sets.

    The graph has the C(n,3) triples as vertices, in a seeded shuffled
    order, and joins two triples iff they are disjoint.  A vertex set splits
    into its connected components, whose counts multiply; a connected one
    branches on its vertex of largest degree (first in the shuffled order):
    leave it out, or take it and drop its neighbours.  Memoised on frozenset.
    """
    triples = list(combinations(range(n), 3))
    random.Random(seed).shuffle(triples)
    order = {t: i for i, t in enumerate(triples)}
    adj = {t: frozenset(u for u in triples if not set(t) & set(u)) for t in triples}
    memo: dict[frozenset, int] = {}

    def components(S):
        left = set(S)
        while left:
            todo = [left.pop()]
            comp = set(todo)
            while todo:
                for u in adj[todo.pop()] & left:
                    left.discard(u)
                    comp.add(u)
                    todo.append(u)
            yield frozenset(comp)

    def count(S: frozenset) -> int:
        if not S:
            return 1
        got = memo.get(S)
        if got is None:
            parts = list(components(S))
            if len(parts) > 1:
                got = math.prod(count(p) for p in parts)
            else:
                v = max(S, key=lambda t: (len(adj[t] & S), -order[t]))
                rest = S - {v}
                got = count(rest) + count(rest - adj[v])
            memo[S] = got
        return got

    return count(frozenset(triples))


_PERMS = tuple(permutations(range(3)))


def naive_pattern_has_pm(mask: int) -> bool:
    """The original `links.pattern_has_pm`: some permutation hits 3 set bits."""
    return any(all(mask >> (3 * i + s[i]) & 1 for i in range(3)) for s in _PERMS)


def _relabel(mask: int, rows, cols) -> int:
    out = 0
    for i in range(3):
        for j in range(3):
            if mask >> (3 * i + j) & 1:
                out |= 1 << (3 * rows[i] + cols[j])
    return out


def naive_canonical_form(mask: int) -> int:
    """The original `links.canonical_form`: relabel bit by bit 36 times, take the minimum."""
    return min(_relabel(mask, r, c) for r in _PERMS for c in _PERMS)


def canonform_classification() -> dict:
    """The `links` class table as grouping by canonical form made it, keys in its order.

    Masks go through 0..511: a perfect matching (bit-by-bit test) or fewer
    than 5 edges is classified at once; a PM-free mask of 5 or 6 edges joins
    the group of its isomorphism-class canonical form, the smaller of the
    canonical forms of the mask and of its transpose.  Then b033, then each
    5-edge group in order of its first mask.
    """
    def canon_iso(mask):
        transpose = 0
        for i in range(3):
            for j in range(3):
                if mask >> (3 * i + j) & 1:
                    transpose |= 1 << (3 * j + i)
        return min(naive_canonical_form(mask), naive_canonical_form(transpose))

    table = {}
    groups = {5: {}, 6: {}}
    for mask in range(512):
        e = mask.bit_count()
        if naive_pattern_has_pm(mask):
            table[mask] = PatternClass(PatternKind.HAS_PM)
        elif e >= 5:
            groups[e].setdefault(canon_iso(mask), []).append(mask)
        else:
            table[mask] = PatternClass(PatternKind.DEFICIENT)
    (b033,) = groups[6].values()
    for mask in b033:
        table[mask] = PatternClass(PatternKind.B033)
    for masks in groups[5].values():
        b113 = sorted(_row_degrees(masks[0])) == sorted(_col_degrees(masks[0])) == [1, 1, 3]
        for mask in masks:
            table[mask] = PatternClass(PatternKind.B113, _find_base(mask)) if b113 else PatternClass(PatternKind.B023)
    return table


def naive_hypergraph(n: int, edges) -> SimpleNamespace:
    """The views of Hypergraph3(n, edges), built by the original constructor.

    Canonicalises every triple, dedups through a set, sorts, then ORs one
    incidence bit at a time.  Raises ValueError with Hypergraph3's messages.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    n = int(n)
    canon = set()
    for edge in edges:
        t = tuple(sorted(int(v) for v in edge))
        if len(t) != 3 or len(set(t)) != 3:
            raise ValueError(f"edge {edge!r} must have exactly 3 distinct vertices")
        if t[0] < 0 or t[2] >= n:
            raise ValueError(f"edge {edge!r} has a vertex outside 0..{n - 1}")
        canon.add(t)
    out = tuple(sorted(canon))
    inc = [0] * n
    for i, (a, b, c) in enumerate(out):
        bit = 1 << i
        inc[a] |= bit
        inc[b] |= bit
        inc[c] |= bit
    return SimpleNamespace(
        n=n,
        edges=out,
        edge_set=frozenset(out),
        incidence=tuple(inc),
    )


def packed_row_incidence(n: int, edges) -> tuple[int, ...]:
    """The incidence of canonical edges by the packed-row loop of the earlier builder.

    Edge 8j + k sets bit k of byte j in a little-endian bit row of each of
    its three vertices; each row is converted to an int once at the end.
    """
    edges = tuple(edges)
    rows = [bytearray((len(edges) + 7) >> 3) for _ in range(n)]
    bits = (1, 2, 4, 8, 16, 32, 64, 128)
    for (a, b, c), j, bit in zip(edges, chain.from_iterable(map(repeat, count(), repeat(8))), cycle(bits)):
        rows[a][j] |= bit
        rows[b][j] |= bit
        rows[c][j] |= bit
    return tuple(int.from_bytes(row, "little") for row in rows)


def pairtable_degree_profile(H) -> SimpleNamespace:
    """Degrees and the codegree of each of the C(n, 2) pairs, counted edge by edge, with their minima.

    The pair table the degree profile was once built from: delta2 is the
    minimum over all of it, with no shortcut, and None when n = 1.
    """
    degrees = [0] * H.n
    codegrees = dict.fromkeys(combinations(range(H.n), 2), 0)
    for e in H.edges:
        for v in e:
            degrees[v] += 1
        for pair in combinations(e, 2):
            codegrees[pair] += 1
    return SimpleNamespace(
        degrees=tuple(degrees),
        codegrees=codegrees,
        delta1=min(degrees),
        delta2=min(codegrees.values()) if codegrees else None,
    )


def naive_to_h3(H) -> str:
    """The original .h3 writer: one f-string per line, joined by newlines."""
    lines = [f"{H.n} {H.m}"]
    lines.extend(f"{a} {b} {c}" for a, b, c in H.edges)
    return "\n".join(lines) + "\n"


def naive_random_triples(n: int, p: float, seed: int) -> Hypergraph3:
    """The original generator loop: one splitmix64_stream step per candidate triple."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    cut = int(p * 2**64)
    rng = splitmix64_stream(seed)
    return Hypergraph3(n, [e for e in combinations(range(n), 3) if next(rng) < cut])


def perturb_remove(H: Hypergraph3, k: int, seed: int) -> Hypergraph3:
    """Remove k uniformly chosen edges (partial Fisher-Yates on the edge list)."""
    if not 0 <= k <= H.m:
        raise ValueError(f"k must be in 0..{H.m}")
    idx = list(range(H.m))
    rng = splitmix64_stream(seed)
    for j in range(k):
        r = j + next(rng) % (H.m - j)
        idx[j], idx[r] = idx[r], idx[j]
    dropped = set(idx[:k])
    kept = (H.labels[3 * i : 3 * i + 3] for i in range(H.m) if i not in dropped)
    return Hypergraph3._from_labels(H.n, tuple(chain.from_iterable(kept)))


def edge_type(edge, partition: Partition) -> str:
    """Type tag of a triple against a partition: VVV, VVW, VWW or WWW."""
    k = sum(1 for v in edge if v in partition.W)
    return ("VVV", "VVW", "VWW", "WWW")[k]


def naive_parse_h3(text: str) -> SimpleNamespace:
    """The original .h3 reader: per-line comment stripping, then naive_hypergraph."""
    tokens: list[str] = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    if len(tokens) < 2:
        raise ValueError("missing 'n m' header")
    try:
        nums = [int(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"non-integer token in .h3 input: {exc}") from None
    n, m = nums[0], nums[1]
    if m < 0:
        raise ValueError(f"negative edge count {m} in .h3 header")
    body = nums[2:]
    if len(body) != 3 * m:
        raise ValueError(f"expected {3 * m} vertex tokens for {m} edges, got {len(body)}")
    return naive_hypergraph(n, [tuple(body[3 * i : 3 * i + 3]) for i in range(m)])


def tuple_canonical(n: int, body: list[int]) -> bool:
    """The earlier canonical-body test of parse_h3: six conditions on columns and edge tuples.

    body lists the 3m labels of a .h3 body in file order; it is canonical
    when it is non-empty, each triple strictly increases, its labels lie in
    0..n-1 and the triples strictly increase lexicographically.
    """
    A, B, C = body[0::3], body[1::3], body[2::3]
    edges = tuple(zip(A, B, C))
    return bool(
        edges
        and all(map(lt, A, B))
        and all(map(lt, B, C))
        and min(A) >= 0
        and max(C) < n
        and all(map(lt, edges, edges[1:]))
    )


# --- good-case and staged matchers -------------------------------------------


def _naive_good_pair_rematch(H, e1, e2, v1, v2, w, Wset):
    """If (e1, e2) is good for (v1, v2, w), return the replacing 3-matching."""
    a1, b1 = (x for x in e1 if x not in Wset)
    (w1,) = (x for x in e1 if x in Wset)
    a2, b2 = (x for x in e2 if x not in Wset)
    (w2,) = (x for x in e2 if x in Wset)
    need = []
    for x in (v1, v2):
        need.extend((x, w1, c) for c in (a2, b2))
        need.extend((x, c, w2) for c in (a1, b1))
    need.extend((w, c1, c2) for c1 in (a1, b1) for c2 in (a2, b2))
    if all(tuple(sorted(t)) in H.edge_set for t in need):
        return [
            tuple(sorted((v1, a1, w2))),
            tuple(sorted((v2, w1, a2))),
            tuple(sorted((w, b1, b2))),
        ]
    return None


def naive_good_case_matching(H, P, d: int):
    """extremal.good_case_matching by nested combinations loops and triple lookups."""
    if d < 0:
        raise ValueError("d must be non-negative")
    Wset = P.W
    Wall = sorted(Wset)
    Vall = list(P.V)
    edges = []
    covered: set[int] = set()
    while len(edges) < d:
        vfree = [v for v in Vall if v not in covered]
        wfree = [w for w in Wall if w not in covered]
        placed = False
        # direct edge on uncovered vertices
        for w in wfree:
            for v1, v2 in combinations(vfree, 2):
                t = tuple(sorted((v1, v2, w)))
                if t in H.edge_set:
                    edges.append(t)
                    covered.update(t)
                    placed = True
                    break
            if placed:
                break
        if placed:
            continue
        # good-pair swap: trade e1, e2 for three VVW edges
        for w in wfree:
            for v1, v2 in combinations(vfree, 2):
                for i, j in combinations(range(len(edges)), 2):
                    repl = _naive_good_pair_rematch(H, edges[i], edges[j], v1, v2, w, Wset)
                    if repl is not None:
                        for k in sorted((i, j), reverse=True):
                            covered.difference_update(edges[k])
                            del edges[k]
                        edges.extend(repl)
                        for t in repl:
                            covered.update(t)
                        placed = True
                        break
                if placed:
                    break
            if placed:
                break
        if not placed:
            return None
    return Matching(H, sorted(edges))




def _naive_cover_each_with_own_edge(H, targets, allowed, covered):
    """Backtracking: one edge per target vertex, all inside `allowed`, disjoint."""
    targets = sorted(targets)
    allowed = set(allowed)
    picked = []
    used: set[int] = set(covered)

    def rec(i):
        if i == len(targets):
            return True
        t = targets[i]
        if t in used:
            return rec(i + 1)
        idx = H.incidence[t]
        while idx:
            e = H.edges[(idx & -idx).bit_length() - 1]
            idx &= idx - 1
            if all(v in allowed for v in e) and not used & set(e):
                picked.append(e)
                used.update(e)
                if rec(i + 1):
                    return True
                used.difference_update(e)
                picked.pop()
        return False

    return picked if rec(0) else None


def naive_staged_matching(H, P, d: int, alpha: float = 0.05, theta: float = 0.01):
    """extremal.staged_matching by recursion, Python sets and triple lookups."""
    log = StageLog(alpha=alpha, theta=theta)
    report = classify_goodness(H, P, alpha)
    bad = set(report.bad_vertices)
    Wset = set(P.W)
    Vset = set(P.V)
    w_bad = sorted(bad & Wset)
    c = len(w_bad)
    log.c = c

    v1_set = Vset | set(w_bad)
    covered = set()

    # stage 1: one edge per bad W-vertex, inside V ∪ W_bad; the degree bound
    # is logged only when there is a bad W-vertex (with c = 0 it is negative)
    m1 = []
    if c:
        a = len(v1_set)
        inside = [e for e in H.edges if all(x in v1_set for x in e)]
        bde_lhs = min((sum(v in e for e in inside) for v in v1_set), default=0)
        bde_rhs = math.comb(a - 1, 2) - math.comb(a - c, 2) if a >= 1 and a >= c else 0
        log.bde_check = {"delta1_inside_V1": bde_lhs, "bound": bde_rhs, "holds": bde_lhs > bde_rhs}
        got = _naive_cover_each_with_own_edge(H, w_bad, v1_set, covered)
        if got is None:
            log.stalled_stage = "M1"
            log.detail = f"cannot cover bad W-vertices {w_bad} inside V ∪ W_bad"
            return None, log
        m1 = got
        for e in m1:
            covered.update(e)
    log.stages["M1"] = m1

    w1 = [w for w in sorted(Wset) if w not in bad and w not in covered]
    v2 = [v for v in sorted(v1_set) if v not in covered]
    v2_bad = [v for v in v2 if v in bad]

    # stage 2: useful bad vertices get a V2-V2-W1 edge
    m2_edges = []
    leftover_bad = []
    thr = theta * H.n * H.n
    for v in v2_bad:
        if v in covered:
            continue
        pairs = sum(
            1
            for vp in v2
            if vp != v and vp not in covered
            for w in w1
            if w not in covered and tuple(sorted((v, vp, w))) in H.edge_set
        )
        placed = False
        if pairs >= thr:
            for vp in v2:
                if vp == v or vp in covered:
                    continue
                for w in w1:
                    if w in covered:
                        continue
                    t = tuple(sorted((v, vp, w)))
                    if t in H.edge_set:
                        m2_edges.append(t)
                        covered.update(t)
                        placed = True
                        break
                if placed:
                    break
        if not placed:
            leftover_bad.append(v)
    log.stages["M2"] = m2_edges
    log.m2 = len(m2_edges)

    # stage 3: bury the remaining bad vertices in edges inside V3
    v3 = [v for v in v2 if v not in covered]
    m3_edges = []
    for v in leftover_bad:
        if v in covered:
            continue
        placed = False
        for x, y in combinations([u for u in v3 if u not in covered and u != v], 2):
            t = tuple(sorted((v, x, y)))
            if t in H.edge_set:
                m3_edges.append(t)
                covered.update(t)
                placed = True
                break
        if not placed:
            log.stalled_stage = "M3"
            log.detail = f"no within-V edge available to cover bad vertex {v}"
            log.stages["M3"] = m3_edges
            return None, log
    log.stages["M3"] = m3_edges
    log.m3 = len(m3_edges)

    # stage 4: one V4-W2-W2 edge per M3 edge, rebalancing the classes
    w2 = [w for w in w1 if w not in covered]
    v4 = [v for v in v3 if v not in covered]
    m4_edges = []
    for _ in range(len(m3_edges)):
        placed = False
        for v in v4:
            if v in covered:
                continue
            for wa, wb in combinations([w for w in w2 if w not in covered], 2):
                t = tuple(sorted((v, wa, wb)))
                if t in H.edge_set:
                    m4_edges.append(t)
                    covered.update(t)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            log.stalled_stage = "M4"
            log.detail = "no V-W-W rebalancing edge available"
            log.stages["M4"] = m4_edges
            return None, log
    log.stages["M4"] = m4_edges

    # stage 5: good case on the residual
    w3 = [w for w in w2 if w not in covered]
    target5 = d - c - len(m2_edges) - 2 * len(m3_edges)
    if target5 < 0 or target5 > len(w3):
        log.stalled_stage = "M5"
        log.detail = f"residual target {target5} infeasible with {len(w3)} W-vertices left"
        return None, log
    sub, new_to_old = H.remove_vertices(sorted(covered))
    if 3 * len(w3) > sub.n:
        log.stalled_stage = "M5"
        log.detail = f"{len(w3)} W-vertices left exceed a third of the {sub.n} residual vertices"
        return None, log
    old_to_new = {v: i for i, v in enumerate(new_to_old)}
    P5 = Partition(sub.n, [old_to_new[w] for w in w3], len(w3))
    m5 = naive_good_case_matching(sub, P5, target5)
    if m5 is None:
        log.stalled_stage = "M5"
        log.detail = f"good-case matcher stalled before reaching {target5} edges"
        return None, log
    m5_edges = [tuple(sorted(new_to_old[v] for v in e)) for e in m5.edges]
    log.stages["M5"] = m5_edges

    total = m1 + m2_edges + m3_edges + m4_edges + m5_edges
    matching = Matching(H, sorted(total))
    if matching.size != d:
        log.stalled_stage = "M5"
        log.detail = f"assembled {matching.size} edges, wanted {d}"
        return None, log
    return matching, log


def naive_greedy_matching(H: Hypergraph3, seed: int | None = None) -> Matching:
    """The original greedy start: one pass over every edge (lexicographic, or shuffled by seed).

    The shuffled pass lives only here: tests that want a maximal matching
    other than the lexicographic one take it from this oracle.
    """
    order = list(range(H.m))
    if seed is not None:
        rng = splitmix64_stream(seed)
        for j in range(len(order) - 1):
            r = j + next(rng) % (len(order) - j)
            order[j], order[r] = order[r], order[j]
    edge_masks = _edge_masks(H)
    covered = 0
    picked = []
    for i in order:
        mask = edge_masks[i]
        if not mask & covered:
            covered |= mask
            picked.append(H.edges[i])
    return Matching(H, sorted(picked))


def naive_augment_once(
    H: Hypergraph3,
    M: Matching,
    cfg: AugmentConfig | None = None,
    stats: dict | None = None,
    *,
    u_cap: int = 200,
) -> tuple[Matching, Move] | None:
    """The original move search: small uncovered sets U' probed one by one.

    Find and apply one size-increasing move, or return None if none is found.

    Enumerates k = 1..k_max, removed subsets S of the matching, uncovered
    subsets U' with 3 <= |U'| <= k+3, and asks the exact solver for a
    (k+1)-matching inside V(S) ∪ U'.  The first success (in deterministic
    enumeration order) is applied.  Each (k, S, |U'|) class tries every
    U' when there are at most u_cap of them, else u_cap samples drawn from
    the same seeded stream as the removed sets.  When a stats dict is
    given, its "nodes" entry grows by the B&B nodes of every probe.
    """
    cfg = cfg or AugmentConfig()
    uncovered = M.uncovered
    medges = M.edges
    rng = splitmix64_stream(cfg.seed)
    for k in range(1, min(cfg.k_max, len(medges)) + 1):
        for S in _subsets(medges, k, cfg.s_cap, rng):
            vs = [v for e in S for v in e]
            for usize in range(3, min(k + 3, len(uncovered)) + 1):
                for up in _subsets(uncovered, usize, u_cap, rng):
                    rep = max_matching_in_subset(
                        H,
                        vs + list(up),
                        SolveBudget(node_limit=cfg.probe_nodes, target=k + 1),
                    )
                    if stats is not None:
                        stats["nodes"] = stats.get("nodes", 0) + rep.nodes
                    if rep.size >= k + 1:
                        removed = set(S)
                        new_edges = [e for e in medges if e not in removed]
                        new_edges.extend(rep.edges)
                        move = Move(removed=tuple(S), added=rep.edges, uncovered_used=tuple(up))
                        return Matching(H, sorted(new_edges)), move
    return None


# --- absorbing construction ---------------------------------------------------
#
# The original greedy construction: every round chooses and indexes its own
# tracked triples, labels them, and builds the absorb mask of each edge it
# looks at afresh, through a lazy per-pair cache.


def _perround_tracked_triples(outside: list[int], stream) -> tuple[list, str]:
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


def _perround_absorb_masks(H: Hypergraph3, links, triples) -> Callable[[int], int]:
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


def perround_find_absorbing(
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

    edge_masks = _edge_masks(H)
    chosen: list[int] = []  # edge indices
    covered = 0
    # base is never advanced: each round reads a fresh copy from the start,
    # and tee draws every stream value only once
    base = splitmix64_stream(seed)
    while True:
        outside = [v for v in range(n) if not covered >> v & 1]
        base, stream = tee(base)
        triples, verification = _perround_tracked_triples(outside, stream)
        mask_of = _perround_absorb_masks(H, links, triples)
        masks = [mask_of(i) for i in chosen]
        ge = _coverage_levels(masks, max(t, len(chosen)))
        full = (1 << len(triples)) - 1
        lacking = full & ~ge[t]
        if not lacking or len(chosen) >= cap:
            break
        best_i = None
        best_gain = 0
        for i, em in enumerate(edge_masks):
            if em & covered:
                continue
            gain = (mask_of(i) & lacking).bit_count()
            if gain > best_gain:
                best_gain, best_i = gain, i
        if best_i is None:
            break
        chosen.append(best_i)
        covered |= edge_masks[best_i]

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


def pairlist_absorb_masks(H: Hypergraph3, links, triples) -> tuple[list[int], list[int]]:
    """masks[i]: the triples (bit k for triples[k]) that edge i absorbs; touch[v]: those holding v.

    The rule is that of hypermatch.absorbing, for T = (t0, t1, t2).  Per
    position j: posj[w] holds the triples with t_j = w; restj[u n + v] those whose
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


# --- leftover fold ----------------------------------------------------------------
#
# The original fold: a generator over every partition of the leftover into
# triples, each tried with a backtracking assignment that asks absorbs() about
# every (edge, triple) pair, and the winning splits found again afterwards.


def naive_absorb_leftover(H: Hypergraph3, A: AbsorbingMatching, Vp) -> Matching | None:
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
                out.extend(_naive_two_matching_on(H, e, T))
            return Matching(H, sorted(out))
    return None


def _naive_two_matching_on(H: Hypergraph3, e, T) -> list:
    pool = 0
    for v in (*e, *T):
        pool |= 1 << v
    split = _split2(H, pool)
    if split is None:
        raise AssertionError("absorbs() certified a split that does not exist")
    return [tuple(_bits(m)) for m in split]
