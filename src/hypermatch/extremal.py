"""Two-class closeness machinery and the constructive extremal matchers.

Against a partition (V, W) with |W| = d, the reference model is the
cut family: every triple with one or two W-endpoints.  The deficiency
of H is the number of model edges it is missing; per-vertex badness is
the number of missing model edges at that vertex, and a vertex is good
at level alpha when its badness is at most alpha * n^2.

Both are popcounts over the incidence bitsets.  With OR_W and OR_V the
ORs of H.incidence over W and over V, an edge is a model edge iff it
meets both classes, so the model edges present are OR_W & OR_V (that is,
m - #VVV - #WWW) and

    deficiency = d*C(n-d,2) + (n-d)*C(d,2) - popcount(OR_W & OR_V).

A W-vertex x lies on C(n-d,2) + (n-d)(d-1) model edges, present where
its edges also meet V; a V-vertex lies on (n-d-1)d + C(d,2), present
where its edges also meet W:

    badness(x) = C(n-d,2) + (n-d)(d-1) - popcount(inc[x] & OR_V)   (x in W)
    badness(x) = (n-d-1)d + C(d,2)     - popcount(inc[x] & OR_W)   (x in V)

and the badness sums to three times the deficiency.  A swap of w in W
with v in V gives OR_W' = OR_{W-w} | inc[v] and OR_V' = OR_{V-v} | inc[w],
so once the ORs that leave out one vertex are known (prefix and suffix
ORs, once per round), each candidate swap in find_partition costs a
constant number of big-int operations.

Two matchers live here:

* good_case_matching assumes every vertex is good and builds a
  d-matching out of type-VVW edges only, using direct edges on
  uncovered triples plus the 2-for-3 "good pair" swap: a pair of
  matching edges e1, e2 is good for (v1, v2, w) when all 12 VVW triples
  with one vertex from {v1, v2, w}, one from e1 and one from e2 are
  edges; then e1, e2 can be traded for 3 edges covering e1, e2 and the
  new triple.

* staged_matching handles bad vertices first, in five stages: M1 covers
  the bad W-vertices inside V ∪ W_bad, M2 covers "useful" bad vertices
  with V2-V2-W1 edges, M3 buries the remaining bad vertices in pure-V
  edges, M4 rebalances with one V-W-W edge per M3 edge, and M5 runs the
  good-case loop on the vertices still free, in H itself.  A stage that
  cannot meet its obligation produces a stall report naming the stage,
  never an exception.

Both matchers work on the same incidence bitsets: the covered vertices
are one vertex mask, and the edges still usable one edge mask that loses
inc[x] whenever x is covered.  The direct step, M2's partner walk, M3
and M4 all ask for the first centre, in order, with an edge whose other
two vertices lie in a pool; with the pool folded into the edge mask
that is one search, _first_edge, since edge indices follow the
lexicographic order of the sorted triples.  M1's backtracking runs on an explicit stack, so a
thousand bad W-vertices need no recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .augment import AugmentConfig, solve as _augment_solve
from .core import Edge, Hypergraph3, Matching, Partition, Report, _check_matching_size
from .links import PatternKind, classify, link_pattern

__all__ = [
    "ClosenessReport",
    "StageLog",
    "deficiency",
    "classify_goodness",
    "find_partition",
    "good_case_matching",
    "staged_matching",
]


@dataclass(frozen=True)
class ClosenessReport(Report):
    """How close H is to the cut family over a given partition."""

    SCHEMA = "hypermatch.closeness/1"

    n: int
    d: int
    W: tuple[int, ...]
    deficiency: int
    epsilon: float
    alpha: float
    badness: tuple[int, ...]
    bad_vertices: tuple[int, ...]


def _model_size(n: int, d: int) -> int:
    """Edges of the cut-family model with |W| = d: d*C(n-d,2) + (n-d)*C(d,2)."""
    return d * math.comb(n - d, 2) + (n - d) * math.comb(d, 2)


def _class_ors(H: Hypergraph3, W) -> tuple[int, int]:
    """(OR of H.incidence over W, OR over V): the edges meeting each class."""
    or_w = or_v = 0
    for x, inc in enumerate(H.incidence):
        if x in W:
            or_w |= inc
        else:
            or_v |= inc
    return or_w, or_v


def _or_all_but_one(masks: list[int]) -> list[int]:
    """out[i] is the OR of every mask except masks[i] (prefix and suffix ORs)."""
    suffix = [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    out = []
    prefix = 0
    for i, mask in enumerate(masks):
        out.append(prefix | suffix[i + 1])
        prefix |= mask
    return out


def _check_partition(H: Hypergraph3, P: Partition) -> None:
    if P.n != H.n:
        raise ValueError(f"partition is on {P.n} vertices, the hypergraph on {H.n}")


def deficiency(H: Hypergraph3, P: Partition) -> int:
    """Number of model edges over (V, W) absent from H."""
    _check_partition(H, P)
    or_w, or_v = _class_ors(H, P.W)
    return _model_size(H.n, len(P.W)) - (or_w & or_v).bit_count()


def _check_rate(name: str, value: float) -> None:
    # a NaN alpha or theta would make every comparison with its threshold false
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


def classify_goodness(H: Hypergraph3, P: Partition, alpha: float) -> ClosenessReport:
    """Per-vertex badness and good/bad flags at threshold alpha * n^2."""
    _check_rate("alpha", alpha)
    _check_partition(H, P)
    W = P.W
    d = len(W)
    nv = H.n - d
    or_w, or_v = _class_ors(H, W)
    w_model = math.comb(nv, 2) + nv * (d - 1)
    v_model = (nv - 1) * d + math.comb(d, 2)
    bad = [
        w_model - (inc & or_v).bit_count() if x in W else v_model - (inc & or_w).bit_count()
        for x, inc in enumerate(H.incidence)
    ]
    miss = sum(bad) // 3
    cut = alpha * H.n * H.n
    bad_vertices = tuple(v for v in range(H.n) if bad[v] > cut)
    return ClosenessReport(
        n=H.n,
        d=d,
        W=P.w_sorted(),
        deficiency=miss,
        epsilon=miss / H.n**3 if H.n else 0.0,
        alpha=alpha,
        badness=tuple(bad),
        bad_vertices=bad_vertices,
    )


_EXHAUSTIVE_CAP = 1_000_000
_VOTERS = 10  # uncovered vertices whose link patterns vote in _bottom_votes


def _bottom_votes(H: Hypergraph3) -> list[int]:
    """Vote for each matching edge's degree-3 link vertex; see find_partition."""
    rep, _ = _augment_solve(H, H.n // 3, AugmentConfig(k_max=2))
    M = rep.edges
    uncovered = Matching(H, M).uncovered[:_VOTERS]
    votes: dict[int, int] = {}
    for i, E in enumerate(M):
        for j, F in enumerate(M):
            if i == j:
                continue
            for v in uncovered:
                cls = classify(link_pattern(H, v, E, F))
                if cls.kind is PatternKind.B113:
                    x = E[cls.base[0]]  # matching edges are sorted triples
                    votes[x] = votes.get(x, 0) + 1
    return sorted(votes, key=lambda v: (-votes[v], v))


def find_partition(
    H: Hypergraph3,
    d: int,
    mode: str = "local",
    alpha: float = 0.05,
    seed: str = "degree",
) -> ClosenessReport:
    """Search for the partition of smallest deficiency with |W| = d.

    mode="exhaustive" scans all C(n, d) choices of W and is refused above
    1e6 of them; mode="local" seeds W and hill-climbs with single-vertex
    swaps until no swap lowers the deficiency.  seed="degree" starts from
    the d highest-degree vertices; seed="bottom" first lets the link
    patterns of uncovered vertices vote on each matching edge's special
    vertex (heuristic, no guarantee) and fills up by degree.
    """
    _check_rate("alpha", alpha)
    _check_matching_size(H.n, d)
    if seed not in ("degree", "bottom"):
        raise ValueError("seed must be 'degree' or 'bottom'")
    if mode == "exhaustive":
        if math.comb(H.n, d) > _EXHAUSTIVE_CAP:
            raise ValueError(
                f"C({H.n},{d}) exceeds the exhaustive-mode cap of {_EXHAUSTIVE_CAP}"
            )
        best_W = None
        best_def = None
        for W in combinations(range(H.n), d):
            dd = deficiency(H, Partition(H.n, W, d))
            if best_def is None or dd < best_def:
                best_W, best_def = W, dd
                if dd == 0:
                    break
        return classify_goodness(H, Partition(H.n, best_W, d), alpha)
    if mode != "local":
        raise ValueError("mode must be 'exhaustive' or 'local'")

    by_degree = sorted(range(H.n), key=lambda v: (-H.degree(v), v))
    if seed == "bottom":
        cand = _bottom_votes(H)
        voted = set(cand)
        cand.extend(v for v in by_degree if v not in voted)
        W = set(cand[:d])
    else:
        W = set(by_degree[:d])

    inc = H.incidence
    model = _model_size(H.n, d)
    cur = deficiency(H, Partition(H.n, W, d))
    while cur > 0:
        best_swap = None
        best_val = cur
        Ws = sorted(W)
        Vs = [v for v in range(H.n) if v not in W]
        or_v_but = _or_all_but_one([inc[v] for v in Vs])
        for w, or_w_but in zip(Ws, _or_all_but_one([inc[w] for w in Ws])):
            inc_w = inc[w]
            for v, or_v_but_v in zip(Vs, or_v_but):
                # deficiency of W - {w} + {v}
                val = model - ((or_w_but | inc[v]) & (or_v_but_v | inc_w)).bit_count()
                if val < best_val:
                    best_val, best_swap = val, (w, v)
        if best_swap is None:
            break
        w, v = best_swap
        W = (W - {w}) | {v}
        cur = best_val
    return classify_goodness(H, Partition(H.n, W, d), alpha)


# --- edge searches on incidence ---------------------------------------------


def _meets(H: Hypergraph3, X) -> tuple[int, int]:
    """(edges meeting X, edges meeting X at least twice), as edge masks."""
    once = twice = 0
    for x in X:
        twice |= once & H.incidence[x]
        once |= H.incidence[x]
    return once, twice


def _first_edge(H: Hypergraph3, centres, avail: int) -> int | None:
    """Lowest edge of `avail` through the first centre, in order, that has one.

    When `avail` holds the edges whose vertices other than the centre lie
    in a pool, this is the first centre with an edge into the pool and
    its lexicographically first pair there: edge indices follow the
    lexicographic order of the sorted triples, and two triples through
    one vertex compare as the pairs that remain.
    """
    for x in centres:
        hit = H.incidence[x] & avail
        if hit:
            return (hit & -hit).bit_length() - 1
    return None


# --- good case --------------------------------------------------------------


def _good_pair_swap(H: Hypergraph3, P: Partition, edges: list[Edge], cov: int):
    """The first good-pair trade, as (i, j, three replacing edges), or None.

    edges[i] = {a1, b1, w1} and edges[j] = {a2, b2, w2} are good for
    (v1, v2, w) when v1 and v2 each complete w1a2, w1b2, a1w2 and b1w2 to
    an edge and w completes a1a2, a1b2, b1a2 and b1b2.  The trade taken is
    the first in the order w, then v1 < v2, then i < j over the vertices
    outside `cov`: the smallest (w, v1, v2), ties left to the first (i, j).
    """
    inc, W = H.incidence, P.W
    vfree = [x for x in P.V if not cov >> x & 1]
    wfree = [x for x in P.w_sorted() if not cov >> x & 1]
    best = None
    for i, j in combinations(range(len(edges)), 2):
        a1, b1 = (x for x in edges[i] if x not in W)
        (w1,) = (x for x in edges[i] if x in W)
        a2, b2 = (x for x in edges[j] if x not in W)
        (w2,) = (x for x in edges[j] if x in W)
        links = (inc[w1] & inc[a2], inc[w1] & inc[b2], inc[a1] & inc[w2], inc[b1] & inc[w2])
        vs = [x for x in vfree if all(inc[x] & p for p in links)][:2]
        if len(vs) < 2:
            continue
        links = (inc[a1] & inc[a2], inc[a1] & inc[b2], inc[b1] & inc[a2], inc[b1] & inc[b2])
        w = next((x for x in wfree if all(inc[x] & p for p in links)), None)
        if w is not None and (best is None or (w, *vs) < best[0]):
            v1, v2 = vs
            repl = [tuple(sorted((v1, a1, w2))), tuple(sorted((v2, w1, a2))), tuple(sorted((w, b1, b2)))]
            best = ((w, v1, v2), i, j, repl)
    return None if best is None else best[1:]


def good_case_matching(H: Hypergraph3, P: Partition, d: int) -> Matching | None:
    """Build a d-matching out of VVW edges only; None on stall.

    Intended for the regime where every vertex is good; out-of-regime
    calls may stall, which is a result rather than an error.
    """
    _check_matching_size(H.n, d)
    _check_partition(H, P)
    _, twice_w = _meets(H, P.w_sorted())
    edges = _good_case(H, P, d, 0, (1 << H.m) - 1, twice_w)
    return None if edges is None else Matching(H, sorted(edges))


def _good_case(H: Hypergraph3, P: Partition, d: int, cov: int, live: int, twice_w: int) -> list[Edge] | None:
    """good_case_matching on H - cov, in the labels of H: its edges, or None on stall.

    `live` holds exactly the edges that miss the covered vertices `cov`, and
    `twice_w` the edges of H with two W-vertices or more.
    """
    inc = H.incidence
    W = P.w_sorted()
    edges: list[Edge] = []
    avail = live & ~twice_w  # edges with one W-vertex at most, none covered
    while len(edges) < d:
        # direct edge on uncovered vertices
        j = _first_edge(H, W, avail)
        if j is not None:
            new = [H.labels[3 * j : 3 * j + 3]]
        else:
            # good-pair swap: trade e1, e2 for three VVW edges
            swap = _good_pair_swap(H, P, edges, cov)
            if swap is None:
                return None
            i, j, new = swap
            del edges[j], edges[i]
        edges.extend(new)
        for e in new:
            for x in e:
                cov |= 1 << x
                avail &= ~inc[x]
    return edges


# --- staged construction ----------------------------------------------------


@dataclass
class StageLog(Report):
    """Sizes and edges of the five stages, plus stall information.

    bde_check is None when there is no bad W-vertex (c = 0).
    """

    SCHEMA = "hypermatch.stages/1"

    alpha: float
    theta: float
    c: int = 0
    m2: int = 0
    m3: int = 0
    stages: dict[str, list[Edge]] = field(default_factory=dict)
    bde_check: dict | None = None
    stalled_stage: str | None = None
    detail: str | None = None


def _cover_each_with_own_edge(H: Hypergraph3, targets, allowed: int) -> list[int] | None:
    """Disjoint edges of `allowed`, one through each target no earlier one covers.

    Depth first over the targets in order, each target's edges in index
    order, backtracking on an explicit stack.  Returns the edge indices,
    or None when no such edges exist.
    """
    inc = H.incidence
    stack = []  # per chosen edge: (target index, its untried rivals, cov and live before it, edge)
    i, cov, live = 0, 0, allowed
    while True:
        while i < len(targets) and cov >> targets[i] & 1:
            i += 1
        if i == len(targets):
            return [j for *_, j in stack]
        untried = inc[targets[i]] & live
        while not untried:
            if not stack:
                return None
            i, untried, cov, live, _ = stack.pop()
        j = (untried & -untried).bit_length() - 1
        stack.append((i, untried & (untried - 1), cov, live, j))
        for x in H.labels[3 * j : 3 * j + 3]:
            cov |= 1 << x
            live &= ~inc[x]
        i += 1


def staged_matching(
    H: Hypergraph3,
    P: Partition,
    d: int,
    alpha: float = 0.05,
    theta: float = 0.01,
) -> tuple[Matching | None, StageLog]:
    """Five-stage d-matching construction tolerating bad vertices.

    Returns (matching, log) on success and (None, log) on stall, with
    the failing stage and obligation named in the log.  A d outside
    0..n/3, a partition on another vertex count, and a negative or
    non-finite alpha or theta raise ValueError.
    """
    _check_matching_size(H.n, d)
    _check_rate("theta", theta)
    log = StageLog(alpha=alpha, theta=theta)
    report = classify_goodness(H, P, alpha)
    bad = set(report.bad_vertices)
    inc = H.incidence
    W, V = P.w_sorted(), P.V
    w_bad = [w for w in W if w in bad]
    c = log.c = len(w_bad)
    v1_set = set(V) | set(w_bad)
    full = (1 << H.m) - 1
    cov, live = 0, full  # covered vertices, and the edges that miss them all

    def take(j, stage):
        nonlocal cov, live
        edge = H.labels[3 * j : 3 * j + 3]
        stage.append(edge)
        for x in edge:
            cov |= 1 << x
            live &= ~inc[x]

    def stall(stage, detail):
        log.stalled_stage, log.detail = stage, detail
        return None, log

    # stage 1: one edge per bad W-vertex, inside V ∪ W_bad, and the
    # Bollobás–Daykin–Erdős bound C(a-1,2) - C(a-c,2) on degrees inside it;
    # with c = 0 that bound is -(a-1), which checks nothing: bde_check stays None
    picked = []
    if c:
        a = len(v1_set)
        _, meets_outside = _class_ors(H, v1_set)
        inside = full & ~meets_outside
        bde_lhs = min((inc[v] & inside).bit_count() for v in v1_set)
        bde_rhs = math.comb(a - 1, 2) - math.comb(a - c, 2)
        log.bde_check = {"delta1_inside_V1": bde_lhs, "bound": bde_rhs, "holds": bde_lhs > bde_rhs}
        picked = _cover_each_with_own_edge(H, w_bad, inside)
        if picked is None:
            return stall("M1", f"cannot cover bad W-vertices {w_bad} inside V ∪ W_bad")
    m1 = log.stages["M1"] = []
    for j in picked:
        take(j, m1)
    # every bad W-vertex is now covered, so the free part of V ∪ W_bad is
    # the free part of V
    meets_w, twice_w = _meets(H, W)

    # stage 2: useful bad vertices get a V2-V2-W1 edge
    thr = theta * H.n * H.n
    m2 = log.stages["M2"] = []
    leftover_bad = []
    one_w = meets_w & ~twice_w
    for v in V:
        if v not in bad or cov >> v & 1:
            continue
        vvw = inc[v] & one_w & live
        if vvw and vvw.bit_count() >= thr:
            take(_first_edge(H, (vp for vp in V if vp != v), vvw), m2)
        else:
            leftover_bad.append(v)
    log.m2 = len(m2)

    # stage 3: bury the remaining bad vertices in edges inside V3
    m3 = log.stages["M3"] = []
    for v in leftover_bad:
        if cov >> v & 1:
            continue
        j = _first_edge(H, (v,), live & ~meets_w)
        if j is None:
            return stall("M3", f"no within-V edge available to cover bad vertex {v}")
        take(j, m3)
    log.m3 = len(m3)

    # stage 4: one V4-W2-W2 edge per M3 edge, rebalancing the classes
    m4 = log.stages["M4"] = []
    for _ in m3:
        j = _first_edge(H, V, twice_w & live)
        if j is None:
            return stall("M4", "no V-W-W rebalancing edge available")
        take(j, m4)

    # stage 5: good case on the uncovered vertices
    w3 = [w for w in W if not cov >> w & 1]
    target5 = d - c - len(m2) - 2 * len(m3)
    if target5 < 0 or target5 > len(w3):
        return stall("M5", f"residual target {target5} infeasible with {len(w3)} W-vertices left")
    residual = H.n - cov.bit_count()
    if 3 * len(w3) > residual:
        return stall("M5", f"{len(w3)} W-vertices left exceed a third of the {residual} residual vertices")
    m5 = _good_case(H, P, target5, cov, live, twice_w)
    if m5 is None:
        return stall("M5", f"good-case matcher stalled before reaching {target5} edges")
    m5_edges = log.stages["M5"] = sorted(m5)

    matching = Matching(H, sorted(m1 + m2 + m3 + m4 + m5_edges))
    if matching.size != d:
        return stall("M5", f"assembled {matching.size} edges, wanted {d}")
    return matching, log
