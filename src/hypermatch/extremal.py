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
  edges, M4 rebalances with one V-W-W edge per M3 edge, and M5 finishes
  with good_case_matching on the residual.  A stage that cannot meet
  its obligation produces a stall report naming the stage, never an
  exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .augment import AugmentConfig, solve as _augment_solve
from .core import Edge, Hypergraph3, Matching, Partition
from .links import PatternKind, classify, link_of_pair

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
class ClosenessReport:
    """How close H is to the cut family over a given partition."""

    n: int
    d: int
    W: tuple[int, ...]
    deficiency: int
    epsilon: float
    alpha: float
    badness: tuple[int, ...]
    bad_vertices: tuple[int, ...]

    def is_good(self, v: int) -> bool:
        return v not in set(self.bad_vertices)

    def to_json_dict(self) -> dict:
        return {
            "schema": "hypermatch.closeness/1",
            "n": self.n,
            "d": self.d,
            "W": list(self.W),
            "deficiency": self.deficiency,
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "badness": list(self.badness),
            "bad_vertices": list(self.bad_vertices),
        }


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


def deficiency(H: Hypergraph3, P: Partition) -> int:
    """Number of model edges over (V, W) absent from H."""
    or_w, or_v = _class_ors(H, P.W)
    return _model_size(H.n, len(P.W)) - (or_w & or_v).bit_count()


def classify_goodness(H: Hypergraph3, P: Partition, alpha: float) -> ClosenessReport:
    """Per-vertex badness and good/bad flags at threshold alpha * n^2."""
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


def _bottom_votes(H: Hypergraph3, sample_cap: int = 10) -> list[int]:
    """Vote for each matching edge's degree-3 link vertex; see find_partition."""
    rep, _ = _augment_solve(H, H.n // 3 if H.n >= 3 else 0, AugmentConfig(k_max=2))
    M = rep.edges
    uncovered = [v for v in range(H.n) if all(v not in e for e in M)][:sample_cap]
    votes: dict[int, int] = {}
    for i, E in enumerate(M):
        for j, F in enumerate(M):
            if i == j:
                continue
            for v in uncovered:
                cls = classify(link_of_pair(H, v, E, F).pattern())
                if cls.kind is PatternKind.B113:
                    base_row = cls.base[0]
                    x = tuple(sorted(E))[base_row]
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
    if not 0 <= d <= H.n // 3:
        raise ValueError("need 0 <= d <= n/3")
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
        cand.extend(v for v in by_degree if v not in set(cand))
        W = set(cand[:d])
    elif seed == "degree":
        W = set(by_degree[:d])
    else:
        raise ValueError("seed must be 'degree' or 'bottom'")

    inc = H.incidence
    model = _model_size(H.n, d)
    cur = deficiency(H, Partition(H.n, W, d))
    improved = True
    while improved and cur > 0:
        improved = False
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
        if best_swap is not None:
            w, v = best_swap
            W = (W - {w}) | {v}
            cur = best_val
            improved = True
    return classify_goodness(H, Partition(H.n, W, d), alpha)


# --- good case --------------------------------------------------------------


def _good_pair_rematch(H, e1, e2, v1, v2, w, Wset):
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
    if all(H.has_edge(t) for t in need):
        return [
            tuple(sorted((v1, a1, w2))),
            tuple(sorted((v2, w1, a2))),
            tuple(sorted((w, b1, b2))),
        ]
    return None


def good_case_matching(
    H: Hypergraph3, P: Partition, d: int, alpha: float = 0.05
) -> Matching | None:
    """Build a d-matching out of VVW edges only; None on stall.

    Intended for the regime where every vertex is good; out-of-regime
    calls may stall, which is a result rather than an error.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    Wset = P.W
    Wall = sorted(Wset)
    Vall = list(P.V)
    edges: list[Edge] = []
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
                    repl = _good_pair_rematch(H, edges[i], edges[j], v1, v2, w, Wset)
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


# --- staged construction ----------------------------------------------------


@dataclass
class StageLog:
    """Sizes and edges of the five stages, plus stall information."""

    alpha: float
    theta: float
    c: int = 0
    m2: int = 0
    m3: int = 0
    stages: dict[str, list[Edge]] = field(default_factory=dict)
    bde_check: dict | None = None
    stalled_stage: str | None = None
    detail: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema": "hypermatch.stages/1",
            "alpha": self.alpha,
            "theta": self.theta,
            "c": self.c,
            "m2": self.m2,
            "m3": self.m3,
            "stages": {k: [list(e) for e in v] for k, v in self.stages.items()},
            "bde_check": self.bde_check,
            "stalled_stage": self.stalled_stage,
            "detail": self.detail,
        }


def _cover_each_with_own_edge(H, targets, allowed, covered):
    """Backtracking: one edge per target vertex, all inside `allowed`, disjoint."""
    targets = sorted(targets)
    allowed = set(allowed)
    picked: list[Edge] = []
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


def staged_matching(
    H: Hypergraph3,
    P: Partition,
    d: int,
    alpha: float = 0.05,
    theta: float = 0.01,
) -> tuple[Matching | None, StageLog]:
    """Five-stage d-matching construction tolerating bad vertices.

    Returns (matching, log) on success and (None, log) on stall, with
    the failing stage and obligation named in the log.
    """
    log = StageLog(alpha=alpha, theta=theta)
    report = classify_goodness(H, P, alpha)
    bad = set(report.bad_vertices)
    Wset = set(P.W)
    Vset = set(P.V)
    w_bad = sorted(bad & Wset)
    c = len(w_bad)
    log.c = c

    v1_set = Vset | set(w_bad)
    covered: set[int] = set()

    # stage 1: one edge per bad W-vertex, inside V ∪ W_bad
    a = len(v1_set)
    _, meets_outside = _class_ors(H, v1_set)
    inside = ((1 << H.m) - 1) & ~meets_outside
    bde_lhs = min(((H.incidence[v] & inside).bit_count() for v in v1_set), default=0)
    bde_rhs = math.comb(a - 1, 2) - math.comb(a - c, 2) if a >= 1 and a >= c else 0
    log.bde_check = {"delta1_inside_V1": bde_lhs, "bound": bde_rhs, "holds": bde_lhs > bde_rhs}
    m1: list[Edge] = []
    if c:
        got = _cover_each_with_own_edge(H, w_bad, v1_set, covered)
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
    m2_edges: list[Edge] = []
    leftover_bad: list[int] = []
    thr = theta * H.n * H.n
    for v in v2_bad:
        pairs = sum(
            1
            for vp in v2
            if vp != v and vp not in covered
            for w in w1
            if w not in covered and H.has_edge((v, vp, w))
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
    m3_edges: list[Edge] = []
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
    m4_edges: list[Edge] = []
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
    m5 = good_case_matching(sub, P5, target5, alpha)
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
