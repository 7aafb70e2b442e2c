"""Independent brute-force oracles used by the tests.

These deliberately avoid the package's search code: matchings are found
by raw combination enumeration, pattern perfect matchings by the 3x3
permanent, closeness by listing every triple of the cut-family model.  They are slow and obviously correct, which is the point.
"""

from itertools import combinations, permutations


def naive_max_matching(H) -> int:
    """Largest k such that some k edges are pairwise disjoint (combinations scan)."""
    masks = H.edge_masks
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
    for combo in combinations(H.edge_masks, k):
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
