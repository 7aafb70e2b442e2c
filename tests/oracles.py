"""Independent brute-force oracles used by the tests.

These deliberately avoid the package's search code: matchings are found
by raw combination enumeration, pattern perfect matchings by the 3x3
permanent, closeness by listing every triple of the cut-family model,
hypergraph views by the original per-edge constructor.  They are slow and
obviously correct, which is the point.
"""

from itertools import combinations, permutations
from types import SimpleNamespace


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


def naive_hypergraph(n: int, edges) -> SimpleNamespace:
    """The views of Hypergraph3(n, edges), built by the original constructor.

    Canonicalises every triple, dedups through a set, sorts, then ORs one
    incidence bit at a time.  Raises ValueError with Hypergraph3's messages.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
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
        n=int(n),
        edges=out,
        edge_set=frozenset(out),
        edge_masks=tuple((1 << a) | (1 << b) | (1 << c) for a, b, c in out),
        incidence=tuple(inc),
    )


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
    body = nums[2:]
    if len(body) != 3 * m:
        raise ValueError(f"expected {3 * m} vertex tokens for {m} edges, got {len(body)}")
    return naive_hypergraph(n, [tuple(body[3 * i : 3 * i + 3]) for i in range(m)])
