"""Hand-built instances on which a specific swap move is the only way up."""

from hypermatch.core import Hypergraph3, Matching


def one_for_two_fixture():
    """One matching edge, two replacement edges reaching through uncovered pairs.

    Each replacement edge pairs one vertex of the matched edge with two
    uncovered vertices, so removing the single matched edge frees a
    2-matching: a 1-for-2 trade using k+3 = 4 uncovered vertices.
    """
    H = Hypergraph3(7, [(0, 1, 2), (0, 3, 5), (1, 4, 6)])
    M = Matching(H, [(0, 1, 2)])
    return H, M


def two_for_three_fixture():
    """Two matching edges; three uncovered vertices each see a disjoint pair system.

    Every uncovered vertex x in {6,7,8} forms an edge with each of the
    pairs (0,3), (1,4), (2,5) across the two matching edges, so the two
    edges can be traded for three that also cover the uncovered triple.
    No single-edge move exists.
    """
    E, F = (0, 1, 2), (3, 4, 5)
    edges = [E, F]
    for x in (6, 7, 8):
        edges += [(x, 0, 3), (x, 1, 4), (x, 2, 5)]
    H = Hypergraph3(9, edges)
    M = Matching(H, [E, F])
    return H, M


def five_for_six_fixture():
    """Five matching edges traded for six, driven by a chained link structure.

    Six uncovered vertices 15..20 share an identical link along the chain
    of five matching edges; its six disjoint pairs (two bridging edges
    0-1, one each 1-2 and 2-3, two bridging 3-4) admit a 6-matching only
    once all five old edges are released, so no move with k < 5 exists.
    """
    base = [(3 * j, 3 * j + 1, 3 * j + 2) for j in range(5)]
    pairs = [(0, 3), (1, 4), (5, 6), (7, 9), (10, 12), (11, 13)]
    edges = list(base)
    for v in range(15, 21):
        edges += [(v, a, b) for a, b in pairs]
    H = Hypergraph3(21, edges)
    M = Matching(H, base)
    return H, M
