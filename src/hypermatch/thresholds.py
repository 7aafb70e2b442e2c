"""The threshold census: hypergraphs on n <= 8 vertices without a d-matching.

`census(n, d)` counts the hypergraphs on n vertices that have no
d-matching, out of all 2^C(n,3), and finds the largest minimum degree
delta1 among them, to set beside threshold(n, d) = C(n-1,2) - C(n-d,2).
n <= 8 means d <= 2.

These hypergraphs form a down-set, searched on a decision tree over the
C(n,3) triples.  A node is (chosen, open): `open` holds the triples not
yet decided that meet every chosen triple.  The node's next open triple
j is either left out (open - j) or taken (open - j - disjoint[j]).  For
d = 1 the root has no open triple, which leaves the empty hypergraph;
for d = 2 every triple is open and the families are the intersecting
ones, that is the independent sets of the graph that joins two triples
when they are disjoint.

The families below a node are `chosen` plus an intersecting subset of
`open`, each reached once.  Every open triple already meets every chosen
one, so their number depends on `open` alone, and `count` is memoised on
that one mask.  How many masks it meets depends on the branching order:
`count` takes the triples in maximum cardinality search order on the
disjointness graph (Tarjan & Yannakakis 1984), each next triple the one
disjoint from the most triples already placed, lowest index first on
ties.  Its masks are re-indexed to that order, so the open triple of
lowest bit is the next one.

delta1 only grows as triples are added, so the minimum over v of
|(chosen | open) & inc[v]| bounds delta1 of every family below a node.
`grow`, in lexicographic order, cuts a node only when that bound is at
most the best delta1 found so far, which no family below it can beat; so
the maximum it returns is exact.  Relabelling the vertices keeps a family
intersecting and keeps its delta1, so for d = 2 `grow` skips families
that have a relabelled copy it searches.  Rule 1: a nonempty family has
a copy holding triple 0 = {0,1,2}, so the search starts with triple 0
taken, the empty family (delta1 = 0) as the first best.  Rule 2: the
stabiliser of {0,1,2}, Sym{0,1,2} x Sym{3..n-1}, maps any triple meeting
{0,1,2} in two vertices to triple 1 = {0,1,3}; so the search then takes
{0,1,3}, or leaves out every such triple.  The memo and the best value
live in one call: a repeated call does all the work again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat
from operator import and_

from .core import Report, _check_matching_size, threshold

__all__ = ["ThresholdCensus", "census"]


@dataclass(frozen=True)
class ThresholdCensus(Report):
    """Hypergraphs on n vertices without a d-matching: their number and their largest delta1."""

    SCHEMA = "hypermatch.thresholds/1"

    n: int
    d: int
    total_hypergraphs: int
    without_d_matching: int
    max_delta1_without_d_matching: int
    empirical_forcing_min_degree: int
    threshold_formula: int


def _disjoint(n: int, triples) -> tuple[list[int], list[int]]:
    """(incidence, disjoint) of the complete 3-graph, bit j for triples[j]."""
    inc = [0] * n
    for j, (a, b, c) in enumerate(triples):
        bit = 1 << j
        inc[a] |= bit
        inc[b] |= bit
        inc[c] |= bit
    full = (1 << len(triples)) - 1
    return inc, [full & ~(inc[a] | inc[b] | inc[c]) for a, b, c in triples]


def _mcs_order(disjoint: list[int]) -> list[int]:
    """Maximum cardinality search on the disjointness graph, lowest index on ties."""
    weight = [0] * len(disjoint)
    unplaced = list(range(len(disjoint)))
    order = []
    while unplaced:
        # max keeps the first maximum, and unplaced is in increasing index
        j = max(unplaced, key=weight.__getitem__)
        unplaced.remove(j)
        order.append(j)
        nbrs = disjoint[j]
        while nbrs:
            low = nbrs & -nbrs
            weight[low.bit_length() - 1] += 1
            nbrs ^= low
    return order


def census(n: int, d: int) -> ThresholdCensus:
    """Count the hypergraphs on n <= 8 vertices without a d-matching, and their largest delta1."""
    if n > 8:
        raise ValueError("the down-set count is limited to n <= 8")
    _check_matching_size(n, d, 1)
    triples = list(combinations(range(n), 3))
    inc, disjoint = _disjoint(n, triples)
    m = len(triples)
    memo = {0: 1}
    known = memo.get
    best = -1

    def grow(chosen: int, open_: int) -> None:
        nonlocal best
        bound = min(map(int.bit_count, map(and_, repeat(chosen | open_, n), inc)))
        if bound <= best:
            return
        if not open_:
            best = bound
            return
        low = open_ & -open_
        rest = open_ ^ low
        grow(chosen | low, rest & ~disjoint[low.bit_length() - 1])
        grow(chosen, rest)

    if d == 1:
        root = 0
        grow(0, root)
    else:
        root = (1 << m) - 1
        _, mcs_disjoint = _disjoint(n, [triples[j] for j in _mcs_order(disjoint)])

        def count(open_: int) -> int:
            # every count is at least 1, so `known(x) or count(x)` recurses only on a miss
            low = open_ & -open_
            rest = open_ ^ low
            take = rest & ~mcs_disjoint[low.bit_length() - 1]
            memo[open_] = got = (known(rest) or count(rest)) + (known(take) or count(take))
            return got

        count(root)
        # rules 1 and 2: take triple 0, then triple 1 or no triple meeting triple 0 in two vertices
        best = 0
        open_ = (root & ~disjoint[0]) ^ 1
        grow(3, (open_ & ~disjoint[1]) ^ 2)
        grow(1, open_ & ~(inc[0] & inc[1] | inc[0] & inc[2] | inc[1] & inc[2]))
    return ThresholdCensus(
        n=n,
        d=d,
        total_hypergraphs=1 << m,
        without_d_matching=memo[root],
        max_delta1_without_d_matching=best,
        empirical_forcing_min_degree=best + 1,
        threshold_formula=threshold(n, d),
    )
