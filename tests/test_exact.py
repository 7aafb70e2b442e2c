"""Tests for the branch-and-bound matching oracle."""

import inspect
import math
import sys
import time
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypermatch import exact
from hypermatch.constructions import blocker_family, cut_family, extremal_star, random_triples, splitmix64_stream
from hypermatch.core import Hypergraph3, Matching
from hypermatch.exact import SolveBudget, SolveReport, has_d_matching, max_matching, max_matching_in_subset
from oracles import childframe_search, naive_has_k_matching, naive_max_matching, pairing_has_pm_n6, percover_search


def complete(n):
    return Hypergraph3(n, combinations(range(n), 3))


class TestMaxMatching:
    def test_empty(self):
        # no component: one search of one node, as before the split
        assert max_matching(Hypergraph3(7, [])) == SolveReport(size=0, edges=(), optimal=True, nodes=1)

    def test_complete_k9(self):
        rep = max_matching(complete(9))
        assert rep.size == 3 and rep.optimal

    def test_star9_certified(self):
        H, _ = extremal_star(9)
        rep = max_matching(H)
        assert rep.size == 2 and rep.optimal

    def test_matching_always_valid(self):
        for seed in range(10):
            H = random_triples(9, 0.4, seed)
            rep = max_matching(H, SolveBudget(node_limit=25))
            Matching(H, rep.edges)  # validates disjointness + membership

    def test_budget_exhaustion_is_report(self):
        H = complete(12)
        rep = max_matching(H, SolveBudget(node_limit=2))
        assert not rep.optimal
        assert rep.detail == "node budget exhausted"
        Matching(H, rep.edges)

    def test_determinism(self):
        H = random_triples(11, 0.5, 17)
        a = max_matching(H)
        b = max_matching(H)
        assert (a.size, a.edges, a.nodes, a.optimal) == (b.size, b.edges, b.nodes, b.optimal)

    def test_against_naive_oracle(self):
        for seed in range(60):
            n = 5 + seed % 5
            H = random_triples(n, 0.1 * (1 + seed % 9), seed)
            rep = max_matching(H)
            assert rep.optimal
            assert rep.size == naive_max_matching(H), f"seed={seed}"

    def test_monotone_under_edge_addition(self):
        for seed in range(12):
            H_small = random_triples(12, 0.2, seed)
            H_big = Hypergraph3(12, H_small.edges + random_triples(12, 0.2, seed + 100).edges)
            assert max_matching(H_small).size <= max_matching(H_big).size

    def test_perfect_matching_n6_vs_pairings(self):
        for seed in range(40):
            H = random_triples(6, 0.05 * (1 + seed % 18), seed)
            rep = max_matching(H)
            assert (rep.size == 2) == pairing_has_pm_n6(H)


class TestHasDMatching:
    def test_cut_family_yes(self):
        H, _ = cut_family(9, 3)
        status, rep = has_d_matching(H, 3)
        assert status == "yes"
        assert rep.size >= 3
        Matching(H, rep.edges)

    def test_star_no(self):
        H, _ = extremal_star(9)
        status, rep = has_d_matching(H, 3)
        assert status == "no" and rep.optimal

    def test_d_zero(self):
        status, _ = has_d_matching(Hypergraph3(4, []), 0)
        assert status == "yes"

    def test_negative_d_is_a_value_error(self):
        with pytest.raises(ValueError, match="d must be non-negative"):
            has_d_matching(Hypergraph3(4, []), -1)

    def test_unknown_on_tiny_budget(self):
        H, _ = extremal_star(12)
        status, _ = has_d_matching(H, 4, SolveBudget(node_limit=3))
        assert status == "unknown"


class TestSubsetSolve:
    def test_full_subset_equals_max(self):
        H = random_triples(10, 0.5, 3)
        assert max_matching_in_subset(H, range(10)).size == max_matching(H).size

    def test_single_edge_subset(self):
        H = complete(9)
        rep = max_matching_in_subset(H, [0, 1, 2])
        assert rep.size == 1 and rep.edges == ((0, 1, 2),)

    def test_six_vertex_absorption_check(self):
        H = complete(9)
        assert max_matching_in_subset(H, [0, 1, 2, 3, 4, 5]).size == 2
        Hs, P = extremal_star(9)
        # one blocker vertex among 6: two disjoint edges would need two
        e = next(e for e in Hs.edges if sum(v in P.W for v in e) == 1)
        T = [v for v in P.V if v not in e][:3]
        assert max_matching_in_subset(Hs, list(e) + T).size == 1

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            max_matching_in_subset(complete(6), [0, 9])


def test_budget_validation():
    with pytest.raises(ValueError):
        SolveBudget(node_limit=0)
    with pytest.raises(ValueError):
        SolveBudget(time_limit_ms=-1)
    with pytest.raises(ValueError, match="target must be non-negative"):
        SolveBudget(target=-1)
    # NaN fails every comparison, so a NaN budget would never stop a solve
    with pytest.raises(ValueError, match="time_limit_ms must be positive"):
        SolveBudget(time_limit_ms=math.nan)
    # nodes > nan is never true either
    with pytest.raises(ValueError, match="node_limit must be positive"):
        SolveBudget(node_limit=math.nan)
    assert SolveBudget(target=0).target == 0


# --- pinned regression table ---------------------------------------------------
#
# (size, nodes, optimal, detail) and the returned edges, recorded from the
# list-based solver that the bitset search replaced.  Any change to the
# pivot rule, the branch order, a bound or the budget checks shows up here.

PINNED = [
    (("random", 9, 0.2, 1), (2, 6, True, None),
     ((1, 2, 3), (0, 5, 7))),
    (("random", 9, 0.5, 2), (3, 23, True, None),
     ((0, 1, 6), (2, 3, 7), (4, 5, 8))),
    (("random", 9, 0.5, 3), (3, 22, True, None),
     ((0, 1, 2), (3, 4, 6), (5, 7, 8))),
    (("random", 12, 0.2, 1), (4, 23, True, None),
     ((0, 2, 8), (4, 5, 11), (1, 3, 7), (6, 9, 10))),
    (("random", 12, 0.5, 2), (4, 44, True, None),
     ((0, 1, 6), (2, 3, 8), (4, 5, 11), (7, 9, 10))),
    (("random", 12, 0.5, 3), (4, 49, True, None),
     ((0, 3, 8), (1, 2, 4), (5, 6, 10), (7, 9, 11))),
    (("random", 15, 0.2, 1), (5, 31, True, None),
     ((0, 6, 9), (1, 4, 5), (2, 3, 10), (8, 11, 13), (7, 12, 14))),
    (("random", 15, 0.5, 2), (5, 89, True, None),
     ((0, 1, 12), (2, 4, 7), (3, 6, 9), (5, 10, 11), (8, 13, 14))),
    (("random", 15, 0.5, 3), (5, 90, True, None),
     ((0, 3, 11), (1, 2, 13), (4, 5, 7), (6, 8, 9), (10, 12, 14))),
    (("random", 18, 0.2, 1), (6, 62, True, None),
     ((0, 6, 7), (1, 8, 11), (3, 4, 15), (2, 5, 13), (9, 12, 16), (10, 14, 17))),
    (("random", 18, 0.5, 2), (6, 143, True, None),
     ((0, 3, 14), (1, 5, 12), (2, 4, 8), (6, 7, 11), (9, 10, 16), (13, 15, 17))),
    (("random", 18, 0.5, 3), (6, 152, True, None),
     ((0, 3, 17), (1, 4, 13), (2, 5, 12), (6, 8, 16), (7, 9, 10), (11, 14, 15))),
    (("random", 21, 0.2, 1), (7, 96, True, None),
     ((0, 2, 9), (1, 13, 16), (3, 7, 14), (4, 10, 17), (8, 11, 15), (5, 6, 18), (12, 19, 20))),
    (("random", 21, 0.5, 2), (7, 232, True, None),
     ((0, 1, 10), (2, 4, 9), (3, 5, 11), (6, 7, 14), (8, 13, 15), (16, 17, 19), (12, 18, 20))),
    (("random", 21, 0.5, 3), (7, 255, True, None),
     ((0, 1, 2), (3, 8, 9), (4, 5, 7), (6, 11, 13), (10, 14, 16), (12, 15, 17), (18, 19, 20))),
    (("random", 24, 0.2, 1), (8, 131, True, None),
     ((0, 3, 12), (1, 14, 21), (4, 9, 16), (2, 19, 20), (5, 7, 13), (10, 11, 22), (6, 15, 23), (8, 17, 18))),
    (("random", 24, 0.5, 2), (8, 355, True, None),
     ((0, 1, 21), (2, 6, 10), (3, 8, 11), (4, 9, 23), (5, 7, 17), (12, 13, 18), (14, 15, 16), (19, 20, 22))),
    (("random", 24, 0.5, 3), (8, 361, True, None),
     ((0, 7, 9), (1, 2, 10), (3, 5, 15), (4, 8, 16), (6, 11, 23), (12, 14, 20), (13, 17, 22), (18, 19, 21))),
    # very sparse: these two see the greedy cover's lowest-index tie-break
    (("random", 17, 0.03, 23774), (4, 25, True, None),
     ((2, 9, 12), (0, 1, 8), (5, 10, 13), (7, 11, 14))),
    (("random", 24, 0.03, 7943), (8, 60, True, None),
     ((2, 18, 22), (5, 6, 21), (1, 3, 4), (10, 12, 16), (11, 15, 20), (0, 9, 19), (13, 17, 23), (7, 8, 14))),
    (("star", 9), (2, 20, True, None),
     ((0, 1, 7), (2, 3, 8))),
    (("star", 12), (3, 48, True, None),
     ((0, 1, 9), (2, 3, 10), (4, 5, 11))),
    (("star", 15), (4, 95, True, None),
     ((0, 1, 11), (2, 3, 12), (4, 5, 13), (6, 7, 14))),
    (("star", 18), (5, 166, True, None),
     ((0, 1, 13), (2, 3, 14), (4, 5, 15), (6, 7, 16), (8, 9, 17))),
    (("star", 21), (6, 266, True, None),
     ((0, 1, 15), (2, 3, 16), (4, 5, 17), (6, 7, 18), (8, 9, 19), (10, 11, 20))),
    (("star", 24), (7, 400, True, None),
     ((0, 1, 17), (2, 3, 18), (4, 5, 19), (6, 7, 20), (8, 9, 21), (10, 11, 22), (12, 13, 23))),
    (("blocker", 9, 3), (2, 20, True, None),
     ((0, 1, 7), (2, 3, 8))),
    (("blocker", 12, 4), (3, 48, True, None),
     ((0, 1, 9), (2, 3, 10), (4, 5, 11))),
    (("blocker", 15, 4), (3, 66, True, None),
     ((0, 1, 12), (2, 3, 13), (4, 5, 14))),
    (("blocker", 18, 5), (4, 125, True, None),
     ((0, 1, 14), (2, 3, 15), (4, 5, 16), (6, 7, 17))),
    (("blocker", 21, 6), (5, 211, True, None),
     ((0, 1, 16), (2, 3, 17), (4, 5, 18), (6, 7, 19), (8, 9, 20))),
    (("blocker", 24, 7), (6, 329, True, None),
     ((0, 1, 18), (2, 3, 19), (4, 5, 20), (6, 7, 21), (8, 9, 22), (10, 11, 23))),
    (("cut", 9, 3), (3, 4, True, "target reached"),
     ((0, 1, 6), (2, 3, 7), (4, 5, 8))),
    (("cut", 15, 5), (5, 6, True, "target reached"),
     ((0, 1, 10), (2, 3, 11), (4, 5, 12), (6, 7, 13), (8, 9, 14))),
    (("cut", 21, 7), (7, 8, True, "target reached"),
     ((0, 1, 14), (2, 3, 15), (4, 5, 16), (6, 7, 17), (8, 9, 18), (10, 11, 19), (12, 13, 20))),
    (("budget", 15, 0.5, 4, 40), (5, 41, False, "node budget exhausted"),
     ((0, 3, 7), (1, 4, 9), (2, 5, 12), (6, 8, 10), (11, 13, 14))),
    (("budget", 21, 0.3, 5, 60), (7, 61, False, "node budget exhausted"),
     ((0, 6, 7), (1, 2, 10), (3, 8, 14), (4, 5, 9), (11, 12, 17), (13, 15, 16), (18, 19, 20))),
    (("subset", 18, 0.5, 6, (0, 2, 3, 5, 7, 8, 11, 13, 16), 3), (3, 4, True, "target reached"),
     ((0, 2, 16), (3, 5, 11), (7, 8, 13))),
    (("subset", 24, 0.3, 7, tuple(range(0, 24, 2)), 4), (4, 5, True, "target reached"),
     ((0, 2, 20), (4, 6, 18), (10, 14, 22), (8, 12, 16))),
    (("subset", 21, 0.6, 8, tuple(range(3, 21)), 7), (6, 182, True, None),
     ((3, 4, 6), (5, 7, 17), (8, 9, 15), (10, 11, 13), (12, 14, 20), (16, 18, 19))),
]


def _solve_spec(spec):
    kind = spec[0]
    if kind == "random":
        return max_matching(random_triples(*spec[1:]))
    if kind == "star":
        return max_matching(extremal_star(spec[1])[0])
    if kind == "blocker":
        return max_matching(blocker_family(*spec[1:])[0])
    if kind == "cut":
        _, n, d = spec
        return max_matching(cut_family(n, d)[0], SolveBudget(target=d))
    if kind == "budget":
        _, n, p, seed, limit = spec
        return max_matching(random_triples(n, p, seed), SolveBudget(node_limit=limit))
    _, n, p, seed, subset, target = spec
    return max_matching_in_subset(random_triples(n, p, seed), subset, SolveBudget(target=target))


@pytest.mark.parametrize("spec,stats,edges", PINNED, ids=[str(row[0]) for row in PINNED])
def test_pinned_reports(spec, stats, edges):
    rep = _solve_spec(spec)
    assert (rep.size, rep.nodes, rep.optimal, rep.detail) == stats
    assert rep.edges == edges


def test_deep_disjoint_edges():
    # 1100 components of one edge each: root, edge child, pruned "unmatched" sibling
    k = 1100
    rep = max_matching(Hypergraph3(3 * k, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)]))
    assert (rep.size, rep.nodes, rep.optimal) == (k, 3 * k, True)
    assert rep.edges == tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(k))


def test_deep_connected_chain():
    # deeper than the default recursion limit: a connected chain whose pivot
    # always has one edge, so one dive of k nodes, then k "pivot unmatched"
    # siblings cut by the counting bound
    k = 1100
    links = [(3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(k - 1)]
    H = Hypergraph3(3 * k, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)] + links)
    assert len(exact._components(H)) == 1
    rep = max_matching(H)
    assert (rep.size, rep.nodes, rep.optimal) == (k, 2 * k + 1, True)


small_instances = st.tuples(
    st.integers(3, 12), st.sampled_from([0.05, 0.1, 0.2, 0.35, 0.5, 0.8]), st.integers(0, 2**32)
)


@settings(max_examples=60, deadline=None)
@given(small_instances)
def test_property_matches_naive(inst):
    H = random_triples(*inst)
    assert max_matching(H).size == naive_max_matching(H)


@settings(max_examples=60, deadline=None)
@given(small_instances, st.integers(0, 2**12 - 1))
def test_property_subset_matches_naive(inst, bits):
    H = random_triples(*inst)
    S = [v for v in range(H.n) if bits >> v & 1]
    sub, _ = H.remove_vertices([v for v in range(H.n) if not bits >> v & 1])
    assert max_matching_in_subset(H, S).size == naive_max_matching(sub)


# --- shared parent cover --------------------------------------------------------
#
# Children test the parent's greedy cover minus the vertices they took before
# building their own.  That only adds prunes of subtrees that cannot beat the
# best size, so against the per-node-cover oracle every unbudgeted report is
# equal up to a node count that can only fall, and a node budget can only
# reach a larger size.

cover_instances = st.tuples(
    st.integers(3, 15), st.sampled_from([0.03, 0.05, 0.1, 0.3, 0.6]), st.integers(0, 2**32)
)


def _both(inst, target, bits, node_limit=10_000_000):
    H = random_triples(*inst)
    budget = SolveBudget(node_limit=node_limit, target=target)
    if bits is None:
        # the unsplit search on every vertex, as percover_search runs it
        active = (1 << H.n) - 1
        new = exact._search(H, (1 << H.m) - 1, active, budget, time.perf_counter())
    else:
        active = bits & ((1 << H.n) - 1)
        new = max_matching_in_subset(H, [v for v in range(H.n) if active >> v & 1], budget)
    return new, percover_search(H, active, budget)


@settings(max_examples=150, deadline=None)
@given(cover_instances, st.none() | st.integers(0, 5), st.none() | st.integers(0, 2**15 - 1))
def test_property_shared_cover_keeps_every_report(inst, target, bits):
    new, old = _both(inst, target, bits)
    assert (new.size, new.edges, new.optimal, new.detail) == (old.size, old.edges, old.optimal, old.detail)
    assert new.nodes <= old.nodes


@settings(max_examples=150, deadline=None)
@given(
    cover_instances,
    st.none() | st.integers(0, 5),
    st.none() | st.integers(0, 2**15 - 1),
    st.integers(1, 60),
)
def test_property_shared_cover_under_node_budget(inst, target, bits, node_limit):
    new, old = _both(inst, target, bits, node_limit)
    assert new.size >= old.size
    Matching(random_triples(*inst), new.edges)


@pytest.mark.parametrize(
    "H,size,new_nodes,old_nodes",
    [
        # a child's shared-cover test prunes two nodes here
        (random_triples(11, 0.03, 278), 2, 5, 7),
        (extremal_star(24)[0], 7, 400, 400),
    ],
    ids=["random-11-0.03-278", "star-24"],
)
def test_shared_cover_pinned(H, size, new_nodes, old_nodes):
    new, old = max_matching(H), percover_search(H, (1 << H.n) - 1, SolveBudget())
    assert (new.size, new.nodes, new.optimal) == (size, new_nodes, True)
    assert (old.size, old.nodes, old.edges) == (size, old_nodes, new.edges)


def test_star_siblings_share_one_cover(monkeypatch):
    # one greedy cover per expanded node would be 388 calls; siblings share the parent's
    calls = []
    greedy = exact._greedy_cover
    monkeypatch.setattr(exact, "_greedy_cover", lambda *a: calls.append(1) or greedy(*a))
    assert max_matching(extremal_star(24)[0]).nodes == 400
    assert len(calls) <= 20


# --- connected components -------------------------------------------------------
#
# max_matching solves each component that has edges on its own, in order of
# lowest vertex, and sums.  The unsplit search (exact._search on every vertex)
# stays the reference: unbudgeted, both agree on size, optimal and detail, and
# on an input with one such component every field of the report is the same.


def _unsplit(H, budget=SolveBudget()):
    return exact._search(H, (1 << H.m) - 1, (1 << H.n) - 1, budget, time.perf_counter())


def _block_union(blocks, seed):
    """Disjoint union of random blocks, relabelled by a seeded permutation so that components interleave."""
    n = sum(nb for nb, _, _ in blocks)
    edges, base = [], 0
    for nb, p, s in blocks:
        edges += [tuple(base + v for v in e) for e in random_triples(nb, p, s).edges]
        base += nb
    rng = splitmix64_stream(seed)
    perm = list(range(n))
    for j in range(n - 1):
        r = j + next(rng) % (n - j)
        perm[j], perm[r] = perm[r], perm[j]
    return Hypergraph3(n, [tuple(perm[v] for v in e) for e in edges])


def _component_of(H):
    """Index in exact._components(H) of each edge, checking that the components partition H."""
    comps = exact._components(H)
    lows = [(free & -free).bit_length() for _, free in comps]
    assert lows == sorted(lows)
    owner = {}
    for c, (avail, free) in enumerate(comps):
        for i in range(H.m):
            if avail >> i & 1:
                assert i not in owner and all(free >> v & 1 for v in H.edges[i])
                owner[H.edges[i]] = c
    assert len(owner) == H.m
    return owner


union_instances = st.integers(2, 3).flatmap(
    lambda k: st.tuples(
        st.lists(
            st.tuples(st.integers(3, 12 // k), st.sampled_from([0.1, 0.2, 0.35, 0.5, 0.8]), st.integers(0, 2**32)),
            min_size=k,
            max_size=k,
        ),
        st.integers(0, 2**32),
    )
)


@settings(max_examples=100, deadline=None)
@given(union_instances)
def test_property_disjoint_union_matches_naive(inst):
    H = _block_union(*inst)
    owner = _component_of(H)
    rep = max_matching(H)
    assert rep.optimal and rep.size == naive_max_matching(H)
    ref = _unsplit(H)
    assert (rep.size, rep.optimal, rep.detail) == (ref.size, ref.optimal, ref.detail)
    Matching(H, rep.edges)
    order = [owner[e] for e in rep.edges]
    assert order == sorted(order)  # listed component by component
    for d in range(H.n // 3 + 1):
        status, drep = has_d_matching(H, d)
        assert status == ("yes" if naive_has_k_matching(H, d) else "no"), d
        Matching(H, drep.edges)
        if d:
            ref = _unsplit(H, SolveBudget(target=d))
            assert (drep.size, drep.optimal, drep.detail) == (ref.size, ref.optimal, ref.detail)


@settings(max_examples=100, deadline=None)
@given(union_instances, st.none() | st.integers(0, 4), st.integers(1, 40))
def test_property_disjoint_union_under_node_budget(inst, target, node_limit):
    H = _block_union(*inst)
    rep = max_matching(H, SolveBudget(node_limit=node_limit, target=target))
    assert rep.nodes <= node_limit + 1
    assert rep.optimal == (rep.detail != "node budget exhausted")
    Matching(H, rep.edges)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(3, 12),
    st.sampled_from([0.2, 0.35, 0.5, 0.8]),
    st.integers(0, 2**32),
    st.none() | st.integers(0, 4),
    st.none() | st.integers(1, 60),
)
def test_property_one_component_reports_as_unsplit(n, p, seed, target, node_limit):
    H = random_triples(n, p, seed)
    assume(len(exact._components(H)) == 1)
    budget = SolveBudget(target=target) if node_limit is None else SolveBudget(node_limit, target=target)
    assert max_matching(H, budget) == _unsplit(H, budget)


def test_target_zero_stops_at_the_first_edge_as_unsplit():
    H = _block_union([(6, 0.5, 1), (6, 0.5, 2)], 3)
    assert len(exact._components(H)) == 2
    rep, ref = max_matching(H, SolveBudget(target=0)), _unsplit(H, SolveBudget(target=0))
    assert (rep.size, rep.optimal, rep.detail) == (ref.size, ref.optimal, ref.detail) == (1, True, "target reached")


def test_unplanted_blocks_solve_component_by_component():
    # 16 blocks of random_triples(9, 0.12): unsplit, 6 blocks already take
    # 17,182 nodes and 8 blocks over a million; split, 16 blocks take 107
    rng = splitmix64_stream(5)
    blocks = [random_triples(9, 0.12, next(rng)) for _ in range(16)]
    H = Hypergraph3(9 * 16, [tuple(9 * b + v for v in e) for b, B in enumerate(blocks) for e in B.edges])
    rep = max_matching(H)
    assert rep.optimal and rep.size == sum(naive_max_matching(B) for B in blocks) == 36
    assert rep.nodes <= 150
    Matching(H, rep.edges)


def test_components_share_one_clock():
    # every component is 3 nodes, so only a clock check on the solve's own
    # node count (every 256 nodes) can stop it
    k = 1100
    H = Hypergraph3(3 * k, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)])
    rep = max_matching(H, SolveBudget(time_limit_ms=1e-6))
    assert (rep.nodes, rep.optimal, rep.detail) == (256, False, "time budget exhausted")
    Matching(H, rep.edges)


# --- one frame per expanded node ----------------------------------------------
#
# An expanded node keeps one frame and hands out its edge children from a mask,
# lowest index first, then the unmatched child; the siblings that the bounds
# prune before the next survivor are counted at once.  The search with one
# frame and one edge mask per child (oracles.childframe_search) is the
# reference: every report is equal, node counts and budget stops included.


def _as_childframe(solve):
    """solve() with exact._search replaced by the one-frame-per-child search."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_search", childframe_search)
        return solve()


frame_instances = st.tuples(
    st.integers(3, 24), st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.8]), st.integers(0, 2**32)
)


@settings(max_examples=150, deadline=None)
@given(frame_instances, st.none() | st.integers(0, 9), st.integers(0, 2**24 - 1), st.data())
def test_property_search_reports_as_childframe(inst, target, bits, data):
    H = random_triples(*inst)
    S = [v for v in range(H.n) if bits >> v & 1]
    unbudgeted = SolveBudget(target=target)
    root = (H, (1 << H.m) - 1, (1 << H.n) - 1)
    most = max(
        exact._search(*root, unbudgeted, 0.0).nodes,
        max_matching(H, unbudgeted).nodes,
        max_matching_in_subset(H, S, unbudgeted).nodes,
    )
    budget = SolveBudget(node_limit=data.draw(st.integers(1, most + 1), label="node_limit"), target=target)
    assert exact._search(*root, budget, 0.0) == childframe_search(*root, budget, 0.0)
    assert max_matching(H, budget) == _as_childframe(lambda: max_matching(H, budget))
    assert max_matching_in_subset(H, S, budget) == _as_childframe(lambda: max_matching_in_subset(H, S, budget))


@pytest.mark.parametrize("target", [None, 2])
@pytest.mark.parametrize(
    "H",
    [
        extremal_star(15)[0],
        extremal_star(24)[0],
        blocker_family(18, 5)[0],
        blocker_family(24, 7)[0],
        random_triples(24, 0.5, 2),
        random_triples(24, 0.05, 3),
        # siblings with all three vertices in the parent's cover are pruned, and only they
        random_triples(15, 0.05, 23),
        random_triples(12, 0.1, 26),
        _block_union([(9, 0.35, 1), (9, 0.5, 2), (6, 0.8, 3)], 4),
    ],
    ids=[
        "star-15", "star-24", "blocker-18-5", "blocker-24-7", "random-24-0.5", "random-24-0.05",
        "random-15-0.05-23", "random-12-0.1-26", "union-3",
    ],
)
def test_every_node_limit_reports_as_childframe(H, target):
    # a budget can run out anywhere, inside a run of counted siblings too
    full = max_matching(H, SolveBudget(target=target))
    assert full == _as_childframe(lambda: max_matching(H, SolveBudget(target=target)))
    for node_limit in range(1, full.nodes + 2):
        budget = SolveBudget(node_limit=node_limit, target=target)
        assert max_matching(H, budget) == _as_childframe(lambda: max_matching(H, budget)), node_limit


class _Clock:
    """perf_counter stand-in: 0 s for its first k reads, 1 s after; counts its reads."""

    def __init__(self, k):
        self.k, self.reads = k, 0

    def __call__(self):
        self.reads += 1
        return 0.0 if self.reads <= self.k else 1.0


def test_counted_nodes_read_the_clock_at_each_multiple_of_256(monkeypatch):
    clock = _Clock(10)
    monkeypatch.setattr(exact.time, "perf_counter", clock)
    assert exact._spend(250, 600, 10_000_000, 1.0, 0.0) == (850, None)
    assert clock.reads == 3  # nodes 256, 512 and 768
    monkeypatch.setattr(exact.time, "perf_counter", _Clock(1))
    assert exact._spend(250, 600, 10_000_000, 1.0, 0.0) == (512, "time budget exhausted")
    clock = _Clock(10)
    monkeypatch.setattr(exact.time, "perf_counter", clock)
    assert exact._spend(250, 600, 700, 1.0, 0.0) == (701, "node budget exhausted")
    assert clock.reads == 2  # node 768 is past the node limit
    clock = _Clock(0)
    monkeypatch.setattr(exact.time, "perf_counter", clock)
    assert exact._spend(256, 255, 10_000_000, 1.0, 0.0) == (511, None)
    assert clock.reads == 0  # node 256 was counted before
    assert exact._spend(250, 6, 10_000_000, 1.0, 0.0) == (256, "time budget exhausted")


@pytest.mark.parametrize("node_limit", [10_000_000, 700])
@pytest.mark.parametrize("k", range(6))
@pytest.mark.parametrize(
    "H", [extremal_star(36)[0], random_triples(30, 0.5, 1)], ids=["star-36", "random-30-0.5-1"]
)
def test_clock_stops_on_the_same_node_as_childframe(monkeypatch, H, k, node_limit):
    # the clock expires after its k-th read: both searches read it on the same
    # nodes, so they stop on the same multiple of 256 with the same report
    budget = SolveBudget(node_limit=node_limit, time_limit_ms=1.0)
    runs = []
    for search in (exact._search, childframe_search):
        clock = _Clock(k)
        monkeypatch.setattr(exact.time, "perf_counter", clock)
        runs.append((search(H, (1 << H.m) - 1, (1 << H.n) - 1, budget, 0.0), clock.reads))
    monkeypatch.undo()
    assert runs[0] == runs[1]
    rep, reads = runs[0]
    if rep.detail == "time budget exhausted":
        assert (rep.nodes, reads) == (256 * (k + 1), k + 1)
    else:
        assert reads == min(rep.nodes, node_limit) // 256


def _child_masks(search, H):
    """(nodes, child edge masks built) of one unbudgeted search over all of H.

    Counts the executions of the lines of search that clear a chosen edge's
    or the pivot's incidence from the available edges.
    """
    lines, first = inspect.getsourcelines(search)
    clears = ("~(inc[a] | inc[b] | inc[c])", "~inc[pivot]")
    marks = {first + i for i, text in enumerate(lines) if any(mark in text for mark in clears)}
    assert len(marks) == 2
    built = 0

    def count(frame, event, arg):
        nonlocal built
        if event == "line" and frame.f_lineno in marks:
            built += 1
        return count

    outer = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code is search.__code__ else None)
    try:
        rep = search(H, (1 << H.m) - 1, (1 << H.n) - 1, SolveBudget(), time.perf_counter())
    finally:
        sys.settrace(outer)
    return rep.nodes, built


@pytest.mark.parametrize(
    "H,nodes", [(extremal_star(24)[0], 400), (random_triples(30, 0.5, 1), 709)], ids=["star-24", "random-30-0.5-1"]
)
def test_pruned_siblings_build_no_child_mask(H, nodes):
    # one frame per child builds a mask for every node but the root (399 and
    # 708); taking children from the parent's frame builds 21 and 20
    assert _child_masks(childframe_search, H) == (nodes, nodes - 1)
    found, built = _child_masks(exact._search, H)
    assert found == nodes
    assert built <= 25
