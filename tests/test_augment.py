"""Tests for the swap-based local search, including the named move fixtures."""

import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypermatch.augment
from hypermatch.augment import AugmentConfig, Move, MoveTrace, _subsets, augment_once, greedy_matching, replay, solve
from hypermatch.constructions import blocker_family, cut_family, extremal_star, random_triples, splitmix64_stream
from hypermatch.core import Hypergraph3, Matching
from hypermatch.exact import max_matching
from oracles import naive_augment_once, naive_greedy_matching, naive_max_matching

from move_fixtures import five_for_six_fixture, one_for_two_fixture, two_for_three_fixture


def complete(n):
    return Hypergraph3(n, combinations(range(n), 3))


class TestGreedy:
    def test_empty(self):
        assert greedy_matching(Hypergraph3(6, [])).size == 0

    def test_complete_k9(self):
        assert greedy_matching(complete(9)).size == 3

    def test_lexicographic_stall(self):
        # greedy takes (0,1,2) first and stalls at 1; the optimum is 2
        H = Hypergraph3(6, [(0, 1, 2), (0, 3, 4), (1, 2, 5)])
        M = greedy_matching(H)
        assert M.edges == ((0, 1, 2),)
        assert naive_max_matching(H) == 2

    def test_maximal(self):
        # the lexicographic start, and the shuffled starts the oracle makes for the move tests
        for seed in range(10):
            H = random_triples(10, 0.3, seed)
            for M in (greedy_matching(H), naive_greedy_matching(H, seed=seed)):
                unc = set(M.uncovered)
                assert not any(set(e) <= unc for e in H.edges)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 21),
    st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.7, 1.0]),
    st.integers(0, 2**32),
)
@example(n=12, p=0.0, host_seed=0)
def test_property_greedy_matches_the_edge_pass(n, p, host_seed):
    # the lowest-bit walk picks the same edges as one lexicographic pass over every edge
    H = random_triples(n, p, host_seed)
    assert greedy_matching(H).edges == naive_greedy_matching(H).edges


class TestAugmentOnce:
    def test_finds_simple_move(self):
        H = Hypergraph3(6, [(0, 1, 2), (0, 3, 4), (1, 2, 5)])
        M = Matching(H, [(0, 1, 2)])
        got = augment_once(H, M)
        assert got is not None
        new, move = got
        assert new.size == 2
        assert new.edges == ((0, 3, 4), (1, 2, 5))
        assert move.removed == ((0, 1, 2),)

    def test_no_move_on_maximum(self):
        for seed in range(6):
            H = random_triples(9, 0.5, seed)
            rep = max_matching(H)
            assert rep.optimal
            M = Matching(H, rep.edges)
            assert augment_once(H, M) is None

    def test_one_for_two_move(self):
        H, M = one_for_two_fixture()
        got = augment_once(H, M, AugmentConfig(k_max=1))
        assert got is not None
        new, move = got
        assert new.size == 2
        assert move.removed == ((0, 1, 2),)
        assert set(move.added) == {(0, 3, 5), (1, 4, 6)}

    def test_two_for_three_move(self):
        H, M = two_for_three_fixture()
        # no single-edge move exists
        assert augment_once(H, M, AugmentConfig(k_max=1)) is None
        got = augment_once(H, M, AugmentConfig(k_max=2))
        assert got is not None
        new, move = got
        assert new.size == 3
        assert len(move.removed) == 2
        assert len(new.covered) == 9

    def test_five_for_six_move(self):
        H, M = five_for_six_fixture()
        assert augment_once(H, M, AugmentConfig(k_max=4)) is None
        got = augment_once(H, M, AugmentConfig(k_max=5))
        assert got is not None
        new, move = got
        assert new.size == 6
        assert len(move.removed) == 5
        assert len(move.uncovered_used) == 6

    def test_intermediate_validity(self):
        H, M = five_for_six_fixture()
        new, _ = augment_once(H, M, AugmentConfig(k_max=5))
        Matching(H, new.edges)


class TestSolve:
    def test_cut_family(self):
        H, _ = cut_family(12, 4)
        rep, _ = solve(H, 4)
        assert rep.size == 4 and rep.optimal

    def test_star_stalls_at_max(self):
        H, _ = extremal_star(9)
        rep, _ = solve(H, 3)
        assert rep.size == 2
        assert rep.detail == "stalled"

    def test_matches_oracle_on_random(self):
        H = random_triples(12, 0.7, 7)
        rep, _ = solve(H, 4)
        assert rep.size == max_matching(H).size

    def test_sizes_strictly_increase(self):
        H = random_triples(12, 0.4, 11)
        rep, trace = solve(H, 4)
        size = len(trace.initial)
        for mv in trace.moves:
            assert len(mv.added) == len(mv.removed) + 1
            size += 1
        assert size == rep.size

    def test_trace_replay(self):
        for seed in (3, 7, 11):
            H = random_triples(11, 0.5, seed)
            rep, trace = solve(H, 3)
            final = replay(H, trace)
            assert set(final.edges) == set(rep.edges)

    def test_replay_applies_and_checks_each_move(self):
        # greedy stops at 9 edges and one 2-for-3 move reaches 10
        H = random_triples(30, 0.05, 3)
        rep, trace = solve(H, 10, AugmentConfig(k_max=3))
        assert rep.size == 10 and len(trace.moves) == 1
        assert replay(H, trace).edges == rep.edges
        # the move re-adds an edge it kept: the step's matching overlaps itself
        move = trace.moves[0]
        tampered = Move(move.removed, move.added + (trace.initial[-1],), move.uncovered_used)
        with pytest.raises(ValueError, match="overlaps another matching edge"):
            replay(H, MoveTrace(trace.initial, [tampered]))

    def test_never_exceeds_oracle(self):
        for seed in range(25):
            n = 8 + seed % 5
            H = random_triples(n, 0.1 * (1 + seed % 9), seed)
            rep, _ = solve(H, n // 3)
            assert rep.size <= max_matching(H).size

    def test_nodes_sum_every_probe(self, monkeypatch):
        # blocker n=18 stalls at d - 1, so the last round's probes all fail
        seen = []
        probe = hypermatch.augment.max_matching_in_subset

        def spy(*args, **kwargs):
            rep = probe(*args, **kwargs)
            seen.append(rep.nodes)
            return rep

        monkeypatch.setattr(hypermatch.augment, "max_matching_in_subset", spy)
        H, _ = blocker_family(18, 5)
        rep, _ = solve(H, 6, AugmentConfig(k_max=2))
        assert rep.detail == "stalled"
        assert rep.nodes == sum(seen) > 0

    def test_rejects_negative_target(self):
        H, _ = cut_family(9, 3)
        with pytest.raises(ValueError, match="non-negative"):
            solve(H, -1)


class TestUnionProbe:
    # the search corpus's blocker items: greedy stops at d - 1 = n/3 - 2
    # edges, and one union probe per removed set proves that no move exists
    @pytest.mark.parametrize("n, probes, nodes", [(18, 10, 210), (21, 15, 335), (24, 21, 489)])
    def test_blocker_stall_counters(self, n, probes, nodes):
        H, _ = blocker_family(n, n // 3 - 1)
        M = greedy_matching(H)
        stats = {}
        assert augment_once(H, M, AugmentConfig(k_max=2), stats) is None
        removed_sets = M.size + math.comb(M.size, 2)
        assert stats == {"nodes": nodes, "probes": probes, "union_skips": removed_sets}
        assert probes == removed_sets
        rep, trace = solve(H, n // 3, AugmentConfig(k_max=2))
        assert (rep.size, rep.nodes, rep.detail, trace.moves) == (M.size, nodes, "stalled", [])

    def test_counters_accumulate(self):
        H, _ = blocker_family(18, 5)
        M = greedy_matching(H)
        stats = {"nodes": 1, "probes": 2, "union_skips": 3}
        augment_once(H, M, AugmentConfig(k_max=2), stats)
        assert stats == {"nodes": 211, "probes": 12, "union_skips": 13}

    def test_budget_stopped_probe_leaves_the_set_unresolved(self):
        # the probe through the first edge stops at 3 nodes without an
        # answer: S is neither a move nor a skip, and the next S moves
        H = random_triples(15, 0.1, 313612)
        M = naive_greedy_matching(H, seed=313612)
        stats = {}
        got = augment_once(H, M, AugmentConfig(k_max=1, probe_nodes=3), stats)
        assert got is not None
        assert got[1].removed == (M.edges[1],)
        assert stats["probes"] == 2 and stats["union_skips"] == 0

    def test_successful_union_probe_is_the_move(self):
        # every probe before the move's rules out its removed set
        H, M = five_for_six_fixture()
        stats = {}
        assert augment_once(H, M, AugmentConfig(k_max=5), stats) is not None
        assert stats["probes"] == stats["union_skips"] + 1

    def test_fewer_than_three_uncovered_probes_nothing(self):
        H = Hypergraph3(8, [(0, 1, 2), (3, 4, 5), (0, 3, 6), (1, 4, 7)])
        M = Matching(H, [(0, 1, 2), (3, 4, 5)])
        stats = {}
        assert augment_once(H, M, AugmentConfig(), stats) is None
        assert stats == {"nodes": 0, "probes": 0, "union_skips": 0}


def _random_matching(H, seed, drop):
    """A greedy matching with every drop-th edge taken out (not maximal, so moves exist)."""
    M = naive_greedy_matching(H, seed=seed)
    return Matching(H, [e for i, e in enumerate(M.edges) if drop == 0 or i % drop])


_RANDOM_MATCHING = (
    st.integers(0, 15),
    st.sampled_from([0.05, 0.1, 0.2, 0.4]),
    st.integers(0, 2**32),
    st.sampled_from([0, 0, 2, 3]),
)


@settings(max_examples=600, deadline=None)
@given(*_RANDOM_MATCHING, st.integers(1, 3))
def test_property_union_probe_agrees_with_the_loop(n, p, seed, drop, k_max):
    # with every removed set enumerated, the one probe on V(S) ∪ U finds a
    # move exactly when some small U' does, and first through the same S
    H = random_triples(n, p, seed)
    M = _random_matching(H, seed, drop)
    cfg = AugmentConfig(k_max=k_max, s_cap=10**6)
    got = augment_once(H, M, cfg)
    want = naive_augment_once(H, M, cfg, u_cap=10**6)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[1].removed == want[1].removed


@settings(max_examples=300, deadline=None)
@given(
    *_RANDOM_MATCHING,
    st.builds(
        AugmentConfig,
        k_max=st.integers(1, 3),
        s_cap=st.integers(1, 6),
        probe_nodes=st.sampled_from([3, 200_000, 200_000, 200_000]),
        seed=st.integers(0, 2**64 - 1),
    ),
)
def test_property_move_lies_inside_the_union(n, p, seed, drop, cfg):
    # small caps make _subsets sample, and tiny budgets stop probes early
    H = random_triples(n, p, seed)
    M = _random_matching(H, seed, drop)
    got = augment_once(H, M, cfg)
    if got is None:
        return
    new, move = got
    freed = {v for e in move.removed for v in e}
    touched = {v for e in move.added for v in e}
    assert set(move.removed) <= set(M.edges)
    assert len(move.added) == len(move.removed) + 1
    assert touched <= freed | set(M.uncovered)
    assert move.uncovered_used == tuple(sorted(touched - freed))
    assert new.size == M.size + 1


def test_subsets_sample_distinct_subsets_above_the_cap():
    # C(18, 3) = 816 > 200: 224 samples of three draws each, 24 of them repeats
    draws = 0

    def stream():
        nonlocal draws
        for x in splitmix64_stream(0):
            draws += 1
            yield x

    out = _subsets(tuple(range(18)), 3, 200, stream())
    assert len(set(out)) == len(out) == 200 and all(a < b < c < 18 for a, b, c in out)
    assert draws == 3 * 224


def test_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(k_max=0)
    with pytest.raises(ValueError):
        AugmentConfig(s_cap=0)
    # min(200, nan) is 200, so a NaN passed a min() check and left every probe unbudgeted
    for field in ("probe_nodes", "s_cap"):
        with pytest.raises(ValueError, match="caps and budgets must be positive"):
            AugmentConfig(**{field: math.nan})



@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.sampled_from([0.05, 0.1, 0.2, 0.4, 0.7]), st.integers(0, 2**32))
def test_property_uncapped_search_reaches_oracle(n, p, seed):
    # k_max >= n/3 and caps above every subset count: the move search is
    # complete, so it stops only at a maximum matching
    H = random_triples(n, p, seed)
    cfg = AugmentConfig(k_max=max(1, n // 3), s_cap=10**6)
    rep, _ = solve(H, n // 3, cfg)
    assert rep.size == naive_max_matching(H)
