"""Tests for the swap-based local search, including the named move fixtures."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypermatch.augment
from hypermatch.augment import AugmentConfig, MoveTrace, augment_once, greedy_matching, replay, solve
from hypermatch.constructions import blocker_family, cut_family, extremal_star, random_triples
from hypermatch.core import Matching, build
from hypermatch.exact import max_matching
from oracles import naive_augment_once, naive_max_matching

from move_fixtures import five_for_six_fixture, one_for_two_fixture, two_for_three_fixture


def complete(n):
    return build(n, combinations(range(n), 3))


class TestGreedy:
    def test_empty(self):
        assert greedy_matching(build(6, [])).size == 0

    def test_complete_k9(self):
        assert greedy_matching(complete(9)).size == 3

    def test_lexicographic_stall(self):
        # greedy takes (0,1,2) first and stalls at 1; the optimum is 2
        H = build(6, [(0, 1, 2), (0, 3, 4), (1, 2, 5)])
        M = greedy_matching(H)
        assert M.edges == ((0, 1, 2),)
        assert naive_max_matching(H) == 2

    def test_maximal(self):
        for seed in range(10):
            H = random_triples(10, 0.3, seed)
            M = greedy_matching(H, seed=seed)
            unc = set(M.uncovered)
            assert not any(set(e) <= unc for e in H.edges)


class TestAugmentOnce:
    def test_finds_simple_move(self):
        H = build(6, [(0, 1, 2), (0, 3, 4), (1, 2, 5)])
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

    def test_skipped_sets_still_draw_their_samples(self):
        # u_cap=1 samples every U'; the sets the union probe skips must draw
        # their samples all the same, or the move found later changes
        H = random_triples(12, 0.05, 1798849289)
        M = greedy_matching(H, seed=1798849289)
        cfg = AugmentConfig(k_max=2, s_cap=5, u_cap=1, seed=927)
        stats = {}
        got = augment_once(H, M, cfg, stats)
        assert got is not None and stats["union_skips"] > 0
        assert got == naive_augment_once(H, M, cfg)

    def test_budget_stopped_union_probe_falls_back_to_the_loop(self):
        # the union probe on the first edge stops at 3 nodes without an
        # answer; a smaller U' probe then finds the move through that edge
        H = random_triples(15, 0.1, 313612)
        M = greedy_matching(H, seed=313612)
        cfg = AugmentConfig(k_max=1, probe_nodes=3)
        stats = {}
        got = augment_once(H, M, cfg, stats)
        assert got == naive_augment_once(H, M, cfg)
        assert got[1].removed == (M.edges[0],) and stats["union_skips"] == 0

    def test_successful_union_probe_keeps_the_lazy_move(self):
        # the union probe on V(S) ∪ U succeeds, then the U' loop finds the
        # same first move as the original search
        H, M = five_for_six_fixture()
        cfg = AugmentConfig(k_max=5)
        stats = {}
        got = augment_once(H, M, cfg, stats)
        assert got == naive_augment_once(H, M, cfg)
        assert stats["probes"] > stats["union_skips"]


def _random_matching(H, seed, drop):
    """A greedy matching with every drop-th edge taken out (not maximal, so moves exist)."""
    M = greedy_matching(H, seed=seed)
    return Matching(H, [e for i, e in enumerate(M.edges) if drop == 0 or i % drop])


_CAPPED = st.builds(
    AugmentConfig,
    k_max=st.integers(1, 3),
    s_cap=st.integers(1, 6),
    u_cap=st.integers(1, 6),
    probe_nodes=st.sampled_from([3, 200_000, 200_000, 200_000]),
    seed=st.integers(0, 2**64 - 1),
)


@settings(max_examples=600, deadline=None)
@given(
    st.integers(0, 15),
    st.sampled_from([0.05, 0.1, 0.2, 0.4]),
    st.integers(0, 2**32),
    st.sampled_from([0, 0, 2, 3]),
    _CAPPED,
)
def test_property_union_probe_keeps_the_original_move(n, p, seed, drop, cfg):
    # small caps make _subsets sample, and tiny probe budgets make the
    # union probe stop early, so every branch of the new loop is driven
    H = random_triples(n, p, seed)
    M = _random_matching(H, seed, drop)
    assert augment_once(H, M, cfg) == naive_augment_once(H, M, cfg)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 15), st.sampled_from([0.05, 0.1, 0.2, 0.4]), st.integers(0, 2**32), _CAPPED)
def test_property_union_probe_keeps_the_move_trace(n, p, seed, cfg):
    H = random_triples(n, p, seed)
    rep, trace = solve(H, n // 3, cfg)
    M = greedy_matching(H)
    want = MoveTrace(initial=M.edges)
    while M.size < n // 3 and len(want.moves) < cfg.max_moves:
        step = naive_augment_once(H, M, cfg)
        if step is None:
            break
        M, move = step
        want.moves.append(move)
    assert trace == want
    assert rep.edges == M.edges


def test_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(k_max=0)
    with pytest.raises(ValueError):
        AugmentConfig(s_cap=0)



@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.sampled_from([0.05, 0.1, 0.2, 0.4, 0.7]), st.integers(0, 2**32))
def test_property_uncapped_search_reaches_oracle(n, p, seed):
    # k_max >= n/3 and caps above every subset count: the move search is
    # complete, so it stops only at a maximum matching
    H = random_triples(n, p, seed)
    cfg = AugmentConfig(k_max=max(1, n // 3), s_cap=10**6, u_cap=10**6)
    rep, _ = solve(H, n // 3, cfg)
    assert rep.size == naive_max_matching(H)
