"""Tests for the closeness machinery and the staged matchers."""

import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypermatch.extremal
from hypermatch.constructions import blocker_family, cut_family, extremal_star, random_triples, splitmix64_stream
from hypermatch.core import Hypergraph3, Matching, Partition
from hypermatch.exact import has_d_matching, max_matching
from hypermatch.extremal import (
    _bottom_votes,
    classify_goodness,
    deficiency,
    find_partition,
    good_case_matching,
    staged_matching,
)
from hypermatch.links import classify
from oracles import edge_type, model_badness, model_deficiency, naive_good_case_matching, naive_staged_matching, perturb_remove


def complete(n):
    return Hypergraph3(n, combinations(range(n), 3))


def disjoint_w_edges(k):
    """k disjoint edges (2i, 2i+1, 2k+i) on 3k vertices, with W = 2k..3k-1."""
    return Hypergraph3(3 * k, [(2 * i, 2 * i + 1, 2 * k + i) for i in range(k)]), Partition(3 * k, range(2 * k, 3 * k), k)


def m2_double_cover_case():
    """cut_family(9, 3) without the edges {u, x, w}, u in {0, 1}, x in 2..5, w in W, but (1, 2, 7).

    At alpha = 0.1 vertices 0 and 1 are bad and both reach stage M2.
    """
    H, P = cut_family(9, 3)
    drop = {tuple(sorted((u, x, w))) for u in (0, 1) for x in range(2, 6) for w in P.W} - {(1, 2, 7)}
    return Hypergraph3(9, [e for e in H.edges if e not in drop]), P


class TestDeficiency:
    def test_exact_family_is_zero(self):
        H, P = cut_family(9, 3)
        assert deficiency(H, P) == 0

    def test_perturbed_counts_removals(self):
        H, P = cut_family(9, 3)
        assert deficiency(perturb_remove(H, 2, seed=4), P) == 2
        assert deficiency(perturb_remove(H, 7, seed=4), P) == 7

    def test_star_against_padded_w(self):
        # the star's W padded to size 3 by one V-vertex: exactly the
        # model edges through that vertex as the only W-member are missing
        H, P = extremal_star(9)
        w_plus = sorted(P.W) + [0]
        rep = Partition(9, w_plus, 3)
        assert deficiency(H, rep) == 15

    def test_survives_serialization(self):
        from hypermatch.core import parse_h3, to_h3

        H, P = cut_family(10, 3)
        Hp = perturb_remove(H, 4, seed=1)
        assert deficiency(parse_h3(to_h3(Hp)), P) == deficiency(Hp, P) == 4


class TestGoodness:
    def test_exact_family_all_good(self):
        H, P = cut_family(9, 3)
        rep = classify_goodness(H, P, alpha=0.01)
        assert rep.bad_vertices == ()
        assert rep.deficiency == 0

    def test_single_stripped_w_vertex(self):
        H, P = cut_family(9, 3)
        w = sorted(P.W)[0]
        # delete the 15 model edges where w is the only W-endpoint
        kept = [e for e in H.edges if not (w in e and sum(v in P.W for v in e) == 1)]
        H2 = Hypergraph3(9, kept)
        rep = classify_goodness(H2, P, alpha=0.1)
        assert rep.badness[w] == 15
        assert w in rep.bad_vertices  # 0.1 * 81 < 15
        assert all(rep.badness[v] <= 15 for v in range(9))

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -0.01])
    def test_non_finite_or_negative_alpha_is_a_value_error(self, alpha):
        # with NaN every badness comparison is false, and the report is no JSON
        H, P = cut_family(9, 3)
        with pytest.raises(ValueError):
            classify_goodness(H, P, alpha)
        with pytest.raises(ValueError):
            find_partition(H, 3, alpha=alpha)
        with pytest.raises(ValueError):
            staged_matching(H, P, 3, alpha=alpha)
        # theta is refused on the same values: with NaN stage M2 never runs, and
        # a negative one sends every bad V-vertex with a V-V-W edge there
        with pytest.raises(ValueError, match="theta must be finite and non-negative"):
            staged_matching(H, P, 3, theta=alpha)

    def test_alpha_one_never_flags(self):
        H = Hypergraph3(9, [])
        P = Partition(9, {6, 7, 8}, 3)
        rep = classify_goodness(H, P, alpha=1.0)
        assert rep.bad_vertices == ()
        assert max(rep.badness) <= 36  # C(n-1,2) < n^2

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 40))
    def test_badness_sums_to_three_deficiency(self, seed, k):
        H, P = cut_family(10, 3)
        Hp = perturb_remove(H, min(k, H.m), seed)
        rep = classify_goodness(Hp, P, alpha=0.05)
        assert sum(rep.badness) == 3 * rep.deficiency


class TestFindPartition:
    def test_exhaustive_recovers_scramble(self):
        H, _ = cut_family(9, 3)
        perm = [4, 7, 0, 2, 8, 1, 5, 3, 6]
        Hs = Hypergraph3(9, [tuple(perm[v] for v in e) for e in H.edges])
        rep = find_partition(Hs, 3, mode="exhaustive")
        assert rep.deficiency == 0
        assert sorted(rep.W) == sorted(perm[v] for v in (6, 7, 8))

    def test_local_recovers_scramble(self):
        H, _ = cut_family(12, 4)
        perm = [5, 9, 0, 11, 3, 1, 7, 2, 10, 4, 8, 6]
        Hs = Hypergraph3(12, [tuple(perm[v] for v in e) for e in H.edges])
        rep = find_partition(Hs, 4, mode="local")
        assert rep.deficiency == 0

    def test_local_on_perturbed(self):
        H, P = cut_family(12, 4)
        Hp = perturb_remove(H, 6, seed=2)
        rep = find_partition(Hp, 4, mode="local")
        assert rep.deficiency == 6
        assert sorted(rep.W) == sorted(P.W)

    def test_complete_any_w_works(self):
        rep = find_partition(complete(9), 3, mode="exhaustive")
        assert rep.deficiency == 0

    def test_exhaustive_cap(self):
        H = Hypergraph3(40, [])
        with pytest.raises(ValueError):
            find_partition(H, 13, mode="exhaustive")

    def test_star_reports_without_asserting_ground_truth(self):
        H, _ = extremal_star(12)
        rep = find_partition(H, 4, mode="local")
        assert rep.deficiency >= 0  # report-only

    def test_bottom_seed_mode(self):
        H, P = cut_family(12, 4)
        rep = find_partition(H, 4, mode="local", seed="bottom")
        assert rep.deficiency == 0
        assert sorted(rep.W) == sorted(P.W)

    def test_bottom_seed_pins_its_w(self):
        # a blocker family on 24 vertices: the six vertices of the blocked part win the vote,
        # the fill-up by degree adds 0 and 1, and no single-vertex swap lowers the deficiency
        H, _ = blocker_family(24, 7)
        assert _bottom_votes(H) == [18, 19, 20, 21, 22, 23]
        rep = find_partition(H, 8, mode="local", seed="bottom")
        assert (rep.W, rep.deficiency) == ((0, 1, 18, 19, 20, 21, 22, 23), 256)

    def test_bottom_voters_see_every_pattern_class_but_b033(self, monkeypatch):
        # only the b113 links vote; the other classes pass without a vote
        kinds = set()

        def spy(mask):
            cls = classify(mask)
            kinds.add(cls.kind.value)
            return cls

        monkeypatch.setattr(hypermatch.extremal, "classify", spy)
        rep = find_partition(random_triples(14, 0.4, 3), 4, seed="bottom")
        assert kinds == {"pm", "deficient", "b023", "b113"}
        assert rep.W == (7, 8, 12, 13)

    def test_bad_arguments(self):
        H = complete(9)
        with pytest.raises(ValueError):
            find_partition(H, 4)
        with pytest.raises(ValueError):
            find_partition(H, 3, mode="fancy")
        with pytest.raises(ValueError):
            find_partition(H, 3, seed="nope")


class TestGoodCase:
    def test_cut_family_9_3(self):
        H, P = cut_family(9, 3)
        M = good_case_matching(H, P, 3)
        assert M is not None and M.size == 3
        assert all(edge_type(e, P) == "VVW" for e in M.edges)

    def test_d_zero(self):
        H, P = cut_family(9, 3)
        assert good_case_matching(H, P, 0).size == 0

    def test_negative_d_is_a_value_error(self):
        H, P = cut_family(9, 3)
        with pytest.raises(ValueError, match="d must be non-negative"):
            good_case_matching(H, P, -1)

    def test_large_perturbed(self):
        H, P = cut_family(30, 10)
        Hp = perturb_remove(H, 5, seed=13)
        rep = classify_goodness(Hp, P, alpha=0.1)
        assert rep.bad_vertices == ()
        M = good_case_matching(Hp, P, 10)
        assert M is not None and M.size == 10
        assert all(edge_type(e, P) == "VVW" for e in M.edges)
        assert has_d_matching(Hp, 10)[0] == "yes"

    def test_stall_beyond_supply(self):
        # only 3 W vertices: no 4-matching out of VVW edges exists
        H, P = cut_family(12, 3)
        assert good_case_matching(H, P, 4) is None

    def test_swap_path_exercised(self):
        # without (4, 5, 8) the direct edges stop at (0, 1, 6), (2, 3, 7);
        # only the good-pair swap of those two for (4, 5, 8) can finish
        H, P = cut_family(9, 3)
        H2 = Hypergraph3(9, [e for e in H.edges if e != (4, 5, 8)])
        M = good_case_matching(H2, P, 3)
        assert M is not None and M.edges == ((0, 4, 7), (1, 3, 8), (2, 5, 6))


def test_partition_on_another_vertex_count_is_a_value_error():
    # unchecked, deficiency reads 135, classify_goodness flags all 12 vertices and the matchers raise IndexError
    H, _ = cut_family(12, 3)
    P = Partition(30, {27, 28, 29}, 3)
    calls = [
        lambda: deficiency(H, P),
        lambda: classify_goodness(H, P, 0.05),
        lambda: good_case_matching(H, P, 3),
        lambda: staged_matching(H, P, 3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="partition is on 30 vertices, the hypergraph on 12"):
            call()


class TestStaged:
    def test_negative_d_is_a_value_error(self):
        # a stall would report "residual target -1 infeasible", which is no answer
        H, P = cut_family(9, 3)
        with pytest.raises(ValueError, match="d must be non-negative"):
            staged_matching(H, P, -1)

    def test_exact_family_skips_stages(self):
        H, P = cut_family(9, 3)
        M, log = staged_matching(H, P, 3)
        assert M is not None and M.size == 3
        assert log.c == 0 and log.m2 == 0 and log.m3 == 0
        assert log.stages["M1"] == [] and log.stages["M5"]

    def test_one_bad_w_vertex(self):
        # strip one W-vertex down to a couple of reserve edges: it turns
        # bad, M1 must cover it, and the residual still carries d-1 more
        H, P = cut_family(30, 10)
        w = sorted(P.W)[0]
        reserve = [e for e in H.edges if w in e][:2]
        kept = [e for e in H.edges if w not in e] + reserve
        H2 = Hypergraph3(30, kept)
        rep = classify_goodness(H2, P, alpha=0.05)
        assert rep.bad_vertices == (w,)
        M, log = staged_matching(H2, P, 10, alpha=0.05)
        assert M is not None and M.size == 10
        assert log.c == 1
        assert any(w in e for e in log.stages["M1"])
        assert has_d_matching(H2, 10)[0] == "yes"

    def test_union_disjoint_and_sized(self):
        H, P = cut_family(15, 5)
        Hp = perturb_remove(H, 10, seed=8)
        M, log = staged_matching(Hp, P, 5)
        assert M is not None
        Matching(Hp, M.edges)
        assert M.size == 5

    def test_stall_beyond_oracle(self):
        H, P = extremal_star(9)
        # target 3 exceeds the true maximum of 2
        M, log = staged_matching(H, Partition(9, P.W, 2), 3)
        assert M is None
        assert log.stalled_stage is not None
        assert max_matching(H).size == 2

    def test_oversized_residual_w_stalls_at_m5(self):
        # W is larger than a third of the vertices stage 5 starts from: a
        # stall, not a ValueError
        M, log = staged_matching(complete(9), Partition(9, {5, 6, 7, 8}, 3), 3)
        assert M is None
        assert log.stalled_stage == "M5"
        assert log.detail == "4 W-vertices left exceed a third of the 9 residual vertices"

    def test_m2_skips_vertex_covered_by_earlier_m2_edge(self):
        # the M2 edge placed for bad vertex 0 is (0, 1, 6); bad vertex 1 is
        # then covered and must not get a second edge (1, 2, 7)
        H, P = m2_double_cover_case()
        M, log = staged_matching(H, P, 3, alpha=0.1)
        assert M is not None and M.edges == ((0, 1, 6), (2, 3, 7), (4, 5, 8))
        assert log.stages["M2"] == [(0, 1, 6)] and log.m2 == 1
        assert log.stalled_stage is None

    def test_m4_rebalances_after_m3(self):
        # vertex 0 keeps two VVW edges, both through 1: it is bad, and two are
        # too few for M2; M3 buries it in (0, 1, 2) and M4 rebalances with a V-W-W edge
        H, P = cut_family(15, 5)
        drop = {e for e in H.edges if 0 in e and sum(v in P.W for v in e) == 1} - {(0, 1, 10), (0, 1, 11)}
        H = Hypergraph3(15, [e for e in H.edges if e not in drop] + [(0, 1, 2), (0, 3, 4)])
        assert H.m == 284
        M, log = staged_matching(H, P, 5)
        assert classify_goodness(H, P, 0.05).bad_vertices == (0,)
        assert log.stages == {
            "M1": [], "M2": [], "M3": [(0, 1, 2)], "M4": [(3, 10, 11)], "M5": [(4, 5, 12), (6, 7, 13), (8, 9, 14)]
        }
        assert M is not None and M.size == 5 and log.stalled_stage is None
        assert log.to_json_dict() == naive_staged_matching(H, P, 5)[1].to_json_dict()

    def test_m1_backtracks(self):
        # 6 first takes (0, 1, 6), which leaves 7 no edge; M1 backs up and
        # gives 6 its next edge (3, 4, 6)
        H = Hypergraph3(9, [(0, 1, 6), (3, 4, 6), (0, 2, 7), (1, 5, 8)])
        P = Partition(9, {6, 7, 8}, 3)
        M, log = staged_matching(H, P, 3, alpha=0)
        assert log.stages["M1"] == [(3, 4, 6), (0, 2, 7), (1, 5, 8)]
        assert M is not None and M.size == 3
        assert log.to_json_dict() == naive_staged_matching(H, P, 3, alpha=0)[1].to_json_dict()

    def test_many_bad_w_vertices_without_recursion(self):
        # 1100 disjoint edges (2i, 2i+1, 2200+i): every W-vertex is bad, and
        # M1 covers all 1100 of them, one stack frame per edge
        M, log = staged_matching(*disjoint_w_edges(1100), 1100)
        assert log.stalled_stage is None and log.c == 1100
        assert M is not None and M.size == 1100
        assert set(M.edges) == set(disjoint_w_edges(1100)[0].edges)

    def test_bde_inequality_logged(self):
        # five bad W-vertices (a PINNED_BDE row): the bound is
        # C(a-1,2) - C(a-c,2) over a = |V ∪ W_bad| = 10 + c
        H = _instance(("random", 15, 0.7, 19))
        _, log = staged_matching(H, Partition(15, find_partition(H, 5).W, 5), 5)
        a, bde = 10 + log.c, log.bde_check
        assert log.c == 5 and bde["bound"] == math.comb(a - 1, 2) - math.comb(a - log.c, 2)
        assert bde["holds"] == (bde["delta1_inside_V1"] > bde["bound"])


# --- pinned closeness table ----------------------------------------------------
#
# (W, deficiency, bad_vertices, badness) at alpha = 0.05, recorded from the
# model-triple enumeration that the popcount forms replaced.  Any change to
# the seed order, the swap order or the strict-improvement rule of the local
# search shows up here as a different W.


def _scrambled(H, seed):
    """H with its labels permuted by a splitmix64-seeded Fisher-Yates shuffle."""
    rng = splitmix64_stream(seed)
    perm = list(range(H.n))
    for j in range(H.n - 1):
        r = j + next(rng) % (H.n - j)
        perm[j], perm[r] = perm[r], perm[j]
    return Hypergraph3(H.n, [tuple(perm[v] for v in e) for e in H.edges])


def _instance(spec):
    kind = spec[0]
    if kind == "cut":
        # cut family minus 2% of its edges, labels shuffled
        _, n, d, seed = spec
        H, _ = cut_family(n, d)
        return _scrambled(perturb_remove(H, round(0.02 * H.m), seed), seed)
    if kind == "strip":
        # cut family with one W-vertex stripped to two edges, labels shuffled
        _, n, d, seed = spec
        H, P = cut_family(n, d)
        w = min(P.W)
        reserve = [e for e in H.edges if w in e][:2]
        return _scrambled(Hypergraph3(n, [e for e in H.edges if w not in e] + reserve), seed)
    if kind == "random":
        return random_triples(*spec[1:])
    if kind == "star":
        return extremal_star(spec[1])[0]
    return Hypergraph3(spec[1], [])


PINNED_PARTITIONS = [
    (("cut", 15, 5, 1), 5, "local", "degree",
     (1, 2, 4, 7, 10), 6, (),
     (2, 3, 0, 1, 1, 0, 1, 1, 0, 2, 3, 2, 1, 1, 0)),
    (("cut", 24, 8, 2), 8, "local", "degree",
     (4, 6, 7, 8, 9, 15, 16, 20), 28, (),
     (4, 4, 3, 0, 5, 1, 4, 6, 4, 4, 5, 3, 1, 5, 2, 7, 5, 5, 6, 3, 2, 1, 2, 2)),
    (("cut", 30, 10, 3), 10, "local", "degree",
     (0, 5, 7, 9, 11, 13, 20, 21, 25, 28), 56, (),
     (9, 7, 6, 5, 3, 7, 1, 8, 2, 7, 7, 8, 9, 8, 5, 4, 10, 1, 3, 3, 7, 5, 5, 1, 4, 5, 3, 5, 12, 8)),
    (("cut", 45, 15, 4), 15, "local", "degree",
     (1, 8, 14, 18, 22, 23, 24, 25, 28, 31, 32, 35, 36, 43, 44), 194, (),
     (11, 20, 6, 16, 10, 10, 14, 12, 15, 6, 12, 9, 17, 12, 18, 9, 10, 11, 14, 14, 13, 11, 18, 19, 13, 18, 10, 14, 20, 13, 7, 23, 16, 6, 6, 18, 24, 14, 6, 12, 11, 6, 10, 16, 12)),
    (("strip", 15, 5, 5), 5, "local", "degree",
     (1, 5, 7, 9, 12), 83, (0, 2, 3, 4, 5, 6, 10, 11, 13, 14),
     (13, 10, 13, 13, 13, 83, 13, 10, 11, 10, 13, 13, 10, 12, 12)),
    (("strip", 24, 8, 6), 8, "local", "degree",
     (0, 1, 7, 13, 15, 20, 22, 23), 230, (0,),
     (230, 16, 22, 21, 22, 22, 22, 16, 20, 22, 22, 22, 22, 16, 22, 16, 22, 22, 21, 22, 16, 22, 16, 16)),
    (("random", 15, 0.3, 7), 5, "local", "degree",
     (7, 10, 12, 13, 14), 211, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14),
     (38, 34, 37, 35, 34, 32, 34, 61, 36, 37, 55, 38, 56, 57, 49)),
    (("random", 24, 0.2, 8), 8, "local", "degree",
     (1, 2, 7, 8, 9, 15, 19, 21), 1094, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23),
     (115, 179, 177, 121, 111, 110, 120, 180, 181, 182, 108, 111, 114, 114, 116, 179, 122, 123, 112, 178, 115, 183, 117, 114)),
    (("random", 18, 0.5, 9), 4, "local", "degree",
     (3, 8, 9, 11), 207, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17),
     (26, 29, 30, 59, 23, 29, 34, 25, 61, 62, 27, 58, 27, 24, 30, 28, 22, 27)),
    # sparse instances tie between several best swaps: the first in
    # sorted(W) x range(n) order must win
    (("random", 9, 0.1, 1), 3, "local", "degree",
     (1, 4, 7), 55, (0, 1, 2, 3, 4, 5, 6, 7, 8),
     (15, 26, 15, 15, 22, 18, 15, 23, 16)),
    (("random", 15, 0.1, 2), 5, "local", "degree",
     (0, 1, 5, 8, 13), 291, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14),
     (79, 77, 50, 49, 48, 76, 47, 50, 77, 47, 48, 49, 50, 76, 50)),
    (("random", 18, 0.05, 3), 6, "local", "degree",
     (3, 4, 6, 7, 8, 13), 543, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17),
     (78, 73, 78, 118, 117, 75, 122, 119, 121, 80, 76, 77, 74, 115, 76, 77, 75, 78)),
    (("star", 15), 5, "local", "degree",
     (0, 11, 12, 13, 14), 45, (0,),
     (45, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 0, 0, 0, 0)),
    (("empty", 12), 4, "local", "degree",
     (0, 1, 2, 3), 160, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
     (52, 52, 52, 52, 34, 34, 34, 34, 34, 34, 34, 34)),
    (("cut", 15, 5, 10), 0, "local", "degree",
     (), 0, (),
     (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    (("cut", 9, 3, 11), 3, "exhaustive", "degree",
     (0, 6, 8), 1, (),
     (1, 0, 0, 0, 0, 0, 1, 1, 0)),
    (("random", 12, 0.4, 12), 4, "exhaustive", "degree",
     (3, 4, 6, 11), 83, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
     (22, 17, 19, 27, 26, 15, 26, 19, 19, 19, 13, 27)),
    (("random", 10, 0.6, 13), 2, "exhaustive", "degree",
     (7, 9), 21, (1, 2, 6, 7, 9),
     (4, 8, 6, 5, 3, 4, 6, 11, 3, 13)),
    (("strip", 12, 4, 14), 4, "exhaustive", "degree",
     (5, 6, 9, 10), 50, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
     (10, 9, 8, 10, 10, 8, 50, 10, 9, 8, 8, 10)),
    (("cut", 12, 4, 15), 4, "local", "bottom",
     (1, 2, 4, 9), 3, (),
     (1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 3)),
    (("strip", 15, 5, 16), 5, "local", "bottom",
     (3, 4, 7, 12, 14), 83, (0, 1, 2, 6, 8, 9, 10, 11, 12, 13),
     (13, 13, 12, 10, 10, 11, 13, 10, 13, 12, 13, 13, 83, 13, 10)),
]


@pytest.mark.parametrize(
    "spec,d,mode,seed,W,deficiency,bad_vertices,badness",
    PINNED_PARTITIONS,
    ids=[f"{row[0]}-{row[2]}-{row[3]}" for row in PINNED_PARTITIONS],
)
def test_pinned_partitions(spec, d, mode, seed, W, deficiency, bad_vertices, badness):
    rep = find_partition(_instance(spec), d, mode=mode, seed=seed)
    assert (rep.W, rep.deficiency, rep.bad_vertices, rep.badness) == (W, deficiency, bad_vertices, badness)


# staged_matching's bde_check dict and stall stage on the partition that
# local find_partition recovers, recorded like the table above
PINNED_BDE = [
    (("cut", 15, 5, 1), 5, None, 0, None),
    (("strip", 30, 10, 17), 10, {"delta1_inside_V1": 0, "bound": 0, "holds": False}, 1, None),
    (("strip", 15, 5, 5), 5, {"delta1_inside_V1": 0, "bound": 0, "holds": False}, 1, "M3"),
    (("random", 12, 0.5, 18), 4, {"delta1_inside_V1": 21, "bound": 27, "holds": False}, 4, "M3"),
    (("random", 15, 0.7, 19), 5, {"delta1_inside_V1": 57, "bound": 46, "holds": True}, 5, "M4"),
    (("random", 18, 0.8, 20), 6, {"delta1_inside_V1": 100, "bound": 70, "holds": True}, 6, "M5"),
]


@pytest.mark.parametrize("spec,d,bde,c,stalled", PINNED_BDE, ids=[str(row[0]) for row in PINNED_BDE])
def test_pinned_bde_check(spec, d, bde, c, stalled):
    H = _instance(spec)
    P = Partition(H.n, find_partition(H, d).W, d)
    _, log = staged_matching(H, P, d)
    assert (log.bde_check, log.c, log.stalled_stage) == (bde, c, stalled)


def test_remove_nothing_is_identity():
    H = random_triples(12, 0.3, 5)
    sub, new_to_old = H.remove_vertices(())
    assert sub == H and new_to_old == tuple(range(12))


# --- properties against the model-triple oracle --------------------------------


@st.composite
def closeness_cases(draw):
    """(H, d, W) with n <= 15: random triples (p = 0 gives m = 0) or a damaged cut family."""
    n = draw(st.integers(0, 15))
    d = draw(st.integers(0, n // 3))
    seed = draw(st.integers(0, 2**32))
    if draw(st.booleans()):
        H = random_triples(n, draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9])), seed)
    else:
        H, _ = cut_family(n, d)
        H = _scrambled(perturb_remove(H, draw(st.integers(0, H.m)), seed), seed)
    W = draw(st.permutations(range(n)))[:d]
    return H, d, W


@settings(max_examples=150, deadline=None)
@given(closeness_cases())
def test_property_closeness_matches_oracle(case):
    H, d, W = case
    P = Partition(H.n, W, d)
    rep = classify_goodness(H, P, alpha=0.05)
    assert deficiency(H, P) == rep.deficiency == model_deficiency(H, W)
    assert rep.badness == model_badness(H, W)


def _reference_local(H, d):
    """find_partition's degree-seeded hill-climb, scored by the oracle."""
    W = set(sorted(range(H.n), key=lambda v: (-H.degree(v), v))[:d])
    cur = model_deficiency(H, W)
    while cur > 0:
        best_swap, best_val = None, cur
        for w in sorted(W):
            for v in range(H.n):
                if v not in W:
                    val = model_deficiency(H, (W - {w}) | {v})
                    if val < best_val:
                        best_swap, best_val = (w, v), val
        if best_swap is None:
            break
        W = (W - {best_swap[0]}) | {best_swap[1]}
        cur = best_val
    return tuple(sorted(W)), cur


@settings(max_examples=60, deadline=None)
@given(closeness_cases())
def test_property_local_search_matches_reference(case):
    H, d, _ = case
    rep = find_partition(H, d, mode="local")
    assert (rep.W, rep.deficiency) == _reference_local(H, d)


# --- the staged matchers against their original loops ---------------------------


@st.composite
def staged_cases(draw):
    """(H, P, d, alpha, theta), n <= 18: random triples or a damaged cut family.

    n = 3d half the time, where a lightly damaged cut family often needs
    the good-pair swap for its last edge.  The cut family keeps its labels
    and W half the time; otherwise W is a random set, of size d or
    (sometimes) of another size up to n/2.
    """
    d = draw(st.integers(0, 6))
    n = 3 * d if draw(st.booleans()) else draw(st.integers(3 * d, 18))
    seed = draw(st.integers(0, 2**32))
    W = None
    if draw(st.booleans()):
        H = random_triples(n, draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9])), seed)
    else:
        H, P = cut_family(n, d)
        H = perturb_remove(H, draw(st.integers(0, H.m // 4) | st.integers(0, H.m)), seed)
        if draw(st.booleans()):
            W = P.W
        else:
            H = _scrambled(H, seed)
    if W is None:
        size = draw(st.integers(0, n // 2)) if draw(st.booleans()) else d
        W = draw(st.permutations(range(n)))[:size]
    alpha = draw(st.sampled_from([0, 0.01, 0.02, 0.05, 0.1, 0.2, 1]))
    theta = draw(st.sampled_from([0, 0.005, 0.01, 0.05]))
    return H, Partition(n, W, d), d, alpha, theta


def m5_swap_after_m1_case():
    """M1 covers (0, 2, 3), then M5 needs good-pair swaps among the vertices left."""
    return random_triples(18, 0.9, 2308501029), Partition(18, [3, 6, 10, 14, 15, 16], 6), 6, 0.05, 0


@settings(max_examples=300, deadline=None)
@given(staged_cases())
@example((*m2_double_cover_case(), 3, 0.1, 0.01))
@example(m5_swap_after_m1_case())
def test_property_staged_matches_original_loops(case):
    H, P, d, alpha, theta = case
    M, log = staged_matching(H, P, d, alpha, theta)
    M0, log0 = naive_staged_matching(H, P, d, alpha, theta)
    assert (M and M.edges) == (M0 and M0.edges)
    assert log.to_json_dict() == log0.to_json_dict()


@settings(max_examples=150, deadline=None)
@given(staged_cases())
def test_property_good_case_matches_original_loops(case):
    H, P, d, _, _ = case
    M = good_case_matching(H, P, d)
    M0 = naive_good_case_matching(H, P, d)
    assert (M and M.edges) == (M0 and M0.edges)


@settings(max_examples=200, deadline=None)
@given(staged_cases())
@example((*m2_double_cover_case(), 3, 0.1, 0.01))
def test_property_staged_returns_matching_or_named_stall(case):
    H, P, d, alpha, theta = case
    M, log = staged_matching(H, P, d, alpha, theta)
    if M is None:
        assert log.stalled_stage in {"M1", "M3", "M4", "M5"} and log.detail
    else:
        assert log.stalled_stage is None and log.detail is None
        assert Matching(H, M.edges).size == d
