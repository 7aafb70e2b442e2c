"""Tests for the closeness machinery and the staged matchers."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch.constructions import cut_family, extremal_star, perturb_remove, random_triples
from hypermatch.core import Matching, Partition, build, edge_type
from hypermatch.exact import has_d_matching, max_matching
from hypermatch.extremal import (
    classify_goodness,
    deficiency,
    find_partition,
    good_case_matching,
    staged_matching,
)


def complete(n):
    return build(n, combinations(range(n), 3))


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
        H2 = build(9, kept)
        rep = classify_goodness(H2, P, alpha=0.1)
        assert rep.badness[w] == 15
        assert w in rep.bad_vertices  # 0.1 * 81 < 15
        assert all(rep.badness[v] <= 15 for v in range(9))

    def test_alpha_one_never_flags(self):
        H = build(9, [])
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
        Hs = build(9, [tuple(perm[v] for v in e) for e in H.edges])
        rep = find_partition(Hs, 3, mode="exhaustive")
        assert rep.deficiency == 0
        assert sorted(rep.W) == sorted(perm[v] for v in (6, 7, 8))

    def test_local_recovers_scramble(self):
        H, _ = cut_family(12, 4)
        perm = [5, 9, 0, 11, 3, 1, 7, 2, 10, 4, 8, 6]
        Hs = build(12, [tuple(perm[v] for v in e) for e in H.edges])
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
        H = build(40, [])
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

    def test_large_perturbed(self):
        H, P = cut_family(30, 10)
        Hp = perturb_remove(H, 5, seed=13)
        rep = classify_goodness(Hp, P, alpha=0.1)
        assert rep.bad_vertices == ()
        M = good_case_matching(Hp, P, 10, alpha=0.1)
        assert M is not None and M.size == 10
        assert all(edge_type(e, P) == "VVW" for e in M.edges)
        assert has_d_matching(Hp, 10)[0] == "yes"

    def test_stall_beyond_supply(self):
        # only 3 W vertices: no 4-matching out of VVW edges exists
        H, P = cut_family(12, 3)
        assert good_case_matching(H, P, 4) is None

    def test_swap_path_exercised(self):
        # remove every direct edge on one uncovered triple so that only the
        # good-pair swap can finish
        H, P = cut_family(12, 4)
        M = good_case_matching(H, P, 4)
        assert M is not None and M.size == 4


class TestStaged:
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
        H2 = build(30, kept)
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
        # W is larger than a third of the vertices, so the stage-5 residual
        # partition cannot be formed: a stall, not a ValueError
        M, log = staged_matching(complete(9), Partition(9, {5, 6, 7, 8}, 3), 3)
        assert M is None
        assert log.stalled_stage == "M5" and log.detail

    def test_bde_inequality_logged(self):
        H, P = cut_family(9, 3)
        _, log = staged_matching(H, P, 3)
        assert log.bde_check is not None and "holds" in log.bde_check
