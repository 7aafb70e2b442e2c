"""Tests for the instance generators."""

import hashlib
import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch.constructions import (
    blocker_family,
    cut_family,
    extremal_star,
    pad_to_perfect,
    random_triples,
    splitmix64_stream,
)
from hypermatch.core import Hypergraph3, Matching, threshold, to_h3
from hypermatch.exact import has_d_matching
from oracles import naive_has_k_matching, naive_hypergraph, naive_max_matching, naive_random_triples, perturb_remove


class TestExtremalStar:
    def test_star6_shape(self):
        H, P = extremal_star(6)
        assert len(P.V) == 5 and len(P.W) == 1
        assert H.m == 10
        assert all(any(v in P.W for v in e) for e in H.edges)

    def test_star9_min_degree(self):
        H, _ = extremal_star(9)
        assert H.min_degree(1) == 13 == math.comb(8, 2) - math.comb(6, 2)

    def test_star9_max_matching(self):
        H, _ = extremal_star(9)
        assert naive_max_matching(H) == 2

    @pytest.mark.parametrize("n", [6, 9, 12, 15])
    def test_delta1_formula(self, n):
        H, _ = extremal_star(n)
        assert H.min_degree(1) == math.comb(n - 1, 2) - math.comb(2 * n // 3, 2)
        assert H.min_degree(1) == threshold(n, n // 3)

    def test_refuses_bad_n(self):
        with pytest.raises(ValueError):
            extremal_star(10)
        with pytest.raises(ValueError):
            extremal_star(3)

    def test_edge_count_star9(self):
        # triples meeting W = all minus triples inside V: C(9,3) - C(7,3) = 49
        H, _ = extremal_star(9)
        assert H.m == math.comb(9, 3) - math.comb(7, 3) == 49


class TestCutFamily:
    def test_min_degree_9_3(self):
        H, _ = cut_family(9, 3)
        assert H.min_degree(1) == 18 == math.comb(8, 2) - math.comb(5, 2)

    def test_has_d_matching(self):
        H, _ = cut_family(9, 3)
        assert naive_has_k_matching(H, 3)

    def test_w_is_the_top_d_vertices(self):
        for n in range(0, 22):
            for d in range(0, n // 3 + 1):
                _, P = cut_family(n, d)
                assert (P.n, P.W, P.d) == (n, frozenset(range(n - d, n)), d)

    def test_d_zero_empty(self):
        H, _ = cut_family(8, 0)
        assert H.m == 0

    @pytest.mark.parametrize("d", [-1, 4])
    def test_refuses_d_out_of_range(self, d):
        with pytest.raises(ValueError, match="need 0 <= d <= n/3"):
            cut_family(9, d)

    def test_edge_count_9_3(self):
        # 45 with one W endpoint plus 18 with two
        H, _ = cut_family(9, 3)
        assert H.m == math.comb(6, 2) * 3 + 6 * math.comb(3, 2) == 63

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(4, 14) for d in range(1, n // 3 + 1)])
    def test_delta1_formula_scan(self, n, d):
        H, _ = cut_family(n, d)
        assert H.min_degree(1) == math.comb(n - 1, 2) - math.comb(n - d - 1, 2)

    def test_delta1_dominates_quadratic_form(self):
        # delta1(cut_family) = d(n - d/2) - 3d/2 >= (1 - 3/n) d (n - d/2),
        # checked in exact integer arithmetic over the whole desk range
        for n in range(9, 201):
            for d in range(1, n // 3 + 1):
                lhs = math.comb(n - 1, 2) - math.comb(n - d - 1, 2)
                assert 2 * n * lhs >= (n - 3) * d * (2 * n - d)


class TestBlockerFamily:
    def test_9_3(self):
        H, P = blocker_family(9, 3)
        assert len(P.W) == 2
        assert naive_max_matching(H) == 2

    def test_d1_empty(self):
        H, _ = blocker_family(10, 1)
        assert H.m == 0

    @pytest.mark.parametrize("d", [0, 4])
    def test_refuses_d_out_of_range(self, d):
        with pytest.raises(ValueError, match="need 1 <= d <= n/3"):
            blocker_family(9, d)

    def test_12_2_delta(self):
        H, _ = blocker_family(12, 2)
        assert H.min_degree(1) == math.comb(11, 2) - math.comb(10, 2) == 10
        assert H.min_degree(1) == threshold(12, 2)

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(6, 13) for d in range(2, n // 3 + 1)])
    def test_delta_equals_threshold(self, n, d):
        H, P = blocker_family(n, d)
        assert H.min_degree(1) == threshold(n, d)
        # V-vertex degree is C(n-1,2) - C(|V|-1,2)
        v = P.V[0]
        assert H.degree(v) == math.comb(n - 1, 2) - math.comb(len(P.V) - 1, 2)


def _d_matching_after_adding(H, d, edge):
    H2 = Hypergraph3(H.n, H.edges + (edge,))
    status, rep = has_d_matching(H2, d)
    assert status == "yes", (H.n, d, edge)
    assert Matching(H2, rep.edges).size == d
    return rep


class TestBlockerTightness:
    """The blocker family sits on the d-matching boundary, and one more edge crosses it.

    Any missing edge is a triple inside V.  Sym(V) fixes the family and
    acts transitively on those triples, so one of them per (n, d) stands
    for all; n <= 12 checks every one of them to guard that argument.
    """

    CASES = [(n, d) for n in range(6, 22, 3) for d in range(2, n // 3 + 1)]

    @pytest.mark.parametrize("n, d", CASES)
    def test_one_missing_edge_gives_a_d_matching(self, n, d):
        H, _ = blocker_family(n, d)
        status, _ = has_d_matching(H, d)
        assert status == "no"
        rep = _d_matching_after_adding(H, d, (0, 1, 2))
        assert (0, 1, 2) in rep.edges

    @pytest.mark.parametrize("n, d", [(n, d) for n, d in CASES if n <= 12])
    def test_every_missing_edge_gives_a_d_matching(self, n, d):
        H, P = blocker_family(n, d)
        missing = list(combinations(P.V, 3))
        assert len(missing) == math.comb(n, 3) - H.m
        for e in missing:
            _d_matching_after_adding(H, d, e)


class TestRandomTriples:
    def test_p_extremes(self):
        assert random_triples(8, 0.0, 1).m == 0
        assert random_triples(8, 1.0, 1).m == math.comb(8, 3)

    def test_determinism(self):
        a = random_triples(12, 0.5, seed=1)
        b = random_triples(12, 0.5, seed=1)
        assert a == b

    def test_seed_matters(self):
        assert random_triples(12, 0.5, 1) != random_triples(12, 0.5, 2)

    def test_frozen_vector(self):
        # reference vector for cross-implementation checks
        H = random_triples(7, 0.5, seed=42)
        assert H.m == 15
        assert H.edges[:3] == ((0, 1, 3), (0, 1, 4), (0, 1, 5))

    def test_bad_p(self):
        with pytest.raises(ValueError):
            random_triples(6, 1.5, 0)

    def test_negative_n(self):
        with pytest.raises(ValueError, match="non-negative"):
            random_triples(-1, 0.5, 0)

    # C(n, 3) on either side of one 512-lane block (15/16) and of two (19/20),
    # and many blocks (60)
    @pytest.mark.parametrize("n", [15, 16, 19, 20, 60])
    @pytest.mark.parametrize("p", [0.0, 2**-60, 0.05, 0.5, 1 - 2**-53, 1.0])
    def test_block_boundaries_match_the_stream(self, n, p):
        for seed in (-3, 0, 2**64 - 1, 2**70 + 5):
            assert random_triples(n, p, seed).edges == naive_random_triples(n, p, seed).edges

    def test_pinned_h3_digest(self):
        # recorded from the generator that stepped splitmix64_stream once per triple
        H = random_triples(90, 0.1, 7)
        assert H.m == 11718
        digest = hashlib.sha256(to_h3(H).encode()).hexdigest()
        assert digest == "b20ed04d483dd54e9025c734a1bc0599e19efd87f1f7532457e27405c2483350"


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 40),
    st.one_of(st.sampled_from([0.0, 1.0, 0.5, 2**-60, 1 - 2**-53]), st.floats(0.0, 1.0)),
    st.integers(-(2**70), 2**70),
)
def test_random_triples_match_the_stream(n, p, seed):
    assert random_triples(n, p, seed).edges == naive_random_triples(n, p, seed).edges


class TestPerturbRemove:
    def test_k_zero(self):
        H, _ = cut_family(9, 3)
        assert perturb_remove(H, 0, 7) == H

    def test_k_all(self):
        H, _ = cut_family(9, 3)
        assert perturb_remove(H, H.m, 7).m == 0

    def test_removed_count(self):
        H, _ = cut_family(12, 4)
        Hp = perturb_remove(H, 5, seed=3)
        assert Hp.m == H.m - 5
        assert Hp.edge_set < H.edge_set

    def test_determinism(self):
        H, _ = cut_family(12, 4)
        assert perturb_remove(H, 5, seed=3) == perturb_remove(H, 5, seed=3)

    def test_bad_k(self):
        H, _ = cut_family(9, 3)
        with pytest.raises(ValueError):
            perturb_remove(H, H.m + 1, 0)


def _same_views(H, edges):
    # the generators skip the constructor's canonicalisation; the views must
    # equal those of the original per-edge constructor on the same triples
    want = naive_hypergraph(H.n, edges)
    assert (H.n, H.edges, H.incidence) == (want.n, want.edges, want.incidence)
    assert H.edge_set == want.edge_set


class TestCanonicalBuild:
    @pytest.mark.parametrize("n", [0, 1, 3, 5, 6, 9, 10, 14, 15, 21])
    def test_cut_and_blocker_families(self, n):
        for d in range(0, n // 3 + 1):
            H, P = cut_family(n, d)
            _same_views(H, [e for e in combinations(range(n), 3) if 1 <= len(P.W.intersection(e)) <= 2])
            if d >= 1:
                H, P = blocker_family(n, d)
                assert P.W == frozenset(range(n - d + 1, n)) and P.d == d
                _same_views(H, [e for e in combinations(range(n), 3) if P.W.intersection(e)])

    @pytest.mark.parametrize("n", [6, 9, 12, 15])
    def test_extremal_star(self, n):
        H, P = extremal_star(n)
        _same_views(H, [e for e in combinations(range(n), 3) if P.W.intersection(e)])

    @pytest.mark.parametrize("n", [0, 2, 3, 7, 12, 16])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    def test_random_triples_and_perturb_remove(self, n, p):
        for seed in (0, 1, 2**64 - 1):
            H = random_triples(n, p, seed)
            rng = splitmix64_stream(seed)
            _same_views(H, [e for e in combinations(range(n), 3) if next(rng) < int(p * 2**64)])
            for k in {0, H.m // 3, H.m}:
                Hp = perturb_remove(H, k, seed)
                _same_views(Hp, Hp.edges)
                assert Hp.m == H.m - k and Hp.edge_set <= H.edge_set


class TestPadToPerfect:
    def test_no_padding_needed(self):
        H, _ = cut_family(12, 4)
        assert pad_to_perfect(H, 4) == H

    def test_pad_12_2(self):
        H, _ = cut_family(12, 2)
        Hp = pad_to_perfect(H, 2)
        assert Hp.n == 15
        assert Hp.degree(12) == math.comb(14, 2) == 91

    def test_old_edges_kept(self):
        H, _ = cut_family(10, 2)
        Hp = pad_to_perfect(H, 2)
        assert H.edge_set <= Hp.edge_set

    @pytest.mark.parametrize("d", [-1, 4])
    def test_refuses_d_out_of_range(self, d):
        with pytest.raises(ValueError, match="need 0 <= d <= n/3"):
            pad_to_perfect(cut_family(10, 2)[0], d)

    @pytest.mark.parametrize("n", range(16))
    def test_matches_canonicalising_constructor(self, n):
        # the old edges and the new ones (max >= n) are each canonical and
        # disjoint, so sorting them together is all the builder needs
        for d in range(n // 3 + 1):
            for H in (cut_family(n, d)[0], random_triples(n, 0.3, 100 * n + d)):
                Hp = pad_to_perfect(H, d)
                n2 = n + (n - 3 * d) // 2
                edges = list(H.edges) + [e for e in combinations(range(n2), 3) if e[2] >= n]
                assert Hp == Hypergraph3(n2, edges)
                _same_views(Hp, edges)

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(6, 31, 3) for d in (1, 2, n // 3)])
    def test_padded_degree_bound(self, n, d):
        # whenever delta1(H) > threshold(n, d), the padded hypergraph clears
        # the near-perfect boundary on its own order
        H, _ = cut_family(n, d)
        assert H.min_degree(1) > threshold(n, d)
        Hp = pad_to_perfect(H, d)
        n2 = Hp.n
        bound = math.comb(n2 - 1, 2) - math.comb(n2 - n2 // 3, 2)
        assert Hp.min_degree(1) > bound
