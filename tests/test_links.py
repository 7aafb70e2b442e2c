"""Tests for link patterns and the 3x3 pattern classification."""

import random
from itertools import combinations, permutations

import pytest

from hypermatch.constructions import cut_family, random_triples
from hypermatch.core import Hypergraph3
from hypermatch.augment import greedy_matching
from hypermatch.links import (
    PatternKind,
    base_edge,
    classify,
    link_pattern,
    verify_fact1,
)
from hypermatch import links
from oracles import canonform_classification, naive_canonical_form, naive_pattern_has_pm, permanent3


def mask_of(pairs):
    m = 0
    for i, j in pairs:
        m |= 1 << (3 * i + j)
    return m


# the degree-3-row / degree-3-column reference pattern with base (0, 0)
B113_REF = mask_of([(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)])


def complete(n):
    return Hypergraph3(n, combinations(range(n), 3))


class TestClassify:
    def test_identity_pm(self):
        assert classify(mask_of([(0, 0), (1, 1), (2, 2)])).kind is PatternKind.HAS_PM

    def test_reference_b113(self):
        cls = classify(B113_REF)
        assert cls.kind is PatternKind.B113
        assert cls.base == (0, 0)
        assert base_edge(B113_REF) == (0, 0)

    def test_relabelled_b113_base_moves(self):
        # swap row labels 0 and 2: the degree-3 row moves to index 2
        rotated = mask_of([(2, 0), (2, 1), (2, 2), (1, 0), (0, 0)])
        assert base_edge(rotated) == (2, 0)

    def test_seven_edges_always_pm(self):
        for mask in range(512):
            if mask.bit_count() >= 7:
                assert classify(mask).kind is PatternKind.HAS_PM

    def test_base_edge_rejects_other_classes(self):
        with pytest.raises(ValueError):
            base_edge(mask_of([(0, 0), (1, 1), (2, 2)]))
        with pytest.raises(ValueError):
            base_edge(0)

    def test_pm_agrees_with_permanent(self):
        for mask in range(512):
            assert (classify(mask).kind is PatternKind.HAS_PM) == (permanent3(mask) > 0)

    def test_isomorphism_invariance(self):
        perms = list(permutations(range(3)))
        for mask in range(512):
            kind = classify(mask).kind
            for pr in perms:
                for pc in perms:
                    out = 0
                    for i in range(3):
                        for j in range(3):
                            if mask >> (3 * i + j) & 1:
                                out |= 1 << (3 * pr[i] + pc[j])
                    assert classify(out).kind is kind

    def test_bit_tables_match_original_relabelling(self):
        for mask in range(512):
            assert any(mask & pm == pm for pm in links._PM_MASKS) == naive_pattern_has_pm(mask)
            assert min(links._relabelings(mask)) == naive_canonical_form(mask)

    def test_canonical_form_is_invariant(self):
        m = B113_REF
        rotated = mask_of([(2, 0), (2, 1), (2, 2), (1, 0), (0, 0)])
        assert min(links._relabelings(m)) == min(links._relabelings(rotated))
        assert set(links._relabelings(m)) == set(links._relabelings(rotated))

    def test_rejects_non_mask(self):
        with pytest.raises(ValueError):
            classify(512)

    @pytest.mark.parametrize("fn", [classify, base_edge])
    @pytest.mark.parametrize("mask", [-1, 512, 1000, 3.0, True, False, "7", None])
    def test_every_entry_point_rejects_non_masks(self, fn, mask):
        # classify once took 3.0 and True
        with pytest.raises(ValueError, match="pattern mask must be a 9-bit integer"):
            fn(mask)


class TestVerifyFact1:
    def test_report(self):
        rep = verify_fact1()
        assert rep["total"] == 512
        assert rep["violations"] == 0
        # frozen counts, established by this very enumeration and checked
        # against the labeled-copy counting argument: 2 * 3 for b033,
        # 2 * 3 * 2 * 3 for b023, 3 * 3 for b113
        assert rep["counts"]["b033"] == 6
        assert rep["counts"]["b023"] == 36
        assert rep["counts"]["b113"] == 9

    def test_each_call_derives_the_table(self, monkeypatch):
        # verify_fact1 checks the derivation itself, so it must redo it:
        # a table kept from an earlier call would check nothing
        calls = []

        def counted():
            calls.append(1)
            return derive()

        derive = links._derive_classification
        monkeypatch.setattr(links, "_derive_classification", counted)
        assert verify_fact1() == verify_fact1()
        assert len(calls) == 2

    def test_orbits_give_the_canonical_form_table(self):
        # the classes by orbit equal the classes by canonical form, key order included
        table, want = links._derive_classification(), canonform_classification()
        assert list(table.items()) == list(want.items())

    def test_pm_free_counts_by_edges(self):
        rep = verify_fact1()
        assert rep["counts_by_edge_count"]["6"].get("b033") == 6
        assert rep["counts_by_edge_count"]["5"].get("b023") == 36
        assert rep["counts_by_edge_count"]["5"].get("b113") == 9
        for e in ("7", "8", "9"):
            assert set(rep["counts_by_edge_count"][e]) == {"pm"}


class TestLinkGraphs:
    def test_empty_host(self):
        H = Hypergraph3(9, [])
        assert link_pattern(H, 0, [1, 2, 3], [4, 5, 6]) == 0

    def test_cut_family_k33(self):
        H, P = cut_family(12, 3)
        v = P.V[0]
        A = list(P.V[1:4])
        B = sorted(P.W)
        assert link_pattern(H, v, A, B) == 0b111111111

    def test_within_v_empty(self):
        H, P = cut_family(12, 3)
        v = P.V[0]
        assert link_pattern(H, v, list(P.V[1:4]), list(P.V[4:7])) == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_link_pattern_matches_edge_membership(self, seed):
        # on random hosts, bit 3i + j is set iff {v, E[i], F[j]} is in edge_set
        rng = random.Random(seed)
        n = rng.randint(7, 12)
        H = random_triples(n, rng.choice([0.1, 0.3, 0.6, 1.0]), seed)
        for _ in range(20):
            v, *rest = rng.sample(range(n), 7)
            E, F = rest[:3], rest[3:]
            want = 0
            for i, a in enumerate(sorted(E)):
                for j, b in enumerate(sorted(F)):
                    if tuple(sorted((v, a, b))) in H.edge_set:
                        want |= 1 << 3 * i + j
            assert link_pattern(H, v, E, F) == want

    def test_errors(self):
        H = complete(8)
        with pytest.raises(ValueError):
            link_pattern(H, 0, [0, 1, 2], [3, 4, 5])
        with pytest.raises(ValueError):
            link_pattern(H, 7, [0, 1, 2], [2, 3, 4])
        with pytest.raises(ValueError):
            link_pattern(H, 0, [1, 2, 3], [4, 5, 8])
        with pytest.raises(ValueError):
            link_pattern(H, -1, [1, 2, 3], [4, 5, 6])
        with pytest.raises(ValueError):
            link_pattern(H, 0, [1, 2], [3, 4, 5])

    def test_repeated_vertex_in_a_part(self):
        # [1, 1, 2] is no triple: v, E and F must be seven distinct vertices
        H = complete(8)
        with pytest.raises(ValueError):
            link_pattern(H, 0, [1, 1, 2], [3, 4, 5])
        with pytest.raises(ValueError):
            link_pattern(H, 0, [1, 2, 3], [4, 5, 5])

    def test_maximal_matching_leaves_uncovered_link_empty(self):
        # no host edge lies inside the uncovered set of a maximal matching
        for seed in range(8):
            H = random_triples(10, 0.3, seed)
            inc = H.incidence
            for a, b, c in combinations(greedy_matching(H).uncovered, 3):
                assert not inc[a] & inc[b] & inc[c]

    def test_link_bipartite_pair_pattern(self):
        H, P = cut_family(9, 3)
        E = tuple(P.V[0:2]) + (sorted(P.W)[0],)
        F = tuple(P.V[2:4]) + (sorted(P.W)[1],)
        v = P.V[5]
        # v in V: pairs with exactly one W endpoint across E and F are edges
        assert classify(link_pattern(H, v, E, F)).kind is PatternKind.B113
