"""Tests for link graphs and the 3x3 pattern classification."""

from itertools import combinations, permutations

import pytest

from hypermatch.constructions import cut_family, random_triples
from hypermatch.core import Hypergraph3
from hypermatch.augment import greedy_matching
from hypermatch.links import (
    PatternKind,
    base_edge,
    canonical_form,
    classify,
    edge_through,
    link_bipartite,
    link_chain,
    link_within,
    pattern_has_pm,
    verify_fact1,
)
from hypermatch import links
from oracles import naive_canonical_form, naive_pattern_has_pm, permanent3


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
            assert pattern_has_pm(mask) == (permanent3(mask) > 0)
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
            assert pattern_has_pm(mask) == naive_pattern_has_pm(mask)
            assert canonical_form(mask) == naive_canonical_form(mask)

    def test_canonical_form_is_invariant(self):
        m = B113_REF
        rotated = mask_of([(2, 0), (2, 1), (2, 2), (1, 0), (0, 0)])
        assert canonical_form(m) == canonical_form(rotated)

    def test_rejects_non_mask(self):
        with pytest.raises(ValueError):
            classify(512)


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
        assert link_bipartite(H, 0, [1, 2, 3], [4, 5, 6]).edge_count == 0

    def test_cut_family_k33(self):
        H, P = cut_family(12, 3)
        v = P.V[0]
        A = list(P.V[1:4])
        B = sorted(P.W)
        lg = link_bipartite(H, v, A, B)
        assert lg.edge_count == 9
        assert lg.pattern() == 0b111111111

    def test_within_v_empty(self):
        H, P = cut_family(12, 3)
        v = P.V[0]
        lg = link_bipartite(H, v, list(P.V[1:4]), list(P.V[4:7]))
        assert lg.pattern() == 0

    def test_link_identity(self):
        H = random_triples(9, 0.4, 5)
        for v, a, b in H.edges[:10]:
            lg = link_bipartite(H, v, [a], [b])
            assert lg.has(a, b)
            assert edge_through(v, (a, b)) == (v, a, b)

    def test_errors(self):
        H = complete(8)
        with pytest.raises(ValueError):
            link_bipartite(H, 0, [0, 1], [2, 3])
        with pytest.raises(ValueError):
            link_bipartite(H, 7, [0, 1], [1, 2])
        with pytest.raises(ValueError):
            link_bipartite(H, 0, [1, 2], [3, 8])
        with pytest.raises(ValueError):
            link_within(H, -1, [1, 2])

    def test_link_within_complete(self):
        lg = link_within(complete(6), 5, [0, 1, 2, 3, 4])
        assert lg.edge_count == 10

    def test_link_within_empty_host(self):
        assert link_within(Hypergraph3(5, []), 0, [1, 2, 3]).edge_count == 0

    def test_maximal_matching_leaves_uncovered_link_empty(self):
        # no host edge lies inside the uncovered set of a maximal matching
        for seed in range(8):
            H = random_triples(10, 0.3, seed)
            M = greedy_matching(H)
            unc = M.uncovered
            for v in unc:
                rest = [u for u in unc if u != v]
                assert link_within(H, v, rest).edge_count == 0

    def test_chain_two_sets_is_bipartite(self):
        H = random_triples(10, 0.5, 9)
        A, B = [0, 1, 2], [3, 4, 5]
        assert link_chain(H, 9, [A, B]).edges == link_bipartite(H, 9, A, B).edges

    def test_chain_path_on_singletons(self):
        lg = link_chain(complete(6), 5, [[0], [1], [2], [3]])
        assert lg.edge_count == 3
        assert lg.has(0, 1) and lg.has(1, 2) and lg.has(2, 3)
        assert not lg.has(0, 2)

    def test_chain_empty_host(self):
        assert link_chain(Hypergraph3(8, []), 0, [[1], [2], [3], [4], [5]]).edge_count == 0

    def test_chain_arity(self):
        H = complete(8)
        with pytest.raises(ValueError):
            link_chain(H, 0, [[1, 2]])

    def test_link_bipartite_pair_pattern(self):
        H, P = cut_family(9, 3)
        E = tuple(P.V[0:2]) + (sorted(P.W)[0],)
        F = tuple(P.V[2:4]) + (sorted(P.W)[1],)
        v = P.V[5]
        lg = link_bipartite(H, v, E, F)
        # v in V: pairs with exactly one W endpoint across E and F are edges
        assert classify(lg.pattern()).kind is PatternKind.B113
