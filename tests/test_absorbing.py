"""Tests for the absorbing-matching pipeline."""

from itertools import combinations

import pytest

import hypermatch.augment
from hypermatch.absorbing import absorb_leftover, absorbs, find_absorbing, perfect_via_absorbing
from hypermatch.constructions import cut_family, extremal_star, random_triples, splitmix64_stream
from hypermatch.core import Matching, build
from hypermatch.exact import max_matching, max_matching_in_subset


def complete(n):
    return build(n, combinations(range(n), 3))


class TestAbsorbs:
    def test_complete_always(self):
        K9 = complete(9)
        assert absorbs(K9, (0, 1, 2), (3, 4, 5))
        assert absorbs(K9, (2, 5, 8), (0, 3, 6))

    def test_star_single_blocker_edge_cannot(self):
        H, P = extremal_star(9)
        e = next(e for e in H.edges if sum(v in P.W for v in e) == 1)
        T = tuple(v for v in P.V if v not in e)[:3]
        assert not absorbs(H, e, T)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            absorbs(complete(9), (0, 1, 2), (2, 3, 4))

    def test_rejects_non_edge(self):
        H = build(9, [(0, 1, 2)])
        with pytest.raises(ValueError):
            absorbs(H, (3, 4, 5), (0, 1, 2))

    def test_agrees_with_subset_solver(self):
        rng = splitmix64_stream(99)
        hosts = [
            random_triples(12, 0.5, 1),
            random_triples(12, 0.8, 2),
            extremal_star(12)[0],
            cut_family(12, 4)[0],
        ]
        probes = 0
        while probes < 400:
            H = hosts[next(rng) % len(hosts)]
            if not H.m:
                continue
            e = H.edges[next(rng) % H.m]
            rest = [v for v in range(H.n) if v not in e]
            T = []
            while len(T) < 3:
                v = rest[next(rng) % len(rest)]
                if v not in T:
                    T.append(v)
            expect = max_matching_in_subset(H, list(e) + T).size == 2
            assert absorbs(H, e, tuple(T)) == expect
            probes += 1


class TestFindAbsorbing:
    def test_complete_k12_single_edge_suffices(self):
        A = find_absorbing(complete(12), gamma=0.5, t=1)
        assert A.success and A.size >= 1
        assert A.verification == "exhaustive"
        assert all(len(ts) > 0 for ts in A.absorb_index.values())

    def test_random_18_at_t2(self):
        H = random_triples(18, 0.8, seed=5)
        A = find_absorbing(H, gamma=0.8, t=2)
        assert A.success
        assert A.min_coverage >= 2
        assert A.verification == "exhaustive"  # 18 - 3|M*| <= 12

    def test_star_fails(self):
        H, _ = extremal_star(12)
        A = find_absorbing(H, gamma=0.8, t=2)
        assert not A.success
        assert A.uncovered_triples > 0
        assert not A.delta1_hypothesis

    def test_contract_mode_size_bound(self):
        H = random_triples(15, 0.85, seed=9)
        A = find_absorbing(H, gamma=0.9, t=2, contract=True)
        if A.success:
            assert A.size <= 0.9**3 * 15 / 3

    def test_hypothesis_flag(self):
        A = find_absorbing(complete(12), gamma=0.1, t=1)
        assert A.delta1_hypothesis  # complete graph clears any small gamma

    def test_validation(self):
        with pytest.raises(ValueError):
            find_absorbing(complete(9), gamma=0.0)
        with pytest.raises(ValueError):
            find_absorbing(complete(9), gamma=0.5, t=0)


class TestAbsorbLeftover:
    def test_empty_leftover_returns_star(self):
        K12 = complete(12)
        A = find_absorbing(K12, gamma=0.9, t=2)
        M = absorb_leftover(K12, A, [])
        assert set(M.edges) == set(A.edges)

    def test_folds_one_triple(self):
        K12 = complete(12)
        A = find_absorbing(K12, gamma=0.9, t=2)
        assert A.size == 2
        left = [v for v in range(12) if all(v not in e for e in A.edges)][:3]
        M = absorb_leftover(K12, A, left)
        assert M is not None and M.size == 3
        want = set(left) | {v for e in A.edges for v in e}
        assert set(M.covered) == want  # exact cover, no slack

    def test_capacity_exceeded(self):
        K12 = complete(12)
        A = find_absorbing(K12, gamma=0.5, t=1)
        assert A.size == 1 and A.capacity == 3
        left = [v for v in range(12) if all(v not in e for e in A.edges)][:6]
        assert absorb_leftover(K12, A, left) is None

    def test_rejects_bad_leftover(self):
        K12 = complete(12)
        A = find_absorbing(K12, gamma=0.9, t=2)
        with pytest.raises(ValueError):
            absorb_leftover(K12, A, [0, 1])  # not divisible by 3
        v = next(iter(A.edges))[0]
        rest = [u for u in range(12) if all(u not in e for e in A.edges)][:2]
        with pytest.raises(ValueError):
            absorb_leftover(K12, A, [v] + rest)  # overlaps the star


class TestPerfectViaAbsorbing:
    def test_complete_k15(self):
        rep = perfect_via_absorbing(complete(15))
        assert rep.optimal and rep.size == 5
        Matching(complete(15), rep.edges)

    def test_random_dense(self):
        H = random_triples(15, 0.8, seed=4)
        rep = perfect_via_absorbing(H)
        assert rep.optimal, rep.detail
        M = Matching(H, rep.edges)
        assert len(M.covered) == 15

    def test_nodes_are_the_augment_phase_probes(self, monkeypatch):
        seen = []
        probe = hypermatch.augment.max_matching_in_subset

        def spy(*args, **kwargs):
            rep = probe(*args, **kwargs)
            seen.append(rep.nodes)
            return rep

        monkeypatch.setattr(hypermatch.augment, "max_matching_in_subset", spy)
        rep = perfect_via_absorbing(random_triples(18, 0.5, seed=1))
        assert rep.optimal
        assert rep.nodes == sum(seen) > 0

    def test_star_fails_with_phase(self):
        H, _ = extremal_star(15)
        rep = perfect_via_absorbing(H)
        assert not rep.optimal
        assert rep.detail.startswith("phase")
        assert max_matching(H).size == 4

    def test_non_divisible(self):
        rep = perfect_via_absorbing(complete(10))
        assert not rep.optimal
