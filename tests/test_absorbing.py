"""Tests for the absorbing-matching pipeline."""

import hashlib
import json
import math
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypermatch.absorbing
import hypermatch.augment
from hypermatch.absorbing import (
    _absorb_masks,
    _pair_links,
    absorb_leftover,
    absorbs,
    find_absorbing,
    perfect_via_absorbing,
)
from hypermatch.constructions import cut_family, extremal_star, random_triples, splitmix64_stream
from hypermatch.core import Hypergraph3, Matching
from hypermatch.exact import SolveReport, max_matching, max_matching_in_subset
from oracles import naive_absorb_leftover, perround_find_absorbing


def complete(n):
    return Hypergraph3(n, combinations(range(n), 3))


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
        H = Hypergraph3(9, [(0, 1, 2)])
        with pytest.raises(ValueError):
            absorbs(H, (3, 4, 5), (0, 1, 2))

    @pytest.mark.parametrize("T", [(3, 3, 4), (3, 4), (3, 4, 9), (-1, 3, 4)])
    def test_rejects_t_not_three_host_vertices(self, T):
        with pytest.raises(ValueError, match="T must be a set of 3 distinct vertices of the host"):
            absorbs(complete(9), (0, 1, 2), T)

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

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, 1e200, 1e60])
    def test_non_finite_or_overflowing_gamma_is_a_value_error(self, gamma):
        # 1e200 overflows gamma^3, 1e60 only gamma^6
        with pytest.raises(ValueError):
            find_absorbing(complete(9), gamma=gamma)

    def test_largest_gammas_still_work(self):
        # gamma^6 * 9 is finite at 1e51: the same cap and capacities as before
        A = find_absorbing(complete(9), gamma=1e51, t=1)
        assert A.success and A.gamma6_capacity == math.floor(1e51**6 * 9)
        assert A.to_json_dict() == perround_find_absorbing(complete(9), 1e51, t=1).to_json_dict()


def _counting(calls, name, fn):
    def counted(*args):
        calls[name] += 1
        return fn(*args)

    return counted


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
        with pytest.raises(ValueError):
            absorb_leftover(K12, A, rest + [12])  # not a vertex of the host

    @pytest.mark.parametrize("k", [3, 9])
    def test_out_of_range_leftover_is_a_value_error_beyond_capacity(self, k):
        # 9 leftover vertices also exceed the capacity of 6: the range is checked first, not skipped
        H = random_triples(12, 0.5, 1)
        A = find_absorbing(H, 0.8)
        assert A.capacity == 6
        with pytest.raises(ValueError, match="vertex 100 out of range 0..11"):
            absorb_leftover(H, A, range(100, 100 + k))

    def test_rejects_absorbing_edges_outside_the_host(self):
        # A was built on the complete host; one of its edges is missing here
        K12 = complete(12)
        A = find_absorbing(K12, gamma=0.9, t=2)
        H = Hypergraph3(12, [e for e in K12.edges if e != A.edges[0]])
        left = [v for v in range(12) if all(v not in e for e in A.edges)][:3]
        with pytest.raises(ValueError, match="not an edge"):
            absorb_leftover(H, A, left)

    def test_sparse_fold_is_pruned(self, monkeypatch):
        # 15 of the 18 vertices outside a 6-edge M*: the full enumeration
        # made 377,622 absorbs() calls here, the pruned search makes 300
        # _split2 calls; the edges were recorded from the full enumeration.
        # _bits runs once per _split2 call and once per search node (and
        # twice per assigned edge), so its count bounds the nodes: 324 calls
        # with the prune, 68,434 with every partition tried to its end
        H = random_triples(36, 0.06, 3)
        A = find_absorbing(H, 0.8, t=2)
        Vp = [v for v in range(36) if all(v not in e for e in A.edges)][:15]
        calls = {"_split2": 0, "_bits": 0}
        for name in calls:
            monkeypatch.setattr(hypermatch.absorbing, name, _counting(calls, name, getattr(hypermatch.absorbing, name)))
        monkeypatch.setattr(hypermatch.absorbing, "absorbs", None)
        M = absorb_leftover(H, A, Vp)
        assert calls["_split2"] <= 1000 and calls["_bits"] <= 1000
        assert M.edges == (
            (0, 17, 27), (1, 15, 34), (2, 3, 9), (4, 6, 7), (5, 14, 19), (8, 22, 33),
            (10, 12, 35), (11, 16, 25), (13, 18, 23), (20, 24, 29), (21, 26, 28),
        )  # fmt: skip


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

    def test_leftover_phase_failure(self):
        # the augment phase leaves a triple that no absorbing edge can fold in:
        # the report keeps the augment edges and M*, and names the phase
        rep = perfect_via_absorbing(random_triples(9, 0.1, 1))
        assert rep == SolveReport(
            2, ((0, 4, 7), (1, 2, 3)), False, 3, "phase leftover: no assignment of leftover triples to absorbing edges"
        )

    def test_redundancy_shortfall_still_folds(self):
        # the search corpus's held-out absorbing-n21 instance: one tracked
        # triple has a single absorber, but the augment phase covers every
        # vertex outside M*, so nothing is left to fold
        H = _search_absorbing(20261017, 21)
        A = find_absorbing(H, gamma=0.8, t=2)
        assert not A.success and A.uncovered_triples == 1 and A.min_coverage == 1
        rep = perfect_via_absorbing(H)
        assert rep.optimal and rep.detail == "perfect matching"
        assert len(Matching(H, rep.edges).covered) == 21


# --- properties ------------------------------------------------------------------


@st.composite
def kernel_cases(draw):
    """(H, triples) with n <= 12: random triples, and every triple or a shuffled part of them."""
    n = draw(st.integers(3, 12))
    H = random_triples(n, draw(st.sampled_from([0.1, 0.3, 0.6, 0.9])), draw(st.integers(0, 2**32)))
    triples = list(combinations(range(n), 3))
    if draw(st.booleans()):
        triples = draw(st.permutations(triples))[: draw(st.integers(0, len(triples)))]
    return H, triples


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
def test_property_absorb_masks_match_absorbs(case):
    # every (edge, triple) pair: triples that meet the edge, or are edges, included
    H, triples = case
    masks, _ = _absorb_masks(H, _pair_links(H), triples)
    for i, e in enumerate(H.edges):
        mask = masks[i]
        for k, T in enumerate(triples):
            want = not set(e) & set(T) and absorbs(H, e, T)
            assert (mask >> k & 1) == want, (e, T)
        assert mask >> len(triples) == 0


@st.composite
def leftover_cases(draw):
    """(H, A, Vp): a dense random host, its absorbing matching, and a leftover within capacity."""
    n = draw(st.sampled_from([12, 15, 18]))
    H = random_triples(n, draw(st.sampled_from([0.6, 0.8, 0.95])), draw(st.integers(0, 2**32)))
    A = find_absorbing(H, draw(st.sampled_from([0.8, 0.9])), t=draw(st.integers(1, 2)))
    outside = [v for v in range(n) if all(v not in e for e in A.edges)]
    size = 3 * draw(st.integers(0, min(A.capacity, len(outside)) // 3))
    return H, A, draw(st.permutations(outside))[:size]


@settings(max_examples=40, deadline=None)
@given(leftover_cases())
def test_property_absorb_leftover_covers_exactly(case):
    H, A, Vp = case
    M = absorb_leftover(H, A, Vp)
    if M is not None:
        assert M.covered == {v for e in A.edges for v in e} | set(Vp)
        assert M.size == A.size + len(Vp) // 3


@st.composite
def sparse_leftover_cases(draw):
    """(H, A, Vp): a host with n <= 30, its absorbing matching, and at most 9 leftover vertices within capacity."""
    n = draw(st.integers(9, 30))
    H = random_triples(n, draw(st.sampled_from([0.05, 0.1, 0.2, 0.4, 0.8])), draw(st.integers(0, 2**32)))
    A = find_absorbing(H, draw(st.sampled_from([0.8, 0.9])), t=draw(st.integers(1, 2)))
    outside = [v for v in range(n) if all(v not in e for e in A.edges)]
    most = min(9, A.capacity, len(outside)) // 3
    size = 3 * draw(st.integers(min(1, most), most))  # empty only when nothing fits
    return H, A, draw(st.permutations(outside))[:size]


@settings(max_examples=80, deadline=None)
@given(sparse_leftover_cases())
def test_property_absorb_leftover_matches_naive_fold(case):
    # the same partition and assignment win, so the same edges, or None together
    H, A, Vp = case
    got, want = absorb_leftover(H, A, Vp), naive_absorb_leftover(H, A, Vp)
    assert (got and got.edges) == (want and want.edges)


# --- pinned absorbing table -----------------------------------------------------
#
# find_absorbing per (host, gamma, t, contract), recorded from the memoised
# per-(edge, triple) 2-matching search that the absorb masks replaced: the
# sha256 of the sorted JSON of the whole result, plus its edges and success.
# Any change to the edge order, the gain rule, the cap or the tracked triples
# shows up here.


def _planted(n, p, seed):
    """Random triples plus a perfect matching on a seeded permutation (the benchmark's recipe)."""
    rng = splitmix64_stream(seed)
    perm = list(range(n))
    for j in range(n - 1):
        r = j + next(rng) % (n - j)
        perm[j], perm[r] = perm[r], perm[j]
    H = random_triples(n, p, next(rng))
    return Hypergraph3(n, list(H.edges) + [perm[3 * i : 3 * i + 3] for i in range(n // 3)])


def _search_absorbing(seed, n):
    """The search corpus's absorbing-n{n} instance for a corpus seed.

    The corpus draws one instance seed per planted instance: six sparse
    augment instances first, then the absorbing instances n = 18, 21, 24.
    """
    seeds = splitmix64_stream(seed)
    for _ in range(6 + (18, 21, 24).index(n)):
        next(seeds)
    return _planted(n, 0.5, next(seeds))


def _host(spec):
    kind = spec[0]
    if kind == "planted":
        return _search_absorbing(*spec[1:])
    if kind == "random":
        return random_triples(*spec[1:])
    if kind == "star":
        return extremal_star(spec[1])[0]
    if kind == "cut":
        return cut_family(*spec[1:])[0]
    return complete(spec[1])


HOSTS = (
    [("planted", seed, n) for seed in (1, 20261017) for n in (18, 21, 24)]
    + [("random", n, p, n) for p in (0.4, 0.8) for n in range(9, 19)]
    + [("star", 12), ("star", 15), ("complete", 12), ("cut", 27, 9)]
)
SETTINGS = [(0.8, 2, False), (0.5, 1, False), (0.9, 2, True), (0.9, 3, False)]


PINNED_ABSORBING = [
    (("planted", 1, 18), 0.8, 2, False, True,
     ((0, 3, 13), (8, 11, 15), (1, 5, 16)),
     "19f761835a9e6dc4de5a415615c7d44580906bf7907e66918f1b220b18a1b32e"),
    (("planted", 1, 18), 0.5, 1, False, False,
     ((0, 3, 13),),
     "2467e078c8e3e4273ef7776af613d6b65aff622418aee51ed8da937ce7c261b7"),
    (("planted", 1, 18), 0.9, 2, True, True,
     ((0, 3, 13), (8, 11, 15), (1, 5, 16)),
     "b6e77423edc885f38a6508324b45c254e6306d4d9fb53d27101cebe028f59c21"),
    (("planted", 1, 18), 0.9, 3, False, True,
     ((0, 3, 13), (8, 11, 15), (9, 10, 12), (1, 14, 17)),
     "d18fbdb8db52868083744b0ebc55e286361d016c7085adbe46e0cd7064d381aa"),
    (("planted", 1, 21), 0.8, 2, False, True,
     ((0, 3, 17), (1, 4, 9), (2, 5, 7)),
     "ee3e75bc1592b9eb1e60e08f9eaf9b13fffb7d976f22ccc47a0f43972508b901"),
    (("planted", 1, 21), 0.5, 1, False, False,
     ((0, 3, 17),),
     "e91cce334f8e34b9fb02741746de30d42ac5b452347e5a473a186035977c4529"),
    (("planted", 1, 21), 0.9, 2, True, True,
     ((0, 3, 17), (1, 4, 9), (2, 5, 7)),
     "546b2635576d4290a9b6556d2a9065221fad7a2820347b3db228af7f3c797cab"),
    (("planted", 1, 21), 0.9, 3, False, True,
     ((0, 3, 17), (1, 4, 9), (5, 13, 14), (2, 6, 10)),
     "6ef675c5afdce59d1be387ed99ee93fca6fa8f1512dc35c7ebd184137421d554"),
    (("planted", 1, 24), 0.8, 2, False, True,
     ((2, 5, 18), (4, 10, 14), (11, 16, 17)),
     "6d285a6a48ef756d608a94b5fdcb8cac7db849388e0e82fdfbdae60bbd0feba2"),
    (("planted", 1, 24), 0.5, 1, False, False,
     ((2, 5, 18),),
     "a721a0abbdb6a5d9825a73355bcb557e586992c86ebbb8e91f19eddb58b44f89"),
    (("planted", 1, 24), 0.9, 2, True, True,
     ((2, 5, 18), (4, 10, 14), (11, 16, 17)),
     "a6026af3caa226d8f5e6a6b74f139ea8bf81eadf6a99f386272adedcacb81829"),
    (("planted", 1, 24), 0.9, 3, False, True,
     ((2, 5, 18), (4, 10, 14), (3, 9, 13), (1, 12, 20)),
     "1e6d43b6d4ff524146e7aa38110726ffeb544c0a801833bc19cd1e7a788c1df5"),
    (("planted", 20261017, 18), 0.8, 2, False, True,
     ((0, 2, 8), (1, 3, 5)),
     "31cccc9afb8dd5e879b6579cfc989307e839e80bcf22ef9c5c973b124477da27"),
    (("planted", 20261017, 18), 0.5, 1, False, False,
     ((0, 2, 8),),
     "027cfe9a6c80589c38fdca87c00d8174099a13b2990816fd4b0583451856b83e"),
    (("planted", 20261017, 18), 0.9, 2, True, True,
     ((0, 2, 8), (1, 3, 5)),
     "d4fa12361001c6e6fccc49beb4b5b5eb741e0abe8fdd18f4c23d14ced385f0ca"),
    (("planted", 20261017, 18), 0.9, 3, False, True,
     ((0, 2, 8), (1, 3, 5), (4, 7, 15)),
     "0b678ac4fca6bdcb90bb47765b7b49fae3509aca6fcaff7cbf626eeb6b590411"),
    (("planted", 20261017, 21), 0.8, 2, False, False,
     ((9, 15, 19), (1, 2, 14), (3, 12, 18)),
     "fa5601b8f5456b71762be89bea568f504417f4ef1e1777311bb0e4786e571dbe"),
    (("planted", 20261017, 21), 0.5, 1, False, False,
     ((9, 15, 19),),
     "adc0affe175d823e331d05041459f76fa8d2cf250a378989637642c7a077a6e7"),
    (("planted", 20261017, 21), 0.9, 2, True, True,
     ((9, 15, 19), (1, 2, 14), (3, 12, 18), (4, 5, 7)),
     "28cfb838dad43ec08f4a9a63b0184dff1eab52b98ee156fd8e5263f70a09d559"),
    (("planted", 20261017, 21), 0.9, 3, False, True,
     ((9, 15, 19), (1, 2, 14), (0, 4, 17), (3, 12, 18)),
     "6dccb68e869f5d3c7381c5cca7f2aeb0aef84c9a67402ea6976cb55e3493d6ef"),
    (("planted", 20261017, 24), 0.8, 2, False, True,
     ((1, 12, 14), (9, 11, 17), (4, 8, 19)),
     "bf5b36d86b415cca72a8365583a67bd600dbf6d7a2bf3814a91e9089cdf60b43"),
    (("planted", 20261017, 24), 0.5, 1, False, False,
     ((1, 12, 14),),
     "bdd898757e9a72424ccfeddc2005af60c5ad3679b78bf616c5dfcb9f6d0501f4"),
    (("planted", 20261017, 24), 0.9, 2, True, True,
     ((1, 12, 14), (9, 11, 17), (4, 8, 19)),
     "8210f02f0b750515a6d94b8cb501642a25a9b7413185bd4882f4973e16b66ffd"),
    (("planted", 20261017, 24), 0.9, 3, False, True,
     ((1, 12, 14), (9, 11, 17), (6, 8, 18), (2, 4, 10)),
     "be6534f9655b6d5c214cf8ea96905e1bd1ba5de0ee9e61e3b44c917547fa5020"),
    (("random", 9, 0.4, 9), 0.8, 2, False, False,
     ((1, 4, 6),),
     "001a382bf2626218b2e8d908a79cfe1a9dfa086d908a9ddc33516301dfbb8210"),
    (("random", 9, 0.4, 9), 0.5, 1, False, False,
     ((1, 4, 6),),
     "0690a0ce00c77eab658b0163c55bc614bed6d0eed5ffc1cbe058e72bf1d0ad36"),
    (("random", 9, 0.4, 9), 0.9, 2, True, False,
     ((1, 4, 6), (0, 2, 7)),
     "a9d5ea1a40caffd573b5a8bba794f10c26fa13011d189146bda5e2ffb5956c5f"),
    (("random", 9, 0.4, 9), 0.9, 3, False, False,
     ((1, 4, 6), (0, 2, 7)),
     "6719070e88c4e4266131673b5eada49aaa8e3e69a77285337d7026a4999f396b"),
    (("random", 10, 0.4, 10), 0.8, 2, False, False,
     ((2, 4, 8),),
     "f34ddd812c46b2066f384f380df74ba2116defe53b10dd1411e479514b9e2270"),
    (("random", 10, 0.4, 10), 0.5, 1, False, True,
     ((2, 4, 8),),
     "7dd3973ef93b91cb00b425d9bf3a6ad2a91e8bb0e2392f3e2317ce799605358b"),
    (("random", 10, 0.4, 10), 0.9, 2, True, False,
     ((2, 4, 8), (0, 3, 5)),
     "7c0754c550b27e640b9e1a71c69d92c464ea3f2b8b405704fdbbe5d2e5392144"),
    (("random", 10, 0.4, 10), 0.9, 3, False, False,
     ((2, 4, 8), (0, 3, 5)),
     "d56e453c293b85dc7333919b2da4493bdd04da4caa0d50534449da16fa1a563e"),
    (("random", 11, 0.4, 11), 0.8, 2, False, False,
     ((4, 7, 10),),
     "abb561656b05dcf67509267c65f0f3dcdbfc4f6eca824a0579ee4c0c7453b3a5"),
    (("random", 11, 0.4, 11), 0.5, 1, False, False,
     ((4, 7, 10),),
     "bf58b35a869277c3c16520a40bea0931bbfe0b1f437b6c135551c4bc1ed86502"),
    (("random", 11, 0.4, 11), 0.9, 2, True, False,
     ((4, 7, 10), (0, 1, 8)),
     "17a39fcfe4b99493601c9d7bfd3ec57aa330fd03d7249b08e8220eaac267e266"),
    (("random", 11, 0.4, 11), 0.9, 3, False, False,
     ((4, 7, 10), (0, 1, 8)),
     "85a518e96119b15a0e76ee50183736198d3576ed7e4dcf8e051c8b82208e71b4"),
    (("random", 12, 0.4, 12), 0.8, 2, False, True,
     ((3, 4, 10), (0, 1, 11)),
     "9596147097f2dd9bca2d34fa66c58a6e09c295708820c395583c2b6bd688ffba"),
    (("random", 12, 0.4, 12), 0.5, 1, False, False,
     ((3, 4, 10),),
     "448136d84d727cb5a11123c428191ba74ce0aa2cbf8a2d237dd5a4ec5fa1246c"),
    (("random", 12, 0.4, 12), 0.9, 2, True, True,
     ((3, 4, 10), (0, 1, 11)),
     "2c0cbfe4cfe045f5d69cc08db48ca45d7244fcb0019053a3ded97cee92944f6d"),
    (("random", 12, 0.4, 12), 0.9, 3, False, False,
     ((3, 4, 10), (0, 1, 11)),
     "d19f82c42977cba0069a028d9e549af59bccffcf8388c6f14a9ee0beedf16fde"),
    (("random", 13, 0.4, 13), 0.8, 2, False, False,
     ((3, 9, 11), (6, 7, 10)),
     "79c32553675bcf8e29ec6a9377aa2b5cdb5f38864584f856b928fe43272854ab"),
    (("random", 13, 0.4, 13), 0.5, 1, False, False,
     ((3, 9, 11),),
     "5742f1859a567bd0d6413cf3932300d754f2d728427f588d9c2c2683b44d5452"),
    (("random", 13, 0.4, 13), 0.9, 2, True, True,
     ((3, 9, 11), (6, 7, 10), (1, 4, 8)),
     "03cb2d5d938b1e2d5272d44fc55e2ea72abcafa9bfad0adb3841513494be63fe"),
    (("random", 13, 0.4, 13), 0.9, 3, False, True,
     ((3, 9, 11), (6, 7, 10), (0, 4, 8)),
     "e6f68c54a74e7db9bb6beb788e737aa2f21e1b8cbcc997f25df34e26d3455e8e"),
    (("random", 14, 0.4, 14), 0.8, 2, False, False,
     ((0, 3, 13), (1, 9, 11)),
     "6ee39607dab95294ef32b32d41985c04e261d7c3023bf0db917d19df83e62684"),
    (("random", 14, 0.4, 14), 0.5, 1, False, False,
     ((0, 3, 13),),
     "594ed829f3a93f7037c546a56e60b04c092fd7bbc94e3f5c3a041b6c771b7394"),
    (("random", 14, 0.4, 14), 0.9, 2, True, True,
     ((0, 3, 13), (1, 9, 11), (2, 6, 12)),
     "6f613499629677acb6219247c8e66dbe1b2f92a817141ec6093a7a5f247181e1"),
    (("random", 14, 0.4, 14), 0.9, 3, False, True,
     ((0, 3, 13), (1, 9, 11), (7, 10, 12)),
     "193479de3dcc3c70503689e88483482fcecd56bcd0f8cf86d0b6d49573757cc1"),
    (("random", 15, 0.4, 15), 0.8, 2, False, False,
     ((6, 7, 14), (0, 9, 10)),
     "5cf80253a37c0301a200fbc6a8d330c3fc44242d9da776fda80f7fc896111f87"),
    (("random", 15, 0.4, 15), 0.5, 1, False, False,
     ((6, 7, 14),),
     "0d56719fcd5d672ea2ee067db780620831f494c464e5c2c1e254477c89dda0ad"),
    (("random", 15, 0.4, 15), 0.9, 2, True, True,
     ((6, 7, 14), (0, 9, 10), (1, 3, 5)),
     "81dec2bc1ccd0d7c3b2f0a482dc969ac16fb2b92a9249de061faf613853d0d38"),
    (("random", 15, 0.4, 15), 0.9, 3, False, True,
     ((6, 7, 14), (0, 9, 10), (3, 4, 8)),
     "6cbb30aef55f5488ad892ba7606c20b9e48a7e9db45c06987031007ddec3a3fc"),
    (("random", 16, 0.4, 16), 0.8, 2, False, False,
     ((4, 8, 14), (2, 9, 13)),
     "56316c84de8548ef1481ca9c7276744bb28a3e724b8d0852342a628ad7fe110b"),
    (("random", 16, 0.4, 16), 0.5, 1, False, False,
     ((4, 8, 14),),
     "60bf0c482b9a619d31bf833d0b9db2f2e38bb738bea8192290736bac2280a234"),
    (("random", 16, 0.4, 16), 0.9, 2, True, False,
     ((4, 8, 14), (2, 9, 13), (0, 6, 7)),
     "9262765fefcdda12ae0d63e2d5b36ba9afc0af492f4b4a3c299e989354705016"),
    (("random", 16, 0.4, 16), 0.9, 3, False, False,
     ((4, 8, 14), (2, 9, 13), (1, 7, 12)),
     "c07af9c47a3c3482c07b2fef8b77ce92a0301cd2e0ac74fcab8b6fae62fe1cf7"),
    (("random", 17, 0.4, 17), 0.8, 2, False, False,
     ((2, 11, 14), (0, 1, 3)),
     "a2448c6a49a5c6ee349388fd73345dacd2c692bfc239d8cbc4bbad9fbc439b15"),
    (("random", 17, 0.4, 17), 0.5, 1, False, False,
     ((2, 11, 14),),
     "cff51a661f02a47e787cfdc1bb04fe04b51961747b908e0ed52053a2454149b2"),
    (("random", 17, 0.4, 17), 0.9, 2, True, True,
     ((2, 11, 14), (0, 1, 3), (4, 9, 15)),
     "0a913699f5cbc2605bc75b48f69a5072df72ccd408896684b27dfdcb6fe7aa9d"),
    (("random", 17, 0.4, 17), 0.9, 3, False, True,
     ((2, 11, 14), (0, 1, 3), (7, 8, 15), (4, 12, 13)),
     "9836f817abbcd9e72a8842a4175d0ec83a017c1feffb04559f2dcbafbc13e41f"),
    (("random", 18, 0.4, 18), 0.8, 2, False, False,
     ((1, 10, 11), (4, 7, 9), (8, 13, 17)),
     "ca3f0c4179b44a545574143a70a46b7b9338fdcd88a828c0ce3195edd4acef0a"),
    (("random", 18, 0.4, 18), 0.5, 1, False, False,
     ((1, 10, 11),),
     "3992a78113f1c610dfd1b16018f329e17b8136e47bc0d9ac2d5f335c56bfed71"),
    (("random", 18, 0.4, 18), 0.9, 2, True, True,
     ((1, 10, 11), (4, 7, 9), (8, 13, 17), (0, 3, 15)),
     "12e02aeeebe3335b5ca6d209297f44af427ba927b6b4b7c55401afb2fd40bec7"),
    (("random", 18, 0.4, 18), 0.9, 3, False, False,
     ((1, 10, 11), (4, 7, 9), (0, 8, 14), (13, 16, 17)),
     "8cb22a98d4431d93ff7f317b1f9bd5b0feca9f685f55b96cddb125290c7cef76"),
    (("random", 9, 0.8, 9), 0.8, 2, False, False,
     ((0, 1, 2),),
     "817ff8b3162464e52b7817f7c29ffb8572c927e28574c1230d45bf1c7354ffa7"),
    (("random", 9, 0.8, 9), 0.5, 1, False, True,
     ((0, 1, 2),),
     "4e98291b192ec3e94c4051b94b17e67c7a6b0f9cae21e00c8bc82637e77ad63b"),
    (("random", 9, 0.8, 9), 0.9, 2, True, True,
     ((0, 1, 2), (3, 4, 5)),
     "cb0f62b6f260f8c4344b581873600f0549f25b5206d494ff40c000d00cff0d2c"),
    (("random", 9, 0.8, 9), 0.9, 3, False, False,
     ((0, 1, 2), (3, 4, 5)),
     "81ef969a7e24a6314b45c4d0dec2e6a7eab0fc5d57fb8d99af25edf87aa842f4"),
    (("random", 10, 0.8, 10), 0.8, 2, False, False,
     ((0, 1, 2),),
     "c1277ee6ae333e14606dd61a439ad77876d87959dd3ffd5d280334789e7822b5"),
    (("random", 10, 0.8, 10), 0.5, 1, False, True,
     ((0, 1, 2),),
     "0ec64589f05b39c09083eee3564d8c8dda9ca4a2447317d7088bde5e5a5e5129"),
    (("random", 10, 0.8, 10), 0.9, 2, True, True,
     ((0, 1, 2), (3, 4, 5)),
     "1286f1717db17f37e253c8642f5eaad823e13f64db280bcaac7d2bcc30ce7768"),
    (("random", 10, 0.8, 10), 0.9, 3, False, False,
     ((0, 1, 2), (3, 4, 5)),
     "6e0f19f1355bb8ff14f187f5be1f1366fd3af5efc12937e3e852b5699bc6676e"),
    (("random", 11, 0.8, 11), 0.8, 2, False, False,
     ((0, 1, 2),),
     "2c212917b5924abcc2264be72977f5affd0bbcb43017a0b10e1bebf87f1525b5"),
    (("random", 11, 0.8, 11), 0.5, 1, False, True,
     ((0, 1, 2),),
     "4cb2324bcd44ec3f1d81c7598c32fd6dd395c44c1909d5f11a2ee264a60aefcb"),
    (("random", 11, 0.8, 11), 0.9, 2, True, True,
     ((0, 1, 2), (3, 4, 5)),
     "d1fa875e97280256e2c4068b81ccb0c1edb75762d7a713e21f6c7b01358e9fec"),
    (("random", 11, 0.8, 11), 0.9, 3, False, False,
     ((0, 1, 2), (3, 4, 5)),
     "5636d28631ef829e908d619ada26a8c1e07529ebb2102cdc8040e42954695207"),
    (("random", 12, 0.8, 12), 0.8, 2, False, True,
     ((0, 1, 2), (3, 4, 6)),
     "833606b7e599bc7095094432b6d68e8bd766837b7438f2662600f4ca09df50fd"),
    (("random", 12, 0.8, 12), 0.5, 1, False, True,
     ((0, 1, 2),),
     "607a1b5d0c8ee3c440fed95f17db8754168680f23f7456f1cf6bd7e1ceebe8a8"),
    (("random", 12, 0.8, 12), 0.9, 2, True, True,
     ((0, 1, 2), (3, 4, 6)),
     "59ac0bc5827743d2e79f65cc5cf2943a53f7f84f37b56fbfd8741e6cdd08b499"),
    (("random", 12, 0.8, 12), 0.9, 3, False, False,
     ((0, 1, 2), (3, 4, 6)),
     "aafc93aedf87654eca651e023d93a99666975d45b597c35cad64005a8e7fc297"),
    (("random", 13, 0.8, 13), 0.8, 2, False, True,
     ((0, 1, 2), (3, 4, 5)),
     "deedcdcb3167aea5f2d486e75dea37042cbdc478bb077033dac7d70b0beeca91"),
    (("random", 13, 0.8, 13), 0.5, 1, False, True,
     ((0, 1, 2),),
     "8b737db31591dee096eefe19e5475d6703216911d4742f3d5e27501503d5c73f"),
    (("random", 13, 0.8, 13), 0.9, 2, True, True,
     ((0, 1, 2), (3, 4, 5)),
     "785731463a9fd4128e6dd9d30358cb88c4b3d815b0d10723eb309f50d64e78ee"),
    (("random", 13, 0.8, 13), 0.9, 3, False, True,
     ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
     "a245a7267062af465b01c51b6cbd1995aa483f8c0e2a2990f424aaa9e2d4f533"),
    (("random", 14, 0.8, 14), 0.8, 2, False, True,
     ((0, 1, 2), (3, 4, 6)),
     "096be92415cae3791a3f742cf88d518d8b5cedcf9ec6ad3fe75d1f12fe7120a3"),
    (("random", 14, 0.8, 14), 0.5, 1, False, True,
     ((0, 1, 2),),
     "ee866c1f3779626e3f55a8c7975b83b220b391d55292185e4853252bf3fe81bf"),
    (("random", 14, 0.8, 14), 0.9, 2, True, True,
     ((0, 1, 2), (3, 4, 6)),
     "59314cf469a9dca892bc570e3a537d2003efdef43e87d2965246f0a3aa892894"),
    (("random", 14, 0.8, 14), 0.9, 3, False, True,
     ((0, 1, 2), (3, 4, 6), (5, 7, 8)),
     "9ad92046209cc3dafe7ea1cf6a2522d7952945ecb8abbc1ec2b035e75fe45bb4"),
    (("random", 15, 0.8, 15), 0.8, 2, False, True,
     ((0, 1, 2), (3, 4, 5)),
     "f7a347dda903182e88f0a20db98da509255cb4a4703e4452fe7eb09694bc7277"),
    (("random", 15, 0.8, 15), 0.5, 1, False, True,
     ((0, 1, 2),),
     "4857dad1bf582971b4de2d3e784bdc13d639c53455f591af5feb7d5607825dd8"),
    (("random", 15, 0.8, 15), 0.9, 2, True, True,
     ((0, 1, 2), (3, 4, 5)),
     "c2fb4298a667f04d9fba1baf89fd02a32f60394439f0e067c0565f369595fd76"),
    (("random", 15, 0.8, 15), 0.9, 3, False, True,
     ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
     "b51ee744581f99e47893dbebbf93510e18737a24379afc1fa850ca7526f1dbec"),
    (("random", 16, 0.8, 16), 0.8, 2, False, True,
     ((0, 1, 2), (3, 4, 5)),
     "4b7b5bed775aa8a7f8ef226199e7637c0b92559ff29c04404974776378a67e03"),
    (("random", 16, 0.8, 16), 0.5, 1, False, True,
     ((0, 1, 2),),
     "ea49ff4afbbc0fd33ab71cd9f61e201f4893f58ee6de8d6c0f347bff23c5f766"),
    (("random", 16, 0.8, 16), 0.9, 2, True, True,
     ((0, 1, 2), (3, 4, 5)),
     "3e30dbb53f4129ec54357559580e8762497f5fb290938f19850796c6fd275ec4"),
    (("random", 16, 0.8, 16), 0.9, 3, False, True,
     ((0, 1, 2), (3, 4, 5), (6, 7, 9)),
     "f67a16e7d8f76cd6128fccd02ad5ac5d1f0f28ec7fed6b74e53f4f03ee3c173c"),
    (("random", 17, 0.8, 17), 0.8, 2, False, True,
     ((0, 1, 2), (3, 4, 5)),
     "2e64e16da7b8bb5c470db8e5df95851d64396bd8ec6f6501a617eb033466ca96"),
    (("random", 17, 0.8, 17), 0.5, 1, False, True,
     ((0, 1, 2),),
     "1915ded6fd0fb10f6f13f87b41661b3513487b91c55d2b2d3af50f8cf92de8df"),
    (("random", 17, 0.8, 17), 0.9, 2, True, True,
     ((0, 1, 2), (3, 4, 5)),
     "d692493349a85d5be0975f074e29eb654a3cca38d7aa78740956ef4efd93d38d"),
    (("random", 17, 0.8, 17), 0.9, 3, False, True,
     ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
     "28041d2aa9536b63a02a6572edad13d575776091b13441434c870a034d44ee08"),
    (("random", 18, 0.8, 18), 0.8, 2, False, True,
     ((0, 1, 2), (3, 4, 5)),
     "432e28bb3829d592150f3cd05f21d1bad6743d844a705ba9f91299df377afb21"),
    (("random", 18, 0.8, 18), 0.5, 1, False, True,
     ((0, 1, 2),),
     "3d8f13319f283c5d23f610fc8e16c8557789379e3c74b2db8c4c1da3985c7604"),
    (("random", 18, 0.8, 18), 0.9, 2, True, True,
     ((0, 1, 2), (3, 4, 5)),
     "bcafe26deb96e0014c676beaa68bb075fb0d60a55169e547f3656df829fcb5fb"),
    (("random", 18, 0.8, 18), 0.9, 3, False, True,
     ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
     "b267c9c04b617f26d7120fa55181c217684e3cc9f0a92ade643a730cfd6489aa"),
    (("star", 12), 0.8, 2, False, False,
     ((0, 9, 10),),
     "8c99a6232797c11d5ea0afd6fd08661bdd474b3656e419939426e00c91a15ca1"),
    (("star", 12), 0.5, 1, False, True,
     ((0, 9, 10),),
     "d1ea9cc0ff4f7029cf9e5009dcef38156e1823b008cd69d4ace365813f1e835b"),
    (("star", 12), 0.9, 2, True, False,
     ((0, 9, 10),),
     "95ac802a6f45fc298a55cd730863a957d4a4a7df30da80b41e7811f4c93fd069"),
    (("star", 12), 0.9, 3, False, False,
     ((0, 9, 10),),
     "ae6104b53b7fd7f125c5e632ead9163b29119dad61f82548003b31f9fa78b376"),
    (("star", 15), 0.8, 2, False, True,
     ((0, 11, 12), (1, 13, 14)),
     "0ae57cad80cb503448e1f3fdd38d7a068c43bb9a52e23837fa23540130cc373a"),
    (("star", 15), 0.5, 1, False, True,
     ((0, 11, 12),),
     "5dd4ffb76692c1e0838e5b43e85acde7ee77beaa3dc01452298d9e4538918f59"),
    (("star", 15), 0.9, 2, True, True,
     ((0, 11, 12), (1, 13, 14)),
     "f57e15d66eb1010874838fb66e5407265fb493eef997f7c974aea84b9062a5c7"),
    (("star", 15), 0.9, 3, False, False,
     ((0, 11, 12), (1, 13, 14)),
     "b43d8056f84ae04d887bbf5aa21ba4cd3d18f2a26c53cb752beb8b3e26b91ad3"),
    (("complete", 12), 0.8, 2, False, True,
     ((0, 1, 2), (3, 4, 5)),
     "9e97d2732734d4883132238c261c35f409bebb65bede56e97d104477fa66c03a"),
    (("complete", 12), 0.5, 1, False, True,
     ((0, 1, 2),),
     "607a1b5d0c8ee3c440fed95f17db8754168680f23f7456f1cf6bd7e1ceebe8a8"),
    (("complete", 12), 0.9, 2, True, True,
     ((0, 1, 2), (3, 4, 5)),
     "648f20a0f013872b19ccc3622f235e1138a9f935b50fdb9b08b97d7d908f2b84"),
    (("complete", 12), 0.9, 3, False, False,
     ((0, 1, 2), (3, 4, 5)),
     "13ed3a23033442a1edf58b52627c5cd045c40e67a250a522af6d92b8b1df4c4a"),
    (("cut", 27, 9), 0.8, 2, False, True,
     ((0, 18, 19), (1, 20, 21), (2, 3, 22), (4, 5, 23)),
     "c11012126c749cc97920ca2e94ede8d984dfa9afa8891ab7d3242136226e8560"),
    (("cut", 27, 9), 0.5, 1, False, False,
     ((0, 18, 19),),
     "4ae4bf962918c9a6f9e4a48a4369b0ed49da991ec540451f13313757528b2e31"),
    (("cut", 27, 9), 0.9, 2, True, True,
     ((0, 18, 19), (1, 20, 21), (2, 3, 22), (4, 5, 23)),
     "767273129540638e1c2dee955e8f7c2f262c15b7f484c264aafcb80185cd7e09"),
    (("cut", 27, 9), 0.9, 3, False, False,
     ((0, 18, 19), (1, 20, 21), (2, 22, 23)),
     "24579351ebf3edafa5f70c9a0d8724e19d89d414d59d4aec8112306fa1786486"),
    # 39 vertices stay outside M*, but the first round samples 10^4 of C(42, 3) triples
    (("random", 42, 0.05, 11), 0.5, 1, False, False,
     ((9, 21, 24),),
     "85fecfc5916d899cb2c086e129e9671c6d7394e763c281d47cc3a9abf04b70ee"),
    # two rounds sample 10^4 triples (45 and 42 vertices outside), each from
    # the start of the seeded stream; the second round's samples pick the
    # second edge
    (("random", 45, 0.04, 2), 0.8, 2, False, False,
     ((31, 33, 44), (2, 28, 37), (1, 25, 41), (14, 26, 35), (18, 19, 22), (9, 13, 42), (17, 32, 34)),
     "bcfc3acea78c5bbdf7fccac74d9bcbabb431c3dda1bed77dab4eca61888417e5"),
]


@pytest.mark.parametrize(
    "spec,gamma,t,contract,success,edges,digest",
    PINNED_ABSORBING,
    ids=[f"{row[0]}-{row[1]}-{row[2]}-{row[3]}" for row in PINNED_ABSORBING],
)
def test_pinned_absorbing(spec, gamma, t, contract, success, edges, digest):
    A = find_absorbing(_host(spec), gamma, t=t, contract=contract)
    assert (A.success, A.edges) == (success, edges)
    assert hashlib.sha256(json.dumps(A.to_json_dict(), sort_keys=True).encode()).hexdigest() == digest


# --- one mask build per call -----------------------------------------------------


@st.composite
def oracle_cases(draw):
    """A random host with n <= 18, dense or sparse, sometimes with a planted perfect matching."""
    n = draw(st.integers(0, 18))
    p = draw(st.sampled_from([0.05, 0.2, 0.5, 0.8, 1.0]))
    seed = draw(st.integers(0, 2**32))
    if n % 3 == 0 and draw(st.booleans()):
        return _planted(n, p, seed)
    return random_triples(n, p, seed)


@settings(max_examples=40, deadline=None)
@given(oracle_cases(), st.integers(0, 2**32))
def test_property_matches_perround_oracle(H, seed):
    # the whole report, absorb_index order and verification label included
    for gamma, t, _ in SETTINGS:
        for contract in (False, True):
            got = find_absorbing(H, gamma, t=t, seed=seed, contract=contract)
            want = perround_find_absorbing(H, gamma, t=t, seed=seed, contract=contract)
            assert got.to_json_dict() == want.to_json_dict(), (gamma, t, contract)


@pytest.mark.parametrize(
    "H,builds",
    [
        # every round tracks every triple: one index of C(24, 3)
        (_search_absorbing(1, 24), [2024]),
        # two rounds sample 10^4 triples (45 and 42 vertices outside), then one
        # index of C(39, 3) serves the other six rounds
        (random_triples(45, 0.04, 2), [10_000, 10_000, 9139]),
    ],
    ids=["planted-24", "random-45"],
)
def test_mask_builds_per_call(monkeypatch, H, builds):
    calls = []  # the number of triples each build indexes
    build_masks = hypermatch.absorbing._absorb_masks

    def counted(*args):
        calls.append(len(args[2]))
        return build_masks(*args)

    monkeypatch.setattr(hypermatch.absorbing, "_absorb_masks", counted)
    A = find_absorbing(H, 0.8)
    assert calls == builds
    assert A.to_json_dict() == perround_find_absorbing(H, 0.8).to_json_dict()


def test_sampling_rounds_keep_no_stream_buffer():
    # two rounds sample 10^4 triples, each from a stream started afresh from
    # the seed, so no draw outlives its round; a copy of every draw kept for
    # the whole call adds about 3 MB to a peak of about 7 MB
    H = random_triples(45, 0.04, 2)
    tracemalloc.start()
    try:
        A = find_absorbing(H, 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (A.size, A.verification) == (7, "sampled")
    assert peak < 8 * 2**20
