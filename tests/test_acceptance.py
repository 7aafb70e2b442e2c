"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they print.  Every tolerance and runtime bound is asserted inline.

Check 9a scans the d-matching degree boundary threshold(n,d) =
C(n-1,2) - C(n-d,2) against the quadratic form (1 - (1-d/n)^2) n^2/2 =
d(n - d/2).  It asserts the exact identity 2*threshold = d(2n-d) -
(2n+d-2), so the boundary sits n + d/2 - 1 below the quadratic form, and
the lower bound threshold >= (1 - 3/(2d)) d(n - d/2), which holds with
margin (2n - 5d + 4)/4 for d <= n/3.  An earlier form with slack
(1 - 3/n) was dropped: a relative slack of 3/n covers a gap of about 3d,
not one of order n, and at d = 1 the boundary is 0.  That 3/n bound holds
for the cut family's minimum degree C(n-1,2) - C(n-d-1,2) and is asserted
in test_constructions.py::TestCutFamily::test_delta1_dominates_quadratic_form.
"""

import json
import math
import time
from contextlib import contextmanager
from itertools import combinations

from hypermatch.absorbing import absorbs, find_absorbing, perfect_via_absorbing
from hypermatch.augment import AugmentConfig, augment_once, solve as augment_solve
from hypermatch.cli import main as cli_main
from hypermatch.constructions import (
    blocker_family,
    cut_family,
    extremal_star,
    random_triples,
    splitmix64_stream,
)
from hypermatch.core import Matching, threshold
from hypermatch.exact import has_d_matching, max_matching, max_matching_in_subset
from hypermatch.extremal import good_case_matching
from hypermatch.links import PatternKind, base_edge, classify, verify_fact1
from move_fixtures import five_for_six_fixture, one_for_two_fixture, two_for_three_fixture
from oracles import naive_max_matching


@contextmanager
def criterion(num: str, desc: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL {desc} ({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    print(f"[criterion {num}] PASS {desc} ({dt:.2f}s)")
    assert dt < limit_s, f"criterion {num} exceeded its {limit_s}s budget ({dt:.2f}s)"


def test_criterion_1_pattern_classification():
    with criterion("1", "exhaustive 3x3 pattern classification, 512 cases", 1.0):
        rep = verify_fact1()
        assert rep["total"] == 512
        assert rep["violations"] == 0
        # 7+ edges always have a perfect matching
        for e in ("7", "8", "9"):
            assert set(rep["counts_by_edge_count"][e]) == {"pm"}
        # 6 edges without one: only b033; 5 edges: only b023/b113
        assert set(rep["counts_by_edge_count"]["6"]) == {"pm", "b033"}
        assert set(rep["counts_by_edge_count"]["5"]) == {"pm", "b023", "b113"}
        # base-edge extraction agrees with the reference edge list
        ref = 0
        for i, j in [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]:
            ref |= 1 << (3 * i + j)
        assert classify(ref).kind is PatternKind.B113
        assert base_edge(ref) == (0, 0)


def test_criterion_2_tightness_certificates():
    with criterion("2", "star family: exact degree and certified max matching", 10.0):
        for n in (6, 9, 12, 15):
            H, _ = extremal_star(n)
            assert H.min_degree(1) == math.comb(n - 1, 2) - math.comb(2 * n // 3, 2)
            rep = max_matching(H)
            assert rep.optimal
            assert rep.size == n // 3 - 1
            Matching(H, rep.edges)


def test_criterion_3_cut_family_certificates():
    with criterion("3", "cut family: degree formula + constructed d-matching", 30.0):
        for n in range(3, 16):
            for d in range(0, n // 3 + 1):
                H, P = cut_family(n, d)
                assert H.min_degree(1) == math.comb(n - 1, 2) - math.comb(n - d - 1, 2)
                M = good_case_matching(H, P, d)
                assert M is not None and M.size == d
                status, _ = has_d_matching(H, d)
                assert status == "yes"


def test_criterion_4_blocker_certificates():
    with criterion("4", "blocker family: max matching d-1, degree at the boundary", 10.0):
        for n in range(3, 16):
            for d in range(1, n // 3 + 1):
                H, _ = blocker_family(n, d)
                rep = max_matching(H)
                assert rep.optimal and rep.size == d - 1
                assert H.min_degree(1) == threshold(n, d)


def test_criterion_5_oracle_cross_validation():
    with criterion("5", "exact solver vs naive enumeration, 500 instances", 60.0):
        for seed in range(500):
            n = 5 + seed % 5
            p = 0.1 * (1 + seed % 9)
            H = random_triples(n, p, seed)
            rep = max_matching(H)
            assert rep.optimal
            assert rep.size == naive_max_matching(H), f"seed={seed}"
            Matching(H, rep.edges)


def test_criterion_6_augmenting_quality():
    with criterion("6", "local search: oracle agreement >= 95% + named moves", 300.0):
        total = 0
        agree = 0
        misses = []
        for seed in range(1000, 1200):
            n = 8 + seed % 5
            p = 0.1 * (1 + seed % 9)
            H = random_triples(n, p, seed)
            oracle = max_matching(H)
            assert oracle.optimal
            rep, _ = augment_solve(H, n // 3)
            assert rep.size <= oracle.size
            total += 1
            if rep.size == oracle.size:
                agree += 1
            else:
                misses.append((seed, n, p, rep.size, oracle.size))
        if misses:
            print(f"  local-search misses ({len(misses)}): {misses}")
        assert agree >= math.ceil(0.95 * total), misses

        H, M = one_for_two_fixture()
        got = augment_once(H, M, AugmentConfig(k_max=1))
        assert got is not None and got[0].size == M.size + 1

        H, M = two_for_three_fixture()
        got = augment_once(H, M, AugmentConfig(k_max=2))
        assert got is not None and got[0].size == M.size + 1

        H, M = five_for_six_fixture()
        got = augment_once(H, M, AugmentConfig(k_max=5))
        assert got is not None and got[0].size == M.size + 1


def test_criterion_7_absorbing_pipeline():
    with criterion("7", "absorbing pipeline: 20 perfect matchings + probe agreement", 300.0):
        for seed in range(1, 21):
            n = 12 if seed % 2 else 15
            H = random_triples(n, 0.8, seed)
            rep = perfect_via_absorbing(H, cfg=AugmentConfig(seed=seed))
            assert rep.optimal, f"seed={seed}: {rep.detail}"
            M = Matching(H, rep.edges)
            assert len(M.covered) == n

        rng = splitmix64_stream(1234)
        hosts = [
            random_triples(12, 0.5, 1),
            random_triples(12, 0.8, 2),
            random_triples(15, 0.6, 3),
            extremal_star(12)[0],
        ]
        probes = 0
        while probes < 10_000:
            H = hosts[next(rng) % len(hosts)]
            e = H.edges[next(rng) % H.m]
            rest = [v for v in range(H.n) if v not in e]
            T = []
            while len(T) < 3:
                v = rest[next(rng) % len(rest)]
                if v not in T:
                    T.append(v)
            direct = absorbs(H, e, tuple(T))
            via_solver = max_matching_in_subset(H, list(e) + T).size == 2
            assert direct == via_solver
            probes += 1

        # size contract whenever contract mode reports success
        for seed, gamma in ((9, 0.9), (12, 0.95)):
            H = random_triples(15, 0.85, seed)
            A = find_absorbing(H, gamma=gamma, t=2, contract=True)
            if A.success:
                assert A.size <= gamma**3 * H.n / 3


def test_criterion_8_exhaustive_micro_threshold(tmp_path):
    with criterion("8", "exhaustive n=6 sweep: completion + byte determinism", 600.0):
        out1 = tmp_path / "thr1.json"
        out2 = tmp_path / "thr2.json"
        assert cli_main(["verify", "thresholds", "--n", "6", "--d", "2", "--out", str(out1)]) == 0
        assert cli_main(["verify", "thresholds", "--n", "6", "--d", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rep = json.loads(out1.read_text())
        assert rep["total_hypergraphs"] == 2**20
        assert rep["threshold_formula"] == threshold(6, 2) == 4
        # report-only: the empirical boundary is emitted, no equality asserted
        assert rep["max_delta1_without_d_matching"] >= 0


def test_criterion_8b_small_n_threshold_table(tmp_path):
    # report-only, no new bound: delta1 > threshold(n, d) forces a d-matching
    # for n sufficiently large; this prints where the smallest n stand
    verdicts = {1: "n below 'sufficiently large'", 0: "bound exactly tight", -1: "bound has slack"}
    with criterion("8b", "small-n table: max delta1 without a 2-matching vs threshold(n,2)", 60.0):
        for n in (6, 7, 8):
            out = tmp_path / f"thr{n}.json"
            assert cli_main(["verify", "thresholds", "--n", str(n), "--d", "2", "--out", str(out)]) == 0
            rep = json.loads(out.read_text())
            best, t = rep["max_delta1_without_d_matching"], rep["threshold_formula"]
            print(
                f"[criterion 8b] n={n}: max delta1 without a 2-matching = {best}, "
                f"threshold({n},2) = {t}: {verdicts[(best > t) - (best < t)]}"
            )


def test_criterion_9a_threshold_lower_bound_scan_as_stated():
    with criterion(
        "9a", "threshold(n,d) = d(n-d/2) - (n+d/2-1) >= (1-3/(2d))d(n-d/2) scan", 5.0
    ):
        failures = []
        for n in range(9, 201):
            for d in range(1, n // 3 + 1):
                t = threshold(n, d)
                # exact-integer forms: the identity from the binomials, then the bound
                identity = 2 * t == d * (2 * n - d) - (2 * n + d - 2)
                bound = 4 * t >= (2 * d - 3) * (2 * n - d)
                if not (identity and bound):
                    failures.append((n, d, t))
        assert not failures, (
            f"{len(failures)} pairs break the scan, e.g. (n, d, threshold) = {failures[:3]}; "
            f"expected threshold(n,d) = C(n-1,2) - C(n-d,2) = d(n - d/2) - (n + d/2 - 1) "
            f">= (1 - 3/(2d)) d(n - d/2) for every 1 <= d <= n/3 (the 3/n-slack bound "
            f"belongs to the cut family's degree, see test_delta1_dominates_quadratic_form)"
        )


def test_criterion_9b_threshold_monotone():
    with criterion("9b", "threshold strictly increasing in d, exact integers", 5.0):
        for n in range(9, 201):
            prev = None
            for d in range(1, n // 3 + 1):
                cur = threshold(n, d)
                if prev is not None:
                    assert cur > prev, (n, d)
                prev = cur
