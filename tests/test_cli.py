"""Tests for the command-line harness (exit codes, files, determinism)."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypermatch
from hypermatch import absorbing, augment, cli, exact, extremal, thresholds
from hypermatch.cli import _build_parser, main
from hypermatch.constructions import cut_family, extremal_star, random_triples
from hypermatch.core import Hypergraph3, Partition, degree_profile, read_h3, threshold, write_h3
from oracles import (
    intersecting_family_count,
    naive_random_triples,
    naive_threshold_scan,
    pairtable_degree_profile,
    walk_threshold_scan,
)


def run_json(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    return rc, json.loads(out.read_text())


# every command that reads an .h3 file, with "{h3}" for its path
READS_H3 = [
    ["degrees", "{h3}"], ["closeness", "{h3}", "--d", "1"], ["solve", "--exact", "{h3}"],
    ["solve", "--augment", "{h3}"], ["solve", "--extremal", "{h3}", "--d", "1"], ["solve", "--absorbing", "{h3}"],
]
READS_H3_IDS = ["degrees", "closeness", "exact", "augment", "extremal", "absorbing"]


class TestGen:
    def test_star9(self, tmp_path):
        out = tmp_path / "star9.h3"
        assert main(["gen", "star", "--n", "9", "--out", str(out)]) == 0
        H = read_h3(out)
        assert H.n == 9 and H.m == 49
        meta = json.loads((tmp_path / "star9.json").read_text())
        assert meta["partition"]["W"] == [7, 8]
        assert meta["kind"] == "star"

    def test_hnd_9_3(self, tmp_path):
        out = tmp_path / "hnd.h3"
        assert main(["gen", "hnd", "--n", "9", "--d", "3", "--out", str(out)]) == 0
        assert read_h3(out).m == 63

    # n = 150 has 551,300 candidate triples in many 512-lane blocks
    @pytest.mark.parametrize("n,p,seed", [(12, 0.0, 1), (150, 0.01, 3)])
    def test_random_file_holds_the_stream_loop_edges(self, tmp_path, n, p, seed):
        # the edges of the generator loop that steps splitmix64_stream once per triple
        out = tmp_path / "r.h3"
        t0 = time.perf_counter()
        assert main(["gen", "random", "--n", str(n), "--p", str(p), "--seed", str(seed), "--out", str(out)]) == 0
        assert time.perf_counter() - t0 < 60
        assert read_h3(out).edges == naive_random_triples(n, p, seed).edges

    def test_roundtrip_bytes(self, tmp_path):
        out = tmp_path / "b.h3"
        main(["gen", "bde", "--n", "12", "--d", "3", "--out", str(out)])
        text = out.read_text()
        from hypermatch.core import parse_h3, to_h3

        assert to_h3(parse_h3(text)) == text

    def test_missing_param(self, tmp_path):
        assert main(["gen", "hnd", "--n", "9"]) == 2

    def test_usage_error(self):
        assert main(["gen", "nosuch", "--n", "9"]) == 2

    def test_out_that_is_its_own_sidecar_is_a_usage_error(self, tmp_path, capsys):
        # the sidecar of inst.json is inst.json: nothing may be written
        out = tmp_path / "inst.json"
        assert main(["gen", "star", "--n", "9", "--out", str(out)]) == 2
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr() == ("", f"error: --out {out} is also the path of its .json sidecar\n")


class TestDegreesCmd:
    def test_degrees(self, tmp_path):
        h3 = tmp_path / "x.h3"
        main(["gen", "hnd", "--n", "9", "--d", "3", "--out", str(h3)])
        rc, rep = run_json(tmp_path, ["degrees", str(h3)])
        assert rc == 0
        assert rep["delta1"] == 18
        assert rep["delta2"] == 3

    def test_empty_vertex_set_is_a_usage_error(self, tmp_path, capsys):
        h3 = tmp_path / "e.h3"
        h3.write_text("0 0\n")
        assert main(["degrees", str(h3)]) == 2
        assert capsys.readouterr() == ("", "error: degree profile of an empty vertex set is undefined\n")

    def test_negative_edge_count_is_a_usage_error(self, tmp_path, capsys):
        h3 = tmp_path / "neg.h3"
        h3.write_text("3 -1\n")
        assert main(["degrees", str(h3)]) == 2
        assert capsys.readouterr() == ("", "error: negative edge count -1 in .h3 header\n")

    @pytest.mark.parametrize("argv", READS_H3, ids=READS_H3_IDS)
    def test_non_utf8_input_names_its_file(self, tmp_path, capsys, argv):
        h3 = tmp_path / "bin.h3"
        h3.write_bytes(b"3 1\n0 1 \xff\n")
        assert main([arg.format(h3=h3) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {h3}: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1

    def test_out_of_memory_is_a_usage_error(self, tmp_path, capsys):
        # 10^15 vertices ask for 8 PB of incidence at once, which fails before anything is allocated
        h3 = tmp_path / "huge.h3"
        h3.write_text("1000000000000000 0\n")
        assert main(["degrees", str(h3)]) == 2
        assert capsys.readouterr() == ("", "error: out of memory\n")

    @pytest.mark.parametrize(
        "argv",
        READS_H3
        + [
            ["gen", "star", "--n", str(3 * 10**20), "--out", "{out}"],
            ["gen", "hnd", "--n", str(10**20), "--d", "1", "--out", "{out}"],
            ["gen", "bde", "--n", str(10**20), "--d", "1", "--out", "{out}"],
            ["gen", "random", "--n", str(10**20), "--p", "0.5", "--out", "{out}"],
            ["sweep", "--n", str(10**20), "--d", "1", "--trials", "0", "--out", "{out}"],
        ],
        ids=READS_H3_IDS + ["gen-star", "gen-hnd", "gen-bde", "gen-random", "sweep"],
    )
    def test_vertex_count_above_maxsize_is_a_usage_error(self, tmp_path, capsys, argv):
        # no tuple holds 10^20 incidence masks: the count, from the file's header or
        # from --n, is refused before anything is allocated or written
        h3 = tmp_path / "huge.h3"
        h3.write_text(f"{10**20} 0\n")
        assert main([arg.format(h3=h3, out=tmp_path / "out") for arg in argv]) == 2
        n = int(argv[argv.index("--n") + 1]) if "--n" in argv else 10**20
        assert capsys.readouterr() == ("", f"error: vertex count {n} exceeds sys.maxsize ({sys.maxsize})\n")
        assert os.listdir(tmp_path) == ["huge.h3"]

    def test_vertex_count_above_maxsize_with_an_edge_allocates_nothing(self, tmp_path):
        # the canonical check would split the edge over O(n) vertices, so run under a 1 GiB address-space cap
        h3 = tmp_path / "huge1.h3"
        h3.write_text(f"{10**20} 1\n0 1 2\n")
        capped = (
            "import sys; from resource import RLIMIT_AS, getrlimit, setrlimit;"
            " setrlimit(RLIMIT_AS, (1 << 30, getrlimit(RLIMIT_AS)[1]));"
            " from hypermatch.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(hypermatch.__file__).parents[1]))
        argv = [sys.executable, "-c", capped, "degrees", str(h3)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: vertex count {10**20} exceeds sys.maxsize ({sys.maxsize})\n"

    @pytest.mark.parametrize(
        "n,edges,peak_mb",
        [
            (3000, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(1000)], 6),
            # labels up to 69,999 need a third byte: the canonical file loads through the widest bit planes
            (70_000, [(i, 65_536 + i, 69_999 - i) for i in range(2000)] + [(0, 1, 69_999), (2, 65_535, 69_999)], 16),
        ],
        ids=["disjoint-3000", "wide-70000"],
    )
    def test_sparse_file_needs_no_pair_table(self, tmp_path, n, edges, peak_mb):
        # delta2 is 0 from a vertex on 1 < (n - 1) / 2 edges, without the
        # C(n, 2) codegrees of the pair table (4.5M for n = 3000)
        h3, out = tmp_path / "d.h3", tmp_path / "d.json"
        write_h3(Hypergraph3(n, edges), h3)
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            assert main(["degrees", str(h3), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rep = json.loads(out.read_text())
        # the library's degree_profile is the same report
        assert rep == degree_profile(read_h3(h3)).to_json_dict()
        assert time.perf_counter() - t0 < 60
        count = Counter(v for e in edges for v in e)
        assert (rep["n"], rep["m"], rep["delta2"]) == (n, len(edges), 0)
        assert rep["degrees"] == [count[v] for v in range(n)] and rep["delta1"] == min(rep["degrees"])
        assert peak < peak_mb * 2**20


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 15), st.sampled_from([0.0, 0.03, 0.1, 0.2, 0.5, 0.9, 1.0]), st.integers(0, 2**32))
def test_property_degrees_match_the_profile(n, p, seed):
    # the minimum codegree's shortcut (some vertex on fewer than (n - 1) / 2
    # edges) and the full pair pass both agree with the pair table, in the
    # degrees command and in degree_profile alike
    H = random_triples(n, p, seed)
    want = pairtable_degree_profile(H)
    prof = degree_profile(H)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "x.h3"), os.path.join(tmp, "x.json")
        write_h3(H, path)
        assert main(["degrees", path, "--out", out]) == 0
        rep = json.loads(Path(out).read_text())
    assert (prof.degrees, prof.delta1, prof.delta2) == (want.degrees, want.delta1, want.delta2)
    assert rep == prof.to_json_dict() and (rep["n"], rep["m"]) == (H.n, H.m)


# 10 KB that json.load cannot read without running out of recursion depth
NESTED_SIDECAR = '{"partition": ' + "[" * 5000 + "]" * 5000 + "}"


class TestSolveCmd:
    def test_exact_star(self, tmp_path):
        h3 = tmp_path / "star9.h3"
        main(["gen", "star", "--n", "9", "--out", str(h3)])
        rc, rep = run_json(tmp_path, ["solve", "--exact", str(h3)])
        assert rc == 0
        assert rep["size"] == 2 and rep["optimal"]

    @pytest.mark.parametrize(
        "gen,budget,size,nodes",
        [
            (["random", "--n", "12", "--p", "1", "--seed", "0"], 2, 1, 3),
            # a budget that runs out among siblings counted in bulk stops on the same node
            (["star", "--n", "24"], 100, 7, 101),
        ],
        ids=["k12", "star24"],
    )
    def test_exact_budget_exit_code(self, tmp_path, gen, budget, size, nodes):
        h3 = tmp_path / "x.h3"
        main(["gen", *gen, "--out", str(h3)])
        rc, rep = run_json(tmp_path, ["solve", "--exact", str(h3), "--budget-nodes", str(budget)])
        assert rc == 3
        assert (rep["size"], rep["nodes"], rep["optimal"], rep["detail"]) == (size, nodes, False, "node budget exhausted")

    @pytest.mark.parametrize("budget_ms", ["nan", "0", "-1"])
    def test_exact_non_positive_or_nan_time_budget_is_usage_error(self, tmp_path, budget_ms):
        h3 = tmp_path / "star9.h3"
        main(["gen", "star", "--n", "9", "--out", str(h3)])
        assert main(["solve", "--exact", str(h3), "--budget-ms", budget_ms]) == 2

    @pytest.mark.parametrize(
        "H,flags,size,detail",
        [
            (cut_family(12, 4)[0], ["--d", "4"], 4, "target reached"),
            # the star stalls at 7 edges, which the union probes prove: exit 0
            (extremal_star(24)[0], ["--k-max", "2"], 7, "stalled"),
            # 1000 disjoint edges: the greedy start walks 1000 picks
            (Hypergraph3(3000, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(1000)]), ["--d", "1000"], 1000,
             "target reached"),
        ],
        ids=["hnd12", "star24", "disjoint-3000"],
    )
    def test_augment(self, tmp_path, H, flags, size, detail):
        h3 = tmp_path / "x.h3"
        write_h3(H, h3)
        t0 = time.perf_counter()
        rc, rep = run_json(tmp_path, ["solve", "--augment", str(h3), *flags])
        assert time.perf_counter() - t0 < 60
        assert rc == 0
        assert (rep["size"], rep["optimal"], rep["detail"]) == (size, detail != "stalled", detail)
        assert rep["trace"]["initial"] is not None

    def test_extremal_uses_sidecar(self, tmp_path):
        h3 = tmp_path / "hnd30.h3"
        main(["gen", "hnd", "--n", "30", "--d", "10", "--out", str(h3)])
        rc, rep = run_json(tmp_path, ["solve", "--extremal", str(h3), "--d", "10"])
        assert rc == 0
        assert (rep["size"], rep["nodes"], rep["detail"]) == (10, 0, "target reached")
        assert rep["stage_log"]["stalled_stage"] is None

    def test_extremal_m2_does_not_cover_a_vertex_twice(self, tmp_path):
        # two bad V-vertices reach stage M2; the second is covered by the
        # first one's edge, so M2 places one edge and the run succeeds
        H, P = cut_family(9, 3)
        drop = {tuple(sorted((u, x, w))) for u in (0, 1) for x in range(2, 6) for w in P.W} - {(1, 2, 7)}
        h3 = tmp_path / "m2.h3"
        write_h3(Hypergraph3(9, [e for e in H.edges if e not in drop]), h3)
        (tmp_path / "m2.json").write_text(json.dumps({"partition": {"W": [6, 7, 8], "d": 3}}))
        rc, rep = run_json(tmp_path, ["solve", "--extremal", str(h3), "--d", "3", "--alpha", "0.1"])
        assert rc == 0
        assert rep["matching"] == [[0, 1, 6], [2, 3, 7], [4, 5, 8]]
        assert rep["stage_log"]["stages"]["M2"] == [[0, 1, 6]]

    def test_extremal_many_bad_w_vertices(self, tmp_path, capsys):
        # 1100 disjoint edges, every W-vertex bad: M1 covers them all
        k = 1100
        h3 = tmp_path / "disjoint.h3"
        write_h3(Hypergraph3(3 * k, [(2 * i, 2 * i + 1, 2 * k + i) for i in range(k)]), h3)
        (tmp_path / "disjoint.json").write_text(json.dumps({"partition": {"W": list(range(2 * k, 3 * k)), "d": k}}))
        rc, rep = run_json(tmp_path, ["solve", "--extremal", str(h3), "--d", str(k)])
        assert rc == 0 and capsys.readouterr().err == ""
        assert rep["size"] == k and rep["stage_log"]["stalled_stage"] is None

    @pytest.mark.parametrize(
        "gen,d,stalled",
        [(["hnd", "--n", "15", "--d", "5"], 5, None), (["random", "--n", "9", "--p", "0.1", "--seed", "1"], 3, "M3")],
        ids=["sidecar-deleted", "partition-null"],
    )
    def test_extremal_without_a_partition_finds_one(self, tmp_path, gen, d, stalled):
        h3 = tmp_path / "h.h3"
        main(["gen", *gen, "--out", str(h3)])
        if gen[0] == "hnd":
            (tmp_path / "h.json").unlink()
        else:
            assert json.loads((tmp_path / "h.json").read_text())["partition"] is None
        rc, rep = run_json(tmp_path, ["solve", "--extremal", str(h3), "--d", str(d)])
        H = read_h3(h3)
        m, log = extremal.staged_matching(H, Partition(H.n, extremal.find_partition(H, d).W, d), d)
        if m is None:
            want = exact.SolveReport(0, (), False, 0, f"stalled at {log.stalled_stage}: {log.detail}")
        else:
            want = exact.SolveReport(m.size, m.edges, True, 0, "target reached")
        assert rc == 0 and log.stalled_stage == stalled
        assert rep == json.loads(json.dumps({**want.to_json_dict(), "stage_log": log.to_json_dict()}))

    @pytest.mark.parametrize(
        "sidecar",
        [*(json.dumps({"partition": partition}) for partition in (
            {"W": [10, 11]}, {"d": 4}, {"W": 3, "d": 4},
            {"W": [10, "x"], "d": 4}, {"W": [10, 11], "d": "4"}, [10, 11],
            {"W": [10, 11, 99], "d": 4}, {"W": [8, 9, 10, 11], "d": 9},
            {"W": [10, True], "d": 4}, {"W": [10.0, 11.0], "d": 4}, {"W": [10, 11], "d": True},
            {"W": [10, 11], "d": 4.0}, {"W": [-1, 11], "d": 4}, {"W": [10, 11], "d": -1})),
         NESTED_SIDECAR,
         '{"partition": }', b'{"partition": "\xff"}', "", "[1, 2]"],
        ids=["no-d", "no-W", "W-not-list", "W-not-ints", "d-not-int", "partition-not-object",
             "W-out-of-range", "d-out-of-range", "W-bool", "W-floats", "d-bool", "d-float", "W-negative",
             "d-negative", "nested-5000-deep", "not-json", "not-utf8", "empty", "sidecar-not-object"],
    )
    def test_extremal_bad_sidecar_is_usage_error(self, tmp_path, capsys, sidecar):
        h3 = tmp_path / "hnd12.h3"
        main(["gen", "hnd", "--n", "12", "--d", "4", "--out", str(h3)])
        capsys.readouterr()
        (tmp_path / "hnd12.json").write_bytes(sidecar if isinstance(sidecar, bytes) else sidecar.encode())
        assert main(["solve", "--extremal", str(h3), "--d", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'hnd12.json'}: ") and err.count("\n") == 1
        assert ("nests too deeply" in err) == (sidecar == NESTED_SIDECAR)

    @pytest.mark.parametrize("method", ["--exact", "--augment", "--extremal", "--absorbing"])
    def test_every_method_prints_the_solve_keys(self, tmp_path, method):
        h3 = tmp_path / "hnd15.h3"
        main(["gen", "hnd", "--n", "15", "--d", "5", "--out", str(h3)])
        target = [] if method == "--absorbing" else ["--d", "5"]
        rc, rep = run_json(tmp_path, ["solve", method, str(h3), *target])
        assert rc == 0 and rep["schema"] == "hypermatch.solve/1"
        assert {"schema", "size", "matching", "optimal", "nodes", "detail"} <= rep.keys()

    def test_extremal_stall_names_its_stage(self, tmp_path):
        h3 = tmp_path / "b15.h3"
        main(["gen", "bde", "--n", "15", "--d", "5", "--out", str(h3)])
        rc, rep = run_json(tmp_path, ["solve", "--extremal", str(h3), "--d", "5"])
        assert rc == 0 and rep["optimal"] is False and (rep["size"], rep["nodes"]) == (0, 0)
        assert rep["detail"] == "stalled at M5: residual target 5 infeasible with 4 W-vertices left"
        assert rep["stage_log"]["stalled_stage"] == "M5"

    @pytest.mark.parametrize("n,p,seed", [(15, 0.8, 4), (24, 0.5, 1)])
    def test_absorbing(self, tmp_path, n, p, seed):
        h3 = tmp_path / "r.h3"
        main(["gen", "random", "--n", str(n), "--p", str(p), "--seed", str(seed), "--out", str(h3)])
        rc, rep = run_json(tmp_path, ["solve", "--absorbing", str(h3)])
        assert rc == 0
        assert (rep["size"], rep["optimal"], rep["detail"]) == (n // 3, True, "perfect matching")

    def test_absorbing_leftover_phase_failure_exits_0(self, tmp_path):
        h3 = tmp_path / "r9.h3"
        main(["gen", "random", "--n", "9", "--p", "0.1", "--seed", "1", "--out", str(h3)])
        rc, rep = run_json(tmp_path, ["solve", "--absorbing", str(h3)])
        assert rc == 0 and (rep["size"], rep["optimal"], rep["nodes"]) == (2, False, 3)
        assert rep["detail"] == "phase leftover: no assignment of leftover triples to absorbing edges"

    @pytest.mark.parametrize("gamma", ["inf", "1e200", "1e60", "nan"])
    def test_absorbing_non_finite_or_overflowing_gamma_is_usage_error(self, tmp_path, capsys, gamma):
        h3 = tmp_path / "r15.h3"
        main(["gen", "random", "--n", "15", "--p", "0.8", "--seed", "4", "--out", str(h3)])
        capsys.readouterr()
        assert main(["solve", "--absorbing", str(h3), "--gamma", gamma]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("method", ["--exact", "--augment"])
    def test_reruns_are_byte_identical(self, tmp_path, method):
        h3 = tmp_path / "star15.h3"
        main(["gen", "star", "--n", "15", "--out", str(h3)])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", method, str(h3), "--out", str(a)]) == 0
        assert main(["solve", method, str(h3), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "wall_ms" not in json.loads(a.read_text())

    @pytest.mark.parametrize("method", ["--exact", "--augment"])
    def test_negative_target_is_usage_error(self, tmp_path, capsys, method):
        # the maximum is 3; a target of -1 once stopped the search at one edge
        h3 = tmp_path / "hnd9.h3"
        main(["gen", "hnd", "--n", "9", "--d", "3", "--out", str(h3)])
        capsys.readouterr()
        assert main(["solve", method, str(h3), "--d", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_extremal_negative_target_is_usage_error(self, tmp_path, capsys):
        # with the sidecar only the staged matcher sees --d, without it the partition
        # search does; both refuse a d outside 0..n/3 alike
        h3 = tmp_path / "bde15.h3"
        main(["gen", "bde", "--n", "15", "--d", "5", "--out", str(h3)])
        capsys.readouterr()
        for sidecar in (True, False):
            if not sidecar:
                (tmp_path / "bde15.json").unlink()
            for d in ("-1", "6"):
                assert main(["solve", "--extremal", str(h3), "--d", d]) == 2
                assert capsys.readouterr() == ("", "error: need 0 <= d <= n/3\n")

    def test_method_required(self, tmp_path):
        h3 = tmp_path / "x.h3"
        main(["gen", "star", "--n", "9", "--out", str(h3)])
        assert main(["solve", str(h3)]) == 2


class TestClosenessCmd:
    # hnd 45 15 is the densest file here: 9675 edges
    @pytest.mark.parametrize("n,d", [(12, 4), (45, 15)], ids=["hnd12", "hnd45"])
    def test_recovers_partition(self, tmp_path, n, d):
        h3 = tmp_path / "h.h3"
        main(["gen", "hnd", "--n", str(n), "--d", str(d), "--out", str(h3)])
        rc, rep = run_json(tmp_path, ["closeness", str(h3), "--d", str(d)])
        assert rc == 0
        assert rep["deficiency"] == 0
        assert rep["W"] == list(range(n - d, n))

    def test_builds_no_edge_tuples(self, tmp_path, monkeypatch):
        # closeness works on incidence alone, so the parsed labels never become tuples
        h3 = tmp_path / "h.h3"
        main(["gen", "hnd", "--n", "12", "--d", "4", "--out", str(h3)])
        parsed = []
        monkeypatch.setattr(cli, "read_h3", lambda path: parsed.append(read_h3(path)) or parsed[-1])
        rc, rep = run_json(tmp_path, ["closeness", str(h3), "--d", "4"])
        assert rc == 0 and rep["W"] == [8, 9, 10, 11]
        assert len(parsed) == 1 and "edges" not in vars(parsed[0])

    @pytest.mark.parametrize(
        "argv",
        [
            ["closeness", "--alpha=nan"],
            ["closeness", "--alpha=inf"],
            ["closeness", "--alpha=-0.5"],
            ["solve", "--extremal", "--alpha=nan"],
        ],
    )
    def test_non_finite_alpha_is_usage_error(self, tmp_path, capsys, argv):
        # NaN once printed `"alpha": NaN`, which is no JSON
        h3 = tmp_path / "h.h3"
        main(["gen", "hnd", "--n", "12", "--d", "4", "--out", str(h3)])
        capsys.readouterr()
        assert main(argv + [str(h3), "--d", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


class TestVerifyCmd:
    def test_fact1(self, tmp_path):
        rc, rep = run_json(tmp_path, ["verify", "fact1"])
        assert rc == 0
        assert rep["total"] == 512 and rep["violations"] == 0

    def test_fact1_violation_exits_1_with_one_line(self, capsys, monkeypatch):
        def violated():
            raise AssertionError("expected one 6-edge PM-free class, found 2")

        monkeypatch.setattr(cli, "verify_fact1", violated)
        assert main(["verify", "fact1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "classification violated: expected one 6-edge PM-free class, found 2\n"

    @pytest.mark.parametrize("n_max,rows", [(12, 3), (24, 7)])
    def test_tightness(self, tmp_path, n_max, rows):
        rc, rep = run_json(tmp_path, ["verify", "tightness", "--n-max", str(n_max)])
        assert rc == 0
        assert rep["ok"] and len(rep["rows"]) == rows

    @pytest.mark.parametrize("n_max", ["5", "4", "-3"])
    def test_tightness_without_rows_is_a_usage_error(self, tmp_path, capsys, n_max):
        out = tmp_path / "t.json"
        assert main(["verify", "tightness", "--n-max", n_max, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_thresholds_small_deterministic(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["verify", "thresholds", "--n", "5", "--d", "1", "--out", str(out1)]) == 0
        assert main(["verify", "thresholds", "--n", "5", "--d", "1", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rep = json.loads(out1.read_text())
        # only the empty hypergraph lacks a 1-matching
        assert rep["without_d_matching"] == 1
        assert rep["max_delta1_without_d_matching"] == 0

    def test_thresholds_rejects_large_n(self, capsys):
        # the census's own check, printed once by main like every usage error
        assert main(["verify", "thresholds", "--n", "9", "--d", "2"]) == 2
        assert capsys.readouterr() == ("", "error: the down-set count is limited to n <= 8\n")

    def test_thresholds_rejects_d_above_n_over_3(self, capsys):
        assert main(["verify", "thresholds", "--n", "7", "--d", "3"]) == 2
        assert capsys.readouterr() == ("", "error: need 1 <= d <= n/3\n")

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(3, 7) for d in range(1, n // 3 + 1)])
    def test_thresholds_match_full_mask_scan(self, tmp_path, n, d):
        rc, rep = run_json(tmp_path, ["verify", "thresholds", "--n", str(n), "--d", str(d)])
        assert rc == 0
        without, max_delta1 = naive_threshold_scan(n, d)
        assert rep == {
            "schema": "hypermatch.thresholds/1",
            "n": n,
            "d": d,
            "total_hypergraphs": 2 ** math.comb(n, 3),
            "without_d_matching": without,
            "max_delta1_without_d_matching": max_delta1,
            "empirical_forcing_min_degree": max_delta1 + 1,
            "threshold_formula": threshold(n, d),
        }

    def test_thresholds_n6_closed_form(self, tmp_path):
        # two triples on 6 vertices are disjoint iff they are complements, so
        # the 20 triples form 10 pairs and a family without a 2-matching takes
        # none, the first or the second triple of each pair: 3^10 families
        triples = list(combinations(range(6), 3))
        for t in triples:
            assert [u for u in triples if not set(t) & set(u)] == [tuple(sorted(set(range(6)) - set(t)))]
        rc, rep = run_json(tmp_path, ["verify", "thresholds", "--n", "6", "--d", "2"])
        assert rc == 0
        assert rep["without_d_matching"] == 3 ** (len(triples) // 2) == 59049

    def test_thresholds_n7(self, tmp_path):
        rc, rep = run_json(tmp_path, ["verify", "thresholds", "--n", "7", "--d", "2"])
        assert rc == 0
        assert rep["total_hypergraphs"] == 2**35
        assert (rep["without_d_matching"], rep["max_delta1_without_d_matching"]) == (1_278_686, 5)

    def test_thresholds_n8(self, tmp_path):
        t0 = time.perf_counter()
        rc, rep = run_json(tmp_path, ["verify", "thresholds", "--n", "8", "--d", "2"])
        assert time.perf_counter() - t0 < 60
        assert rc == 0
        assert rep["total_hypergraphs"] == 2**56
        assert (rep["without_d_matching"], rep["max_delta1_without_d_matching"]) == (32_095_507, 6)
        # the star at vertex 0 is intersecting and reaches delta1 = 6 = threshold(8, 2)
        star = Hypergraph3(8, [t for t in combinations(range(8), 3) if 0 in t])
        assert star.min_degree(1) == rep["threshold_formula"] == 6

    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(3, 7) for d in range(1, n // 3 + 1)] + [(7, 1)]
    )
    def test_thresholds_match_down_set_walk(self, tmp_path, n, d):
        rc, rep = run_json(tmp_path, ["verify", "thresholds", "--n", str(n), "--d", str(d)])
        assert rc == 0
        without, max_delta1 = walk_threshold_scan(n, d)
        assert rep == {
            "schema": "hypermatch.thresholds/1",
            "n": n,
            "d": d,
            "total_hypergraphs": 2 ** math.comb(n, 3),
            "without_d_matching": without,
            "max_delta1_without_d_matching": max_delta1,
            "empirical_forcing_min_degree": max_delta1 + 1,
            "threshold_formula": threshold(n, d),
        }

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_thresholds_count_matches_independent_sets(self, tmp_path, n):
        rc, rep = run_json(tmp_path, ["verify", "thresholds", "--n", str(n), "--d", "2"])
        assert rc == 0
        assert rep["without_d_matching"] == intersecting_family_count(n, seed=n)

    def test_repeated_thresholds_calls_share_no_memo(self, tmp_path):
        # each call makes the same Python calls inside thresholds.py: a memo kept
        # across calls would let the second one return after a single lookup
        def profiled(name):
            calls = Counter()

            def hook(frame, event, arg):
                if event == "call" and frame.f_code.co_filename == thresholds.__file__:
                    calls[frame.f_code.co_name] += 1

            old = sys.getprofile()
            sys.setprofile(hook)
            try:
                rc, rep = run_json(tmp_path, ["verify", "thresholds", "--n", "6", "--d", "2"], name)
            finally:
                sys.setprofile(old)
            assert rc == 0
            return rep, calls

        rep1, calls1 = profiled("a.json")
        rep2, calls2 = profiled("b.json")
        assert rep1 == rep2
        assert calls1 == calls2
        assert calls1["count"] == 20 and calls1["grow"] > 1

    def test_fact1_stdout_pinned(self):
        # the report's bytes are fixed: this is the hash of the original derivation's output
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["verify", "fact1"]) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
            "ebfb25b308a86dcf7d70d7b2d8523942c9a0a71620fcc3fa0a55c6b7340adcd2"
        )


class TestSweepCmd:
    def test_header_only(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--n", "9", "--d", "3", "--trials", "0", "--out", str(out)])
        assert rc == 0
        assert out.read_text() == "n,d,p,seed,delta1,threshold,oracle_size,augment_size,agree\n"

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["sweep", "--n", "9", "--d", "3", "--trials", "3", "--p-grid", "0.3,0.7", "--seed", "5"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    # local search reaches the oracle optimum on every row, on the default grid too
    @pytest.mark.parametrize(
        "grid,count", [(["--trials", "4", "--p-grid", "0.8"], 4), (["--trials", "3"], 15)], ids=["p0.8", "default-grid"]
    )
    def test_columns_and_agreement(self, tmp_path, grid, count):
        out = tmp_path / "s.csv"
        main(["sweep", "--n", "9", "--d", "3", *grid, "--out", str(out)])
        rows = out.read_text().strip().splitlines()
        assert rows[0].count(",") == 8 and len(rows) == count + 1
        for row in rows[1:]:
            fields = row.split(",")
            assert fields[0] == "9" and fields[1] == "3"
            assert fields[8] == "1"

    def test_bad_grid(self, tmp_path, capsys):
        assert main(["sweep", "--n", "9", "--d", "3", "--p-grid", "x"]) == 2
        assert capsys.readouterr() == ("", "error: bad --p-grid; expected comma-separated floats\n")

    @pytest.mark.parametrize("rows", [["--trials", "0"], ["--p-grid", ""]])
    def test_d_above_n_over_3_is_a_usage_error_without_rows(self, tmp_path, rows):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--n", "9", "--d", "5", *rows, "--out", str(out)]) == 2
        assert not out.exists()

    def test_negative_trials_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--n", "9", "--d", "3", "--trials", "-2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


# the flags each solve method reads, and a value for each flag
SOLVE_READS = {
    "--exact": {"--d", "--budget-nodes", "--budget-ms"},
    "--augment": {"--d", "--k-max", "--seed", "--alpha", "--explain"},
    "--extremal": {"--d", "--alpha"},
    "--absorbing": {"--k-max", "--seed", "--gamma"},
}
FLAG_VALUES = {
    "--d": ["5"], "--budget-nodes": ["1"], "--budget-ms": ["10"], "--k-max": ["2"],
    "--alpha": ["0.1"], "--gamma": ["0.5"], "--seed": ["1"], "--explain": [],
}


class TestFlagsPerCommand:
    @pytest.mark.parametrize("method,flag", [(m, f) for m in SOLVE_READS for f in FLAG_VALUES])
    def test_solve_rejects_every_flag_its_method_does_not_read(self, tmp_path, capsys, method, flag):
        # the input does not exist: an unread flag is refused before it is opened
        missing = tmp_path / "missing.h3"
        assert main(["solve", method, str(missing), flag, *FLAG_VALUES[flag]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
        if flag not in SOLVE_READS[method]:
            assert captured.err.startswith(f"error: solve {method} does not read {flag}; it reads only ")
        elif method == "--extremal" and flag != "--d":
            # a missing --d is refused before the input is opened, like an unread flag
            assert captured.err == "error: solve --extremal requires --d\n"
        else:
            assert "does not read" not in captured.err and str(missing) in captured.err

    @pytest.mark.parametrize("exists", [False, True], ids=["missing-input", "input"])
    def test_extremal_without_d_is_refused_before_the_input_is_read(self, tmp_path, capsys, exists):
        h3 = tmp_path / "hnd12.h3"
        if exists:
            main(["gen", "hnd", "--n", "12", "--d", "4", "--out", str(h3)])
            capsys.readouterr()
        assert main(["solve", "--extremal", str(h3)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: solve --extremal requires --d\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "star", "--n", "9", "--d", "3"],
            ["gen", "star", "--n", "9", "--p", "0.5"],
            ["gen", "star", "--n", "9", "--seed", "1"],
            ["gen", "hnd", "--n", "9", "--d", "3", "--p", "0.5"],
            ["gen", "hnd", "--n", "9", "--d", "3", "--seed", "1"],
            ["gen", "bde", "--n", "9", "--d", "3", "--p", "0.5"],
            ["gen", "bde", "--n", "9", "--d", "3", "--seed", "1"],
            ["gen", "random", "--n", "9", "--p", "0.5", "--d", "3"],
            ["verify", "fact1", "--n", "7"],
            ["verify", "fact1", "--d", "2"],
            ["verify", "fact1", "--n-max", "9"],
            ["verify", "tightness", "--n", "7"],
            ["verify", "tightness", "--d", "2"],
            ["verify", "thresholds", "--n-max", "9"],
        ],
    )
    def test_gen_and_verify_reject_flags_they_do_not_read(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "x.h3")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: " in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,calls",
        [
            (["solve", "--exact"], {"SolveBudget": {}}),
            (["solve", "--exact", "--d", "2", "--budget-nodes", "50", "--budget-ms", "900"],
             {"SolveBudget": {"target": 2, "node_limit": 50, "time_limit_ms": 900.0}}),
            (["solve", "--augment"], {"AugmentConfig": {}}),
            (["solve", "--augment", "--k-max", "2", "--seed", "7"], {"AugmentConfig": {"k_max": 2, "seed": 7}}),
            (["solve", "--augment", "--d", "5", "--explain"], {"AugmentConfig": {}, "find_partition": {}}),
            (["solve", "--augment", "--explain", "--alpha", "0.2"],
             {"AugmentConfig": {}, "find_partition": {"alpha": 0.2}}),
            (["solve", "--extremal", "--d", "5"], {"staged_matching": {}}),
            (["solve", "--extremal", "--d", "5", "--alpha", "0.2"], {"staged_matching": {"alpha": 0.2}}),
            (["solve", "--absorbing"], {"AugmentConfig": {}, "perfect_via_absorbing": {}}),
            (["solve", "--absorbing", "--gamma", "0.5", "--k-max", "2", "--seed", "7"],
             {"AugmentConfig": {"k_max": 2, "seed": 7}, "perfect_via_absorbing": {"gamma": 0.5}}),
            (["closeness", "--d", "5"], {"find_partition": {}}),
            (["closeness", "--d", "3", "--mode", "exhaustive", "--alpha", "0.2"],
             {"find_partition": {"mode": "exhaustive", "alpha": 0.2}}),
        ],
    )
    def test_given_flags_reach_the_library_as_keywords(self, tmp_path, capsys, monkeypatch, argv, calls):
        # the first call of each library entry point, keyword arguments only (cfg aside);
        # SolveBudget is built for --exact alone
        h3 = tmp_path / "b15.h3"
        assert main(["gen", "bde", "--n", "15", "--d", "5", "--out", str(h3)]) == 0
        seen = {}
        for owner, name in [(exact, "SolveBudget"), (augment, "AugmentConfig"), (extremal, "find_partition"),
                            (extremal, "staged_matching"), (absorbing, "perfect_via_absorbing")]:
            def spy(*args, _real=getattr(owner, name), _name=name, **kwargs):
                seen.setdefault(_name, {k: v for k, v in kwargs.items() if k != "cfg"})
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        assert main(argv + [str(h3)]) in (0, 3)
        assert seen == calls

    @pytest.mark.parametrize(
        "instance,command,defaults",
        [
            (["hnd", "--n", "15", "--d", "5"], ["solve", "--exact"], ["--budget-nodes", "10000000"]),
            (["bde", "--n", "15", "--d", "5"], ["solve", "--augment"], ["--k-max", "5", "--seed", "0"]),
            (["bde", "--n", "15", "--d", "5"], ["solve", "--augment", "--explain"], ["--alpha", "0.05"]),
            (["random", "--n", "15", "--p", "0.8", "--seed", "4"], ["solve", "--absorbing"],
             ["--gamma", "0.8", "--k-max", "5", "--seed", "0"]),
            (["bde", "--n", "15", "--d", "5"], ["solve", "--extremal", "--d", "5"], ["--alpha", "0.05"]),
            (["hnd", "--n", "12", "--d", "4"], ["closeness", "--d", "4"], ["--mode", "local", "--alpha", "0.05"]),
        ],
        ids=["exact", "augment", "augment-explain", "absorbing", "extremal", "closeness"],
    )
    def test_absent_flag_is_the_library_default(self, tmp_path, capsys, instance, command, defaults):
        h3 = tmp_path / "x.h3"
        assert main(["gen", *instance, "--out", str(h3)]) == 0
        capsys.readouterr()
        outputs = []
        for argv in (command + [str(h3)], command + [str(h3)] + defaults):
            assert main(argv) in (0, 3)
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].out


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        """The parser is built once per process; no default or namespace state leaks between calls.

        --budget-nodes 1 ends the third call, an exact solve, with exit 3,
        and would end the plain exact solve after it the same way if it leaked.
        """
        h3 = tmp_path / "hnd.h3"
        assert main(["gen", "hnd", "--n", "12", "--d", "4", "--out", str(h3)]) == 0
        calls = [
            ["solve", "--exact", "--augment", str(h3), "--budget-nodes", "1"],
            ["solve", "--exact", str(h3)],
            ["solve", "--exact", str(h3), "--budget-nodes", "1"],
            ["closeness", str(h3), "--d", "4", "--mode", "local"],
            ["solve", "--exact", str(h3)],
        ]
        capsys.readouterr()
        in_process = []
        for argv in calls:
            rc = main(argv)
            in_process.append((rc, capsys.readouterr().out))
        assert _build_parser() is _build_parser()
        env = dict(os.environ, PYTHONPATH=str(Path(hypermatch.__file__).parents[1]))
        fresh = []
        for argv in calls:
            proc = subprocess.run(
                [sys.executable, "-m", "hypermatch.cli", *argv], capture_output=True, text=True, env=env
            )
            fresh.append((proc.returncode, proc.stdout))
        assert [rc for rc, _ in in_process] == [2, 0, 3, 0, 0]
        assert in_process == fresh


# --- fuzzed inputs ---------------------------------------------------------------


@st.composite
def _h3_text(draw):
    """An .h3 body: mostly well-formed, sometimes with bad triples, a wrong m or odd separators."""
    n = draw(st.integers(-2, 13) | st.integers(0, 13))
    good = st.sampled_from(list(combinations(range(n), 3)) or [()])
    junk = st.tuples(*[st.integers(-1, max(n, 0))] * 3)
    edges = draw(st.lists(good, max_size=40) | st.lists(good | junk, max_size=10))
    m = len(edges) + draw(st.sampled_from([0] * 12 + [-1, 1]))
    sep = draw(st.sampled_from(["\n", " ", "\t", " \r\n", "  # note\n"]))
    return f"{n} {m}{sep}" + sep.join(" ".join(map(str, e)) for e in edges) + "\n"


_SIDECAR_PARTITION = st.one_of(
    st.none(),
    st.integers(-2, 5),
    st.text(max_size=5),
    st.lists(st.integers(-2, 14), max_size=6),
    st.fixed_dictionaries(
        {},
        optional={
            "W": st.lists(st.integers(-2, 14), max_size=6) | st.integers() | st.text(max_size=3),
            "d": st.integers(-2, 6) | st.text(max_size=2) | st.booleans() | st.floats(allow_nan=False),
        },
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(
        [
            ["solve", "--exact"],
            ["solve", "--augment"],
            ["solve", "--extremal"],
            ["solve", "--absorbing"],
            ["closeness", "--mode", "local"],
            ["closeness", "--mode", "exhaustive"],
            ["degrees"],
        ]
    ),
    h3=_h3_text() | st.text(max_size=40),
    sidecar=st.none()
    | st.text(max_size=30)
    | _SIDECAR_PARTITION.map(lambda part: json.dumps({"partition": part}))
    | st.sampled_from(["[]", "null", "3", '"x"', "{}"]),
    d=st.none() | st.integers(0, 4) | st.integers(-3, 8),
    k_max=st.none() | st.integers(-1, 3),
    budget_nodes=st.none() | st.integers(1, 50),
    real=st.none() | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e200]),
)
def test_fuzzed_inputs_exit_cleanly(command, h3, sidecar, d, k_max, budget_nodes, real):
    """Any .h3 text, sidecar and flag values: an exit code in 0..3, no traceback, strict JSON on exit 0.

    `real` is the --gamma of solve --absorbing and the --alpha of closeness
    and solve --extremal.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.h3")
        Path(path).write_text(h3, encoding="utf-8")
        if sidecar is not None:
            Path(tmp, "x.json").write_text(sidecar, encoding="utf-8")
        argv = command + [path]
        # only the flags the command reads, so that every example reaches its solver
        reads = SOLVE_READS[command[1]] if command[0] == "solve" else {"--d"} if command[0] == "closeness" else set()
        for flag, value in (("--d", d), ("--k-max", k_max), ("--budget-nodes", budget_nodes)):
            if value is not None and flag in reads:
                argv += [flag, str(value)]
        flags = {"--absorbing": "--gamma", "--extremal": "--alpha", "closeness": "--alpha"}
        real_flag = next((flags[word] for word in command if word in flags), None)
        if real is not None and real_flag:
            # --flag=value, so argparse cannot read "-inf" as an option
            argv.append(f"{real_flag}={real!r}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from([["gen", "star"], ["gen", "hnd"], ["gen", "bde"], ["gen", "random"], ["sweep"]]),
    # no n in 31..sys.maxsize: the generators would list astronomically many triples
    n=st.integers(-3, 30) | st.sampled_from([10**20, 3 * 10**20, 2**64]),
    d=st.integers(-2, 12),
    p=st.floats(0, 1) | st.sampled_from([math.nan, 2.0, -0.5, math.inf]),
    trials=st.integers(0, 2),
)
def test_fuzzed_gen_and_sweep_exit_cleanly(command, n, d, p, trials):
    """Any --n, --d, --p and --trials of the commands that take a vertex count: an exit code in 0..3, no traceback.

    `p` is the --p of gen random and the one value of sweep's --p-grid.
    """
    argv = command + ["--n", str(n)]
    if command[-1] in ("hnd", "bde", "sweep"):
        argv += ["--d", str(d)]
    if command[-1] == "random":
        # --p=value, so argparse cannot read "-0.5" as an option
        argv.append(f"--p={p!r}")
    if command[-1] == "sweep":
        argv += ["--trials", str(trials), f"--p-grid={p!r}"]
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv + ["--out", os.path.join(tmp, "x.h3")])
    assert rc in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()


def _reject_constant(name):
    raise AssertionError(f"{name} in a JSON report")
