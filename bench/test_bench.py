"""Checks of the benchmark itself (not collected by the project's test suite).

    python3 -m pytest -q bench/test_bench.py

The counter test makes two traced runs per workload, about two minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import corpus  # noqa: E402
from hypermatch import constructions, core, exact  # noqa: E402


def _run(tmp_path, workload, trace, cwd=ROOT):
    out = tmp_path / f"{workload}-{trace}.jsonl"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace), "--out", str(out), "--spans", str(tmp_path / "spans.json")],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc, out


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_traced_counts_repeat_exactly(tmp_path, workload):
    for _ in range(2):
        proc, out = _run(tmp_path, workload, 1)
        assert proc.returncode == 0, proc.stderr
    first, second = (json.loads(line) for line in out.read_text().splitlines())
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    counts = [m["name"] for m in units if m["unit"] in ("count", "ratio") and m["name"] != "trace.overhead"]
    assert len(counts) > 10
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["per_item"] == second["per_item"]
    assert first["failed"] == 0
    if workload == "closeness":
        assert first["metrics"]["exact.calls"]["value"] == 0
    else:
        assert first["metrics"]["cli.exit_nonzero"]["value"] == 0


def test_block_brute_force_agrees_with_exact_solver():
    rng = constructions.splitmix64_stream(5)
    for _ in range(40):
        H = constructions.random_triples(9, 0.15, next(rng))
        assert corpus.block_optimum(H.edges) == exact.max_matching(H).size


def test_wrong_answers_abort_and_short_answers_fail():
    H = core.Hypergraph3(6, [(0, 1, 2), (3, 4, 5), (0, 3, 4)])
    item = corpus.Item("t/x", [], "augment", {"size": 2}, H.edge_set)

    def out(edges):
        return json.dumps({"size": len(edges), "matching": edges})

    assert corpus.check(item, 0, out([[0, 1, 2], [3, 4, 5]])) is None
    assert corpus.check(item, 0, out([[0, 3, 4]])) == "stall at 1 of 2"
    assert corpus.check(item, 3, "") == "budget stop"
    with pytest.raises(corpus.WrongAnswer):
        corpus.check(item, 0, out([[0, 1, 2], [0, 3, 4]]))  # overlapping edges
    with pytest.raises(corpus.WrongAnswer):
        corpus.check(item, 0, out([[0, 1, 5]]))  # not an edge
    item.kind = "exact"
    with pytest.raises(corpus.WrongAnswer):
        corpus.check(item, 0, out([[0, 3, 4]]))  # certified below the optimum


def test_reference_time_scales_by_the_local_kernel_time():
    clock = calibrate.Clock()
    clock.at = [float(t) for t in range(12)]
    clock.took = [0.02] * 4 + [0.01] * 8
    assert calibrate.WINDOW == 3
    assert clock.scale(0.5) == calibrate.REF_S / 0.02  # samples 0 to 3 are the window
    assert clock.scale(8.5) == calibrate.REF_S / 0.01
    clock.probe(busy_s=0.0)
    assert len(clock.at) == 13
    for kernel in calibrate.KERNELS.values():
        assert kernel() == kernel()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, _ = _run(tmp_path, "scan", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
