"""Benchmark for the hypermatch CLI: one workload per run, closed loop.

One client runs one item at a time in this process: each item is a
`hypermatch.cli.main(argv)` call on `.h3` files that set-up wrote from a
seeded corpus (see corpus.py), and every output is checked against an
answer known by construction.  A run repeats whole passes over the corpus
for about --seconds seconds, so every run sees the same item mix.  Times
are reported as reference times: wall times scaled by a fixed kernel timed
between the items, which takes out the host's changes of speed (see
calibrate.py).

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced run (see NOTES.md).  A wrong answer aborts with exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
SETUP_REPS = 9
MODULES = ("cli", "core", "constructions", "exact", "augment", "extremal", "absorbing", "links")


def fresh_import() -> dict:
    """Import hypermatch from the checkout's src/ anew, so set-up pays the import."""
    for name in [m for m in sys.modules if m == "hypermatch" or m.startswith("hypermatch.")]:
        del sys.modules[name]
    importlib.import_module("hypermatch.cli")
    return {m: sys.modules[f"hypermatch.{m}"] for m in MODULES}


def setup(workload: str, seed: int, workdir: str, trace: bool):
    """Import, generate and write the corpus SETUP_REPS times; keep the last.

    Each set-up lies between samples of the mixed calibration kernel.
    Returns (modules, items, median set-up reference seconds, median set-up
    wall seconds, median constructions wall seconds).
    """
    clock = calibrate.Clock()
    clock.probe()
    spans, constructions = [], []
    for _ in range(SETUP_REPS):
        tracer = tracing.Tracer()
        t0 = perf_counter()
        mods = fresh_import()
        if trace:
            tracer.install(mods, setup=True)
        items = corpus.build(workload, seed, mods["constructions"], mods["core"], workdir)
        t1 = perf_counter()
        tracer.uninstall()
        clock.probe(t1 - t0)
        spans.append((t0, t1))
        constructions.append(sum(t["self_s"] for t in tracing.totals(tracer.spans).values()))
    wall = [t1 - t0 for t0, t1 in spans]
    ref = [(t1 - t0) * clock.scale(t0) for t0, t1 in spans]
    return mods, items, statistics.median(ref), statistics.median(wall), statistics.median(constructions)


def run_item(cli, item) -> tuple[float, float, str | None]:
    """Time one cli.main call; returns (start, end, failure reason or None)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(item.argv))
    except Exception as exc:  # an escaping exception is a failed item, not a crash
        return t0, perf_counter(), f"raised {exc!r}"
    t1 = perf_counter()
    return t0, t1, corpus.check(item, rc, out.getvalue())


def quantile(xs, q: float) -> float:
    """Linear-interpolated quantile of a sample, q in [0, 1]."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "HYPERMATCH_THREADS": os.environ.get("HYPERMATCH_THREADS"),
    }


def measure(args, mods, items, tracer):
    """Whole passes until --seconds is spent; with a tracer, odd passes are traced.

    The calibration clock probes before the first item and after every
    item.  Returns (passes, clock, failures, per-item counters); a pass is
    (traced, [(start, end) of each item]).
    """
    cli = mods["cli"]
    min_passes = 2 if tracer else corpus.MIN_PASSES[args.workload]
    passes, failures, per_item = [], {}, {}
    clock = calibrate.Clock(corpus.KERNEL[args.workload])
    clock.probe()
    t_start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install(mods)
        times = []
        for item in items:
            lo = len(tracer.spans) if traced else 0
            t0, t1, reason = run_item(cli, item)
            clock.probe(t1 - t0)
            times.append((t0, t1))
            if reason is not None:
                failures.setdefault(item.id, []).append(reason)
            if traced and item.id not in per_item:
                per_item[item.id] = tracing.counters(tracing.totals(tracer.spans, lo))
        if traced:
            tracer.uninstall()
        passes.append((traced, times))
        elapsed = perf_counter() - t_start
        if len(passes) >= min_passes and elapsed + times[-1][1] - times[0][0] > args.seconds:
            return passes, clock, failures, per_item


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result record (JSON line) to this file")
    ap.add_argument("--spans", help="in a traced run, write the spans to this JSON file")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hypermatch" / "cli.py").is_file():
        print(f"error: no hypermatch sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the exhaustive scan must stay in this one process
    os.environ.pop("HYPERMATCH_THREADS", None)

    workroot = HERE / ".work"
    workroot.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot)
    try:
        mods, items, setup_s, setup_wall_s, constructions_s = setup(args.workload, args.seed, workdir, args.trace == 1)
        tracer = tracing.Tracer() if args.trace else None
        # the harness's own objects (corpus edge sets, modules) move to the
        # permanent generation, so they do not lengthen the program's collections
        gc.collect()
        gc.freeze()
        try:
            passes, clock, failures, per_item = measure(args, mods, items, tracer)
        except corpus.WrongAnswer as exc:
            print(f"wrong answer, run aborted: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(items)
    attempted = n * len(passes)
    failed = sum(len(v) for v in failures.values())
    for item_id, reasons in sorted(failures.items()):
        print(f"failed {item_id} x{len(reasons)}: {reasons[0]}", file=sys.stderr)

    # item latencies per pass, in wall seconds and in reference seconds (the
    # wall time scaled by the calibration samples around it, see calibrate.py)
    wall = [[t1 - t0 for t0, t1 in times] for _, times in passes]
    ref = [[(t1 - t0) * clock.scale(t0) for t0, t1 in times] for _, times in passes]

    def items_per_s(traced: bool, lats) -> float:
        """Items in a pass over the sum of each item's median latency across passes."""
        chosen = [lat for (t, _), lat in zip(passes, lats) if t == traced]
        return n / sum(statistics.median(lat[i] for lat in chosen) for i in range(n))

    record = {
        "schema": "hypermatch.bench/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "items_per_pass": n,
        "pass_s": [round(sum(lat), 6) for lat in ref],
        "traced_pass": [t for t, _ in passes],
        "latency_ms": {it.id: [round(lat[i] * 1000.0, 4) for lat in ref] for i, it in enumerate(items)},
        "wall_latency_ms": {it.id: [round(lat[i] * 1000.0, 4) for lat in wall] for i, it in enumerate(items)},
        "calibration_ms": [round(c * 1000.0, 4) for c in clock.took],
    }
    if tracer is None:
        samples = [dt * 1000.0 for lat in ref for dt in lat]
        wall_samples = [dt * 1000.0 for lat in wall for dt in lat]
        # fixed per workload: the highest percentile with >= 10 samples beyond it
        # in a run of MIN_PASSES passes, so it does not move with run length
        q = 1.0 - 10.0 / (corpus.MIN_PASSES[args.workload] * n)
        metrics = {
            "items_per_s": (items_per_s(False, ref), "1/s"),
            "latency_ms.p50": (statistics.median(samples), "ms"),
            "latency_ms.tail": (quantile(samples, q), "ms"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record["tail"] = {"percentile": round(100 * q, 2), "samples": len(samples)}
        record["wall"] = {
            "items_per_s": items_per_s(False, wall),
            "latency_ms.p50": statistics.median(wall_samples),
            "latency_ms.tail": quantile(wall_samples, q),
            "setup_s": setup_wall_s,
        }
        print(f"# latency_ms.tail is p{100 * q:.2f} of {len(samples)} samples "
              f"({len(passes)} passes of {n} items); fail_ratio {failed / attempted:.4f}")
        print(f"# times are reference times (calibrate.py); {corpus.KERNEL[args.workload]} kernel median "
              f"{statistics.median(clock.took) * 1000.0:.3f} ms against {calibrate.REF_S * 1000.0:g} ms; "
              f"wall {json.dumps(record['wall'])}")
    else:
        traced_items = n * sum(1 for t, _ in passes if t)
        overhead = items_per_s(False, ref) / items_per_s(True, ref)
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        layers = tracing.layer_metrics(tracing.totals(tracer.spans), traced_items, constructions_s, overhead)
        metrics = {k: (v, units[k]) for k, v in layers.items()}
        record["per_item"] = per_item
        spans_path = args.spans or str(HERE / ".out" / f"spans-{args.workload}-s{args.seed}.json")
        os.makedirs(os.path.dirname(os.path.abspath(spans_path)), exist_ok=True)
        tracer.write(spans_path)
        print(f"# spans written to {spans_path}")

    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
