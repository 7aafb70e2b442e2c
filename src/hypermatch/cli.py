"""Command-line surface: gen, degrees, solve, closeness, verify, sweep.

Exit codes: 0 success, 1 assertion failure, 2 usage error (an input too
large for memory included), 3 budget exhaustion.  Reports are JSON
(sorted keys, no timestamps) or CSV with fixed columns, so reruns with
equal inputs are byte-identical.

Each command, `gen` kind, `solve` method and `verify` suite accepts only
the flags it reads; any other is a usage error (exit 2).  `solve` and
`closeness` pass on only the flags given: the rest keep library defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import absorbing, augment, constructions, exact, extremal
from .core import Partition, degree_profile, read_h3, threshold, write_h3
from .links import verify_fact1
from .thresholds import census

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, out: str | None) -> None:
    # strict JSON: a NaN or infinity raises ValueError (exit 2) instead of printing
    _write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", out)


# --- gen ---------------------------------------------------------------------


def _cmd_gen(args) -> int:
    kind = args.kind
    out = args.out or f"{kind}{args.n}.h3"
    side = os.path.splitext(out)[0] + ".json"
    if side == out:
        raise ValueError(f"--out {out} is also the path of its .json sidecar")
    # the kind's own flags are the keyword arguments of its constructor
    params = {k: v for k, v in vars(args).items() if k not in ("command", "kind", "out", "func", "build")}
    H, partition = args.build(**params)
    write_h3(H, out)
    meta = {
        "schema": "hypermatch.instance/1",
        "kind": kind,
        "generator_version": 1,
        "params": params,
        "n": H.n,
        "m": H.m,
        "partition": None
        if partition is None
        else {"W": sorted(partition.W), "d": partition.d},
    }
    _emit(meta, side)
    print(f"wrote {out} ({H.n} vertices, {H.m} edges) and {side}")
    return EXIT_OK


# --- degrees -----------------------------------------------------------------


def _cmd_degrees(args) -> int:
    _emit(degree_profile(read_h3(args.input)).to_json_dict(), args.out)
    return EXIT_OK


# --- solve -------------------------------------------------------------------


def _load_partition(args, H) -> Partition | None:
    side = os.path.splitext(args.input)[0] + ".json"
    if os.path.exists(side):
        with open(side) as fh:
            try:
                meta = json.load(fh)
            except RecursionError:
                raise ValueError(f"{side}: sidecar nests too deeply to read") from None
        if not isinstance(meta, dict):
            raise ValueError(f"{side}: sidecar must be a JSON object")
        part = meta.get("partition")
        if part:
            W, d = (part.get("W"), part.get("d")) if isinstance(part, dict) else (None, None)
            if not (isinstance(W, list) and all(_is_int(v) for v in W) and _is_int(d)):
                raise ValueError(f"{side}: partition needs an integer list \"W\" and an integer \"d\"")
            return Partition(H.n, W, d)
    return None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# the flags each solve method reads; solve rejects any other
_SOLVE_READS = {
    "exact": ("--d", "--budget-nodes", "--budget-ms"),
    "augment": ("--d", "--k-max", "--seed", "--alpha", "--explain"),
    "extremal": ("--d", "--alpha"),
    "absorbing": ("--k-max", "--seed", "--gamma"),
}
_SOLVE_FLAGS = set().union(*_SOLVE_READS.values())


def _given(args, *names, **renamed) -> dict:
    """Keyword arguments from the flags that were given; an absent flag keeps the library's default."""
    renamed.update(zip(names, names))
    return {kw: getattr(args, dest) for kw, dest in renamed.items() if dest in args}


def _cmd_solve(args) -> int:
    method, reads = args.method, _SOLVE_READS[args.method]
    given = {"--" + dest.replace("_", "-") for dest in vars(args)}
    unread = sorted((given & _SOLVE_FLAGS).difference(reads))
    if unread:
        raise ValueError(f"solve --{method} does not read {', '.join(unread)}; it reads only {', '.join(reads)}")
    if method == "extremal" and "d" not in args:
        raise ValueError("solve --extremal requires --d")
    H = read_h3(args.input)
    extra = {}
    if method == "exact":
        budget = _given(args, node_limit="budget_nodes", time_limit_ms="budget_ms", target="d")
        rep = exact.max_matching(H, exact.SolveBudget(**budget))
    elif method == "augment":
        d = getattr(args, "d", H.n // 3)
        rep, trace = augment.solve(H, d, augment.AugmentConfig(**_given(args, "k_max", "seed")))
        extra["trace"] = trace.to_json_dict()
        if getattr(args, "explain", False) and rep.size < d:
            close = extremal.find_partition(H, min(d, H.n // 3), **_given(args, "alpha"))
            extra["closeness_on_stall"] = close.to_json_dict()
    elif method == "extremal":
        alpha = _given(args, "alpha")
        P = _load_partition(args, H)
        if P is None:
            P = Partition(H.n, extremal.find_partition(H, args.d, **alpha).W, args.d)
        m, log = extremal.staged_matching(H, P, args.d, **alpha)
        if m is None:
            rep = exact.SolveReport(0, (), False, 0, f"stalled at {log.stalled_stage}: {log.detail}")
        else:
            rep = exact.SolveReport(m.size, m.edges, True, 0, "target reached")
        extra["stage_log"] = log.to_json_dict()
    else:
        cfg = augment.AugmentConfig(**_given(args, "k_max", "seed"))
        rep = absorbing.perfect_via_absorbing(H, cfg=cfg, **_given(args, "gamma", "seed"))
    _emit({**rep.to_json_dict(), **extra}, args.out)
    return EXIT_BUDGET if method == "exact" and not rep.optimal else EXIT_OK


# --- closeness ---------------------------------------------------------------


def _cmd_closeness(args) -> int:
    H = read_h3(args.input)
    rep = extremal.find_partition(H, args.d, **_given(args, "mode", "alpha"))
    _emit(rep.to_json_dict(), args.out)
    return EXIT_OK


# --- verify ------------------------------------------------------------------


def _verify_fact1(args) -> int:
    try:
        rep = verify_fact1()
    except AssertionError as exc:
        print(f"classification violated: {exc}", file=sys.stderr)
        return EXIT_ASSERT
    _emit(rep, args.out)
    return EXIT_OK


def _verify_tightness(args) -> int:
    if args.n_max < 6:
        raise ValueError("--n-max must be at least 6, the smallest star family")
    rows = []
    ok = True
    for n in range(6, args.n_max + 1, 3):
        H, P = constructions.extremal_star(n)
        want_delta = threshold(n, n // 3)
        delta = H.min_degree(1)
        rep = exact.max_matching(H)
        row = {
            "n": n,
            "delta1": delta,
            "delta1_expected": want_delta,
            "max_matching": rep.size,
            "max_matching_expected": n // 3 - 1,
            "optimal": rep.optimal,
        }
        row["ok"] = (
            delta == want_delta and rep.optimal and rep.size == n // 3 - 1
        )
        ok = ok and row["ok"]
        rows.append(row)
    _emit({"schema": "hypermatch.tightness/1", "rows": rows, "ok": ok}, args.out)
    return EXIT_OK if ok else EXIT_ASSERT


def _verify_thresholds(args) -> int:
    _emit(census(args.n, args.d).to_json_dict(), args.out)
    return EXIT_OK


# --- sweep -------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    try:
        pgrid = [float(x) for x in args.p_grid.split(",") if x.strip()]
    except ValueError:
        raise ValueError("bad --p-grid; expected comma-separated floats") from None
    thr = threshold(args.n, args.d)  # raises ValueError (exit 2) unless 1 <= d <= n/3
    if args.trials < 0:
        raise ValueError("--trials must be non-negative")
    lines = ["n,d,p,seed,delta1,threshold,oracle_size,augment_size,agree"]
    mix = constructions.splitmix64_stream(args.seed)
    for p in pgrid:
        for trial in range(args.trials):
            inst_seed = next(mix)
            H = constructions.random_triples(args.n, p, inst_seed)
            delta1 = H.min_degree(1) if H.n else 0
            rep = exact.max_matching(H)
            arep, _ = augment.solve(H, args.d, augment.AugmentConfig(seed=args.seed))
            # agreement = local search reached the oracle optimum (or the target capped it)
            agree = int(arep.size >= min(rep.size, args.d))
            lines.append(
                f"{args.n},{args.d},{p:g},{inst_seed},{delta1},"
                f"{thr},{rep.size},{arep.size},{agree}"
            )
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --- parser ------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each parse_args call fills a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="hypermatch",
        description="3-uniform hypergraph matching toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # flags shared by the gen kinds and verify suites, copied into each through parents=
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    sized = argparse.ArgumentParser(add_help=False, parents=[out])
    sized.add_argument("--n", type=int, required=True)

    gen = sub.add_parser("gen", help="generate an instance (.h3 plus .json sidecar)")
    gen.set_defaults(func=_cmd_gen)
    kinds = gen.add_subparsers(dest="kind", required=True)
    kinds.add_parser("star", parents=[sized]).set_defaults(build=constructions.extremal_star)
    for kind, build in (("hnd", constructions.cut_family), ("bde", constructions.blocker_family)):
        kp = kinds.add_parser(kind, parents=[sized])
        kp.add_argument("--d", type=int, required=True)
        kp.set_defaults(build=build)
    kp = kinds.add_parser("random", parents=[sized])
    kp.add_argument("--p", type=float, required=True)
    kp.add_argument("--seed", type=int, default=0)
    kp.set_defaults(build=lambda n, p, seed: (constructions.random_triples(n, p, seed), None))

    deg = sub.add_parser("degrees", help="degree profile of an .h3 instance")
    deg.add_argument("input")
    deg.add_argument("--out")
    deg.set_defaults(func=_cmd_degrees)

    # solve and closeness set no argument defaults: an absent flag is absent from the namespace
    solve = sub.add_parser(
        "solve", help="run a solver on an .h3 instance", argument_default=argparse.SUPPRESS
    )
    meth = solve.add_mutually_exclusive_group(required=True)
    for method in _SOLVE_READS:
        meth.add_argument(f"--{method}", dest="method", action="store_const", const=method)
    solve.add_argument("input")
    solve.add_argument("--d", type=int)
    solve.add_argument("--budget-nodes", type=int)
    solve.add_argument("--budget-ms", type=float)
    solve.add_argument("--k-max", type=int)
    solve.add_argument("--alpha", type=float)
    solve.add_argument("--gamma", type=float)
    solve.add_argument("--seed", type=int)
    solve.add_argument("--explain", action="store_true")
    solve.add_argument("--out", default=None)
    solve.set_defaults(func=_cmd_solve)

    close = sub.add_parser(
        "closeness", help="deficiency-minimizing partition search", argument_default=argparse.SUPPRESS
    )
    close.add_argument("input")
    close.add_argument("--d", type=int, required=True)
    close.add_argument("--mode", choices=["exhaustive", "local"])
    close.add_argument("--alpha", type=float)
    close.add_argument("--out", default=None)
    close.set_defaults(func=_cmd_closeness)

    ver = sub.add_parser("verify", help="verification suites")
    suites = ver.add_subparsers(dest="suite", required=True)
    suites.add_parser("fact1", parents=[out]).set_defaults(func=_verify_fact1)
    # no abbreviations: --n would be read as --n-max
    tight = suites.add_parser("tightness", parents=[out], allow_abbrev=False)
    tight.add_argument("--n-max", type=int, default=15)
    tight.set_defaults(func=_verify_tightness)
    thr = suites.add_parser("thresholds", parents=[out])
    thr.add_argument("--n", type=int, default=6)
    thr.add_argument("--d", type=int, default=2)
    thr.set_defaults(func=_verify_thresholds)

    sweep = sub.add_parser("sweep", help="random-instance sweep to CSV")
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--d", type=int, required=True)
    sweep.add_argument("--trials", type=int, default=10)
    sweep.add_argument("--p-grid", default="0.1,0.3,0.5,0.7,0.9")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out")
    sweep.set_defaults(func=_cmd_sweep)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # an input too large for this machine, such as a header n of 10^15
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
