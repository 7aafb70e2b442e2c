"""Generators for extremal, near-extremal and random instances.

All generators that come with a natural two-class structure return the
Partition along with the hypergraph, so callers never have to re-infer
it.  The distinguished class W always sits at the top of the index range.

Every generator puts its sorted triples in lexicographic order itself,
so it passes their flat labels to `Hypergraph3._from_labels` and skips
the per-edge canonicalisation of the constructor.

Randomness is a seeded splitmix64 stream (documented below), chosen so
that any implementation in any language can reproduce the exact same
instances from (n, p, seed).  Its i-th state is s_i = seed + i·γ mod 2^64
(γ = 0x9E3779B97F4A7C15), so `random_triples` computes its outputs by
index, many at once.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, combinations, compress
from math import comb

from .core import Hypergraph3, Partition, _check_matching_size, _vertex_count

__all__ = [
    "extremal_star",
    "cut_family",
    "blocker_family",
    "random_triples",
    "pad_to_perfect",
    "splitmix64_stream",
]

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64_stream(seed: int):
    """Yield the standard splitmix64 output stream for a 64-bit seed.

    state_{i+1} = state_i + 0x9E3779B97F4A7C15 (mod 2^64), output is the
    usual xor-shift/multiply finalizer of the new state.  This is the
    reference generator for every seeded construction in this module.
    """
    s = seed & _M64
    while True:
        s = (s + _GOLDEN) & _M64
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        yield z ^ (z >> 31)


_BLOCK = 512


@cache
def _lanes() -> tuple[int, int, int]:
    """ONES, LANE and RAMP over _BLOCK lanes, built on first use."""
    ones = int.from_bytes((b"\1" + bytes(15)) * _BLOCK, "little")
    ramp = b"".join((j * _GOLDEN).to_bytes(16, "little") for j in range(1, _BLOCK + 1))
    return ones, ones * _M64, int.from_bytes(ramp, "little")


def _keep_flags(seed: int, cut: int, total: int):
    """Yield one byte per splitmix64 output 1..total: 1 iff the output is < cut.

    A block starting at output index s packs 128-bit lanes, lane j holding
    output s + j + 1 in its low 64 bits (each RAMP lane is below 2^74).  A
    64-bit lane times a 64-bit constant is below 2^128, so no product
    reaches the next lane.  base - z = ONES·(2^64 + cut - 1) - z stays below
    2^65 per lane and sets bit 64 exactly when the output is < cut.
    """
    ones, lane, ramp = _lanes()
    base = ones * ((1 << 64) + cut - 1)
    for s in range(0, total, _BLOCK):
        k = min(_BLOCK, total - s)
        if k < _BLOCK:
            short = (1 << 128 * k) - 1
            ones, lane, ramp, base = ones & short, lane & short, ramp & short, base & short
        z = (ramp + ones * ((seed + s * _GOLDEN) & _M64)) & lane
        z = ((z ^ (z >> 30) & lane) * 0xBF58476D1CE4E5B9) & lane
        z = ((z ^ (z >> 27) & lane) * 0x94D049BB133111EB) & lane
        z ^= (z >> 31) & lane
        yield (base - z).to_bytes(16 * k, "little")[8::16]


def extremal_star(n: int) -> tuple[Hypergraph3, Partition]:
    """The tight example for the perfect-matching degree bound.

    Classes V and W of sizes 2n/3 + 1 and n/3 - 1; the edges are exactly
    the triples with at least one endpoint in W.  Every matching edge
    spends a W-vertex, so the maximum matching has size n/3 - 1: one
    short of perfect, while the minimum degree is exactly
    C(n-1,2) - C(2n/3,2).
    """
    if n < 6:
        raise ValueError("need n >= 6")
    if n % 3 != 0:
        raise ValueError("the construction needs n divisible by 3")
    return blocker_family(n, n // 3)


def cut_family(n: int, d: int) -> tuple[Hypergraph3, Partition]:
    """All triples with exactly one or two endpoints in the class W of the top d vertices.

    The densest hypergraph in which no edge lies inside V or inside W.
    It has a d-matching (pair up W with V two at a time) and minimum
    degree C(n-1,2) - C(n-d-1,2), attained on V.
    """
    _check_matching_size(n, d)
    low = n - d
    # W is the top index range: the smallest vertex in V, the largest in W
    edges = (e for e in combinations(range(n), 3) if e[0] < low <= e[2])
    return Hypergraph3._from_labels(n, tuple(chain.from_iterable(edges))), Partition(n, range(low, n), d)


def blocker_family(n: int, d: int) -> tuple[Hypergraph3, Partition]:
    """All triples meeting a blocker class W of size d - 1.

    Every edge spends a W-vertex, so the maximum matching is d - 1, while
    the minimum degree equals the d-matching boundary C(n-1,2) - C(n-d,2)
    exactly (attained on V; boundary, not exceeding).
    """
    _check_matching_size(n, d, 1)
    low = n - (d - 1)
    # W is the top index range, so "meets W" = largest vertex in W
    edges = (e for e in combinations(range(n), 3) if e[2] >= low)
    return Hypergraph3._from_labels(n, tuple(chain.from_iterable(edges))), Partition(n, range(low, n), d)


def random_triples(n: int, p: float, seed: int) -> Hypergraph3:
    """Include each of the C(n,3) triples independently with probability p.

    Triples are enumerated in lexicographic order; triple i is included
    iff the i-th splitmix64 output for `seed` is < floor(p * 2^64).  Two
    runs (in any conforming implementation) with equal (n, p, seed)
    produce identical edge sets.  Output i is computed from its state
    s_i = seed + i·γ, in blocks, not by stepping `splitmix64_stream`.
    """
    _vertex_count(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    flags = chain.from_iterable(_keep_flags(seed, int(p * 2**64), comb(n, 3)))
    return Hypergraph3._from_labels(n, tuple(chain.from_iterable(compress(combinations(range(n), 3), flags))))


def pad_to_perfect(H: Hypergraph3, d: int) -> Hypergraph3:
    """Pad with universal vertices so a d-matching question becomes near-perfect.

    Adds a = floor((n - 3d)/2) new vertices, each forming an edge with
    every pair of other vertices of the padded hypergraph.  If the
    original minimum degree exceeds the d-matching boundary, the padded
    one exceeds the floor(n'/3)-matching boundary on its order n'.
    """
    _check_matching_size(H.n, d)
    a = (H.n - 3 * d) // 2
    if a == 0:
        return H
    n2 = H.n + a
    labels = iter(H.labels)
    # new vertices are the top indices, so "meets a new vertex" = max >= old n:
    # the new triples are canonical and none of them is an old edge
    new = (e for e in combinations(range(n2), 3) if e[2] >= H.n)
    edges = sorted(chain(zip(labels, labels, labels), new))
    return Hypergraph3._from_labels(n2, tuple(chain.from_iterable(edges)))
