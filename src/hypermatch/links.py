"""Link patterns and the exhaustive classification of 3x3 bipartite patterns.

A labeled balanced bipartite graph on classes X = {x0,x1,x2} and
Y = {y0,y1,y2} is encoded in 9 bits, row-major: bit 3*i + j set iff
x_i y_j is present.  Among the 512 patterns, the ones with at least 5
edges and no perfect matching fall into exactly three isomorphism
classes, named here by the degree sequence of one class:

  b033  e=6, one side has degrees (0,3,3)   (K_{2,3} plus isolated vertex)
  b023  e=5, one side has degrees (0,2,3)
  b113  e=5, both sides have degrees (1,1,3)

b113 has a unique vertex of degree 3 on each side; those are its base
vertices and the edge between them (always present) is its base edge.

The class table is derived, not assumed: `_derive_classification`
enumerates all 512 masks, groups the perfect-matching-free ones with
5 or 6 edges by isomorphism, and checks that exactly the classes above
appear.  `verify_fact1` re-runs the derivation and reports the counts.

`link_pattern` reads the pattern of a vertex v between two disjoint
edges E and F straight from the incidence bitsets: x_i = E[i] and
y_j = F[j] are joined iff {v, x_i, y_j} is an edge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import permutations

from .core import Hypergraph3

__all__ = [
    "PatternKind",
    "PatternClass",
    "classify",
    "base_edge",
    "verify_fact1",
    "link_pattern",
]

_PERMS = tuple(permutations(range(3)))


class PatternKind(Enum):
    HAS_PM = "pm"
    B033 = "b033"
    B023 = "b023"
    B113 = "b113"
    DEFICIENT = "deficient"


@dataclass(frozen=True)
class PatternClass:
    kind: PatternKind
    base: tuple[int, int] | None = None  # only for B113: (row, col) of the base edge


# the 6 perfect matchings of K_{3,3} as masks: row i meets column s[i]
_PM_MASKS = tuple(1 << s0 | 1 << 3 + s1 | 1 << 6 + s2 for s0, s1, s2 in _PERMS)
# one 8-entry table per column permutation c: row bits r with bit j moved to c[j]
_COLS = tuple(
    tuple((r & 1) << c0 | (r >> 1 & 1) << c1 | (r >> 2) << c2 for r in range(8)) for c0, c1, c2 in _PERMS
)
# one shift triple per row permutation p: row i moves to row p[i]
_SHIFTS = tuple((3 * p0, 3 * p1, 3 * p2) for p0, p1, p2 in _PERMS)


def _check_mask(mask: int) -> int:
    if isinstance(mask, bool) or not isinstance(mask, int) or not 0 <= mask < 512:
        raise ValueError("pattern mask must be a 9-bit integer")
    return mask


def _transpose(mask: int) -> int:
    out = 0
    for i in range(3):
        for j in range(3):
            if mask >> (3 * i + j) & 1:
                out |= 1 << (3 * j + i)
    return out


def _relabelings(mask: int) -> list[int]:
    """The 36 class-preserving relabelings of a mask, repeats included.

    Each column permutation relabels the three 3-bit rows through one
    8-entry table; each row permutation then shifts them into place.
    """
    rows = [(col[mask & 7], col[mask >> 3 & 7], col[mask >> 6]) for col in _COLS]
    return [r0 << s0 | r1 << s1 | r2 << s2 for r0, r1, r2 in rows for s0, s1, s2 in _SHIFTS]


def _row_degrees(mask: int) -> tuple[int, ...]:
    return tuple((mask >> 3 * i & 0b111).bit_count() for i in range(3))


def _col_degrees(mask: int) -> tuple[int, ...]:
    return tuple(sum(mask >> (3 * i + j) & 1 for i in range(3)) for j in range(3))


def _derive_classification() -> dict[int, PatternClass]:
    """Enumerate all 512 masks and derive the class of each one.

    The masks with a perfect matching are the supersets of the six PM
    masks.  Each PM-free mask of 5 or 6 edges not yet grouped brings its
    isomorphism class, classes allowed to swap: the 72 relabelings of the
    mask and of its transpose.  Raises if the pattern-free structure
    differs from the expected three classes; that cannot happen, but the
    check is what makes the table derived rather than hard-coded.
    """
    pm_masks = set(_PM_MASKS)
    for pm in _PM_MASKS:
        free = sub = 511 ^ pm
        while sub:
            pm_masks.add(pm | sub)
            sub = (sub - 1) & free
    table: dict[int, PatternClass] = {}
    has_pm, deficient = PatternClass(PatternKind.HAS_PM), PatternClass(PatternKind.DEFICIENT)
    groups5: list[list[int]] = []
    groups6: list[list[int]] = []
    grouped: set[int] = set()
    for mask in range(512):
        if mask in pm_masks:
            table[mask] = has_pm
            continue
        e = mask.bit_count()
        if e >= 7:
            raise AssertionError(f"mask {mask:09b} has 7+ edges but no perfect matching")
        if e < 5:
            table[mask] = deficient
        elif mask not in grouped:
            orbit = {*_relabelings(mask), *_relabelings(_transpose(mask))}
            grouped |= orbit
            (groups6 if e == 6 else groups5).append(sorted(orbit))

    if len(groups6) != 1:
        raise AssertionError(f"expected one 6-edge PM-free class, found {len(groups6)}")
    if len(groups5) != 2:
        raise AssertionError(f"expected two 5-edge PM-free classes, found {len(groups5)}")

    for mask in groups6[0]:
        degs = {tuple(sorted(_row_degrees(mask))), tuple(sorted(_col_degrees(mask)))}
        if (0, 3, 3) not in degs:
            raise AssertionError("6-edge PM-free mask without a (0,3,3) side")
        table[mask] = PatternClass(PatternKind.B033)

    for masks in groups5:
        rd = tuple(sorted(_row_degrees(masks[0])))
        cd = tuple(sorted(_col_degrees(masks[0])))
        if rd == (1, 1, 3) and cd == (1, 1, 3):
            for mask in masks:
                table[mask] = PatternClass(PatternKind.B113, base=_find_base(mask))
        elif (0, 2, 3) in (rd, cd):
            for mask in masks:
                table[mask] = PatternClass(PatternKind.B023)
        else:
            raise AssertionError(f"unexpected 5-edge PM-free degree sequences {rd}/{cd}")

    if len(table) != 512:
        raise AssertionError("classification table incomplete")
    return table


def _find_base(mask: int) -> tuple[int, int]:
    rows = [i for i, deg in enumerate(_row_degrees(mask)) if deg == 3]
    cols = [j for j, deg in enumerate(_col_degrees(mask)) if deg == 3]
    if len(rows) != 1 or len(cols) != 1 or not mask >> (3 * rows[0] + cols[0]) & 1:
        raise AssertionError("not a b113 base structure")
    return rows[0], cols[0]


@cache
def _table() -> dict[int, PatternClass]:
    return _derive_classification()


def classify(mask: int) -> PatternClass:
    """Classify a 9-bit pattern: perfect matching, b033, b023, b113 or deficient."""
    return _table()[_check_mask(mask)]


def base_edge(mask: int) -> tuple[int, int]:
    """The (row, col) base pair of a b113 pattern; error for any other class."""
    cls = classify(mask)
    if cls.kind is not PatternKind.B113:
        raise ValueError(f"base edge is only defined for b113 patterns, got {cls.kind.value}")
    assert cls.base is not None
    return cls.base


def verify_fact1() -> dict:
    """Exhaustively re-derive the classification and report per-class counts.

    Checks, over all 512 labeled patterns: 7+ edges force a perfect
    matching; 6 edges without one are b033; 5 edges without one are b023
    or b113.  Violations would make the derivation raise; the report
    carries the counts and violations = 0.
    """
    table = _derive_classification()
    counts: dict[str, int] = {}
    by_edges: dict[int, dict[str, int]] = {}
    # keyed by the kind's string; Enum.__hash__ and the .value property are Python-level calls
    for (e, kind), k in Counter((mask.bit_count(), cls.kind._value_) for mask, cls in table.items()).items():
        counts[kind] = counts.get(kind, 0) + k
        by_edges.setdefault(e, {})[kind] = k
    return {
        "schema": "hypermatch.fact1/1",
        "total": len(table),
        "counts": dict(sorted(counts.items())),
        "counts_by_edge_count": {str(e): dict(sorted(v.items())) for e, v in sorted(by_edges.items())},
        "violations": 0,
    }


# --- link patterns ----------------------------------------------------------


def link_pattern(H: Hypergraph3, v: int, E, F) -> int:
    """The 9-bit link of v between the triples E and F.

    Bit 3i + j is set iff {v, E[i], F[j]} is an edge of H, with E and F
    taken sorted.  v, E and F must be seven distinct vertices of H.
    """
    E, F = sorted(map(H._check_vertex, E)), sorted(map(H._check_vertex, F))
    if len(E) != 3 or len(F) != 3 or len({H._check_vertex(v), *E, *F}) != 7:
        raise ValueError("a link pattern needs a center and two disjoint triples: seven distinct vertices")
    inc = H.incidence
    mask = 0
    for i, a in enumerate(E):
        va = inc[v] & inc[a]
        for j, b in enumerate(F):
            if va & inc[b]:
                mask |= 1 << 3 * i + j
    return mask
