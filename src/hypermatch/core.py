"""Core types for 3-uniform hypergraphs on dense integer vertices.

Vertices are the indices 0..n-1.  Edges are unordered 3-element subsets,
stored canonically: each triple sorted ascending, the edge list sorted
lexicographically, duplicates removed.  A hypergraph stores its edges
once, as the tuple `labels` of their 3m vertex labels, and beside it one
incidence bitmask per vertex (bit j set iff edge j contains the vertex),
so degree, codegree and link extraction are word-level operations at the
instance sizes this library targets.

Every hypergraph is made by one private builder,
`Hypergraph3._from_labels`.  The constructor calls it after
`_canon_labels` has sorted each raw triple, checked them column by
column and sorted them by an integer key; `remove_vertices` and the
generators of `constructions` call it directly.  `parse_h3` decodes
tokens through one table seeded with str(v) → v, so a label spelled as
`to_h3` writes it costs a lookup and any other spelling one int() call.
A canonical body (every file `to_h3` writes), tested on the bit planes
the builder reads, is passed on as the labels with the incidence built
from the same planes; any other body goes through the constructor.

The builder runs no Python step per edge.  It packs the 3m labels into
bytes, and for each column c of the edges and each bit k of a label it
parses one bit plane: the mask of the edges whose vertex c has bit k
set, from a strided byte slice translated to "0"/"1" digits.  Splitting
the all-edges mask on a column's planes from the top bit down gives each
vertex its edges in that column, and the three columns are ORed.  That
is O(m log n) bytes of C-level work plus about 4n big-int operations per
column.  Split over the tracked triples of `absorbing` in place of
edges, the columns are that module's per-position vertex masks.  The
canonical test runs a bit-sliced comparator over the same planes, top
bit first: column 0 against column 1 and column 1 against
column 2 (a < b < c), and each column against itself shifted by one
edge, which orders consecutive edges lexicographically.  The range
check rides along: a label below 0 or too wide fails the packing, one
at or above 2^top (top the bit length of n - 1) shows in its high
bytes, and one in n..2^top - 1 lands in a child the split drops.  The
mask of a vertex takes about (its highest edge index)/8 bytes, so memory
is not linear in n + m on sparse inputs over many vertices.

All objects here are immutable after construction; operations that
"modify" a hypergraph return a new one.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, partial
from itertools import chain, combinations, islice, repeat
from operator import add, and_, lt, mul, or_, xor
from typing import ClassVar

__all__ = [
    "Hypergraph3",
    "Partition",
    "Matching",
    "DegreeProfile",
    "Report",
    "threshold",
    "degree_profile",
    "to_h3",
    "parse_h3",
    "write_h3",
    "read_h3",
]

Edge = tuple[int, int, int]

# _PLANE[b] translates a byte to b"1" if its bit b is set, else to b"0"
_PLANE = tuple((b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8))
# _LOW[b] lists the bytes below 2^b
_LOW = tuple(bytes(range(1 << b)) for b in range(8))


def _pack(n: int, flat) -> tuple[bytes, int]:
    """The labels of flat as little-endian bytes, and the bytes per label.

    ValueError or OverflowError if a label is negative or too wide.
    """
    if n <= 256:
        # bytearray packs a list of small ints several times faster than array("B")
        return bytearray(flat), 1
    # unsigned long long: any label a list of n masks can index fits
    packed = array("Q", flat)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes(), packed.itemsize


def _planes(n: int, m: int, raw: bytes, size: int) -> tuple[list[int], list[int], list[int]]:
    """The bit planes of each column of m edges, from their 3m labels packed by `_pack`.

    Plane k of column c is the mask of the edges whose vertex c has bit k
    set; each column lists its planes for k = 0..top-1, top the bit length
    of n - 1.  Each plane is one strided byte slice, translated to "0"/"1"
    digits and parsed by int(): O(m log n) bytes of C-level work.
    """
    top = (n - 1).bit_length()
    planes = ([], [], [])
    for k in range(0, top, 8):
        for c, column in enumerate(planes):
            # byte k / 8 of each label in column c, the last edge first, so
            # that int(..., 2) reads edge i as bit i
            col = raw[(3 * m - 3 + c) * size + (k >> 3) :: -3 * size]
            column.extend(map(int, map(col.translate, _PLANE[: top - k]), repeat(2)))
    return planes


def _less(xs: list[int], ys: list[int], within: int) -> tuple[int, int]:
    """(lt, eq): the edges of `within` whose label read from planes xs is below, and equal to, that from ys.

    A bit-sliced comparator: the planes are read from the top bit down,
    and an edge leaves `eq` at the first bit where its two labels differ.
    """
    lt, eq = 0, within
    for x, y in zip(reversed(xs), reversed(ys)):
        differ = eq & (x ^ y)
        lt |= differ & y
        eq ^= differ
    return lt, eq


def _ordered(m: int, planes) -> bool:
    """Whether each edge's labels strictly increase along the columns and the edges strictly increase lexicographically."""
    full = (1 << m) - 1
    c0, c1, c2 = planes
    if _less(c0, c1, full)[0] != full or _less(c1, c2, full)[0] != full:
        return False
    # plane >> 1 holds at bit i the label of edge i + 1
    (lt0, eq0), (lt1, eq1), (lt2, _) = (_less(c, [p >> 1 for p in c], full >> 1) for c in planes)
    return (lt0 | eq0 & (lt1 | eq1 & lt2)) == full >> 1


def _split(n: int, m: int, planes) -> tuple[list[int], list[int], list[int]] | None:
    """Per-column vertex masks from the bit planes of the three columns; None if a label lies in n..2^top - 1.

    Column c's list gives each vertex the edges that hold it as vertex c.

    Splitting the all-edges mask on the planes of a column from the top
    bit down leaves, for each prefix, the edges whose vertex in that
    column starts with it; the prefixes of full length are the vertices.
    The three columns are split side by side in one list, so each step is
    a few C-level passes, about 4n big-int operations per column in all.
    """
    by_bit = list(zip(*planes))
    # after bit k: column 0's masks of the prefixes p <= (n - 1) >> k, then column 1's, then column 2's
    level, width = [(1 << m) - 1] * 3, 1
    for k in reversed(range(len(by_bit))):
        ones = list(map(and_, level, chain.from_iterable(map(repeat, by_bit[k], repeat(width)))))
        split = [0] * (2 * len(level))
        split[0::2] = map(xor, level, ones)
        split[1::2] = ones
        level, width = split, 2 * width
        if (n - 1) >> k == width - 2:
            # the last child in each column starts at n or above, so it holds no edge of a valid body
            if any(level[width - 1 :: width]):
                return None
            del level[width - 1 :: width]
            width -= 1
    return level[:n], level[n : 2 * n], level[2 * n :]


def _union(columns) -> tuple[int, ...]:
    """The incidence: each vertex's masks of the three columns ORed."""
    return tuple(map(or_, map(or_, columns[0], columns[1]), columns[2]))


def _columns(n: int, m: int, flat) -> tuple[list[int], list[int], list[int]]:
    """Per-column vertex masks of m >= 1 triples over 0..n-1, given as the flat sequence of their 3m labels."""
    return _split(n, m, _planes(n, m, *_pack(n, flat)))


def _incidence(n: int, m: int, flat) -> tuple[int, ...]:
    """Per-vertex edge masks of m canonical edges, given as the flat sequence of their 3m labels."""
    return _union(_columns(n, m, flat)) if m else (0,) * n


def _canonical_incidence(n: int, m: int, flat: tuple) -> tuple[int, ...] | None:
    """The incidence of the m edges listed by the 3m labels of flat if they are canonical, else None.

    Canonical: m >= 1, every label in 0..n-1, each triple strictly
    increasing and the triples strictly increasing lexicographically.
    The test runs on the bit planes that the builder reads, so it takes
    no Python step per edge and builds no edge tuple.
    """
    if not m or n < 3:
        return None
    try:
        raw, size = _pack(n, flat)
    except (ValueError, OverflowError):
        return None  # a negative label, or one too wide to pack
    top = (n - 1).bit_length()
    # bytes j >= top / 8 of a label hold the bits that no plane reads
    if any(raw[j::size].translate(None, _LOW[max(0, top - 8 * j)]) for j in range(top >> 3, size)):
        return None
    planes = _planes(n, m, raw, size)
    columns = _ordered(m, planes) and _split(n, m, planes)
    return _union(columns) if columns else None


def _canon_labels(edges: list, n: int) -> tuple[int, ...]:
    """The canonical labels of a non-empty list of raw triples; ValueError names the first bad one."""
    canon: list = []
    err = None
    try:
        # list.extend keeps the triples converted before a failing int()
        canon.extend(map(tuple, map(sorted, map(partial(map, int), edges))))
    except (TypeError, ValueError, OverflowError) as exc:
        err = exc
    else:
        if set(map(len, canon)) == {3}:
            lo, mid, hi = zip(*canon)
            if min(lo) >= 0 and max(hi) < n and all(map(lt, lo, mid)) and all(map(lt, mid, hi)):
                # (a·n + b)·n + c orders like (a, b, c)
                keyed = dict(zip(map(add, map(mul, map(add, map(mul, lo, repeat(n)), mid), repeat(n)), hi), canon))
                return tuple(chain.from_iterable(map(keyed.__getitem__, sorted(keyed))))
    for edge, t in zip(edges, canon):
        if len(t) != 3 or len(set(t)) != 3:
            raise ValueError(f"edge {edge!r} must have exactly 3 distinct vertices")
        if t[0] < 0 or t[2] >= n:
            raise ValueError(f"edge {edge!r} has a vertex outside 0..{n - 1}")
    raise err


def _vertex_count(n) -> int:
    """int(n), or ValueError unless 0 <= n <= sys.maxsize: the incidence is a tuple of n masks."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > sys.maxsize:
        raise ValueError(f"vertex count {n} exceeds sys.maxsize ({sys.maxsize})")
    return int(n)


class Hypergraph3:
    """A 3-uniform hypergraph with canonical edge storage.

    Attributes
    ----------
    n : number of vertices (indices 0..n-1; n = 0 is legal and empty).
    m : number of edges.
    labels : tuple of the 3m vertex labels of the edges, the only store of
        them: edge j is labels[3j] < labels[3j + 1] < labels[3j + 2], and
        the edges are in strictly increasing lexicographic order.
    incidence : per-vertex bitmask over edge indices; the mask of a vertex
        takes about (its highest edge index)/8 bytes.

    `edges` (the tuple of sorted triples) and `edge_set` (a frozenset of
    them) are views derived from `labels` on first read.

    The constructor accepts any iterable of triples and canonicalises
    them.  Every builder ends in `_from_labels`, which splits the edges
    on the bit planes of each column's vertex labels unless the caller
    (`parse_h3`, which checks canonical order on those planes) passes the
    incidence it already has.
    """

    def __init__(self, n: int, edges=()):
        n = _vertex_count(n)
        edges = list(edges)
        H = self._from_labels(n, _canon_labels(edges, n) if edges else ())
        self.n, self.m, self.labels, self.incidence = H.n, H.m, H.labels, H.incidence

    @classmethod
    def _from_labels(cls, n: int, labels: tuple[int, ...], incidence=None) -> "Hypergraph3":
        """A hypergraph on the canonical edges whose 3m labels are given; its incidence unless given."""
        H, m = cls.__new__(cls), len(labels) // 3
        H.n, H.m, H.labels = n, m, labels
        H.incidence = _incidence(n, m, labels) if incidence is None else incidence
        return H

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        labels = iter(self.labels)
        return tuple(zip(labels, labels, labels))

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        labels = iter(self.labels)
        return frozenset(zip(labels, labels, labels))

    def _check_vertex(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")
        return v

    def degree(self, v: int) -> int:
        """Number of edges containing v."""
        return self.incidence[self._check_vertex(v)].bit_count()

    def codegree(self, u: int, v: int) -> int:
        """Number of edges containing both u and v."""
        if u == v:
            raise ValueError("codegree requires two distinct vertices")
        return (self.incidence[self._check_vertex(u)] & self.incidence[self._check_vertex(v)]).bit_count()

    def min_degree(self, ell: int = 1) -> int:
        """Minimum degree (ell=1) or minimum codegree (ell=2) over the whole graph."""
        if ell == 1:
            if self.n == 0:
                raise ValueError("minimum degree of an empty vertex set is undefined")
            return min(self.incidence[v].bit_count() for v in range(self.n))
        if ell == 2:
            if self.n < 2:
                raise ValueError("minimum codegree needs at least 2 vertices")
            # v meets at most 2 deg(v) others; if no v meets fewer than n - 1, C(n, 2) <= 3m
            if 2 * min(x.bit_count() for x in self.incidence) < self.n - 1:
                return 0
            return min(
                (self.incidence[u] & self.incidence[v]).bit_count()
                for u, v in combinations(range(self.n), 2)
            )
        raise ValueError("ell must be 1 or 2")

    def remove_vertices(self, remove) -> tuple["Hypergraph3", tuple[int, ...]]:
        """Delete a vertex set and every edge meeting it.

        The surviving vertices are reindexed to 0..n'-1 in increasing order
        of their old labels.  Returns (subhypergraph, new_to_old) where
        new_to_old[i] is the old label of new vertex i.  Removing nothing
        returns this hypergraph itself, which is immutable.
        """
        gone = set(remove)
        for v in gone:
            self._check_vertex(v)
        if not gone:
            return self, tuple(range(self.n))
        kept = tuple(v for v in range(self.n) if v not in gone)
        old_to_new = {v: i for i, v in enumerate(kept)}
        labels = iter(self.labels)
        sub = chain.from_iterable(
            (old_to_new[a], old_to_new[b], old_to_new[c])
            for a, b, c in zip(labels, labels, labels)
            if a not in gone and b not in gone and c not in gone
        )
        # the relabelling preserves order, so the edges stay canonical
        return Hypergraph3._from_labels(len(kept), tuple(sub)), kept

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraph3)
            and self.n == other.n
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.n, self.labels))

    def __repr__(self):
        return f"Hypergraph3(n={self.n}, m={self.m})"


def _check_matching_size(n: int, d: int, least: int = 0) -> None:
    """ValueError unless least <= d <= n/3 (tested first) and n is a vertex count: a d-matching covers 3d vertices."""
    if d < least or 3 * d > n:
        raise ValueError(f"need {least} <= d <= n/3")
    _vertex_count(n)


def threshold(n: int, d: int) -> int:
    """Minimum-degree boundary for a d-matching: C(n-1,2) - C(n-d,2).

    A hypergraph whose minimum degree strictly exceeds this value is the
    regime where a d-matching is forced (for d <= n/3 and n large); the
    blocker construction attains the value exactly without a d-matching.

    In closed form the value is (d-1)(n - d/2 - 1), which lies exactly
    n + d/2 - 1 below the quadratic form (1 - (1 - d/n)^2) n^2/2 = d(n - d/2).
    Acceptance check 9a asserts this identity in exact integers.
    """
    _check_matching_size(n, d, 1)
    return math.comb(n - 1, 2) - math.comb(n - d, 2)


@dataclass(frozen=True)
class Partition:
    """A two-class vertex partition (V, W) with a target matching size d.

    W is the distinguished (usually small) class; V is everything else.
    d is the matching size the partition is associated with, which need
    not equal |W| (the blocker family uses |W| = d - 1).
    """

    n: int
    W: frozenset[int]
    d: int

    def __init__(self, n: int, W, d: int):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "W", frozenset(int(v) for v in W))
        object.__setattr__(self, "d", int(d))
        if any(v < 0 or v >= self.n for v in self.W):
            raise ValueError("W contains a vertex outside 0..n-1")
        _check_matching_size(self.n, self.d)

    @property
    def V(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if v not in self.W)

    def w_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.W))


@dataclass
class Matching:
    """A set of pairwise-disjoint edges of a host hypergraph.

    Validates membership and disjointness on construction.  Exposes the
    covered vertex set and its complement (the uncovered vertices).
    """

    host: Hypergraph3
    edges: tuple[Edge, ...]

    def __init__(self, host: Hypergraph3, edges):
        self.host = host
        self.edges = tuple(tuple(sorted(e)) for e in edges)
        inc, n = host.incidence, host.n
        seen: set[int] = set()
        for e in self.edges:
            try:
                # three distinct vertices form an edge iff their incidences meet
                a, b, c = e
                hit = 0 <= a < b < c < n and inc[a] & inc[b] & inc[c]
            except (TypeError, ValueError):
                hit = False
            if not hit:
                raise ValueError(f"{e} is not an edge of the host hypergraph")
            if seen & set(e):
                raise ValueError(f"edge {e} overlaps another matching edge")
            seen.update(e)
        self.covered = frozenset(seen)

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def uncovered(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.host.n) if v not in self.covered)

    def __len__(self):
        return len(self.edges)


class Report:
    """A JSON report: `to_json_dict` is {"schema": SCHEMA} plus every field.

    Subclasses are dataclasses that set the class attribute SCHEMA
    (unannotated, so that it is not a field).  Field
    values are written recursively: tuples and lists as lists, nested
    dataclasses as objects of their fields, dicts with their values
    converted and a tuple key as its items joined by spaces (the edge
    (0, 1, 6) as "0 1 6"); anything else as it is.
    """

    SCHEMA: ClassVar[str]

    def to_json_dict(self) -> dict:
        return {"schema": self.SCHEMA, **_json_value(self)}


_SCALARS = (int, float, str, type(None))


def _json_value(x):
    if isinstance(x, (tuple, list)):
        # scalars are copied without a call: edge lists are most of a report
        return [v if isinstance(v, _SCALARS) else _json_value(v) for v in x]
    if isinstance(x, dict):
        return {" ".join(map(str, k)) if isinstance(k, tuple) else k: _json_value(v) for k, v in x.items()}
    if is_dataclass(x):
        return {f.name: _json_value(getattr(x, f.name)) for f in fields(x)}
    return x


@dataclass(frozen=True)
class DegreeProfile(Report):
    """Per-vertex degrees, the minimum degree and the minimum codegree (None when n = 1)."""

    SCHEMA = "hypermatch.degrees/1"

    n: int
    m: int
    delta1: int
    delta2: int | None
    degrees: tuple[int, ...]


def degree_profile(H: Hypergraph3) -> DegreeProfile:
    """The degree report of H; no pair table, the codegree of a pair is `H.codegree(u, v)`."""
    if H.n == 0:
        raise ValueError("degree profile of an empty vertex set is undefined")
    degrees = tuple(x.bit_count() for x in H.incidence)
    return DegreeProfile(H.n, H.m, min(degrees), H.min_degree(2) if H.n > 1 else None, degrees)


# --- .h3 text format -------------------------------------------------------
#
# Line 1: "n m"; then m lines "a b c" with 0-based vertex indices.  Text
# after '#' on any line is a comment.  Serialization is canonical (edges
# already sorted), so equal hypergraphs produce byte-identical files.


_COMMENT = re.compile("#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")


def to_h3(H: Hypergraph3) -> str:
    return f"{H.n} {H.m}\n" + ("%d %d %d\n" * H.m) % H.labels


class _Labels(dict):
    """Token → value, seeded with str(v) → v; any other token is decoded by int() once, on first use."""

    __slots__ = ()

    def __missing__(self, token):
        value = self[token] = int(token)
        return value


def parse_h3(text: str) -> Hypergraph3:
    # a comment runs to the next line boundary that str.splitlines knows;
    # every such boundary is whitespace to str.split
    tokens = _COMMENT.sub("", text).split()
    if len(tokens) < 2:
        raise ValueError("missing 'n m' header")
    # the table holds str(v) → v for as many labels as there are tokens, so a
    # label spelled as to_h3 writes it costs one lookup and any other spelling
    # one int() call; tokens are decoded in file order, so the first bad token
    # is the one named
    try:
        n = int(tokens[0])
        seeded = range(min(n, len(tokens)))
        value = _Labels(zip(map(str, seeded), seeded)).__getitem__
        m = value(tokens[1])
        body = tuple(map(value, islice(tokens, 2, None)))
    except ValueError as exc:
        raise ValueError(f"non-integer token in .h3 input: {exc}") from None
    if m < 0:
        raise ValueError(f"negative edge count {m} in .h3 header")
    if len(body) != 3 * m:
        raise ValueError(f"expected {3 * m} vertex tokens for {m} edges, got {len(body)}")
    # fast path: a canonical body, which a file written by to_h3 always is,
    # becomes the labels as it stands, with the incidence its check built
    incidence = _canonical_incidence(_vertex_count(n), m, body)
    if incidence is None:
        labels = iter(body)
        return Hypergraph3(n, zip(labels, labels, labels))
    return Hypergraph3._from_labels(n, body, incidence)


def write_h3(H: Hypergraph3, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_h3(H))


def read_h3(path) -> Hypergraph3:
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return parse_h3(text)
