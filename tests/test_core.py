"""Tests for the core hypergraph types and the .h3 format."""

import json
import math
import random
import re
import sys
import tracemalloc
from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermatch.core import (
    Hypergraph3,
    Matching,
    Partition,
    degree_profile,
    parse_h3,
    read_h3,
    threshold,
    to_h3,
    write_h3,
)
from hypermatch import absorbing, augment, core, exact, extremal
from hypermatch.constructions import (
    blocker_family,
    cut_family,
    extremal_star,
    pad_to_perfect,
    random_triples,
)
from hypermatch.cli import main
from oracles import (
    edge_type,
    naive_hypergraph,
    naive_parse_h3,
    naive_to_h3,
    packed_row_incidence,
    pairtable_degree_profile,
    perturb_remove,
    tuple_canonical,
)


def complete(n):
    return Hypergraph3(n, combinations(range(n), 3))


# deterministic random-ish edge lists for hypothesis
def edge_lists(max_n=9):
    return st.integers(min_value=3, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.sets(st.integers(0, n - 1), min_size=3, max_size=3).map(tuple),
                max_size=25,
            ),
        )
    )


class TestBuild:
    def test_single_edge(self):
        H = Hypergraph3(3, [[0, 1, 2]])
        assert H.edges == ((0, 1, 2),)

    def test_complete_k6(self):
        assert complete(6).m == 20

    def test_dedup(self):
        H = Hypergraph3(6, [[0, 1, 2], [0, 1, 2], [2, 1, 0]])
        assert H.m == 1

    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError):
            Hypergraph3(5, [[0, 0, 1]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph3(4, [[1, 2, 4]])
        with pytest.raises(ValueError):
            Hypergraph3(4, [[-1, 2, 3]])

    def test_empty_hypergraph_legal(self):
        assert Hypergraph3(0, []).m == 0

    def test_edge_cap(self):
        H = complete(7)
        assert H.m <= math.comb(7, 3)


class TestDegrees:
    def test_degree_empty(self):
        H = Hypergraph3(5, [])
        assert all(H.degree(v) == 0 for v in range(5))

    def test_star6_degrees(self):
        H, P = extremal_star(6)
        # W = {5}: a V-vertex sees C(5,2) - C(4,2) edges, the hub all C(5,2)
        (w,) = P.W
        for v in range(6):
            direct = sum(1 for e in H.edges if v in e)
            assert H.degree(v) == direct
        assert H.degree(0) == 4
        assert H.degree(w) == 10

    def test_codegree_empty(self):
        assert Hypergraph3(4, []).codegree(0, 1) == 0

    def test_codegree_cut_family(self):
        H, P = cut_family(9, 3)
        v1, v2 = P.V[0], P.V[1]
        w1, w2 = sorted(P.W)[:2]
        assert H.codegree(v1, v2) == 3
        assert H.codegree(w1, w2) == 6

    def test_codegree_rejects_equal(self):
        with pytest.raises(ValueError):
            complete(4).codegree(2, 2)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            complete(4).degree(4)

    def test_min_degree(self):
        assert complete(6).min_degree(1) == 10
        H, _ = extremal_star(6)
        assert H.min_degree(1) == 4
        Hc, _ = cut_family(9, 3)
        assert Hc.min_degree(2) == 3

    def test_min_degree_errors(self):
        with pytest.raises(ValueError):
            Hypergraph3(0, []).min_degree(1)
        with pytest.raises(ValueError):
            Hypergraph3(1, []).min_degree(2)
        with pytest.raises(ValueError):
            complete(4).min_degree(3)


class TestThreshold:
    @pytest.mark.parametrize("n", [3, 6, 10, 50])
    def test_d1_is_zero(self, n):
        assert threshold(n, 1) == 0

    def test_values(self):
        assert threshold(6, 2) == 4
        assert threshold(9, 3) == 13

    def test_perfect_matching_form(self):
        # at d = n/3 the formula matches C(n-1,2) - C(2n/3,2)
        for n in (6, 9, 12, 15, 30):
            assert threshold(n, n // 3) == math.comb(n - 1, 2) - math.comb(2 * n // 3, 2)

    def test_monotone_small(self):
        for n in range(6, 40):
            vals = [threshold(n, d) for d in range(1, n // 3 + 1)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            threshold(9, 4)
        with pytest.raises(ValueError):
            threshold(9, 0)


class TestRemoveVertices:
    def test_remove_nothing(self):
        H = complete(6)
        H2, kept = H.remove_vertices([])
        assert H2 == H and kept == tuple(range(6))

    def test_k6_minus_vertex(self):
        H2, kept = complete(6).remove_vertices([3])
        assert H2.n == 5 and H2.m == 10
        assert kept == (0, 1, 2, 4, 5)

    def test_star_minus_hub(self):
        H, P = extremal_star(6)
        H2, _ = H.remove_vertices(P.W)
        assert H2.n == 5 and H2.m == 0

    def test_degree_matches_recount(self):
        H, _ = cut_family(10, 3)
        H2, kept = H.remove_vertices([0, 9])
        for v in range(H2.n):
            assert H2.degree(v) == sum(1 for e in H2.edges if v in e)


class TestEdgeType:
    def test_all_types(self):
        P = Partition(6, {4, 5}, 2)
        assert edge_type((0, 1, 2), P) == "VVV"
        assert edge_type((0, 1, 4), P) == "VVW"
        assert edge_type((0, 4, 5), P) == "VWW"
        P3 = Partition(9, {6, 7, 8}, 3)
        assert edge_type((6, 7, 8), P3) == "WWW"

    def test_cut_family_types(self):
        H, P = cut_family(9, 3)
        assert all(edge_type(e, P) in ("VVW", "VWW") for e in H.edges)


class TestMatching:
    def test_valid(self):
        H = complete(9)
        M = Matching(H, [(0, 1, 2), (3, 4, 5)])
        assert M.size == 2
        assert M.covered == frozenset(range(6))
        assert M.uncovered == (6, 7, 8)
        assert len(M.covered) == 3 * M.size

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Matching(complete(9), [(0, 1, 2), (2, 3, 4)])

    def test_rejects_non_edge(self):
        H = Hypergraph3(6, [(0, 1, 2)])
        with pytest.raises(ValueError):
            Matching(H, [(3, 4, 5)])

    @pytest.mark.parametrize(
        "edge, shown",
        [
            ((0, 1, 3), "(0, 1, 3)"),  # three vertices that share no edge
            ((2, 1, 1), "(1, 1, 2)"),  # a repeated vertex
            ((0, 1, 6), "(0, 1, 6)"),  # a vertex equal to n
            ((-1, 0, 1), "(-1, 0, 1)"),  # a negative vertex
            ((0, 1), "(0, 1)"),  # too short
            ((0, 1, 2, 3), "(0, 1, 2, 3)"),  # too long
            ((0.0, 1, 2), "(0.0, 1, 2)"),  # equal to an edge, but not an int
            (("0", "1", "2"), "('0', '1', '2')"),
        ],
    )
    def test_non_edge_messages(self, edge, shown):
        H = Hypergraph3(6, [(0, 1, 2), (3, 4, 5)])
        with pytest.raises(ValueError, match=f"^{re.escape(shown)} is not an edge of the host hypergraph$"):
            Matching(H, [(3, 4, 5), edge])

    def test_greedy_start_builds_no_edge_set(self):
        H = random_triples(18, 0.5, 1)
        M = augment.greedy_matching(H)
        assert M.size >= 1 and "edge_set" not in vars(H)


class TestPartition:
    def test_validates(self):
        with pytest.raises(ValueError):
            Partition(6, {7}, 1)
        with pytest.raises(ValueError):
            Partition(6, {0}, 3)

    def test_v_class(self):
        P = Partition(6, {4, 5}, 2)
        assert P.V == (0, 1, 2, 3)


@settings(max_examples=60, deadline=None)
@given(edge_lists())
def test_handshake(data):
    n, edges = data
    H = Hypergraph3(n, edges)
    assert sum(H.degree(v) for v in range(n)) == 3 * H.m
    assert sum(H.codegree(u, v) for u, v in combinations(range(n), 2)) == 3 * H.m


@settings(max_examples=60, deadline=None)
@given(edge_lists())
def test_h3_roundtrip(data):
    n, edges = data
    H = Hypergraph3(n, edges)
    text = to_h3(H)
    H2 = parse_h3(text)
    assert H2 == H
    assert to_h3(H2) == text  # canonical, byte-stable


def test_h3_comments_and_errors():
    H = parse_h3("# instance\n4 1  # header\n0 1 3\n")
    assert H.edges == ((0, 1, 3),)
    with pytest.raises(ValueError):
        parse_h3("")
    with pytest.raises(ValueError):
        parse_h3("4 2\n0 1 2\n")
    with pytest.raises(ValueError):
        parse_h3("4 1\n0 1 x\n")


def test_read_h3_names_a_non_utf8_file(tmp_path):
    path = tmp_path / "bin.h3"
    path.write_bytes(b"3 1\n0 1 \xff\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xff"):
        read_h3(path)


def test_degree_profile():
    H, _ = cut_family(9, 3)
    prof = degree_profile(H)
    assert (prof.n, prof.m) == (H.n, H.m)
    assert prof.delta1 == H.min_degree(1) == 18
    assert prof.delta2 == H.min_degree(2) == 3
    assert prof.degrees[0] == H.degree(0)
    assert prof.to_json_dict() == {
        "schema": "hypermatch.degrees/1", "n": 9, "m": H.m, "delta1": 18, "delta2": 3, "degrees": list(prof.degrees)
    }
    assert degree_profile(Hypergraph3(1, [])).delta2 is None
    with pytest.raises(ValueError):
        degree_profile(Hypergraph3(0, []))


def test_degree_profile_needs_no_pair_table():
    # 1000 disjoint edges on 3000 vertices: delta2 is 0 without the
    # C(3000, 2) = 4.5M codegrees of the pair table (about 420 MB)
    H = Hypergraph3(3000, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(1000)])
    tracemalloc.start()
    try:
        prof = degree_profile(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (prof.delta1, prof.delta2, prof.degrees) == (1, 0, (1,) * 3000)
    assert peak < 6 * 2**20


def test_min_codegree_at_the_shortcut_boundary(tmp_path):
    # the Fano plane: every vertex on 3 = (n - 1) / 2 edges and every pair on
    # one, so no vertex proves a codegree of 0; without one line, three do.
    # min_degree(2), degree_profile and the degrees command all agree with
    # the pair table
    fano = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (0, 4, 5), (1, 5, 6), (0, 2, 6)]
    path, out = tmp_path / "x.h3", tmp_path / "x.json"
    for H, delta2 in ((Hypergraph3(7, fano), 1), (Hypergraph3(7, fano[1:]), 0), (Hypergraph3(2, []), 0)):
        write_h3(H, path)
        assert main(["degrees", str(path), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert H.min_degree(2) == degree_profile(H).delta2 == rep["delta2"] == pairtable_degree_profile(H).delta2 == delta2
    with pytest.raises(ValueError):
        Hypergraph3(1, []).min_degree(2)


# --- fast paths against the original constructor (tests/oracles.py) ---------


def views_of(H):
    return (H.n, H.edges, H.incidence, H.edge_set)


def views(build_fn, *args):
    """The views a build gives, or the ValueError message it raises."""
    try:
        H = build_fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return views_of(H)


# the other line boundaries of str.splitlines; a comment ends at each of them
LINE_BOUNDARIES = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def h3_cases(draw):
    """(n, triples, .h3 text) over n <= 15, valid or malformed in the ways a file can be."""
    n = draw(st.integers(-2, 15))
    stray = st.lists(st.integers(-1, max(n, 0) + 1), min_size=3, max_size=3)  # repeats, out of range
    kinds = [stray]
    if n >= 3:
        in_range = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
        kinds = [in_range] if draw(st.booleans()) else [in_range, in_range, stray]
    triples = draw(st.lists(st.one_of(kinds), max_size=30))
    layout = draw(st.sampled_from(["canonical", "sorted", "shuffled"]))
    if layout == "canonical":
        # what to_h3 writes: sorted triples, strictly increasing, no duplicates
        triples = sorted({tuple(sorted(t)) for t in triples})
    elif layout == "sorted":
        triples = sorted(tuple(sorted(t)) for t in triples)  # may keep duplicates
    lines = [[str(n), str(len(triples))]] + [[str(v) for v in t] for t in triples]
    if draw(st.integers(0, 7)) == 0:
        lines[0][1] = str(draw(st.sampled_from([len(triples) + 1, len(triples) - 1, -1])))
    if len(lines) > 1 and draw(st.integers(0, 7)) == 0:
        row = lines[draw(st.integers(1, len(lines) - 1))]
        row[draw(st.integers(0, 2))] = draw(st.sampled_from(["x", "1.5", "0x3", ""]))
    text_lines = [" ".join(row) for row in lines]
    if draw(st.booleans()):
        for i in draw(st.lists(st.integers(0, len(text_lines) - 1), max_size=3)):
            text_lines[i] += draw(st.sampled_from(["  # note", "#", "# 9 9 9"]))
        text_lines.insert(draw(st.integers(0, len(text_lines))), "# comment 1 2 3")
    eol = draw(st.sampled_from(["\n", "\r\n", "\r", *LINE_BOUNDARIES]))
    text = eol.join(text_lines) + draw(st.sampled_from([eol, ""]))
    return n, [tuple(t) for t in triples], text


@settings(max_examples=300, deadline=None)
@given(h3_cases())
def test_parse_and_construct_match_original_constructor(case):
    n, triples, text = case
    assert views(parse_h3, text) == views(naive_parse_h3, text)
    assert views(Hypergraph3, n, triples) == views(naive_hypergraph, n, triples)


def shaped(triples, shapes):
    """The triples as tuples, lists or generators (shape 0, 1, 2), fresh on each call."""
    return [tuple(t) if k == 0 else list(t) if k == 1 else (v for v in t) for t, k in zip(triples, shapes)]


def without_addresses(result):
    # a generator's repr shows its address, which differs between two builds
    return tuple(re.sub(" at 0x[0-9a-f]+", "", x) if isinstance(x, str) else x for x in result)


@settings(max_examples=300, deadline=None)
@given(h3_cases(), st.data())
def test_construct_from_any_edge_shape_matches_original_constructor(case, data):
    n, triples, _ = case
    if triples:
        triples = triples + data.draw(st.lists(st.sampled_from(triples), max_size=5))  # duplicates
        triples = data.draw(st.permutations(triples))
    shapes = data.draw(st.lists(st.integers(0, 2), min_size=len(triples), max_size=len(triples)))
    lazy = data.draw(st.booleans())  # the edge list itself as an iterator

    def edges():
        got = shaped(triples, shapes)
        return iter(got) if lazy else got

    assert without_addresses(views(Hypergraph3, n, edges())) == without_addresses(views(naive_hypergraph, n, edges()))


BAD_EDGES = {
    "length": (0, 1),
    "repeat": (2, 2, 1),
    "range": (1, 2, 6),
    "negative": (-1, 2, 3),
    "string": ("x", 1, 2),
}


def error_of(build_fn, *args):
    with pytest.raises(ValueError) as info:
        build_fn(*args)
    return str(info.value)


@pytest.mark.parametrize("first, second", [(a, b) for a in BAD_EDGES for b in BAD_EDGES if a != b])
@pytest.mark.parametrize("as_list", [False, True])
def test_first_bad_edge_is_named(first, second, as_list):
    bad1, bad2 = (list(BAD_EDGES[k]) if as_list else BAD_EDGES[k] for k in (first, second))
    edges = [(5, 4, 3), bad1, [0, 1, 2], bad2, (1, 2, 3)]
    want = error_of(naive_hypergraph, 6, edges)
    assert error_of(Hypergraph3, 6, edges) == want == error_of(naive_hypergraph, 6, [bad1])


def test_non_integer_vertex_count_names_the_bad_edge():
    # the vertices are checked against int(n), the number of rows built
    edges = [(0, 1, 2), (4, 5, 6)]
    want = "edge (4, 5, 6) has a vertex outside 0..5"
    assert error_of(Hypergraph3, 6.5, edges) == error_of(naive_hypergraph, 6.5, edges) == want


@settings(max_examples=200, deadline=None)
@given(h3_cases())
def test_to_h3_matches_original_writer(case):
    n, triples, text = case
    for build_fn, args in ((parse_h3, (text,)), (Hypergraph3, (n, triples))):
        try:
            H = build_fn(*args)
        except ValueError:
            continue
        assert to_h3(H) == naive_to_h3(H)
    assert to_h3(Hypergraph3(0, [])) == naive_to_h3(Hypergraph3(0, [])) == "0 0\n"


def h45_copies():
    """Near-canonical copies of the dense cut family's file (n = 45, 9675 edges), as pytest params.

    Each fails the bit-plane order check and loads through the constructor:
    every triple reversed in shuffled lines, two neighbouring lines swapped,
    one line repeated under header m + 1 (the original reader keeps m = 9675)
    and a label of n.
    """
    head, *body = to_h3(cut_family(45, 15)[0]).splitlines()
    n, m = map(int, head.split())
    copies = {
        "h45-shuffled": [head, *(" ".join(line.split()[::-1]) for line in random.Random(1).sample(body, m))],
        "h45-swapped": [head, *body[:100], body[101], body[100], *body[102:]],
        "h45-repeated": [f"{n} {m + 1}", *body[:101], *body[100:]],
        "h45-label-n": [head, *body[:-1], " ".join(body[-1].split()[:2] + [str(n)])],
    }
    return [pytest.param("\n".join(lines) + "\n", id=name) for name, lines in copies.items()]


@pytest.mark.parametrize(
    "text",
    [
        "4 1\n-1 1 2\n",  # sorted, but a negative vertex
        "4 1\n1 2 4\n",  # sorted, but a vertex equal to n
        "4 1\n0 1 1\n",  # a repeated vertex in the last two columns
        "4 1\n1 1 2\n",  # a repeated vertex in the first two columns
        "4 2\n0 1 2\n0 1 2\n",  # a duplicate edge
        "4 2\n0 1 3\n0 1 2\n",  # edges out of order
        "4 1\n0 2 1\n",  # a triple out of order
        "-3 1\n0 1 2\n",  # negative n
        "-1 0\n",  # negative n, no edges
        "0 0\n",
        "3 1\r0 1 2\r",
        "3 1 # n m\r0 1 2\n",
        "4 2\n0 1 2 # x\r\n1 2 3\n",
        *(f"4 2 # a{eol}0 1 2 #b{eol}1 2 3 # 9{eol}" for eol in LINE_BOUNDARIES),
        "4 1\n0 1 2 #\x1f1 2 3\n",  # \x1f is whitespace but not a line boundary
        *h45_copies(),
    ],
)
def test_parse_near_canonical_bodies(text):
    assert views(parse_h3, text) == views(naive_parse_h3, text)


@settings(max_examples=100, deadline=None)
@given(edge_lists(max_n=15), st.randoms(use_true_random=False))
def test_remove_vertices_matches_original_constructor(data, rnd):
    n, edges = data
    H = Hypergraph3(n, edges)
    gone = set(rnd.sample(range(n), rnd.randint(0, n)))
    sub, kept = H.remove_vertices(gone)
    assert kept == tuple(v for v in range(n) if v not in gone)
    new = {v: i for i, v in enumerate(kept)}
    want = naive_hypergraph(len(kept), [[new[v] for v in e] for e in H.edges if not gone & set(e)])
    assert views_of(sub) == views_of(want)


def test_parse_fast_path_skips_canonicalisation(monkeypatch):
    """A canonical body never reaches _canon_labels; any other body still does."""
    H, _ = cut_family(12, 4)
    text = to_h3(H)
    sub_edges = H.remove_vertices([0, 5])[0].edges

    def refuse(edge, n):
        raise AssertionError("canonical input was re-canonicalised")

    monkeypatch.setattr(core, "_canon_labels", refuse)
    assert parse_h3(text) == H
    assert parse_h3(text.replace("\n", "\r\n")) == H
    assert H.remove_vertices([0, 5])[0].edges == sub_edges
    for other in ("4 2\n0 1 3\n0 1 2\n", "4 1\n3 1 0\n", "4 2\n0 1 2\n0 1 2\n", "# c\n4 1\n1 0 2\n"):
        with pytest.raises(AssertionError):
            parse_h3(other)


def test_edge_set_built_on_first_use():
    H = parse_h3("5 2\n0 1 2\n2 3 4\n")
    assert "edge_set" not in vars(H)
    assert tuple(sorted((2, 1, 0))) in H.edge_set and tuple(sorted((1, 2, 3))) not in H.edge_set
    assert vars(H)["edge_set"] == frozenset({(0, 1, 2), (2, 3, 4)})
    # the set is made from the labels: reading it caches no `edges` beside it
    assert "edges" not in vars(H)
    # the labels and the incidence are the only stores
    assert not hasattr(H, "edge_masks") and H.incidence == (0b01, 0b01, 0b11, 0b10, 0b10)
    assert H.labels == (0, 1, 2, 2, 3, 4)


def test_incidence_of_large_sparse_instance():
    rng = random.Random(3)
    n = 300
    edges = [tuple(rng.sample(range(n), 3)) for _ in range(2000)]
    assert views_of(Hypergraph3(n, edges)) == views_of(naive_hypergraph(n, edges))


def test_many_vertices_few_edges_stay_small():
    """Building views takes memory linear in n and m, not n^2 bits or n*m bytes."""
    n = 200_000  # a table of 1 << v for every v would take about 2.5 GB
    tracemalloc.start()
    try:
        H = parse_h3(f"{n} 1\n0 1 2\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.edges == ((0, 1, 2),) and H.incidence[:4] == (1, 1, 1, 0)
    assert not any(H.incidence[3:])
    assert peak < 64 * 2**20


# --- the canonical fast path: canonical bodies against the original reader ------


@pytest.fixture
def canonical_only(monkeypatch):
    """Canonical bodies must load straight through _from_labels, never through _canon_labels."""

    def refuse(edge, n):
        raise AssertionError("canonical input was re-canonicalised")

    monkeypatch.setattr(core, "_canon_labels", refuse)


def h3_text(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{a} {b} {c}\n" for a, b, c in edges)


def block_union(blocks, seed):
    """Disjoint random_triples(9, 0.12) blocks; block b holds the vertices 9b..9b+8."""
    parts = [random_triples(9, 0.12, seed + b) for b in range(blocks)]
    return 9 * blocks, [tuple(9 * b + v for v in e) for b, B in enumerate(parts) for e in B.edges]


@pytest.mark.parametrize(
    "n,edges",
    [
        (45, cut_family(45, 15)[0].edges),
        *((60, random_triples(60, 0.05, s).edges) for s in range(3)),
        block_union(16, 5),
        (3000, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(1000)]),
    ],
    ids=["cut-45-15", "random-60-s0", "random-60-s1", "random-60-s2", "union-16-blocks", "disjoint-1000"],
)
def test_large_canonical_bodies_match_original_reader(canonical_only, n, edges):
    text = h3_text(n, edges)
    assert views(parse_h3, text) == views(naive_parse_h3, text)
    assert parse_h3(text).edges == tuple(edges)


# edge counts on both sides of a byte of edge bits: every residue of the
# edge index mod 8 is empty, partly filled or full
EDGE_COUNTS = [0, 1, 7, 8, 9, 15, 16, 17]


@pytest.mark.parametrize("m", EDGE_COUNTS)
@pytest.mark.parametrize("seed", range(4))
def test_canonical_bodies_at_byte_edges_match_original_reader(canonical_only, m, seed):
    edges = sorted(random.Random(seed).sample(list(combinations(range(9), 3)), m))
    text = h3_text(9, edges)
    assert views(parse_h3, text) == views(naive_parse_h3, text)


@pytest.mark.parametrize("m", EDGE_COUNTS[1:])
@pytest.mark.parametrize("first", [0, 3])
def test_one_first_vertex_owns_every_edge(canonical_only, m, first):
    # one run of first vertices covering every edge index; second and third vertices repeat
    edges = [(first, b, c) for b, c in combinations(range(first + 1, first + 9), 2)][:m]
    text = h3_text(first + 9, edges)
    assert views(parse_h3, text) == views(naive_parse_h3, text)
    assert parse_h3(text).incidence[first] == (1 << m) - 1


def runs_across_bytes(m):
    """The first m edges of runs of 3, 10 and 4 edges at first vertices 0, 1, 2 on 12 vertices.

    The runs cover edge indices 0-2, 3-12 and 13-16: the second crosses
    the first byte boundary of the edge bits, the third the second.
    """
    return [(a, *pair) for a, k in enumerate((3, 10, 4)) for pair in list(combinations(range(a + 1, 12), 2))[:k]][:m]


@pytest.mark.parametrize("m", EDGE_COUNTS)
def test_every_build_path_at_byte_edges(m):
    edges = runs_across_bytes(m)
    want = views_of(naive_hypergraph(12, edges))
    canon = Hypergraph3._from_labels(12, tuple(chain.from_iterable(edges)))
    # vertex 0 of the host is removed and the rest shift down by one; its edges start the host's list
    host = Hypergraph3(13, [(0, 1, 2), (0, 4, 12), *(tuple(v + 1 for v in e) for e in edges)])
    built = {
        "constructor": Hypergraph3(12, [e[::-1] for e in random.Random(m).sample(edges, m)]),
        "parse": parse_h3(to_h3(canon)),
        "canonical": canon,
        "remove_vertices": host.remove_vertices([0])[0],
    }
    assert {path: views_of(H) for path, H in built.items()} == dict.fromkeys(built, want)


def test_equal_values_in_distinct_tokens(canonical_only):
    # "01", "+0" and "1" are distinct tokens, each decoded once, to equal values
    text = "4 2\n0 1 2\n+0 01 3\n"
    assert views(parse_h3, text) == views(naive_parse_h3, text)
    assert parse_h3(text).edges == ((0, 1, 2), (0, 1, 3))


@pytest.mark.parametrize(
    "text,bad",
    [
        ("4 2\n0 1 y\n0 1 x\n", "y"),  # the first bad token in the file, not in order of value
        ("4 3\n0 1 y\n0 1 x\n1 2 y\n", "y"),  # a bad token that repeats
        ("4 2\n0 1 2\n0 1 x\n", "x"),  # after good tokens that repeat
        ("x 1\n0 1 2\n", "x"),  # the header's n
        ("4 1.0\n0 1 2\n", "1.0"),  # the header's m
        ("4 1\n0 1 x # y\n", "x"),
    ],
)
def test_first_bad_token_is_named(text, bad):
    message = f"non-integer token in .h3 input: invalid literal for int() with base 10: {bad!r}"
    assert views(parse_h3, text) == views(naive_parse_h3, text) == ("ValueError", message)


# --- the bit-plane builder against the packed-row loop (tests/oracles.py) ---------


@st.composite
def lane_edges(draw):
    """(n, canonical edges) with n at the byte widths of a label: 1 up to n = 256, 2 up to 65,536, then 3."""
    n = draw(st.one_of(st.integers(3, 300), st.integers(255, 257), st.integers(65_535, 65_537)))
    # the top labels are drawn often: they set the highest bit planes
    label = st.one_of(st.integers(0, n - 1), st.integers(max(0, n - 4), n - 1))
    triples = draw(st.lists(st.sets(label, min_size=3, max_size=3), max_size=300))
    return n, tuple(sorted({tuple(sorted(t)) for t in triples}))


@settings(max_examples=60, deadline=None)
@given(lane_edges())
def test_bit_planes_match_packed_rows(case):
    n, edges = case
    want = packed_row_incidence(n, edges)
    H = Hypergraph3._from_labels(n, tuple(chain.from_iterable(edges)))
    assert H.incidence == want
    parsed = parse_h3(to_h3(H))
    assert (parsed.edges, parsed.incidence) == (edges, want)


@pytest.mark.parametrize(
    "text",
    [
        "9 1\n007 1 8\n",  # leading zeros
        "9 1\n+1 2 3\n",  # a sign
        "12 1\n0 1_0 11\n",  # an underscore
        "9 1\n\u0660 \u0661 \u0663\n",  # Arabic-Indic digits
        "\u0669 1\n0 1 2\n",  # in the header's n
        "4 \u0661\n0 1 2\n",  # in the header's m
        "1_0 1\n0 1 9\n",
        "4 +1\n0 1 2\n",
        "4 1\n-0 1 2\n",  # -0 is 0
        "4 1\n0 1 4\n",  # a label equal to n
        "4 1\n0 1 40\n",  # a label above n
        "300 1\n0 1 300\n",
        "4 1\n-1 1 2\n",  # a negative label
        "4 1\n0 -1 2\n",
        "x 1\n0 1 2\n",  # a bad header
        "4.0 1\n0 1 2\n",
        "4 1.5\n0 1 2\n",
        "4\n",
        "-4 1\n0 1 2\n",
        "9 2\n1 2 3\n1 2 3 4\n",  # one token too many
    ],
)
def test_labels_not_spelled_as_str_v(text):
    assert views(parse_h3, text) == views(naive_parse_h3, text)


def test_an_odd_spelling_is_decoded_once(monkeypatch):
    decoded = []

    def counting_int(x, *base):
        if isinstance(x, str):  # the builder parses bit planes from bytes
            decoded.append(x)
        return int(x, *base)

    # the module's global int shadows the builtin for every call in core
    monkeypatch.setattr(core, "int", counting_int, raising=False)
    H = parse_h3("9 3\n1 2 007\n3 4 007\n5 6 007\n")
    assert H.edges == ((1, 2, 7), (3, 4, 7), (5, 6, 7))
    # the header's n, then the one spelling that is not str(v); never a seeded label
    assert decoded == ["9", "007"]


def test_negative_edge_count_has_its_own_message():
    assert views(parse_h3, "3 -1\n") == views(naive_parse_h3, "3 -1\n") == (
        "ValueError", "negative edge count -1 in .h3 header"
    )
    # a token that is not an integer is still named first
    assert error_of(parse_h3, "3 -1\nx\n").startswith("non-integer token")


def test_vertex_count_above_maxsize_has_its_own_message():
    # no tuple holds 10^20 incidence masks: both builders name the count before allocating
    want = f"vertex count {10**20} exceeds sys.maxsize ({sys.maxsize})"
    assert error_of(Hypergraph3, 10**20) == error_of(parse_h3, f"{10**20} 0\n") == want
    # with a d in range, the generators and the boundary refuse the count the same way
    huge = 3 * 10**20
    want = f"vertex count {huge} exceeds sys.maxsize ({sys.maxsize})"
    assert error_of(extremal_star, huge) == error_of(cut_family, huge, 1) == error_of(blocker_family, huge, 1) == want
    assert error_of(random_triples, huge, 0.5, 1) == error_of(threshold, huge, 1) == want
    assert error_of(Hypergraph3, -1) == error_of(parse_h3, "-1 0\n") == "vertex count must be non-negative"


def test_sparse_parse_peak_below_packed_rows():
    """10,000 disjoint edges over 30,000 vertices: the packed rows peaked at 63-67 MB (tracemalloc)."""
    text = to_h3(Hypergraph3._from_labels(30_000, tuple(range(30_000))))
    tracemalloc.start()
    try:
        H = parse_h3(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.m == 10_000 and H.incidence[29_999] == 1 << 9_999
    assert peak < 56 * 2**20


# --- the canonical-body check on the bit planes against the tuple predicate ------


def wide_labels(n, v):
    """Labels outside 0..n-1 to put in place of v: n, n + 1, 2^top, -1, and v plus a bit above every plane."""
    top = (n - 1).bit_length()
    return [n, n + 1, 1 << top, -1, v | 1 << top, v | 1 << 16, v | 1 << 40]


@st.composite
def near_canonical_bodies(draw):
    """(n, labels of a .h3 body): canonical, or changed in up to two ways that can break it."""
    n = draw(st.one_of(st.integers(3, 12), st.integers(255, 257), st.integers(65_535, 65_537)))
    label = st.one_of(st.integers(0, n - 1), st.integers(max(0, n - 4), n - 1))
    size = draw(st.sampled_from([1, 2, 40]))
    edges = sorted({tuple(sorted(t)) for t in draw(st.lists(st.sets(label, min_size=3, max_size=3), min_size=1, max_size=size))})
    for change in draw(st.lists(st.sampled_from(["swap", "repeat", "reverse", "label"]), max_size=2)):
        i = draw(st.integers(0, len(edges) - 1))
        if change == "swap" and i + 1 < len(edges):  # two neighbours
            edges[i], edges[i + 1] = edges[i + 1], edges[i]
        elif change == "repeat":
            edges.insert(i, edges[i])
        elif change == "reverse":
            edges[i] = edges[i][::-1]
        elif change == "label":
            c = draw(st.integers(0, 2))
            wide = st.sampled_from(wide_labels(n, edges[i][c]))
            edges[i] = edges[i][:c] + (draw(st.one_of(wide, label)),) + edges[i][c + 1 :]
    return n, [v for e in edges for v in e]


@settings(max_examples=200, deadline=None)
@given(near_canonical_bodies())
@example((3, [0, 1, 2]))
@example((12, [0, 1, 2, 0, 1, 2]))
@example((12, [0, 1, 3, 0, 1, 2]))
@example((12, [2, 1, 0]))
@example((12, [0, 1, 12]))
@example((12, [0, 1, 16]))
@example((12, [0, 1, 18]))
@example((300, [0, 1, (1 << 16) | 2]))
@example((12, [-1, 1, 2]))
@example((256, [0, 1, 256]))
@example((257, [0, 1, 512]))
@example((65_536, [0, 1, 65_536]))
@example((65_537, [0, 1, 2**64]))
def test_plane_check_matches_tuple_predicate(case):
    n, body = case
    edges = list(zip(body[0::3], body[1::3], body[2::3]))
    incidence = core._canonical_incidence(n, len(edges), body)
    assert (incidence is not None) == tuple_canonical(n, body)
    if incidence is not None:
        assert incidence == packed_row_incidence(n, edges)
    # a body that fails the check loads through the constructor, with its errors
    text = h3_text(n, edges)
    assert views(parse_h3, text) == views(naive_parse_h3, text)


# --- one edge store: every builder sets the same fields ------------------------------


def relabelled_cut():
    """A cut family with 30 edges removed over shuffled labels, as the closeness benchmark writes it."""
    H = perturb_remove(cut_family(24, 8)[0], 30, 5)
    perm = random.Random(5).sample(range(24), 24)
    return Hypergraph3(24, [[perm[v] for v in e] for e in H.edges])


def test_parse_keeps_labels_until_edges_are_read():
    built = relabelled_cut()
    H = parse_h3(to_h3(built))
    assert "edges" not in vars(H) and (H.n, H.m, H.incidence) == (built.n, built.m, built.incidence)
    assert extremal.find_partition(H, 8) == extremal.find_partition(built, 8)
    assert "edges" not in vars(H)
    assert H.edges == built.edges and vars(H)["edges"] is H.edges


def every_builder(n, edges, seed):
    """One hypergraph from each builder: the constructor, each generator, the derived ones and both parse paths."""
    H = Hypergraph3(n, edges)
    text = to_h3(H)
    header, *body = text.splitlines()
    # reversed triples in shuffled lines, so no body of an edge is canonical
    lines = random.Random(seed).sample(body, len(body))
    shuffled = "\n".join([header, *(" ".join(line.split()[::-1]) for line in lines)])
    return {
        "constructor": H,
        "extremal_star": extremal_star(6)[0],
        "cut_family": cut_family(n, 1)[0],
        "blocker_family": blocker_family(n, 1)[0],
        "random_triples": random_triples(n, 0.5, seed),
        "remove_vertices": H.remove_vertices([0])[0],
        "perturb_remove": perturb_remove(H, H.m // 2, seed),
        "pad_to_perfect": pad_to_perfect(Hypergraph3(n + 2, edges), 1),
        "parse": parse_h3(text),
        "parse_shuffled": parse_h3(shuffled),
    }


@settings(max_examples=40, deadline=None)
@given(edge_lists(), st.integers(0, 2**32))
def test_every_builder_sets_one_store(data, seed):
    n, edges = data
    for name, G in every_builder(n, edges, seed).items():
        assert vars(G).keys() == {"n", "m", "labels", "incidence"}, name
        assert type(G.labels) is tuple and {type(x) for x in G.labels} <= {int}, name
        assert len(G.labels) == 3 * G.m and G == Hypergraph3(G.n, G.edges), name
    H = Hypergraph3(n, edges)
    assert parse_h3(to_h3(H)).labels == H.labels


def test_layers_read_no_edge_tuples():
    built = relabelled_cut()
    H = parse_h3(to_h3(built))
    P = extremal.find_partition(H, 8)
    assert P == extremal.find_partition(built, 8)
    part = Partition(24, P.W, 8)
    assert exact.max_matching(H) == exact.max_matching(built)
    assert augment.solve(H, 8) == augment.solve(built, 8)
    assert extremal.staged_matching(H, part, 8)[1] == extremal.staged_matching(built, part, 8)[1]
    assert absorbing.perfect_via_absorbing(H) == absorbing.perfect_via_absorbing(built)
    assert views_of(H.remove_vertices([0, 5])[0]) == views_of(built.remove_vertices([0, 5])[0])
    assert to_h3(H) == to_h3(built) and H == built and hash(H) == hash(built)
    # five bad W-vertices, so the staged matcher's first stages take edges too
    built = random_triples(15, 0.7, 19)
    G = parse_h3(to_h3(built))
    part = Partition(15, extremal.find_partition(G, 5).W, 5)
    assert extremal.staged_matching(G, part, 5) == extremal.staged_matching(built, part, 5)
    assert not {"edges", "edge_set"} & (vars(H).keys() | vars(G).keys())


# each read of a fresh parse, against the same read of the constructor's hypergraph
FIRST_READS = {
    "edges": lambda H, built: H.edges,
    "eq": lambda H, built: (H == built, built == H),
    "hash": lambda H, built: hash(H),
    "to_h3": lambda H, built: to_h3(H),
    "remove_vertices": lambda H, built: [views_of(sub) + (kept,) for sub, kept in [H.remove_vertices([0, 5, 7])]],
    "matching": lambda H, built: [(M.edges, M.covered, M.uncovered) for M in [Matching(H, augment.greedy_matching(built).edges)]],
}


@pytest.mark.parametrize("read", FIRST_READS)
def test_parsed_edges_read_as_the_constructors(read):
    built = relabelled_cut()
    H = parse_h3(to_h3(built))
    assert FIRST_READS[read](H, built) == FIRST_READS[read](built, built)
    assert H.edges == built.edges


# --- JSON reports ----------------------------------------------------------------


def _staged_log():
    H = random_triples(15, 0.7, 19)  # five bad W-vertices, so bde_check is a dict
    return extremal.staged_matching(H, Partition(15, extremal.find_partition(H, 5).W, 5), 5)[1]


# (report, its exact to_json_dict key set); each report is built by the call
# that returns it, with nested values filled in (a trace with a move, a stage
# log with a bde_check, an absorb index with entries)
REPORTS = {
    "solve": (
        lambda: exact.max_matching(extremal_star(9)[0]),
        {"schema", "size", "matching", "optimal", "nodes", "detail"},
    ),
    "trace": (
        lambda: augment.solve(random_triples(30, 0.05, 3), 10, augment.AugmentConfig(k_max=3))[1],
        {"schema", "initial", "moves"},
    ),
    "closeness": (
        lambda: extremal.find_partition(cut_family(12, 4)[0], 4),
        {"schema", "n", "d", "W", "deficiency", "epsilon", "alpha", "badness", "bad_vertices"},
    ),
    "stages": (
        _staged_log,
        {"schema", "alpha", "theta", "c", "m2", "m3", "stages", "bde_check", "stalled_stage", "detail"},
    ),
    "absorbing": (
        lambda: absorbing.find_absorbing(random_triples(24, 0.5, 1), 0.8),
        {"schema", "edges", "gamma", "t", "success", "verification", "min_coverage", "uncovered_triples",
         "capacity", "gamma6_capacity", "delta1_hypothesis", "absorb_index", "detail"},
    ),
}


def _has_tuple(x) -> bool:
    if isinstance(x, tuple):
        return True
    if isinstance(x, list):
        return any(map(_has_tuple, x))
    if isinstance(x, dict):
        return any(map(_has_tuple, x.keys())) or any(map(_has_tuple, x.values()))
    return False


@pytest.mark.parametrize("name", REPORTS)
def test_report_json_keys_and_no_tuples(name):
    make, keys = REPORTS[name]
    out = make().to_json_dict()
    assert out.keys() == keys
    assert out["schema"] == f"hypermatch.{name}/1"
    assert not _has_tuple(out)


def test_report_json_nested_values():
    moves = REPORTS["trace"][0]().to_json_dict()["moves"]
    assert moves and all(mv.keys() == {"removed", "added", "uncovered_used"} for mv in moves)
    assert _staged_log().to_json_dict()["bde_check"].keys() == {"delta1_inside_V1", "bound", "holds"}
    A = REPORTS["absorbing"][0]()
    index = A.to_json_dict()["absorb_index"]
    assert index and index == {" ".join(map(str, e)): [list(t) for t in ts] for e, ts in A.absorb_index.items()}
