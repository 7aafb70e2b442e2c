"""Tests for the threshold census (hypermatch.thresholds)."""

import sys
from collections import Counter
from itertools import combinations

import pytest

from hypermatch import thresholds
from hypermatch.thresholds import ThresholdCensus, census
from oracles import lexorder_census


def profiled(n, d):
    """census(n, d) and the Python calls it makes inside thresholds.py, by function name."""
    calls = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == thresholds.__file__:
            calls[frame.f_code.co_name] += 1

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        rep = census(n, d)
    finally:
        sys.setprofile(old)
    return rep, calls


@pytest.mark.parametrize("n,d", [(n, d) for n in range(3, 9) for d in range(1, n // 3 + 1)])
def test_census_matches_lexicographic_count(n, d):
    rep = census(n, d)
    assert isinstance(rep, ThresholdCensus)
    assert rep.to_json_dict() == lexorder_census(n, d)


@pytest.mark.parametrize("n,count,grow", [(6, 20, 126), (7, 8328, 250), (8, 96709, 522)])
def test_d2_call_counts(n, count, grow):
    # count branches in maximum cardinality search order (lexicographic: 2046
    # and 24065 calls at n = 6, 7); grow keeps the lexicographic order below
    # its two relabelling rules (without them: 273, 1145 and 2435 calls)
    _, calls = profiled(n, 2)
    assert (calls["count"], calls["grow"]) == (count, grow)


def test_d1_counts_nothing():
    # the d = 1 root has no open triple: no search order, no count call
    rep, calls = profiled(7, 1)
    assert (rep.without_d_matching, rep.max_delta1_without_d_matching) == (1, 0)
    assert calls["count"] == calls["_mcs_order"] == 0 and calls["grow"] == 1


@pytest.mark.parametrize("n,d", [(9, 2), (7, 3), (6, 0), (5, 2), (0, 1), (-3, 1)])
def test_out_of_range_is_a_value_error(n, d):
    with pytest.raises(ValueError):
        census(n, d)


def test_mcs_order_on_six_vertices():
    # on 6 vertices each triple is disjoint from its complement alone, so the
    # search places each complement right after its triple
    _, disjoint = thresholds._disjoint(6, list(combinations(range(6), 3)))
    order = thresholds._mcs_order(disjoint)
    assert sorted(order) == list(range(20))
    for k in range(0, 20, 2):
        assert disjoint[order[k]] == 1 << order[k + 1]
