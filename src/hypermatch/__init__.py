"""Toolkit for matchings in 3-uniform hypergraphs.

Construction of extremal and random instances, the link pattern of a
vertex between two edges with the exhaustive 3x3 bipartite pattern
classification, an exact branch-and-bound matching oracle, a swap-based
local-search solver, the two-class closeness machinery with the staged
matcher, an absorbing pipeline for perfect matchings, and the threshold
census of small hypergraphs without a d-matching.
"""

from .absorbing import AbsorbingMatching, absorb_leftover, absorbs, find_absorbing, perfect_via_absorbing
from .augment import AugmentConfig, Move, MoveTrace, augment_once, greedy_matching, replay
from .constructions import (
    blocker_family,
    cut_family,
    extremal_star,
    pad_to_perfect,
    random_triples,
    splitmix64_stream,
)
from .core import (
    DegreeProfile,
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
from .exact import SolveBudget, SolveReport, has_d_matching, max_matching, max_matching_in_subset
from .extremal import (
    ClosenessReport,
    StageLog,
    classify_goodness,
    deficiency,
    find_partition,
    good_case_matching,
    staged_matching,
)
from .links import (
    PatternClass,
    PatternKind,
    base_edge,
    classify,
    link_pattern,
    verify_fact1,
)
from .thresholds import ThresholdCensus, census

__version__ = "0.1.0"
