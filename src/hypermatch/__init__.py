"""Toolkit for matchings in 3-uniform hypergraphs.

Construction of extremal and random instances, the link pattern of a
vertex between two edges with the exhaustive 3x3 bipartite pattern
classification, an exact branch-and-bound matching oracle, a swap-based
local-search solver, the two-class closeness machinery with the staged
matcher, an absorbing pipeline for perfect matchings, and the threshold
census of small hypergraphs without a d-matching.
"""
