"""Degree-threshold experiments: a sweep CSV and the n=6 threshold count.

The sweep compares the exact optimum with the local search over a
probability grid.  The threshold count takes every hypergraph on 6
vertices without a perfect matching (the intersecting families of
triples, a down-set of the 2^20 hypergraphs) and reports the largest
minimum degree among them; at this tiny n it sits above the asymptotic
boundary value, which is expected.
"""

import io
import json
from contextlib import redirect_stdout

from hypermatch.cli import main

print("=== sweep: n=9, d=3, exact vs local search ===")
buf = io.StringIO()
with redirect_stdout(buf):
    main(["sweep", "--n", "9", "--d", "3", "--trials", "5", "--p-grid", "0.2,0.5,0.8", "--seed", "1"])
print(buf.getvalue())

print("=== hypergraphs on 6 vertices without a perfect matching ===")
buf = io.StringIO()
with redirect_stdout(buf):
    main(["verify", "thresholds", "--n", "6", "--d", "2"])
rep = json.loads(buf.getvalue())
print(f"hypergraphs on 6 vertices:      {rep['total_hypergraphs']}")
print(f"without a perfect matching:     {rep['without_d_matching']}")
print(f"max delta1 among those:         {rep['max_delta1_without_d_matching']}")
print(f"so delta1 >= {rep['empirical_forcing_min_degree']} forces a perfect matching at n=6")
print(f"(the asymptotic boundary value is {rep['threshold_formula']})")
