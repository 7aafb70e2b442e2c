"""Perfect matchings via a small absorbing matching.

A couple of edges are set aside so that any leftover triple can be
folded into them; the local search then only needs an almost-perfect
matching on the rest.  A blocker instance shows the honest failure path.
"""

from hypermatch.absorbing import absorb_leftover, find_absorbing, perfect_via_absorbing
from hypermatch.augment import AugmentConfig
from hypermatch.constructions import extremal_star, random_triples
from hypermatch.core import Matching

H = random_triples(15, 0.8, seed=4)
A = find_absorbing(H, gamma=0.8, t=2)
print(f"absorbing matching: {A.size} edges, success={A.success}, verification={A.verification}")
print(f"  min coverage per leftover triple: {A.min_coverage} (redundancy target {A.t})")
print(f"  capacity: {A.capacity} leftover vertices; degree hypothesis holds: {A.delta1_hypothesis}")

rep = perfect_via_absorbing(H, cfg=AugmentConfig(seed=4))
M = Matching(H, rep.edges)
print(f"\npipeline: {rep.detail}; {rep.size} edges covering {len(M.covered)}/{H.n} vertices")

print("\nfolding a chosen triple by hand:")
left = [v for v in range(H.n) if all(v not in e for e in A.edges)][:3]
folded = absorb_leftover(H, A, left)
print(f"  leftover {left} -> matching of {folded.size} edges covering exactly M* plus the triple")

st, _ = extremal_star(15)
rep = perfect_via_absorbing(st)
print(f"\nblocker instance: optimal={rep.optimal} ({rep.detail})")
