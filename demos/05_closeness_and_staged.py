"""Recover a hidden two-class structure and run the staged matcher.

A cut-family instance is relabeled and lightly damaged; the partition
search finds the structure back, the goodness report flags the damaged
vertex, and the staged matcher still assembles a full d-matching,
spending its first stage on the bad vertex.
"""

from hypermatch.constructions import cut_family
from hypermatch.core import Hypergraph3, Partition
from hypermatch.extremal import classify_goodness, find_partition, staged_matching

n, d = 30, 10
H, P = cut_family(n, d)

# strip one W-vertex down to two reserve edges
w = sorted(P.W)[0]
reserve = [e for e in H.edges if w in e][:2]
H2 = Hypergraph3(n, [e for e in H.edges if w not in e] + reserve)

rep = find_partition(H2, d, mode="local")
print(f"recovered W = {rep.W}")
print(f"deficiency = {rep.deficiency} (epsilon = {rep.epsilon:.4f})")

good = classify_goodness(H2, Partition(n, rep.W, d), alpha=0.05)
print(f"bad vertices at alpha=0.05: {good.bad_vertices} (badness {good.badness[w]} at vertex {w})")

M, log = staged_matching(H2, Partition(n, rep.W, d), d, alpha=0.05)
print(f"\nstaged matcher: {'success' if M else 'stall at ' + str(log.stalled_stage)}")
print(f"  stage sizes: c={log.c} m2={log.m2} m3={log.m3} M5={len(log.stages.get('M5', []))}")
print(f"  M1 covers the bad vertex: {any(w in e for e in log.stages['M1'])}")
print(f"  total = {M.size if M else 0} edges, pairwise disjoint, all in H")
