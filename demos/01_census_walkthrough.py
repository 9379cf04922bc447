# Walk through the core census machinery on a few small graphs: BFS
# profiles, antipodal pairs, convexity checks, and the full enumeration.

import convexcycles as cc

# ## A 5-cycle: the smallest interesting case

c5 = cc.cycle_graph(5)
profile = cc.metric_profile(c5)
print("C5:", c5)
print("girth", profile.girth, "diameter", profile.diameter)

# One BFS record is enough to see the shape of the metric data: distances
# and exact shortest-path counts.  The paths themselves are rebuilt by
# stepping to a neighbor one unit closer to the root.
record = cc.bfs_record(c5, 0)
print("dist from 0:", record.dist)
print("path counts:", record.sigma)

# Every edge of an odd cycle pairs with the vertex "opposite" it: both
# endpoints sit at equal distance with unique shortest paths.
pairs = cc.odd_antipodal_pairs(c5, profile)
print("odd antipodal pairs:", pairs)

census = cc.enumerate_convex_cycles(c5, profile)
print("census:", census.total, "cycle(s):", [c.vertices for c in census.cycles])

# ## An even cycle uses the other pair type

c6 = cc.cycle_graph(6)
profile6 = cc.metric_profile(c6)
print("\nC6 odd pairs:", cc.odd_antipodal_pairs(c6, profile6))
print("C6 even pairs:", cc.even_antipodal_pairs(c6, profile6))
print("C6 census:", cc.enumerate_convex_cycles(c6, profile6).total)

# ## K_{2,3}: pairs exist but no cycle survives verification

k23 = cc.complete_bipartite_graph(2, 3)
pk = cc.metric_profile(k23)
print("\nK_{2,3} even pairs:", cc.even_antipodal_pairs(k23, pk))

# The three 4-cycles all contain the two-side pair, which is joined by
# *three* shortest paths, so none of them is convex:
square = cc.Cycle((0, 2, 1, 3))
print("square", square.vertices, "convex?", cc.is_convex_cycle(k23, pk, square))
print("K_{2,3} census:", cc.enumerate_convex_cycles(k23, pk).total)

# ## The Petersen graph, and the brute-force cross-check

petersen = cc.petersen_graph()
pp = cc.metric_profile(petersen)
census = cc.enumerate_convex_cycles(petersen, pp)
print("\nPetersen census:", census.total, "by length:", census.by_length)

brute = cc.brute_force_convex_cycles(petersen, 10)
print("oracle agrees?", census.cycles == brute.cycles)

# Girth-cycle counting rides on the census: with odd girth, every
# shortest-length cycle is convex.
print("girth cycles:", cc.girth_cycle_count(petersen, pp, census))
