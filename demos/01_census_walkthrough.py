# Walk through the census machinery on a few small graphs: one BFS row,
# the antipodal pairs it shows, the convexity test, and the one-pass census.

import convexcycles as cc

# ## A 5-cycle: the smallest interesting case

c5 = cc.cycle_graph(5)
profile, census = cc.profile_and_census(c5)
print("C5:", c5)
print("girth", profile.girth, "diameter", profile.diameter)

# One BFS row holds distances and exact shortest-path counts.  The census
# pass reads the same levels from every root: on a small-world graph (its
# largest eccentricity at most log2 n, like C5) it runs all roots at once
# as bit planes with counts capped at 3, and otherwise one such row per
# root, in increasing root order, dropping each row once its root is done.
record = cc.bfs_record(c5, 0)
print("dist from 0:", record.dist)
print("path counts:", record.sigma)

# Every edge of an odd cycle pairs with the vertex "opposite" it: both
# endpoints sit at equal distance with unique shortest paths.  From root 0
# that is the edge 2-3, at distance 2 with one path to each end.
odd_pairs = [
    ((u, v), 0) for u, v in c5.edge_list
    if record.dist[u] == record.dist[v] >= 1
    and record.sigma[u] == record.sigma[v] == 1
]
print("odd antipodal pairs of root 0:", odd_pairs)
# A census lists each convex cycle as a vertex tuple in canonical order:
# from its smallest vertex towards the smaller of that vertex's neighbors.
print("census:", census.total, "cycle(s):", census.cycles)

# ## An even cycle uses the other pair type: two shortest paths

c6 = cc.cycle_graph(6)
row = cc.bfs_record(c6, 0)
far = [w for w in range(c6.n) if row.sigma[w] == 2]
print("\nC6 vertices two shortest paths away from 0:", far)
print("C6 census:", cc.profile_and_census(c6)[1].total)

# ## K_{2,3}: candidate squares exist but none is convex

k23 = cc.complete_bipartite_graph(2, 3)
row = cc.bfs_record(k23, 2)
print("\nK_{2,3} path counts from vertex 2:", row.sigma)

# A cycle is convex exactly when each of its antipodal pairs (here the two
# diagonals of the square) is joined by the on-cycle paths only.  The
# pair (0, 1) has *three* shortest paths, so no square is convex.  The
# test takes the cycle's vertices in cyclic order, from any start:
square = (0, 2, 1, 3)
print("square", square, "convex?", cc.is_convex_cycle(k23, square))
print("K_{2,3} census:", cc.profile_and_census(k23)[1].total)

# ## The Petersen graph, and the brute-force cross-check

petersen = cc.petersen_graph()
pp, census = cc.profile_and_census(petersen)
print("\nPetersen census:", census.total, "by length:", census.by_length)

brute = cc.brute_force_convex_cycles(petersen, 10)
print("oracle agrees?", census.cycles == brute.cycles)

# Girth-cycle counting rides on the census: with odd girth, every
# shortest-length cycle is convex.
print("girth cycles:", cc.girth_cycle_count(pp, census))
