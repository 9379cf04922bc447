# Survey the extremal bound n(m-n+1)/g across graph families and watch the
# equality cases land exactly on even cycles and Moore graphs.

from math import inf

import convexcycles as cc


def survey(name, g):
    profile, census = cc.profile_and_census(g)
    if profile.girth == inf or not profile.connected:
        print(f"{name:<22} n={g.n:<3} m={g.m:<4} (bound not applicable)")
        return
    report = cc.check_extremal(g, profile, census)
    flag = "=" if report.equality else "<"
    print(
        f"{name:<22} n={g.n:<3} m={g.m:<4} g={report.girth:<2} "
        f"census={report.total:<5} {flag} bound={report.bound!s:<7} "
        f"{report.classification.value}"
    )


print("family                 order/size        census vs bound")
print("-" * 72)
for n in (3, 5, 7):
    survey(f"complete K_{n}", cc.complete_graph(n))
for n in (5, 6, 12):
    survey(f"cycle C_{n}", cc.cycle_graph(n))
survey("Petersen", cc.petersen_graph())
survey("Hoffman-Singleton", cc.hoffman_singleton_graph())
survey("K_{2,3}", cc.complete_bipartite_graph(2, 3))
survey("random G(12, .3)", cc.gnp_random_graph(12, 0.3, 2024))

# ## Moore graphs by two different routes
#
# The diameter/girth test and the counting criterion must always agree:
# a connected graph of odd girth g is Moore exactly when its number of
# girth cycles reaches n(m-n+1)/g.

print()
for name, g in [
    ("Petersen", cc.petersen_graph()),
    ("C_7", cc.cycle_graph(7)),
    ("K_4 minus an edge", cc.Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])),
]:
    profile, census = cc.profile_and_census(g)
    moore = cc.is_moore(g, profile)
    check = cc.check_moore_by_count(g, profile, census)
    print(
        f"{name:<18} moore={moore.is_moore!s:<5} "
        f"count={check.count} target={check.target} "
        f"by_count={check.is_moore_by_count}"
    )

# ## Pendants never change the census
#
# Attaching a degree-1 vertex adds no convex cycle, so the census is
# unchanged while n and m both grow: equality (when present) breaks.
# A graph is its adjacency; edge_list reads its edges back from it as
# (u, v) pairs with u < v, ready to extend.

petersen = cc.petersen_graph()
grown = cc.Graph(11, [*petersen.edge_list, (0, 10)])
print()
survey("Petersen", petersen)
survey("Petersen + pendant", grown)
