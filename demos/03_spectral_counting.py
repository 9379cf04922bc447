# Count girth cycles straight from characteristic-polynomial coefficients
# and cross-check against the combinatorial census.

import time

import convexcycles as cc

# ## Small graphs first
#
# For odd girth g, the number of g-cycles is -c/2 where c is the
# coefficient of x^(n-g) in det(xI - A).

for name, g in [
    ("K_3", cc.complete_graph(3)),
    ("C_5", cc.cycle_graph(5)),
    ("Petersen", cc.petersen_graph()),
]:
    poly = cc.char_poly(g)
    profile, census = cc.profile_and_census(g)
    girth = int(profile.girth)
    spectral = cc.girth_cycle_count_spectral(poly, g.n, girth)
    counted = cc.girth_cycle_count(profile, census)
    print(f"{name:<9} p(x) degree {poly.degree}, girth {girth}: "
          f"spectral count {spectral}, census count {counted}")

# ## The Hoffman-Singleton graph
#
# Its characteristic polynomial factors over the integers as
# (x-7)(x-2)^28(x+3)^21; expanding that product must reproduce the
# polynomial computed from the adjacency matrix, all 51 coefficients.

hs = cc.hoffman_singleton_graph()
computed = cc.char_poly(hs)
factored = cc.expand_factored([(7, 1), (2, 28), (-3, 21)])
print("\nHoffman-Singleton factored form matches:", computed == factored)
print("coefficient of x^45:", computed.coefficient(45))
print("5-cycles:", cc.girth_cycle_count_spectral(computed, 50, 5))

# ## A graph nobody has ever seen
#
# A 57-regular Moore graph of diameter 2 would have 3250 vertices and
# characteristic polynomial (x-57)(x+8)^1520(x-7)^1729.  The graph's
# existence is open, but its polynomial is concrete: with only three
# distinct roots, each of the 3250 coefficients follows from the three above
# it by a short exact recurrence, so no big polynomial product is needed.

start = time.perf_counter()
huge = cc.expand_factored([(57, 1), (-8, 1520), (7, 1729)])
elapsed = time.perf_counter() - start
print(f"\ndegree-{huge.degree} expansion in {elapsed:.2f}s")
print("coefficient of x^3245:", huge.coefficient(3245))
count = cc.girth_cycle_count_spectral(huge, 3250, 5)
print("5-cycles it would have:", count)
print("matches n(m-n+1)/5 for n=3250, m=92625:",
      count * 5 == 3250 * (92625 - 3250 + 1))
