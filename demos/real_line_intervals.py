"""Walkthrough: the order category of the rationals.

Here arrows are intervals (lo, hi) with exact rational endpoints.  There
are no atomic arrows (every interval splits at its midpoint), so the norm
is the interval width directly, and addition glues intervals that share
an endpoint exactly.  Run with: python3 demos/real_line_intervals.py
"""

from catgeo import (
    interval,
    interval_add,
    interval_norm,
    interval_products,
    split,
)

f = interval("3.14", "3.141")
print("f =", f, " with ||f|| =", interval_norm(f))

# every arrow decomposes: no atomic vectors exist on the dense line
g = interval("3.14", "3.1405")
h = interval("3.1405", "3.141")
print("g =", g, " h =", h)
print("g (+) h =", interval_add(g, h), " and ||g|| + ||h|| =", interval_norm(g) + interval_norm(h))

g2, h2 = split(f)
print("midpoint split of f:", g2, h2)
print()

# products mirror the finite-category case with rational scalars
a, b = interval("0", "1"), interval("1", "3")
inner_ab, outer_ab, geom_ab = interval_products(a, b)
print("a =", a, " b =", b)
print("a.b =", inner_ab, " (composable: widths multiply)")
print("a∧b =", outer_ab)
print("geometric(a, b) =", geom_ab)
print()

c = interval("2", "3")
print("a =", a, " c =", c, " share no endpoint:")
inner_ac, _, geom_ac = interval_products(a, c)
inner_ca, _, geom_ca = interval_products(c, a)
print("a.c =", inner_ac, " c.a =", inner_ca)
anticomm = geom_ac + geom_ca
print("anticommutator =", anticomm, " (orthogonal, so the blades cancel)")
print()

d = interval("0", "2")
print("d =", d, " squares to", interval_products(d, d)[2])
