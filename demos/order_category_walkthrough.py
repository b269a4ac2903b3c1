"""Walkthrough: the six-object order category and its arrow geometry.

Builds the shipped "po6" category, inspects its atomic basis and norms,
and evaluates the products that make its arrow space behave like a
Clifford algebra.  Run with: python3 demos/order_category_walkthrough.py
"""

from catgeo import (
    anticommutator,
    atomic_basis,
    builtin_category,
    clifford_report,
    compute_norms,
    distance,
    export_dot,
    geometric,
    inner,
    is_orthogonal,
    outer,
)

cat = builtin_category("po6")
print("category:", cat)
print("objects: ", ", ".join(cat.objects))
print("arrows:  ", ", ".join(cat.vectors))
print()

# The atomic arrows (those that are no composite of two others) form the
# basis; every other arrow is a composition of basis arrows, and its norm
# is the minimal number of basis factors.
basis = atomic_basis(cat)
norms = compute_norms(cat, basis)
print("atomic basis:", ", ".join(basis))
for arrow, length in norms.items():
    print("  ||%s|| = %d" % (arrow, length))
print()

# a0->a4 factors both as e4∘e2 (two factors) and e5∘e3∘e1 (three), so its
# norm is 2; a0->a5 needs at least three factors.
print("||a0->a4|| =", norms["a0->a4"], " (min over factorizations of lengths 2 and 3)")
print("||a0->a5|| =", norms["a0->a5"], " and the triangle inequality: 3 <= 1 + 2")
print()

# Orthogonality means neither composite exists; parallel-to-itself squares
# to the norm squared.
print("e2.e4 =", inner(cat, norms, "e2", "e4"), " (composable, so nonzero)")
print("e2.e5 =", inner(cat, norms, "e2", "e5"), " e5.e2 =", inner(cat, norms, "e5", "e2"))
print("e2 orthogonal to e5:", is_orthogonal(cat, norms, "e2", "e5"))
print()

f, m, h = "a0->a4", "a1->a4", "a0->a3"
print("geometric(f, f)      =", geometric(cat, norms, f, f), " (scalar ||f||^2)")
print("anticommutator(f, f) =", anticommutator(cat, norms, f, f))
print("anticommutator(e4, m)=", anticommutator(cat, norms, "e4", m), " (orthogonal blades cancel)")
print("anticommutator(e1, m)=", anticommutator(cat, norms, "e1", m))
print("anticommutator(e5, h)=", anticommutator(cat, norms, "e5", h))
print("outer(e4, m)         =", outer(cat, norms, "e4", m))
print()

# Differences: the distance from f to g is the norm of the shortest l
# completing g into f.
print("distance(a0->a4, e2) =", distance(cat, norms, "a0->a4", "e2"), " (unique witness e4)")
print()

report = clifford_report(cat, norms, basis)
print("Clifford conditions hold:", report.holds)
print()

print("DOT export of the basis (the generating graph):")
print(export_dot(cat, arrows=basis))
