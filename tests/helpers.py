"""Shared test utilities: random category generation and independent oracles."""

from __future__ import annotations

import random
from typing import Sequence

from catgeo import Blade2, FiniteCategory, Multivector, Violation, build_free, build_thin


def random_thin(rng: random.Random, max_objects: int = 8, max_edges: int = 14) -> FiniteCategory:
    """Thin category of a random DAG; edges only go i -> j with i < j."""
    n = rng.randint(1, max_objects)
    objects = ["a%d" % i for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    m = rng.randint(0, min(max_edges, len(pairs)))
    generators = [("g%d" % k, "a%d" % i, "a%d" % j) for k, (i, j) in enumerate(pairs[:m])]
    return build_thin(objects, generators)


def random_free(rng: random.Random, max_objects: int = 6, max_edges: int = 8) -> FiniteCategory:
    """Free category on a random acyclic multigraph (parallel edges allowed)."""
    n = rng.randint(1, max_objects)
    objects = ["a%d" % i for i in range(n)]
    m = rng.randint(0, max_edges) if n > 1 else 0
    generators = []
    for k in range(m):
        i = rng.randint(0, n - 2)
        j = rng.randint(i + 1, n - 1)
        generators.append(("g%d" % k, "a%d" % i, "a%d" % j))
    return build_free(objects, generators)


def oracle_norms(category: FiniteCategory, basis: Sequence[str], depth_bound: int) -> dict[str, int]:
    """Brute-force minima over all composable basis sequences up to the bound.

    Enumerates every sequence (no visited pruning), recording the minimal
    length realizing each arrow; independent of the BFS implementation.
    """
    best: dict[str, int] = {}

    def extend(arrow: str, length: int) -> None:
        if best.get(arrow, depth_bound + 1) > length:
            best[arrow] = length
        if length >= depth_bound:
            return
        cod = category.arrows[arrow].cod
        for e in basis:
            if category.arrows[e].dom == cod:
                composite = category.table[(arrow, e)]
                if not category.arrows[composite].is_identity:
                    extend(composite, length + 1)

    for e in basis:
        extend(e, 1)
    return best


def _oriented_blade(f: str, g: str) -> Multivector:
    """f∧g written out: the id-ordered blade, coefficient -1 when g < f."""
    if f < g:
        return Multivector(0, {Blade2(f, g): 1})
    return Multivector(0, {Blade2(g, f): -1})


def closed_form_anticommutator(category, norms, f: str, g: str) -> Multivector:
    """The four-case closed form of fg + gf for distinct non-zero vectors."""
    fa, ga = category.arrows[f], category.arrows[g]
    fg_composes = fa.cod == ga.dom
    gf_composes = ga.cod == fa.dom
    if fg_composes and gf_composes:
        return Multivector(2 * norms[f] * norms[g])
    if fg_composes:
        return Multivector(norms[f] * norms[g]) + _oriented_blade(g, f)
    if gf_composes:
        return Multivector(norms[g] * norms[f]) + _oriented_blade(f, g)
    return Multivector(0)


def oracle_clifford_failures(category, norms, basis):
    """What clifford_report must list, derived from composability alone.

    e² is the scalar ||e||².  For distinct f, g, fg is the scalar
    ||f|| ||g|| when cod(f) = dom(g) and a blade otherwise; the pair is
    orthogonal when both scalars are 0, and then fg = -gf exactly when
    both products are blades (they are opposite) or neither is.
    """
    unit = [(e, norms[e] ** 2) for e in basis if norms[e] ** 2 != 1]
    anti = []
    vectors = category.non_identity_arrows()
    for f in vectors:
        for g in vectors:
            if f == g:
                continue
            fg_composes = category.arrows[f].cod == category.arrows[g].dom
            gf_composes = category.arrows[g].cod == category.arrows[f].dom
            area = norms[f] * norms[g]
            orthogonal = (not fg_composes or area == 0) and (not gf_composes or area == 0)
            if orthogonal and fg_composes != gf_composes:
                anti.append((f, g))
    return unit, anti


def oracle_validate_axioms(category: FiniteCategory) -> list[Violation]:
    """The all-pairs axiom check that validate_axioms replaced.

    It scans every arrow against every arrow for pairs and all arrows again
    for each composable pair to find triples; validate_axioms must return
    an equal list, order included.  Beyond the original loop it reports
    each table entry that names an unknown arrow, after the pair checks.
    """
    violations: list[Violation] = []
    arrows = list(category.arrows.values())
    table = category.table

    for f in arrows:
        for g in arrows:
            key = (f.id, g.id)
            if f.cod == g.dom:
                if key not in table:
                    violations.append(Violation("totality", "missing entry (%s, %s)" % key))
                    continue
                result = table[key]
                if result not in category.arrows:
                    violations.append(
                        Violation("dom-cod", "entry (%s, %s) names unknown arrow %r" % (f.id, g.id, result))
                    )
                    continue
                r = category.arrows[result]
                if r.dom != f.dom or r.cod != g.cod:
                    violations.append(
                        Violation(
                            "dom-cod",
                            "(%s, %s) -> %s has type %s->%s, expected %s->%s"
                            % (f.id, g.id, result, r.dom, r.cod, f.dom, g.cod),
                        )
                    )
            elif key in table:
                violations.append(Violation("closure", "entry (%s, %s) for non-composable pair" % key))
    for f, g in table:
        if f not in category.arrows or g not in category.arrows:
            unknown = f if f not in category.arrows else g
            violations.append(Violation("closure", "entry (%s, %s) for unknown arrow %r" % (f, g, unknown)))

    def lookup(f, g):
        return table.get((f, g))

    for f in arrows:
        left = lookup(category.identity(f.dom), f.id)
        if left != f.id:
            violations.append(Violation("unit", "%s ∘ id_%s = %s, expected %s" % (f.id, f.dom, left, f.id)))
        right = lookup(f.id, category.identity(f.cod))
        if right != f.id:
            violations.append(Violation("unit", "id_%s ∘ %s = %s, expected %s" % (f.cod, f.id, right, f.id)))

    for f in arrows:
        for g in arrows:
            if f.cod != g.dom:
                continue
            gf = lookup(f.id, g.id)
            for k in arrows:
                if g.cod != k.dom:
                    continue
                kg = lookup(g.id, k.id)
                if gf is None or kg is None or gf not in category.arrows or kg not in category.arrows:
                    continue  # already reported as totality/dom-cod
                lhs = lookup(gf, k.id)
                rhs = lookup(f.id, kg)
                if lhs != rhs:
                    violations.append(
                        Violation(
                            "associativity",
                            "(%s, %s, %s): %s != %s" % (f.id, g.id, k.id, lhs, rhs),
                        )
                    )
    return violations
