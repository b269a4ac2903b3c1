"""Shared test utilities: random category generation and independent oracles."""

from __future__ import annotations

import json
import random
from collections import deque
from typing import Sequence

from hypothesis import strategies as st

from catgeo import geometry
from catgeo import (
    ZERO,
    Arrow,
    Blade2,
    CliffordReport,
    CyclicGraph,
    FiniteCategory,
    Multivector,
    ParseError,
    Violation,
    build_explicit,
    build_free,
    build_thin,
    distance,
    geometric,
    inner,
    outer,
    vec_add,
)
from catgeo.category import IDENTITY_PREFIX
from catgeo.documents import MODES, CategoryDocument, document_to_json
from catgeo.vectors import _check_vector

#: a thin presentation whose two derived arrows p -> q->r and p->q -> r
#: would both be named p->q->r
COINCIDING_OBJECTS = ["p", "m", "q->r", "p->q", "n", "r"]
COINCIDING_GENERATORS = [("g1", "p", "m"), ("g2", "m", "q->r"), ("g3", "p->q", "n"), ("g4", "n", "r")]


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


#: objects named with "->": a derived name such as a0->a1->a0 is that of
#: a0 -> a1->a0 and of a0->a1 -> a0, so two derived names can coincide
_ARROWLIKE_OBJECTS = ("a0", "a1", "a0->a0", "a0->a1", "a1->a0", "a1->a1")


def random_presentation(rng: random.Random, max_objects: int = 6, max_edges: int = 9):
    """Objects a0..a<n-1>, or a quarter of the time _ARROWLIKE_OBJECTS in
    a random order, and generators on any ordered pairs: cycles,
    self-loops, parallel edges, ids named like thin's derived arrows and
    two derived names that coincide all occur."""
    arrowlike = rng.random() < 0.25
    if arrowlike:
        objects = rng.sample(_ARROWLIKE_OBJECTS, len(_ARROWLIKE_OBJECTS))
    else:
        objects = ["a%d" % i for i in range(rng.randint(1, max_objects))]
    n = len(objects)
    derived = dict.fromkeys("%s->%s" % (a, b) for a in objects for b in objects if a != b)
    names = ["g%d" % k for k in range(max_edges)] + list(derived)
    if rng.random() < 0.6:  # acyclic, so that most presentations build
        # arrowlike objects on a chain, so that derived arrows are many
        pairs = [(i, i + 1) for i in range(n - 1)] if arrowlike else [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    m = rng.randint(0, min(max_edges, len(names)))
    if rng.random() < 0.5:  # parallel edges
        ends = [rng.choice(pairs) for _ in range(m)] if pairs else []
    else:
        ends = rng.sample(pairs, min(m, len(pairs)))
    ids = rng.sample(names, len(ends))
    return objects, [(gid, objects[i], objects[j]) for gid, (i, j) in zip(ids, ends)]


def concrete_category(sizes: Sequence[int], maps, max_arrows: int = 30) -> FiniteCategory | None:
    """The category of maps that `maps` generate, or None when it has more
    than `max_arrows` non-identity arrows.

    Object s<i> is the set {0..sizes[i]-1}, and a map (i, j, images) goes
    from s<i> to s<j>, sending x to images[x].  The arrows are the closure
    of the maps under composition, found by a breadth-first search over
    words that composes each new arrow with every map after it, as Froidure
    and Pin do for transformation semigroups.  Each arrow is named by its
    shortest word: "m<k>" for the k-th map, "v∘u" for u then v.  An
    identity map is its object's identity, so inverses and groups occur.
    Composition of functions is associative, so every table is a category.
    """
    objects = ["s%d" % i for i in range(len(sizes))]
    names = {(i, i, tuple(range(n))): IDENTITY_PREFIX + objects[i] for i, n in enumerate(sizes)}
    generators = []
    for k, m in enumerate(maps):
        if m not in names:
            names[m] = "m%d" % k
            generators.append(m)
    queue = deque(generators)
    while queue:
        u = queue.popleft()
        for v in generators:
            if u[1] == v[0]:
                w = (u[0], v[1], tuple(v[2][x] for x in u[2]))
                if w not in names:
                    if len(names) - len(sizes) == max_arrows:
                        return None
                    names[w] = names[v] + "∘" + names[u]
                    queue.append(w)
    vectors = [m for m, name in names.items() if not name.startswith(IDENTITY_PREFIX)]
    table = {
        (names[f], names[g]): names[f[0], g[1], tuple(g[2][x] for x in f[2])]
        for f in vectors
        for g in vectors
        if f[1] == g[0]
    }
    return build_explicit(objects, [(names[m], objects[m[0]], objects[m[1]]) for m in vectors], table)


def t4() -> FiniteCategory:
    """The full transformation monoid of {0, 1, 2, 3}: 255 non-identity
    maps, generated by a transposition, a 4-cycle and a rank-3 idempotent."""
    maps = [(0, 0, (1, 0, 2, 3)), (0, 0, (1, 2, 3, 0)), (0, 0, (0, 0, 2, 3))]
    return concrete_category([4], maps, max_arrows=300)


def swapped_t4_table(category: FiniteCategory) -> dict[tuple[str, str], str]:
    """A copy of the table of t4() with one same-type swap: the entries
    (m0, m1) and (m1, m0) trade their results.  Every arrow of T4 goes
    s0 -> s0, so the pair and unit checks pass, and 1,071 triples fail."""
    table = dict(category.table)
    table["m0", "m1"], table["m1", "m0"] = table["m1", "m0"], table["m0", "m1"]
    return table


def rectangular_band(n: int) -> FiniteCategory:
    """The n×n rectangular band with an identity: one object o, the arrows
    r<i>_<j> for i, j < n, and r<i>_<j> then r<k>_<l> composing to r<i>_<l>.
    For n > 1 each arrow is the composite of two others, so there is no
    atomic basis."""
    ids = [("r%d_%d" % (i, j), i, j) for i in range(n) for j in range(n)]
    table = {(f, g): "r%d_%d" % (i, l) for f, i, _ in ids for g, _, l in ids}
    return build_explicit(["o"], [(f, "o", "o") for f, _, _ in ids], table)


def explicit_document(category: FiniteCategory, table=None) -> str:
    """The JSON text of `category` as an explicit document: its non-identity
    arrows, and the entries of `table` (the category's own by default) that
    pair two of them."""
    arrows = [(a.id, a.dom, a.cod) for a in category.arrows.values() if not a.is_identity]
    ids = {aid for aid, _, _ in arrows}
    table = category.table if table is None else table
    compositions = [(f, g, r) for (f, g), r in table.items() if f in ids and g in ids]
    return document_to_json(CategoryDocument("explicit", list(category.objects), arrows, compositions))


def random_concrete(rng: random.Random, max_objects: int = 3, max_size: int = 3, max_maps: int = 4) -> FiniteCategory:
    """concrete_category of 1..max_maps random maps between 1..max_objects
    sets of 1..max_size elements; a draw over the arrow cap is discarded."""
    while True:
        sizes = [rng.randint(1, max_size) for _ in range(rng.randint(1, max_objects))]
        maps = []
        for _ in range(rng.randint(1, max_maps)):
            i, j = rng.randrange(len(sizes)), rng.randrange(len(sizes))
            maps.append((i, j, tuple(rng.randrange(sizes[j]) for _ in range(sizes[i]))))
        category = concrete_category(sizes, maps)
        if category is not None:
            return category


def concrete_categories():
    """The hypothesis strategy of random_concrete's population."""
    return st.randoms(use_true_random=False).map(random_concrete)


def _closure(objects, generators) -> dict[str, set[str]]:
    """Nonempty-path reachability: each object's set of edge targets,
    grown by the sets of its members until no set changes."""
    reach = {o: {cod for _, dom, cod in generators if dom == o} for o in objects}
    changed = True
    while changed:
        changed = False
        for a in objects:
            grown = reach[a].union(*(reach[b] for b in reach[a]))
            if grown != reach[a]:
                reach[a] = grown
                changed = True
    return reach


def _unit_entries(table, arrows) -> None:
    for a in arrows:
        table[("id:" + a.dom, a.id)] = a.id
        table[(a.id, "id:" + a.cod)] = a.id


def oracle_build_thin(objects, generators):
    """(arrows, table) of the thin category, from the reachability closure.

    Assumes distinct, declared ids (what build_thin's presentation check
    admits); raises CyclicGraph for an object on a cycle, then
    ParseError for two generators on one pair or a derived name taken by
    a generator or by an earlier derived name.
    """
    reach = _closure(objects, generators)
    if any(o in reach[o] for o in objects):
        raise CyclicGraph("cycle")
    name = {}
    for gid, dom, cod in generators:
        if (dom, cod) in name:
            raise ParseError("two generators on one pair")
        name[dom, cod] = gid
    taken = {gid for gid, _, _ in generators}
    arrows = [Arrow("id:" + o, o, o, True) for o in objects]
    for a in objects:
        for b in sorted(reach[a]):
            if (a, b) not in name:
                name[a, b] = "%s->%s" % (a, b)
                if name[a, b] in taken:
                    raise ParseError("derived name taken")
                taken.add(name[a, b])
            arrows.append(Arrow(name[a, b], a, b))
    table = {}
    for f in arrows:
        for g in arrows:
            if not f.is_identity and not g.is_identity and f.cod == g.dom:
                table[(f.id, g.id)] = name[f.dom, g.cod]
    _unit_entries(table, arrows)
    return arrows, table


def oracle_build_free(objects, generators):
    """(arrows, table) of the free category, by recursive path listing.

    Paths from an object are listed depth first: each out-edge in
    generator order, then that edge followed by every path from its
    target.  Raises CyclicGraph when some object reaches itself.
    """
    reach = _closure(objects, generators)
    if any(o in reach[o] for o in objects):
        raise CyclicGraph("cycle")

    def paths_from(o):
        for gid, dom, cod in generators:
            if dom == o:
                yield (gid,), cod
                for rest, end in paths_from(cod):
                    yield (gid,) + rest, end

    def name(path):
        return "∘".join(reversed(path))

    paths = [(path, o, end) for o in objects for path, end in paths_from(o)]
    arrows = [Arrow("id:" + o, o, o, True) for o in objects] + [Arrow(name(p), o, end) for p, o, end in paths]
    table = {(name(p), name(q)): name(p + q) for p, _, b in paths for q, c, _ in paths if b == c}
    _unit_entries(table, arrows)
    return arrows, table


def oracle_vectors(category: FiniteCategory) -> tuple[str, ...]:
    """The non-identity arrow ids, sorted, read from the arrows themselves
    rather than from the category's `vectors` index."""
    return tuple(sorted(a.id for a in category.arrows.values() if not a.is_identity))


def oracle_word_norms(category: FiniteCategory, basis: Sequence[str]) -> dict[str, int]:
    """The least k for which some composable word of k basis arrows, with
    no identity among its prefixes, composes to the arrow, for each arrow
    some word reaches.  The words are taken a length at a time, as the set
    of arrows the words of that length compose to, until a length adds no
    arrow; a missing vector is one no word reaches."""
    arrows, table = category.arrows, category.table
    best = {}
    level = set(basis)
    k = 1
    while not level <= best.keys():
        best.update((v, k) for v in level if v not in best)
        level = {
            table[(x, e)]
            for x in level
            for e in basis
            if arrows[x].cod == arrows[e].dom and not arrows[table[(x, e)]].is_identity
        }
        k += 1
    return best


def outlist_distance(category: FiniteCategory, norms, f, g):
    """min ||l|| over the l with f = g (+) l, or None when there is none,
    found among two kinds of l: O, when f = g, and the non-identity l
    leaving cod g with g then l composing to f.  For g = O the one
    candidate is l = f."""
    if g is ZERO:
        return 0 if f is ZERO else norms[f]
    best = 0 if f == g else None
    for l in category.out_arrows[category.arrows[g].cod]:
        if not l.is_identity and category.table[(g, l.id)] == f:
            best = norms[l.id] if best is None else min(best, norms[l.id])
    return best


def zero_vector_law_failures(category: FiniteCategory, norms) -> list:
    """The (law, f) pairs at which a finite zero-vector law fails, f being
    O and each non-zero vector: O is the unit of (+), d(f, O) = ||f|| with
    ||O|| = 0 (the l = O candidate), and every product of f with O is 0."""
    laws = {
        "O (+) f = f": lambda f: vec_add(category, ZERO, f) == f,
        "f (+) O = f": lambda f: vec_add(category, f, ZERO) == f,
        "d(f, O) = ||f||": lambda f: distance(category, norms, f, ZERO) == norms.get(f, 0),
        "f.O = 0": lambda f: inner(category, norms, f, ZERO) == 0,
        "O.f = 0": lambda f: inner(category, norms, ZERO, f) == 0,
        "f^O = 0": lambda f: outer(category, norms, f, ZERO).is_zero(),
        "O^f = 0": lambda f: outer(category, norms, ZERO, f).is_zero(),
        "fO = 0": lambda f: geometric(category, norms, f, ZERO).is_zero(),
        "Of = 0": lambda f: geometric(category, norms, ZERO, f).is_zero(),
    }
    return [(law, f) for f in (ZERO, *category.vectors) for law, holds in laws.items() if not holds(f)]


def oracle_atomic_basis(category: FiniteCategory) -> tuple[str, ...]:
    """The non-identity arrows h, in order, that no pair of non-identity
    arrows f, g (both distinct from h, cod f = dom g) composes to."""
    vectors = oracle_vectors(category)
    arrows, table = category.arrows, category.table

    def composite(h):
        return any(
            table.get((f, g)) == h
            for f in vectors
            for g in vectors
            if h not in (f, g) and arrows[f].cod == arrows[g].dom
        )

    return tuple(h for h in vectors if not composite(h))


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
    vectors = oracle_vectors(category)
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


def _reordering_sign(a: int, b: int) -> int:
    """The sign of the swaps that sort the blade a then the blade b into
    the ascending order of their bits."""
    swaps = 0
    a >>= 1
    while a:
        swaps += bin(a & b).count("1")
        a >>= 1
    return -1 if swaps & 1 else 1


def clifford_product(metric: Sequence[int], x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    """xy in the Clifford algebra Cl(V, diag(metric)) with an orthogonal
    basis γ_0, γ_1, ...: a multivector maps each blade, a bitmap of basis
    indices read in ascending order (Dorst, Fontijne and Mann, Geometric
    Algebra for Computer Science, 2007), to its non-zero coefficient.
    γ_i² = metric[i], and distinct basis vectors anticommute."""
    product: dict[int, int] = {}
    for a, ca in x.items():
        for b, cb in y.items():
            c = ca * cb * _reordering_sign(a, b)
            for i, square in enumerate(metric):
                if a & b & (1 << i):
                    c *= square
            product[a ^ b] = product.get(a ^ b, 0) + c
    return {blade: c for blade, c in product.items() if c}


def clifford_oracle(vectors, norms):
    """The Clifford product of two vectors in Cl(V, diag(||f||²)), whose
    orthogonal basis is the given vectors with a norm, in their order (a
    category's `vectors` or sorted intervals), and catgeo's Multivector
    carried into the same bitmap form: returns (product(f, g),
    as_blades(multivector))."""
    vectors = [v for v in vectors if v in norms]
    index = {v: i for i, v in enumerate(vectors)}
    metric = [norms[v] ** 2 for v in vectors]

    def product(f, g):
        return clifford_product(metric, {1 << index[f]: 1}, {1 << index[g]: 1})

    def as_blades(m: Multivector) -> dict[int, int]:
        blades = {(1 << index[b.first]) | (1 << index[b.second]): c for b, c in m.blades.items()}
        return {0: m.scalar, **blades} if m.scalar else blades

    return product, as_blades


def category_ends(category, norms) -> list:
    """(id, dom, cod, norm) of each non-identity arrow, in canonical order."""
    return [(v, category.arrows[v].dom, category.arrows[v].cod, norms[v]) for v in category.vectors]


def exhaustive_clifford_report(category, norms, basis) -> CliffordReport:
    """clifford_report as it was before it read anticommutation off
    composability: the kernel runs on every basis square and on fg of every
    unordered pair {f, g} of distinct arrows, f before g, and on gf when the
    scalar of fg is 0.  It reads geometry._product at call time, so a test
    can plant a broken kernel and watch the report notice."""
    unit_failures = []
    for e in basis:
        a = _check_vector(category, e)
        square = geometry._fg(norms, a, a)
        if square != (1, None, 0):
            unit_failures.append((e, geometry._as_multivector(*square)))
    anti_failures = []
    product = geometry._product
    ends = category_ends(category, norms)
    for i, (f, dom_f, cod_f, norm_f) in enumerate(ends, 1):
        for g, dom_g, cod_g, norm_g in ends[i:]:
            scalar, blade, c = product(f, g, cod_f, dom_g, norm_f, norm_g)
            if not scalar:
                scalar_gf, blade_gf, c_gf = product(g, f, cod_g, dom_f, norm_g, norm_f)
                if not scalar_gf and (blade != blade_gf or c != -c_gf):
                    anti_failures += ((f, g), (g, f))
    anti_failures.sort()
    return CliffordReport(unit_failures, anti_failures)


def kernel_anticommutation_failures(ends) -> list:
    """(f, g) for each ordered pair of distinct vectors that compose in
    neither order on which the kernel does not give fg = -gf as one blade:
    both scalars 0, one blade, opposite coefficients.  `ends` lists
    (vector, dom, cod, norm) for arrows and intervals alike; the kernel is
    read from geometry._product at call time.  The survey functions rely on
    this to skip such pairs."""
    product = geometry._product
    failures = []
    for f, dom_f, cod_f, norm_f in ends:
        for g, dom_g, cod_g, norm_g in ends:
            if f != g and cod_f != dom_g and cod_g != dom_f:
                scalar, blade, c = product(f, g, cod_f, dom_g, norm_f, norm_g)
                scalar_gf, blade_gf, c_gf = product(g, f, cod_g, dom_f, norm_g, norm_f)
                if scalar or scalar_gf or blade is None or blade != blade_gf or c != -c_gf:
                    failures.append((f, g))
    return failures


def cyclic_categories() -> dict[str, FiniteCategory]:
    """Valid categories with an isomorphism or a non-trivial endomorphism,
    which no random population draws: the groupoid of an isomorphism f with
    inverse g, the cyclic group of order three (a∘a = b, b∘b = a), which
    has no basis, and the monoid of two idempotents with a∘b = b∘a = a."""
    c3 = {("a", "a"): "b", ("a", "b"): "id:o", ("b", "a"): "id:o", ("b", "b"): "a"}
    idempotents = {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "a", ("b", "b"): "b"}
    endos = [("a", "o", "o"), ("b", "o", "o")]
    return {
        "groupoid": build_explicit(
            ["x", "y"], [("f", "x", "y"), ("g", "y", "x")], {("f", "g"): "id:x", ("g", "f"): "id:y"}
        ),
        "c3": build_explicit(["o"], endos, c3),
        "idempotents": build_explicit(["o"], endos, idempotents),
    }


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
        left = lookup(IDENTITY_PREFIX + f.dom, f.id)
        if left != f.id:
            violations.append(Violation("unit", "%s ∘ id_%s = %s, expected %s" % (f.id, f.dom, left, f.id)))
        right = lookup(f.id, IDENTITY_PREFIX + f.cod)
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


def oracle_table_error(category: FiniteCategory, table) -> str | None:
    """The text of the ParseError that build_explicit raises for the
    entries of `table` over the arrows of `category`, found as it was
    before the build read each entry once: the set of composable
    non-identity pairs compared with the entries' keys, a stray entry
    named before a missing one; None when the keys are those pairs and
    every result is an arrow."""
    vectors = [a for a in category.arrows.values() if not a.is_identity]
    required = {(f.id, g.id) for f in vectors for g in vectors if f.cod == g.dom}
    if table.keys() - required:
        return "composition entry %s is not a composable non-identity pair" % (min(table.keys() - required),)
    if required - table.keys():
        return "incomplete composition table: missing entry %s" % (min(required - table.keys()),)
    for pair, result in table.items():
        if result not in category.arrows:
            return "composition %s names unknown arrow %r" % (pair, result)
    return None


def _require(condition, message, *args):
    if not condition:
        raise ParseError(message % args)


def oracle_parse_document(text: str) -> CategoryDocument:
    """parse_document as it was before its checks were written inline:
    every check a `_require` call, each record key read through `rec[key]`.
    parse_document must return an equal document or raise the same text."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer beyond sys.get_int_max_str_digits()
        raise ParseError("invalid JSON: %s" % exc) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    _require(isinstance(data, dict), "document root must be a JSON object")
    mode = data.get("mode")
    _require(mode in MODES, "mode must be one of %s, got %r", ", ".join(MODES), mode)

    objects = data.get("objects")
    _require(isinstance(objects, list) and objects, "objects must be a nonempty list")
    _require(all(isinstance(o, str) and o for o in objects), "object ids must be nonempty strings")
    _require(len(set(objects)) == len(objects), "duplicate object id")
    obj_set = set(objects)

    raw_arrows = data.get("arrows", [])
    _require(isinstance(raw_arrows, list), "arrows must be a list")
    arrows = []
    seen_ids = set()
    for i, rec in enumerate(raw_arrows):
        _require(isinstance(rec, dict), "arrows[%d] must be an object", i)
        for key in ("id", "dom", "cod"):
            _require(isinstance(rec.get(key), str) and rec[key], "arrows[%d].%s must be a nonempty string", i, key)
        _require(rec["id"] not in seen_ids, "duplicate arrow id %r", rec["id"])
        seen_ids.add(rec["id"])
        _require(rec["dom"] in obj_set, "arrows[%d] (%r): dangling dom %r", i, rec["id"], rec["dom"])
        _require(rec["cod"] in obj_set, "arrows[%d] (%r): dangling cod %r", i, rec["id"], rec["cod"])
        arrows.append((rec["id"], rec["dom"], rec["cod"]))

    results = seen_ids | {IDENTITY_PREFIX + o for o in objects}  # a composite may be an identity
    raw_comps = data.get("compositions", [])
    _require(isinstance(raw_comps, list), "compositions must be a list")
    if mode != "explicit":
        _require(not raw_comps, "compositions are only allowed in explicit mode")
    compositions = []
    for i, rec in enumerate(raw_comps):
        _require(isinstance(rec, dict), "compositions[%d] must be an object", i)
        for key in ("f", "g", "result"):
            _require(isinstance(rec.get(key), str) and rec[key], "compositions[%d].%s must be a nonempty string", i, key)
        for key, known in (("f", seen_ids), ("g", seen_ids), ("result", results)):
            _require(rec[key] in known, "compositions[%d]: unknown arrow %r", i, rec[key])
        compositions.append((rec["f"], rec["g"], rec["result"]))

    return CategoryDocument(mode, list(objects), arrows, compositions)


def random_document(rng: random.Random) -> dict:
    """A document that parses: any mode, arrows between declared objects
    (cycles and repeated pairs included) and, in explicit mode, entries
    naming declared arrows and identities; nothing beyond parsing holds."""
    n = rng.randint(1, 5)
    objects = ["a%d" % i for i in range(n)]
    arrows = [
        {"id": "f%d" % k, "dom": rng.choice(objects), "cod": rng.choice(objects)} for k in range(rng.randint(0, 6))
    ]
    data = {"mode": rng.choice(MODES + ("explicit",)), "objects": objects, "arrows": arrows}
    if data["mode"] == "explicit" and arrows:
        ids = [a["id"] for a in arrows]
        results = ids + [IDENTITY_PREFIX + o for o in objects]
        data["compositions"] = [
            {"f": rng.choice(ids), "g": rng.choice(ids), "result": rng.choice(results)}
            for _ in range(rng.randint(0, 6))
        ]
    return data


def mutate_document(rng: random.Random, data: dict) -> dict:
    """`data` with one record field broken: a record that is no object, a
    missing key, a value that is no string or is empty, a duplicate arrow
    id, a dangling dom/cod, or an unknown f, g or result."""
    data = json.loads(json.dumps(data))
    fields = {}  # field -> the indices of its records that are objects
    for field in ("arrows", "compositions"):
        records = [i for i, rec in enumerate(data.get(field, ())) if isinstance(rec, dict) and rec]
        if records:
            fields[field] = records
    if not fields:
        return data
    field = rng.choice(sorted(fields))
    i = rng.choice(fields[field])
    rec = data[field][i]
    key = rng.choice(sorted(rec))
    kind = rng.choice(("record", "missing", "type", "empty", "duplicate", "dangling", "unknown"))
    if kind == "record":
        data[field][i] = rng.choice((None, 3, "f0", [], [rec]))
    elif kind == "missing":
        del rec[key]
    elif kind == "type":
        rec[key] = rng.choice((None, 0, 1.5, True, [], {}, [rec[key]]))
    elif kind == "empty":
        rec[key] = ""
    elif kind == "duplicate" and field == "arrows":
        rec["id"] = rng.choice([a.get("id") for a in data["arrows"] if isinstance(a, dict)])
    elif kind == "dangling" and field == "arrows":
        rec[rng.choice(("dom", "cod"))] = rng.choice(("zz", "id:a0", "A0"))
    else:
        rec[key] = rng.choice(("ghost", "id:zz", "id:a0", "a0", "id:f0"))
    return data
