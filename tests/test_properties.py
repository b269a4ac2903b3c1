"""Law suites over randomly generated categories and rational intervals."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pytest

from catgeo import (
    ZERO,
    Arrow,
    CyclicGraph,
    FiniteCategory,
    NontrivialCycle,
    ParseError,
    anticommutator,
    anticommutator_table,
    atomic_basis,
    build_free,
    build_thin,
    clifford_report,
    compute_norms,
    distance,
    geometric,
    inner,
    interval,
    interval_add,
    interval_norm,
    outer,
    validate_axioms,
    vec_add,
)

from helpers import (
    closed_form_anticommutator,
    oracle_atomic_basis,
    oracle_clifford_failures,
    oracle_norms,
    oracle_validate_axioms,
    oracle_vectors,
)


@st.composite
def thin_categories(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    objects = ["a%d" % i for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=min(10, len(pairs))) if pairs else st.just(set()))
    generators = [("g%d" % k, "a%d" % i, "a%d" % j) for k, (i, j) in enumerate(sorted(chosen))]
    return build_thin(objects, generators)


@st.composite
def free_categories(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    objects = ["a%d" % i for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=6) if pairs else st.just([]))
    generators = [("g%d" % k, "a%d" % i, "a%d" % j) for k, (i, j) in enumerate(edges)]
    return build_free(objects, generators)


categories = thin_categories() | free_categories()


@st.composite
def staged_categories(draw):
    """Free category on stages a0 -> a1 -> ... with one or two parallel
    edges per step, at least one step with two, so that hom-sets with
    several arrows are common."""
    n = draw(st.integers(min_value=4, max_value=5))
    steps = st.lists(st.integers(min_value=1, max_value=2), min_size=n - 1, max_size=n - 1)
    widths = draw(steps.filter(lambda w: 2 in w))
    objects = ["a%d" % i for i in range(n)]
    generators = [("g%d_%d" % (i, k), "a%d" % i, "a%d" % (i + 1)) for i, w in enumerate(widths) for k in range(w)]
    return build_free(objects, generators)


@st.composite
def presentations(draw):
    """Objects a0..a<n-1> and generators on any ordered pairs, cycles and
    repeated pairs included, with ids drawn from g<k> and a<i>->a<j> names."""
    n = draw(st.integers(min_value=1, max_value=5))
    objects = ["a%d" % i for i in range(n)]
    names = ["g%d" % k for k in range(4)] + ["a%d->a%d" % (i, j) for i in range(n) for j in range(n) if i != j]
    ends = st.tuples(st.sampled_from(objects), st.sampled_from(objects))
    edges = draw(st.lists(st.tuples(st.sampled_from(names), ends), max_size=7, unique_by=lambda e: e[0]))
    return objects, [(gid, dom, cod) for gid, (dom, cod) in edges]


@pytest.mark.parametrize("build", [build_thin, build_free])
@settings(max_examples=150, deadline=None)
@given(presentations())
def test_built_categories_satisfy_the_axioms(build, presentation):
    try:
        cat = build(*presentation)
    except (ParseError, NontrivialCycle, CyclicGraph):
        return
    assert validate_axioms(cat) == []


CORRUPTIONS = (
    "delete",
    "wrong result",
    "same-type result",
    "unknown result",
    "None result",
    "non-composable",
    "unknown arrow",
)


@settings(max_examples=300, deadline=None)
@given(
    categories | staged_categories(),
    st.lists(st.sampled_from(CORRUPTIONS), max_size=4),
    st.randoms(use_true_random=False),
)
def test_validate_axioms_matches_all_pairs_oracle(cat, corruptions, rng):
    # the indexed check reports what the all-pairs scan reports, in its
    # order, after each corruption
    table = dict(cat.table)
    ids = list(cat.arrows)
    hom = {}
    for a in cat.arrows.values():
        hom.setdefault((a.dom, a.cod), []).append(a.id)
    vectors = set(cat.vectors)
    starts = {cat.arrows[v].dom for v in vectors}
    ends = {cat.arrows[v].cod for v in vectors}
    assert validate_axioms(cat) == oracle_validate_axioms(cat) == []
    for corruption in corruptions:
        keys = sorted(table)
        if not keys:
            break
        if corruption == "delete":
            del table[rng.choice(keys)]
        elif corruption == "wrong result":
            table[rng.choice(keys)] = rng.choice(ids)
        elif corruption == "same-type result":
            # another arrow of the result's hom-set, in an entry (f, g) of
            # two non-identity arrows with a third one before f or after g:
            # the pair and unit checks stay clean, and a triple sees the swap
            swaps = [
                (key, a)
                for key in keys
                if all(x in vectors for x in key)
                and table[key] in cat.arrows
                and (cat.arrows[key[0]].dom in ends or cat.arrows[key[1]].cod in starts)
                for a in hom[cat.arrows[table[key]].dom, cat.arrows[table[key]].cod]
                if a != table[key]
            ]
            if swaps:
                key, a = rng.choice(swaps)
                table[key] = a
        elif corruption == "unknown result":
            table[rng.choice(keys)] = "ghost"
        elif corruption == "None result":
            table[rng.choice(keys)] = None
        elif corruption == "non-composable":
            pairs = [(f, g) for f in ids for g in ids if cat.arrows[f].cod != cat.arrows[g].dom]
            if pairs:
                table[rng.choice(pairs)] = rng.choice(ids)
        else:
            pair = (rng.choice(ids), "ghost") if rng.random() < 0.5 else ("ghost", rng.choice(ids))
            table[pair] = rng.choice(ids)
        corrupted = FiniteCategory(cat.objects, cat.arrows.values(), table, "explicit")
        report = validate_axioms(corrupted)
        assert report == oracle_validate_axioms(corrupted)
        if any("ghost" in key for key in table):
            assert report  # an entry naming an unknown arrow is always reported


@st.composite
def one_object_tables(draw):
    """One object o, arrows e0.. o -> o and any results in their table,
    the unit-law entries included: endomorphisms with g∘f = f or g∘f = g,
    inverses and broken unit laws occur."""
    n = draw(st.integers(min_value=1, max_value=4))
    ids = ["id:o"] + ["e%d" % i for i in range(n)]
    arrows = [Arrow("id:o", "o", "o", True)] + [Arrow(e, "o", "o") for e in ids[1:]]
    results = st.sampled_from(ids)
    return FiniteCategory(["o"], arrows, {(f, g): draw(results) for f in ids for g in ids}, "explicit")


@settings(max_examples=150, deadline=None)
@given(categories | staged_categories() | one_object_tables())
def test_atomic_basis_matches_all_pairs_oracle(cat):
    # a thin or free builder records its basis; the walk over an explicit
    # copy of the table and the all-pairs oracle agree with it
    explicit = FiniteCategory(cat.objects, cat.arrows.values(), cat.table, "explicit")
    assert (cat.basis is None) == (cat.mode == "explicit")
    assert atomic_basis(cat) == atomic_basis(explicit) == oracle_atomic_basis(cat)


@settings(max_examples=150, deadline=None)
@given(categories | staged_categories() | one_object_tables(), st.randoms(use_true_random=False))
def test_vectors_index_is_the_sorted_non_identity_ids(cat, rng):
    # the index is built from the arrows, whatever order they come in and
    # whatever the table holds: here a hand-built copy with shuffled arrows,
    # one entry dropped and one naming an unknown arrow
    assert type(cat.vectors) is tuple
    assert cat.vectors == oracle_vectors(cat)
    arrows = list(cat.arrows.values())
    rng.shuffle(arrows)
    table = dict(cat.table)
    del table[rng.choice(sorted(table))]
    table[(rng.choice(sorted(cat.arrows)), "ghost")] = "ghost"
    corrupted = FiniteCategory(cat.objects, arrows, table, "explicit")
    assert validate_axioms(corrupted)
    assert type(corrupted.vectors) is tuple
    assert corrupted.vectors == oracle_vectors(corrupted) == cat.vectors


@settings(max_examples=60, deadline=None)
@given(categories)
def test_norm_positivity_and_atomicity(cat):
    basis = atomic_basis(cat)
    norms = compute_norms(cat, basis)
    for arrow in cat.vectors:
        assert norms[arrow] >= 1
        assert (norms[arrow] == 1) == (arrow in basis)
    assert tuple(norms) == cat.vectors
    assert list(basis) == sorted(basis)
    # ||O|| = 0 where O occurs: the l = O candidate and the products
    assert distance(cat, norms, ZERO, ZERO) == 0
    assert inner(cat, norms, ZERO, ZERO) == 0
    for arrow in cat.vectors:
        assert distance(cat, norms, arrow, ZERO) == norms[arrow]


@settings(max_examples=60, deadline=None)
@given(categories)
def test_triangle_inequality(cat):
    norms = compute_norms(cat, atomic_basis(cat))
    for f in cat.vectors:
        for g in cat.vectors:
            if cat.arrows[f].cod == cat.arrows[g].dom:
                composite = cat.table[(f, g)]
                assert norms[composite] <= norms[f] + norms[g]


@settings(max_examples=40, deadline=None)
@given(categories)
def test_bfs_norms_match_brute_force(cat):
    vectors = cat.vectors
    if len(vectors) > 12:
        return
    basis = atomic_basis(cat)
    norms = compute_norms(cat, basis)
    expected = oracle_norms(cat, basis, len(vectors))
    assert norms == expected


@settings(max_examples=40, deadline=None)
@given(categories)
def test_clifford_conditions(cat):
    basis = atomic_basis(cat)
    norms = compute_norms(cat, basis)
    assert clifford_report(cat, norms, basis).holds


@settings(max_examples=40, deadline=None)
@given(categories)
def test_anticommutator_matches_closed_form(cat):
    norms = compute_norms(cat, atomic_basis(cat))
    vectors = cat.vectors
    for f in vectors:
        for g in vectors:
            if f == g:
                continue
            assert anticommutator(cat, norms, f, g) == closed_form_anticommutator(cat, norms, f, g)


@settings(max_examples=40, deadline=None)
@given(categories)
def test_anticommutator_table_matches_pairwise_products(cat):
    norms = compute_norms(cat, atomic_basis(cat))
    vectors = cat.vectors
    rows = anticommutator_table(cat, norms)
    assert [(f, g) for f, g, _, _ in rows] == [(f, g) for f in vectors for g in vectors]
    for f, g, scalar, terms in rows:
        mv = anticommutator(cat, norms, f, g)
        assert (scalar, tuple(terms)) == (mv.scalar, tuple(mv.terms()))


@settings(max_examples=60, deadline=None)
@given(categories, st.randoms(use_true_random=False))
def test_clifford_report_matches_oracle_under_any_norms(cat, rng):
    # doctored norms (0 included) make both conditions fail in places
    basis = atomic_basis(cat)
    norms = {a: rng.randint(0, 3) for a in cat.vectors}
    report = clifford_report(cat, norms, basis)
    unit, anti = oracle_clifford_failures(cat, norms, basis)
    assert [(e, mv.scalar, mv.blades) for e, mv in report.unit_square_failures] == [(e, s, {}) for e, s in unit]
    assert report.anticommutation_failures == anti


@settings(max_examples=40, deadline=None)
@given(categories)
def test_zero_vector_laws(cat):
    norms = compute_norms(cat, atomic_basis(cat))
    for f in cat.vectors:
        assert vec_add(cat, ZERO, f) == f
        assert vec_add(cat, f, ZERO) == f
        assert inner(cat, norms, f, ZERO) == 0
        assert inner(cat, norms, ZERO, f) == 0
        assert outer(cat, norms, f, ZERO).is_zero()
        assert outer(cat, norms, ZERO, f).is_zero()
        assert geometric(cat, norms, ZERO, f).is_zero()


@settings(max_examples=40, deadline=None)
@given(categories)
def test_outer_antisymmetry_on_orthogonal_pairs(cat):
    from catgeo import is_orthogonal

    norms = compute_norms(cat, atomic_basis(cat))
    for f in cat.vectors:
        for g in cat.vectors:
            if is_orthogonal(cat, norms, f, g):
                assert outer(cat, norms, f, g) == -outer(cat, norms, g, f)
                assert anticommutator(cat, norms, f, g).is_zero() or f == g


rationals = st.fractions(min_value=Fraction(-100), max_value=Fraction(100), max_denominator=997)


@given(rationals, rationals, rationals)
def test_interval_norm_additivity(a, b, c):
    lo, mid, hi = sorted((a, b, c))
    if lo == mid or mid == hi:
        return
    g = interval(lo, mid)
    h = interval(mid, hi)
    f = interval_add(g, h)
    assert interval_norm(f) == interval_norm(g) + interval_norm(h)


@given(rationals, rationals)
def test_interval_midpoint_split(a, b):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    from catgeo import split

    f = interval(lo, hi)
    g, h = split(f)
    assert interval_add(g, h) == f
    assert interval_norm(g) + interval_norm(h) == interval_norm(f)
