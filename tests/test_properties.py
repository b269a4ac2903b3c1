"""Law suites over randomly generated categories and rational intervals."""

import itertools
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

import pytest

from catgeo import (
    ZERO,
    Arrow,
    AxiomViolation,
    CatGeoError,
    CompositeIsIdentity,
    CyclicGraph,
    FiniteCategory,
    Multivector,
    NoDifference,
    NotComposable,
    NotGenerated,
    ParseError,
    UndefinedSum,
    UnknownArrow,
    anticommutator,
    anticommutator_table,
    atomic_basis,
    build_explicit,
    build_free,
    build_thin,
    builtin_category,
    clifford_report,
    compose,
    compute_norms,
    distance,
    export_dot,
    geometric,
    inner,
    interval,
    interval_add,
    interval_norm,
    interval_products,
    is_orthogonal,
    is_parallel,
    load_category,
    outer,
    validate_axioms,
    vec_add,
)

from helpers import (
    category_ends,
    clifford_oracle,
    closed_form_anticommutator,
    concrete_categories,
    cyclic_categories,
    exhaustive_clifford_report,
    explicit_document,
    kernel_anticommutation_failures,
    oracle_atomic_basis,
    oracle_clifford_failures,
    oracle_table_error,
    oracle_validate_axioms,
    oracle_vectors,
    oracle_word_norms,
    outlist_distance,
    zero_vector_law_failures,
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
#: valid categories with isomorphisms and non-trivial endomorphisms
cyclic = concrete_categories() | st.sampled_from(list(cyclic_categories().values()))


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
    except (ParseError, CyclicGraph):
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
    categories | staged_categories() | concrete_categories(),
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


@settings(max_examples=400, deadline=None)
@given(one_object_tables())
def test_validate_axioms_matches_all_pairs_oracle_on_one_object_tables(cat):
    # arbitrary results: broken unit laws and non-associative tables, which
    # no corruption of a valid category draws as freely
    assert validate_axioms(cat) == oracle_validate_axioms(cat)


DOCUMENT_CORRUPTIONS = ("wrong result", "same-type result", "delete", "stray pair")


@settings(max_examples=200, deadline=None)
@given(
    categories | staged_categories() | concrete_categories() | one_object_tables(),
    st.lists(st.sampled_from(DOCUMENT_CORRUPTIONS), max_size=4),
    st.randoms(use_true_random=False),
)
def test_explicit_load_matches_build_then_validate(cat, corruptions, rng):
    # a category written as an explicit document, its table broken in ways
    # a document can say, loads as building it and validating it in full
    # did: the same ParseError text, or every violation in the oracle's order
    vectors = cat.vectors
    table = {(f, g): r for (f, g), r in cat.table.items() if f in vectors and g in vectors}
    hom = {}
    for a in cat.arrows.values():
        hom.setdefault((a.dom, a.cod), []).append(a.id)
    for corruption in corruptions:
        keys = sorted(table)
        if corruption == "stray pair":
            pairs = [(f, g) for f in vectors for g in vectors if cat.arrows[f].cod != cat.arrows[g].dom]
            if pairs:
                table[rng.choice(pairs)] = rng.choice(sorted(cat.arrows))
        elif not keys:
            continue
        elif corruption == "delete":
            del table[rng.choice(keys)]
        elif corruption == "wrong result":
            table[rng.choice(keys)] = rng.choice(sorted(cat.arrows))
        else:
            key = rng.choice(keys)
            result = cat.arrows[table[key]]
            table[key] = rng.choice(hom[result.dom, result.cod])
    expected = oracle_table_error(cat, table)
    try:
        loaded = load_category(explicit_document(cat, table))
    except ParseError as exc:
        assert str(exc) == expected
        return
    except AxiomViolation as exc:
        assert expected is None
        arrows = [(a.id, a.dom, a.cod) for a in cat.arrows.values() if not a.is_identity]
        built = build_explicit(cat.objects, arrows, table)
        assert exc.violations == validate_axioms(built) == oracle_validate_axioms(built) != []
        return
    assert expected is None
    assert validate_axioms(loaded) == oracle_validate_axioms(loaded) == []


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(categories | staged_categories() | concrete_categories(), st.just(True))
    | st.tuples(one_object_tables(), st.just(False))
)
def test_atomic_basis_matches_all_pairs_oracle(drawn):
    # every builder records its basis, and only a category made directly
    # has none; the walk over an explicit copy of the table and the
    # all-pairs oracle agree with it
    cat, built = drawn
    explicit = FiniteCategory(cat.objects, cat.arrows.values(), cat.table, "explicit")
    assert (cat.basis is not None) == built and explicit.basis is None
    assert atomic_basis(cat) == atomic_basis(explicit) == oracle_atomic_basis(cat)


@settings(max_examples=150, deadline=None)
@given(categories | staged_categories() | concrete_categories() | one_object_tables(), st.randoms(use_true_random=False))
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
    assert zero_vector_law_failures(cat, norms) == []


@settings(max_examples=60, deadline=None)
@given(categories)
def test_triangle_inequality(cat):
    norms = compute_norms(cat, atomic_basis(cat))
    for f in cat.vectors:
        for g in cat.vectors:
            if cat.arrows[f].cod == cat.arrows[g].dom:
                composite = cat.table[(f, g)]
                assert norms[composite] <= norms[f] + norms[g]


@settings(max_examples=60, deadline=None)
@given(free_categories())
def test_free_norm_is_additive(cat):
    # a free arrow is one path, and its norm is the path's length
    norms = compute_norms(cat, atomic_basis(cat))
    for f in cat.vectors:
        for g in cat.vectors:
            if cat.arrows[f].cod == cat.arrows[g].dom:
                assert norms[vec_add(cat, f, g)] == norms[f] + norms[g]


@settings(max_examples=100, deadline=None)
@given(categories | cyclic)
def test_sum_is_the_composite(cat):
    # f (+) g = g∘f: the sum is undefined exactly when the composite is, with
    # the same error, and a composite that is an identity is no vector
    assert UndefinedSum is NotComposable
    for f in cat.vectors:
        for g in cat.vectors:
            if cat.arrows[f].cod != cat.arrows[g].dom:
                for add in (compose, vec_add):
                    with pytest.raises(NotComposable):
                        add(cat, f, g)
            elif cat.arrows[compose(cat, f, g)].is_identity:
                with pytest.raises(CompositeIsIdentity):
                    vec_add(cat, f, g)
            else:
                assert vec_add(cat, f, g) == compose(cat, f, g)


@settings(max_examples=100, deadline=None)
@given(categories | staged_categories() | cyclic, st.randoms(use_true_random=False))
def test_distance_matches_the_outlist_formula(cat, rng):
    # the least ||l|| over l = O and the l leaving cod g, for every pair,
    # O included; doctored norms (0 included) make the minimum matter
    norms = {v: rng.randint(0, 3) for v in cat.vectors}
    vectors = (ZERO, *cat.vectors)
    for f in vectors:
        for g in vectors:
            expected = outlist_distance(cat, norms, f, g)
            if expected is None:
                with pytest.raises(NoDifference):
                    distance(cat, norms, f, g)
            else:
                assert distance(cat, norms, f, g) == expected


@settings(max_examples=60, deadline=None)
@given(categories)
def test_distance_triangle_inequality(cat):
    # f = g (+) l1 and g = h (+) l2 give f = h (+) (l2 (+) l1), and the norm
    # is subadditive
    norms = compute_norms(cat, atomic_basis(cat))
    vectors = cat.vectors
    d = {}
    for f in vectors:
        for g in vectors:
            try:
                d[f, g] = distance(cat, norms, f, g)
            except NoDifference:
                pass
    for (f, g), fg in d.items():
        for h in vectors:
            if (g, h) in d:
                assert (f, h) in d and d[f, h] <= fg + d[g, h]


@settings(max_examples=150, deadline=None)
@given(categories | staged_categories() | concrete_categories())
def test_bfs_norms_match_brute_force(cat):
    # a category with isomorphisms or idempotents may have arrows no basis
    # word reaches (a group has no basis at all); NotGenerated names them
    basis = atomic_basis(cat)
    expected = oracle_word_norms(cat, basis)
    try:
        norms = compute_norms(cat, basis)
    except NotGenerated as exc:
        assert exc.missing == [v for v in cat.vectors if v not in expected] != []
    else:
        assert norms == expected


@settings(max_examples=60, deadline=None)
@given(categories | concrete_categories())
def test_square_is_norm_squared(cat):
    # f² = ||f||² for every non-zero f, endomorphisms and isomorphisms too;
    # an arrow that no basis word reaches has no norm, and is left out
    norms = oracle_word_norms(cat, atomic_basis(cat))
    for f in norms:
        assert geometric(cat, norms, f, f) == Multivector(norms[f] ** 2)


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


def _assert_table_matches_pairwise_products(cat, norms):
    vectors = cat.vectors
    rows = list(anticommutator_table(cat, norms))
    assert [(f, g) for f, g, _, _ in rows] == [(f, g) for f in vectors for g in vectors]
    for f, g, scalar, terms in rows:
        mv = anticommutator(cat, norms, f, g)
        assert (scalar, tuple(terms)) == (mv.scalar, tuple(mv.terms()))


@settings(max_examples=40, deadline=None)
@given(categories)
def test_anticommutator_table_matches_pairwise_products(cat):
    _assert_table_matches_pairwise_products(cat, compute_norms(cat, atomic_basis(cat)))


@settings(max_examples=60, deadline=None)
@given(categories | concrete_categories(), st.data())
def test_anticommutator_table_matches_pairwise_products_under_any_norms(cat, data):
    # a zero norm makes the scalar of a pair that composes in one order 0
    # while its blade stays, so such a row is non-zero with scalar 0
    norms = {v: data.draw(st.sampled_from((0, 1, 3, 10**20))) for v in cat.vectors}
    _assert_table_matches_pairwise_products(cat, norms)


def _assert_report_matches_oracles(cat, norms, basis):
    report = clifford_report(cat, norms, basis)
    unit, anti = oracle_clifford_failures(cat, norms, basis)
    assert [(e, mv.scalar, mv.blades) for e, mv in report.unit_square_failures] == [(e, s, {}) for e, s in unit]
    assert report.anticommutation_failures == anti
    assert report == exhaustive_clifford_report(cat, norms, basis)


@settings(max_examples=60, deadline=None)
@given(categories | concrete_categories(), st.randoms(use_true_random=False))
def test_clifford_report_matches_oracle_under_any_norms(cat, rng):
    # doctored norms (0 included) make both conditions fail in places
    norms = {a: rng.randint(0, 3) for a in cat.vectors}
    _assert_report_matches_oracles(cat, norms, atomic_basis(cat))


@pytest.mark.parametrize("name", sorted(cyclic_categories()))
def test_survey_of_cyclic_categories_matches_oracles_under_every_norm(name):
    # every pair of a one-object category composes in both orders, and so
    # does the groupoid's f, g: no failure, however the norms are doctored;
    # C3 has no basis, so doctored norms are its only norms
    cat = cyclic_categories()[name]
    basis = atomic_basis(cat)
    for values in itertools.product((0, 1, 3), repeat=len(cat.vectors)):
        norms = dict(zip(cat.vectors, values))
        _assert_report_matches_oracles(cat, norms, basis)
        _assert_table_matches_pairwise_products(cat, norms)


@settings(max_examples=60, deadline=None)
@given(categories | staged_categories() | cyclic, st.data())
def test_kernel_anticommutes_arrows_that_compose_in_neither_order(cat, data):
    norms = {v: data.draw(st.sampled_from((0, 1, 3, 10**20))) for v in cat.vectors}
    assert kernel_anticommutation_failures(category_ends(cat, norms)) == []


halves = st.sampled_from([Fraction(k, 2) for k in range(7)])


@given(st.lists(st.tuples(halves, halves).filter(lambda ends: ends[0] != ends[1]), max_size=6))
def test_kernel_anticommutes_intervals_that_compose_in_neither_order(pairs):
    # endpoints from a few halves, so that intervals meet end to start
    intervals = {interval(min(a, b), max(a, b)) for a, b in pairs}
    assert kernel_anticommutation_failures([(f, f.lo, f.hi, interval_norm(f)) for f in intervals]) == []


@settings(max_examples=40, deadline=None)
@given(categories)
def test_zero_vector_laws(cat):
    assert zero_vector_law_failures(cat, compute_norms(cat, atomic_basis(cat))) == []


@settings(max_examples=40, deadline=None)
@given(categories)
def test_outer_antisymmetry_on_orthogonal_pairs(cat):
    norms = compute_norms(cat, atomic_basis(cat))
    for f in cat.vectors:
        for g in cat.vectors:
            if is_orthogonal(cat, norms, f, g):
                assert outer(cat, norms, f, g) == -outer(cat, norms, g, f)
                assert anticommutator(cat, norms, f, g).is_zero() or f == g


def _word_or_doctored_norms(cat, data):
    """The word norms of the atomic basis, an arrow no basis word reaches
    left out, or doctored norms drawn from {0, 1, 3} on every arrow."""
    if data.draw(st.booleans()):
        return oracle_word_norms(cat, atomic_basis(cat))
    return {v: data.draw(st.sampled_from((0, 1, 3))) for v in cat.vectors}


def _grade_parts(xy, yx):
    """The grade-0 part and the grade-2 part of xy, and xy + yx, for xy and
    yx Clifford products of two vectors in bitmap form (grades 0 and 2 only)."""
    symmetrization = {b: xy.get(b, 0) + yx.get(b, 0) for b in xy.keys() | yx.keys()}
    return xy.get(0, 0), {b: c for b, c in xy.items() if b}, {b: c for b, c in symmetrization.items() if c}


@settings(max_examples=150, deadline=None)
@given(categories | staged_categories() | cyclic, st.data())
def test_geometric_is_the_clifford_product_off_the_composing_pairs(cat, data):
    # fg is γ_f γ_g in Cl(V, diag(||f||²)), the arrows an orthogonal basis,
    # except where f then g composes: there Cl has the blade γ_f∧γ_g and
    # catgeo the scalar ||f||·||g||; a zero norm makes Cl degenerate
    norms = _word_or_doctored_norms(cat, data)
    clifford, as_blades = clifford_oracle(cat.vectors, norms)
    for f in norms:
        for g in norms:
            fg = geometric(cat, norms, f, g)
            if f != g and cat.arrows[f].cod == cat.arrows[g].dom:
                assert fg == Multivector(norms[f] * norms[g])
            else:
                assert as_blades(fg) == clifford(f, g)


@settings(max_examples=150, deadline=None)
@given(categories | staged_categories() | cyclic, st.data())
def test_inner_outer_and_anticommutator_are_the_clifford_grade_parts(cat, data):
    # on f = g and on each pair that composes in neither order, f·g, f∧g and
    # fg + gf are the grade-0 part, the grade-2 part and the symmetrization
    # xy + yx of the Clifford product xy = γ_f γ_g
    norms = _word_or_doctored_norms(cat, data)
    clifford, as_blades = clifford_oracle(cat.vectors, norms)
    for f in norms:
        for g in norms:
            a, b = cat.arrows[f], cat.arrows[g]
            if f == g or a.cod != b.dom and b.cod != a.dom:
                expected = _grade_parts(clifford(f, g), clifford(g, f))
                assert inner(cat, norms, f, g) == expected[0]
                assert as_blades(outer(cat, norms, f, g)) == expected[1]
                assert as_blades(anticommutator(cat, norms, f, g)) == expected[2]


@given(st.lists(st.tuples(halves, halves).filter(lambda ends: ends[0] != ends[1]), min_size=1, max_size=5))
def test_interval_products_are_the_clifford_product_off_the_composing_pairs(pairs):
    # the same statement on the real line: a few intervals as the orthogonal
    # basis of Cl(V, diag(width²)), exact Fractions, with hi f = lo g composing
    intervals = sorted({interval(min(a, b), max(a, b)) for a, b in pairs})
    norms = {f: interval_norm(f) for f in intervals}
    clifford, as_blades = clifford_oracle(intervals, norms)
    for f in intervals:
        for g in intervals:
            dot, wedge, fg = interval_products(f, g)
            if f != g and f.hi == g.lo:
                assert fg == Multivector(norms[f] * norms[g])
            else:
                assert as_blades(fg) == clifford(f, g)
            if f == g or f.hi != g.lo and g.hi != f.lo:
                expected = _grade_parts(clifford(f, g), clifford(g, f))
                assert (dot, as_blades(wedge), as_blades(fg + interval_products(g, f)[2])) == expected


#: each public function that takes vectors or a basis, whether it takes
#: norms, and what each argument must be: a vector (an arrow id or O), an
#: arrow (no O), any arrow id (identities too), a basis of arrows, or the
#: edges of export_dot, a basis or None for every arrow
BOUNDARY = (
    (compose, False, ("id", "id")),
    (vec_add, False, ("vector", "vector")),
    (distance, True, ("vector", "vector")),
    (compute_norms, False, ("basis",)),
    (inner, True, ("vector", "vector")),
    (outer, True, ("vector", "vector")),
    (geometric, True, ("vector", "vector")),
    (anticommutator, True, ("vector", "vector")),
    (is_orthogonal, True, ("vector", "vector")),
    (is_parallel, False, ("arrow", "arrow")),
    (clifford_report, True, ("basis",)),
    (export_dot, False, ("edges",)),
)

builtin_categories = st.sampled_from([builtin_category(name) for name in ("po6", "path3", "parallel2")])


def _boundary_arguments(cat):
    ids = st.sampled_from(sorted(cat.arrows))  # non-identity arrows and identities
    return st.one_of(
        st.sampled_from(cat.vectors) if cat.vectors else ids,
        ids,
        st.sampled_from([ZERO, "", None, 1, "nope"]),
        st.text(max_size=3),
        st.tuples(ids),
        st.tuples(ids, ids),
    )


@settings(max_examples=600, deadline=None)
@given(builtin_categories | thin_categories() | free_categories(), st.sampled_from(BOUNDARY), st.data())
def test_every_bad_argument_is_an_unknown_arrow_named_by_its_repr(cat, entry, data):
    # each call returns or raises a CatGeoError; it raises UnknownArrow
    # exactly when some argument is no value of its kind, and the message
    # names the first such argument by its repr; a basis is a drawn list, a
    # one-shot iterator over one, which gives what its list gives, or a whole
    # non-list: a str or a non-iterable is itself the bad value
    function, takes_norms, kinds = entry
    norms = compute_norms(cat, atomic_basis(cat))
    arguments = _boundary_arguments(cat)
    shape = data.draw(st.sampled_from(("list", "iterator", "whole")))
    whole = st.sampled_from([None, 5, *cat.vectors[:1]]) | st.text(max_size=3)
    lists = whole if shape == "whole" else st.lists(arguments, max_size=3)
    drawn = [data.draw(arguments if kind in ("vector", "arrow", "id") else lists) for kind in kinds]
    valid = {"vector": (ZERO, *cat.vectors), "arrow": cat.vectors, "id": cat.arrows}
    if shape == "whole":  # no list: only the edges' None, every arrow, is valid
        listed = set()
        valid.update(basis=(), edges=(None,))
    else:
        listed = {"basis", "edges"}
        valid.update(basis=cat.vectors, edges=cat.vectors)
    checked = [(kind, v) for kind, value in zip(kinds, drawn) for v in (value if kind in listed else [value])]
    bad = [v for kind, v in checked if v not in valid[kind]]

    def outcome(given):
        try:
            return function(cat, *([norms] if takes_norms else []), *given)
        except CatGeoError as exc:
            return exc

    result = outcome(drawn)
    if isinstance(result, CatGeoError):
        assert isinstance(result, UnknownArrow) == bool(bad), result
        if bad:
            assert repr(bad[0]) in str(result)
    else:
        assert not bad
    if shape == "iterator":
        again = outcome([iter(value) if kind in listed else value for kind, value in zip(kinds, drawn)])
        if isinstance(result, CatGeoError):
            assert (type(again), str(again)) == (type(result), str(result))
        else:
            assert again == result


@st.composite
def presentations_by_mode(draw):
    """(mode, objects, generators, compositions) of a valid presentation: a
    thin or free one on the objects a<i>, or the explicit table of the
    category one of them builds; compositions is None but for explicit."""
    mode = draw(st.sampled_from(("thin", "free", "explicit")))
    n = draw(st.integers(min_value=1, max_value=5))
    objects = ["a%d" % i for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=6) if pairs else st.just([]))
    thin = mode == "thin" or mode == "explicit" and draw(st.booleans())
    generators = [("g%d" % k, "a%d" % i, "a%d" % j) for k, (i, j) in enumerate(sorted(set(edges)) if thin else edges)]
    if mode != "explicit":
        return mode, objects, generators, None
    cat = (build_thin if thin else build_free)(objects, generators)
    vectors = set(cat.vectors)
    arrows = [(v, cat.arrows[v].dom, cat.arrows[v].cod) for v in cat.vectors]
    return mode, objects, arrows, {key: r for key, r in cat.table.items() if vectors.issuperset(key)}


BUILDERS = {
    "thin": lambda objects, generators, _: build_thin(objects, generators),
    "free": lambda objects, generators, _: build_free(objects, generators),
    "explicit": build_explicit,
}


@settings(max_examples=200, deadline=None)
@given(presentations_by_mode())
def test_builders_read_one_shot_iterators_as_lists(presentation):
    # each builder reads its objects and generators once, and compute_norms
    # its basis: one-shot iterators build the arrows in the same order, the
    # same table and the same basis and norms as lists
    mode, objects, generators, compositions = presentation
    build = BUILDERS[mode]
    listed = build(objects, generators, compositions)
    once = build(iter(objects), iter(generators), compositions)
    assert once.objects == listed.objects
    assert list(once.arrows.values()) == list(listed.arrows.values())
    assert list(once.table.items()) == list(listed.table.items())
    basis = atomic_basis(listed)
    assert atomic_basis(once) == basis
    assert compute_norms(once, iter(basis)) == compute_norms(listed, basis)


BAD_IDS = (1, None, ("a0",), ["a0"], "", "id:a0")
BAD_RECORDS = ("fab", 5, None, ("g", "a0"), ("g", "a0", "a0", "a0"))
BAD_ENDPOINTS = ("zz", ["a0"], 1, None)
MUTATIONS = ("objects", "generators", "object id", "repeated object", "record", "generator id", "repeated id", "endpoint")


@settings(max_examples=400, deadline=None)
@given(presentations_by_mode(), st.sampled_from(MUTATIONS), st.data())
def test_every_malformed_presentation_is_a_parse_error_naming_its_value(presentation, mutation, data):
    # one bad value in a valid presentation: every builder raises ParseError,
    # and the message names the value by its repr (an endpoint by its
    # generator's id; a repeated object id is not named)
    mode, objects, generators, compositions = presentation
    objects, generators = list(objects), list(generators)
    j = data.draw(st.integers(min_value=0, max_value=len(generators) - 1)) if generators else None
    if mutation == "objects":
        objects = named = data.draw(st.sampled_from(("".join(objects), "a0")))
    elif mutation == "generators":
        generators = named = data.draw(st.sampled_from(("fab", "")))
    elif mutation == "object id":
        named = data.draw(st.sampled_from(BAD_IDS))
        objects[data.draw(st.integers(min_value=0, max_value=len(objects) - 1))] = named
    elif mutation == "repeated object":
        objects.append(data.draw(st.sampled_from(objects)))
    elif j is None:
        assume(False)  # the other mutations change a generator
    elif mutation == "record":
        generators[j] = named = data.draw(st.sampled_from(BAD_RECORDS))
    elif mutation == "generator id":
        named = data.draw(st.sampled_from(BAD_IDS))
        generators[j] = (named, *generators[j][1:])
    elif mutation == "repeated id":
        named = generators[0][0]
        generators.append((named, *generators[j][1:]))
    else:
        gid, dom, cod = generators[j]
        end = data.draw(st.sampled_from(BAD_ENDPOINTS))
        generators[j] = (gid, end, cod) if data.draw(st.booleans()) else (gid, dom, end)
        named = gid
    with pytest.raises(ParseError) as info:
        BUILDERS[mode](objects, generators, compositions)
    if mutation == "repeated object":
        assert str(info.value) == "duplicate object ids"
    else:
        assert repr(named) in str(info.value)


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
