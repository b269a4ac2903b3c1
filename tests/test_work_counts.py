"""Work counts: the cost of a stage pinned by counting the lookups it makes
on a ladder of sizes, against a formula in the category's structure, so
that a stage that turns quadratic fails a test however fast the host is."""

import random
from collections import Counter
from collections.abc import Mapping

import pytest

from catgeo import (
    ZERO,
    FiniteCategory,
    NoDifference,
    ParseError,
    anticommutator_table,
    atomic_basis,
    build_explicit,
    build_free,
    build_thin,
    clifford_report,
    compute_norms,
    distance,
    load_category,
    validate_axioms,
    vec_add,
)
from catgeo import category as category_module
from catgeo import cli, documents, render
from catgeo.category import Arrow

from helpers import COINCIDING_GENERATORS, COINCIDING_OBJECTS, concrete_category, explicit_document, t4


class CountingTable(Mapping):
    """A composition table that counts the entries looked up in it."""

    def __init__(self, table):
        self.table = table
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return self.table[key]

    def __iter__(self):
        return iter(self.table)

    def __len__(self):
        return len(self.table)


def thin_chain(n):
    objects = ["o%d" % i for i in range(n)]
    return objects, [("g%d" % i, a, b) for i, (a, b) in enumerate(zip(objects, objects[1:]))]


def staged_free_chain():
    # six stages, two parallel edges a step: 114 paths
    objects = ["a%d" % i for i in range(6)]
    return objects, [("g%d_%d" % (i, k), objects[i], objects[i + 1]) for i in range(5) for k in range(2)]


def transformation_monoid():
    # two maps of {0, 1, 2, 3} generate 57 non-identity maps, of norms up to 8
    return concrete_category([4], [(0, 0, (3, 3, 1, 0)), (0, 0, (2, 1, 2, 0))], max_arrows=80)


#: the rungs that a thin or free builder makes, each with its presentation
PRESENTATIONS = {
    "thin chain 10": (build_thin, lambda: thin_chain(10)),
    "thin chain 20": (build_thin, lambda: thin_chain(20)),
    "thin chain 40": (build_thin, lambda: thin_chain(40)),
    "staged free chain": (build_free, staged_free_chain),
}


def _built(build, presentation):
    return lambda: build(*presentation())


LADDER = {
    **{name: _built(*rung) for name, rung in PRESENTATIONS.items()},
    "transformation monoid": transformation_monoid,
}


@pytest.fixture
def count_arrows(monkeypatch):
    """The list of the ids of the Arrows the builders make from now on."""
    made = []

    def counting(*args, **kwargs):
        made.append(args[0])
        return Arrow(*args, **kwargs)

    monkeypatch.setattr(category_module, "Arrow", counting)
    return made


#: the attributes whose first read enumerates a thin or free category
ENUMERATED = ("arrows", "out_arrows", "table", "vectors")


@pytest.mark.parametrize("first", ENUMERATED)
@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_arrows_are_made_once_on_the_first_read_and_not_for_the_basis(name, first, count_arrows):
    # what validate and basis do with a thin or free document makes no arrow
    build, presentation = PRESENTATIONS[name]
    category = build(*presentation())
    assert atomic_basis(category) and count_arrows == []
    getattr(category, first)
    assert sorted(count_arrows) == sorted(category.arrows)
    made = len(count_arrows)
    for attribute in ENUMERATED:
        getattr(category, attribute)
    compute_norms(category, atomic_basis(category))
    assert len(count_arrows) == made == len(category.objects) + len(category.vectors)


@pytest.mark.parametrize("renamed", ["generator", "object"])
@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_a_thin_id_with_an_arrow_in_it_makes_no_arrow_in_the_builder(name, renamed, count_arrows):
    # a derived name can then be taken, so build_thin derives the names at
    # once, but makes no arrow; a free category's path names cannot collide
    build, presentation = PRESENTATIONS[name]
    objects, generators = presentation()
    if renamed == "generator":
        _, dom, cod = generators[0]
        generators[0] = ("%s->%s" % (dom, cod), dom, cod)
    else:
        new = {objects[0]: "->" + objects[0]}
        objects = [new.get(o, o) for o in objects]
        generators = [(gid, new.get(dom, dom), new.get(cod, cod)) for gid, dom, cod in generators]
    category = build(objects, generators)
    assert count_arrows == []
    for attribute in ENUMERATED:
        getattr(category, attribute)
    assert sorted(count_arrows) == sorted(category.arrows)
    assert len(count_arrows) == len(category.objects) + len(category.vectors)


@pytest.mark.parametrize(
    "objects, generators",
    [
        (COINCIDING_OBJECTS, COINCIDING_GENERATORS),
        (["x", "y", "z"], [("x->z", "x", "y"), ("g2", "y", "z")]),
    ],
    ids=["two derived names", "a generator"],
)
def test_a_taken_derived_name_is_refused_with_no_arrow_made(objects, generators, count_arrows):
    with pytest.raises(ParseError, match="which is already taken"):
        build_thin(objects, generators)
    assert count_arrows == []


@pytest.mark.parametrize("name", sorted(LADDER))
def test_compute_norms_looks_up_each_basis_arrow_leaving_each_reached_arrow_once(name):
    category = LADDER[name]()
    basis = atomic_basis(category)
    # the category copies a table given to it, so the counter goes on after
    category.table = counter = CountingTable(category.table)
    norms = compute_norms(category, basis)
    assert tuple(norms) == category.vectors  # the search reaches every arrow
    leaving = Counter(category.arrows[e].dom for e in basis)
    assert counter.lookups == sum(leaving[category.arrows[v].cod] for v in category.vectors) > 0


@pytest.mark.parametrize("explicit", [False, True], ids=["as built", "explicit copy"])
@pytest.mark.parametrize("name", sorted(LADDER))
def test_validate_axioms_looks_up_each_entry_once_and_each_unit_twice(name, explicit):
    category = LADDER[name]()
    if explicit:
        category = FiniteCategory(category.objects, category.arrows.values(), dict(category.table.items()), "explicit")
    category.table = counter = CountingTable(category.table)
    assert validate_axioms(category) == []
    arrows, out = category.arrows.values(), category.out_arrows
    # A arrows, P composable pairs and T composable triples: one lookup per
    # entry, two per arrow for the unit law, and on a triple that is not
    # skipped, g∘f once per pair and k∘g, (k∘g)∘f and k∘(g∘f) once each
    a = len(arrows)
    p = sum(len(out[f.cod]) for f in arrows)
    t = sum(len(out[g.cod]) for f in arrows for g in out[f.cod])
    if name.startswith("thin chain"):  # every hom-set has one arrow, so every triple is skipped
        assert counter.lookups == p + 2 * a
    else:
        assert counter.lookups <= 2 * p + 2 * a + 3 * t


def test_validate_axioms_checks_t4_through_its_three_generating_maps():
    # Light's test checks the triples whose middle arrow lies in a
    # generating set, of as many arrows as T4 has generating maps, where
    # the loop over every triple checks k³ ≈ 16.8 M.  One lookup per entry
    # and two per arrow for the unit law; one per reached arrow and
    # generator in the closure; and for each f and generator g, g∘f once
    # and three for each k
    category = t4()
    category.table = counter = CountingTable(category.table)
    assert validate_axioms(category) == []
    k, n = len(category.arrows), 3
    assert k == 256
    assert counter.lookups <= k * k + 2 * k + n * k + n * k * (1 + 3 * k)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_a_clean_explicit_load_reads_each_entry_once_outside_the_associativity_pass(name, monkeypatch):
    # the build reads the document's entries once, and no pair check reads
    # them again; the associativity pass runs once and may read more
    entries, passes = [], []

    def counting_build(objects, arrows, compositions):
        entries.append(CountingTable(compositions))
        category = build_explicit(objects, arrows, entries[0])
        entries.append(CountingTable(category.table))
        category.table = entries[1]
        return category

    check = documents._associativity_violations

    def counting_pass(*args, **kwargs):
        before = sum(table.lookups for table in entries)
        try:
            return check(*args, **kwargs)
        finally:
            passes.append(sum(table.lookups for table in entries) - before)

    monkeypatch.setattr(documents, "build_explicit", counting_build)
    monkeypatch.setattr(documents, "_associativity_violations", counting_pass)
    category = LADDER[name]()
    load_category(explicit_document(category))
    assert len(passes) == 1
    assert sum(table.lookups for table in entries) - passes[0] <= len(entries[0])


def near_pairs(category):
    """N: the ordered pairs (f, g) of vectors with g = f, or that compose in
    either order, counted over every pair."""
    arrows, vectors = category.arrows, category.vectors
    return sum(
        f == g or arrows[f].cod == arrows[g].dom or arrows[g].cod == arrows[f].dom for f in vectors for g in vectors
    )


class Discard:
    """A stdout that keeps nothing of what is written to it."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_anticommutator_table_runs_the_kernel_twice_per_near_pair(name, count_kernel_calls):
    # fg and gf of each near pair; the other rows are zero without the
    # kernel (in the monoid every pair composes, so every pair is near)
    category = LADDER[name]()
    norms = compute_norms(category, atomic_basis(category))
    calls = count_kernel_calls()
    assert sum(1 for _ in anticommutator_table(category, norms)) == len(category.vectors) ** 2
    assert len(calls) == 2 * near_pairs(category)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_table_json_runs_the_kernel_twice_per_near_pair(name, count_kernel_calls, monkeypatch):
    # the ladder is built in process, so the command loads it from there
    category = LADDER[name]()
    monkeypatch.setattr(cli, "_load", lambda path: category)
    monkeypatch.setattr("sys.stdout", Discard())
    calls = count_kernel_calls()
    assert cli.main(["table", "ladder.json", "--json"]) == 0
    assert len(calls) == 2 * near_pairs(category)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_text_table_formats_each_near_row_once(name, count_kernel_calls, monkeypatch):
    # format_terms writes the near rows only, and once the zero row that
    # each run of zero rows between them is joined from
    category = LADDER[name]()
    monkeypatch.setattr(cli, "_load", lambda path: category)
    monkeypatch.setattr("sys.stdout", Discard())
    formatted = []
    format_terms = render.format_terms

    def counting(scalar, terms):
        formatted.append(terms)
        return format_terms(scalar, terms)

    monkeypatch.setattr(render, "format_terms", counting)
    calls = count_kernel_calls()
    assert cli.main(["table", "ladder.json"]) == 0
    assert len(calls) == 2 * near_pairs(category)
    assert len(formatted) == near_pairs(category) + 1


@pytest.mark.parametrize("name", sorted(LADDER))
def test_clifford_report_runs_the_kernel_once_per_basis_arrow(name, count_kernel_calls):
    category = LADDER[name]()
    basis = atomic_basis(category)
    norms = compute_norms(category, basis)
    calls = count_kernel_calls()
    assert clifford_report(category, norms, basis).holds
    assert len(calls) == len(basis) > 0


@pytest.mark.parametrize("name", sorted(LADDER))
def test_distance_adds_each_vector_once_and_looks_up_the_arrows_leaving_cod_g(name, monkeypatch):
    # today's cost as a ceiling: g (+) l for every vector l, a lookup for
    # each l leaving cod g and none for g = O (item 1b of the roadmap walks
    # the arrows leaving cod g instead, and lowers the vec_add bound to 0)
    category = LADDER[name]()
    arrows, vectors = category.arrows, category.vectors
    norms = compute_norms(category, atomic_basis(category))
    category.table = counter = CountingTable(category.table)
    calls = []

    def counting(*args):
        calls.append(args)
        return vec_add(*args)

    monkeypatch.setattr("catgeo.vectors.vec_add", counting)
    rng = random.Random(6)
    for _ in range(50):
        f, g = rng.choice((ZERO, *vectors)), rng.choice((ZERO, *vectors))
        calls.clear()
        counter.lookups = 0
        try:
            distance(category, norms, f, g)
        except NoDifference:
            pass
        assert len(calls) <= len(vectors)
        assert counter.lookups == (0 if g is ZERO else sum(arrows[l].dom == arrows[g].cod for l in vectors))
