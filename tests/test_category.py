import gc
import json
import random
import re
import weakref

import pytest

from catgeo import (
    AxiomViolation,
    CatGeoError,
    CyclicGraph,
    NotComposable,
    ParseError,
    anticommutator_table,
    atomic_basis,
    build_explicit,
    build_free,
    build_thin,
    builtin_category,
    clifford_report,
    compose,
    compute_norms,
    load_category,
    validate_axioms,
)
from catgeo.category import MAX_FREE_PATHS, FiniteCategory
from catgeo.documents import CategoryDocument, document_to_json

from helpers import (
    COINCIDING_GENERATORS,
    COINCIDING_OBJECTS,
    _closure,
    oracle_build_free,
    oracle_build_thin,
    oracle_validate_axioms,
    random_free,
    random_presentation,
    random_thin,
)

PO6_OBJECTS = ["a0", "a1", "a2", "a3", "a4", "a5"]
PO6_GENERATORS = [
    ("e1", "a0", "a1"),
    ("e2", "a0", "a2"),
    ("e3", "a1", "a3"),
    ("e4", "a2", "a4"),
    ("e5", "a3", "a4"),
    ("e6", "a4", "a5"),
]


@pytest.fixture(scope="module")
def po6():
    return build_thin(PO6_OBJECTS, PO6_GENERATORS)


class TestBuildThin:
    def test_po6_arrow_counts(self, po6):
        # hand reachability closure: 13 ordered pairs have a nonempty path
        non_identity = po6.vectors
        assert len(non_identity) == 13
        identities = [a for a in po6.arrows.values() if a.is_identity]
        assert len(identities) == 6

    def test_single_object_no_generators(self):
        cat = build_thin(["a"], [])
        assert list(cat.arrows) == ["id:a"]

    def test_two_cycle_rejected(self):
        with pytest.raises(CyclicGraph):
            build_thin(["a", "b"], [("f", "a", "b"), ("g", "b", "a")])

    def test_self_loop_rejected(self):
        with pytest.raises(CyclicGraph):
            build_thin(["a"], [("f", "a", "a")])

    def test_at_most_one_arrow_per_pair(self, po6):
        pairs = [(a.dom, a.cod) for a in po6.arrows.values() if not a.is_identity]
        assert len(pairs) == len(set(pairs))

    def test_generator_ids_are_kept(self, po6):
        assert "e1" in po6.arrows
        assert po6.arrows["e1"].dom == "a0"

    def test_derived_arrows_use_canonical_names(self, po6):
        assert "a0->a4" in po6.arrows
        assert po6.arrows["a0->a4"].cod == "a4"

    def test_generator_named_like_another_pair_rejected(self):
        # the derived x -> z arrow would take the name of the generator x -> y
        with pytest.raises(ParseError, match="x->z"):
            build_thin(["x", "y", "z"], [("x->z", "x", "y"), ("g2", "y", "z")])

    def test_two_derived_arrows_with_one_name_rejected(self):
        # p -> q->r and p->q -> r are both derived, and both named p->q->r
        objects, generators = COINCIDING_OBJECTS, COINCIDING_GENERATORS
        with pytest.raises(ParseError) as info:
            build_thin(objects, generators)
        assert str(info.value) == "derived arrow p->q -> r would be named 'p->q->r', which is already taken"
        with pytest.raises(ParseError):
            oracle_build_thin(objects, generators)

    def test_generator_named_like_its_own_pair_kept(self):
        cat = build_thin(["x", "y", "z"], [("x->y", "x", "y"), ("g2", "y", "z")])
        assert sorted(cat.vectors) == ["g2", "x->y", "x->z"]
        assert validate_axioms(cat) == []

    def test_two_generators_on_one_pair_rejected(self):
        with pytest.raises(ParseError, match="e1.*e2"):
            build_thin(["x", "y"], [("e1", "x", "y"), ("e2", "x", "y")])

    def test_long_cycle_rejected_without_recursion(self):
        n = 1200
        objects = ["o%d" % i for i in range(n)]
        gens = [("g%d" % i, objects[i], objects[(i + 1) % n]) for i in range(n)]
        with pytest.raises(CyclicGraph):
            build_thin(objects, gens)

    @pytest.mark.parametrize("n", [1100, 5000])
    def test_arrow_budget_refused_before_enumeration(self, n):
        # a chain of n objects has n(n-1)/2 arrows a -> b with a before b
        objects = ["o%d" % i for i in range(n)]
        gens = [("g%d" % i, objects[i], objects[i + 1]) for i in range(n - 1)]
        with pytest.raises(CatGeoError, match="thin category would have more than %d arrows" % MAX_FREE_PATHS):
            build_thin(objects, gens)

    def test_arrow_budget_is_inclusive(self):
        # one object before MAX_FREE_PATHS others: one arrow per edge
        objects = ["s"] + ["t%d" % i for i in range(MAX_FREE_PATHS)]
        gens = [("g%d" % i, "s", t) for i, t in enumerate(objects[1:])]
        assert len(build_thin(objects, gens).vectors) == MAX_FREE_PATHS
        with pytest.raises(CatGeoError):
            build_thin(objects + ["t"], gens + [("extra", "s", "t")])


@pytest.mark.parametrize(
    "build",
    [build_thin, build_free, lambda objects, arrows: build_explicit(objects, arrows, {})],
    ids=["thin", "free", "explicit"],
)
@pytest.mark.parametrize(
    "objects, generators, message",
    [
        (["a", "a"], [], "duplicate object ids"),
        ([""], [], "bad object id ''"),
        (["id:x"], [], "bad object id 'id:x'"),
        (["a", "b"], [("", "a", "b")], "bad generator id ''"),
        (["a", "b"], [("id:a", "a", "b")], "bad generator id 'id:a'"),
        (["a", "b"], [("e", "a", "b"), ("e", "a", "b")], "duplicate generator id 'e'"),
        (["a", "b"], [("e", "a", "c")], "generator 'e' has undeclared endpoint"),
    ],
)
def test_every_builder_checks_the_presentation(build, objects, generators, message):
    with pytest.raises(ParseError) as info:
        build(objects, generators)
    assert str(info.value) == message


class TestBuildFree:
    def test_generator_id_with_the_separator_rejected(self):
        with pytest.raises(ParseError) as info:
            build_free(["a", "b"], [("p∘q", "a", "b")])
        assert str(info.value) == "generator id 'p∘q' contains the reserved separator"

    def test_path_graph(self):
        cat = build_free(["x", "y", "z"], [("p", "x", "y"), ("q", "y", "z")])
        assert sorted(cat.vectors) == sorted(["p", "q", "q∘p"])

    def test_parallel_edges(self):
        cat = build_free(["a", "b"], [("u", "a", "b"), ("v", "a", "b")])
        assert sorted(cat.vectors) == ["u", "v"]

    def test_self_loop_rejected(self):
        with pytest.raises(CyclicGraph):
            build_free(["a"], [("f", "a", "a")])

    def test_longer_cycle_rejected(self):
        with pytest.raises(CyclicGraph):
            build_free(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c"), ("h", "c", "a")])

    def test_path_count_matches_enumeration(self):
        # diamond with a tail: count nonempty paths by hand
        gens = [("p", "a", "b"), ("q", "a", "c"), ("r", "b", "d"), ("s", "c", "d"), ("t", "d", "e")]
        cat = build_free(["a", "b", "c", "d", "e"], gens)
        # single edges: 5; length 2: pr, qs, rt, st; length 3: prt, qst
        assert len(cat.vectors) == 11


    def test_long_cycle_rejected_without_recursion(self):
        n = 1200
        objects = ["o%d" % i for i in range(n)]
        gens = [("g%d" % i, objects[i], objects[(i + 1) % n]) for i in range(n)]
        with pytest.raises(CyclicGraph):
            build_free(objects, gens)

    def test_path_budget_refused_before_enumeration(self):
        # a chain of n objects has n(n-1)/2 nonempty paths
        n = 1100
        objects = ["o%d" % i for i in range(n)]
        gens = [("g%d" % i, objects[i], objects[i + 1]) for i in range(n - 1)]
        with pytest.raises(CatGeoError, match=str(n * (n - 1) // 2)):
            build_free(objects, gens)

    def test_path_budget_is_inclusive(self):
        # one object fanning out to MAX_FREE_PATHS targets: one path per edge
        objects = ["s"] + ["t%d" % i for i in range(MAX_FREE_PATHS)]
        gens = [("g%d" % i, "s", t) for i, t in enumerate(objects[1:])]
        assert len(build_free(objects, gens).vectors) == MAX_FREE_PATHS
        with pytest.raises(CatGeoError):
            build_free(objects + ["t"], gens + [("extra", "s", "t")])


class TestCompose:
    def test_po6_compose_generators(self, po6):
        assert compose(po6, "e2", "e4") == "a0->a4"

    def test_unit_law(self, po6):
        assert compose(po6, "id:a0", "e1") == "e1"
        assert compose(po6, "e1", "id:a1") == "e1"

    def test_not_composable(self, po6):
        with pytest.raises(NotComposable):
            compose(po6, "e1", "e2")


class TestValidateAxioms:
    def test_po6_valid(self, po6):
        assert validate_axioms(po6) == []

    def test_free_path_valid(self):
        cat = build_free(["x", "y", "z"], [("p", "x", "y"), ("q", "y", "z")])
        assert validate_axioms(cat) == []

    def test_redirected_composite_reported(self, po6):
        table = dict(po6.table)
        table[("e2", "e4")] = "a0->a3"  # wrong codomain
        corrupted = FiniteCategory(po6.objects, po6.arrows.values(), table, "explicit")
        report = validate_axioms(corrupted)
        assert any(v.kind == "dom-cod" for v in report)

    def test_removed_unit_entry_reported(self, po6):
        table = dict(po6.table)
        del table[("id:a0", "e1")]
        corrupted = FiniteCategory(po6.objects, po6.arrows.values(), table, "explicit")
        report = validate_axioms(corrupted)
        assert any(v.kind in ("unit", "totality") for v in report)

    def test_associativity_breakage_reported(self, po6):
        # redirect (e1, e3) to another arrow of the same type: none exists in a
        # thin category, so reroute ("a0->a3") to a parallel-typed arrow by
        # violating dom/cod instead; check a pure associativity break on a
        # custom table where types still line up.
        table = dict(po6.table)
        table[("e2", "a2->a5")] = "a0->a4"  # type-correct target would be a0->a5
        corrupted = FiniteCategory(po6.objects, po6.arrows.values(), table, "explicit")
        report = validate_axioms(corrupted)
        assert report  # dom/cod breaks, and associativity checks still run

    # once the pair and unit checks pass, associativity is checked only on
    # triples of non-identity arrows whose ends have several arrows between
    # them; these lists must still be the all-pairs oracle's, order included

    def test_wrong_type_entry_runs_every_triple(self, po6):
        table = dict(po6.table)
        table[("e2", "e4")] = "a0->a3"  # type a0->a3, expected a0->a4
        corrupted = FiniteCategory(po6.objects, po6.arrows.values(), table, "explicit")
        report = validate_axioms(corrupted)
        assert [str(v) for v in report] == [
            "dom-cod: (e2, e4) -> a0->a3 has type a0->a3, expected a0->a4",
            "associativity: (e2, e4, id:a4): None != a0->a3",
            "associativity: (e2, e4, e6): None != a0->a5",
        ]
        assert report == oracle_validate_axioms(corrupted)

    def test_swap_inside_a_parallel_hom_set(self):
        cat = build_free(["a", "b", "c", "d"], [("u", "a", "b"), ("v", "a", "b"), ("w", "b", "c"), ("z", "c", "d")])
        table = dict(cat.table)
        table[("u", "w")] = "w∘v"  # the other arrow a -> c
        corrupted = FiniteCategory(cat.objects, cat.arrows.values(), table, "explicit")
        report = validate_axioms(corrupted)
        assert [str(v) for v in report] == ["associativity: (u, w, z): z∘w∘v != z∘w∘u"]
        assert report == oracle_validate_axioms(corrupted)

    def test_cyclic_group_of_order_three(self):
        # a generates {id, a, b = a∘a}: one three-arrow hom-set, so every
        # triple of non-identity arrows is checked
        def c3_table(b_after_a):
            return {("a", "a"): "b", ("a", "b"): b_after_a, ("b", "a"): "id:o", ("b", "b"): "a"}

        def c3(b_after_a):
            return json.dumps(
                {
                    "mode": "explicit",
                    "objects": ["o"],
                    "arrows": [{"id": "a", "dom": "o", "cod": "o"}, {"id": "b", "dom": "o", "cod": "o"}],
                    "compositions": [
                        {"f": f, "g": g, "result": result} for (f, g), result in c3_table(b_after_a).items()
                    ],
                }
            )

        group = load_category(c3("id:o"))
        assert validate_axioms(group) == oracle_validate_axioms(group) == []

        broken = build_explicit(["o"], [("a", "o", "o"), ("b", "o", "o")], c3_table("a"))
        report = validate_axioms(broken)
        assert [str(v) for v in report] == [
            "associativity: (a, a, a): id:o != a",
            "associativity: (a, a, b): a != b",
            "associativity: (a, b, a): b != a",
            "associativity: (a, b, b): a != b",
            "associativity: (b, a, b): b != id:o",
            "associativity: (b, b, b): a != id:o",
        ]
        assert report == oracle_validate_axioms(broken)
        with pytest.raises(AxiomViolation):
            load_category(c3("a"))

    def test_entry_for_unknown_arrow(self, po6):
        table = dict(po6.table)
        table[("ghost", "e1")] = "e3"
        corrupted = FiniteCategory(po6.objects, po6.arrows.values(), table, "explicit")
        report = validate_axioms(corrupted)
        assert [str(v) for v in report] == ["closure: entry (ghost, e1) for unknown arrow 'ghost'"]
        assert report == oracle_validate_axioms(corrupted)

    def test_unknown_arrow_entries_follow_the_pair_checks(self, po6):
        # in table order, after the pair runs of the known arrows (here
        # id:a4's missing entry and e5's non-composable one) and before the
        # unit run
        table = dict(po6.table)
        table[("e5", "ghost")] = "e6"
        table[("e5", "e1")] = "e6"
        table[("ghost", "phantom")] = "e1"
        del table[("id:a4", "e6")]
        corrupted = FiniteCategory(po6.objects, po6.arrows.values(), table, "explicit")
        report = validate_axioms(corrupted)
        assert [str(v) for v in report] == [
            "totality: missing entry (id:a4, e6)",
            "closure: entry (e5, e1) for non-composable pair",
            "closure: entry (e5, ghost) for unknown arrow 'ghost'",
            "closure: entry (ghost, phantom) for unknown arrow 'ghost'",
            "unit: e6 ∘ id_a4 = None, expected e6",
        ]
        assert report == oracle_validate_axioms(corrupted)


    # one composable entry gone and one stray entry added leave the table
    # with as many entries as there are composable pairs; the stray must
    # still be found, whatever it maps to
    @pytest.mark.parametrize("stray_result", ["e1", None])
    @pytest.mark.parametrize("stray", [("e6", "e1"), ("id:a0", "e6"), ("ghost", "e1"), ("e5", "ghost")])
    @pytest.mark.parametrize("missing", [("e1", "e3"), ("id:a4", "e6")])
    def test_stray_entry_in_a_table_of_the_composable_size(self, po6, missing, stray, stray_result):
        composable = sum(len(po6.out_arrows[f.cod]) for f in po6.arrows.values())
        table = dict(po6.table)
        assert len(table) == composable
        del table[missing]
        table[stray] = stray_result
        assert len(table) == composable
        corrupted = FiniteCategory(po6.objects, po6.arrows.values(), table, "explicit")
        report = validate_axioms(corrupted)
        assert "totality: missing entry (%s, %s)" % missing in [str(v) for v in report]
        assert any(v.kind == "closure" and "entry (%s, %s)" % stray in v.detail for v in report)
        assert report == oracle_validate_axioms(corrupted)

    def test_none_valued_entries(self, po6):
        # a composable entry mapped to None exists, so it names an unknown
        # arrow rather than being missing, and a stray one is a stray, in a
        # table of the composable size
        table = dict(po6.table)
        table[("e1", "e3")] = None
        table[("e3", "e1")] = None
        del table[("e2", "e4")]
        corrupted = FiniteCategory(po6.objects, po6.arrows.values(), table, "explicit")
        report = validate_axioms(corrupted)
        assert [str(v) for v in report] == [
            "dom-cod: entry (e1, e3) names unknown arrow None",
            "totality: missing entry (e2, e4)",
            "closure: entry (e3, e1) for non-composable pair",
        ]
        assert report == oracle_validate_axioms(corrupted)


@pytest.mark.parametrize(
    "build, oracle, seed", [(build_thin, oracle_build_thin, 11), (build_free, oracle_build_free, 12)]
)
def test_builder_matches_naive_oracle(build, oracle, seed):
    # the arrows in order and the table as a mapping, or the same error class
    rng = random.Random(seed)
    built, refused = 0, 0
    for _ in range(600):
        objects, generators = random_presentation(rng)
        try:
            arrows, table = oracle(objects, generators)
        except (ParseError, CyclicGraph) as exc:
            with pytest.raises(type(exc)) as refusal:
                build(objects, generators)
            if isinstance(exc, CyclicGraph):
                # the object the message names reaches itself
                named = re.fullmatch("directed cycle through (.*)", str(refusal.value)).group(1)
                assert any(named == repr(o) and o in reach for o, reach in _closure(objects, generators).items())
            refused += 1
            continue
        cat = build(objects, generators)
        assert list(cat.arrows.values()) == arrows
        assert cat.table == table
        # no check at load time backs these up: each built category must
        # satisfy the axioms by construction
        assert validate_axioms(cat) == []
        built += 1
    assert built > 250 and refused > 150


def test_thin_and_free_refuse_a_cycle_with_one_error():
    for build in (build_thin, build_free):
        with pytest.raises(CyclicGraph, match="^directed cycle through 'a'$"):
            build(["a", "b"], [("f", "a", "b"), ("g", "b", "a")])


@pytest.mark.parametrize("build", [build_thin, build_free])
def test_table_holds_the_arrow_ids_themselves(build):
    # one string per arrow, however many entries name it: a chain of n
    # objects has about n³/6 table entries
    objects = ["o%d" % i for i in range(8)]
    cat = build(objects, [("g%d" % i, a, b) for i, (a, b) in enumerate(zip(objects, objects[1:]))])
    assert len(cat.table) > 100
    assert all(result is cat.arrows[result].id for result in cat.table.values())


class TestRuleTables:
    # a thin or free category's table is a read-only view computed from
    # its arrows; it must behave as the dict of its entries would

    @pytest.fixture(params=["thin", "free"])
    def cat(self, request, po6):
        if request.param == "thin":
            return po6
        return build_free(["a", "b", "c", "d"], [("u", "a", "b"), ("v", "a", "b"), ("w", "b", "c"), ("z", "c", "d")])

    def test_get_default_for_unknown_and_non_composable_keys(self, cat):
        f = next(a for a in cat.arrows.values() if not a.is_identity)
        stray = next(g for g in cat.arrows.values() if g.dom != f.cod)
        for key in [("ghost", f.id), (f.id, "ghost"), (f.id, stray.id)]:
            assert cat.table.get(key) is None
            assert cat.table.get(key, "default") == "default"
            assert key not in cat.table

    @pytest.mark.parametrize("key", ["e1", ("e1",), ("e1", "e3", "e5"), ["e1", "e3"], None, 7])
    def test_get_default_for_keys_that_are_not_pairs(self, po6, key):
        assert po6.table.get(key, "default") == "default"
        assert key not in po6.table

    def test_a_two_letter_string_is_not_a_pair(self):
        cat = builtin_category("path3")  # arrows p: x -> y and q: y -> z
        assert cat.table[("p", "q")] == "q∘p"
        assert cat.table.get("pq") is None and "pq" not in cat.table

    def test_missing_key_raises_key_error(self, cat):
        f = next(a for a in cat.arrows.values() if not a.is_identity)
        for key in [("ghost", f.id), (f.id, f.id), "not a pair"]:
            with pytest.raises(KeyError):
                cat.table[key]

    def test_length_counts_the_composable_pairs(self, cat):
        assert len(cat.table) == sum(len(cat.out_arrows[f.cod]) for f in cat.arrows.values())

    def test_iteration_yields_exactly_the_composable_pairs(self, cat):
        arrows = list(cat.arrows.values())
        composable = [(f.id, g.id) for f in arrows for g in arrows if f.cod == g.dom]
        assert sorted(cat.table) == sorted(composable)
        assert len(list(cat.table)) == len(set(cat.table)) == len(cat.table)
        assert all(cat.table[key] in cat.arrows for key in cat.table)

    def test_read_only(self, cat):
        key = next(iter(cat.table))
        with pytest.raises(TypeError):
            cat.table[key] = key[0]
        with pytest.raises(TypeError):
            del cat.table[key]
        assert key in cat.table


_PATH = CategoryDocument(
    "explicit", ["x", "y", "z"], [("p", "x", "y"), ("q", "y", "z"), ("r", "x", "z")], [("p", "q", "r")]
)


ENUMERATED = ["arrows", "out_arrows", "table", "vectors"]


def _enumerated(category):
    """The attributes of ENUMERATED that the category holds."""
    return [name for name in ENUMERATED if name in vars(category)]


class TestDeferredEnumeration:
    """A thin or free builder checks the presentation and records the basis;
    the arrows, indexes and table wait for their first read."""

    BUILDS = {
        "thin": lambda: build_thin(PO6_OBJECTS, PO6_GENERATORS),
        "free": lambda: build_free(["a", "b", "c"], [("u", "a", "b"), ("v", "a", "b"), ("w", "b", "c")]),
    }

    @pytest.mark.parametrize("mode", sorted(BUILDS))
    @pytest.mark.parametrize("first", ENUMERATED)
    def test_the_first_read_leaves_a_plain_category(self, mode, first, monkeypatch):
        # the first read runs the one constructor once, on the category
        # the builder returned; building and the basis run it not at all
        constructed = []
        init = FiniteCategory.__init__

        def recording(self, *args):
            constructed.append(self)
            init(self, *args)

        monkeypatch.setattr(FiniteCategory, "__init__", recording)
        cat = self.BUILDS[mode]()
        assert atomic_basis(cat) == cat.basis and _enumerated(cat) == []
        assert constructed == []
        getattr(cat, first)
        for name in ENUMERATED:
            getattr(cat, name)
        assert len(constructed) == 1 and constructed[0] is cat
        # a plain FiniteCategory, so no later read passes through a hook,
        # holding what the constructor sets and nothing more
        assert type(cat) is FiniteCategory
        plain = FiniteCategory(cat.objects, cat.arrows.values(), {}, cat.mode, cat.basis)
        assert sorted(vars(cat)) == sorted(vars(plain))

    @pytest.mark.parametrize("mode", sorted(BUILDS))
    def test_an_attribute_assigned_before_the_first_read_keeps_its_value(self, mode):
        # FiniteCategory's attributes can be reassigned, before any read too
        cat = self.BUILDS[mode]()
        cat.table = table = {}
        cat.basis = basis = ("x",)
        assert len(cat.vectors) == len(self.BUILDS[mode]().vectors)
        assert cat.table is table and cat.basis is basis
        assert type(cat) is FiniteCategory

    @pytest.mark.parametrize("mode", sorted(BUILDS))
    def test_repr_enumerates_nothing(self, mode):
        # the arrow count comes from the presentation pass
        cat, enumerated = self.BUILDS[mode](), self.BUILDS[mode]()
        enumerated.arrows
        assert repr(cat) == repr(enumerated)
        assert _enumerated(cat) == [] and type(cat) is not FiniteCategory
        # an arrows dict assigned before the first read is the one counted
        cat.arrows = {}
        assert repr(cat) == "FiniteCategory(mode=%r, objects=%d, arrows=0)" % (mode, len(cat.objects))

    @pytest.mark.parametrize("mode", sorted(BUILDS))
    def test_a_missing_attribute_enumerates_nothing(self, mode):
        cat = self.BUILDS[mode]()
        assert not hasattr(cat, "nope")
        with pytest.raises(AttributeError, match="'FiniteCategory' object has no attribute 'nope'"):
            cat.nope
        assert _enumerated(cat) == [] and type(cat) is not FiniteCategory


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_thin(PO6_OBJECTS, PO6_GENERATORS),
        lambda: build_free(["a", "b", "c"], [("u", "a", "b"), ("v", "a", "b"), ("w", "b", "c")]),
        lambda: build_explicit(_PATH.objects, _PATH.arrows, {("p", "q"): "r"}),
        lambda: builtin_category("po6"),
        lambda: builtin_category("path3"),
        lambda: load_category(document_to_json(_PATH)),
    ],
    ids=["thin", "free", "explicit", "load-thin", "load-free", "load-explicit"],
)
@pytest.mark.parametrize("read", [True, False], ids=["read", "never read"])
def test_a_category_is_freed_without_the_cycle_collector(make, read):
    # a rule table holds the category's arrows and indexes, not the category,
    # and a thin or free category never read holds its presentation only:
    # a reference cycle would keep every category alive until gc ran
    enabled = gc.isenabled()
    gc.disable()
    try:
        cat = make()
        if read:
            norms = compute_norms(cat, atomic_basis(cat))
            clifford_report(cat, norms, atomic_basis(cat))
            assert sum(1 for _ in anticommutator_table(cat, norms)) == len(cat.vectors) ** 2
        else:
            assert atomic_basis(cat)
        freed = weakref.ref(cat)
        del cat
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def test_builtin_po6_matches_direct_build(po6):
    built = builtin_category("po6")
    assert sorted(built.vectors) == sorted(po6.vectors)
    assert built.table == po6.table


def _explicit_presentation(cat):
    """Objects, non-identity arrows and non-identity table of a category."""
    arrows = [(a.id, a.dom, a.cod) for a in cat.arrows.values() if not a.is_identity]
    ids = {aid for aid, _, _ in arrows}
    table = {(f, g): r for (f, g), r in cat.table.items() if f in ids and g in ids}
    return cat.objects, arrows, table


class TestBuildExplicitErrors:
    # the pair named must be the least offending pair, as the all-pairs
    # comparison of every arrow with every arrow found it

    def test_missing_entry_names_the_first_missing_pair(self):
        rng = random.Random(4)
        checked = 0
        for i in range(100):
            objects, arrows, table = _explicit_presentation((random_thin if i % 2 else random_free)(rng))
            required = {(f, g) for f, _, cod in arrows for g, dom, _ in arrows if cod == dom}
            assert set(table) == required
            if not table:
                continue
            dropped = rng.sample(sorted(table), min(3, len(table)))
            partial = {pair: r for pair, r in table.items() if pair not in dropped}
            with pytest.raises(ParseError, match=re.escape("missing entry %s" % (min(dropped),))):
                build_explicit(objects, arrows, partial)
            checked += 1
        assert checked > 30

    def test_stray_entry_names_the_first_stray_pair(self):
        rng = random.Random(5)
        checked = 0
        for i in range(100):
            objects, arrows, table = _explicit_presentation((random_thin if i % 2 else random_free)(rng))
            ids = [aid for aid, _, _ in arrows]
            strays = [(f, g) for f, _, cod in arrows for g, dom, _ in arrows if cod != dom]
            strays += [("id:%s" % objects[0], g) for g in ids] + [(f, "ghost") for f in ids]
            if not strays:
                continue
            added = rng.sample(strays, min(3, len(strays)))
            with pytest.raises(ParseError, match=re.escape("entry %s is not a composable" % (min(added),))):
                build_explicit(objects, arrows, {**table, **dict.fromkeys(added, ids[0])})
            checked += 1
        assert checked > 30

    def test_entry_naming_an_unknown_arrow(self):
        # a document cannot say this, as the parser refuses the name first
        with pytest.raises(ParseError) as info:
            build_explicit(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], {("f", "g"): "ghost"})
        assert str(info.value) == "composition ('f', 'g') names unknown arrow 'ghost'"

    def test_extra_entry_is_reported_before_a_missing_one(self):
        # (g, f) does not compose and (f, g) has no entry
        with pytest.raises(ParseError) as info:
            build_explicit(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], {("g", "f"): "f"})
        assert str(info.value) == "composition entry ('g', 'f') is not a composable non-identity pair"
