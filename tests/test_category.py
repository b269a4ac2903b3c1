import json
import random
import re

import pytest

from catgeo import (
    AxiomViolation,
    CatGeoError,
    CyclicGraph,
    NontrivialCycle,
    NotComposable,
    ParseError,
    build_explicit,
    build_free,
    build_thin,
    builtin_category,
    compose,
    load_category,
    parse_document,
    validate_axioms,
)
from catgeo.category import MAX_FREE_PATHS, FiniteCategory
from catgeo.documents import build_document

from helpers import oracle_validate_axioms, random_free, random_thin

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
        non_identity = po6.non_identity_arrows()
        assert len(non_identity) == 13
        identities = [a for a in po6.arrows.values() if a.is_identity]
        assert len(identities) == 6

    def test_single_object_no_generators(self):
        cat = build_thin(["a"], [])
        assert list(cat.arrows) == ["id:a"]

    def test_two_cycle_rejected(self):
        with pytest.raises(NontrivialCycle):
            build_thin(["a", "b"], [("f", "a", "b"), ("g", "b", "a")])

    def test_self_loop_rejected(self):
        with pytest.raises(NontrivialCycle):
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

    def test_generator_named_like_its_own_pair_kept(self):
        cat = build_thin(["x", "y", "z"], [("x->y", "x", "y"), ("g2", "y", "z")])
        assert sorted(cat.non_identity_arrows()) == ["g2", "x->y", "x->z"]
        assert validate_axioms(cat) == []

    def test_two_generators_on_one_pair_rejected(self):
        with pytest.raises(ParseError, match="e1.*e2"):
            build_thin(["x", "y"], [("e1", "x", "y"), ("e2", "x", "y")])


class TestBuildFree:
    def test_path_graph(self):
        cat = build_free(["x", "y", "z"], [("p", "x", "y"), ("q", "y", "z")])
        assert sorted(cat.non_identity_arrows()) == sorted(["p", "q", "q∘p"])

    def test_parallel_edges(self):
        cat = build_free(["a", "b"], [("u", "a", "b"), ("v", "a", "b")])
        assert sorted(cat.non_identity_arrows()) == ["u", "v"]

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
        assert len(cat.non_identity_arrows()) == 11


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
        assert len(build_free(objects, gens).non_identity_arrows()) == MAX_FREE_PATHS
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
        def c3(b_after_a):
            return json.dumps(
                {
                    "mode": "explicit",
                    "objects": ["o"],
                    "arrows": [{"id": "a", "dom": "o", "cod": "o"}, {"id": "b", "dom": "o", "cod": "o"}],
                    "compositions": [
                        {"f": "a", "g": "a", "result": "b"},
                        {"f": "a", "g": "b", "result": b_after_a},
                        {"f": "b", "g": "a", "result": "id:o"},
                        {"f": "b", "g": "b", "result": "a"},
                    ],
                }
            )

        group = load_category(c3("id:o"))
        assert validate_axioms(group) == oracle_validate_axioms(group) == []

        broken = build_document(parse_document(c3("a")))
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


def test_builtin_po6_matches_direct_build(po6):
    built = builtin_category("po6")
    assert sorted(built.non_identity_arrows()) == sorted(po6.non_identity_arrows())
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
