import re

import pytest

from catgeo import (
    ZERO,
    NoDifference,
    NotComposable,
    NotGenerated,
    UnknownArrow,
    atomic_basis,
    build_free,
    build_thin,
    builtin_category,
    clifford_report,
    compose,
    compute_norms,
    distance,
    export_dot,
    inner,
    vec_add,
)

from helpers import cyclic_categories, oracle_atomic_basis, oracle_word_norms


@pytest.fixture(scope="module")
def po6():
    return builtin_category("po6")


@pytest.fixture(scope="module")
def po6_norms(po6):
    return compute_norms(po6, atomic_basis(po6))


class TestVecAdd:
    def test_composable_pair(self, po6):
        assert vec_add(po6, "e2", "e4") == "a0->a4"

    def test_zero_is_left_unit(self, po6):
        for f in po6.vectors:
            assert vec_add(po6, ZERO, f) == f

    def test_zero_is_right_unit(self, po6):
        for f in po6.vectors:
            assert vec_add(po6, f, ZERO) == f

    def test_zero_plus_zero(self, po6):
        assert vec_add(po6, ZERO, ZERO) is ZERO

    def test_undefined_for_non_composable(self, po6):
        with pytest.raises(NotComposable):
            vec_add(po6, "e1", "e2")

    def test_associative_where_defined(self, po6):
        vectors = po6.vectors
        for f in vectors:
            for g in vectors:
                if po6.arrows[f].cod != po6.arrows[g].dom:
                    continue
                for k in vectors:
                    if po6.arrows[g].cod != po6.arrows[k].dom:
                        continue
                    lhs = vec_add(po6, vec_add(po6, f, g), k)
                    rhs = vec_add(po6, f, vec_add(po6, g, k))
                    assert lhs == rhs


@pytest.mark.parametrize(
    "function, f, g, error, named",
    [
        (vec_add, "nope", "e4", UnknownArrow, "nope"),
        (vec_add, "e2", "nope", UnknownArrow, "nope"),
        (vec_add, ZERO, "nope", UnknownArrow, "nope"),
        (vec_add, "id:a0", "e1", UnknownArrow, "id:a0"),
        (vec_add, "e1", "id:a1", UnknownArrow, "id:a1"),
        (vec_add, "e1", "e2", NotComposable, "e2"),
        (compose, "nope", "e4", UnknownArrow, "nope"),
        (compose, "e2", "nope", UnknownArrow, "nope"),
        (compose, "e1", "e2", NotComposable, "e2"),
        (compose, "id:a1", "e2", NotComposable, "id:a1"),
        (lambda category, f, g: compute_norms(category, [f, g]), "e1", "nope", UnknownArrow, "nope"),
        (lambda category, f, g: compute_norms(category, [f, g]), "e1", ZERO, UnknownArrow, "zero vector O"),
        (lambda category, f, g: clifford_report(category, _norms(category), [f]), ZERO, None, UnknownArrow, "zero vector O"),
        (vec_add, ("e1", "e2"), "e4", UnknownArrow, "('e1', 'e2')"),
        (compose, "e2", ("e1", "e2"), UnknownArrow, "('e1', 'e2')"),
        (lambda category, f, g: inner(category, _norms(category), f, g), ("e1",), "e4", UnknownArrow, "('e1',)"),
        (lambda category, f, g: compute_norms(category, f), "e1", None, UnknownArrow, "'e1'"),
        (lambda category, f, g: compute_norms(category, f), None, None, UnknownArrow, "None"),
        (lambda category, f, g: compute_norms(category, f), 5, None, UnknownArrow, "5"),
        (lambda category, f, g: clifford_report(category, _norms(category), f), "e1", None, UnknownArrow, "'e1'"),
        (lambda category, f, g: clifford_report(category, _norms(category), f), None, None, UnknownArrow, "None"),
        (lambda category, f, g: clifford_report(category, _norms(category), f), 5, None, UnknownArrow, "5"),
        (lambda category, f, g: export_dot(category, f), "e1", None, UnknownArrow, "'e1'"),
        (lambda category, f, g: export_dot(category, f), 5, None, UnknownArrow, "5"),
        (lambda category, f, g: export_dot(category, f), ["nope"], None, UnknownArrow, "'nope'"),
        (lambda category, f, g: export_dot(category, f), ["id:a0"], None, UnknownArrow, "'id:a0'"),
        (lambda category, f, g: export_dot(category, f), [ZERO], None, UnknownArrow, "zero vector O"),
    ],
)
def test_argument_errors(po6, function, f, g, error, named):
    # unknown ids and, for vectors, identities are rejected before composability;
    # compute_norms, clifford_report and export_dot read the basis or arrow
    # list they are given through one reader, which refuses a str or a
    # non-iterable in its place and O, an identity or an unknown id in it;
    # export_dot's None is its default, every arrow; the message names the
    # argument by its repr
    with pytest.raises(error, match=re.escape(named)):
        function(po6, f, g)


def _norms(category):
    return compute_norms(category, atomic_basis(category))


class TestAtomicBasis:
    def test_po6_basis(self, po6):
        assert atomic_basis(po6) == ("e1", "e2", "e3", "e4", "e5", "e6")

    def test_free_path(self):
        cat = build_free(["x", "y", "z"], [("p", "x", "y"), ("q", "y", "z")])
        assert atomic_basis(cat) == ("p", "q")

    def test_single_arrow(self):
        cat = build_thin(["a", "b"], [("f", "a", "b")])
        assert atomic_basis(cat) == ("f",)

    def test_shortcut_generator_is_not_atomic(self):
        # a direct edge a->c next to a path a->b->c: the a->c arrow is composite
        cat = build_thin(["a", "b", "c"], [("direct", "a", "c"), ("p", "a", "b"), ("q", "b", "c")])
        assert atomic_basis(cat) == ("p", "q")
        # so is a -> d beside a -> b -> c -> d, while a -> e, whose target
        # no other generator from a leads to, stays atomic
        generators = [("ad", "a", "d"), ("ab", "a", "b"), ("bc", "b", "c"), ("cd", "c", "d"), ("ae", "a", "e")]
        cat = build_thin(["a", "b", "c", "d", "e"], generators)
        assert atomic_basis(cat) == ("ab", "ae", "bc", "cd")
        assert atomic_basis(cat) == oracle_atomic_basis(cat)


class TestNorms:
    def test_po6_paper_values(self, po6_norms):
        assert po6_norms["a0->a4"] == 2
        assert po6_norms["a0->a5"] == 3
        assert po6_norms["a0->a3"] == 2
        assert po6_norms["a1->a4"] == 2

    def test_basis_members_have_norm_one(self, po6, po6_norms):
        basis = atomic_basis(po6)
        for arrow in po6.vectors:
            assert (po6_norms[arrow] == 1) == (arrow in basis)

    def test_zero_norm(self, po6, po6_norms):
        # O has no entry; ||O|| = 0 shows where O occurs
        assert ZERO not in po6_norms
        assert distance(po6, po6_norms, ZERO, ZERO) == 0
        assert inner(po6, po6_norms, ZERO, ZERO) == 0
        for f in po6.vectors:
            assert distance(po6, po6_norms, f, ZERO) == po6_norms[f]

    def test_triangle_inequality(self, po6, po6_norms):
        for f in po6.vectors:
            for g in po6.vectors:
                if po6.arrows[f].cod == po6.arrows[g].dom:
                    assert po6_norms[po6.table[(f, g)]] <= po6_norms[f] + po6_norms[g]

    def test_thin_norm_is_not_additive(self, po6, po6_norms):
        # e1 then a1->a4 is a0->a4, which the generator e2 then e4 also
        # factors in two steps: ||e1 (+) a1->a4|| = 2 < 1 + 2
        assert vec_add(po6, "e1", "a1->a4") == "a0->a4"
        assert (po6_norms["e1"], po6_norms["a1->a4"], po6_norms["a0->a4"]) == (1, 2, 2)

    def test_bfs_matches_brute_force(self, po6, po6_norms):
        basis = atomic_basis(po6)
        expected = oracle_word_norms(po6, basis)
        assert po6_norms == expected

    def test_cyclic_group_of_order_three_is_not_generated(self):
        # a∘a = b and b∘b = a: every arrow is a composite, so the basis is
        # empty and neither arrow has a factorization
        group = cyclic_categories()["c3"]
        assert atomic_basis(group) == ()
        with pytest.raises(NotGenerated) as caught:
            compute_norms(group, atomic_basis(group))
        assert caught.value.missing == ["a", "b"]
        assert str(caught.value) == "arrows not generated by the basis: a, b"


class TestDistance:
    def test_unique_witness(self, po6, po6_norms):
        # only e4 completes a0->a2 into a0->a4
        assert distance(po6, po6_norms, "a0->a4", "e2") == 1

    def test_self_distance_zero(self, po6, po6_norms):
        for f in po6.vectors:
            assert distance(po6, po6_norms, f, f) == 0

    def test_no_difference(self, po6, po6_norms):
        with pytest.raises(NoDifference):
            distance(po6, po6_norms, "e1", "e2")

    def test_distance_is_not_symmetric(self, po6, po6_norms):
        # a0->a3 = e1 (+) e3, but no l gives e1 = a0->a3 (+) l
        assert distance(po6, po6_norms, "a0->a3", "e1") == 1
        with pytest.raises(NoDifference):
            distance(po6, po6_norms, "e1", "a0->a3")

    def test_distance_from_zero(self, po6, po6_norms):
        # f = O (+) l forces l = f
        assert distance(po6, po6_norms, "a0->a5", ZERO) == 3
