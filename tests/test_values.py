"""Value semantics of catgeo's record types.

`repr`, `str`, equality, hashing and ordering of the value types are part
of what the CLI prints and what the other tests compare, so they are
pinned here independently of how the types are implemented.
"""

from fractions import Fraction

import pytest

from catgeo import (
    ZERO,
    Arrow,
    Blade2,
    CategoryDocument,
    CliffordReport,
    IntervalArrow,
    Multivector,
    Violation,
    builtin_category,
)


class TestArrow:
    def test_repr(self):
        assert repr(Arrow("e1", "a0", "a1")) == "Arrow(id='e1', dom='a0', cod='a1', is_identity=False)"
        assert repr(Arrow("id:a0", "a0", "a0", is_identity=True)) == (
            "Arrow(id='id:a0', dom='a0', cod='a0', is_identity=True)"
        )

    def test_fields(self):
        a = Arrow("id:o", "o", "o", True)
        assert (a.id, a.dom, a.cod, a.is_identity) == ("id:o", "o", "o", True)
        assert Arrow("e1", "a0", "a1").is_identity is False

    def test_equality_is_fieldwise(self):
        a = Arrow("e1", "a0", "a1")
        assert a == Arrow("e1", "a0", "a1", False)
        assert not a != Arrow("e1", "a0", "a1")
        assert a != Arrow("e1", "a0", "a2")
        assert a != Arrow("e2", "a0", "a1")
        assert a != Arrow("e1", "a0", "a1", True)
        assert a != ("e1", "a0", "a1", False)

    def test_hash(self):
        a = Arrow("e1", "a0", "a1")
        assert hash(a) == hash(Arrow("e1", "a0", "a1"))
        assert len({a, Arrow("e1", "a0", "a1"), Arrow("e1", "a0", "a2")}) == 2


class TestViolation:
    def test_str_and_repr(self):
        v = Violation("unit", "e1 ∘ id_a0 = None, expected e1")
        assert str(v) == "unit: e1 ∘ id_a0 = None, expected e1"
        assert repr(Violation("closure", "x")) == "Violation(kind='closure', detail='x')"

    def test_equality_and_hash(self):
        assert Violation("unit", "x") == Violation("unit", "x")
        assert Violation("unit", "x") != Violation("unit", "y")
        assert Violation("unit", "x") != Violation("closure", "x")
        assert hash(Violation("unit", "x")) == hash(Violation("unit", "x"))


class TestFiniteCategory:
    def test_repr(self):
        assert repr(builtin_category("po6")) == "FiniteCategory(mode='thin', objects=6, arrows=19)"
        assert repr(builtin_category("path3")) == "FiniteCategory(mode='free', objects=3, arrows=6)"


def test_zero_vector_repr():
    assert repr(ZERO) == "O"


class TestMultivector:
    def test_hash_follows_equality(self):
        b = Blade2("e1", "e2")
        assert hash(Multivector(3, {b: -1})) == hash(Multivector(3, {Blade2("e1", "e2"): -1, Blade2("e1", "e3"): 0}))
        assert len({Multivector(3, {b: -1}), Multivector(3, {b: -1}), Multivector(3), Multivector(3, {b: 1})}) == 3

    def test_unequal_to_other_types(self):
        assert Multivector(4) != 4
        assert not Multivector(4) == 4
        assert Multivector(0) != (0, {})


class TestBlade2:
    def test_order_is_first_then_second(self):
        blades = [Blade2("b", "a"), Blade2("a", "c"), Blade2("a", "b")]
        assert sorted(blades) == [Blade2("a", "b"), Blade2("a", "c"), Blade2("b", "a")]
        assert Blade2("a", "c") < Blade2("b", "a")
        assert Blade2("a", "b") <= Blade2("a", "b")
        assert not Blade2("a", "b") < Blade2("a", "b")

    def test_fields_repr_and_hash(self):
        b = Blade2("e1", "e2")
        assert (b.first, b.second) == ("e1", "e2")
        assert repr(b) == "Blade2(first='e1', second='e2')"
        assert hash(b) == hash(Blade2("e1", "e2"))
        assert Multivector(0, {b: 1}) == Multivector(0, {Blade2("e1", "e2"): 1})


class TestIntervalArrow:
    def test_order_is_lo_then_hi(self):
        f = IntervalArrow(Fraction(0), Fraction(2))
        g = IntervalArrow(Fraction(0), Fraction(3))
        h = IntervalArrow(Fraction(1), Fraction(3, 2))
        assert sorted([h, g, f]) == [f, g, h]
        assert f < g < h
        assert not f < f
        assert f <= IntervalArrow(Fraction(0), Fraction(2))

    def test_fields_repr_equality_and_hash(self):
        f = IntervalArrow(Fraction(-31, 7), Fraction(3, 2))
        assert (f.lo, f.hi) == (Fraction(-31, 7), Fraction(3, 2))
        assert repr(f) == str(f) == "(-31/7, 3/2)"
        assert "%s" % (f,) == "(-31/7, 3/2)"
        assert f == IntervalArrow(Fraction(-31, 7), Fraction(3, 2))
        assert f != IntervalArrow(Fraction(-31, 7), Fraction(2))
        assert hash(f) == hash(IntervalArrow(Fraction(-31, 7), Fraction(3, 2)))

    @pytest.mark.parametrize(
        ("lo", "hi", "message"),
        [
            (Fraction(2), Fraction(1), "interval endpoints must satisfy lo < hi, got 2 >= 1"),
            (Fraction(1, 2), Fraction(1, 2), "interval endpoints must satisfy lo < hi, got 1/2 >= 1/2"),
        ],
    )
    def test_endpoints_out_of_order(self, lo, hi, message):
        with pytest.raises(ValueError) as info:
            IntervalArrow(lo, hi)
        assert str(info.value) == message

    def test_no_copy_skips_the_order_check(self):
        f = IntervalArrow(Fraction(0), Fraction(1))
        assert f._replace(hi=Fraction(2)) == IntervalArrow(Fraction(0), Fraction(2))
        with pytest.raises(ValueError):
            f._replace(hi=Fraction(-1))
        with pytest.raises(ValueError):
            IntervalArrow._make((Fraction(2), Fraction(1)))


class TestCliffordReport:
    def test_holds_only_without_failures(self):
        assert CliffordReport([], []).holds
        assert not CliffordReport([("e1", Multivector(4))], []).holds
        assert not CliffordReport([], [("e1", "e2"), ("e2", "e1")]).holds

    def test_fields(self):
        report = CliffordReport([("e1", Multivector(4))], [("e1", "e2")])
        assert report.unit_square_failures == [("e1", Multivector(4))]
        assert report.anticommutation_failures == [("e1", "e2")]
        assert report == CliffordReport([("e1", Multivector(4))], [("e1", "e2")])


class TestCategoryDocument:
    def test_default_compositions(self):
        a = CategoryDocument("thin", ["a", "b"], [("e", "a", "b")])
        b = CategoryDocument("thin", ["a", "b"], [("e", "a", "b")])
        assert a.compositions == []
        a.compositions.append(("e", "e", "e"))
        assert b.compositions == []

    def test_equality_is_fieldwise(self):
        doc = CategoryDocument("explicit", ["a"], [("e", "a", "a")], [("e", "e", "e")])
        assert doc == CategoryDocument("explicit", ["a"], [("e", "a", "a")], [("e", "e", "e")])
        assert doc != CategoryDocument("explicit", ["a"], [("e", "a", "a")], [("e", "e", "id:a")])
        assert doc != CategoryDocument("free", ["a"], [("e", "a", "a")], [("e", "e", "e")])
        assert CategoryDocument("thin", ["a"], []) == CategoryDocument("thin", ["a"], [], [])

    def test_fields(self):
        doc = CategoryDocument("free", ["x", "y"], [("p", "x", "y")])
        assert (doc.mode, doc.objects, doc.arrows) == ("free", ["x", "y"], [("p", "x", "y")])

    def test_repr(self):
        doc = CategoryDocument("explicit", ["a"], [("e", "a", "a")], [("e", "e", "e")])
        assert repr(doc) == (
            "CategoryDocument(mode='explicit', objects=['a'], arrows=[('e', 'a', 'a')], compositions=[('e', 'e', 'e')])"
        )
        empty = CategoryDocument("thin", ["a"], [])
        assert repr(empty) == "CategoryDocument(mode='thin', objects=['a'], arrows=[], compositions=[])"

    def test_unequal_to_other_types(self):
        doc = CategoryDocument("thin", ["a"], [])
        assert doc != ("thin", ["a"], [], [])
        assert not doc == ("thin", ["a"], [], [])
        assert doc != 0
