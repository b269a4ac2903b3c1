import itertools

import pytest

from catgeo import geometry
from catgeo import (
    ZERO,
    Blade2,
    Multivector,
    UnknownArrow,
    anticommutator,
    atomic_basis,
    build_explicit,
    build_free,
    builtin_category,
    clifford_report,
    compute_norms,
    geometric,
    inner,
    is_orthogonal,
    is_parallel,
    outer,
)

from helpers import oracle_clifford_failures


@pytest.fixture(scope="module")
def po6():
    return builtin_category("po6")


@pytest.fixture(scope="module")
def norms(po6):
    return compute_norms(po6, atomic_basis(po6))


# the derived arrows named in the worked example
F = "a0->a4"
H = "a0->a3"
M = "a1->a4"


class TestMultivector:
    def test_zero_coefficients_dropped(self):
        mv = Multivector(0, {Blade2("a", "b"): 0})
        assert mv.is_zero()

    def test_addition_cancels(self):
        b = Blade2("a", "b")
        assert (Multivector(0, {b: 1}) + Multivector(0, {b: -1})).is_zero()

    def test_negation(self):
        mv = Multivector(3, {Blade2("a", "b"): 2})
        assert mv + (-mv) == Multivector(0)

    def test_equality_is_fieldwise(self):
        assert Multivector(1, {Blade2("a", "b"): 1}) != Multivector(1)


class TestInner:
    def test_composable_pair(self, po6, norms):
        assert inner(po6, norms, "e2", "e4") == 1

    def test_non_composable_is_zero_both_ways(self, po6, norms):
        assert inner(po6, norms, "e2", "e5") == 0
        assert inner(po6, norms, "e5", "e2") == 0

    def test_zero_vector_annihilates(self, po6, norms):
        for f in po6.vectors:
            assert inner(po6, norms, f, ZERO) == 0
            assert inner(po6, norms, ZERO, f) == 0

    def test_asymmetry_when_one_composite_exists(self, po6, norms):
        # e1 then m composes; m then e1 does not
        assert inner(po6, norms, "e1", M) == 2
        assert inner(po6, norms, M, "e1") == 0

    def test_value_shape(self, po6, norms):
        for f in po6.vectors:
            for g in po6.vectors:
                assert inner(po6, norms, f, g) in (0, norms[f] * norms[g])


class TestOrthogonalParallel:
    def test_e4_m_orthogonal(self, po6, norms):
        assert is_orthogonal(po6, norms, "e4", M)

    def test_e2_e4_not_orthogonal(self, po6, norms):
        assert not is_orthogonal(po6, norms, "e2", "e4")

    def test_zero_orthogonal_to_itself(self, po6, norms):
        assert is_orthogonal(po6, norms, ZERO, ZERO)

    def test_every_arrow_parallel_to_itself(self, po6):
        for f in po6.vectors:
            assert is_parallel(po6, f, f)

    def test_one_sided_composite_not_parallel(self, po6):
        assert not is_parallel(po6, "e1", "e3")

    def test_isomorphism_pair_is_parallel(self):
        cat = build_explicit(
            ["a", "b"],
            [("f", "a", "b"), ("g", "b", "a")],
            {("f", "g"): "id:a", ("g", "f"): "id:b"},
        )
        assert is_parallel(cat, "f", "g")

    def test_predicates_are_symmetric_and_exclusive(self, po6, norms):
        vectors = po6.vectors
        for f in vectors:
            for g in vectors:
                assert is_orthogonal(po6, norms, f, g) == is_orthogonal(po6, norms, g, f)
                assert is_parallel(po6, f, g) == is_parallel(po6, g, f)
                assert not (is_orthogonal(po6, norms, f, g) and is_parallel(po6, f, g))


class TestOuter:
    def test_orthogonal_pair_gives_bivector(self, po6, norms):
        mv = outer(po6, norms, "e4", M)
        assert mv.scalar == 0
        assert len(mv.blades) == 1
        ((blade, coeff),) = mv.blades.items()
        assert {blade.first, blade.second} == {"e4", M}
        assert abs(coeff) == 1
        assert norms[blade.first] * norms[blade.second] == 2

    def test_self_wedge_is_zero(self, po6, norms):
        for f in po6.vectors:
            assert outer(po6, norms, f, f).is_zero()

    def test_zero_vector_wedge(self, po6, norms):
        for f in po6.vectors:
            assert outer(po6, norms, ZERO, f).is_zero()
            assert outer(po6, norms, f, ZERO).is_zero()

    def test_antisymmetry_on_orthogonal_pairs(self, po6, norms):
        # one-sided composable pairs are asymmetric by definition, so the
        # cancellation law only covers orthogonal pairs
        vectors = po6.vectors
        for f in vectors:
            for g in vectors:
                if is_orthogonal(po6, norms, f, g):
                    assert outer(po6, norms, f, g) == -outer(po6, norms, g, f)


class TestGeometric:
    def test_square_of_composite_arrow(self, po6, norms):
        assert geometric(po6, norms, F, F) == Multivector(4)

    def test_mixed_pair(self, po6, norms):
        assert geometric(po6, norms, "e1", M) == Multivector(2)
        mv = geometric(po6, norms, M, "e1")
        assert mv.scalar == 0
        ((blade, coeff),) = mv.blades.items()
        assert {blade.first, blade.second} == {"e1", M}
        assert norms[blade.first] * norms[blade.second] == 2

    def test_zero_vector(self, po6, norms):
        for f in po6.vectors:
            assert geometric(po6, norms, ZERO, f).is_zero()
            assert geometric(po6, norms, f, ZERO).is_zero()

    def test_square_is_norm_squared(self, po6, norms):
        for f in po6.vectors:
            assert geometric(po6, norms, f, f) == Multivector(norms[f] ** 2)


class TestAnticommutator:
    def test_parallel_self(self, po6, norms):
        assert anticommutator(po6, norms, F, F) == Multivector(8)

    def test_orthogonal_pair_cancels(self, po6, norms):
        assert anticommutator(po6, norms, "e4", M).is_zero()

    def test_e1_m(self, po6, norms):
        mv = anticommutator(po6, norms, "e1", M)
        assert mv.scalar == 2
        ((blade, _),) = mv.blades.items()
        assert norms[blade.first] * norms[blade.second] == 2

    def test_e5_h(self, po6, norms):
        mv = anticommutator(po6, norms, "e5", H)
        assert mv.scalar == 2
        ((blade, _),) = mv.blades.items()
        assert {blade.first, blade.second} == {"e5", H}
        assert norms[blade.first] * norms[blade.second] == 2


class TestCliffordReport:
    def test_po6_holds(self, po6, norms):
        report = clifford_report(po6, norms, atomic_basis(po6))
        assert report.holds
        assert report.unit_square_failures == []
        assert report.anticommutation_failures == []

    def test_free_path_holds(self):
        cat = build_free(["x", "y", "z"], [("p", "x", "y"), ("q", "y", "z")])
        basis = atomic_basis(cat)
        norms = compute_norms(cat, basis)
        assert clifford_report(cat, norms, basis).holds

    def test_doctored_norm_gives_exactly_that_unit_square_failure(self, po6, norms):
        doctored = dict(norms, e3=2)
        report = clifford_report(po6, doctored, atomic_basis(po6))
        assert report.unit_square_failures == [("e3", Multivector(4))]
        assert report.anticommutation_failures == []

    def test_every_orthogonal_pair_is_compared(self, po6, norms, monkeypatch):
        # break the kernel on the single ordered pair (e2, e5): fg = 0 instead
        # of a blade.  fg = -gf is one condition for (e2, e5) and (e5, e2), so
        # exactly those two ordered pairs must be reported, and no other.
        assert is_orthogonal(po6, norms, "e2", "e5")
        kernel = geometry._product

        def broken(f, g, *rest):
            if (f, g) == ("e2", "e5"):
                return 0, None, 0
            return kernel(f, g, *rest)

        monkeypatch.setattr(geometry, "_product", broken)
        report = clifford_report(po6, norms, atomic_basis(po6))
        assert report.unit_square_failures == []
        assert report.anticommutation_failures == [("e2", "e5"), ("e5", "e2")]

    def test_three_broken_pairs_sharing_arrows(self, po6, norms, monkeypatch):
        # break one order of each of {e1, e2}, {e1, e5} and {e2, e5}, some
        # with the smaller id first and some with it second: each pair is
        # reported in both orders, f-major, and nothing else is
        kernel = geometry._product
        broken_orders = {("e2", "e1"), ("e1", "e5"), ("e5", "e2")}

        def broken(f, g, *rest):
            if (f, g) in broken_orders:
                return 0, None, 0
            return kernel(f, g, *rest)

        monkeypatch.setattr(geometry, "_product", broken)
        planted = [("e1", "e2"), ("e1", "e5"), ("e2", "e1"), ("e2", "e5"), ("e5", "e1"), ("e5", "e2")]
        basis = atomic_basis(po6)
        assert clifford_report(po6, norms, basis).anticommutation_failures == planted
        # under doctored norms the oracle's own failures interleave with them
        doctored = dict(norms, e4=0)
        _, anti = oracle_clifford_failures(po6, doctored, basis)
        assert anti and not set(anti) & set(planted)
        assert clifford_report(po6, doctored, basis).anticommutation_failures == sorted(anti + planted)

    @pytest.mark.parametrize("name", ["po6", "parallel_free"])
    def test_reverse_product_only_when_the_first_scalar_is_0(self, name, po6, monkeypatch):
        # a pair with f·g != 0 is not orthogonal, so gf is not needed for it
        if name == "po6":
            cat = po6
        else:  # parallel edges; e comes before the p it follows, q after them
            cat = build_free(["x", "y", "z"], [("p1", "x", "y"), ("p2", "x", "y"), ("q", "y", "z"), ("e", "y", "z")])
        basis = atomic_basis(cat)
        norms = compute_norms(cat, basis)
        pairs = list(itertools.combinations(cat.vectors, 2))
        expected = []
        for f, g in pairs:
            expected.append((f, g))
            if inner(cat, norms, f, g) == 0:
                expected.append((g, f))
        # both sides of the rule occur: some gf skipped, some gf != 0 computed
        assert any(inner(cat, norms, f, g) for f, g in pairs)
        assert any(inner(cat, norms, g, f) and not inner(cat, norms, f, g) for f, g in pairs)
        calls = []
        kernel = geometry._product

        def counting(f, g, *rest):
            calls.append((f, g))
            return kernel(f, g, *rest)

        monkeypatch.setattr(geometry, "_product", counting)
        assert clifford_report(cat, norms, basis).holds
        assert [(f, g) for f, g in calls if f != g] == expected

    def test_unknown_basis_member_rejected(self, po6, norms):
        with pytest.raises(UnknownArrow):
            clifford_report(po6, norms, ["e1", "nope"])
        with pytest.raises(UnknownArrow):
            clifford_report(po6, norms, ["id:a0"])


class TestArgumentChecks:
    @pytest.mark.parametrize("bad", ["nope", "id:a0"])
    def test_every_product_rejects_unknown_and_identity_ids(self, po6, norms, bad):
        for fn in (inner, outer, geometric, anticommutator, is_orthogonal):
            for f, g in (("e1", bad), (bad, "e1"), (ZERO, bad)):
                with pytest.raises(UnknownArrow):
                    fn(po6, norms, f, g)
        with pytest.raises(UnknownArrow):
            is_parallel(po6, "e1", bad)

    def test_parallel_needs_non_zero_vectors(self, po6):
        with pytest.raises(ValueError):
            is_parallel(po6, ZERO, "e1")
