import pytest

from catgeo import geometry
from catgeo import (
    ZERO,
    Blade2,
    Multivector,
    UnknownArrow,
    anticommutator,
    anticommutator_table,
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
    vec_add,
)

from helpers import (
    category_ends,
    exhaustive_clifford_report,
    kernel_anticommutation_failures,
    oracle_clifford_failures,
)


@pytest.fixture(scope="module")
def po6():
    return builtin_category("po6")


@pytest.fixture(scope="module")
def norms(po6):
    return compute_norms(po6, atomic_basis(po6))


@pytest.fixture(params=["po6", "parallel_free"])
def survey_category(request, po6):
    """A category for the survey loops' kernel-call tests."""
    if request.param == "po6":
        return po6
    # parallel edges; e comes before the p it follows, q after them
    return build_free(["x", "y", "z"], [("p1", "x", "y"), ("p2", "x", "y"), ("q", "y", "z"), ("e", "y", "z")])


@pytest.fixture
def plant_broken_kernel(monkeypatch):
    """Break the pair kernel on the given ordered pairs: fg = 0 there instead
    of a blade or a scalar."""

    def install(broken_orders):
        kernel = geometry._product

        def broken(f, g, *rest):
            if (f, g) in broken_orders:
                return 0, None, 0
            return kernel(f, g, *rest)

        monkeypatch.setattr(geometry, "_product", broken)

    return install


#: broken kernels of the planted-breakage tests: one order of {e2, e5}, and
#: one order each of {e1, e2}, {e1, e5} and {e2, e5}, some with the smaller
#: id first and some with it second
ONE_BROKEN_ORDER = {("e2", "e5")}
THREE_BROKEN_ORDERS = {("e2", "e1"), ("e1", "e5"), ("e5", "e2")}


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


def test_inner_product_does_not_distribute_over_sum(po6, norms):
    # (f (+) g)·h = f·h + g·h fails on a thin and on a free category: the
    # sum's norm enters the left side whole, and f·h is 0 when f does not
    # end where h starts
    assert vec_add(po6, "e1", "e3") == H
    assert inner(po6, norms, H, "e5") == 2
    assert inner(po6, norms, "e1", "e5") + inner(po6, norms, "e3", "e5") == 1
    chain = build_free(["x", "y", "z", "w"], [("p", "x", "y"), ("q", "y", "z"), ("r", "z", "w")])
    chain_norms = compute_norms(chain, atomic_basis(chain))
    pq = vec_add(chain, "p", "q")
    assert inner(chain, chain_norms, pq, "r") == 2
    assert inner(chain, chain_norms, "p", "r") + inner(chain, chain_norms, "q", "r") == 1


def test_anticommutator_has_a_blade_exactly_when_the_pair_composes_in_one_order(po6, norms):
    # "fg + gf is a scalar" fails: e1 then e3 composes, e3 then e1 does not,
    # so fg is the scalar ||e1||·||e3|| and gf the blade e3∧e1
    assert anticommutator(po6, norms, "e1", "e3") == Multivector(1, {Blade2("e1", "e3"): -1})
    arrows, vectors = po6.arrows, po6.vectors
    with_blade = [(f, g) for f in vectors for g in vectors if anticommutator(po6, norms, f, g).blades]
    one_order = [
        (f, g) for f in vectors for g in vectors if f != g and (arrows[f].cod == arrows[g].dom) != (arrows[g].cod == arrows[f].dom)
    ]
    assert with_blade == one_order
    assert (len(with_blade), len(vectors) ** 2) == (26, 169)


def test_square_of_a_sum_is_not_its_expansion(po6, norms):
    # (f (+) g)² = f² + fg + gf + g² fails on every pair of po6 whose sum is
    # defined: the left side is a scalar, and fg + gf on the right keeps a
    # blade, as such a pair composes in one order only
    def square(f):
        return geometric(po6, norms, f, f)

    assert vec_add(po6, "e1", "e3") == H
    assert square(H) == Multivector(4)
    assert square("e1") + anticommutator(po6, norms, "e1", "e3") + square("e3") == Multivector(3, {Blade2("e1", "e3"): -1})
    vectors = po6.vectors
    sums = [(f, g) for f in vectors for g in vectors if po6.arrows[f].cod == po6.arrows[g].dom]
    fails = [(f, g) for f, g in sums if square(vec_add(po6, f, g)) != square(f) + anticommutator(po6, norms, f, g) + square(g)]
    assert fails == sums and len(sums) == 13


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
                # `catgeo product` reports parallel as both inner products non-zero
                assert is_parallel(po6, f, g) == (inner(po6, norms, f, g) != 0 and inner(po6, norms, g, f) != 0)


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

    def test_broken_square_is_reported(self, po6, norms, monkeypatch):
        # the report runs the kernel on every basis square
        kernel = geometry._product

        def broken(f, g, *rest):
            return (4, None, 0) if f == g == "e1" else kernel(f, g, *rest)

        monkeypatch.setattr(geometry, "_product", broken)
        report = clifford_report(po6, norms, atomic_basis(po6))
        assert report.unit_square_failures == [("e1", Multivector(4))]
        assert report.anticommutation_failures == []

    def test_every_orthogonal_pair_is_compared(self, po6, norms, plant_broken_kernel):
        # the exhaustive oracle compares fg and gf of every orthogonal pair:
        # with the kernel broken on the single ordered pair (e2, e5), fg = -gf
        # fails for (e2, e5) and (e5, e2), and for no other pair
        assert is_orthogonal(po6, norms, "e2", "e5")
        plant_broken_kernel(ONE_BROKEN_ORDER)
        report = exhaustive_clifford_report(po6, norms, atomic_basis(po6))
        assert report.unit_square_failures == []
        assert report.anticommutation_failures == [("e2", "e5"), ("e5", "e2")]

    def test_three_broken_pairs_sharing_arrows(self, po6, norms, plant_broken_kernel):
        # each broken pair is reported in both orders, f-major, and nothing else is
        plant_broken_kernel(THREE_BROKEN_ORDERS)
        planted = [("e1", "e2"), ("e1", "e5"), ("e2", "e1"), ("e2", "e5"), ("e5", "e1"), ("e5", "e2")]
        basis = atomic_basis(po6)
        assert exhaustive_clifford_report(po6, norms, basis).anticommutation_failures == planted
        # under doctored norms the oracle's own failures interleave with them
        doctored = dict(norms, e4=0)
        _, anti = oracle_clifford_failures(po6, doctored, basis)
        assert anti and not set(anti) & set(planted)
        assert exhaustive_clifford_report(po6, doctored, basis).anticommutation_failures == sorted(anti + planted)

    def test_kernel_runs_once_per_basis_square(self, survey_category, count_kernel_calls):
        # anticommutation is read off composability: the kernel runs on e² only
        cat = survey_category
        basis = atomic_basis(cat)
        norms = compute_norms(cat, basis)
        calls = count_kernel_calls()
        assert clifford_report(cat, norms, basis).holds
        assert calls == [(e, e) for e in basis]

    def test_missing_norm_raises_key_error(self, po6, norms):
        for v in po6.vectors:
            partial = {a: n for a, n in norms.items() if a != v}
            with pytest.raises(KeyError):
                clifford_report(po6, partial, [])

    def test_unknown_basis_member_rejected(self, po6, norms):
        with pytest.raises(UnknownArrow):
            clifford_report(po6, norms, ["e1", "nope"])
        with pytest.raises(UnknownArrow):
            clifford_report(po6, norms, ["id:a0"])


class TestAnticommutatorTable:
    def test_table_runs_the_kernel_on_the_diagonal_and_composing_pairs(self, survey_category, count_kernel_calls):
        # distinct arrows that compose in neither order have the zero row
        # without the kernel; every other ordered pair runs it for fg and
        # then gf, in row order
        cat = survey_category
        norms = compute_norms(cat, atomic_basis(cat))
        vectors, arrows = cat.vectors, cat.arrows
        expected = []
        for f in vectors:
            for g in vectors:
                if f == g or arrows[f].cod == arrows[g].dom or arrows[g].cod == arrows[f].dom:
                    expected += [(f, g), (g, f)]
        calls = count_kernel_calls()
        rows = list(anticommutator_table(cat, norms))
        assert len(rows) == len(vectors) ** 2
        assert calls == expected
        assert len(calls) < 2 * len(rows)  # some rows are zero without the kernel

    def test_missing_norm_raises_key_error_once_rows_are_read(self, po6, norms):
        for v in po6.vectors:
            rows = anticommutator_table(po6, {a: n for a, n in norms.items() if a != v})
            with pytest.raises(KeyError):
                list(rows)


class TestKernel:
    """Distinct vectors that compose in neither order anticommute in the
    kernel itself, which the survey functions rely on to skip them."""

    def test_po6_pairs_anticommute(self, po6, norms):
        assert kernel_anticommutation_failures(category_ends(po6, norms)) == []

    @pytest.mark.parametrize("broken_orders", [ONE_BROKEN_ORDER, THREE_BROKEN_ORDERS], ids=["one", "three"])
    def test_each_planted_breakage_is_seen(self, po6, norms, plant_broken_kernel, broken_orders):
        plant_broken_kernel(broken_orders)
        expected = sorted(broken_orders | {(g, f) for f, g in broken_orders})
        assert kernel_anticommutation_failures(category_ends(po6, norms)) == expected


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
