"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; random instances use a fixed seed for reproducibility.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from catgeo import (
    ZERO,
    Multivector,
    anticommutator,
    atomic_basis,
    builtin_category,
    clifford_report,
    compute_norms,
    interval,
    interval_add,
    interval_geometric,
    interval_inner,
    interval_norm,
    interval_outer,
    validate_axioms,
)
from catgeo.category import FiniteCategory

from helpers import closed_form_anticommutator, oracle_word_norms, random_free, random_thin, zero_vector_law_failures

SEED = 20260826


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print("criterion %d (%s): FAIL" % (number, description))
        raise
    print("criterion %d (%s): PASS" % (number, description))


@pytest.fixture(scope="module")
def po6():
    return builtin_category("po6")


@pytest.fixture(scope="module")
def po6_norms(po6):
    return compute_norms(po6, atomic_basis(po6))


@pytest.fixture(scope="module")
def generated():
    rng = random.Random(SEED)
    thin = [random_thin(rng, max_objects=8, max_edges=14) for _ in range(100)]
    free = [random_free(rng, max_objects=6, max_edges=8) for _ in range(50)]
    return thin + free


def test_criterion_1_worked_example_norms(po6, po6_norms):
    with criterion(1, "basis and norm reproduction"):
        start = time.monotonic()
        assert atomic_basis(po6) == ("e1", "e2", "e3", "e4", "e5", "e6")
        assert po6_norms["a0->a3"] == 2
        assert po6_norms["a0->a4"] == 2
        assert po6_norms["a1->a4"] == 2
        assert po6_norms["a0->a5"] == 3
        # triangle inequality instance: 3 <= 1 + 2
        assert po6_norms["a0->a5"] <= po6_norms["e6"] + po6_norms["a0->a4"]
        assert time.monotonic() - start < 1.0


def test_criterion_2_worked_example_products(po6, po6_norms):
    with criterion(2, "product reproduction"):
        f, h, m = "a0->a4", "a0->a3", "a1->a4"
        assert anticommutator(po6, po6_norms, f, f) == Multivector(8)
        assert anticommutator(po6, po6_norms, "e4", m).is_zero()

        e1_m = anticommutator(po6, po6_norms, "e1", m)
        assert e1_m.scalar == 2
        ((blade, coeff),) = e1_m.blades.items()
        assert abs(coeff) == 1 and po6_norms[blade.first] * po6_norms[blade.second] == 2

        e5_h = anticommutator(po6, po6_norms, "e5", h)
        assert e5_h.scalar == 2
        ((blade, coeff),) = e5_h.blades.items()
        assert abs(coeff) == 1 and po6_norms[blade.first] * po6_norms[blade.second] == 2


def test_criterion_3_clifford_conditions(generated):
    with criterion(3, "Clifford conditions on random categories"):
        start = time.monotonic()
        counterexamples = 0
        for cat in generated:
            basis = atomic_basis(cat)
            norms = compute_norms(cat, basis)
            report = clifford_report(cat, norms, basis)
            counterexamples += len(report.unit_square_failures)
            counterexamples += len(report.anticommutation_failures)
        assert counterexamples == 0
        assert time.monotonic() - start < 30.0


def test_criterion_4_norm_oracle_equivalence(generated):
    with criterion(4, "BFS norms equal word-length minima"):
        mismatches = 0
        for cat in generated:
            basis = atomic_basis(cat)
            norms = compute_norms(cat, basis)
            expected = oracle_word_norms(cat, basis)
            if norms != expected:
                mismatches += 1
        assert mismatches == 0


def test_criterion_5_anticommutator_case_agreement(generated):
    with criterion(5, "anticommutator matches closed form"):
        mismatches = 0
        for cat in generated:
            norms = compute_norms(cat, atomic_basis(cat))
            vectors = cat.vectors
            for f in vectors:
                for g in vectors:
                    if f == g:
                        continue
                    got = anticommutator(cat, norms, f, g)
                    if got != closed_form_anticommutator(cat, norms, f, g):
                        mismatches += 1
        assert mismatches == 0


def _corrupted_tables(po6):
    """20 mutilated copies of the worked example's table."""
    composite_keys = [
        (f, g)
        for (f, g) in po6.table
        if not po6.arrows[f].is_identity and not po6.arrows[g].is_identity
    ]
    unit_keys = [
        (f, g)
        for (f, g) in po6.table
        if po6.arrows[f].is_identity != po6.arrows[g].is_identity
    ]
    rng = random.Random(SEED)
    wrong_targets = po6.vectors
    corrupted = []
    for key in rng.sample(composite_keys, 10):
        table = dict(po6.table)
        current = table[key]
        table[key] = rng.choice([a for a in wrong_targets if a != current])
        corrupted.append(FiniteCategory(po6.objects, po6.arrows.values(), table, "explicit"))
    for key in rng.sample(unit_keys, 10):
        table = dict(po6.table)
        del table[key]
        corrupted.append(FiniteCategory(po6.objects, po6.arrows.values(), table, "explicit"))
    return corrupted


def test_criterion_6_axiom_validator(po6, generated):
    with criterion(6, "validator accepts built categories, flags corrupted tables"):
        for cat in generated:
            assert validate_axioms(cat) == []
        corrupted = _corrupted_tables(po6)
        assert len(corrupted) == 20
        for cat in corrupted:
            assert len(validate_axioms(cat)) >= 1


def test_criterion_7_real_line_backend():
    with criterion(7, "exact rational interval backend"):
        assert interval_norm(interval("3.14", "3.141")) == Fraction(1, 1000)
        f = interval_add(interval("3.14", "3.1405"), interval("3.1405", "3.141"))
        assert f == interval("3.14", "3.141")
        rng = random.Random(SEED)
        for _ in range(1000):
            lo = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            width = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4))
            cut = lo + width * Fraction(rng.randint(1, 999), 1000)
            g = interval(lo, cut)
            h = interval(cut, lo + width)
            s = interval_add(g, h)
            assert interval_norm(s) == interval_norm(g) + interval_norm(h)


def test_criterion_8_zero_vector_laws(generated):
    with criterion(8, "zero vector laws on every generated category"):
        for cat in generated:
            assert zero_vector_law_failures(cat, compute_norms(cat, atomic_basis(cat))) == []
        # and on the rational backend
        f = interval("0", "1")
        assert interval_add(ZERO, f) == f
        assert interval_add(f, ZERO) == f
        assert interval_norm(ZERO) == 0
        assert interval_inner(f, ZERO) == 0 and interval_inner(ZERO, f) == 0
        assert interval_outer(f, ZERO).is_zero() and interval_outer(ZERO, f).is_zero()
        assert interval_geometric(ZERO, f).is_zero()
