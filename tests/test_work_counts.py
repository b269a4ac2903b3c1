"""Work counts: the cost of a stage pinned by counting the lookups it makes
on a ladder of sizes, against a formula in the category's structure, so
that a stage that turns quadratic fails a test however fast the host is."""

from collections import Counter
from collections.abc import Mapping

import pytest

from catgeo import FiniteCategory, atomic_basis, build_free, build_thin, compute_norms, validate_axioms

from helpers import concrete_category


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
    return build_thin(objects, [("g%d" % i, a, b) for i, (a, b) in enumerate(zip(objects, objects[1:]))])


def staged_free_chain():
    # six stages, two parallel edges a step: 114 paths
    objects = ["a%d" % i for i in range(6)]
    return build_free(objects, [("g%d_%d" % (i, k), objects[i], objects[i + 1]) for i in range(5) for k in range(2)])


def transformation_monoid():
    # two maps of {0, 1, 2, 3} generate 57 non-identity maps, of norms up to 8
    return concrete_category([4], [(0, 0, (3, 3, 1, 0)), (0, 0, (2, 1, 2, 0))], max_arrows=80)


LADDER = {
    "thin chain 10": lambda: thin_chain(10),
    "thin chain 20": lambda: thin_chain(20),
    "thin chain 40": lambda: thin_chain(40),
    "staged free chain": staged_free_chain,
    "transformation monoid": transformation_monoid,
}


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
