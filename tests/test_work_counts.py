"""Work counts: the cost of a stage pinned by counting the lookups it makes
on a ladder of sizes, against a formula in the category's structure, so
that a stage that turns quadratic fails a test however fast the host is."""

from collections import Counter
from collections.abc import Mapping

import pytest

from catgeo import atomic_basis, build_free, build_thin, compute_norms

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
