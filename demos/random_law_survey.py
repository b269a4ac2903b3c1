"""Survey: algebraic laws over a population of random categories.

Generates random order (thin) and free path categories, then checks on
every instance that basis vectors square to 1 and orthogonal pairs
anticommute.  The generators are the test suite's (tests/helpers.py).
Run with: python3 demos/random_law_survey.py
"""

import random
import sys
from pathlib import Path

from catgeo import atomic_basis, clifford_report, compute_norms

# the random generators are the test suite's own, in tests/helpers.py
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from helpers import random_free, random_thin  # noqa: E402

rng = random.Random(7)
population = [random_thin(rng) for _ in range(100)] + [random_free(rng) for _ in range(50)]

holds = 0
arrow_total = 0
basis_total = 0
for cat in population:
    basis = atomic_basis(cat)
    norms = compute_norms(cat, basis)
    report = clifford_report(cat, norms, basis)
    holds += report.holds
    arrow_total += len(cat.non_identity_arrows())
    basis_total += len(basis)

print("categories checked:   %d" % len(population))
print("total arrows:         %d (of which %d atomic)" % (arrow_total, basis_total))
print("Clifford laws hold on %d/%d instances" % (holds, len(population)))
