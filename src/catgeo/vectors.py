"""The arrow vector space of a finite category.

Vectors are the non-identity arrows plus a distinguished zero vector O.
Addition (+) is partial and noncommutative: f (+) g = g∘f when the arrows
compose, with O as a two-sided unit.  The atomic (non-composite) arrows
form the basis; the norm of an arrow is the minimal number of basis
arrows composing to it, with ||O|| = 0.
"""

from __future__ import annotations

from collections import deque
from typing import Union

from .category import FiniteCategory
from .errors import (
    CompositeIsIdentity,
    NoDifference,
    NotGenerated,
    UndefinedSum,
    UnknownArrow,
)


class _ZeroVector:
    """The zero vector O; a singleton with no dom/cod among the objects."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "O"


ZERO = _ZeroVector()

#: a vector is either the zero vector or a non-identity arrow id
Vector = Union[_ZeroVector, str]


def is_zero(v: Vector) -> bool:
    return isinstance(v, _ZeroVector)


def _check_vector(category: FiniteCategory, v: Vector) -> None:
    if is_zero(v):
        return
    if not category.has_arrow(v):
        raise UnknownArrow("no arrow %r in category" % v)
    if category.is_identity(v):
        raise UnknownArrow("identity arrow %r is not a vector" % v)


def vec_add(category: FiniteCategory, f: Vector, g: Vector) -> Vector:
    """f (+) g: the composite g∘f when cod(f) = dom(g); O is a unit."""
    _check_vector(category, f)
    _check_vector(category, g)
    if is_zero(f):
        return g
    if is_zero(g):
        return f
    if not category.composable(f, g):
        raise UndefinedSum("cod(%s) != dom(%s); sum undefined" % (f, g))
    result = category.table[(f, g)]
    if category.is_identity(result):
        raise CompositeIsIdentity("%s then %s composes to identity %s" % (f, g, result))
    return result


class Basis:
    """The set of atomic arrows, in canonical order."""

    def __init__(self, members):
        self.members = tuple(sorted(members))
        self._member_set = frozenset(self.members)

    def __contains__(self, arrow_id):
        return arrow_id in self._member_set

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        if isinstance(other, Basis):
            return self.members == other.members
        return self._member_set == set(other)

    def __repr__(self):
        return "Basis(%s)" % ", ".join(self.members)


def atomic_basis(category: FiniteCategory) -> Basis:
    """Arrows that are no composite of two non-identity arrows distinct from them."""
    arrows = category.arrows
    composite = set()
    for (f, g), result in category.table.items():
        if result == f or result == g:
            continue  # every unit-law entry lands here
        if arrows[f].is_identity or arrows[g].is_identity or arrows[result].is_identity:
            continue
        composite.add(result)
    return Basis(a for a in category.non_identity_arrows() if a not in composite)


class NormTable:
    """Minimal factorization lengths per non-identity arrow; ||O|| = 0."""

    zero_norm = 0

    def __init__(self, lengths: dict[str, int]):
        self.lengths = dict(lengths)

    def __getitem__(self, arrow_id: str) -> int:
        return self.lengths[arrow_id]

    def norm(self, v: Vector) -> int:
        if is_zero(v):
            return self.zero_norm
        return self.lengths[v]

    def items(self):
        return sorted(self.lengths.items())


def compute_norms(category: FiniteCategory, basis: Basis) -> NormTable:
    """Multi-source BFS from the basis: depth 1 is the basis itself, each
    step composes a reached arrow with a basis arrow on the left.

    Raises NotGenerated when some non-identity arrow is unreachable.
    """
    arrows, table = category.arrows, category.table
    basis_out = {o: [a.id for a in leaving if a.id in basis] for o, leaving in category.out_arrows.items()}
    lengths: dict[str, int] = {e: 1 for e in basis}
    queue = deque(basis)
    while queue:
        reached = queue.popleft()
        depth = lengths[reached]
        for e in basis_out[arrows[reached].cod]:
            composite = table[(reached, e)]
            if arrows[composite].is_identity:
                continue  # lands outside the vector space
            if composite not in lengths:
                lengths[composite] = depth + 1
                queue.append(composite)
    missing = set(category.non_identity_arrows()) - set(lengths)
    if missing:
        raise NotGenerated(missing)
    return NormTable(lengths)


def distance(category: FiniteCategory, norms: NormTable, f: Vector, g: Vector) -> int:
    """min ||l|| over vectors l (including O) with f = g (+) l.

    Raises NoDifference when no such l exists.
    """
    _check_vector(category, f)
    _check_vector(category, g)
    best = None
    candidates: list[Vector] = [ZERO]
    candidates.extend(category.non_identity_arrows())
    for l in candidates:
        try:
            if vec_add(category, g, l) == f:
                n = norms.norm(l)
                if best is None or n < best:
                    best = n
        except (UndefinedSum, CompositeIsIdentity):
            continue
    if best is None:
        raise NoDifference("no vector l with %r = %r (+) l" % (f, g))
    return best
