"""The arrow vector space of a finite category.

Vectors are the non-identity arrows plus a distinguished zero vector O.
Addition (+) is partial and noncommutative: f (+) g = g∘f when the arrows
compose, with O as a two-sided unit.  The atomic (non-composite) arrows
form the basis; the norm of an arrow is the minimal number of basis
arrows composing to it, with ||O|| = 0.

Bases and norms are plain data: `atomic_basis` returns the basis ids as a
sorted tuple, `compute_norms` a dict from arrow id to length in the order
of `category.vectors`.  The basis of a built category is the one its
builder recorded, from the presentation or from its one pass over an
explicit table; only a category made directly has its basis found by a
pass over its table.  The norms are one search for every mode,
through the table's lookups.  O has no entry; the rule ||O|| = 0 is
applied where O can occur, at the `l = O` candidate of `distance` (and in
the products, where O annihilates).

Vector arguments are checked where they enter a public function:
`_check_vector` returns the Arrow of an id (None for O), or raises
UnknownArrow naming an unknown or identity id by its repr; `_check_arrow`
refuses O too, and `_check_arrows` is the one reader of a basis or id list.
"""

from __future__ import annotations

from collections.abc import Iterable

from .category import Arrow, FiniteCategory
from .errors import (
    CompositeIsIdentity,
    NoDifference,
    NotComposable,
    NotGenerated,
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
Vector = _ZeroVector | str


def is_zero(v: Vector) -> bool:
    return isinstance(v, _ZeroVector)


def _check_vector(category: FiniteCategory, v: Vector) -> Arrow | None:
    """The arrow of vector v, or None for O; UnknownArrow for anything else."""
    if is_zero(v):
        return None
    arrow = category.arrows.get(v)
    if arrow is None:
        raise UnknownArrow("no arrow %r in category" % (v,))
    if arrow.is_identity:
        raise UnknownArrow("identity arrow %r is not a vector" % (v,))
    return arrow


def _check_arrow(category: FiniteCategory, v: Vector) -> Arrow:
    """The arrow of v, a non-identity arrow id; UnknownArrow for O too."""
    arrow = _check_vector(category, v)
    if arrow is None:
        raise UnknownArrow("the zero vector %r is no arrow" % (v,))
    return arrow


def _check_arrows(category: FiniteCategory, ids: Iterable[str]) -> list[Arrow]:
    """The arrows of a basis or id list, read once; UnknownArrow for a str, a non-iterable or a bad id."""
    if isinstance(ids, str) or not isinstance(ids, Iterable):
        raise UnknownArrow("%r is no list of arrow ids" % (ids,))
    return [_check_arrow(category, v) for v in ids]


def vec_add(category: FiniteCategory, f: Vector, g: Vector) -> Vector:
    """f (+) g: the composite g∘f when cod(f) = dom(g); O is a unit."""
    a = _check_vector(category, f)
    b = _check_vector(category, g)
    if a is None:
        return g
    if b is None:
        return f
    if a.cod != b.dom:
        raise NotComposable("cod(%s) != dom(%s); sum undefined" % (f, g))
    result = category.table[(f, g)]
    if category.arrows[result].is_identity:
        raise CompositeIsIdentity("%s then %s composes to identity %s" % (f, g, result))
    return result


def atomic_basis(category: FiniteCategory) -> tuple[str, ...]:
    """Arrows that are no composite of two non-identity arrows distinct from
    them, in the canonical order.

    The basis the builder recorded, as every builder does; otherwise, for a
    category made directly, one pass over the table finds the arrows that
    no entry of two non-identity arrows distinct from them names.
    """
    if category.basis is not None:
        return category.basis
    units = {a.id for a in category.arrows.values() if a.is_identity}
    composite = {
        result
        for (f, g), result in category.table.items()
        if result != f and result != g and f not in units and g not in units  # unit-law entries fail the first two
    }
    return tuple(a for a in category.vectors if a not in composite)


def compute_norms(category: FiniteCategory, basis: Iterable[str]) -> dict[str, int]:
    """Minimal factorization length per non-identity arrow, in the canonical order.

    A breadth-first search from the basis arrows at depth 1: each step
    composes a reached arrow x with each basis arrow leaving cod x, and a
    composite that is an identity is neither kept nor extended.  Raises
    UnknownArrow for a bad basis (_check_arrows: a str, a non-iterable, O,
    an unknown or identity id) and NotGenerated for an unreachable arrow.
    """
    basis = [a.id for a in _check_arrows(category, basis)]
    arrows, table = category.arrows, category.table
    members = set(basis)
    basis_out = {o: [a.id for a in leaving if a.id in members] for o, leaving in category.out_arrows.items()}
    lengths = dict.fromkeys(basis, 1)
    queue = list(basis)  # breadth first: the loop reads what it appends
    for reached in queue:
        depth = lengths[reached]
        for e in basis_out[arrows[reached].cod]:
            composite = table[(reached, e)]
            if arrows[composite].is_identity:
                continue  # lands outside the vector space
            if composite not in lengths:
                lengths[composite] = depth + 1
                queue.append(composite)
    try:
        return {v: lengths[v] for v in category.vectors}
    except KeyError:
        raise NotGenerated(v for v in category.vectors if v not in lengths) from None


def distance(category: FiniteCategory, norms: dict[str, int], f: Vector, g: Vector) -> int:
    """min ||l|| over vectors l (including O) with f = g (+) l.

    Raises NoDifference when no such l exists.
    """
    _check_vector(category, f)
    _check_vector(category, g)
    best = 0 if f == g else None  # l = O, as g (+) O = g and ||O|| = 0
    for l in category.vectors:
        try:
            if vec_add(category, g, l) == f:
                best = norms[l] if best is None else min(best, norms[l])
        except (NotComposable, CompositeIsIdentity):
            continue
    if best is None:
        raise NoDifference("no vector l with %r = %r (+) l" % (f, g))
    return best
