"""Inner, outer (wedge), and geometric products of arrow vectors.

Products map into multivectors with an integer scalar part and integer
coefficients on canonical bivector blades.  The coefficient ring is the
signed integers: the stated scalars are all natural numbers, but blade
cancellation on orthogonal pairs (f∧g + g∧f = 0) needs additive inverses.

A blade stores its two vectors in the canonical arrow order (lexicographic
on id); wedging in the reversed order contributes coefficient -1.  The
blade "area" is not stored, being derivable as ||first|| × ||second||.

Arguments are checked once, at the public functions: every vector must be
O or a non-identity arrow of the category, else UnknownArrow.  Past that
boundary one private kernel, `_product`, computes fg of two non-zero
vectors as plain values; the real-line backend shares it.  The survey
functions (`clifford_report`, `anticommutator_table`) read each arrow's
dom, cod and norm once and then run the kernel over every pair, building
a Multivector only for what they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .category import FiniteCategory
from .vectors import Basis, NormTable, Vector, _check_vector, is_zero


@dataclass(frozen=True, order=True)
class Blade2:
    """Canonical grade-2 blade: first < second in the carrier order."""

    first: Any
    second: Any


def format_terms(scalar, terms) -> str:
    """Text form of scalar + Σ coefficient (first∧second), terms in canonical order."""
    parts = []
    if scalar != 0 or not terms:
        parts.append(str(scalar))
    for first, second, c in terms:
        sign = "+" if c > 0 else "-"
        mag = abs(c)
        coeff = "" if mag == 1 else "%s*" % mag
        parts.append("%s %s(%s∧%s)" % (sign, coeff, first, second))
    return " ".join(parts)


class Multivector:
    """Scalar plus signed combination of canonical bivector blades.

    Canonical form never stores a zero blade coefficient; equality is
    field-wise equality of canonical forms.  Scalars are integers for
    category arrows and exact rationals for the real-line backend.
    """

    def __init__(self, scalar=0, blades=None):
        self.scalar = scalar
        self.blades = {b: c for b, c in (blades or {}).items() if c != 0}

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def from_blade(cls, blade: Blade2, coefficient=1):
        return cls(0, {blade: coefficient})

    def is_zero(self) -> bool:
        return self.scalar == 0 and not self.blades

    def terms(self) -> list[tuple[Any, Any, int]]:
        """(first, second, coefficient) per blade, in canonical blade order."""
        return [(b.first, b.second, self.blades[b]) for b in sorted(self.blades)]

    def __add__(self, other: "Multivector") -> "Multivector":
        blades = dict(self.blades)
        for b, c in other.blades.items():
            blades[b] = blades.get(b, 0) + c
        return Multivector(self.scalar + other.scalar, blades)

    def __neg__(self) -> "Multivector":
        return Multivector(-self.scalar, {b: -c for b, c in self.blades.items()})

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.scalar == other.scalar and self.blades == other.blades

    def __hash__(self):
        return hash((self.scalar, frozenset(self.blades.items())))

    def __repr__(self):
        return format_terms(self.scalar, self.terms())


#: kernel value of a product with the zero vector
_ZERO_PRODUCT = (0, None, 0)


def _product(f, g, cod_f, dom_g, norm_f, norm_g):
    """fg of two checked non-zero vectors: (scalar, blade, coefficient).

    When g = f or cod(f) = dom(g), fg is the scalar ||f|| × ||g|| and the
    blade is None.  Otherwise fg is the oriented blade f∧g: the pair in
    canonical order, with coefficient +1, or -1 when g comes first.
    """
    if f == g or cod_f == dom_g:
        return norm_f * norm_g, None, 0
    if f < g:
        return 0, (f, g), 1
    return 0, (g, f), -1


def _add(fg, gf):
    """fg + gf of two kernel values of the same pair, again as one."""
    scalar = fg[0] + gf[0]
    if fg[1] is None:
        return scalar, gf[1], gf[2]
    if gf[1] is None:
        return scalar, fg[1], fg[2]
    c = fg[2] + gf[2]  # both blades are the pair {f, g} in canonical order
    return (scalar, fg[1], c) if c else (scalar, None, 0)


def _as_multivector(scalar, blade, coefficient) -> Multivector:
    if blade is None:
        return Multivector(scalar)
    return Multivector(scalar, {Blade2(*blade): coefficient})


def _fg(category: FiniteCategory, norms: NormTable, f: Vector, g: Vector):
    """The kernel on two already checked vectors; O annihilates."""
    if is_zero(f) or is_zero(g):
        return _ZERO_PRODUCT
    arrows = category.arrows
    return _product(f, g, arrows[f].cod, arrows[g].dom, norms[f], norms[g])


def _check_pair(category: FiniteCategory, f: Vector, g: Vector) -> None:
    _check_vector(category, f)
    _check_vector(category, g)


def inner(category: FiniteCategory, norms: NormTable, f: Vector, g: Vector) -> int:
    """||f|| × ||g|| when g = f or cod(f) = dom(g); 0 otherwise.

    Asymmetric by design when only one composite exists.  The zero vector
    is orthogonal to everything, itself included.
    """
    _check_pair(category, f, g)
    return _fg(category, norms, f, g)[0]


def is_orthogonal(category: FiniteCategory, norms: NormTable, f: Vector, g: Vector) -> bool:
    """Neither composite exists: f·g = g·f = 0."""
    _check_pair(category, f, g)
    return _fg(category, norms, f, g)[0] == 0 and _fg(category, norms, g, f)[0] == 0


def is_parallel(category: FiniteCategory, f: Vector, g: Vector) -> bool:
    """f = g, or both composites g∘f and f∘g exist.  Non-zero vectors only."""
    _check_pair(category, f, g)
    if is_zero(f) or is_zero(g):
        raise ValueError("parallelism is defined for non-zero vectors")
    return f == g or (category.composable(f, g) and category.composable(g, f))


def outer(category: FiniteCategory, norms: NormTable, f: Vector, g: Vector) -> Multivector:
    """f∧g: an oriented bivector when the pair neither composes nor coincides."""
    _check_pair(category, f, g)
    _, blade, coefficient = _fg(category, norms, f, g)
    return _as_multivector(0, blade, coefficient)


def blade_area(norms: NormTable, blade: Blade2) -> int:
    return norms[blade.first] * norms[blade.second]


def geometric(category: FiniteCategory, norms: NormTable, f: Vector, g: Vector) -> Multivector:
    """fg = f·g + f∧g; for f = g non-zero this is the scalar ||f||²."""
    _check_pair(category, f, g)
    return _as_multivector(*_fg(category, norms, f, g))


def anticommutator(category: FiniteCategory, norms: NormTable, f: Vector, g: Vector) -> Multivector:
    """fg + gf under componentwise addition."""
    _check_pair(category, f, g)
    return _as_multivector(*_add(_fg(category, norms, f, g), _fg(category, norms, g, f)))


def _pair_products(category: FiniteCategory, norms: NormTable):
    """(f, g, fg, gf) in kernel values for every ordered pair of non-identity
    arrows, in canonical order; dom, cod and norm are read once per arrow."""
    arrows = category.arrows
    ends = [(v, arrows[v].dom, arrows[v].cod, norms[v]) for v in category.non_identity_arrows()]
    for f, dom_f, cod_f, norm_f in ends:
        for g, dom_g, cod_g, norm_g in ends:
            yield f, g, _product(f, g, cod_f, dom_g, norm_f, norm_g), _product(g, f, cod_g, dom_f, norm_g, norm_f)


def anticommutator_table(category: FiniteCategory, norms: NormTable) -> list[tuple]:
    """fg + gf for every ordered pair of non-identity arrows, in canonical order.

    One row (f, g, scalar, terms) per pair, with terms as in
    Multivector.terms(): the values anticommutator gives, without a
    Multivector per pair.
    """
    rows = []
    for f, g, fg, gf in _pair_products(category, norms):
        scalar, blade, c = _add(fg, gf)
        rows.append((f, g, scalar, () if blade is None else ((blade[0], blade[1], c),)))
    return rows


@dataclass
class CliffordReport:
    """Counterexamples to the two Clifford conditions (expected: none)."""

    unit_square_failures: list[tuple[str, Multivector]]
    anticommutation_failures: list[tuple[str, str]]

    @property
    def holds(self) -> bool:
        return not self.unit_square_failures and not self.anticommutation_failures


def clifford_report(category: FiniteCategory, norms: NormTable, basis: Basis) -> CliffordReport:
    """Check e² = 1 for basis arrows and fg = -gf on orthogonal pairs.

    Every basis square and both products of every ordered pair of distinct
    arrows are computed; a pair is orthogonal when both scalars are 0.
    """
    unit_failures = []
    for e in basis:
        _check_vector(category, e)
        square = _fg(category, norms, e, e)
        if square != (1, None, 0):
            unit_failures.append((e, _as_multivector(*square)))
    anti_failures = [
        (f, g)
        for f, g, fg, gf in _pair_products(category, norms)
        if f != g and fg[0] == 0 and gf[0] == 0 and fg != (0, gf[1], -gf[2])
    ]
    return CliffordReport(unit_failures, anti_failures)
