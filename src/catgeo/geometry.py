"""Inner, outer (wedge), and geometric products of arrow vectors.

Products map into multivectors with an integer scalar part and integer
coefficients on canonical bivector blades.  The coefficient ring is the
signed integers: the stated scalars are all natural numbers, but blade
cancellation on orthogonal pairs (f∧g + g∧f = 0) needs additive inverses.

A blade stores its two vectors in the canonical arrow order (lexicographic
on id); wedging in the reversed order contributes coefficient -1.  The
blade "area" is not stored, being derivable as ||first|| × ||second||.

Arguments are checked once, at the public functions: `_check_vector`
returns the Arrow of each vector (None for O) and raises UnknownArrow
for anything but O or a non-identity arrow of the category, and the
product reads dom and cod from that Arrow.  Norms are a plain dict of
arrow id to length; O never needs one, as it annihilates.  Past that
boundary one private kernel, `_product`, computes fg of two non-zero
vectors as plain values; the real-line backend shares it.  The survey
functions (`clifford_report`, `anticommutator_table`) read each arrow's
dom, cod and norm once and then run the kernel once per unordered pair
{f, g}, building a Multivector only for what they return: fg = -gf and
fg + gf are the same for (f, g) as for (g, f), so each pair is computed
once and reported for both orders.  The table computes fg and gf of every
pair; the report computes gf only when the scalar of fg is 0, since a
pair with f·g != 0 is not orthogonal.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .category import Arrow, FiniteCategory
from .vectors import Vector, _check_vector


#: canonical grade-2 blade: first < second in the carrier order
Blade2 = namedtuple("Blade2", "first second")


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

    def is_zero(self) -> bool:
        return self.scalar == 0 and not self.blades

    def terms(self) -> list[tuple[object, object, int]]:
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


def _fg(norms: dict[str, int], a: Arrow | None, b: Arrow | None):
    """The kernel on two checked vectors, given as their arrows (None for O);
    O annihilates."""
    if a is None or b is None:
        return _ZERO_PRODUCT
    return _product(a.id, b.id, a.cod, b.dom, norms[a.id], norms[b.id])


def inner(category: FiniteCategory, norms: dict[str, int], f: Vector, g: Vector) -> int:
    """||f|| × ||g|| when g = f or cod(f) = dom(g); 0 otherwise.

    Asymmetric by design when only one composite exists.  The zero vector
    is orthogonal to everything, itself included.
    """
    return _fg(norms, _check_vector(category, f), _check_vector(category, g))[0]


def is_orthogonal(category: FiniteCategory, norms: dict[str, int], f: Vector, g: Vector) -> bool:
    """Neither composite exists: f·g = g·f = 0."""
    a, b = _check_vector(category, f), _check_vector(category, g)
    return _fg(norms, a, b)[0] == 0 and _fg(norms, b, a)[0] == 0


def is_parallel(category: FiniteCategory, f: Vector, g: Vector) -> bool:
    """f = g, or both composites g∘f and f∘g exist.  Non-zero vectors only."""
    a, b = _check_vector(category, f), _check_vector(category, g)
    if a is None or b is None:
        raise ValueError("parallelism is defined for non-zero vectors")
    return f == g or (a.cod == b.dom and b.cod == a.dom)


def outer(category: FiniteCategory, norms: dict[str, int], f: Vector, g: Vector) -> Multivector:
    """f∧g: an oriented bivector when the pair neither composes nor coincides."""
    _, blade, coefficient = _fg(norms, _check_vector(category, f), _check_vector(category, g))
    return _as_multivector(0, blade, coefficient)


def geometric(category: FiniteCategory, norms: dict[str, int], f: Vector, g: Vector) -> Multivector:
    """fg = f·g + f∧g; for f = g non-zero this is the scalar ||f||²."""
    return _as_multivector(*_fg(norms, _check_vector(category, f), _check_vector(category, g)))


def anticommutator(category: FiniteCategory, norms: dict[str, int], f: Vector, g: Vector) -> Multivector:
    """fg + gf under componentwise addition."""
    a, b = _check_vector(category, f), _check_vector(category, g)
    return _as_multivector(*_add(_fg(norms, a, b), _fg(norms, b, a)))


def _ends(category: FiniteCategory, norms: dict[str, int]) -> list[tuple]:
    """(id, dom, cod, norm) of every non-identity arrow, in canonical order."""
    arrows = category.arrows
    return [(v, arrows[v].dom, arrows[v].cod, norms[v]) for v in category.vectors]


def anticommutator_table(category: FiniteCategory, norms: dict[str, int]) -> list[tuple]:
    """fg + gf for every ordered pair of non-identity arrows, in canonical order.

    One row (f, g, scalar, terms) per pair, with terms as in
    Multivector.terms(): the values anticommutator gives, without a
    Multivector per pair.  fg + gf = gf + fg, so the kernel runs once per
    unordered pair and the row of (g, f) repeats the values of (f, g).
    """
    ends = _ends(category, norms)
    n = len(ends)
    rows = []
    for i, (f, dom_f, cod_f, norm_f) in enumerate(ends):
        for j, (g, dom_g, cod_g, norm_g) in enumerate(ends):
            if j < i:
                _, _, scalar, terms = rows[j * n + i]
                rows.append((f, g, scalar, terms))
                continue
            fg = _product(f, g, cod_f, dom_g, norm_f, norm_g)
            gf = _product(g, f, cod_g, dom_f, norm_g, norm_f)
            scalar, blade, c = _add(fg, gf)
            rows.append((f, g, scalar, () if blade is None else ((blade[0], blade[1], c),)))
    return rows


class CliffordReport(namedtuple("CliffordReport", "unit_square_failures anticommutation_failures")):
    """Counterexamples to the two Clifford conditions (expected: none).

    unit_square_failures: (basis arrow, its square) for each e with e² != 1;
    anticommutation_failures: (f, g) for each orthogonal pair with fg != -gf.
    """

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return not self.unit_square_failures and not self.anticommutation_failures


def clifford_report(category: FiniteCategory, norms: dict[str, int], basis: Sequence[str]) -> CliffordReport:
    """Check e² = 1 for basis arrows and fg = -gf on orthogonal pairs.

    Every basis square is computed, and fg of every unordered pair {f, g}
    of distinct arrows, f before g; gf is computed only when the scalar of
    fg is 0, as a pair is orthogonal when both scalars are 0.  fg = -gf is
    one condition for (f, g) and (g, f), so a failing pair is reported in
    both orders, in canonical (f-major) order.
    """
    unit_failures = []
    for e in basis:
        a = _check_vector(category, e)
        square = _fg(norms, a, a)
        if square != (1, None, 0):
            unit_failures.append((e, _as_multivector(*square)))
    anti_failures = []
    ends = _ends(category, norms)
    for i, (f, dom_f, cod_f, norm_f) in enumerate(ends):
        for g, dom_g, cod_g, norm_g in ends[i + 1 :]:
            fg = _product(f, g, cod_f, dom_g, norm_f, norm_g)
            if fg[0] == 0:
                gf = _product(g, f, cod_g, dom_f, norm_g, norm_f)
                if gf[0] == 0 and fg != (0, gf[1], -gf[2]):
                    anti_failures += ((f, g), (g, f))
    anti_failures.sort()
    return CliffordReport(unit_failures, anti_failures)
