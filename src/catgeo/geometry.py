"""Inner, outer (wedge), and geometric products of arrow vectors.

Products map into multivectors with an integer scalar part and integer
coefficients on canonical bivector blades.  The coefficient ring is the
signed integers: the stated scalars are all natural numbers, but blade
cancellation on orthogonal pairs (f∧g + g∧f = 0) needs additive inverses.

A blade stores its two vectors in the canonical arrow order (lexicographic
on id); wedging in the reversed order contributes coefficient -1.  The
blade "area" is not stored, being derivable as ||first|| × ||second||.

Arguments are checked once, at the public functions: `_check_vector`
returns the Arrow of each vector (None for O) or raises UnknownArrow.
Norms are a plain dict of arrow id to length; O annihilates, so it needs
none.  Past that boundary one private kernel, `_product`, computes fg of
two non-zero vectors as plain values; the real-line backend shares it.
It makes distinct f and g that compose in neither order anticommute, so
the law survey runs it only on the basis squares (`clifford_report`) and
on the pairs that compose (`_near_rows`): every other table row is zero.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import chain, repeat

from .category import Arrow, FiniteCategory
from .vectors import Vector, _check_vector


#: canonical grade-2 blade: first < second in the carrier order
Blade2 = namedtuple("Blade2", "first second")


def format_terms(scalar, terms) -> str:
    """Text form of scalar + Σ coefficient (first∧second), terms in canonical order."""
    parts = [str(scalar)] if scalar != 0 or not terms else []
    for first, second, c in terms:
        coeff = "" if abs(c) == 1 else "%s*" % abs(c)
        parts.append("%s %s(%s∧%s)" % ("+" if c > 0 else "-", coeff, first, second))
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


_ZERO_PRODUCT = (0, None, 0)  #: kernel value of a product with the zero vector


def _product(f, g, cod_f, dom_g, norm_f, norm_g):
    """fg of two checked non-zero vectors: (scalar, blade, coefficient).

    When g = f or cod(f) = dom(g), fg is the scalar ||f|| × ||g|| and the
    blade is None.  Otherwise fg is the oriented blade f∧g: the pair in
    canonical order, with coefficient +1, or -1 when g comes first.
    """
    if f == g or cod_f == dom_g:
        return norm_f * norm_g, None, 0
    return (0, (f, g), 1) if f < g else (0, (g, f), -1)


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
    return Multivector(scalar, None if blade is None else {Blade2(*blade): coefficient})


def _fg(norms: dict[str, int], a: Arrow | None, b: Arrow | None):
    """The kernel on two checked vectors given as arrows; O (None) annihilates."""
    if a is None or b is None:
        return _ZERO_PRODUCT
    return _product(a.id, b.id, a.cod, b.dom, norms[a.id], norms[b.id])


def inner(category: FiniteCategory, norms: dict[str, int], f: Vector, g: Vector) -> int:
    """||f|| × ||g|| when g = f or cod(f) = dom(g); 0 otherwise.

    Asymmetric when only one composite exists; O is orthogonal to everything.
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


def _near_rows(category: FiniteCategory, norms: dict[str, int]) -> Iterator[tuple]:
    """For each f in canonical order, (f, near): the rows (position of g in
    category.vectors, g, scalar, blade, coefficient) of fg + gf for g = f
    and each g that composes with f in either order, by position.  The
    kernel runs on these pairs only, fg then gf; every other row is zero.
    """
    product, arrows = _product, category.arrows
    ends = [(g, arrows[g].dom, arrows[g].cod, norms[g]) for g in category.vectors]
    leaving, entering = {}, {}  # object -> positions of the arrows from it, into it
    for j, (_, dom, cod, _) in enumerate(ends):
        leaving.setdefault(dom, []).append(j)
        entering.setdefault(cod, []).append(j)
    for i, (f, dom_f, cod_f, norm_f) in enumerate(ends):
        near = []
        for j in sorted({i, *leaving.get(cod_f, ()), *entering.get(dom_f, ())}):
            g, dom_g, cod_g, norm_g = ends[j]
            fg = product(f, g, cod_f, dom_g, norm_f, norm_g)
            near.append((j, g, *_add(fg, product(g, f, cod_g, dom_f, norm_g, norm_f))))
        yield f, near


def anticommutator_table(category: FiniteCategory, norms: dict[str, int]) -> Iterator[tuple]:
    """fg + gf for every ordered pair of non-identity arrows, in canonical order.

    One row (f, g, scalar, terms) per pair, terms as in Multivector.terms():
    the rows of `_near_rows`, with the zero rows (0, ()) between them made
    and passed on in C.  The result is a one-shot iterator: take list() of
    it to read the rows twice, count or index them.  Nothing runs before
    the first next(), so a missing norm raises KeyError while the rows are
    read, by the rows of its own arrow at the latest, not at the call.
    """
    vectors = category.vectors

    def runs():
        for f, near in _near_rows(category, norms):
            start = 0
            for j, g, scalar, blade, c in near:
                yield zip(repeat(f), vectors[start:j], repeat(0), repeat(()))
                yield ((f, g, scalar, () if blade is None else ((blade[0], blade[1], c),)),)
                start = j + 1
            yield zip(repeat(f), vectors[start:], repeat(0), repeat(()))

    return chain.from_iterable(runs())


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

    Every basis square is computed.  Distinct f and g fail fg = -gf
    exactly when they compose in one order only, say cod f = dom g, and
    ||f|| × ||g|| = 0: then fg = 0 and gf is a blade.  Each such pair is
    reported in both orders, in canonical (f-major) order.
    """
    unit_failures = []
    for e in basis:
        a = _check_vector(category, e)
        square = _fg(norms, a, a)
        if square != (1, None, 0):
            unit_failures.append((e, _as_multivector(*square)))
    anti_failures = []
    arrows, out_arrows = category.arrows, category.out_arrows
    for f in category.vectors:
        a, norm_f = arrows[f], norms[f]
        # cod g != dom f also rules out g = f: f leaves cod f only when dom f = cod f
        for b in out_arrows[a.cod]:
            if not b.is_identity and b.cod != a.dom and not norm_f * norms[b.id]:
                anti_failures += ((f, b.id), (b.id, f))
    anti_failures.sort()
    return CliffordReport(unit_failures, anti_failures)
