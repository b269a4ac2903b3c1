"""Arrow vector space over the dense linear order of the rationals.

Arrows are ordered pairs lo < hi of exact rationals; composition glues
intervals that share an endpoint.  There are no atomic arrows here (every
interval splits at its midpoint), so the norm is taken directly as the
interval width rather than from a basis.  Endpoints are exact Fractions:
composability requires exact endpoint equality, which floats cannot give.
The products run the same kernel as the finite backend (geometry._product).
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import ParseError, UndefinedSum
from .geometry import Multivector, _as_multivector, _ZERO_PRODUCT, _product
from .vectors import ZERO, _ZeroVector, is_zero

#: the exponent digits of a decimal literal such as "2.5e-3", as Fraction reads them
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")


def parse_endpoint(text: str) -> Fraction:
    """Exact conversion of a decimal ("3.141") or fraction ("22/7") literal.

    An exponent ("1e-3") may be at most sys.get_int_max_str_digits() in
    magnitude, the limit Python puts on the digits of a plain integer
    literal: Fraction builds 10**exponent, which would not finish for
    "1e999999999".
    """
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        limit = sys.get_int_max_str_digits()
        # lengths first: int() of a long enough exponent would itself pass the limit
        if limit and (len(digits) > len(str(limit)) or int(digits or 0) > limit):
            raise ParseError("bad endpoint literal %r: exponent beyond %d" % (text, limit))
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad endpoint literal %r: %s" % (text, exc)) from None


def format_endpoint(value: Fraction) -> str:
    """Fraction string; integers are emitted without a denominator."""
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


class IntervalArrow(namedtuple("IntervalArrow", "lo hi")):
    """Arrow lo → hi of the real-line order category; lo < hi strictly.

    Arrows compare and sort as the pair (lo, hi).
    """

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction):
        if not lo < hi:
            raise ValueError("interval endpoints must satisfy lo < hi, got %s >= %s" % (lo, hi))
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def _make(cls, iterable):
        # the named tuple's own _make (and so _replace) skips __new__
        return cls(*iterable)

    def __repr__(self):
        return "(%s, %s)" % (format_endpoint(self.lo), format_endpoint(self.hi))


IntervalVector = _ZeroVector | IntervalArrow


def interval(lo, hi) -> IntervalArrow:
    """Build an arrow from endpoint literals or numbers."""
    if isinstance(lo, str):
        lo = parse_endpoint(lo)
    if isinstance(hi, str):
        hi = parse_endpoint(hi)
    return IntervalArrow(Fraction(lo), Fraction(hi))


def interval_norm(f: IntervalVector) -> Fraction:
    """hi - lo, strictly positive; ||O|| = 0."""
    if is_zero(f):
        return Fraction(0)
    return f.hi - f.lo


def interval_add(f: IntervalVector, g: IntervalVector) -> IntervalVector:
    """f (+) g: glues (lo(f), hi(f)) and (hi(f), hi(g)) when hi(f) = lo(g)."""
    if is_zero(f):
        return g
    if is_zero(g):
        return f
    if f.hi != g.lo:
        raise UndefinedSum("intervals %r and %r do not share an endpoint" % (f, g))
    return IntervalArrow(f.lo, g.hi)


def split(f: IntervalArrow) -> tuple[IntervalArrow, IntervalArrow]:
    """Midpoint split: f = g (+) h with both parts valid; always succeeds."""
    mid = (f.lo + f.hi) / 2
    return IntervalArrow(f.lo, mid), IntervalArrow(mid, f.hi)


def _fg(f: IntervalVector, g: IntervalVector):
    """The geometry kernel with width norms and hi(f) = lo(g) composability."""
    if is_zero(f) or is_zero(g):
        return _ZERO_PRODUCT
    return _product(f, g, f.hi, g.lo, interval_norm(f), interval_norm(g))


def interval_inner(f: IntervalVector, g: IntervalVector) -> Fraction:
    return Fraction(_fg(f, g)[0])


def interval_outer(f: IntervalVector, g: IntervalVector) -> Multivector:
    _, blade, coefficient = _fg(f, g)
    return _as_multivector(0, blade, coefficient)


def interval_geometric(f: IntervalVector, g: IntervalVector) -> Multivector:
    scalar, blade, coefficient = _fg(f, g)
    return _as_multivector(Fraction(scalar), blade, coefficient)


def interval_products(f: IntervalVector, g: IntervalVector):
    """(inner, outer, geometric) of the pair, with rational scalars."""
    scalar, blade, coefficient = _fg(f, g)
    scalar = Fraction(scalar)
    return scalar, _as_multivector(0, blade, coefficient), _as_multivector(scalar, blade, coefficient)
