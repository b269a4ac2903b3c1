import re
import sys
from fractions import Fraction

import pytest

from catgeo import (
    ZERO,
    Multivector,
    NotComposable,
    ParseError,
    UnknownArrow,
    interval,
    interval_add,
    interval_norm,
    interval_products,
    parse_endpoint,
    split,
)


class TestParsing:
    def test_decimal_literal(self):
        assert parse_endpoint("3.141") == Fraction(3141, 1000)

    def test_fraction_literal(self):
        assert parse_endpoint("22/7") == Fraction(22, 7)

    def test_bad_literal(self):
        with pytest.raises(ParseError):
            parse_endpoint("pi")

    def test_exponent_literal(self):
        assert parse_endpoint("2.5e-3") == Fraction(1, 400)
        assert parse_endpoint("1E+2") == 100

    @pytest.mark.parametrize("sign", ["", "+", "-"])
    def test_exponent_beyond_the_digit_limit_rejected(self, sign):
        # Fraction would build 10**exponent and not finish
        limit = sys.get_int_max_str_digits()
        assert parse_endpoint("1e%s%d" % (sign, limit)) == Fraction(10) ** int("%s%d" % (sign, limit))
        for exponent in (limit + 1, 999999999, "9" * 5000):
            with pytest.raises(ParseError, match="exponent"):
                parse_endpoint("1e%s%s" % (sign, exponent))

    def test_format_round_trip(self):
        for text in ("3.14", "22/7", "5", "-1/3"):
            value = parse_endpoint(text)
            assert parse_endpoint(str(value)) == value


class TestIntervalArrow:
    def test_requires_strict_order(self):
        with pytest.raises(ValueError):
            interval("1", "1")
        with pytest.raises(ValueError):
            interval("2", "1")


class TestNorm:
    def test_pi_digits(self):
        assert interval_norm(interval("3.14", "3.141")) == Fraction(1, 1000)

    def test_unit(self):
        assert interval_norm(interval("0", "1")) == 1

    def test_half_step(self):
        assert interval_norm(interval("3.14", "3.1405")) == Fraction(5, 10000)

    def test_zero_vector(self):
        assert interval_norm(ZERO) == 0


class TestAdd:
    def test_glue(self):
        f = interval("3.14", "3.1405")
        g = interval("3.1405", "3.141")
        assert interval_add(f, g) == interval("3.14", "3.141")

    def test_zero_units(self):
        f = interval("0", "1")
        assert interval_add(ZERO, f) == f
        assert interval_add(f, ZERO) == f
        assert interval_add(ZERO, ZERO) is ZERO

    def test_undefined(self):
        with pytest.raises(NotComposable):
            interval_add(interval("0", "1"), interval("2", "3"))

    def test_additivity_of_norm(self):
        f = interval("0", "22/7")
        g, h = split(f)
        assert interval_norm(g) + interval_norm(h) == interval_norm(f)


class TestSplit:
    def test_always_succeeds(self):
        for lo, hi in (("0", "1"), ("3.14", "3.141"), ("-5", "-1/3")):
            f = interval(lo, hi)
            g, h = split(f)
            assert interval_add(g, h) == f


class TestProducts:
    def test_composable_pair(self):
        f, g = interval("0", "1"), interval("1", "3")
        inner_fg, outer_fg, geom_fg = interval_products(f, g)
        assert inner_fg == 2
        assert outer_fg.is_zero()
        assert geom_fg == Multivector(Fraction(2))

    def test_orthogonal_pair(self):
        f, g = interval("0", "1"), interval("2", "3")
        inner_fg, _, geom_fg = interval_products(f, g)
        inner_gf, _, geom_gf = interval_products(g, f)
        assert inner_fg == 0
        assert inner_gf == 0
        anticomm = geom_fg + geom_gf
        assert anticomm.is_zero()

    def test_self_square(self):
        f = interval("0", "2")
        assert interval_products(f, f)[2] == Multivector(Fraction(4))

    def test_outer_antisymmetry(self):
        f, g = interval("0", "1"), interval("2", "3")
        assert interval_products(f, g)[1] == -interval_products(g, f)[1]

    def test_zero_vector_annihilates(self):
        f = interval("1/2", "3/4")
        assert interval_products(f, ZERO)[0] == 0
        assert interval_products(ZERO, f)[1].is_zero()
        assert interval_products(f, ZERO)[2].is_zero()


class TestArguments:
    # each function takes an IntervalArrow, or O where it takes O, and
    # refuses anything else with UnknownArrow naming it by its repr
    @pytest.mark.parametrize(
        "call, refused",
        [
            (lambda: interval_add((0, 1), (1, 2)), "(0, 1)"),
            (lambda: interval_add(ZERO, "x"), "'x'"),
            (lambda: interval_add(interval(0, 1), None), "None"),
            (lambda: interval_norm("x"), "'x'"),
            (lambda: interval_norm((0, 1)), "(0, 1)"),
            (lambda: interval_products(interval(0, 1), None), "None"),
            (lambda: interval_products((0, 1), (1, 2)), "(0, 1)"),
            (lambda: interval_products(ZERO, 5), "5"),
            (lambda: split(ZERO), "O"),
            (lambda: split((0, 1)), "(0, 1)"),
        ],
        ids=[
            "add tuples",
            "add O and str",
            "add arrow and None",
            "norm str",
            "norm tuple",
            "products arrow and None",
            "products tuples",
            "products O and int",
            "split O",
            "split tuple",
        ],
    )
    def test_anything_but_an_interval_arrow_or_o_is_refused(self, call, refused):
        with pytest.raises(UnknownArrow, match="^%s is no interval " % re.escape(refused)):
            call()
