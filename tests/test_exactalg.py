import pickle
import random
import re
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holopoisson.errors import ChartError, ParseError
from holopoisson.exactalg import (
    GQ,
    Chart,
    Poly,
    format_gq,
    parse_gq,
    parse_poly,
)

from holopoisson.serialize import parse_chart

from oracles import (
    FractionGQ,
    convert_chart,
    format_fraction_gq,
    is_conj_fixed,
    rand_poly,
)


def C(n):
    return Chart.complex(n)


def R(n):
    return Chart.real(n)


# ----------------------------------------------------------------------
# scalars

def test_gq_arithmetic_and_division():
    a = GQ(1, 2)
    b = GQ(-3, 4)
    assert a + b == GQ(-2, 6)
    assert a * b == GQ(-3 - 8, 4 - 6)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / GQ(0)


@pytest.mark.parametrize("text", ["3", "-1/2", "i", "-i", "3i", "-1/2i",
                                  "(1/2-3i)", "(2+i)", "(-1/2+3i)"])
def test_gq_parse_print_roundtrip(text):
    value = parse_gq(text)
    assert parse_gq(format_gq(value)) == value


def test_gq_canonical_strings():
    assert format_gq(GQ(0)) == "0"
    assert format_gq(GQ(2, 0)) == "2"
    assert format_gq(GQ(0, 1)) == "i"
    assert format_gq(GQ(0, -1)) == "-i"
    assert format_gq(GQ("1/2", -3)) == "(1/2-3i)"


def test_gq_hash_agrees_with_equality():
    assert GQ(3) == 3 and len({GQ(3), 3}) == 1
    assert GQ(-1) == -1 and hash(GQ(-1)) == hash(-1)
    half = Fraction(1, 2)
    assert GQ(half) == half and len({GQ(half), half}) == 1
    assert len({GQ(2, 0), GQ(Fraction(4, 2)), 2, Fraction(2)}) == 1
    assert GQ(0, 1) != 0 and GQ(1, 1) != 1
    assert len({GQ(1, 1), GQ(Fraction(2, 2), 1)}) == 1
    # a denominator with no inverse modulo the hash modulus hashes as inf
    p = sys.hash_info.modulus
    for value in (Fraction(-3, 2), Fraction(1, p), Fraction(-5, 2 * p)):
        assert hash(GQ(value)) == hash(value)


def test_gq_constructor_follows_the_scalar_grammar():
    assert GQ("1/2") == Fraction(1, 2)
    assert GQ("-6/4", "+3") == GQ(Fraction(-3, 2), 3)
    for bad in ["1e3", "1.5", "1_000", " 1", "i", "1/0", "1/-2", ""]:
        with pytest.raises(ParseError):
            GQ(bad)
        with pytest.raises(ParseError):
            GQ(0, bad)
    for bad in [0.1, 1.5, 3.0]:
        with pytest.raises(TypeError):
            GQ(bad)
        with pytest.raises(TypeError):
            GQ(1, bad)
        with pytest.raises(TypeError):
            GQ(1) * bad
        with pytest.raises(TypeError):
            bad + GQ(1)


def _canonical(x: GQ) -> bool:
    return (type(x.a) is int and type(x.b) is int and type(x.d) is int
            and x.d > 0 and gcd(x.a, x.b, x.d) == 1)


def _same(got: GQ, want: FractionGQ):
    """got is canonical, has want's value and prints as want did."""
    assert type(got) is GQ and _canonical(got)
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == (want.re, want.im)
    if want.is_real():
        assert got == want.re and hash(got) == hash(want.re)
    else:
        assert got != want.re
    text = format_gq(got)
    assert text == format_fraction_gq(want)
    assert parse_gq(text) == got


# parts of height up to 2^100, with zeros, denominators of 1, small
# values (so that sums cancel and values coincide) and negative signs
_NUMERATORS = st.one_of(st.integers(-3, 3), st.integers(-2**100, 2**100))
_DENOMINATORS = st.one_of(st.just(1), st.integers(1, 6),
                          st.integers(1, 2**100))
_PARTS = st.one_of(_NUMERATORS, st.builds(Fraction, _NUMERATORS,
                                          _DENOMINATORS))
_PAIRS = st.tuples(_PARTS, _PARTS)


@settings(max_examples=400, deadline=None)
@given(x=_PAIRS, y=_PAIRS, n=_NUMERATORS)
def test_gq_agrees_with_fraction_reference(x, y, n):
    a, b = GQ(*x), GQ(*y)
    fa, fb = FractionGQ(*x), FractionGQ(*y)
    _same(a, fa)
    _same(a + b, fa + fb)
    _same(a - b, fa - fb)
    _same(a * b, fa * fb)
    _same(-a, -fa)
    _same(a.conj(), fa.conj())
    # int and Fraction operands on either side
    _same(a * n, fa * n)
    _same(n * a, n * fa)
    _same(a + y[0], fa + y[0])
    _same(y[0] - a, y[0] - fa)
    if fb.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        _same(a / b, fa / fb)
        _same(n / b, n / fb)
    assert a.is_zero() == fa.is_zero() and (a.im == 0) == fa.is_real()
    # equality and hashing, also against ints and Fractions
    assert (a == b) == (fa == fb)
    if a == b:
        assert hash(a) == hash(b)
    for other in (x[0], n, Fraction(n, 7)):
        assert (a == other) == (fa == other)
        if a == other:
            assert hash(a) == hash(other) and len({a, other}) == 1


@given(x=_PAIRS)
def test_gq_division_by_zero_raises(x):
    a = GQ(*x)
    for zero in (GQ(0), GQ(Fraction(0, 5), 0), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            a / zero
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 3) / GQ(0)


# ----------------------------------------------------------------------
# polynomial arithmetic: worked examples

def test_additive_inverse():
    z1 = Poly.var(C(2), 0)
    assert (z1 + (-z1)).is_zero()


def test_difference_of_squares():
    c = C(1)
    z1, zb1 = Poly.var(c, 0), Poly.var(c, 1)
    assert (z1 + zb1) * (z1 - zb1) == z1 * z1 - zb1 * zb1


def test_scale_cancellation():
    c = C(2)
    z2 = Poly.var(c, 1)
    assert z2.scale(4).scale(GQ("1/4")) == z2


def test_diff_power_rule():
    c = C(2)
    z1, zb2 = Poly.var(c, 0), Poly.var(c, 3)
    assert (z1 * z1 * zb2).diff(0) == z1.scale(2) * zb2
    assert zb2.diff(0).is_zero()


def test_diff_real_chart():
    r = R(1)
    x1, y1 = Poly.var(r, 0), Poly.var(r, 1)
    assert (x1 * y1).diff(1) == x1


def test_diff_unknown_variable():
    with pytest.raises(ChartError):
        Poly.var(C(1), 0).diff(5)


def test_conj_examples():
    c = C(2)
    z1, zb1, zb2 = Poly.var(c, 0), Poly.var(c, 2), Poly.var(c, 3)
    assert z1.scale(GQ.i()).conj() == zb1.scale(GQ(0, -1))
    f = (Poly.var(c, 0) * zb2).scale(GQ(2, 1))
    assert f.conj().conj() == f
    assert (z1 + zb1).conj() == z1 + zb1


def test_conj_requires_complex_chart():
    with pytest.raises(ChartError):
        Poly.var(R(1), 0).conj()


def test_convert_chart_examples():
    c, r = C(1), R(1)
    z1 = Poly.var(c, 0)
    x1, y1 = Poly.var(r, 0), Poly.var(r, 1)
    assert convert_chart(z1, r) == x1 + y1.scale(GQ.i())
    assert convert_chart(x1 * x1 + y1 * y1, c) == z1 * Poly.var(c, 1)
    f = (z1 * Poly.var(c, 1)).scale(GQ("3/2"))
    assert convert_chart(convert_chart(f, r), c) == f


def test_convert_chart_dimension_mismatch():
    with pytest.raises(ChartError):
        convert_chart(Poly.var(C(2), 0), R(1))


# ----------------------------------------------------------------------
# properties

def test_ring_laws_random():
    rng = random.Random(101)
    for chart in (C(2), R(2)):
        for _ in range(40):
            f = rand_poly(rng, chart)
            g = rand_poly(rng, chart)
            h = rand_poly(rng, chart)
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h


def test_diff_commutes():
    rng = random.Random(7)
    chart = C(2)
    for _ in range(30):
        f = rand_poly(rng, chart, deg=4)
        u, v = rng.randrange(4), rng.randrange(4)
        assert f.diff(u).diff(v) == f.diff(v).diff(u)


def test_conj_is_ring_involution():
    rng = random.Random(13)
    chart = C(2)
    for _ in range(30):
        f = rand_poly(rng, chart)
        g = rand_poly(rng, chart)
        assert (f * g).conj() == f.conj() * g.conj()
        assert f.conj().conj() == f


def test_conj_fixed_predicate():
    rng = random.Random(17)
    r = R(2)
    for _ in range(20):
        f = Poly(r, {e: GQ(c.re) for e, c in rand_poly(rng, r).terms.items()})
        g = Poly(r, {e: GQ(c.re) for e, c in rand_poly(rng, r).terms.items()})
        assert is_conj_fixed(f) and is_conj_fixed(g)
        assert is_conj_fixed(f + g) and is_conj_fixed(f * g)
    assert not is_conj_fixed(Poly.var(r, 0).scale(GQ.i()))


def test_convert_chart_is_ring_isomorphism():
    rng = random.Random(23)
    c, r = C(2), R(2)
    for _ in range(25):
        f = rand_poly(rng, c)
        g = rand_poly(rng, c)
        assert convert_chart(f * g, r) == convert_chart(f, r) * convert_chart(g, r)
        assert convert_chart(f + g, r) == convert_chart(f, r) + convert_chart(g, r)


def test_empty_chart_is_legal():
    c = C(0)
    one = Poly.one(c)
    assert (one * one) == one
    assert str(Poly.zero(c)) == "0"
    moved = convert_chart(Poly.const(c, GQ(3, 1)), R(0))
    assert moved.chart == R(0)
    assert convert_chart(moved, c) == Poly.const(c, GQ(3, 1))


def test_arithmetic_chart_mismatch():
    with pytest.raises(ChartError):
        Poly.var(C(1), 0) + Poly.var(C(2), 0)
    with pytest.raises(ChartError):
        Poly.var(C(1), 0) * Poly.var(R(1), 0)


def test_evaluate_at_rational_points():
    c = C(2)
    f = parse_poly("(1+i) z1^2 zb2 + 3", c)
    value = f.evaluate([GQ(2), GQ(0), GQ(0), GQ(0, 1)])
    # (1+i) * 4 * i + 3 = (-4+4i) + 3
    assert value == GQ(-1, 4)
    with pytest.raises(ChartError):
        f.evaluate([GQ(1)])


# ----------------------------------------------------------------------
# grammar

def test_parse_grammar_example():
    c = C(2)
    f = parse_poly("(-1/2+3i) z1^2 zb2", c)
    exps = (2, 0, 0, 1)
    assert f.terms == {exps: GQ("-1/2", 3)}


def test_parse_print_roundtrip_random():
    rng = random.Random(31)
    for chart in (C(2), R(3)):
        for _ in range(40):
            f = rand_poly(rng, chart, deg=3)
            assert parse_poly(str(f), chart) == f


def test_parse_rejects_garbage():
    c = C(1)
    for bad in ["", "z9", "x1", "z1^", "((2)", "z1 +"]:
        with pytest.raises(ParseError):
            parse_poly(bad, c)


def test_scalar_grammar_rejects_decimals_and_exponents():
    for bad in ["1e3", "1.5", "1_000", "(1e3+i)", "2.0i", "1/0", "1/-2"]:
        with pytest.raises(ParseError):
            parse_gq(bad)
    with pytest.raises(ParseError):
        parse_poly("1e3 z1", C(1))
    assert parse_gq("-12/8") == GQ("-3/2")


def test_parenthesised_scalar_needs_no_space_before_a_variable():
    c = C(2)
    spaced = parse_poly("(1/2+3i) z1", c)
    assert parse_poly("(1/2+3i)z1", c) == spaced
    assert parse_poly("(1/2+3i)*z1", c) == spaced
    assert parse_poly("z1 (1/2+3i)", c) == spaced
    assert parse_poly("2 (1/2+3i)z1^2 zb2", c) == parse_poly(
        "(1+6i) z1^2 zb2", c)


def test_canonical_order_is_graded_lex():
    c = C(1)
    f = parse_poly("1 + z1^2 + z1 + zb1", c)
    assert str(f) == "z1^2 + z1 + zb1 + 1"


# ----------------------------------------------------------------------
# one Chart per kind and size; the public constructors keep their checks

def test_one_chart_per_kind_and_size():
    assert parse_chart({"kind": "complex", "n": 3}) is Chart.complex(3)
    assert Chart("real", 2) is Chart.real(2) is R(2)
    assert Chart.complex(2) is not Chart.real(2)
    assert Chart.complex(2) != Chart.complex(3)
    assert pickle.loads(pickle.dumps(C(2))) is C(2)
    assert hash(C(2)) == hash(("complex", 2))


def test_chart_refuses_bad_kind_and_size():
    with pytest.raises(ChartError, match="unknown chart kind 'quaternion'"):
        Chart("quaternion", 2)
    with pytest.raises(ChartError, match="chart dimension must be >= 0"):
        Chart("complex", -1)


def test_poly_refuses_bad_exponents():
    with pytest.raises(ChartError, match="negative exponent"):
        Poly(C(1), {(1, -1): 1})
    with pytest.raises(ChartError, match=re.escape(
            "exponent vector (1,) has wrong length for complex(1)")):
        Poly(C(1), {(1,): 1})
    with pytest.raises(ChartError, match="negative exponent"):
        Poly.monomial(C(1), (0, -2))
    with pytest.raises(ChartError, match=re.escape(
            "exponent vector (1, 0, 0) has wrong length for complex(1)")):
        Poly.monomial(C(1), (1, 0, 0))
    with pytest.raises(ChartError, match="chart mismatch"):
        Poly.one(C(1)) * Poly.one(R(1))


def test_direct_constructors_equal_validated():
    """zero, one, const, var and monomial build their term maps directly;
    each equals the Poly that the validating constructor makes, and a
    product with a one-term constant is the scaled Poly."""
    chart = C(2)
    cases = [
        (Poly.zero(chart), {}),
        (Poly.one(chart), {(0, 0, 0, 0): 1}),
        (Poly.const(chart, GQ(0)), {}),
        (Poly.const(chart, Fraction(-1, 2)), {(0, 0, 0, 0): Fraction(-1, 2)}),
        (Poly.var(chart, 3), {(0, 0, 0, 1): 1}),
        (Poly.monomial(chart, [2, 0, 1, 0], GQ(1, 1)),
         {(2, 0, 1, 0): GQ(1, 1)}),
        (Poly.monomial(chart, (1, 0, 0, 0), 0), {}),
    ]
    for built, terms in cases:
        validated = Poly(chart, terms)
        assert built == validated and built.terms == validated.terms
    f = parse_poly("z1^2 zb2 - 3i z2 + 1/2", chart)
    for value in (GQ(2, -1), GQ(0)):
        assert f * Poly.const(chart, value) == f.scale(value)
        assert Poly.const(chart, value) * f == f.scale(value)
