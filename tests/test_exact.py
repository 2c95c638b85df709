"""Ring laws and serialization for the polynomial and matrix types."""

import inspect
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from freecumulants.errors import CapacityError
from freecumulants.exact import MAX_EXPONENT, Matrix, Poly, PolyRing, as_fraction, scalar_embed
from freecumulants.models import ClassicalSpec, MatrixModel, classical_expect

RING = PolyRing(("u", "v"))

fractions = st.fractions(
    min_value=-9, max_value=9, max_denominator=3
)


@st.composite
def polys(draw):
    p = RING.zero
    for _ in range(draw(st.integers(0, 4))):
        term = RING.const(draw(fractions))
        for _ in range(draw(st.integers(0, 2))):
            term = term * RING.var("u")
        for _ in range(draw(st.integers(0, 2))):
            term = term * RING.var("v")
        p = p + term
    return p


@st.composite
def matrices(draw):
    return Matrix([[RING.const(draw(fractions)) for _ in range(2)] for _ in range(2)])


def test_as_fraction_accepts_ints_strings_and_fractions():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("-7/2") == Fraction(-7, 2)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)


def test_poly_basics():
    u, v = RING.var("u"), RING.var("v")
    p = (u + v) * (u - v)
    assert p == u * u - v * v
    assert p.degree_in("u") == 2
    assert (p - p).is_zero
    assert RING.const(Fraction(5, 2)).constant_value() == Fraction(5, 2)
    assert (u * 0 + 7).constant_value() == Fraction(7)


def test_polys_compare_against_scalars():
    assert RING.zero == 0
    assert RING.one == 1
    assert RING.const(Fraction(3, 2)) == Fraction(3, 2)
    assert RING.var("u") != 1


def test_constant_polys_hash_like_their_scalars():
    for c in (3, Fraction(-7, 2), 0):
        p = RING.const(c)
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1
    assert len({RING.zero, RING.const(0), 0, Fraction(0)}) == 1


@given(polys(), polys(), polys())
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RING.zero == a
    assert a * RING.one == a
    assert a - a == RING.zero


@given(polys())
def test_poly_serialization_roundtrip(p):
    assert Poly.from_data(RING, p.to_data()) == p


def test_poly_data_format_is_monomial_keyed():
    u, v = RING.var("u"), RING.var("v")
    p = u * u * v * Fraction(3, 2) + 7
    assert p.to_data() == {"1": "7", "u^2 v^1": "3/2"}


@given(matrices(), matrices(), matrices())
def test_matrix_ring_laws(a, b, c):
    one = Matrix.identity(2, RING.one)
    assert a * one == a and one * a == a
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert (a * b).trace() == (b * a).trace()
    assert (a - a) * b == (one - one) * b


def test_normalized_trace_is_unital():
    one = Matrix.identity(3, RING.one)
    assert one.normalized_trace() == RING.one
    assert one.trace() == RING.const(Fraction(3))


def test_scalar_embed_multiplies_like_its_scalars():
    one = RING.one
    a = scalar_embed(Fraction(2, 3), 2, one)
    b = scalar_embed(3, 2, one)
    assert a * b == scalar_embed(2, 2, one)
    assert a.normalized_trace() == RING.const(Fraction(2, 3))


def test_matrix_dimension_mismatch_is_rejected():
    a = Matrix.identity(2, RING.one)
    b = Matrix.identity(3, RING.one)
    with pytest.raises(ValueError):
        a * b


def assert_canonical(p):
    assert p.den > 0
    assert all(type(c) is int and c != 0 for c in p.terms.values())
    assert math.gcd(p.den, *p.terms.values()) == 1


@given(polys(), polys(), fractions)
def test_every_operation_keeps_the_canonical_form(a, b, c):
    for p in (a + b, a - b, c - a, a * b, -a, a * c, a + c, Poly.from_data(RING, a.to_data())):
        assert_canonical(p)
    assert_canonical(Poly(RING, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-5, 6), (0, 0): 0}))
    assert_canonical(RING.const(Fraction(4, 6)) * RING.const(Fraction(3, 2)))


def test_the_largest_exponent_roundtrips():
    p = RING.const(Fraction(1, 2)) * RING.var("v")
    for _ in range(MAX_EXPONENT):
        p = p * RING.var("u")
    assert p.degree_in("u") == MAX_EXPONENT and p.degree_in("v") == 1
    assert p.to_data() == {f"u^{MAX_EXPONENT} v^1": "1/2"}
    assert Poly.from_data(RING, p.to_data()) == p
    assert p == Poly(RING, {(MAX_EXPONENT, 1): Fraction(1, 2)})


def test_an_exponent_past_the_limit_names_its_variable_and_spares_its_neighbours():
    ring = PolyRing(("u", "v", "w"))
    p = Poly(ring, {(1, MAX_EXPONENT, 2): 3})
    with pytest.raises(CapacityError, match="'v'"):
        p * ring.var("v")
    with pytest.raises(CapacityError, match="'v'"):
        Poly(ring, {(0, MAX_EXPONENT + 1, 0): 1})
    with pytest.raises(CapacityError, match="'v'"):
        Poly.from_data(ring, {f"v^{MAX_EXPONENT + 1}": "1"})
    with pytest.raises(ValueError, match="'w'"):
        Poly(ring, {(0, 0, -1): 1})
    assert [p.degree_in(x) for x in "uvw"] == [1, MAX_EXPONENT, 2]
    # neighbours at the limit on both sides stay exact
    q = p * Poly(ring, {(MAX_EXPONENT - 1, 0, MAX_EXPONENT - 2): 1})
    assert [q.degree_in(x) for x in "uvw"] == [MAX_EXPONENT] * 3
    assert q.to_data() == {f"u^{MAX_EXPONENT} v^{MAX_EXPONENT} w^{MAX_EXPONENT}": "3"}


def fraction_calls(fn) -> list:
    """Names of the Python-level calls into the fractions module while fn runs."""
    calls = []
    source = inspect.getfile(Fraction)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == source:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_poly_arithmetic_builds_no_fraction():
    # perf gate: the matrix model multiplies integer numerators only
    model = MatrixModel.random(generator_count=2, dimension=2, seed=5)
    g1, g2 = model.generators["g1"], model.generators["g2"]
    assert fraction_calls(lambda: (g1 * g2 + g2) * g1 - g2) == []
    u, v = RING.var("u"), RING.var("v")
    half = RING.const(Fraction(1, 2))
    assert fraction_calls(lambda: (u * half + v) * (u - half) + half * v) == []


def test_classical_expect_builds_one_fraction():
    spec = ClassicalSpec.random(["f", "g"], max_order=4, seed=9)
    f, g = spec.ring.var("f"), spec.ring.var("g")
    p = f * f * g * Fraction(2, 3) + g * g * g * Fraction(-1, 2) + f * 5 + 7
    assert fraction_calls(lambda: classical_expect(spec, p)) == ["__new__"]
