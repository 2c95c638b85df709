"""Ring laws and serialization for the polynomial and matrix types."""

import inspect
import math
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from freecumulants import exact
from freecumulants.errors import CapacityError, DimensionMismatchError
from freecumulants.exact import MAX_EXPONENT, Matrix, Poly, PolyRing, as_fraction, as_ratio
from freecumulants.engine import Level, free_cumulant
from freecumulants.models import (ClassicalSpec, FactorizationModel, MatrixContext, MatrixModel, ScalarFreeContext,
                                  ScalarFreeSpec, WordContext, classical_expect, matrix_phi)
from freecumulants.partitions import Partition

RING = PolyRing(("u", "v"))

fractions = st.fractions(
    min_value=-9, max_value=9, max_denominator=3
)


def zero(ring: PolyRing) -> Poly:
    return Poly(ring, {})


def identity(d: int, one) -> Matrix:
    """The d x d matrix with ``one`` on the diagonal and ``one - one`` off it."""
    off = one - one
    return Matrix([[one if i == j else off for j in range(d)] for i in range(d)])


def degree(p: Poly, name: str) -> int:
    """Largest exponent of one variable in p; the zero polynomial has degree 0."""
    k = p.ring.index(name)
    return max((p.ring.exponents(m)[k] for m in p.terms), default=0)


@st.composite
def polys(draw):
    p = zero(RING)
    for _ in range(draw(st.integers(0, 4))):
        term = RING.const(draw(fractions))
        for _ in range(draw(st.integers(0, 2))):
            term = term * RING.var("u")
        for _ in range(draw(st.integers(0, 2))):
            term = term * RING.var("v")
        p = p + term
    return p


def trace(m: Matrix):
    """The sum of the diagonal entries."""
    return sum((m.entries[i][i] for i in range(1, m.dimension)), m.entries[0][0])


@st.composite
def matrices(draw):
    return Matrix([[RING.const(draw(fractions)) for _ in range(2)] for _ in range(2)])


def test_as_fraction_accepts_ints_strings_and_fractions():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("-7/2") == Fraction(-7, 2)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    # a zero denominator is malformed data, which the command line reports as such
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        as_fraction("1/0")


@pytest.mark.parametrize("value", ["2/4", "-0", "007", "-3/6", "5", -12, Fraction(6, -4), "1.5", " 3/4"])
def test_as_ratio_is_the_lowest_terms_pair_of_fraction(value):
    # the canonical texts are read with int and gcd, the rest by Fraction
    assert as_ratio(value) == Fraction(value).as_integer_ratio()
    assert as_fraction(value) == Fraction(value)


@pytest.mark.parametrize("text", ["1/0", "x", ""])
def test_as_ratio_raises_what_as_fraction_raises(text):
    errors = []
    for read in (as_ratio, as_fraction):
        with pytest.raises(ValueError) as exc:
            read(text)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == str(fraction_or_error(text)[1])


def fraction_or_error(s: str):
    """``Fraction(s)``, or the (type, message) of the error ``as_fraction``
    gives for ``s``: a zero denominator is a ValueError naming ``s``."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        return ValueError, f"zero denominator in {s!r}"
    except ValueError as exc:
        return ValueError, str(exc)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789-+/_.e \u0663\uff11", max_size=8))
@example("--3")
@example("-0")
@example("007")
@example("3/-2")
@example("1_0")
@example("1/0")
@example("-12/08")
@example("1/")
def test_as_fraction_reads_a_string_as_fraction_does(text):
    # the canonical form is read with int, every other string by Fraction:
    # the value, or the error and its message, is the same either way
    try:
        got = as_fraction(text)
    except ValueError as exc:
        got = ValueError, str(exc)
    assert got == fraction_or_error(text), text


def test_poly_basics():
    u, v = RING.var("u"), RING.var("v")
    p = (u + v) * (u - v)
    assert p == u * u - v * v
    assert degree(p, "u") == 2
    assert (p - p) == zero(RING) and not (p - p).terms
    assert RING.const(Fraction(5, 2)).constant_value() == Fraction(5, 2)
    assert (u * 0 + 7).constant_value() == Fraction(7)


def test_polys_compare_against_scalars():
    assert zero(RING) == 0
    assert RING.one == 1
    assert RING.const(Fraction(3, 2)) == Fraction(3, 2)
    assert RING.var("u") != 1


def test_constant_polys_hash_like_their_scalars():
    for c in (3, Fraction(-7, 2), 0):
        p = RING.const(c)
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1
    assert len({zero(RING), RING.const(0), 0, Fraction(0)}) == 1


@given(polys(), polys(), polys())
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero(RING) == a
    assert a * RING.one == a
    assert a - a == zero(RING)


@given(polys())
def test_poly_serialization_roundtrip(p):
    assert Poly.from_data(RING, p.to_data()) == p


def test_poly_data_format_is_monomial_keyed():
    u, v = RING.var("u"), RING.var("v")
    p = u * u * v * Fraction(3, 2) + 7
    assert p.to_data() == {"1": "7", "u^2 v^1": "3/2"}


@given(matrices(), matrices(), matrices(), fractions)
def test_matrix_ring_laws(a, b, c, k):
    one = identity(2, RING.one)
    for x in (Fraction(0), Fraction(1), k):
        assert a.scale(x) == x * a == a * identity(2, RING.const(x))
    assert a * one == a and one * a == a
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert trace(a * b) == trace(b * a)
    assert (a - a) * b == (one - one) * b


@st.composite
def poly_matrices(draw, d):
    return Matrix([[draw(polys()) for _ in range(d)] for _ in range(d)])


@settings(max_examples=40)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(poly_matrices(d), poly_matrices(d))))
def test_a_poly_matrix_product_is_the_sum_of_its_entry_products(pair):
    a, b = pair
    d = a.dimension
    product = a * b
    for i in range(d):
        for j in range(d):
            expected = zero(RING)
            for k in range(d):
                expected = expected + a.entries[i][k] * b.entries[k][j]
            assert product.entries[i][j] == expected
            assert_canonical(product.entries[i][j])
            assert hash(product.entries[i][j]) == hash(expected)


def test_a_poly_matrix_product_builds_no_poly_and_reduces_once(monkeypatch):
    # perf gate: a product accumulates all its entries in one numerator dict
    made, reduced = [], []
    make, lowest = exact._make, exact._in_lowest_terms
    monkeypatch.setattr(exact, "_make", lambda *fields: made.append(1) or make(*fields))
    monkeypatch.setattr(exact, "_in_lowest_terms", lambda *fields: reduced.append(1) or lowest(*fields))
    for d in (1, 2, 3):
        model = MatrixModel.random(generator_count=2, dimension=d, seed=5)
        b = model.embed_b(Matrix([[Fraction(i - j, 1 + i + j) for j in range(d)] for i in range(d)]))
        g1, g2 = model.generators["g1"] * b, model.generators["g2"]
        made.clear()
        reduced.clear()
        g1 * g2
        assert made == [] and len(reduced) == 1


@settings(max_examples=40)
@given(st.integers(1, 3).flatmap(lambda d: poly_matrices(d)))
def test_a_matrix_rebuilt_from_its_entries_is_equal_and_hashes_alike(m):
    again = Matrix(m.entries)
    assert again == m and hash(again) == hash(m)
    data = Matrix([[p.constant_value() if p.is_constant else Fraction(i - j, 3) for j, p in enumerate(row)]
                   for i, row in enumerate(m.entries)])
    assert data.ring is None and Matrix(data.entries) == data
    assert hash(Matrix(data.entries)) == hash(data)


def test_an_exponent_overflow_in_a_matrix_product_names_its_variable():
    ring = PolyRing(("u", "v"))
    high = Matrix([[ring.one, zero(ring)], [zero(ring), Poly(ring, {(0, MAX_EXPONENT): 2})]])
    v = identity(2, ring.var("v"))
    # the exponent at the limit stays exact, and the index fields do not carry
    assert (identity(2, ring.var("u")) * high).entries[1][1] == Poly(ring, {(1, MAX_EXPONENT): 2})
    with pytest.raises(CapacityError, match="variable 'v' exceeds"):
        v * high
    with pytest.raises(CapacityError, match="variable 'v' exceeds"):
        high * v
    # the 4-bit row and column fields of a key hold 0..15
    assert Matrix([[0] * 16] * 16).dimension == 16
    with pytest.raises(CapacityError, match="dimension 17 exceeds 16"):
        Matrix([[0] * 17] * 17)


def test_a_matrix_product_rejects_polys_of_two_rings():
    other = PolyRing(("u", "w"))
    a = Matrix([[RING.var("u")]])
    with pytest.raises(DimensionMismatchError, match="different rings"):
        a * Matrix([[other.var("w")]])


def test_normalized_trace_is_unital():
    model = MatrixModel.random(generator_count=1, dimension=3, seed=5)
    assert matrix_phi(model, MatrixContext(model).unit()) == 1
    assert trace(identity(3, RING.one)) == RING.const(Fraction(3))


def test_scalar_identities_multiply_like_their_scalars():
    a = identity(2, RING.const(Fraction(2, 3)))
    b = identity(2, RING.const(3))
    assert a * b == identity(2, RING.const(2))
    assert trace(a) * Fraction(1, 2) == RING.const(Fraction(2, 3))


def test_scaling_a_matrix_by_one_returns_it():
    m = Matrix([[RING.var("u"), RING.one], [zero(RING), RING.const(2)]])
    assert m.scale(1) is m and m.scale(Fraction(1)) is m
    assert m.scale(Fraction(1, 2)) == Matrix([[RING.var("u") * Fraction(1, 2), RING.const(Fraction(1, 2))],
                                              [zero(RING), RING.one]])


def test_matrix_dimension_mismatch_is_rejected():
    a = identity(2, RING.one)
    b = identity(3, RING.one)
    with pytest.raises(ValueError):
        a * b


def test_matrices_of_two_dimensions_or_two_rings_do_not_combine():
    other = PolyRing(("u", "w"))
    two, three = identity(2, RING.one), identity(3, RING.one)
    data, foreign = identity(2, Fraction(1)), identity(2, other.one)
    for a, b, message in ((two, three, "dimension 2 and 3"), (two, data, "different rings"),
                          (two, foreign, "different rings")):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(DimensionMismatchError, match=message):
                op(a, b)
            with pytest.raises(DimensionMismatchError, match=message.replace("2 and 3", "3 and 2")):
                op(b, a)
    with pytest.raises(DimensionMismatchError, match="different rings"):
        Matrix([[RING.one, other.one], [zero(RING), RING.one]])
    with pytest.raises(DimensionMismatchError, match="row of length 1"):
        Matrix([[RING.one, zero(RING)], [RING.one]])


def assert_canonical(p):
    assert p.den > 0
    assert all(type(c) is int and c != 0 for c in p.terms.values())
    assert math.gcd(p.den, *p.terms.values()) == 1


@given(polys(), polys(), fractions)
def test_every_operation_keeps_the_canonical_form(a, b, c):
    for p in (a + b, a - b, c - a, a * b, -a, a * c, a + c, Poly.from_data(RING, a.to_data())):
        assert_canonical(p)
    assert a * c == c * a == a * RING.const(c)
    assert -a == a * -1
    assert_canonical(Poly(RING, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-5, 6), (0, 0): 0}))
    assert_canonical(RING.const(Fraction(4, 6)) * RING.const(Fraction(3, 2)))


def test_the_largest_exponent_roundtrips():
    p = RING.const(Fraction(1, 2)) * RING.var("v")
    for _ in range(MAX_EXPONENT):
        p = p * RING.var("u")
    assert degree(p, "u") == MAX_EXPONENT and degree(p, "v") == 1
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
    assert [degree(p, x) for x in "uvw"] == [1, MAX_EXPONENT, 2]
    # neighbours at the limit on both sides stay exact
    q = p * Poly(ring, {(MAX_EXPONENT - 1, 0, MAX_EXPONENT - 2): 1})
    assert [degree(q, x) for x in "uvw"] == [MAX_EXPONENT] * 3
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


def test_word_model_kappa_6_builds_few_fractions():
    # perf gate: word-model elements and traces keep integer numerators, so
    # this psi-cumulant builds only the Fraction(-1) of each subtraction;
    # with one Fraction per coefficient it built 74,432
    ctx = WordContext(FactorizationModel.random(2, 2, 8, 9301))
    args = [ctx.gen(g) for g in ("x1", "x2", "x1", "x2", "x1", "x2")]
    calls = fraction_calls(lambda: free_cumulant(ctx, Partition.full(6), args, Level.PSI))
    assert calls.count("__new__") <= 78


def test_scalar_kappa_8_builds_few_fractions():
    # perf gate: the phi-cumulant recursion keeps its kappas and moments as
    # integer pairs, so scalar kappa_8 builds 343 Fractions (the free moments
    # and phi values of its 255 subsets); with one Fraction per block it built 5,499
    ctx = ScalarFreeContext(ScalarFreeSpec.random({"a": ("a1", "a2")}, 8, 2024))
    args = [ctx.gen(g) for g in ("a1", "a2") * 4]
    calls = fraction_calls(lambda: free_cumulant(ctx, Partition.full(8), args, Level.PHI))
    assert calls.count("__new__") <= 400
