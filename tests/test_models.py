"""Probability models against hand-derived values.

Where a model draws random data, the tests below avoid the engine and
pin its primitives to values derived by hand: monomial expectations as
products of recorded moments, small free moments as explicit cumulant
sums, the conditional-expectation factorization rule evaluated on a
two-letter word, and the tensor split of a nested moment.
"""

import functools
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freecumulants import models
from freecumulants.checks import ALL_CHECKS, run_check
from freecumulants.engine import Level, free_cumulant
from freecumulants.errors import CapacityError, DimensionMismatchError
from freecumulants.exact import LinearCombination, Matrix
from freecumulants.models import (
    ClassicalContext,
    ClassicalSpec,
    FactorizationModel,
    MatrixContext,
    MatrixModel,
    ProbabilityContext,
    ScalarFreeContext,
    ScalarFreeSpec,
    TensorContext,
    TensorModel,
    WordContext,
    centered,
    classical_conditional_expect,
    classical_expect,
    draw_fraction,
    free_moment,
)
from freecumulants.partitions import LatticeKind, Partition, enumerate_partitions

F = Fraction


def in_c(ctx, x) -> bool:
    """x lies in the scalars C: it equals its own embedded expectation."""
    return x == ctx.phi(x)


def in_b(ctx, x) -> bool:
    """x lies in the subalgebra B that the context's psi projects onto."""
    if isinstance(ctx, MatrixContext):
        return all(a.is_constant for row in x.entries for a in row)
    if isinstance(ctx, ClassicalContext):
        return not any(m & ~ctx.spec.ring.mask(ctx.keep) for m in x.terms)
    if isinstance(ctx, ScalarFreeContext):
        return in_c(ctx, x)
    # the word and tensor models: no generator letter is left
    return all(not letters for letters, _ in x.terms)


def test_draw_fraction_stays_in_its_box():
    rng = random.Random(5)
    seen = {draw_fraction(rng) for _ in range(300)}
    assert all(-9 <= f <= 9 for f in seen)
    assert all(f.denominator in (1, 2, 3) for f in seen)
    assert random.Random(5).randint(-9, 9) == random.Random(5).randint(-9, 9)


# ---------------------------------------------------------------------------
# classical


def toy_classical() -> ClassicalSpec:
    # independent variables with hand-set moment sequences
    return ClassicalSpec(
        {"f": (F(1), F(2), F(3), F(4)), "g": (F(0), F(1), F(0), F(3))},
        max_order=4,
    )


def test_classical_expectation_of_monomials_factorizes():
    spec = toy_classical()
    ring = spec.ring
    f, g = ring.var("f"), ring.var("g")
    assert classical_expect(spec, f * g) == F(1) * F(0)
    assert classical_expect(spec, f * f * g * g) == F(2) * F(1)
    assert classical_expect(spec, f * f * f * g + ring.const(2)) == F(3) * F(0) + 2


def test_conditional_expectation_integrates_only_dropped_variables():
    spec = toy_classical()
    ring = spec.ring
    f, g = ring.var("f"), ring.var("g")
    keep = frozenset({"f"})
    assert classical_conditional_expect(spec, f * g * g, keep) == f * F(1)
    assert classical_conditional_expect(spec, f * f, keep) == f * f
    # tower: integrating the rest afterwards gives the full expectation
    inner = classical_conditional_expect(spec, f * g + g * g, keep)
    assert classical_expect(spec, inner) == classical_expect(spec, f * g + g * g)


def test_conditional_expectation_is_bimodular_over_kept_polynomials():
    spec = toy_classical()
    ring = spec.ring
    f, g = ring.var("f"), ring.var("g")
    keep = frozenset({"f"})
    b = f * f + ring.const(3)
    assert classical_conditional_expect(spec, b * g * g, keep) == b * F(1)


def test_classical_capacity_error_names_the_variable():
    spec = toy_classical()
    ring = spec.ring
    g = ring.var("g")
    with pytest.raises(CapacityError, match="'g'"):
        classical_expect(spec, g * g * g * g * g)


def dense_integrate(spec: ClassicalSpec, terms: dict, kept_mask: int, shift: int = 0) -> dict:
    """The reference for ``models._integrate``: each term's moment as the
    product of one moment-table entry for every variable, exponent 0
    included, with nothing kept between terms or calls; past ``max_order``
    the error of ``spec.moment`` for the first such exponent, in term order
    and then variable order."""
    out = {}
    for k, c in terms.items():
        kept = k & kept_mask
        m = (k ^ kept) >> shift
        for name, e in zip(spec.variables, spec.ring.exponents(m)):
            spec.moment(name, e)
        out[kept] = out.get(kept, 0) + c * dense_moment(spec, m)
    return out


def dense_moment(spec: ClassicalSpec, m: int) -> int:
    """E[m] over ``spec.den``: one moment-table entry for every variable, multiplied out."""
    return math.prod(row[e] for row, e in zip(spec.table, spec.ring.exponents(m)))


def integrate_cases(seed: int, count: int = 24):
    """(spec, terms, kept mask, shift) for random polynomials over four
    variables, exponents at 0 and at ``max_order`` drawn often, each either
    with a random kept mask or keyed as matrix entries (shift 8, the
    entry's 8 bits kept), as ``matrix_psi`` integrates them."""
    rng = random.Random(seed)
    spec = ClassicalSpec.random(("u", "v", "w", "z"), max_order=3, seed=seed)
    top = spec.max_order
    for _ in range(count):
        terms = {spec.ring.pack([rng.choice((0, 0, 1, top, rng.randint(0, top))) for _ in spec.variables]):
                 rng.randint(1, 9) * rng.choice((-1, 1)) for _ in range(rng.randint(1, 8))}
        if rng.random() < 0.5:
            yield spec, {m << 8 | rng.randrange(3) << 4 | rng.randrange(3): c for m, c in terms.items()}, 0xFF, 8
        else:
            yield spec, terms, spec.ring.mask(rng.sample(spec.variables, rng.randint(0, 4))), 0


@pytest.mark.parametrize("seed", range(4))
def test_integrate_equals_the_dense_product_over_the_moment_table(monkeypatch, seed):
    # the oracle of the spec's monomial table: a cold call takes one table
    # product per monomial it has not met, a warm call none, and both equal
    # the dense product
    products = []
    right = models._table_moment
    monkeypatch.setattr(models, "_table_moment", lambda spec, m: products.append(m) or right(spec, m))
    met = set()
    for spec, terms, mask, shift in integrate_cases(seed):
        monomials = {(k & ~mask) >> shift for k in terms}
        products.clear()
        assert models._integrate(spec, terms, mask, shift) == dense_integrate(spec, terms, mask, shift)
        assert sorted(products) == sorted(monomials - met)
        met |= monomials
        products.clear()
        assert models._integrate(spec, terms, mask, shift) == dense_integrate(spec, terms, mask, shift)
        assert products == []
    assert set(spec._moment_cache) == met
    assert spec._moment_cache == {m: dense_moment(spec, m) for m in met}


def test_a_wrong_table_moment_fails_the_integrate_oracle(monkeypatch):
    # a moment one too large for every monomial of exactly two nonzero
    # exponents: the matrix checks hold for any entrywise functional and
    # pass under it, so the oracle above is what catches it on matrix keys
    right = models._table_moment
    monkeypatch.setattr(models, "_table_moment", lambda spec, m: right(spec, m) + spec.den
                        * (sum(map(bool, spec.ring.exponents(m))) == 2))
    assert any(models._integrate(spec, terms, mask, shift) != dense_integrate(spec, terms, mask, shift)
               for spec, terms, mask, shift in integrate_cases(0) if shift == 8)


def test_integrate_past_max_order_raises_the_dense_error_and_tables_nothing_for_it():
    spec = toy_classical()
    pack = spec.ring.pack
    # the first exponent past max_order is g's in the second term, before f's in the third;
    # the third call finds the table warm
    terms = {pack((4, 4)): 1, pack((2, 5)): 2, pack((5, 1)): 3}
    for mask in (0, spec.ring.mask({"f"}), 0):
        with pytest.raises(CapacityError, match="order 5 of variable 'g'") as want:
            dense_integrate(spec, terms, mask)
        with pytest.raises(CapacityError) as got:
            models._integrate(spec, terms, mask)
        assert str(got.value) == str(want.value)
    # the monomials met before the failed one stay, E[f^4 g^4] = 4 * 3 and
    # E[g^4] = 3 over den 1, and the failed ones, g^5 with and without f^2, leave nothing
    assert spec._moment_cache == {pack((4, 4)): 12, pack((0, 4)): 3}


def test_classical_spec_roundtrip():
    spec = toy_classical()
    again = ClassicalSpec.from_data(spec.to_data())
    assert again.to_data() == spec.to_data()
    assert again.moment("f", 3) == F(3)


# ---------------------------------------------------------------------------
# matrix model


def test_matrix_psi_is_unital_bimodular_and_compatible_with_phi():
    model = MatrixModel.random(generator_count=2, dimension=2, max_order=8, seed=3)
    ctx = MatrixContext(model)
    x = model.generators[model.generator_names[0]]
    b = model.embed_b(Matrix([[F(1), F(2)], [F(0), F(-1)]]))
    c = model.embed_b(Matrix([[F(2), F(1)], [F(1), F(1)]]))
    assert ctx.psi(ctx.unit()) == ctx.unit()
    assert ctx.psi(b * x * c) == b * ctx.psi(x) * c
    assert ctx.phi_scalar(ctx.psi(x)) == ctx.phi_scalar(x)
    assert in_b(ctx, ctx.psi(x * b * x))
    assert not in_b(ctx, x)


def test_matrix_model_rejects_wrong_dimension_coefficients():
    model = MatrixModel.random(dimension=2, seed=0)
    with pytest.raises(DimensionMismatchError):
        model.embed_b(Matrix([[F(1)] * 3] * 3))


def test_matrix_model_roundtrip():
    model = MatrixModel.random(generator_count=2, dimension=2, max_order=4, seed=9)
    again = MatrixModel.from_data(model.to_data())
    assert again.to_data() == model.to_data()
    assert again.generator_names == model.generator_names
    x = again.generators[again.generator_names[1]]
    assert MatrixContext(again).psi(x) == MatrixContext(model).psi(x)


# ---------------------------------------------------------------------------
# scalar free families


def one_generator(c1, c2, c3, c4) -> ScalarFreeSpec:
    word = ("x",)
    cumulants = {word * k: c for k, c in ((1, c1), (2, c2), (3, c3), (4, c4))}
    return ScalarFreeSpec({"n": ("x",)}, cumulants, max_order=4)


def test_free_moments_match_their_noncrossing_sums():
    c1, c2, c3, c4 = F(1, 2), F(-2), F(3), F(1, 3)
    spec = one_generator(c1, c2, c3, c4)
    w = ("x",)
    assert free_moment(spec, w) == c1
    assert free_moment(spec, w * 2) == c2 + c1 ** 2
    assert free_moment(spec, w * 3) == c3 + 3 * c1 * c2 + c1 ** 3
    # the five noncrossing partitions of four points, by hand
    assert free_moment(spec, w * 4) == (
        c4 + 4 * c1 * c3 + 2 * c2 ** 2 + 6 * c1 ** 2 * c2 + c1 ** 4
    )


def nc_sum_moment(spec: ScalarFreeSpec, word) -> F:
    """The enumeration form: blockwise cumulants summed over all of NC(n)."""
    return sum((math.prod((spec.cumulant(tuple(word[i - 1] for i in block)) for block in part.blocks),
                          start=F(1))
                for part in enumerate_partitions(len(word), LatticeKind.NONCROSSING)), F(0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.lists(st.sampled_from(("a1", "a2", "b1")), max_size=8))
def test_free_moment_equals_the_sum_over_noncrossing_partitions(seed, word):
    spec = ScalarFreeSpec.random({"a": ("a1", "a2"), "b": ("b1",)}, max_order=8, seed=seed)
    assert free_moment(spec, tuple(word)) == nc_sum_moment(spec, word)


class CountedTable(dict):
    """A cumulant table that appends each word read from it to ``reads``."""

    def __init__(self, table: dict, reads: list):
        super().__init__(table)
        self.reads = reads

    def __getitem__(self, word):
        self.reads.append(word)
        return super().__getitem__(word)

    def get(self, word, default=None):
        self.reads.append(word)
        return super().get(word, default)


def count_cumulant_reads(spec: ScalarFreeSpec) -> list:
    """Count the reads of the spec's integer cumulant table ``kappa_num``;
    the list grows by one word per read."""
    reads = []
    spec.kappa_num = CountedTable(spec.kappa_num, reads)
    return reads


def test_a_cold_free_moment_of_length_n_evaluates_at_most_2_to_the_n_plus_1_cumulants():
    # the sum over NC(8) evaluates up to 6,435 blocks; the Boolean cumulant b
    # of each distinct sub-word of length L it meets reads the spec's integer
    # cumulant table once for each of its 2^(L-2) blocks holding both ends,
    # 246 reads here (the first-block recursion made 366), and a word of one
    # family leaves no block to prune, so the b of its eight prefixes read
    # 1 + 1 + 2 + ... + 2^6 = 2^7 blocks
    spec = ScalarFreeSpec.random({"a": ("a1", "a2")}, max_order=8, seed=3)
    calls = count_cumulant_reads(spec)
    free_moment(spec, ("a1", "a2", "a2", "a1", "a1", "a2", "a1", "a2"))
    assert 2**7 <= len(calls) <= 246 <= 2**9


def test_a_cold_alternating_free_moment_reads_only_blocks_of_one_family():
    # perf gate: a block mixing families is zero, so the recursion draws
    # each block from the first letter's family alone, and b of a word
    # whose ends lie in two families reads none: the b of the word's four
    # prefixes that end in its first family read 1 + 1 + 2 + 4 = 2^3 blocks,
    # and it makes 26 reads in all, where the first-block recursion over
    # one family made 57, and all 2^(L-1) first blocks of each sub-word 330
    spec = ScalarFreeSpec.random({"a": ("a1", "a2"), "b": ("b1", "b2")}, max_order=8, seed=3)
    calls = count_cumulant_reads(spec)
    word = ("a1", "b1", "a2", "b2", "a1", "b2", "a2", "b1")
    value = free_moment(spec, word)
    assert 2**3 <= len(calls) <= 26
    assert all(len({spec.family_of[g] for g in block}) == 1 for block in calls)
    assert value == nc_sum_moment(spec, word)


def test_mixed_family_cumulants_are_declared_zero():
    spec = ScalarFreeSpec.random({"a": ("a1",), "b": ("b1",)}, max_order=3, seed=1)
    assert spec.cumulant(("a1", "b1")) == 0
    assert spec.cumulant(("a1", "a1")) != 0 or spec.cumulant(("b1", "b1")) != 0
    with pytest.raises(CapacityError):
        spec.cumulant(("a1",) * 4)


def test_scalar_free_spec_requires_complete_tables():
    with pytest.raises(ValueError):
        ScalarFreeSpec({"n": ("x",)}, {("x",): F(1)}, max_order=2)


def test_scalar_free_spec_roundtrip_and_compact_form():
    spec = ScalarFreeSpec.random({"a": ("a1", "a2")}, max_order=2, seed=4)
    again = ScalarFreeSpec.from_data(spec.to_data())
    assert again.to_data() == spec.to_data()
    compact = ScalarFreeSpec.from_data(
        {"max_order": 3, "families": [{"name": "s", "cumulants": ["1", "1/2", "0"]}]}
    )
    assert compact.cumulant(("s", "s")) == F(1, 2)
    assert free_moment(compact, ("s", "s")) == F(3, 2)


SCALAR_FACTOR_SHAPES = ("gen", "centered gen", "scaled product", "scaled unit", "zero")


def scalar_factor(ctx, shape, rng):
    """A factor of the named shape, drawn from ``rng``."""
    x, y = (ctx.gen(rng.choice(("a1", "a2", "b1"))) for _ in range(2))
    return {
        "gen": lambda: x,
        "centered gen": lambda: centered(ctx, x),
        "scaled product": lambda: ctx.scale(draw_fraction(rng) or 1, ctx.mul(x, y)),
        "scaled unit": lambda: ctx.scale(draw_fraction(rng) or 1, ctx.unit()),
        "zero": lambda: ctx.sub(x, x),
    }[shape]()


def test_scalar_free_phi_of_a_product_equals_phi_of_the_formed_product():
    # the word-sum hook against the default route, phi_scalar of the
    # product, on up to 4 factors (8 letters, max_order) of every shape
    ctx = ScalarFreeContext(ScalarFreeSpec.random({"a": ("a1", "a2"), "b": ("b1",)}, max_order=8, seed=23))
    default = functools.partial(ProbabilityContext.phi_scalar_product, ctx)
    rng = random.Random(23)
    assert ctx.phi_scalar_product([]) == default([]) == 1
    for _ in range(80):
        shapes = rng.choices(SCALAR_FACTOR_SHAPES, k=rng.randint(0, 4))
        xs = [scalar_factor(ctx, shape, rng) for shape in shapes]
        assert ctx.phi_scalar_product(xs) == default(xs), shapes
    # a zero factor leaves no word to evaluate, however long the product
    assert ctx.phi_scalar_product([ctx.sub(ctx.unit(), ctx.unit())] + [ctx.gen("a1")] * 9) == 0
    for route in (ctx.phi_scalar_product, default):
        with pytest.raises(CapacityError):
            route([centered(ctx, ctx.gen("a1"))] * 5 + [ctx.gen("b1")] * 4)


def test_scalar_free_context_multiplies_words():
    spec = one_generator(F(1), F(1, 2), F(0), F(0))
    ctx = ScalarFreeContext(spec)
    x = ctx.gen("x")
    assert ctx.phi_scalar(ctx.mul(x, x)) == free_moment(spec, ("x", "x"))
    y = ctx.sub(ctx.mul(x, x), ctx.scale(F(3, 2), ctx.unit()))
    assert ctx.phi_scalar(y) == 0


# ---------------------------------------------------------------------------
# factorization model


def toy_factorization() -> FactorizationModel:
    scalars = one_generator(F(1), F(1, 2), F(1, 3), F(1, 4))
    return FactorizationModel(scalars, dimension=2)


def test_conditional_expectation_follows_the_factorization_rule():
    # psi(x b x) = c2 tr(b)/d * 1 + c1^2 b, derived from the two
    # noncrossing partitions of the two x-positions
    model = toy_factorization()
    ctx = WordContext(model)
    x = ctx.gen("x")
    bm = Matrix([[F(1), F(2)], [F(3), F(4)]])
    b = ctx.embed_b(bm)
    got = ctx.psi(ctx.mul(x, ctx.mul(b, x)))
    expected = ctx.add(
        ctx.scale(F(1, 2) * F(5, 2), ctx.unit()),
        ctx.embed_b(bm),
    )
    assert got == expected


def test_word_algebra_fuses_matrix_units():
    model = toy_factorization()
    ctx = WordContext(model)
    e12 = ctx.embed_b(Matrix([[F(0), F(1)], [F(0), F(0)]]))
    e21 = ctx.embed_b(Matrix([[F(0), F(0)], [F(1), F(0)]]))
    e11 = ctx.embed_b(Matrix([[F(1), F(0)], [F(0), F(0)]]))
    assert ctx.mul(e12, e21) == e11
    assert ctx.mul(e12, e12) == ctx.scale(F(0), ctx.unit())
    assert ctx.phi_scalar(e11) == F(1, 2)
    assert ctx.phi_scalar(e12) == F(0)


def test_word_expectations_form_a_tower():
    model = toy_factorization()
    ctx = WordContext(model)
    x = ctx.gen("x")
    b = ctx.embed_b(Matrix([[F(1), F(-1)], [F(2), F(0)]]))
    for w in (x, ctx.mul(x, b), ctx.mul(b, ctx.mul(x, ctx.mul(b, x)))):
        assert ctx.phi_scalar(ctx.psi(w)) == ctx.phi_scalar(w)
        assert in_b(ctx, ctx.psi(w))


def nc_sum_psi(ctx: WordContext, gens, units) -> dict:
    """The enumeration form of psi on one basis word: for each noncrossing
    partition, collapse interval blocks one at a time, each giving its
    family cumulant times the traces of the units strictly inside it and
    fusing the units on either side."""
    out: dict = {}
    for part in enumerate_partitions(len(gens), LatticeKind.NONCROSSING):
        scalar, g, u = F(1), list(gens), list(units)
        blocks = [list(b) for b in part.blocks]
        while g and scalar:
            block = next(b for b in blocks if b[-1] - b[0] + 1 == len(b))
            a, b = block[0], block[-1]
            scalar *= ctx.model.scalars.cumulant(tuple(g[a - 1 : b]))
            for j in range(a, b):
                scalar *= F(1, ctx.d) if u[j][0] == u[j][1] else 0
            left, right = u[a - 1], u[b]
            if left[1] != right[0]:
                scalar = F(0)
            del g[a - 1 : b]
            u[a - 1 : b + 1] = [(left[0], right[1])]
            blocks.remove(block)
            blocks = [[i if i < a else i - len(block) for i in blk] for blk in blocks]
        if scalar:
            key = ((), (u[0],))
            out[key] = out.get(key, F(0)) + scalar
    return {key: c for key, c in out.items() if c != 0}


def basis_word(ctx, gens, units):
    """E_{u0} X_{g1} E_{u1} ... X_{gk} E_{uk}, a product of the context's
    own elements: matrix units through embed_b and generators through gen."""
    def unit(i, j):
        return ctx.embed_b(Matrix([[F(int((r, c) == (i, j))) for c in range(ctx.d)] for r in range(ctx.d)]))
    factors = [unit(*units[0])]
    for g, u in zip(gens, units[1:]):
        factors += [ctx.gen(g), unit(*u)]
    return ctx.product(factors)


@st.composite
def basis_words(draw):
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, 6))
    gens = tuple(draw(st.lists(st.sampled_from(("x1", "x2")), min_size=k, max_size=k)))
    unit = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    units = tuple(draw(st.lists(unit, min_size=k + 1, max_size=k + 1)))
    return d, gens, units


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), basis_words())
def test_word_psi_equals_the_sum_over_noncrossing_partitions(seed, word):
    d, gens, units = word
    ctx = WordContext(FactorizationModel.random(2, dimension=d, max_order=6, seed=seed))
    assert dict(ctx.psi(basis_word(ctx, gens, units)).items()) == nc_sum_psi(ctx, gens, units)


def test_word_psi_of_a_length_6_word_evaluates_at_most_2_to_the_7_cumulants():
    # the sum over NC(6) evaluates up to 462 blocks; diagonal units keep every
    # trace nonzero, so no first block is cut short
    ctx = WordContext(FactorizationModel.random(2, dimension=2, max_order=6, seed=3))
    calls = count_cumulant_reads(ctx.model.scalars)
    gens = ("x1", "x2", "x1", "x1", "x2", "x2")
    units = ((0, 0), (1, 1), (0, 0), (0, 0), (1, 1), (1, 1), (0, 0))
    ctx.psi(basis_word(ctx, gens, units))
    assert 2**5 <= len(calls) <= 2**7


def test_a_word_past_max_order_raises_the_capacity_error_on_every_route():
    # the integer cumulant table holds the words up to max_order, so a longer
    # block is a miss: each route raises CapacityError through
    # ScalarFreeSpec.cumulant, not the table's KeyError.  WordContext.psi and
    # phi_scalar take the flat route over basis words, psi_product the route
    # over simple tensors, and free_moment the scalar spec's own sum
    model = FactorizationModel.random(1, 2, 3, 0)
    ctx = WordContext(model)
    xs = [ctx.gen("x1")] * 4
    routes = (lambda: ctx.psi(ctx.product(xs)), lambda: ctx.phi_scalar(ctx.product(xs)),
              lambda: ctx.psi_product(xs), lambda: free_moment(model.scalars, ("x1",) * 4))
    for route in routes:
        with pytest.raises(CapacityError, match="of order 4 exceeds max_order=3"):
            route()


WORD_FACTOR_SHAPES = ("gen", "gen.b", "scaled gen", "centered gen", "b", "rank above 1",
                      "one generator", "two generators")


def word_factor(ctx: WordContext, shape: str, rng: random.Random):
    """A random factor of ``shape``: "rank above 1" is E00 X E00 + E_{d-1,d-1}
    X E_{0,d-1}, "one generator" any combination of basis words E X E."""
    d, x = ctx.d, ctx.gen(rng.choice(("x1", "x2")))

    def b():
        return ctx.embed_b(Matrix([[draw_fraction(rng) for _ in range(d)] for _ in range(d)]))

    def unit(i, j):
        return LinearCombination({((), ((i, j),)): 1})

    def pair():
        return rng.randrange(d), rng.randrange(d)

    return {
        "gen": lambda: x,
        "gen.b": lambda: ctx.mul(x, b()),
        "scaled gen": lambda: ctx.scale(F(rng.randint(1, 9), rng.choice((1, 2, 3))), x),
        "centered gen": lambda: centered(ctx, x),
        "b": b,
        "rank above 1": lambda: ctx.add(ctx.product([unit(0, 0), x, unit(0, 0)]),
                                        ctx.product([unit(d - 1, d - 1), x, unit(0, d - 1)])),
        "one generator": lambda: ctx.sum(ctx.product([unit(*pair()), ctx.gen(g), unit(*pair())])
                                         for g in rng.choices(("x1", "x2"), k=rng.randint(1, 2 * d))),
        "two generators": lambda: ctx.mul(x, ctx.gen("x1")),
    }[shape]()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_word_psi_of_a_product_equals_psi_of_the_expanded_product(d):
    # the simple-tensor route against the flat route, its reference, on
    # products of up to 5 factors of every shape (4 at d = 3, where the flat
    # expansion of 5 holds up to 3^11 basis words)
    ctx = WordContext(FactorizationModel.random(2, dimension=d, max_order=8, seed=40 + d))
    rng = random.Random(d)
    simple = [ctx._simple_terms(word_factor(ctx, shape, rng)) for shape in WORD_FACTOR_SHAPES]
    assert [len(pieces) for pieces in simple[:5]] == [1, 1, 1, 2, 1]
    assert len(simple[5]) == (1 if d == 1 else 2) and simple[7] is None
    for _ in range(40):
        shapes = rng.choices(WORD_FACTOR_SHAPES, k=rng.randint(0, 5 if d < 3 else 4))
        xs = [word_factor(ctx, shape, rng) for shape in shapes]
        flat = ctx.product(xs)
        assert ctx.psi_product(xs) == ctx.psi(flat), shapes
        assert ctx.phi_scalar_product(xs) == ctx.phi_scalar(flat), shapes


def test_factorization_model_roundtrip():
    model = FactorizationModel.random(2, dimension=2, max_order=3, seed=7)
    again = FactorizationModel.from_data(model.to_data())
    assert again.to_data() == model.to_data()
    assert again.d == 2


# ---------------------------------------------------------------------------
# tensor model


def toy_tensor() -> TensorModel:
    scalars = ScalarFreeSpec({"a": ("a",)}, {("a",): F(1), ("a", "a"): F(1)}, max_order=2)
    return TensorModel(scalars, (F(1, 2), F(1, 2)))


def test_tensor_psi_keeps_the_point_factor_and_averages_the_word():
    model = toy_tensor()
    ctx = TensorContext(model)
    t = ctx.simple(("a",), (F(1), F(2)))
    out = ctx.psi(t)
    assert out == ctx.simple((), (F(1), F(2)))
    assert ctx.phi_scalar(t) == F(1) * model.state((F(1), F(2)))


def test_tensor_moments_split_by_inner_and_outer_slots():
    # phi(t1 t2) couples the word factors but multiplies the point
    # factors coordinatewise; the two sides would disagree if the word
    # moment were indexed by the coarse partition instead
    model = toy_tensor()
    ctx = TensorContext(model)
    t1 = ctx.simple(("a",), (F(1), F(0)))
    t2 = ctx.simple(("a",), (F(1), F(2)))
    sc = model.scalars
    coupled = free_moment(sc, ("a", "a")) * model.state((F(1), F(0)))
    split = free_moment(sc, ("a",)) ** 2 * model.state((F(1), F(0)))
    assert ctx.phi_scalar(ctx.mul(t1, t2)) == coupled
    assert coupled != split


def test_tensor_weights_must_be_a_probability_vector():
    scalars = ScalarFreeSpec({"a": ("a",)}, {("a",): F(1)}, max_order=1)
    with pytest.raises(ValueError):
        TensorModel(scalars, (F(1, 2), F(1, 3)))


def test_tensor_model_roundtrip():
    model = TensorModel.random(points=3, max_order=3, seed=2)
    again = TensorModel.from_data(model.to_data())
    assert again.to_data() == model.to_data()
    assert sum(again.weights) == 1


# (model class, random_data arguments but the seed, sha256 prefix of the drawn record's JSON
# text, keys in their order, at seeds 0, 1312 and 2024), the records drawn as to_data wrote them
# when random built each model directly
RECORDS = [
    (ClassicalSpec, (["f", "g0", "g1"], 4), ("7db59f690efdc630", "5c6c233328e10403", "fce7dc9711855dac")),
    (MatrixModel, (3, 2, 4), ("7ee0ce385011a4f2", "8bea91e574946d7f", "f2925c21e9ad9644")),
    (ScalarFreeSpec, ({"b": ("b1",), "a": ("a1", "a2")}, 4),
     ("ea40dbffd33bf861", "027c305ed505c60c", "ba787531759b382e")),
    (FactorizationModel, (2, 3, 4), ("a854b1495805dd21", "4a6bb9668841298b", "d1359d320d1e69a1")),
    (TensorModel, (3, 4), ("56064b1461e09865", "48fcb095f79a9134", "a554ed4825424dd5")),
]


@pytest.mark.parametrize("cls, args, digests", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_a_drawn_record_is_what_its_model_writes(cls, args, digests):
    for seed, digest in zip((0, 1312, 2024), digests):
        data = cls.random_data(*args, seed=seed)
        assert hashlib.sha256(json.dumps(data).encode()).hexdigest()[:16] == digest
        assert cls.from_data(data).to_data() == data == cls.random_data(*args, seed=seed)
        assert cls.random(*args, seed=seed).to_data() == data


# ---------------------------------------------------------------------------
# properties shared by every model


def random_elements(ctx, gens, bs, rng, count):
    """Seeded random algebra elements: sums of scaled short products."""
    pool = list(gens) + list(bs)
    for _ in range(count):
        total = ctx.scale(draw_fraction(rng), ctx.unit())
        for _ in range(rng.randint(1, 2)):
            word = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 3))]
            total = ctx.add(total, ctx.scale(draw_fraction(rng), ctx.product(word)))
        yield total


def model_zoo():
    matrix = MatrixContext(MatrixModel.random(2, dimension=2, max_order=8, seed=17))
    mgens = [matrix.model.generators[g] for g in matrix.model.generator_names]
    mbs = [matrix.model.embed_b(Matrix([[F(1), F(2)], [F(0), F(1)]]))]

    word = WordContext(FactorizationModel.random(2, dimension=2, max_order=8, seed=17))
    wgens = [word.gen(g) for f in sorted(word.model.scalars.families)
             for g in word.model.scalars.families[f]]
    wbs = [word.embed_b(Matrix([[F(1), F(-1)], [F(2), F(0)]]))]

    scalar = ScalarFreeContext(ScalarFreeSpec.random({"a": ("a1", "a2"), "b": ("b1",)}, seed=17))
    sgens = [scalar.gen(g) for g in ("a1", "a2", "b1")]
    sbs = [scalar.embed_scalar(F(-3, 2))]  # B = C: the scalars

    tensor = TensorContext(TensorModel.random(points=2, max_order=8, seed=17))
    tgens = [tensor.simple(("a",), (F(1), F(2))), tensor.simple(("a", "a"), (F(0), F(1)))]
    tbs = [tensor.simple((), (F(2), F(3)))]

    spec = ClassicalSpec.random(["f", "g"], max_order=8, seed=17)
    classical = ClassicalContext(spec, keep=frozenset({"f"}))
    cgens = [spec.ring.var("g")]
    cbs = [spec.ring.var("f")]

    return [
        ("matrix", matrix, mgens, mbs),
        ("word", word, wgens, wbs),
        ("scalar-free", scalar, sgens, sbs),
        ("tensor", tensor, tgens, tbs),
        ("classical", classical, cgens, cbs),
    ]


def test_tower_property_on_fifty_random_elements_per_model():
    for name, ctx, gens, bs in model_zoo():
        rng = random.Random(f"tower:{name}")
        for x in random_elements(ctx, gens, bs, rng, 50):
            assert ctx.phi_scalar(ctx.psi(x)) == ctx.phi_scalar(x), name
            assert in_b(ctx, ctx.psi(x)), name
            assert in_c(ctx, ctx.phi(x)), name


def fraction_items(x) -> dict:
    """{key: Fraction} of an element, read through its Fraction boundary."""
    if isinstance(x, Matrix):
        return {(i, j, m): c for i, row in enumerate(x.entries)
                for j, a in enumerate(row) for m, c in a.items()}
    return dict(x.items())


def test_combine_equals_a_fraction_reference_on_every_context():
    for name, ctx, gens, bs in model_zoo():
        rng = random.Random(f"combine:{name}")
        xs = [*gens, *bs, *random_elements(ctx, gens, bs, rng, 4)]
        zero = ctx.combine([])
        assert fraction_items(zero) == {} and ctx.add(zero, xs[0]) == xs[0], name
        assert fraction_items(ctx.mul(zero, xs[0])) == {}, name
        cases = {
            "one pair": [(F(-2, 3), xs[0])],
            "zero coefficients": [(0, xs[0]), (F(0), xs[1]), (2, xs[2])],
            "int and Fraction": [(rng.randint(-3, 3) if k % 2 else draw_fraction(rng), x)
                                 for k, x in enumerate(xs)],
            "cancelling": [(F(1, 2), xs[1]), (3, xs[2]), (F(-1, 2), xs[1]), (-3, xs[2])],
        }
        for case, pairs in cases.items():
            want: dict = {}
            for c, x in pairs:
                for k, v in fraction_items(x).items():
                    want[k] = want.get(k, 0) + c * v
            got = ctx.combine(pairs)
            assert fraction_items(got) == {k: v for k, v in want.items() if v}, (name, case)
            assert got.den > 0 and 0 not in got.terms.values(), (name, case)
        assert ctx.combine(cases["cancelling"]) == zero, name
        assert ctx.combine([(1, xs[-1])]) == xs[-1], name


def test_a_product_of_k_factors_multiplies_k_minus_1_times(monkeypatch):
    # perf gate: a product folds from its first factor, with no multiply by
    # the unit, and is the unit only when there is no factor
    for name, ctx, gens, bs in model_zoo():
        calls = []
        mul = ctx.mul
        monkeypatch.setattr(ctx, "mul", lambda x, y: calls.append(1) or mul(x, y))
        pool = [*gens, *bs]
        for k in range(5):
            factors = [pool[i % len(pool)] for i in range(k)]
            calls.clear()
            value = ctx.product(factors)
            assert len(calls) == max(k - 1, 0), (name, k)
            assert value == functools.reduce(mul, factors, ctx.unit()), (name, k)


def test_bimodule_law_on_random_sandwiches():
    for name, ctx, gens, bs in model_zoo():
        rng = random.Random(f"bimodule:{name}")
        b = bs[0]
        for x in random_elements(ctx, gens, bs, rng, 10):
            lhs = ctx.psi(ctx.product([b, x, b]))
            rhs = ctx.product([b, ctx.psi(x), b])
            assert lhs == rhs, name
            c, c2 = draw_fraction(rng), draw_fraction(rng)
            sandwich = ctx.product([ctx.embed_scalar(c), x, ctx.embed_scalar(c2)])
            assert ctx.phi(sandwich) == ctx.scale(c * c2, ctx.phi(x)), name


def test_centered_is_idempotent_and_kills_the_expectation():
    for name, ctx, gens, bs in model_zoo():
        assert centered(ctx, ctx.unit()) == ctx.scale(F(0), ctx.unit()), name
        y = centered(ctx, gens[0])
        assert ctx.phi_scalar(y) == 0, name
        assert centered(ctx, y) == y, name


# ---------------------------------------------------------------------------
# closed-form moment sequences, computed without the engine


def _one_variable(name: str, cumulants) -> ScalarFreeSpec:
    return ScalarFreeSpec.from_data(
        {"max_order": 8, "families": [{"name": name, "cumulants": [str(c) for c in cumulants]}]}
    )


def test_semicircular_moments_are_catalan_numbers():
    # kappa_2 = 1 and every other cumulant 0: moments count noncrossing pairings
    spec = _one_variable("s", [0, 1, 0, 0, 0, 0, 0, 0])
    for n in range(1, 9):
        k = n // 2
        expected = math.comb(2 * k, k) // (k + 1) if n % 2 == 0 else 0
        assert free_moment(spec, ("s",) * n) == expected, n


def test_free_poisson_moments_are_narayana_polynomials():
    # every cumulant lambda: the n-th moment is sum_k N(n, k) lambda^k
    for lam in (F(1), F(2, 3), F(-5, 2)):
        spec = _one_variable("p", [lam] * 8)
        for n in range(1, 9):
            narayana = sum(F(math.comb(n, k) * math.comb(n, k - 1), n) * lam**k
                           for k in range(1, n + 1))
            assert free_moment(spec, ("p",) * n) == narayana, (lam, n)


def matrix_factor(model: MatrixModel, rng: random.Random) -> Matrix:
    """A generator, a B constant, or a product of a B constant and a generator on either side."""
    g = model.generators[rng.choice(model.generator_names)]
    b = model.embed_b(Matrix([[draw_fraction(rng) for _ in range(model.d)] for _ in range(model.d)]))
    return rng.choice([g, b, b * g, g * b])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_matrix_psi_of_a_product_equals_psi_of_the_formed_product(d):
    # oracle for the half-product kernel: psi and phi of 1 to 6 factors,
    # generators and B constants on either side, against the literal route
    model = MatrixModel.random(2, dimension=d, max_order=8, seed=70 + d)
    ctx, rng = MatrixContext(model), random.Random(d)
    for _ in range(200 // d):
        xs = [matrix_factor(model, rng) for _ in range(rng.randint(1, 6 if d < 3 else 5))]
        flat = ctx.product(xs)
        assert ctx.psi_product(xs) == ctx.psi(flat)
        assert ctx.phi_scalar_product(xs) == ctx.phi_scalar(flat)


@pytest.mark.parametrize("max_order, power, error", [
    (3, 4, "moment of order 4 of variable 'g1_00' exceeds max_order=3"),
    (127, 128, "exponent of variable 'g1_00' exceeds 127"),
], ids=["past-max-order", "exponent-overflow"])
def test_matrix_psi_of_a_product_past_its_capacity_raises_the_literal_error(max_order, power, error):
    # the kernel falls back to the literal route, which raises the same error
    model = MatrixModel.random(1, dimension=1, max_order=max_order, seed=3)
    ctx, g = MatrixContext(model), model.generators["g1"]
    for hook in (ctx.psi_product, ctx.phi_scalar_product):
        with pytest.raises(CapacityError, match=error):
            hook([g] * power)


def test_a_matrix_cumulant_integrates_its_products_pair_by_pair(monkeypatch):
    # perf gate, on kappa_7 of g1 g2 g1 g2 g1 g2 g1 with MatrixModel.random(3,
    # 2, 8, 2024), its build counted: psi of a product is taken from its two
    # half products, so the product and its _integrate pass are never formed.
    # Formed and then integrated, it made 203 _integrate and 869 Matrix.__mul__ calls
    counts = {"integrate": 0, "mul": 0}
    integrate, mul = models._integrate, Matrix.__mul__
    monkeypatch.setattr(models, "_integrate", lambda *args: counts.update(integrate=counts["integrate"] + 1)
                        or integrate(*args))
    monkeypatch.setattr(Matrix, "__mul__", lambda x, y: counts.update(mul=counts["mul"] + 1) or mul(x, y))
    model = MatrixModel.random(3, 2, 8, 2024)
    args = [model.generators[g] for g in ("g1", "g2") * 3 + ("g1",)]
    value = free_cumulant(MatrixContext(model), Partition.full(7), args, Level.PSI)
    assert 0 < counts["integrate"] <= 32 and 0 < counts["mul"] <= 698
    monkeypatch.setattr(MatrixContext, "psi_product", ProbabilityContext.psi_product)
    assert free_cumulant(MatrixContext(model), Partition.full(7), args, Level.PSI) == value


def pairs_without_the_last_inner_index(right):
    """``models._paired_moments`` without the pairs through the inner index
    l = d - 1: the left factor's column d - 1 against the right factor's
    row d - 1, taken alone and subtracted."""
    def restricted(x, keep):
        return Matrix.from_numerators(x.ring, x.dimension, {k: c for k, c in x.terms.items() if keep(k)}, x.den)

    def paired(spec, left, right_, trace):
        value, l = dict(right(spec, left, right_, trace)), left.dimension - 1
        lp, rp = restricted(left, lambda k: k & 0xF == l), restricted(right_, lambda k: k >> 4 & 0xF == l)
        if lp.terms and rp.terms:
            scale = (left.den // lp.den) * (right_.den // rp.den)
            for k, c in right(spec, lp, rp, trace).items():
                value[k] = value.get(k, 0) - c * scale
        return value
    return paired


def test_a_wrong_pair_kernel_fails_the_checks_that_read_psi_literally(monkeypatch):
    # the kernel's fault row, over all twelve checks at seed 2024, as
    # measured: the engine's routes all take psi of a product through the
    # kernel, so the cumulant identities hold under it.  nested-closed-forms,
    # whose displays take the literal psi, fails, and so does
    # partial-cumulants, whose interval base at n = 2 sets psi of two
    # factors against psi of their product, formed
    monkeypatch.setattr(models, "_paired_moments", pairs_without_the_last_inner_index(models._paired_moments))
    reports = {identity: run_check(identity, seed=2024) for identity in ALL_CHECKS}
    assert {identity for identity, report in reports.items() if not report.passed} == {
        "partial-cumulants", "nested-closed-forms"}
    assert reports["nested-closed-forms"].witness["instance"] == {"display": "psi-partitioned", "seed": 2024}
    assert reports["partial-cumulants"].witness["instance"] == {
        "part": "interval-base", "seed": 2024, "n": 2, "rho": "{1,2}", "sigma": "{1,2}"}
