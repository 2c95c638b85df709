"""Probability models against hand-derived values.

Where a model draws random data, the tests below avoid the engine and
pin its primitives to values derived by hand: monomial expectations as
products of recorded moments, small free moments as explicit cumulant
sums, the conditional-expectation factorization rule evaluated on a
two-letter word, and the tensor split of a nested moment.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freecumulants.errors import CapacityError, DimensionMismatchError
from freecumulants.exact import Matrix
from freecumulants.models import (
    ClassicalContext,
    ClassicalSpec,
    FactorizationModel,
    MatrixContext,
    MatrixModel,
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
from freecumulants.partitions import LatticeKind, enumerate_partitions

F = Fraction


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
    assert ctx.in_b(ctx.psi(x * b * x))
    assert not ctx.in_b(x)


def test_matrix_model_rejects_wrong_dimension_coefficients():
    model = MatrixModel.random(dimension=2, seed=0)
    with pytest.raises(DimensionMismatchError):
        model.embed_b(Matrix.identity(3, F(1)))


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


def count_cumulant_calls(spec: ScalarFreeSpec) -> list:
    """Wrap ``spec.cumulant`` on the instance; the list grows by one per call."""
    calls = []
    cumulant = spec.cumulant

    def counted(word):
        calls.append(word)
        return cumulant(word)

    spec.cumulant = counted
    return calls


def test_a_cold_free_moment_of_length_n_evaluates_at_most_2_to_the_n_plus_1_cumulants():
    # the sum over NC(8) evaluates up to 6,435 blocks; the first-block recursion
    # evaluates at most 2^(L-1) first blocks for each sub-word of length L
    spec = ScalarFreeSpec.random({"a": ("a1", "a2")}, max_order=8, seed=3)
    calls = count_cumulant_calls(spec)
    free_moment(spec, ("a1", "a2", "a2", "a1", "a1", "a2", "a1", "a2"))
    assert 2**7 <= len(calls) <= 2**9


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
        assert ctx.in_b(ctx.psi(w))


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
    assert ctx.psi({(gens, units): F(1)}) == nc_sum_psi(ctx, gens, units)


def test_word_psi_of_a_length_6_word_evaluates_at_most_2_to_the_7_cumulants():
    # the sum over NC(6) evaluates up to 462 blocks; diagonal units keep every
    # trace nonzero, so no first block is cut short
    ctx = WordContext(FactorizationModel.random(2, dimension=2, max_order=6, seed=3))
    calls = count_cumulant_calls(ctx.model.scalars)
    gens = ("x1", "x2", "x1", "x1", "x2", "x2")
    units = ((0, 0), (1, 1), (0, 0), (0, 0), (1, 1), (1, 1), (0, 0))
    ctx.psi({(gens, units): F(1)})
    assert 2**5 <= len(calls) <= 2**7


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
        ("tensor", tensor, tgens, tbs),
        ("classical", classical, cgens, cbs),
    ]


def test_tower_property_on_fifty_random_elements_per_model():
    for name, ctx, gens, bs in model_zoo():
        rng = random.Random(f"tower:{name}")
        for x in random_elements(ctx, gens, bs, rng, 50):
            assert ctx.phi_scalar(ctx.psi(x)) == ctx.phi_scalar(x), name
            assert ctx.in_b(ctx.psi(x)), name
            assert ctx.in_c(ctx.phi(x)), name


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
        x = gens[0]
        for level, expect in (("B", ctx.psi), ("C", ctx.phi)):
            assert centered(ctx, ctx.unit(), level) == ctx.scale(F(0), ctx.unit()), name
            y = centered(ctx, x, level)
            assert ctx.phi_scalar(expect(y)) == 0, name
            assert centered(ctx, y, level) == y, name
        with pytest.raises(ValueError):
            centered(ctx, x, "D")


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
