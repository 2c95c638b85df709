"""Engine recursions: nesting, dual routes, conventions, closed forms."""

import gc
import itertools
from fractions import Fraction
import math
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from freecumulants import engine, models
from freecumulants.engine import (
    Level,
    NestedPair,
    expectation,
    free_cumulant,
    nested_cumulant,
    nested_moment,
    nested_semicumulant,
    partial_cumulant,
    phi_partitioned,
)
from freecumulants.errors import CrossingPartitionError, OrderViolationError
from freecumulants.exact import LinearCombination, Matrix, Poly
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
    classical_expect,
)
from freecumulants.partitions import (
    LatticeKind,
    Partition,
    enumerate_partitions,
    interval_list,
    moebius,
    parse_partition,
    quotient,
)

F = Fraction
NC = LatticeKind.NONCROSSING


@pytest.fixture(scope="module")
def matrix_ctx():
    return MatrixContext(MatrixModel.random(generator_count=2, dimension=2, max_order=8, seed=12))


def gens(ctx, n):
    names = ctx.model.generator_names
    return [ctx.model.generators[names[i % len(names)]] for i in range(n)]


def build_route_models(matrix_ctx):
    """(name, context, generator pool) for every noncrossing model; every
    context but ``matrix_ctx`` is new."""
    scalar = ScalarFreeContext(ScalarFreeSpec.random({"a": ("a1", "a2"), "b": ("b1",)}, seed=12))
    word = WordContext(FactorizationModel.random(2, dimension=2, seed=12))
    b = word.embed_b(Matrix([[F(1), F(-1)], [F(2), F(1, 2)]]))
    tensor = TensorContext(TensorModel.random(points=2, seed=12))
    return [
        ("matrix", matrix_ctx, gens(matrix_ctx, 2)),
        ("scalar-free", scalar, [scalar.gen(g) for g in ("a1", "b1", "a2")]),
        ("word", word, [word.gen("x1"), word.mul(word.gen("x2"), b)]),
        ("tensor", tensor, [tensor.simple(("a",), (F(1), F(2))),
                            tensor.simple(("a", "a"), (F(-1), F(1, 3)))]),
    ]


@pytest.fixture(scope="module")
def route_models(matrix_ctx):
    return build_route_models(matrix_ctx)


def new_route_models():
    """The route models over contexts with empty tables."""
    return build_route_models(MatrixContext(MatrixModel.random(generator_count=2, dimension=2, seed=12)))


def cycle(pool, n):
    return [pool[i % len(pool)] for i in range(n)]


def interval_block_extractions(ctx, part, args, level):
    """phi_partitioned by extracting interval blocks one at a time, one
    value per extraction order.  A block {k..l} whose arguments lie next to
    each other is replaced by the expectation of their product, which
    left-multiplies the next argument, or right-multiplies the previous
    one when the block is terminal; bimodularity of the expectation makes
    every order give the same value."""
    if not args:
        yield ctx.unit()
        return
    for block in part.blocks:
        k, l = block[0], block[-1]
        if l - k + 1 != len(block):
            continue
        e = expectation(ctx, ctx.product(args[k - 1 : l]), level)
        if len(block) == len(args):
            yield e
            continue
        if l == len(args):
            rest = args[: k - 1]
            rest[-1] = ctx.mul(rest[-1], e)
        else:
            rest = args[: k - 1] + [ctx.mul(e, args[l])] + args[l + 1 :]
        smaller = part.restrict(tuple(i for i in range(1, part.n + 1) if i < k or i > l))
        yield from interval_block_extractions(ctx, smaller, rest, level)


def test_single_block_cumulant_enumerates_its_lattice_once():
    # perf gate: mu is closed-form, so the Moebius route's kappa_8 lists
    # NC(8) once and mu lists nothing
    def lookups():
        info = interval_list.cache_info()
        return info.hits + info.misses

    before = lookups()
    assert moebius(Partition.discrete(8), Partition.full(8), NC) == -429
    assert lookups() == before
    spec = ScalarFreeSpec.random({"a": ("a1", "a2")}, seed=3)
    ctx = ScalarFreeContext(spec)
    word = ("a1", "a2") * 4
    value = free_cumulant(ctx, Partition.full(8), [ctx.gen(g) for g in word], Level.PSI,
                          method="moebius")
    assert lookups() - before <= 1
    assert value == ctx.embed_scalar(spec.cumulant(word))


def test_partitioned_expectation_equals_every_interval_block_extraction():
    # the first-block nesting against the interval-block extraction under
    # every order, on every noncrossing partition up to n = 4
    for name, ctx, pool in new_route_models():
        for n in range(1, 5):
            args = cycle(pool, n)
            for part in enumerate_partitions(n, NC):
                for level in Level:
                    value = phi_partitioned(ctx, part, args, level)
                    orders = list(interval_block_extractions(ctx, part, args, level))
                    assert len(orders) >= 1 and all(v == value for v in orders), (name, part, level)


def test_functionals_of_no_arguments_are_the_unit(classical):
    spec, _ = classical
    empty = Partition(0, ())
    for name, ctx, _ in [("classical", ClassicalContext(spec), [])] + new_route_models():
        for level in Level:
            assert phi_partitioned(ctx, empty, [], level) == ctx.unit(), (name, level)
            assert free_cumulant(ctx, empty, [], level) == ctx.unit(), (name, level)


@pytest.fixture(scope="module")
def deep_route_models(route_models, classical):
    """Every model of ``route_models`` and the classical one, with pools
    whose products of six stay within each model's order cap.  The word
    model's coefficient swaps the two matrix units, which keeps psi of a
    product of six to a few hundred basis words; the dense one of
    ``route_models`` makes such a cumulant take seconds."""
    spec, _ = classical
    f, g, h = map(spec.ring.var, "fgh")
    models = [m for m in route_models if m[0] not in ("word", "tensor")]
    word = WordContext(FactorizationModel.random(2, dimension=2, seed=12))
    swap = word.embed_b(Matrix([[F(0), F(1)], [F(1), F(0)]]))
    models.append(("word", word, [word.gen("x1"), word.mul(word.gen("x2"), swap)]))
    tensor = TensorContext(TensorModel.random(points=2, seed=12))
    models.append(("tensor", tensor, [
        tensor.simple(("a",), (F(1), F(2))),
        tensor.add(tensor.simple(("a",), (F(-1), F(1, 3))), tensor.simple((), (F(2), F(0)))),
    ]))
    models.append(("classical", ClassicalContext(spec, frozenset({"f"})), [f, g + h, f * h - g]))
    return models


def test_cumulant_routes_agree(route_models):
    # every noncrossing partition up to n = 4, the dense word coefficient
    # and the two-letter tensor word included
    for name, ctx, pool in route_models:
        for n in range(1, 5):
            args = cycle(pool, n)
            for part in enumerate_partitions(n, NC):
                for level in Level:
                    a = free_cumulant(ctx, part, args, level, method="moebius")
                    b = free_cumulant(ctx, part, args, level, method="recursion")
                    assert a == b, (name, part, level)
                    assert free_cumulant(ctx, part, args, level, cross_check=True) == a, name


@pytest.mark.parametrize("keep", [frozenset(), frozenset({"f"})], ids=["plain", "keep-f"])
def test_full_lattice_cumulant_routes_agree(classical, keep):
    # every set partition up to n = 5: the Moebius sum over P(n) against the
    # blocks' first-block recursion over subsets, on a fresh context
    spec, polys = classical
    ctx = ClassicalContext(spec, keep)
    for n in range(1, 6):
        args = cycle(polys, n)
        for part in enumerate_partitions(n, LatticeKind.FULL):
            for level in Level:
                a = free_cumulant(ctx, part, args, level, method="moebius")
                assert free_cumulant(ctx, part, args, level, method="recursion") == a, (part, level)
                assert free_cumulant(ctx, part, args, level, cross_check=True) == a, (part, level)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_deep_cumulant_routes_agree(deep_route_models, data):
    name, ctx, pool = data.draw(st.sampled_from(deep_route_models))
    n = data.draw(st.integers(1, 6))
    args = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    part = data.draw(st.one_of(st.just(Partition.full(n)),
                               st.sampled_from(enumerate_partitions(n, ctx.kind))))
    level = data.draw(st.sampled_from(Level))
    a = free_cumulant(ctx, part, args, level, method="moebius")
    assert free_cumulant(ctx, part, args, level, method="recursion") == a, (name, part, level)
    assert free_cumulant(ctx, part, args, level, cross_check=True) == a, name


def test_the_scalar_recursion_equals_the_moebius_sum_on_cold_and_warm_tables():
    # the tuple-keyed phi-cumulants against the Moebius sum on every
    # partition of NC(n), n <= 5, over two families with repeated arguments:
    # cold, a fresh context and spec per partition; warm, one context whose
    # table first took the cumulants of other words over the same arguments
    def spec():
        return ScalarFreeSpec.random({"a": ("a1", "a2"), "b": ("b1",)}, seed=31)

    warm = ScalarFreeContext(spec())
    a1, a2, b1 = (warm.gen(g) for g in ("a1", "a2", "b1"))
    pool = [a1, warm.sub(b1, warm.phi(b1)), a1, warm.add(a2, warm.mul(a1, b1)), warm.sub(b1, warm.phi(b1))]
    for n in range(1, 6):
        free_cumulant(warm, Partition.full(n), pool[::-1][:n], Level.PHI)
        free_cumulant(warm, Partition.full(n), (pool[1:] + pool[:1])[:n], Level.PHI)
    for n in range(1, 6):
        args = pool[:n]
        for part in enumerate_partitions(n, NC):
            reference = free_cumulant(ScalarFreeContext(spec()), part, args, Level.PHI, method="moebius")
            assert free_cumulant(ScalarFreeContext(spec()), part, args, Level.PHI) == reference, part
            assert free_cumulant(warm, part, args, Level.PHI) == reference, part
            assert free_cumulant(warm, part, args, Level.PHI, cross_check=True) == reference, part


@pytest.mark.parametrize("n", [6, 7, 8])
def test_a_scalar_cumulant_evaluates_each_subset_once(monkeypatch, n):
    # perf gate: one phi_scalar_product call per nonempty subset of the
    # arguments, against one phi_partitioned call per element of NC(n) on
    # the Moebius route
    calls = []
    phi_scalar_product = ScalarFreeContext.phi_scalar_product
    monkeypatch.setattr(ScalarFreeContext, "phi_scalar_product",
                        lambda self, xs: calls.append(1) or phi_scalar_product(self, xs))
    spec = ScalarFreeSpec.random({"a": ("a1", "a2")}, seed=n)
    ctx = ScalarFreeContext(spec)
    word = ("a1", "a2") * 4
    value = free_cumulant(ctx, Partition.full(n), [ctx.gen(g) for g in word[:n]], Level.PHI)
    assert value == ctx.embed_scalar(spec.cumulant(word[:n]))
    assert 0 < len(calls) <= 2**n - 1


def test_an_operator_valued_cumulant_takes_few_psi_calls(monkeypatch):
    # perf gate: matrix psi-kappa_7 of an alternating word makes 199 psi
    # calls; the Moebius route makes 1,716
    model = MatrixModel.random(generator_count=3, dimension=2, seed=1)
    a, b = (model.generators[g] for g in ("g1", "g2"))
    args = [a, b, a, b, a, b, a]
    calls = []
    psi = MatrixContext.psi
    monkeypatch.setattr(MatrixContext, "psi", lambda self, x: calls.append(1) or psi(self, x))
    value = free_cumulant(MatrixContext(model), Partition.full(7), args, Level.PSI)
    assert 0 < len(calls) <= 200
    assert value == free_cumulant(MatrixContext(model), Partition.full(7), args, Level.PSI,
                                  method="moebius")


def test_a_matrix_partial_cumulant_scales_no_matrix(monkeypatch, matrix_ctx):
    # perf gate: the Moebius sum is one combination of the partitioned
    # expectations; it built a scaled copy of each of the 14 before
    args = gens(matrix_ctx, 4)
    calls = []
    scale = Matrix.scale
    monkeypatch.setattr(Matrix, "scale", lambda self, c: calls.append(c) or scale(self, c))
    value = partial_cumulant(matrix_ctx, Partition.discrete(4), Partition.full(4), args, Level.PSI)
    assert calls == []
    assert value == free_cumulant(matrix_ctx, Partition.full(4), args, Level.PSI)


def test_a_word_cumulant_keeps_one_scalar_in_lowest_terms_per_word(monkeypatch):
    # perf gate: psi-kappa_6 of an alternating word takes psi of each of its
    # 116 argument products over one simple tensor, and evaluates no basis
    # word.  On the flat route, the reference, psi of a basis word is
    # c E_{(u0.i, uk.j)}, so the model keeps only c, as an int pair in lowest
    # terms: the same cumulant keeps 1,032 of them
    word = ("x2", "x1") * 3
    tensors = []
    psi_simple = WordContext._psi_simple
    monkeypatch.setattr(WordContext, "_psi_simple",
                        lambda self, gens, mats: tensors.append(gens) or psi_simple(self, gens, mats))
    model = FactorizationModel.random(2, dimension=2, max_order=8, seed=9301)
    ctx = WordContext(model)
    value = free_cumulant(ctx, Partition.full(6), [ctx.gen(g) for g in word], Level.PSI)
    assert value == ctx.embed_scalar(model.scalars.cumulant(word))
    assert model._psi_cache == {} and 0 < len(tensors) <= 116
    monkeypatch.setattr(WordContext, "psi_product", ProbabilityContext.psi_product)
    flat = FactorizationModel.random(2, dimension=2, max_order=8, seed=9301)
    ctx = WordContext(flat)
    assert free_cumulant(ctx, Partition.full(6), [ctx.gen(g) for g in word], Level.PSI) == value
    assert 0 < len(flat._psi_cache) <= 1100
    for num, den in flat._psi_cache.values():
        assert type(num) is int and type(den) is int and den > 0 and math.gcd(num, den) == 1


def test_a_matrix_cumulant_takes_each_monomial_moment_and_splice_factor_once(monkeypatch):
    # perf gate, on the matrix kappa_7 of the kappa-deep benchmark at seed
    # 2024 (model seed 24, g2 and g3 alternating): the spec keeps each
    # monomial's moment, so its 10,516 integrated terms take 1,297 table
    # products, and each spliced factor is formed once per gap, so it makes
    # 1,163 matrix products where it made 1,484
    model = MatrixModel.random(3, 2, 8, 24)
    args = [model.generators[g] for g in ("g2", "g3") * 3 + ("g2",)]
    counts = {"prod": 0, "mul": 0}
    prod, mul = models.prod, Matrix.__mul__
    monkeypatch.setattr(models, "prod", lambda xs: counts.update(prod=counts["prod"] + 1) or prod(xs))
    monkeypatch.setattr(Matrix, "__mul__", lambda x, y: counts.update(mul=counts["mul"] + 1) or mul(x, y))
    value = free_cumulant(MatrixContext(model), Partition.full(7), args, Level.PSI)
    assert 0 < counts["prod"] <= 1297 and 0 < counts["mul"] <= 1163
    assert value == free_cumulant(MatrixContext(model), Partition.full(7), args, Level.PSI, method="moebius")


def test_a_word_cumulant_factors_each_element_once(monkeypatch):
    # perf gate, on the word-model kappa_6 of the kappa-deep benchmark at
    # seed 2024: the context keeps the simple tensors of each element, so
    # the 28 distinct elements psi_product meets are factored once each,
    # where they were factored 331 times
    word = ("x2", "x1") * 3
    model = FactorizationModel.random(2, 2, 8, 2024)
    ctx = WordContext(model)
    factored = []
    simple_terms = WordContext._simple_terms
    monkeypatch.setattr(WordContext, "_simple_terms", lambda self, x: factored.append(x) or simple_terms(self, x))
    value = free_cumulant(ctx, Partition.full(6), [ctx.gen(g) for g in word], Level.PSI)
    assert value == ctx.embed_scalar(model.scalars.cumulant(word))
    assert 0 < len(factored) == len(set(factored)) <= 28
    assert set(ctx._factors) == set(factored)


def test_basis_words_differing_only_in_u0_i_or_uk_j_share_one_psi_entry():
    # c depends on neither u0.i nor uk.j, so the d^2 words below are one entry
    model = FactorizationModel.random(2, dimension=3, max_order=8, seed=9301)
    ctx = WordContext(model)
    gens, inner = ("x1", "x2", "x1", "x2"), ((0, 1), (1, 1), (1, 0))

    def word(i, j):
        return LinearCombination({(gens, ((i, 0),) + inner + ((0, j),)): 1})

    ((key, c),) = ctx.psi(word(0, 0)).items()
    assert key == ((), ((0, 0),)) and c != 0
    entries = len(model._psi_cache)
    for i, j in itertools.product(range(3), repeat=2):
        assert ctx.psi(word(i, j)) == LinearCombination.collect([(((), ((i, j),)), c)])
    assert len(model._psi_cache) == entries


def test_a_cumulant_leaves_no_reference_cycles():
    # the recursions' memos are the context's table and plain dicts passed
    # down, never closures over themselves, so nothing waits for the cycle
    # collector
    gc.collect()
    for name, ctx, pool in new_route_models():
        for level in Level:
            free_cumulant(ctx, Partition.full(5), cycle(pool, 5), level)
            assert gc.collect() == 0, (name, level)


def test_nested_semicumulant_routes_agree(route_models):
    for name, ctx, pool in route_models:
        for n in range(1, 4):
            args = cycle(pool, n)
            for outer in enumerate_partitions(n, NC):
                for inner in interval_list(Partition.discrete(n), outer, NC):
                    pair = NestedPair(inner, outer)
                    a = nested_semicumulant(ctx, pair, args, method="moebius")
                    assert nested_semicumulant(ctx, pair, args, method="recursion") == a, (name, pair)
                    assert nested_semicumulant(ctx, pair, args, cross_check=True) == a, name


def nested_pairs(n_max):
    for n in range(1, n_max + 1):
        for outer in enumerate_partitions(n, NC):
            for inner in interval_list(Partition.discrete(n), outer, NC):
                yield NestedPair(inner, outer)


def nested_keys(ctx):
    return [key for key in ctx.phi_table if isinstance(key[0], NestedPair)]


def test_only_the_default_route_tables_nested_semicumulants():
    for name, ctx, pool in new_route_models():
        if name == "tensor":
            continue
        reference = {}
        for pair in nested_pairs(4):
            args = cycle(pool, pair.outer.n)
            reference[pair] = nested_semicumulant(ctx, pair, args, method="moebius")
            assert nested_semicumulant(ctx, pair, args, cross_check=True) == reference[pair], name
        assert nested_keys(ctx) == [], name
        for pair, value in reference.items():
            args = cycle(pool, pair.outer.n)
            first = nested_semicumulant(ctx, pair, args)
            assert first == value, (name, pair)
            assert nested_semicumulant(ctx, pair, args) is first, (name, pair)
        assert len(nested_keys(ctx)) == len(reference), name


def scalar_free_cumulant(spec, entries):
    """kappa_n of commuting polynomial entries against classical_expect.

    m(S) is the sum over the blocks V holding min S of kappa(V) times the
    moments of the runs of S that V leaves: between its elements and after
    its last.  Positions index ``entries``."""
    moments, kappas = {}, {}

    def moment(positions):
        if positions not in moments:
            product = spec.ring.one
            for p in positions:
                product = product * entries[p]
            moments[positions] = classical_expect(spec, product)
        return moments[positions]

    def kappa(positions):
        if positions not in kappas:
            first, rest = positions[0], positions[1:]
            value = moment(positions)
            for r in range(len(rest)):
                for chosen in itertools.combinations(rest, r):
                    block = (first, *chosen)
                    term = kappa(block)
                    for lo, hi in zip(block, block[1:] + (len(entries),)):
                        run = tuple(p for p in positions if lo < p < hi)
                        if run:
                            term *= moment(run)
                    value -= term
            kappas[positions] = value
        return kappas[positions]

    return kappa(tuple(range(len(entries))))


def path_sum(model, args, i, j):
    total = Fraction(0)
    for inner in itertools.product(range(model.d), repeat=len(args) - 1):
        path = (i, *inner, j)
        entries = [a.entries[path[k]][path[k + 1]] for k, a in enumerate(args)]
        total += scalar_free_cumulant(model.spec, entries)
    return total


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2), st.integers(0, 10**6), st.data())
def test_matrix_cumulants_are_path_sums_of_scalar_cumulants(d, seed, data):
    # for psi = id (x) E on M_d: kappa_n(A_1..A_n)_ij is the sum over index
    # paths i -> i_1 -> ... -> j of the scalar free cumulants of the entries
    # (Nica-Shlyakhtenko-Speicher, Operator-valued distributions I, 2002)
    model = MatrixModel.random(generator_count=2, dimension=d, seed=seed)
    n = data.draw(st.integers(1, 5))
    coefficient = st.fractions(-2, 2, max_denominator=3)
    args = []
    for _ in range(n):
        g = model.generators[data.draw(st.sampled_from(model.generator_names))]
        b = Matrix([[data.draw(coefficient) for _ in range(d)] for _ in range(d)])
        args.append(model.embed_b(b) * g if data.draw(st.booleans()) else g)
    expected = [[path_sum(model, args, i, j) for j in range(d)] for i in range(d)]
    got = free_cumulant(MatrixContext(model), Partition.full(n), args, Level.PSI)
    assert got == model.embed_b(Matrix(expected))


def test_unknown_method_is_rejected(matrix_ctx):
    with pytest.raises(ValueError, match="unknown method"):
        free_cumulant(matrix_ctx, Partition.full(2), gens(matrix_ctx, 2), method="guess")


def test_a_disagreeing_recursion_fails_the_cross_check(monkeypatch, classical):
    # the Moebius routes never call _cumulant_recursive, so a fault there
    # shows up as a disagreement rendered by the context, on the noncrossing
    # lattice of the tensor context and on the full one of the classical
    spec, polys = classical
    tensor = TensorContext(TensorModel.random(points=2, seed=12))
    models = [(tensor, [tensor.simple(("a",), (F(1), F(2))), tensor.simple(("a", "a"), (F(-1), F(1, 3))),
                        tensor.simple(("a",), (F(2), F(0)))]),
              (ClassicalContext(spec, frozenset({"f"})), list(polys))]
    part, pair = Partition.full(3), NestedPair(parse_partition("{1,3}{2}"), Partition.full(3))
    right = engine._cumulant_recursive
    monkeypatch.setattr(engine, "_cumulant_recursive",
                        lambda ctx, *rest: ctx.add(right(ctx, *rest), ctx.unit()))
    for ctx, args in models:
        reference = free_cumulant(ctx, part, args, Level.PSI, method="moebius")
        with pytest.raises(RuntimeError, match="cumulant cross-check failed") as failed:
            free_cumulant(ctx, part, args, Level.PSI, cross_check=True)
        wrong = ctx.add(reference, ctx.unit())
        assert str(failed.value).endswith(f"{ctx.describe(reference)} vs {ctx.describe(wrong)}")
        reference = nested_semicumulant(ctx, pair, args, method="moebius")
        with pytest.raises(RuntimeError, match="nested cross-check failed") as failed:
            nested_semicumulant(ctx, pair, args, cross_check=True)
        recursion = nested_semicumulant(ctx, pair, args, method="recursion")
        assert recursion != reference
        assert str(failed.value).endswith(f"{ctx.describe(reference)} vs {ctx.describe(recursion)}")


def test_terminal_interval_block_multiplies_from_the_right(matrix_ctx):
    # psi along {1,3}{2} extracts psi(x2) into the slot between x1 and x3
    ctx = matrix_ctx
    x1, x2, x3 = gens(ctx, 3)
    part = parse_partition("{1,3}{2}")
    got = phi_partitioned(ctx, part, [x1, x2, x3], Level.PSI)
    assert got == ctx.psi(x1 * ctx.psi(x2) * x3)


def test_nested_pair_requires_refinement():
    with pytest.raises(OrderViolationError):
        NestedPair(Partition.full(3), parse_partition("{1,2}{3}"))


def test_crossing_partitions_are_rejected(matrix_ctx):
    crossing = parse_partition("{1,3}{2,4}")
    with pytest.raises(CrossingPartitionError):
        phi_partitioned(matrix_ctx, crossing, gens(matrix_ctx, 4), Level.PSI)


def test_two_point_expansion_of_the_total_cumulant(matrix_ctx):
    # C2^phi = phi(C2^psi) + C2^phi(psi(.), psi(.)), the two-term case
    ctx = matrix_ctx
    x1, x2 = gens(ctx, 2)
    top = Partition.full(2)
    lhs = free_cumulant(ctx, top, [x1, x2], Level.PHI)
    t1 = ctx.phi(free_cumulant(ctx, top, [x1, x2], Level.PSI))
    t2 = free_cumulant(ctx, top, [ctx.psi(x1), ctx.psi(x2)], Level.PHI)
    assert lhs == ctx.add(t1, t2)
    # and these are exactly the two nested cumulants
    assert t1 == nested_cumulant(ctx, NestedPair(top, top), [x1, x2])
    assert t2 == nested_cumulant(ctx, NestedPair(Partition.discrete(2), top), [x1, x2])


def test_singleton_expectations_collapse(matrix_ctx):
    ctx = matrix_ctx
    (x,) = gens(ctx, 1)
    one = Partition.full(1)
    assert free_cumulant(ctx, one, [x], Level.PSI) == ctx.psi(x)
    assert phi_partitioned(ctx, one, [x], Level.PHI) == ctx.phi(x)
    assert nested_cumulant(ctx, NestedPair(one, one), [x]) == ctx.phi(x)
    assert expectation(ctx, x, Level.PHI) == ctx.phi(x)


# ---------------------------------------------------------------------------
# classical wrappers: the same engine on the full lattice over polynomials


def classical_m(spec: ClassicalSpec, part: Partition, polys) -> Fraction:
    """Partitioned classical moment: product over blocks of E[block product]."""
    ctx = ClassicalContext(spec)
    return ctx.phi_scalar(phi_partitioned(ctx, part, polys, Level.PHI))


def classical_kappa(spec: ClassicalSpec, part: Partition, polys) -> Fraction:
    """Partitioned classical cumulant over the full lattice."""
    ctx = ClassicalContext(spec)
    return ctx.phi_scalar(free_cumulant(ctx, part, polys, Level.PHI))


def classical_kappa_conditional(
    spec: ClassicalSpec, part: Partition, polys, keep: frozenset[str]
) -> Poly:
    """Conditional cumulant given the variables in ``keep``; a polynomial."""
    ctx = ClassicalContext(spec, keep)
    return free_cumulant(ctx, part, polys, Level.PSI)


def classical_nested_kappa(
    spec: ClassicalSpec,
    outer: Partition,
    inner: Partition,
    polys,
    keep: frozenset[str],
) -> Fraction:
    """Outer cumulant of inner conditional cumulants."""
    ctx = ClassicalContext(spec, keep)
    value = nested_cumulant(ctx, NestedPair(inner, outer), polys)
    return ctx.phi_scalar(value)


def classical_nested_kappa_factored(
    spec: ClassicalSpec,
    outer: Partition,
    inner: Partition,
    polys,
    keep: frozenset[str],
) -> Fraction:
    """Closed form: the quotient-partition cumulant of the blockwise
    conditional cumulants, kappa_{outer/inner}(kappa(block | keep) : blocks)."""
    ctx = ClassicalContext(spec, keep)
    polys = list(polys)
    block_args = [
        free_cumulant(ctx, Partition.full(len(b)), [polys[i - 1] for i in b], Level.PSI)
        for b in inner.blocks
    ]
    q = quotient(outer, inner)
    return ctx.phi_scalar(free_cumulant(ctx, q, block_args, Level.PHI))


@pytest.fixture(scope="module")
def classical():
    spec = ClassicalSpec.random(["f", "g", "h"], max_order=8, seed=21)
    ring = spec.ring
    f, g, h = ring.var("f"), ring.var("g"), ring.var("h")
    return spec, (f * g + h, g * g, f + g * h)


def test_classical_cumulants_of_one_variable_follow_the_binomial_recursion(classical):
    # kappa_n = m_n - sum over k < n of C(n-1, k-1) kappa_k m_{n-k}
    spec, _ = classical
    x = spec.ring.var("f")
    m = [spec.moment("f", k) for k in range(9)]
    kappa = [None]
    for n in range(1, 9):
        kappa.append(m[n] - sum(comb(n - 1, k - 1) * kappa[k] * m[n - k] for k in range(1, n)))
        assert classical_kappa(spec, Partition.full(n), [x] * n) == kappa[n], n


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from("fgh"), min_size=2, max_size=6).filter(lambda w: len(set(w)) > 1))
def test_mixed_classical_cumulants_of_independent_variables_vanish(classical, word):
    spec, _ = classical
    args = [spec.ring.var(v) for v in word]
    assert classical_kappa(spec, Partition.full(len(word)), args) == 0


def test_classical_kappa_matches_textbook_forms(classical):
    spec, _ = classical
    x = spec.ring.var("f")
    m1 = classical_expect(spec, x)
    m2 = classical_expect(spec, x * x)
    m3 = classical_expect(spec, x * x * x)
    two, three = Partition.full(2), Partition.full(3)
    assert classical_kappa(spec, two, [x, x]) == m2 - m1 ** 2
    assert classical_kappa(spec, three, [x, x, x]) == m3 - 3 * m2 * m1 + 2 * m1 ** 3
    assert classical_m(spec, parse_partition("{1,3}{2}"), [x, x, x]) == m2 * m1


def test_law_of_total_variance(classical):
    spec, polys = classical
    x = polys[0]
    keep = frozenset({"f"})
    top = Partition.full(2)
    var = classical_kappa(spec, top, [x, x])
    cond_var = classical_kappa_conditional(spec, top, [x, x], keep)
    mean_of_var = classical_expect(spec, cond_var)
    cond_mean = classical_kappa_conditional(spec, Partition.full(1), [x], keep)
    var_of_mean = classical_kappa(spec, top, [cond_mean, cond_mean])
    assert var == mean_of_var + var_of_mean


def test_nested_kappa_agrees_with_its_factored_form(classical):
    spec, polys = classical
    keep = frozenset({"f"})
    for n in (2, 3):
        args = list(polys[:n])
        outer = Partition.full(n)
        for inner in enumerate_partitions(n, LatticeKind.FULL):
            a = classical_nested_kappa(spec, outer, inner, args, keep)
            b = classical_nested_kappa_factored(spec, outer, inner, args, keep)
            assert a == b


def test_full_lattice_requires_a_commutative_context(matrix_ctx):
    with pytest.raises(CrossingPartitionError):
        # the matrix context only carries the noncrossing lattice, so a
        # crossing partition can never be evaluated, even at level phi
        free_cumulant(matrix_ctx, parse_partition("{1,3}{2,4}"), gens(matrix_ctx, 4), Level.PHI)


def test_partial_cumulant_rejects_incomparable_pairs(classical):
    spec, polys = classical
    ctx = ClassicalContext(spec)
    with pytest.raises(OrderViolationError):
        partial_cumulant(ctx, parse_partition("{1,2}{3}"), parse_partition("{1,3}{2}"),
                         list(polys), Level.PHI)


def test_nested_moment_restricts_the_inner_partition(matrix_ctx):
    ctx = matrix_ctx
    args = gens(ctx, 3)
    inner = parse_partition("{1}{2}{3}")
    outer = parse_partition("{1,3}{2}")
    got = nested_moment(ctx, NestedPair(inner, outer), args)
    x1, x2, x3 = args
    assert got == ctx.phi(ctx.psi(x1) * ctx.phi(ctx.psi(x2)) * ctx.psi(x3))


def nested_windows(part):
    """The position ranges whose partitioned expectations a noncrossing
    partitioned expectation of ``part`` keeps: every nonempty suffix that is
    a union of blocks, of the whole range or of a gap between two
    consecutive elements of a block."""
    blocks = [set(b) for b in part.blocks]
    ranges = [(1, part.n)] + [(a + 1, b - 1) for b in part.blocks for a, b in zip(b, b[1:]) if b > a + 1]
    out = set()
    for first, last in ranges:
        for lo in range(first, last + 1):
            span = set(range(lo, last + 1))
            if all(b <= span or not b & span for b in blocks):
                out.add(tuple(range(lo, last + 1)))
    return out


def test_a_context_table_keeps_every_entry_as_long_as_the_context():
    # 4^4 argument tuples x NC(4) x both levels are 7,168 partitioned
    # expectations; each keeps the windows its nesting visits as
    # partitioned expectations of their own.  Their blocks take 2,000
    # distinct block expectations, each through the context's hook once,
    # and the phi of each is kept as an integer pair under ("moment",
    # positions) too.  None is ever dropped, so the first value computed
    # comes back itself
    ctx = ScalarFreeContext(ScalarFreeSpec.random({"a": ("a1", "a2"), "b": ("b1", "b2")}, seed=12))
    hooked = []

    def hooking(hook, tag):
        def hooked_call(xs):
            xs = tuple(xs)
            hooked.append((tag, xs))
            return hook(xs)
        return hooked_call

    for name, level in (("psi_product", Level.PSI), ("phi_scalar_product", Level.PHI)):
        setattr(ctx, name, hooking(getattr(ctx, name), level.value))
    pool = [ctx.gen(g) for g in ("a1", "a2", "b1", "b2")]
    parts = enumerate_partitions(4, NC)
    first = phi_partitioned(ctx, parts[0], pool, Level.PSI)
    for args in itertools.product(pool, repeat=4):
        for part in parts:
            for level in Level:
                phi_partitioned(ctx, part, args, level)
    whole = {(part, level, args) for args in itertools.product(pool, repeat=4)
             for part in parts for level in Level}
    assert len(whole) == 4**4 * len(parts) * len(Level) == 7168
    partitioned = {(part.restrict(w), level, tuple(args[i - 1] for i in w))
                   for part, level, args in whole for w in nested_windows(part)}
    assert whole <= partitioned
    assert len(hooked) == len(set(hooked)) == 2000
    index = ctx.phi_table["arguments"]
    moments = {("moment", tuple(index[x] for x in xs)) for tag, xs in hooked if tag == "phi"}
    assert len(moments) == len(hooked) - sum(tag == "psi" for tag, _ in hooked)
    assert set(ctx.phi_table) == partitioned | set(hooked) | moments | {"arguments"}
    assert phi_partitioned(ctx, parts[0], pool, Level.PSI) is first


def test_every_context_keeps_a_table(classical):
    # the partitioned expectation and the psi of each of its blocks: on the
    # full lattice the blocks' own arguments, on the noncrossing one the
    # block {1,3} takes psi(x2) into its first argument, and the gap {2} is
    # kept as the partitioned expectation of its own window
    spec, polys = classical
    part = parse_partition("{1,3}{2}")
    classical_model = ("classical", ClassicalContext(spec, frozenset({"f"})), polys)
    for name, ctx, pool in [classical_model] + new_route_models():
        args = cycle(pool, 3)
        value = phi_partitioned(ctx, part, args, Level.PSI)
        assert value == ctx.psi(ctx.mul(ctx.mul(args[0], ctx.psi(args[1])), args[2])), name
        outer = (args[0], args[2]) if ctx.kind is LatticeKind.FULL else (ctx.mul(args[0], ctx.psi(args[1])), args[2])
        blocks = {("psi", (args[1],)): ctx.psi(args[1]), ("psi", outer): ctx.psi(ctx.product(outer))}
        if ctx.kind is LatticeKind.NONCROSSING:
            blocks[Partition.full(1), Level.PSI, (args[1],)] = ctx.psi(args[1])
        assert ctx.phi_table == {(part, Level.PSI, tuple(args)): value, **blocks}, name
        assert phi_partitioned(ctx, part, args, Level.PSI) is value, name


LC_CONTEXT = ScalarFreeContext(ScalarFreeSpec.random({"a": ("a1", "a2"), "b": ("b1",)}, seed=12))
LC_TERMS = st.lists(st.tuples(st.lists(st.sampled_from(("a1", "a2", "b1")), max_size=2),
                              st.integers(-2, 2)), max_size=4)


def lc_element(terms):
    ctx = LC_CONTEXT
    return ctx.sum(ctx.scale(c, ctx.product(map(ctx.gen, word))) for word, c in terms)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.sampled_from("ab")), st.fractions(-2, 2, max_denominator=2)))
def test_a_linear_combination_drops_zeros_and_hashes_on_its_items(coeffs):
    x = LinearCombination.collect(coeffs.items())
    assert dict(x.items()) == {k: c for k, c in coeffs.items() if c != 0}
    assert 0 not in x.terms.values()
    y = LinearCombination.collect(reversed(list(coeffs.items())))
    assert hash(x) == hash(y) and {x: 1}[y] == 1
    # repeated keys are summed, and a sum that cancels is dropped
    doubled = LinearCombination.collect([*coeffs.items(), *coeffs.items()])
    assert dict(doubled.items()) == {k: 2 * c for k, c in x.items()}
    assert LinearCombination.collect([*coeffs.items(), *((k, -c) for k, c in coeffs.items())]) == LinearCombination({})


RING_CONTEXTS = {"scalar-free": LC_CONTEXT, "word": WordContext(FactorizationModel.random(1, seed=12))}
RING_KEYS = {
    "scalar-free": st.lists(st.sampled_from(("a1", "a2", "b1")), max_size=2).map(tuple),
    "word": st.integers(0, 2).flatmap(lambda k: st.tuples(
        st.just(("x1",) * k),
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=k + 1, max_size=k + 1).map(tuple))),
}
SMALL_FRACTIONS = st.fractions(-3, 3, max_denominator=6)


def reference_sum(pairs) -> dict:
    """{key: Fraction} of a sum of (key, coefficient) pairs, zeros dropped."""
    out: dict = {}
    for k, c in pairs:
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("name", sorted(RING_CONTEXTS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_linear_combinations_obey_the_ring_laws_of_a_fraction_reference(name, data):
    ctx = RING_CONTEXTS[name]
    terms = [data.draw(st.lists(st.tuples(RING_KEYS[name], SMALL_FRACTIONS), max_size=4)) for _ in range(3)]
    c = data.draw(SMALL_FRACTIONS)
    x, y, z = (LinearCombination.collect(t) for t in terms)
    rx, ry = reference_sum(terms[0]), reference_sum(terms[1])
    # each operation equals the plain {key: Fraction} computation
    assert dict(x.items()) == rx and dict(y.items()) == ry
    assert dict(ctx.add(x, y).items()) == reference_sum([*rx.items(), *ry.items()])
    assert dict(ctx.scale(c, x).items()) == reference_sum((k, c * v) for k, v in rx.items())
    assert dict(ctx.combine([(c, x), (-1, y), (2, z)]).items()) == reference_sum(
        [*((k, c * v) for k, v in rx.items()), *((k, -v) for k, v in ry.items()),
         *((k, 2 * v) for k, v in reference_sum(terms[2]).items())])
    assert dict(ctx.mul(x, y).items()) == reference_sum(
        (k, a * b) for k1, a in rx.items() for k2, b in ry.items()
        if (k := ctx.key_product(k1, k2)) is not None)
    # the ring laws
    assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))
    assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
    assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
    assert ctx.mul(ctx.add(x, y), z) == ctx.add(ctx.mul(x, z), ctx.mul(y, z))
    assert ctx.scale(c, ctx.add(x, y)) == ctx.add(ctx.scale(c, x), ctx.scale(c, y))
    assert ctx.scale(c, ctx.mul(x, y)) == ctx.mul(ctx.scale(c, x), y) == ctx.mul(x, ctx.scale(c, y))
    xy, yx = ctx.add(x, y), ctx.add(y, x)
    assert xy == yx and hash(xy) == hash(yx)
    # equal values built in another order or over another denominator are
    # the same canonical fields, so they compare and hash alike
    for again in (LinearCombination.collect(reversed(terms[0])), ctx.scale(Fraction(1, 3), ctx.scale(3, x)),
                  LinearCombination({k: 6 * n for k, n in x.terms.items()}, 6 * x.den)):
        assert again == x and hash(again) == hash(x) and {x: 1}[again] == 1
    assert x.den > 0 and 0 not in x.terms.values() and math.gcd(x.den, *x.terms.values()) == 1


@settings(max_examples=60, deadline=None)
@given(LC_TERMS, LC_TERMS)
def test_sums_in_either_order_share_one_table_entry(x_terms, y_terms):
    ctx = LC_CONTEXT
    x, y = lc_element(x_terms), lc_element(y_terms)
    xy, yx = ctx.add(x, y), ctx.add(y, x)
    assert type(xy) is LinearCombination and 0 not in xy.terms.values()
    assert xy == yx and hash(xy) == hash(yx)
    part = parse_partition("{1,2}")
    value = phi_partitioned(ctx, part, [xy, x], Level.PSI)
    size = len(ctx.phi_table)
    assert phi_partitioned(ctx, part, [yx, x], Level.PSI) is value
    assert len(ctx.phi_table) == size
