"""Lattice layer against independent oracles.

Every nontrivial algorithm here is cross-checked against a brute-force
or closed-form oracle that shares no code with the implementation:
counts against Catalan/Bell, the noncrossing test against the
four-index scan, refinement against a scan of block labels, the Kreweras
complement and both lattice operations
against exhaustive search, and the Moebius function against the bare
convolution recursion.
"""

import copy
import doctest
import itertools
import math
import pickle
import tracemalloc
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

import freecumulants.partitions
from freecumulants.checks import ALL_CHECKS, run_check
from freecumulants.errors import (
    CapacityError,
    CrossingPartitionError,
    DimensionMismatchError,
    OrderViolationError,
    PartitionParseError,
)
from freecumulants.partitions import (
    LatticeKind,
    Partition,
    enumerate_partitions,
    format_partition,
    interval_list,
    interweave,
    join,
    kreweras,
    meet,
    moebius,
    moebius_row,
    parse_partition,
    quotient,
)

NC = LatticeKind.NONCROSSING
FULL = LatticeKind.FULL


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def same_block(p: Partition, i: int, j: int) -> bool:
    return p.labels[i - 1] == p.labels[j - 1]


def crossing_oracle(p: Partition) -> bool:
    """Direct four-index scan for a crossing."""
    for i, j, k, l in itertools.combinations(range(1, p.n + 1), 4):
        if same_block(p, i, k) and same_block(p, j, l) and not same_block(p, i, j):
            return True
    return False


def blocks_cross(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True when the two blocks interleave a < c < a' < c' somewhere."""
    merged = sorted((i, 0) for i in a) + sorted((i, 1) for i in b)
    merged.sort()
    switches = sum(1 for x, y in itertools.pairwise(merged) if x[1] != y[1])
    return switches >= 3


def noncrossing_closure_oracle(p: Partition) -> Partition:
    """Merge crossing block pairs, retrying every pair after each merge,
    until no two blocks cross."""
    blocks = [set(b) for b in p.blocks]
    merged = True
    while merged:
        merged = False
        for i, j in itertools.combinations(range(len(blocks)), 2):
            if blocks_cross(tuple(sorted(blocks[i])), tuple(sorted(blocks[j]))):
                blocks[i] |= blocks[j]
                del blocks[j]
                merged = True
                break
    return Partition(p.n, tuple(tuple(sorted(b)) for b in blocks))


@st.composite
def set_partitions(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    labels, top = [], -1
    for _ in range(n):
        v = draw(st.integers(0, top + 1))
        labels.append(v)
        top = max(top, v)
    return Partition.from_labels(tuple(labels))


def test_doctests():
    assert doctest.testmod(freecumulants.partitions).failed == 0


def test_counts_match_catalan_and_bell():
    for n in range(9):
        assert len(enumerate_partitions(n, NC)) == catalan(n)
    for n in range(7):
        assert len(enumerate_partitions(n, FULL)) == bell(n)


def test_interval_partition_count_is_a_power_of_two():
    # compositions of n <-> interval partitions
    for n in range(1, 8):
        assert len(enumerate_partitions(n, NC, interval_only=True)) == 2 ** (n - 1)


def test_enumeration_capacity_is_enforced():
    with pytest.raises(CapacityError):
        enumerate_partitions(11, FULL)
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_partitions(-3, NC)


def test_noncrossing_flag_matches_four_index_scan():
    for n in range(9):
        for p in enumerate_partitions(n, FULL):
            assert p.is_noncrossing == (not crossing_oracle(p))


def test_noncrossing_enumeration_is_the_noncrossing_slice():
    # both walks keep growth-string order; the noncrossing one is pruned
    # as it goes, and must equal the filtered full walk
    for n in range(10):
        every = tuple(map(Partition.from_labels, growth_strings(n)))
        assert enumerate_partitions(n, FULL) == every, n
        assert enumerate_partitions(n, NC) == tuple(p for p in every if p.is_noncrossing), n


def refines_oracle(p: Partition, q: Partition) -> bool:
    """Every block of p lies inside a block of q, read off q's labels."""
    lab = q.labels
    return all(all(lab[i - 1] == lab[b[0] - 1] for i in b) for b in p.blocks)


def test_pair_bits_decide_refinement():
    for n in range(6):
        everything = enumerate_partitions(n, FULL)
        for p, q in itertools.product(everything, repeat=2):
            assert p.refines(q) == refines_oracle(p, q), (p, q)
    with pytest.raises(DimensionMismatchError):
        Partition.full(3).refines(Partition.full(4))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pair_bits_decide_refinement_on_random_pairs(data):
    n = data.draw(st.integers(7, 8))
    p, q = (data.draw(st.sampled_from(enumerate_partitions(n, FULL))) for _ in range(2))
    assert p.refines(q) == refines_oracle(p, q)
    # a pair drawn at random rarely refines; its meet always does
    m = meet(p, q)
    assert m.refines(q) and refines_oracle(m, q)


def refines_filter(pi, sigma, kind):
    return tuple(t for t in enumerate_partitions(pi.n, kind)
                 if refines_oracle(pi, t) and refines_oracle(t, sigma))


def test_interval_list_is_the_refines_filter():
    for kind, n_max in ((NC, 6), (FULL, 5)):
        for n in range(n_max + 1):
            everything = enumerate_partitions(n, kind)
            for pi, sigma in itertools.product(everything, repeat=2):
                if pi.refines(sigma):
                    assert interval_list(pi, sigma, kind) == refines_filter(pi, sigma, kind)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_interval_list_is_the_refines_filter_on_random_intervals(data):
    n = data.draw(st.integers(7, 8))
    pi, tau = (data.draw(st.sampled_from(enumerate_partitions(n, NC))) for _ in range(2))
    sigma = join(pi, tau, NC)
    assert interval_list(pi, sigma, NC) == refines_filter(pi, sigma, NC)


def test_parse_format_roundtrip_exhaustive():
    for n in range(7):
        for p in enumerate_partitions(n, FULL):
            assert parse_partition(format_partition(p)) == p


def test_parse_accepts_bar_notation_and_spaces():
    assert parse_partition("1 3|2|4") == parse_partition("{1, 3}{2}{4}")
    assert parse_partition("") == Partition(0, ())


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("{1,3}{2", "unclosed"),
        ("{1,3}{3,2}", "duplicate index 3"),
        ("{1,4}{2}", "missing index 3"),
        ("{0,1}", "0"),
        ("{1,x}", "x"),
    ],
)
def test_parse_errors_name_the_offender(text, fragment):
    with pytest.raises(PartitionParseError, match=fragment):
        parse_partition(text)


def test_a_gap_is_found_without_allocating_up_to_the_largest_index():
    tracemalloc.start()
    try:
        with pytest.raises(PartitionParseError, match="missing index 2"):
            parse_partition("{1,1000000}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_each_partition_is_one_object():
    # every constructor returns the indexed object, so equality is identity
    p, q = parse_partition("{1,3}{2}{4}"), parse_partition("2,4|1|3")
    assert p is Partition(4, ((4,), (3, 1), (2,))) is Partition.from_labels((5, 2, 5, 7))
    assert p in enumerate_partitions(4, NC) and p is meet(p, join(p, q, FULL))
    assert quotient(p, Partition.discrete(4)) is p and kreweras(Partition.full(4)) is Partition.discrete(4)
    for positions in ((2, 3, 5), (5, 2, 3)):
        assert parse_partition("{1,2,5}{3,4}").restrict(positions) is Partition(3, ((1, 3), (2,)))
    assert parse_partition("{1,2,5}{3,4}").restrict(range(3, 6)) is Partition(3, ((1, 2), (3,)))
    assert interweave(p, q) is Partition(8, ((1, 5), (3,), (7,), (2,), (4, 8), (6,)))
    for copied in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert copied is p
    with pytest.raises(AttributeError):
        p.n = 5
    with pytest.raises(AttributeError):
        del p.blocks
    assert repr(p) == "Partition(n=4, blocks=((1, 3), (2,), (4,)))"


def test_blocks_must_cover_the_ground_set():
    with pytest.raises(ValueError, match="offending index 3"):
        Partition(3, ((1, 2),))


@given(set_partitions())
def test_roundtrip_and_restriction_properties(p):
    assert parse_partition(format_partition(p)) == p
    evens = tuple(range(2, p.n + 1, 2))
    r = p.restrict(evens)
    assert r.n == len(evens)
    for a, b in itertools.combinations(range(len(evens)), 2):
        assert same_block(r, a + 1, b + 1) == same_block(p, evens[a], evens[b])
    if p.is_noncrossing:
        assert r.is_noncrossing


@given(set_partitions(max_n=6), set_partitions(max_n=6))
def test_lattice_laws_on_random_pairs(p, q):
    if p.n != q.n:
        return
    m = meet(p, q)
    assert m.refines(p) and m.refines(q)
    j = join(p, q, FULL)
    assert p.refines(j) and q.refines(j)
    assert meet(p, j) == p
    assert join(p, m, FULL) == p


def test_meet_is_the_greatest_lower_bound():
    for kind, n_max in ((NC, 5), (FULL, 5)):
        for n in range(n_max + 1):
            everything = enumerate_partitions(n, kind)
            for p, q in itertools.combinations_with_replacement(everything, 2):
                m = meet(p, q)
                lower = [t for t in everything if t.refines(p) and t.refines(q)]
                assert m in lower
                assert all(t.refines(m) for t in lower)


def test_join_is_the_least_upper_bound():
    for kind, n_max in ((NC, 5), (FULL, 5)):
        for n in range(n_max + 1):
            everything = enumerate_partitions(n, kind)
            for p, q in itertools.combinations_with_replacement(everything, 2):
                j = join(p, q, kind)
                upper = [t for t in everything if p.refines(t) and q.refines(t)]
                assert j in upper
                assert all(j.refines(t) for t in upper)


def test_the_noncrossing_join_equals_the_pairwise_closure():
    # the join by Kreweras duality, K^-1(K(p) meet K(q)), against the full
    # join (union-find) closed here under "no two blocks cross"
    for n in range(7):
        everything = enumerate_partitions(n, NC)
        for p, q in itertools.product(everything, repeat=2):
            assert join(p, q, NC) == noncrossing_closure_oracle(join(p, q, FULL)), (p, q)


def growth_strings(n):
    """Every a with a[0] = 0 and a[i] <= max(a[:i]) + 1, built here
    without the library's enumeration."""
    strings = [()] if n == 0 else [(0,)]
    for _ in range(n - 1):
        strings = [a + (v,) for a in strings for v in range(max(a) + 2)]
    return strings


def assert_validated(p):
    # Partition(n, blocks) sorts and checks its blocks; a partition built
    # without that must already hold exactly what it would produce
    again = Partition(p.n, p.blocks)
    assert p.blocks == again.blocks and hash(p) == hash(again), p


def test_every_constructor_builds_what_validation_would():
    for n in range(8):
        assert_validated(Partition.discrete(n))
        assert_validated(Partition.full(n))
        subsets = [c for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]
        for labels in growth_strings(n):
            p = Partition.from_labels(labels)
            assert_validated(p)
            # a cyclic rotation of the positions keeps a noncrossing partition noncrossing
            q = Partition.from_labels(labels[1:] + labels[:1])
            m = meet(p, q)
            for made in (q, m, quotient(p, m), join(p, q, FULL)):
                assert_validated(made)
            if p.is_noncrossing:
                for made in (kreweras(p), join(p, q, NC), join(p, kreweras(p), NC)):
                    assert_validated(made)
            for positions in subsets:
                assert_validated(p.restrict(positions))
    for make in (Partition.discrete, Partition.full):
        with pytest.raises(ValueError, match="nonnegative"):
            make(-1)
    for positions in ((2, 4), (2, 2), (0, 1), (3, 1, 3), (2, 1, 4), range(0, 2), range(3, 5)):
        with pytest.raises(ValueError, match="not distinct indices of 1..3"):
            Partition.full(3).restrict(positions)


def test_noncrossing_join_can_exceed_the_full_lattice_join():
    p = parse_partition("{1,3}{2}{4}")
    q = parse_partition("{2,4}{1}{3}")
    assert join(p, q, FULL) == parse_partition("{1,3}{2,4}")
    assert join(p, q, NC) == Partition.full(4)


def test_kreweras_matches_the_maximality_oracle():
    for n in range(7):
        everything = enumerate_partitions(n, NC)
        for p in everything:
            fitting = [s for s in everything if interweave(p, s).is_noncrossing]
            best = max(fitting, key=lambda s: sum(1 for t in fitting if t.refines(s)))
            assert all(t.refines(best) for t in fitting)
            assert kreweras(p) == best


def test_kreweras_known_values():
    assert kreweras(parse_partition("{1,3}{2}{4}")) == parse_partition("{1,2}{3,4}")
    assert kreweras(Partition.full(5)) == Partition.discrete(5)
    assert kreweras(Partition.discrete(5)) == Partition.full(5)


def test_interweave_places_factors_on_odd_and_even_positions():
    p = parse_partition("{1,2}{3}")
    q = parse_partition("{1,3}{2}")
    w = interweave(p, q)
    assert w.n == 6
    assert w.restrict((1, 3, 5)) == p
    assert w.restrict((2, 4, 6)) == q


def test_moebius_matches_the_convolution_recursion():
    memo = {}

    def oracle(p, s, kind):
        if p == s:
            return 1
        key = (p, s, kind)
        if key not in memo:
            memo[key] = -sum(
                oracle(p, r, kind) for r in interval_list(p, s, kind) if r != s
            )
        return memo[key]

    for kind, n_max in ((NC, 6), (FULL, 5)):
        for n in range(n_max + 1):
            everything = enumerate_partitions(n, kind)
            for s in everything:
                for p in interval_list(Partition.discrete(n), s, kind):
                    assert moebius(p, s, kind) == oracle(p, s, kind)


def test_moebius_closed_forms():
    for n in range(1, 8):
        bottom, top = Partition.discrete(n), Partition.full(n)
        assert moebius(bottom, top, NC) == (-1) ** (n - 1) * catalan(n - 1)
        if n <= 6:
            assert moebius(bottom, top, FULL) == (-1) ** (n - 1) * math.factorial(n - 1)


@given(st.data())
def test_moebius_inverts_zeta_on_random_intervals(data):
    # sum over rho in [pi, sigma] of mu(rho, sigma) is 1 at pi = sigma and 0 below
    n = data.draw(st.integers(7, 8))
    sigma = data.draw(st.sampled_from(enumerate_partitions(n, NC)))
    pi = data.draw(st.sampled_from(interval_list(Partition.discrete(n), sigma, NC)))
    total = sum(moebius(rho, sigma, NC) for rho in interval_list(pi, sigma, NC))
    assert total == (1 if pi == sigma else 0)


def test_moebius_validates_its_endpoints():
    crossing = parse_partition("{1,3}{2,4}")
    with pytest.raises(CrossingPartitionError):
        moebius(Partition.discrete(4), crossing, NC)
    with pytest.raises(CrossingPartitionError):
        moebius(crossing, Partition.full(4), NC)
    assert moebius(crossing, Partition.full(4), FULL) == -1
    for kind in (NC, FULL):
        with pytest.raises(OrderViolationError):
            moebius(parse_partition("{1,2}{3}"), parse_partition("{1}{2,3}"), kind)
        assert moebius(Partition(0, ()), Partition(0, ()), kind) == 1


def test_interval_list_validates_its_endpoints():
    with pytest.raises(OrderViolationError):
        interval_list(Partition.full(3), Partition.discrete(3), NC)
    with pytest.raises(CrossingPartitionError):
        interval_list(Partition.discrete(4), parse_partition("{1,3}{2,4}"), NC)


def every_interval(n_max):
    for n in range(n_max + 1):
        for kind in LatticeKind:
            everything = enumerate_partitions(n, kind)
            for pi, sigma in itertools.product(everything, repeat=2):
                if pi.refines(sigma):
                    yield pi, sigma, kind


def test_moebius_row_weighs_its_interval():
    # a row is the interval filter weighed by moebius per tau, in the
    # filter's order, with every memo cold and again with the intervals warm
    partitions = freecumulants.partitions
    oracle = {(pi, sigma, kind): tuple((moebius(t, sigma, kind), t) for t in interval_list(pi, sigma, kind))
              for pi, sigma, kind in every_interval(6)}
    partitions.interval_list.cache_clear()
    for state in ("cold", "warm"):
        partitions.moebius_row.cache_clear()
        for (pi, sigma, kind), row in oracle.items():
            assert moebius_row(pi, sigma, kind) == row, (state, str(pi), str(sigma), kind)
    with pytest.raises(OrderViolationError):
        moebius_row(Partition.full(3), Partition.discrete(3), NC)
    with pytest.raises(CrossingPartitionError):
        moebius_row(Partition.discrete(4), parse_partition("{1,3}{2,4}"), NC)


def test_interval_memo_is_bounded():
    # every interval of both lattices up to n = 6: 4,679 distinct keys, so
    # both memos, which share one bound, must evict
    bound = freecumulants.partitions.INTERVAL_MEMO_SIZE
    assert bound == 4096
    calls = 0
    for pi, sigma, kind in every_interval(6):
        moebius_row(pi, sigma, kind)
        calls += 1
    assert calls > bound
    for memo in (interval_list, moebius_row):
        info = memo.cache_info()
        assert info.maxsize == bound and info.currsize <= bound, memo


def test_quotient_collapses_blocks_by_minimum():
    sigma = parse_partition("{1,2,5}{3,4}")
    rho = parse_partition("{1,2}{3,4}{5}")
    assert quotient(sigma, rho) == parse_partition("{1,3}{2}")
    with pytest.raises(OrderViolationError):
        quotient(rho, sigma)


def test_quotient_gives_the_upper_interval_poset_in_the_full_lattice():
    # over all partitions, [rho, top] looks like the smaller lattice on rho's blocks
    for n in range(6):
        for rho in enumerate_partitions(n, FULL):
            upper = interval_list(rho, Partition.full(n), FULL)
            image = {quotient(s, rho) for s in upper}
            assert image == set(enumerate_partitions(rho.size, FULL))
            for a in upper:
                for b in upper:
                    assert a.refines(b) == quotient(a, rho).refines(quotient(b, rho))


def test_quotient_embeds_noncrossing_upper_intervals():
    # in the noncrossing lattice the image may be a strict subset (merging
    # non-adjacent blocks can cross), but the order embedding still holds
    for n in range(6):
        for rho in enumerate_partitions(n, NC):
            upper = interval_list(rho, Partition.full(n), NC)
            image = {quotient(s, rho) for s in upper}
            assert len(image) == len(upper)
            assert image <= set(enumerate_partitions(rho.size, FULL))
            for a in upper:
                for b in upper:
                    assert a.refines(b) == quotient(a, rho).refines(quotient(b, rho))


def test_the_inverse_complement_undoes_the_complement():
    for n in range(8):
        for pi in enumerate_partitions(n, LatticeKind.NONCROSSING):
            assert pi._kreweras._kreweras_inverse is pi and pi._kreweras_inverse._kreweras is pi
            assert kreweras(pi) is pi._kreweras


@pytest.fixture
def cold_complements():
    """Drop every complement kept on a partition before the test and after
    it, so no value computed under a patch outlives the test."""
    def drop():
        for part in freecumulants.partitions._INDEX.values():
            vars(part).pop("_kreweras", None)
            vars(part).pop("_kreweras_inverse", None)
    drop()
    yield
    drop()


def test_a_wrong_inverse_complement_fails_the_join_checks(monkeypatch, cold_complements):
    # fault row: K^-1 taken as K, which is K^-1 rotated by one point.  Of
    # the twelve checks at their default bounds only partial-cumulants joins
    monkeypatch.setattr(Partition, "_kreweras_inverse", cached_property(lambda self: self._kreweras))
    Partition._kreweras_inverse.__set_name__(Partition, "_kreweras_inverse")
    assert {identity for identity in ALL_CHECKS if not run_check(identity).passed} == {"partial-cumulants"}
