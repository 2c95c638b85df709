"""Set partitions of {1, ..., n} and the noncrossing partition lattice.

A partition is stored canonically: every block is an ascending tuple and
blocks are ordered by their minima.  Every constructor returns the one
object per partition that the module's index (a plain dict keyed by those
blocks) holds for the life of the process, so equality and hashing are by
identity, and labels, pair bits and text are computed once per partition.
The index is never cleared and grows by one entry per distinct partition
built: a full ``check-all`` leaves 2,279, the largest of n = 8.  Two text
formats are understood:

* block notation  ``{1,3}{2}{4}``   (the formatter always emits this one)
* bar notation    ``13|2|4``        (single-digit shorthand; use commas
  inside a segment, e.g. ``1,13|2``, once indices reach 10)

The refinement order ``pi <= sigma`` ("every pi-block sits inside a
sigma-block") makes the set of all partitions a lattice; the noncrossing
partitions form a sub-poset that is again a lattice, with the same meet
but a coarser join.  The Kreweras complement K reverses the order on
NC(n), so the noncrossing join is K^-1(K(pi) meet K(sigma)); each
partition keeps its K and K^-1, each one walk over its blocks read as
increasing cycles.  NC(n) is the interval from the identity to the long
cycle gamma = (1 2 ... n) of the symmetric group (Biane, Discrete Math.
175, 1997), so ``is_noncrossing`` counts the cycles of the walk K takes,
pi^-1 . gamma: pi is noncrossing exactly when |pi| + #cycles = n + 1.
The order is decided in integers, by ``refines`` and by the interval
filter alike: pi <= sigma exactly when pi's bit set of same-block pairs
lies inside sigma's.
Enumeration walks restricted growth strings, pruned to the noncrossing
ones for NC(n), and is deliberately capped at ``MAX_ENUM_N = 10``
(115975 strings); every consumer in this package needs n <= 8.

The Moebius function takes no enumeration: mu(pi, sigma) is the product
of (-1)^{|c|-1} Catalan(|c|-1) over the cycles c of pi^{-1} . sigma on
the noncrossing lattice, walked on the same cycle arrays, and of (-1)^{k-1} (k-1)! over the sigma-blocks
holding k pi-blocks on the full one (Kreweras 1972; Nica-Speicher,
Lectures on the Combinatorics of Free Probability, Lecture 10).  The
weights depend on the lattice alone, so ``moebius_row`` keeps each
interval's row of them, the interval filter weighed by the closed form,
under the bound ``INTERVAL_MEMO_SIZE`` that ``interval_list`` shares.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from enum import Enum
from functools import cache, cached_property, lru_cache

from .errors import (
    CapacityError,
    CrossingPartitionError,
    DimensionMismatchError,
    OrderViolationError,
    PartitionParseError,
)

MAX_ENUM_N = 10
# most intervals that interval_list, and moebius_row, each keep
INTERVAL_MEMO_SIZE = 4096
# canonical blocks -> the one Partition object with those blocks
_INDEX: dict[tuple, Partition] = {}


class LatticeKind(Enum):
    """Which partition lattice an operation works in."""

    FULL = "full"
    NONCROSSING = "nc"

    __hash__ = object.__hash__


class Partition:
    """A partition of {1, ..., n} into disjoint nonempty blocks, one
    object per partition: equality and hashing are by identity.

    >>> Partition(4, ((2,), (3, 1), (4,))).blocks
    ((1, 3), (2,), (4,))
    >>> Partition.full(3)
    Partition(n=3, blocks=((1, 2, 3),))
    >>> Partition(3, ((3,), (1, 2))) is Partition.from_labels((0, 0, 1))
    True
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __new__(cls, n: int, blocks) -> Partition:
        if n < 0:
            raise ValueError(f"partition size must be nonnegative, got {n}")
        blocks = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[:1]))
        if blocks and not blocks[0]:
            raise ValueError("empty block")
        seen: set[int] = set()
        for i in itertools.chain.from_iterable(blocks):
            if i in seen:
                raise ValueError(f"duplicate index {i}")
            seen.add(i)
        expected = set(range(1, n + 1))
        if seen != expected:
            stray = sorted(seen - expected) + sorted(expected - seen)
            raise ValueError(f"blocks do not partition 1..{n}: offending index {stray[0]}")
        return cls._canonical(n, blocks)

    @staticmethod
    def _canonical(n: int, blocks: tuple) -> Partition:
        """The indexed partition of blocks already canonical, made on first
        use without validation: only the size is checked."""
        if n < 0:
            raise ValueError(f"partition size must be nonnegative, got {n}")
        part = _INDEX.get(blocks)
        if part is None:
            part = _INDEX[blocks] = object.__new__(Partition)
            # kept inline: no instance dict until a cached property needs one
            object.__setattr__(part, "n", n)
            object.__setattr__(part, "blocks", blocks)
        return part

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"partition field {name!r} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        """Copies and pickles come back as the indexed object."""
        return Partition, (self.n, self.blocks)

    def __repr__(self) -> str:
        return f"Partition(n={self.n!r}, blocks={self.blocks!r})"

    @staticmethod
    def discrete(n: int) -> Partition:
        """The all-singletons partition, the bottom of the lattice."""
        return Partition._canonical(n, tuple((i,) for i in range(1, n + 1)))

    @staticmethod
    def full(n: int) -> Partition:
        """The one-block partition, the top of the lattice."""
        return Partition._canonical(n, ((tuple(range(1, n + 1)),) if n else ()))

    @staticmethod
    def from_labels(labels: tuple[int, ...]) -> Partition:
        """Build a partition from position -> block-label assignments."""
        groups: dict[int, list[int]] = {}
        for pos, lab in enumerate(labels, start=1):
            groups.setdefault(lab, []).append(pos)
        return Partition._canonical(len(labels), tuple(tuple(g) for g in groups.values()))

    @property
    def size(self) -> int:
        """Number of blocks, written |pi|."""
        return len(self.blocks)

    @cached_property
    def labels(self) -> tuple[int, ...]:
        """labels[i-1] is the index (into blocks) of the block containing i."""
        out = [0] * self.n
        for k, b in enumerate(self.blocks):
            for i in b:
                out[i - 1] = k
        return tuple(out)

    @cached_property
    def _cycle(self) -> tuple[list[int], list[int]]:
        """(succ, pred) over 0..n-1: each block as the increasing cycle it
        is read as, the next and the previous point of a point's block."""
        succ, pred = [0] * self.n, [0] * self.n
        for b in self.blocks:
            for x, y in zip(b, b[1:] + b[:1]):
                succ[x - 1], pred[y - 1] = y - 1, x - 1
        return succ, pred

    @cached_property
    def _complement(self) -> tuple[tuple[int, ...], ...]:
        """The cycles of pi^-1 . gamma, x -> pred(x + 1), for gamma the long
        cycle (1 2 ... n): the blocks of K(self) when self is noncrossing."""
        pred = self._cycle[1]
        return _cycles([pred[(x + 1) % self.n] for x in range(self.n)])

    @cached_property
    def _kreweras(self) -> Partition:
        """K(self), see ``kreweras``."""
        return Partition._canonical(self.n, self._complement)

    @cached_property
    def _kreweras_inverse(self) -> Partition:
        """K^-1(self), the cycles of x -> pred(x) + 1: the partition whose
        complement is self."""
        return Partition._canonical(self.n, _cycles([(p + 1) % self.n for p in self._cycle[1]]))

    @cached_property
    def is_noncrossing(self) -> bool:
        """True unless some i < j < k < l has i ~ k, j ~ l in distinct blocks.

        Read off the cycle count: with its blocks as increasing cycles, pi
        has |pi| + #cycles(pi^-1 . gamma) <= n + 1, with equality exactly
        when pi is noncrossing (Biane, Some properties of crossings and
        partitions, Discrete Math. 175, 1997).

        >>> parse_partition("{1,3}{2,4}").is_noncrossing
        False
        >>> parse_partition("{1,4}{2,3}").is_noncrossing
        True
        """
        return not self.n or self.size + len(self._complement) == self.n + 1

    @cached_property
    def _pairs(self) -> int:
        """Bit (i-1)*n + (j-1) for each i < j in one block: self refines
        other exactly when ``not self._pairs & ~other._pairs``."""
        masks = [sum(1 << (j - 1) for j in b) for b in self.blocks]
        return sum(m >> i << (i - 1) * self.n + i for m, b in zip(masks, self.blocks) for i in b)

    @cached_property
    def is_interval(self) -> bool:
        """True when every block is a set of consecutive integers."""
        return all(b[-1] - b[0] + 1 == len(b) for b in self.blocks)

    def refines(self, other: Partition) -> bool:
        """True when every block of self lies inside a block of other.

        >>> parse_partition("{1,3}{2}{4}").refines(parse_partition("{1,3}{2,4}"))
        True
        """
        if self.n != other.n:
            raise DimensionMismatchError(f"cannot compare partitions of {self.n} and {other.n}")
        return not self._pairs & ~other._pairs

    def restrict(self, positions: tuple[int, ...]) -> Partition:
        """Intersect blocks with ``positions`` and relabel those to 1..len.

        >>> parse_partition("{1,2,5}{3,4}").restrict((5, 2, 3))
        Partition(n=3, blocks=((1, 3), (2,)))
        """
        ordered = sorted(positions)
        if any(a >= b for a, b in zip([0, *ordered], [*ordered, self.n + 1])):
            raise ValueError(f"positions {positions} are not distinct indices of 1..{self.n}")
        return restrict_blocks(self, ordered)

    @cached_property
    def _text(self) -> str:
        """The block notation, formatted once per partition."""
        return format_partition(self)

    def __str__(self) -> str:
        return self._text


def parse_partition(text: str) -> Partition:
    """Parse block or bar notation; errors name the offending index.

    >>> parse_partition("{1,3}{2}{4}").blocks
    ((1, 3), (2,), (4,))
    >>> parse_partition("13|2|4") == parse_partition("{1,3}{2}{4}")
    True
    >>> parse_partition("")
    Partition(n=0, blocks=())
    """
    s = text.strip()
    if not s:
        return Partition(0, ())
    raw_blocks: list[list[int]] = []
    if "{" in s or "}" in s:
        pos = 0
        while pos < len(s):
            if s[pos].isspace():
                pos += 1
                continue
            if s[pos] != "{":
                raise PartitionParseError(f"expected '{{' at position {pos} in {text!r}")
            end = s.find("}", pos)
            if end < 0:
                raise PartitionParseError(f"unclosed block at position {pos} in {text!r}")
            raw_blocks.append(_parse_indices(s[pos + 1 : end], text))
            pos = end + 1
    else:
        for seg in s.split("|"):
            raw_blocks.append(_parse_indices(seg, text))
    indices = [i for b in raw_blocks for i in b]
    if not indices:
        raise PartitionParseError(f"no indices in {text!r}")
    seen: set[int] = set()
    for i in indices:
        if i < 1:
            raise PartitionParseError(f"index {i} out of range in {text!r}")
        if i in seen:
            raise PartitionParseError(f"duplicate index {i} in {text!r}")
        seen.add(i)
    n = max(seen)
    if n > len(seen):
        # the indices are distinct and positive, so the first gap is at most len(seen) + 1
        missing = next(i for i in range(1, n + 1) if i not in seen)
        raise PartitionParseError(f"missing index {missing} in {text!r}")
    for b in raw_blocks:
        if not b:
            raise PartitionParseError(f"empty block in {text!r}")
    return Partition(n, tuple(tuple(b) for b in raw_blocks))


def _parse_indices(segment: str, text: str) -> list[int]:
    seg = segment.strip()
    if not seg:
        return []
    if "," in seg or " " in seg:
        tokens = [t for t in seg.replace(",", " ").split() if t]
    else:
        tokens = list(seg)
    out = []
    for t in tokens:
        if not t.isdigit():
            raise PartitionParseError(f"bad index {t!r} in {text!r}")
        out.append(int(t))
    return out


def format_partition(p: Partition) -> str:
    """Canonical block notation; the empty partition formats to ''."""
    return "".join("{" + ",".join(str(i) for i in b) + "}" for b in p.blocks)


def _growth_strings(n: int, noncrossing: bool):
    """Restricted growth strings (a[0] = 0, a[i] <= max(a[:i]) + 1) in
    lexicographic order, or with ``noncrossing`` those of NC(n) alone: a
    label then recurs only from the stack of open labels, kept by last use
    and so increasing.  Recurring closes every label above it, as each was
    used since and would cross it by recurring too."""

    def rec(prefix: list[int], stack: list[int], new: int):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for k, v in enumerate(stack + [new]):
            prefix.append(v)
            yield from rec(prefix, stack[:k] + [v] if noncrossing or v == new else stack,
                           new + (v == new))
            prefix.pop()

    yield from rec([], [], 0)


@cache
def first_blocks(n: int) -> tuple[tuple[int, ...], ...]:
    """0 together with each subset of 1..n-1, as sorted tuples: the blocks
    holding 0 of the partitions of {0..n-1}, kept once per n.

    >>> first_blocks(3)
    ((0,), (0, 1), (0, 2), (0, 1, 2))
    """
    rest = range(1, n)
    return tuple((0, *subset) for r in range(len(rest) + 1) for subset in itertools.combinations(rest, r))


@cache
def outer_blocks(n: int) -> tuple[tuple[int, ...], ...]:
    """The blocks holding both 0 and n-1 of the partitions of {0..n-1},
    n >= 1, as sorted tuples: those of a Boolean cumulant, kept once per n.

    >>> outer_blocks(4)
    ((0, 3), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3))
    """
    return first_blocks(1) if n == 1 else tuple((*block, n - 1) for block in first_blocks(n - 1))


@lru_cache(maxsize=None)
def enumerate_partitions(
    n: int, kind: LatticeKind, interval_only: bool = False
) -> tuple[Partition, ...]:
    """All partitions of {1..n} of the given kind, in growth-string order.

    NC(n) comes from the pruned walk, Catalan(n) strings and no crossing
    test.  The memo needs no size bound: only 0 <= n <= MAX_ENUM_N is ever
    stored, so it holds at most 44 keys (11 sizes, 2 kinds, 2 filters).

    >>> len(enumerate_partitions(4, LatticeKind.NONCROSSING))
    14
    >>> len(enumerate_partitions(4, LatticeKind.FULL))
    15
    >>> [str(p) for p in enumerate_partitions(3, LatticeKind.NONCROSSING, interval_only=True)]
    ['{1,2,3}', '{1,2}{3}', '{1}{2,3}', '{1}{2}{3}']
    """
    if not isinstance(n, int):
        raise TypeError(f"partition size must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"partition size must be nonnegative, got {n}")
    if n > MAX_ENUM_N:
        raise CapacityError(f"enumeration over n={n} exceeds the bound MAX_ENUM_N={MAX_ENUM_N}")
    parts = map(Partition.from_labels, _growth_strings(n, kind is LatticeKind.NONCROSSING))
    return tuple(p for p in parts if not interval_only or p.is_interval)


def meet(pi: Partition, sigma: Partition) -> Partition:
    """Greatest common refinement; the same in both lattices.

    Blocks are the nonempty pairwise block intersections, so a meet of two
    noncrossing partitions is again noncrossing.
    """
    if pi.n != sigma.n:
        raise DimensionMismatchError(f"meet of partitions of {pi.n} and {sigma.n}")
    groups: dict[tuple[int, int], list[int]] = {}
    for pos, key in enumerate(zip(pi.labels, sigma.labels), start=1):
        groups.setdefault(key, []).append(pos)
    return Partition._canonical(pi.n, tuple(map(tuple, groups.values())))


def join(pi: Partition, sigma: Partition, kind: LatticeKind = LatticeKind.FULL) -> Partition:
    """Least common coarsening in the chosen lattice.

    The full join merges blocks that share a point (union-find).  The
    Kreweras complement K reverses the order on NC(n), so it sends joins
    to meets, and the noncrossing join is K^-1(K(pi) meet K(sigma))
    (Nica-Speicher, Lecture 9); K and K^-1 are kept once per partition.

    >>> p, q = parse_partition("{1,3}{2}{4}"), parse_partition("{2,4}{1}{3}")
    >>> str(join(p, q, LatticeKind.FULL))
    '{1,3}{2,4}'
    >>> str(join(p, q, LatticeKind.NONCROSSING))
    '{1,2,3,4}'
    """
    if pi.n != sigma.n:
        raise DimensionMismatchError(f"join of partitions of {pi.n} and {sigma.n}")
    if kind is LatticeKind.NONCROSSING:
        for p in (pi, sigma):
            if not p.is_noncrossing:
                raise CrossingPartitionError(f"noncrossing join of crossing partition {p}")
        return meet(pi._kreweras, sigma._kreweras)._kreweras_inverse
    parent = list(range(pi.n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in (pi, sigma):
        for b in p.blocks:
            for i in b[1:]:
                parent[find(i)] = find(b[0])
    return Partition.from_labels(tuple(find(i) for i in range(1, pi.n + 1)))


def quotient(sigma: Partition, rho: Partition) -> Partition:
    """Collapse each rho-block to a point; requires rho <= sigma.

    The rho-blocks are numbered 1..|rho| by their minima, and block r of
    the result collects the rho-blocks lying in one sigma-block.

    >>> str(quotient(parse_partition("{1,2,5}{3,4}"), parse_partition("{1,2}{3,4}{5}")))
    '{1,3}{2}'
    """
    if not rho.refines(sigma):
        raise OrderViolationError(f"{rho} does not refine {sigma}")
    labels = tuple(sigma.labels[b[0] - 1] for b in rho.blocks)
    return Partition.from_labels(labels)


def interweave(pi: Partition, sigma: Partition) -> Partition:
    """Partition of {1..2n} placing pi on odd and sigma on even positions.

    >>> str(interweave(parse_partition("{1,2}"), parse_partition("{1}{2}")))
    '{1,3}{2}{4}'
    """
    if pi.n != sigma.n:
        raise DimensionMismatchError(f"interweave of partitions of {pi.n} and {sigma.n}")
    blocks = [tuple(2 * i - 1 for i in b) for b in pi.blocks]
    blocks += [tuple(2 * i for i in b) for b in sigma.blocks]
    return Partition._canonical(2 * pi.n, tuple(sorted(blocks)))


def _cycles(step: list[int]) -> tuple[tuple[int, ...], ...]:
    """The cycles of the permutation ``step`` of 0..n-1 as tuples over
    1..n, each walked from its least point, in the order of those points:
    canonical blocks when they come out increasing, as the cycles of a
    complement of a noncrossing partition do."""
    seen, blocks = [False] * len(step), []
    for x in range(len(step)):
        if not seen[x]:
            block = []
            while not seen[x]:
                seen[x] = True
                block.append(x + 1)
                x = step[x]
            blocks.append(tuple(block))
    return tuple(blocks)


def kreweras(pi: Partition) -> Partition:
    """Kreweras complement: the coarsest sigma interweaving pi without crossings.

    Writing each block as a cycle and c for the long cycle (1 2 ... n),
    the complement is the cycle partition of pi_cycles^{-1} . c.

    >>> str(kreweras(parse_partition("{1,3}{2}{4}")))
    '{1,2}{3,4}'
    >>> kreweras(Partition.full(4)) == Partition.discrete(4)
    True
    """
    if not pi.is_noncrossing:
        raise CrossingPartitionError(f"kreweras complement of crossing partition {pi}")
    return pi._kreweras


def _check_interval(pi: Partition, sigma: Partition, kind: LatticeKind, what: str) -> None:
    if not pi.refines(sigma):
        raise OrderViolationError(f"{pi} does not refine {sigma}")
    if kind is LatticeKind.NONCROSSING:
        for p in (pi, sigma):
            if not p.is_noncrossing:
                raise CrossingPartitionError(f"{what} endpoint {p} is crossing")


@lru_cache(maxsize=INTERVAL_MEMO_SIZE)
def interval_list(pi: Partition, sigma: Partition, kind: LatticeKind) -> tuple[Partition, ...]:
    """All tau with pi <= tau <= sigma in the chosen lattice.

    It filters ``enumerate_partitions`` with two integer operations per tau
    on the same-block pair bit sets (at most MAX_ENUM_N^2 = 100 bits).  The
    memo keeps the INTERVAL_MEMO_SIZE most recent intervals, the bound
    ``moebius_row`` keeps its rows under; a full ``check-all`` asks for
    fewer than 700 distinct ones."""
    _check_interval(pi, sigma, kind, "interval")
    lo, hi = pi._pairs, sigma._pairs
    return tuple(tau for tau in enumerate_partitions(pi.n, kind)
                 if not lo & ~tau._pairs and not tau._pairs & ~hi)


def moebius(pi: Partition, sigma: Partition, kind: LatticeKind) -> int:
    """Moebius function of the interval [pi, sigma], in closed form.

    Noncrossing: the product of (-1)^{|c|-1} Catalan(|c|-1) over the cycles
    c of pi^{-1} . sigma (the relative Kreweras complement).  Full: the
    product of (-1)^{k-1} (k-1)! over the sigma-blocks holding k pi-blocks.
    Kreweras 1972; Nica-Speicher, Lectures on the Combinatorics of Free
    Probability, Lecture 10.

    >>> moebius(Partition.discrete(4), Partition.full(4), LatticeKind.NONCROSSING)
    -5
    >>> moebius(Partition.discrete(4), Partition.full(4), LatticeKind.FULL)
    -6
    """
    _check_interval(pi, sigma, kind, "moebius")
    if kind is LatticeKind.FULL:
        counts = Counter(sigma.labels[b[0] - 1] for b in pi.blocks)
        return math.prod((-1) ** (k - 1) * math.factorial(k - 1) for k in counts.values())
    pred, succ = pi._cycle[1], sigma._cycle[0]
    seen, mu = [False] * pi.n, 1
    for x in range(pi.n):
        k = 0
        while not seen[x]:
            seen[x] = True
            k += 1
            x = pred[succ[x]]
        if k > 1:
            mu *= (-1) ** (k - 1) * (math.comb(2 * k - 2, k - 1) // k)
    return mu


def restrict_blocks(part: Partition, positions) -> Partition:
    """The restriction of ``part`` to ``positions``, any ascending distinct
    indices of 1..n, relabelled 1..len: ``Partition.restrict`` without its
    sorting and checks, for callers that hold such positions already.

    >>> str(restrict_blocks(parse_partition("{1,4}{2,3}{5}"), (2, 3, 5)))
    '{1,2}{3}'
    """
    labels, groups = part.labels, {}
    for r, p in enumerate(positions, start=1):
        groups.setdefault(labels[p - 1], []).append(r)
    return Partition._canonical(len(positions), tuple(map(tuple, groups.values())))


@lru_cache(maxsize=INTERVAL_MEMO_SIZE)
def moebius_row(pi: Partition, sigma: Partition, kind: LatticeKind) -> tuple[tuple[int, Partition], ...]:
    """The pairs (mu(tau, sigma), tau) over ``interval_list(pi, sigma, kind)``,
    in its order: the weights of a Moebius inversion onto sigma, which
    depend on the lattice alone, each taken by ``moebius`` in closed form.

    The memo keeps INTERVAL_MEMO_SIZE rows, as ``interval_list`` keeps its
    intervals.  A full ``check-all`` asks for fewer than 700, but a join
    formula past its bound asks for every interval of NC(n) about once:
    kept without a bound, the 52,787 rows of partial-cumulants at (n, d)
    = (8, 1) took its peak RSS from 56 to 89 MB, at no gain in time.

    >>> [(mu, str(tau)) for mu, tau in moebius_row(Partition.discrete(2), Partition.full(2), LatticeKind.FULL)]
    [(1, '{1,2}'), (-1, '{1}{2}')]
    """
    return tuple((moebius(tau, sigma, kind), tau) for tau in interval_list(pi, sigma, kind))
