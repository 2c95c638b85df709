"""Partitioned expectations, cumulants, and their nested compositions.

The engine is generic over a ``ProbabilityContext`` (see models.py) and a
lattice kind.  In the noncrossing lattice a partitioned expectation
``phi_partitioned`` nests by the block V holding the first argument
(Speicher, Mem. AMS 627, 1998; Nica-Speicher, Lecture 11): each argument
of V but the last is multiplied on the right by the nested value of the
gap after it, the expectation of V's product follows, and the nested
value of the tail after V multiplies it on the right.  Bimodularity of
the expectations makes this equal to extracting interval blocks one at
a time in any order.  On the full lattice the context is commutative
and the blocks' values simply multiply.

Every identity the checks test is a Moebius sum of the same few
partitioned expectations, single-block cumulants and nested
semicumulants, so every context keeps a table of the ones computed on
it, under (partition, level, arguments), (level, arguments) and (pair,
arguments); a nested semicumulant only on its default route, so that
``method="moebius"`` and ``cross_check`` stay independent oracles.  The
recursion keeps its partitioned cumulants of more than one block under
("cumulant", partition, level, arguments), and ``nested_cumulant`` its
values under ("nested-cumulant", pair, arguments); a partitioned
expectation or cumulant takes each gap and tail as the same functional
of the partition restricted to that window, so windows are entries too.
The expectation of an argument tuple's product that a block or a
recursion takes is kept there once too, under (level.value, arguments),
and each scalar phi-cumulant and moment as an integer pair, under
("kappa", ids) and ("moment", ids), ids the arguments' positions in
"arguments"; a block's phi reads the same moment pair.  The
arguments must be the context's own hashable elements.  The table lives
as long as the context, which the checks build per model, and is never
cleared.

Every cumulant is one Moebius sum over an interval [lo, hi] of the
lattice, weighted by the interval's row ``partitions.moebius_row``: the
weights depend on the lattice alone, so every context shares the row.
The partitioned cumulant and the semi-nested cumulant also have a
multiplicative recursion, selected by ``method``: nest the single-block
cumulants of the blocks the same way.  A single-block cumulant comes from

* the full lattice: the commutative first-block form over subsets,
  2^(n-1) terms where its Moebius sum has Bell(n);
* the noncrossing lattice at ``Level.PHI``: the first-block form of the
  moment-cumulant relation over the argument sub-tuples a block and its
  gaps pick out, since scalar values commute out: one
  ``phi_scalar_product`` call per distinct sub-tuple a context meets;
* the noncrossing lattice at ``Level.PSI``: the operator-valued
  first-block form, on argument tuples whose entries absorb the psi of
  the gaps the first block leaves.

The Moebius sum is the reference route that ``cross_check`` compares
the recursion against.

The engine never forms a product only to take its expectation:
``_block_moment`` and ``_moment_scalar`` (which a block's phi reads)
hand the factors to the context's hook, ``psi_product`` or ``phi_scalar_product`` (see
models.py), as the freeness checks do for their alternating words.  The
default hook is psi or phi_scalar of the product; the word model takes both over simple
tensors instead of basis words, and the scalar-free model takes
``phi_scalar_product`` as one free moment per word of the product.

Nested functionals compose two levels of the tower: ``nested_moment`` is
the outer partitioned expectation wrapped around inner psi-partitioned
values, ``nested_semicumulant`` wraps inner psi-cumulants, and
``nested_cumulant`` Moebius-inverts the outer slot as well.  On the full
lattice over a commutative context the same definitions degrade to the
classical blockwise products of ordinary and conditional cumulants.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import CrossingPartitionError, DimensionMismatchError, OrderViolationError
from .models import ProbabilityContext
from .partitions import LatticeKind, Partition, first_blocks, moebius_row, restrict_blocks


class Level(Enum):
    """Which expectation a partitioned functional is built from."""

    PSI = "psi"
    PHI = "phi"

    __hash__ = object.__hash__


def expectation(ctx: ProbabilityContext, x, level: Level):
    return ctx.psi(x) if level is Level.PSI else ctx.phi(x)


@dataclass(frozen=True)
class NestedPair:
    """A pair inner <= outer of partitions of the same ground set."""

    inner: Partition
    outer: Partition

    def __post_init__(self) -> None:
        if not self.inner.refines(self.outer):
            raise OrderViolationError(f"{self.inner} does not refine {self.outer}")


def _validate(ctx: ProbabilityContext, part: Partition, nargs: int) -> None:
    if part.n != nargs:
        raise DimensionMismatchError(f"partition of {part.n} applied to {nargs} arguments")
    if ctx.kind is LatticeKind.NONCROSSING and not part.is_noncrossing:
        raise CrossingPartitionError(f"{part} is crossing")


def _validate_pair(ctx: ProbabilityContext, pair: NestedPair, nargs: int) -> None:
    _validate(ctx, pair.outer, nargs)
    if ctx.kind is LatticeKind.NONCROSSING and not pair.inner.is_noncrossing:
        raise CrossingPartitionError(f"{pair.inner} is crossing")


def _splice(args, block: tuple, factor) -> tuple:
    """The arguments of ``block`` (sorted 0-based positions into ``args``),
    each ``args[a]`` but the last that a nonempty gap ``args[a+1:b]`` follows
    given as ``factor(a, b)``: ``args[a]`` times the nested value of that
    gap, on the right."""
    return tuple(args[a] if b == a + 1 else factor(a, b) for a, b in zip(block, block[1:])) + (args[block[-1]],)


def _extract(ctx, part: Partition, args: tuple, block_value, whole=None):
    """Nest ``block_value`` along the blocks of ``part``.

    ``block_value(positions, sub_args)`` maps a block, given by the
    original positions of its arguments and the arguments themselves, to
    its value.  On the full lattice the blocks' values multiply; on the
    noncrossing one they nest by the block holding the first argument
    (``_nest``).  ``whole(sub_part, sub_args)``, when given, is the
    functional being computed, and each gap and tail takes its value as
    ``whole`` of the partition restricted to it, so a tabled functional
    reads it from the table; the nested routes give none, because their
    block values read positions of ``part``.
    """
    if ctx.kind is LatticeKind.FULL:
        return ctx.product(block_value(b, tuple(args[i - 1] for i in b)) for b in part.blocks)
    return _nest(ctx, part, args, block_value, 0, part.n, whole) if part.n else ctx.unit()


def _nest(ctx, part: Partition, args: tuple, block_value, lo: int, hi: int, whole):
    """The nested value of ``args[lo:hi]``, a union of blocks of ``part``:
    the value of the block V holding position lo + 1, on V's arguments
    spliced with the nested values of its gaps, times the nested value of
    the tail after V.  A noncrossing V leaves each gap and the tail a
    union of blocks."""
    nested = ((lambda a, b: _nest(ctx, part, args, block_value, a, b, None)) if whole is None
              else (lambda a, b: whole(restrict_blocks(part, range(a + 1, b + 1)), args[a:b])))
    positions = part.blocks[part.labels[lo]]
    block = tuple(i - 1 for i in positions)
    value = block_value(positions, _splice(args, block, lambda a, b: ctx.mul(args[a], nested(a + 1, b))))
    tail = block[-1] + 1
    return ctx.mul(value, nested(tail, hi)) if tail < hi else value


def _moebius_sum(ctx, lo: Partition, hi: Partition, value):
    """Sum over tau in [lo, hi] of mu(tau, hi) * value(tau), over the
    interval's one row of weights."""
    return ctx.combine((mu, value(tau)) for mu, tau in moebius_row(lo, hi, ctx.kind))


def _by_method(ctx, method: str, cross_check: bool, label: str, subject,
               moebius_route, recursion_route):
    """Run the route ``method`` names; ``cross_check`` runs both and
    insists they agree, returning the Moebius (reference) value."""
    if cross_check:
        a, b = moebius_route(), recursion_route()
        if a != b:
            raise RuntimeError(
                f"{label} cross-check failed for {subject}: {ctx.describe(a)} vs {ctx.describe(b)}"
            )
        return a
    if method == "moebius":
        return moebius_route()
    if method == "recursion":
        return recursion_route()
    raise ValueError(f"unknown method {method!r}")


def phi_partitioned(ctx: ProbabilityContext, part: Partition, args, level: Level = Level.PSI):
    """The partitioned expectation: nest the expectation along the blocks;
    the value comes from, or goes into, the context's table."""
    args = tuple(args)
    table, key = ctx.phi_table, (part, level, args)
    value = table.get(key)
    if value is None:
        _validate(ctx, part, len(args))
        value = table[key] = _extract(ctx, part, args, lambda _, sub: _block_moment(ctx, sub, level),
                                      lambda sub_part, sub_args: phi_partitioned(ctx, sub_part, sub_args, level))
    return value


def free_cumulant(
    ctx: ProbabilityContext,
    part: Partition,
    args,
    level: Level = Level.PSI,
    method: str = "recursion",
    cross_check: bool = False,
):
    """Partitioned cumulant: Moebius inversion of phi_partitioned over [0, part].

    ``method="moebius"`` evaluates that sum.  ``method="recursion"`` nests
    the single-block cumulants of the blocks of ``part``, each by a
    first-block recursion: over subsets on the full lattice, and on the
    noncrossing one over argument sub-tuples at ``Level.PHI`` and over
    spliced argument tuples at ``Level.PSI`` (see ``_single_block``).
    """
    args = tuple(args)
    _validate(ctx, part, len(args))
    return _by_method(
        ctx, method, cross_check, "cumulant", part,
        lambda: partial_cumulant(ctx, Partition.discrete(part.n), part, args, level),
        lambda: _cumulant_recursive(ctx, part, args, level),
    )


def _cumulant_recursive(ctx, part, args: tuple, level):
    """Nest the single-block cumulants of the blocks of ``part``; a value of
    more than one block comes from, or goes into, the context's table
    under ("cumulant", part, level, args)."""
    if part.size == 1:
        return _single_block(ctx, args, level)
    table, key = ctx.phi_table, ("cumulant", part, level, args)
    value = table.get(key)
    if value is None:
        value = table[key] = _extract(ctx, part, args, lambda _, sub: _single_block(ctx, sub, level),
                                      lambda sub_part, sub_args: _cumulant_recursive(ctx, sub_part, sub_args, level))
    return value


def _block_moment(ctx, args: tuple, level: Level):
    """The expectation at ``level`` of the product of ``args``: psi of it,
    or phi of it embedded in A, the scalar shared with ``_moment_scalar``;
    the value comes from, or goes into, the context's table under
    (level.value, args)."""
    table, key = ctx.phi_table, (level.value, args)
    value = table.get(key)
    if value is None:
        value = table[key] = (ctx.psi_product(args) if level is Level.PSI
                              else ctx.embed_scalar(Fraction(*_moment_scalar(ctx, _ids(ctx, args)))))
    return value


def _single_block(ctx, args: tuple, level: Level):
    """kappa_n(args) for one block of all n arguments, by the first-block
    recursion the module docstring names for the lattice and level; the
    value comes from, or goes into, the context's table under (level, args)."""
    table = ctx.phi_table
    key = (level, args)
    value = table.get(key)
    if value is None:
        if ctx.kind is LatticeKind.FULL:
            value = _kappa_commutative(ctx, args, level)
        elif level is Level.PHI:
            value = ctx.embed_scalar(Fraction(*_kappa_scalar(ctx, _ids(ctx, args))))
        else:
            value = _kappa_operator(ctx, args)
        table[key] = value
    return value


def _ids(ctx, args: tuple) -> tuple:
    """The positions of ``args`` in the table's "arguments", each distinct
    argument's position in the order the context met it."""
    index = ctx.phi_table.setdefault("arguments", {})
    return tuple(index.setdefault(a, len(index)) for a in args)


def _kappa_scalar(ctx, ids: tuple) -> tuple[int, int]:
    """The phi-cumulant of the arguments at positions ``ids`` of the table's
    "arguments", as an integer pair in lowest terms, tabled under ("kappa", ids).

    Scalars commute out of every block, so m(args) = sum over the blocks V
    holding the first argument of kappa(args_V) times the moments of the
    gaps V leaves, the tail after V included (Nica-Speicher, Lecture 11);
    kappa(args) is m(args) less the terms of V != all, each kappa and m
    taken once per context.  ``_kappa_operator`` with phi for psi gives the
    same values, but its tuples absorb each gap's scalar, so they do not
    repeat: scalar kappa_8 of two alternating generators takes 1,101 psi
    calls there against 87 phi calls here.
    """
    table, key = ctx.phi_table, ("kappa", ids)
    value = table.get(key)
    if value is not None:
        return value
    n = len(ids)
    num, den = _moment_scalar(ctx, ids)
    for block in first_blocks(0, n):
        if len(block) == n:
            continue
        t_num, t_den = _kappa_scalar(ctx, tuple(map(ids.__getitem__, block)))
        for a, b in zip(block, block[1:] + (n,)):
            if not t_num:
                break
            if b > a + 1:
                m_num, m_den = _moment_scalar(ctx, ids[a + 1 : b])
                t_num, t_den = t_num * m_num, t_den * m_den
        if t_num:
            num, den = num * t_den - t_num * den, den * t_den
    g = gcd(num, den)
    value = table[key] = (num // g, den // g)
    return value


def _moment_scalar(ctx, ids: tuple) -> tuple[int, int]:
    """phi_scalar of the product of the arguments at ``ids``, an integer pair tabled under ("moment", ids)."""
    table, key = ctx.phi_table, ("moment", ids)
    value = table.get(key)
    if value is None:
        known = list(table["arguments"])
        value = table[key] = ctx.phi_scalar_product(known[i] for i in ids).as_integer_ratio()
    return value


def _kappa_commutative(ctx, args: tuple, level: Level):
    """kappa_n(args) in a commutative context: m(S) less kappa(V) m(S - V)
    over the blocks V != S holding min S (Leonov and Shiryaev, On a method
    of calculation of semi-invariants, 1959).  Each smaller kappa comes
    through ``_single_block`` and each m through ``_block_moment``."""
    n = len(args)
    terms = [(1, _block_moment(ctx, args, level))]
    for block in first_blocks(0, n):
        if len(block) < n:
            rest = tuple(a for i, a in enumerate(args) if i not in block)
            kappa = _single_block(ctx, tuple(args[i] for i in block), level)
            terms.append((-1, ctx.mul(kappa, _block_moment(ctx, rest, level))))
    return ctx.combine(terms)


def _gap_factor(ctx, args: tuple, a: int, b: int):
    """``args[a]`` times psi of the gap ``args[a+1:b]`` after it, a spliced argument of ``_kappa_operator``."""
    return ctx.mul(args[a], _block_moment(ctx, args[a + 1 : b], Level.PSI))


def _kappa_operator(ctx, args: tuple):
    """The psi-cumulant kappa_n(args), operator-valued.

    The block V = {1 = i_1 < ... < i_r} holding the first argument
    contributes kappa_r(a_{i_1} psi(gap_1), ..., a_{i_r}) psi(tail)
    (Speicher, Combinatorial Theory of the Free Product with Amalgamation
    and Operator-Valued Free Probability Theory, Mem. AMS 627, 1998), so
    kappa_n(args) is psi(a_1 ... a_n) less the terms of the other blocks.
    Each smaller kappa comes through ``_single_block`` and each psi through
    ``_block_moment``, so both stay in the context's table.  The factor
    a_i psi(gap) of each gap (i, j), ``_gap_factor``, is formed once per
    call, and every block V leaving that gap reads it.
    """
    n = len(args)
    terms, factors = [], {(a, b): _gap_factor(ctx, args, a, b) for a in range(n) for b in range(a + 2, n)}
    for block in first_blocks(0, n):
        if len(block) < n:
            term = _single_block(ctx, _splice(args, block, lambda a, b: factors[a, b]), Level.PSI)
            tail = args[block[-1] + 1 :]
            terms.append((-1, ctx.mul(term, _block_moment(ctx, tail, Level.PSI)) if tail else term))
    return ctx.combine([*terms, (1, _block_moment(ctx, args, Level.PSI))])


def partial_cumulant(
    ctx: ProbabilityContext,
    lower: Partition,
    upper: Partition,
    args,
    level: Level = Level.PSI,
):
    """Cumulant relative to a base partition:
    sum of phi_partitioned over [lower, upper] against mu(., upper).

    At lower = discrete this is the partitioned cumulant; at lower = upper
    it collapses to phi_partitioned.
    """
    args = tuple(args)
    _validate(ctx, upper, len(args))
    if not lower.refines(upper):
        raise OrderViolationError(f"{lower} does not refine {upper}")
    return _moebius_sum(ctx, lower, upper, lambda pi: phi_partitioned(ctx, pi, args, level))


def nested_moment(ctx: ProbabilityContext, pair: NestedPair, args):
    """phi along the outer partition of psi-partitioned inner values.

    Outer blocks nest exactly as in phi_partitioned, except each block's
    value is phi applied to the inner psi-partitioned expectation of the
    block's arguments.
    """
    args = tuple(args)
    _validate_pair(ctx, pair, len(args))
    return _extract(
        ctx, pair.outer, args,
        lambda pos, sub: ctx.phi(phi_partitioned(ctx, pair.inner.restrict(pos), sub, Level.PSI)),
    )


def nested_semicumulant(
    ctx: ProbabilityContext,
    pair: NestedPair,
    args,
    method: str = "recursion",
    cross_check: bool = False,
):
    """phi along the outer partition of inner psi-cumulants:
    the Moebius inversion of nested_moment in its inner slot."""
    args = tuple(args)
    table = ctx.phi_table if method == "recursion" and not cross_check else {}
    key = (pair, args)
    value = table.get(key)
    if value is None:
        _validate_pair(ctx, pair, len(args))
        inner, outer = pair.inner, pair.outer
        value = _by_method(
            ctx, method, cross_check, "nested", pair,
            lambda: _moebius_sum(
                ctx, Partition.discrete(inner.n), inner,
                lambda tau: nested_moment(ctx, NestedPair(tau, outer), args),
            ),
            lambda: _extract(
                ctx, outer, args,
                lambda pos, sub: ctx.phi(_cumulant_recursive(ctx, inner.restrict(pos), sub, Level.PSI)),
            ),
        )
        table[key] = value
    return value


def nested_cumulant(ctx: ProbabilityContext, pair: NestedPair, args):
    """Outer phi-cumulant of inner psi-cumulants:
    sum of nested_semicumulant over rho in [inner, outer] against mu(rho, outer);
    the value comes from, or goes into, the context's table under
    ("nested-cumulant", pair, args)."""
    args = tuple(args)
    table, key = ctx.phi_table, ("nested-cumulant", pair, args)
    value = table.get(key)
    if value is None:
        _validate(ctx, pair.outer, len(args))
        value = table[key] = _moebius_sum(ctx, pair.inner, pair.outer,
                                          lambda rho: nested_semicumulant(ctx, NestedPair(pair.inner, rho), args))
    return value
