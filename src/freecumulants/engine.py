"""Partitioned expectations, cumulants, and their nested compositions.

The engine is generic over a ``ProbabilityContext`` (see models.py) and a
lattice kind.  In the noncrossing lattice a partitioned expectation
``phi_partitioned`` is evaluated by repeatedly extracting an interval
block {k..l}: the block's arguments are multiplied, hit with the
expectation, and the value is spliced back by left-multiplying the next
argument (or right-multiplying the previous one when the block is
terminal).  Bimodularity of the expectations makes the result independent
of which interval block goes first; ``extraction_order`` exists so tests
can sweep all orders.  On the full lattice the context is commutative and
the blocks' values simply multiply.

Every identity the checks test is a Moebius sum of the same few
partitioned expectations, so every context keeps a table of the ones
computed on it, keyed on (partition, level, arguments); the arguments
must be the context's own hashable elements.  The table lives as long
as the context, which the checks build per model; at ``TABLE_CAP``
entries it is cleared.  A call with an explicit ``extraction_order``
neither reads nor fills it.

Every cumulant is one Moebius sum over an interval [lo, hi] of the
lattice.  The partitioned cumulant and the semi-nested cumulant also
have a cheaper multiplicative recursion (splice the single-block
cumulant of an interval block), selected by ``method``; the Moebius sum
is the reference route that ``cross_check`` compares it against.

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

from .errors import CrossingPartitionError, DimensionMismatchError, OrderViolationError
from .models import ProbabilityContext
from .partitions import LatticeKind, Partition, interval_list, moebius


# most partitioned expectations one context keeps; a check context fills
# at most a few hundred
TABLE_CAP = 4096


class Level(Enum):
    """Which expectation a partitioned functional is built from."""

    PSI = "psi"
    PHI = "phi"


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


def absorb_coefficients(ctx: ProbabilityContext, coefficients, args) -> tuple:
    """Normalize b_0 X_1 b_1 ... X_n b_n into an n-term argument list.

    Each coefficient attaches to the argument after it; the trailing one
    right-multiplies the last argument.  ``coefficients`` has length
    n + 1; pass ``None`` entries for omitted (unit) coefficients.
    """
    args = list(args)
    if len(coefficients) != len(args) + 1:
        raise DimensionMismatchError(
            f"{len(args)} arguments want {len(args) + 1} coefficients, got {len(coefficients)}"
        )
    for k, b in enumerate(coefficients[:-1]):
        if b is not None:
            args[k] = ctx.mul(b, args[k])
    if coefficients[-1] is not None:
        args[-1] = ctx.mul(args[-1], coefficients[-1])
    return tuple(args)


def _validate(ctx: ProbabilityContext, part: Partition, nargs: int) -> None:
    if part.n != nargs:
        raise DimensionMismatchError(f"partition of {part.n} applied to {nargs} arguments")
    if ctx.kind is LatticeKind.NONCROSSING and not part.is_noncrossing:
        raise CrossingPartitionError(f"{part} is crossing")
    if ctx.kind is LatticeKind.FULL and not ctx.commutative:
        raise ValueError("full-lattice functionals need a commutative context")


def _validate_pair(ctx: ProbabilityContext, pair: NestedPair, nargs: int) -> None:
    _validate(ctx, pair.outer, nargs)
    if ctx.kind is LatticeKind.NONCROSSING and not pair.inner.is_noncrossing:
        raise CrossingPartitionError(f"{pair.inner} is crossing")


def _extract(ctx, part: Partition, args: list, block_value, order=None):
    """Nest ``block_value`` along the blocks of ``part``.

    ``block_value(positions, sub_args)`` maps a block, given by the
    original positions of its arguments and the arguments themselves, to
    the element spliced back into the word.  ``order`` picks, step by
    step, among the current interval blocks; past its end, or without
    it, the first interval block goes.
    """
    if ctx.kind is LatticeKind.FULL:
        return ctx.product(block_value(b, [args[i - 1] for i in b]) for b in part.blocks)
    choices = iter(order if order is not None else ())
    positions = list(range(1, part.n + 1))
    while args:
        candidates = part.interval_block_indices()
        choice = next(choices, 0)
        if not 0 <= choice < len(candidates):
            raise ValueError(f"extraction choice {choice} out of range 0..{len(candidates) - 1}")
        block = part.blocks[candidates[choice]]
        k, l = block[0], block[-1]
        e = block_value(positions[k - 1 : l], args[k - 1 : l])
        del positions[k - 1 : l]
        part = part.restrict(tuple(i for i in range(1, part.n + 1) if i < k or i > l))
        if l == len(args) and k > 1:
            args = args[: k - 1]
            args[-1] = ctx.mul(args[-1], e)
        elif l == len(args):
            return e
        else:
            args = args[: k - 1] + [ctx.mul(e, args[l])] + args[l + 1 :]
    return ctx.unit()


def _moebius_sum(ctx, lo: Partition, hi: Partition, value):
    """Sum over tau in [lo, hi] of mu(tau, hi) * value(tau)."""
    return ctx.sum(
        ctx.scale(Fraction(moebius(tau, hi, ctx.kind)), value(tau))
        for tau in interval_list(lo, hi, ctx.kind)
    )


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


def phi_partitioned(
    ctx: ProbabilityContext,
    part: Partition,
    args,
    level: Level = Level.PSI,
    extraction_order=None,
):
    """The partitioned expectation: nest the expectation along the blocks.

    The value comes from, or goes into, the context's table unless
    ``extraction_order`` is given."""
    args = list(args)
    table = ctx.phi_table if extraction_order is None else None
    if table is not None:
        key = (part, level, tuple(args))
        value = table.get(key)
        if value is not None:
            return value
    _validate(ctx, part, len(args))
    value = _extract(
        ctx, part, args, lambda _, sub: expectation(ctx, ctx.product(sub), level), extraction_order
    )
    if table is not None:
        if len(table) >= TABLE_CAP:
            table.clear()
        table[key] = value
    return value


def free_cumulant(
    ctx: ProbabilityContext,
    part: Partition,
    args,
    level: Level = Level.PSI,
    method: str = "recursion",
    cross_check: bool = False,
):
    """Partitioned cumulant: Moebius inversion of phi_partitioned over [0, part]."""
    args = list(args)
    _validate(ctx, part, len(args))
    return _by_method(
        ctx, method, cross_check, "cumulant", part,
        lambda: _cumulant_moebius(ctx, part, args, level),
        lambda: _cumulant_recursive(ctx, part, args, level),
    )


def _cumulant_moebius(ctx, part, args, level):
    return _moebius_sum(
        ctx, Partition.discrete(part.n), part, lambda sigma: phi_partitioned(ctx, sigma, args, level)
    )


def _cumulant_recursive(ctx, part, args, level):
    # splice the single-block cumulant of each block, a Moebius sum over its own lattice
    return _extract(
        ctx, part, args,
        lambda _, sub: _cumulant_moebius(ctx, Partition.full(len(sub)), sub, level),
    )


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
    args = list(args)
    _validate(ctx, upper, len(args))
    if not lower.refines(upper):
        raise OrderViolationError(f"{lower} does not refine {upper}")
    return _moebius_sum(ctx, lower, upper, lambda pi: phi_partitioned(ctx, pi, args, level))


def nested_moment(ctx: ProbabilityContext, pair: NestedPair, args):
    """phi along the outer partition of psi-partitioned inner values.

    Outer blocks are extracted exactly as in phi_partitioned, except each
    block's value is phi applied to the inner psi-partitioned expectation
    of the block's arguments.
    """
    args = list(args)
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
    args = list(args)
    _validate_pair(ctx, pair, len(args))
    inner, outer = pair.inner, pair.outer
    return _by_method(
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


def nested_cumulant(ctx: ProbabilityContext, pair: NestedPair, args):
    """Outer phi-cumulant of inner psi-cumulants:
    sum of nested_semicumulant over rho in [inner, outer] against mu(rho, outer)."""
    args = list(args)
    _validate(ctx, pair.outer, len(args))
    return _moebius_sum(
        ctx, pair.inner, pair.outer,
        lambda rho: nested_semicumulant(ctx, NestedPair(pair.inner, rho), args),
    )
