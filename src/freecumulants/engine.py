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
it, one representation per level, each keyed on its argument tuple.  A
psi-level value is an element of A: a partitioned psi-expectation under
(partition, Level.PSI, arguments), a single-block psi-cumulant under
(Level.PSI, arguments), one of more than one block under ("cumulant",
partition, Level.PSI, arguments), psi of an argument tuple's product
under ("psi", arguments) and an operator-valued Boolean cumulant under
("boolean", arguments).  A partitioned psi-expectation or psi-cumulant
takes each gap and tail as the same functional of the partition
restricted to that window, so windows are entries too.  A phi-level
value is an integer pair in lowest terms: each phi-cumulant, scalar
Boolean cumulant and moment under ("kappa", arguments),
("scalar-boolean", arguments) and ("moment", arguments), and each block
scalar of the nested functionals under ("semi", ...) and ("top", ...),
below.  The nested functionals keep their values under (pair,
arguments), a nested semicumulant only on its default route, so that
``method="moebius"`` and ``cross_check`` stay independent oracles, and
("nested-cumulant", pair, arguments).  The arguments must be the
context's own hashable elements.  The table lives as long as the
context, which the checks build per model, and is never cleared.

phi is C-valued, so a value at ``Level.PHI`` is a central scalar, and it
pulls out of the C-multilinear psi-cumulants of any gap it is spliced
into.  The default routes therefore take each phi-level functional as a
product of integer pairs over blocks (``_pair_sum``), embedded in A once:

* phi_sigma is the product of the blocks' ``_moment_scalar``, and
  kappa^phi_sigma that of their ``_kappa_scalar``, on either lattice;
* nu_semi(pi, rho) is the product over the blocks B of rho of
  f(pi|B; a_B) = phi(kappa^psi_{pi|B}(a_B)), kept under ("semi", pi|B, a_B);
* [pi, sigma] is the product of the top intervals [pi|B, 1_B] over the
  blocks B of sigma, and mu is multiplicative over it (Speicher, Math.
  Ann. 298, 1994; Nica-Speicher, Lectures 9-11), so nu(pi, sigma) is the
  product of g(pi|B; a_B) = nu(pi|B, 1_B), the sum of mu times nu_semi
  over the top interval's ``moebius_row``, kept under ("top", pi|B, a_B).

The literal nesting stays the oracle: ``nested_moment`` and every
``Level.PSI`` route nest along the blocks, and ``method="moebius"`` and
``cross_check`` of ``nested_semicumulant`` sum ``nested_moment``.

Every cumulant is one Moebius sum over an interval [lo, hi] of the
lattice, weighted by the interval's row ``partitions.moebius_row``: the
weights depend on the lattice alone, so every context shares the row.
The partitioned cumulant and the semi-nested cumulant also have a
multiplicative recursion, selected by ``method``, which ``cross_check``
compares against the Moebius sum: at ``Level.PSI`` nest the single-block
cumulants of the blocks in A, and at ``Level.PHI`` multiply them as
integer pairs.  A single-block cumulant comes from the first-block form
of its lattice:

* the full lattice: m(S) less kappa(V) m(S - V) over the blocks V != S
  holding min S, 2^(n-1) terms where its Moebius sum has Bell(n), on
  integer pairs at ``Level.PHI`` (``_kappa_scalar``) and in A at
  ``Level.PSI`` (``_kappa_commutative``);
* the noncrossing lattice at ``Level.PHI``: the moment-cumulant relation
  split at the Boolean cumulants, below, over the argument sub-tuples a
  block and its gaps pick out, since scalar values commute out: one
  ``phi_scalar_product`` call per distinct sub-tuple a context meets;
* the noncrossing lattice at ``Level.PSI``: the operator-valued form of
  the same split, on argument tuples whose entries absorb the psi of the
  gaps the block leaves.

The Boolean cumulant B(args) is the sum of kappa_pi over the noncrossing
partitions whose first and last points share a block (Lehner, Free
cumulants and enumeration of connected partitions, European J. Combin.
23, 2002; Arizmendi, Hasebe, Lehner and Vargas, Adv. Math. 282, 2015).
Grouping the first blocks by their last element makes psi(a_1 ... a_n)
the sum of B(a_1, ..., a_l) psi(a_{l+1} ... a_n), which gives each B from
the B of its prefixes; kappa_n(args) is B(args) less the terms of the
blocks holding both ends but not all of them, 2^(n-2) - 1 blocks where
the first-block form visits 2^(n-1) - 1.

The engine never forms a product only to take its expectation:
``_block_moment`` and ``_moment_scalar`` (which a block's phi reads)
hand the factors to the context's hook, ``psi_product`` or ``phi_scalar_product`` (see
models.py), as the freeness checks do for their alternating words.  The
default hook is psi or phi_scalar of the product; the word model takes both over simple
tensors instead of basis words, the scalar-free model takes
``phi_scalar_product`` as one free moment per word of the product, and
the matrix model takes both from the two half products, integrating
their term pairs straight into psi.

Nested functionals compose two levels of the tower: ``nested_moment`` is
the outer partitioned expectation wrapped around inner psi-partitioned
values, ``nested_semicumulant`` wraps inner psi-cumulants, and
``nested_cumulant`` Moebius-inverts the outer slot as well; the last two
are products of block scalars, as above.  On the full lattice over a
commutative context the same definitions degrade to the classical
blockwise products of ordinary and conditional cumulants.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import CrossingPartitionError, DimensionMismatchError, OrderViolationError
from .models import ProbabilityContext
from .partitions import LatticeKind, Partition, first_blocks, moebius_row, outer_blocks, restrict_blocks


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
    reads it from the table; ``nested_moment`` gives none, because its
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
    the value comes from, or goes into, the context's table.  At
    ``Level.PHI`` it is the product of the blocks' moments, untabled."""
    args = tuple(args)
    if level is Level.PHI:
        _validate(ctx, part, len(args))
        return _blockwise(ctx, _moment_scalar, part, args)
    table, key = ctx.phi_table, (part, Level.PSI, args)
    value = table.get(key)
    if value is None:
        _validate(ctx, part, len(args))
        value = table[key] = _extract(ctx, part, args, lambda _, sub: _block_moment(ctx, sub),
                                      lambda sub_part, sub_args: phi_partitioned(ctx, sub_part, sub_args))
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
    the single-block cumulants of the blocks of ``part``, or at
    ``Level.PHI`` multiplies them as integer pairs (``_kappa_scalar``),
    each by the first-block form of the lattice.
    """
    args = tuple(args)
    _validate(ctx, part, len(args))
    return _by_method(
        ctx, method, cross_check, "cumulant", part,
        lambda: partial_cumulant(ctx, Partition.discrete(part.n), part, args, level),
        lambda: (_cumulant_recursive(ctx, part, args) if level is Level.PSI
                 else _blockwise(ctx, _kappa_scalar, part, args)),
    )


def _cumulant_recursive(ctx, part, args: tuple):
    """Nest the single-block psi-cumulants of the blocks of ``part``; a value
    of more than one block comes from, or goes into, the context's table
    under ("cumulant", part, Level.PSI, args)."""
    if part.size == 1:
        return _single_block(ctx, args)
    table, key = ctx.phi_table, ("cumulant", part, Level.PSI, args)
    value = table.get(key)
    if value is None:
        value = table[key] = _extract(ctx, part, args, lambda _, sub: _single_block(ctx, sub),
                                      lambda sub_part, sub_args: _cumulant_recursive(ctx, sub_part, sub_args))
    return value


def _block_moment(ctx, args: tuple):
    """psi of the product of ``args``; the value comes from, or goes into,
    the context's table under ("psi", args)."""
    table, key = ctx.phi_table, ("psi", args)
    value = table.get(key)
    if value is None:
        value = table[key] = ctx.psi_product(args)
    return value


def _single_block(ctx, args: tuple):
    """The psi-cumulant kappa_n(args) of one block, by the first-block form
    of the lattice; the value comes from, or goes into, the context's table
    under (Level.PSI, args)."""
    table, key = ctx.phi_table, (Level.PSI, args)
    value = table.get(key)
    if value is None:
        value = table[key] = (_kappa_commutative(ctx, args) if ctx.kind is LatticeKind.FULL
                              else _kappa_operator(ctx, args))
    return value


def _embed(ctx, pair: tuple[int, int]):
    """The integer pair ``pair`` as a scalar of A."""
    return ctx.embed_scalar(Fraction(*pair))


def _blockwise(ctx, scalar, part: Partition, args: tuple):
    """The product of scalar(ctx, args_B) over the blocks B of ``part``, as a scalar of A."""
    return _embed(ctx, _pair_sum(ctx, [(1, ((scalar, tuple(args[i - 1] for i in b)) for b in part.blocks))]))


def _kappa_scalar(ctx, args: tuple) -> tuple[int, int]:
    """The phi-cumulant of ``args``, as an integer pair in lowest terms,
    tabled under ("kappa", args).

    On the full lattice it is the first-block form of Leonov and Shiryaev
    (On a method of calculation of semi-invariants, 1959): m(S) less
    kappa(V) m(S - V) over the blocks V != S holding min S.  On the
    noncrossing one scalars commute out of every block, so the Boolean
    cumulant b(args) (``_boolean_scalar``) is the sum, over the blocks V
    holding the first and the last argument, of kappa(args_V) times the
    moments of the gaps V leaves; kappa(args) is b(args) less the terms of
    V != all.  Each kappa and moment is taken once per context, and a gap
    is sliced, or a complement's moment taken, only after the block's kappa
    is nonzero.  ``_kappa_operator`` with phi for psi gives the same values, but its
    tuples absorb each gap's scalar, so they do not repeat: scalar kappa_8
    of two alternating generators takes 1,027 psi calls there against 87
    phi calls here.
    """
    table, key = ctx.phi_table, ("kappa", args)
    value = table.get(key)
    if value is not None:
        return value
    n = len(args)
    if ctx.kind is LatticeKind.FULL:
        num, den = _moment_scalar(ctx, args)
        for block in first_blocks(0, n):
            if len(block) == n:
                continue
            t_num, t_den = _kappa_scalar(ctx, tuple(map(args.__getitem__, block)))
            if t_num:
                m_num, m_den = _moment_scalar(ctx, tuple(x for i, x in enumerate(args) if i not in block))
                num, den = num * t_den * m_den - t_num * m_num * den, den * t_den * m_den
    else:
        num, den = _boolean_scalar(ctx, args)
        for block in outer_blocks(n):
            if len(block) == n:
                continue
            t_num, t_den = _kappa_scalar(ctx, tuple(map(args.__getitem__, block)))
            for a, b in zip(block, block[1:]):
                if not t_num:
                    break
                if b > a + 1:
                    m_num, m_den = _moment_scalar(ctx, args[a + 1 : b])
                    t_num, t_den = t_num * m_num, t_den * m_den
            if t_num:
                num, den = num * t_den - t_num * den, den * t_den
    g = gcd(num, den)
    value = table[key] = (num // g, den // g)
    return value


def _boolean_scalar(ctx, args: tuple) -> tuple[int, int]:
    """The Boolean phi-cumulant b(args), an integer pair in lowest terms
    tabled under ("scalar-boolean", args): m(args) less b(args[:l])
    m(args[l:]) over 1 <= l < n, each m taken only after its b is nonzero."""
    table, key = ctx.phi_table, ("scalar-boolean", args)
    value = table.get(key)
    if value is None:
        num, den = _moment_scalar(ctx, args)
        for l in range(1, len(args)):
            b_num, b_den = _boolean_scalar(ctx, args[:l])
            if b_num:
                m_num, m_den = _moment_scalar(ctx, args[l:])
                num, den = num * b_den * m_den - b_num * m_num * den, den * b_den * m_den
        g = gcd(num, den)
        value = table[key] = (num // g, den // g)
    return value


def _pair_sum(ctx, terms) -> tuple[int, int]:
    """The sum over the (int c, calls) ``terms`` of c times the product of
    the integer pairs scalar(ctx, key) over the (scalar, key) ``calls``, in
    lowest terms; a term makes no call after a zero factor."""
    num, den = 0, 1
    for t_num, calls in terms:
        t_den = 1
        for scalar, key in calls:
            f_num, f_den = scalar(ctx, key)
            t_num, t_den = t_num * f_num, t_den * f_den
            if not t_num:
                break
        if t_num:
            num, den = num * t_den + t_num * den, den * t_den
    g = gcd(num, den)
    return num // g, den // g


def _moment_scalar(ctx, args: tuple) -> tuple[int, int]:
    """phi_scalar of the product of ``args``, an integer pair tabled under ("moment", args)."""
    table, key = ctx.phi_table, ("moment", args)
    value = table.get(key)
    if value is None:
        value = table[key] = ctx.phi_scalar_product(args).as_integer_ratio()
    return value


def _kappa_commutative(ctx, args: tuple):
    """The psi-cumulant kappa_n(args) in a commutative context, by the
    first-block form of ``_kappa_scalar`` in A.  Each smaller kappa comes
    through ``_single_block`` and each m through ``_block_moment``."""
    n = len(args)
    terms = [(1, _block_moment(ctx, args))]
    for block in first_blocks(0, n):
        if len(block) < n:
            rest = tuple(a for i, a in enumerate(args) if i not in block)
            kappa = _single_block(ctx, tuple(args[i] for i in block))
            terms.append((-1, ctx.mul(kappa, _block_moment(ctx, rest))))
    return ctx.combine(terms)


def _gap_factor(ctx, args: tuple, a: int, b: int):
    """``args[a]`` times psi of the gap ``args[a+1:b]`` after it, a spliced argument of ``_kappa_operator``."""
    return ctx.mul(args[a], _block_moment(ctx, args[a + 1 : b]))


def _kappa_operator(ctx, args: tuple):
    """The psi-cumulant kappa_n(args), operator-valued.

    The block V = {1 = i_1 < ... < i_r = n} holding the first and the last
    argument contributes kappa_r(a_{i_1} psi(gap_1), ..., a_{i_r})
    (Speicher, Combinatorial Theory of the Free Product with Amalgamation
    and Operator-Valued Free Probability Theory, Mem. AMS 627, 1998), and
    these terms sum to the Boolean cumulant (``_boolean_operator``), so
    kappa_n(args) is that less the terms of the other blocks.  Each smaller
    kappa comes through ``_single_block``, so it stays in the context's
    table.  The factor a_i psi(gap) of each gap (i, j), ``_gap_factor``, is
    formed once per call, and every block V leaving that gap reads it.
    """
    n = len(args)
    factors = {(a, b): _gap_factor(ctx, args, a, b) for a in range(n) for b in range(a + 2, n)}
    terms = [(-1, _single_block(ctx, _splice(args, block, lambda a, b: factors[a, b])))
             for block in outer_blocks(n) if len(block) < n]
    return ctx.combine([*terms, (1, _boolean_operator(ctx, args))])


def _boolean_operator(ctx, args: tuple):
    """The operator-valued Boolean cumulant B(args): psi(a_1 ... a_n) less
    B(a_1, ..., a_l) psi(a_{l+1} ... a_n) over 1 <= l < n, the prefix on the
    left.  Each B comes from, or goes into, the context's table under
    ("boolean", args), and each psi through ``_block_moment``."""
    table, key = ctx.phi_table, ("boolean", args)
    value = table.get(key)
    if value is None:
        value = table[key] = ctx.combine([
            (1, _block_moment(ctx, args)),
            *((-1, ctx.mul(_boolean_operator(ctx, args[:l]), _block_moment(ctx, args[l:])))
              for l in range(1, len(args)))])
    return value


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
    the Moebius inversion of nested_moment in its inner slot.  The
    recursion takes it as the product of ``_semi_scalar`` over the outer
    blocks, tabled under (pair, args) on that route alone."""
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
            lambda: _nested_product(ctx, _semi_scalar, pair, args),
        )
        table[key] = value
    return value


def nested_cumulant(ctx: ProbabilityContext, pair: NestedPair, args):
    """Outer phi-cumulant of inner psi-cumulants: the sum of
    nested_semicumulant over rho in [inner, outer] against mu(rho, outer).
    That interval is the product of the top intervals [inner|B, 1_B] over
    the outer blocks B, so the value is the product of ``_top_scalar``; it
    comes from, or goes into, the context's table under ("nested-cumulant",
    pair, args)."""
    args = tuple(args)
    table, key = ctx.phi_table, ("nested-cumulant", pair, args)
    value = table.get(key)
    if value is None:
        _validate_pair(ctx, pair, len(args))
        value = table[key] = _nested_product(ctx, _top_scalar, pair, args)
    return value


def _nested_product(ctx, scalar, pair: NestedPair, args: tuple):
    """The product of scalar(ctx, (inner|B, args_B)) over the outer blocks B, as a scalar of A."""
    return _embed(ctx, _pair_sum(ctx, [(1, _restricted(scalar, pair.inner, pair.outer, args))]))


def _restricted(scalar, inner: Partition, outer: Partition, args: tuple):
    """The calls (scalar, (inner|B, args_B)) over the blocks B of ``outer``, one at a time."""
    return ((scalar, (restrict_blocks(inner, b), tuple(args[i - 1] for i in b))) for b in outer.blocks)


def _semi_scalar(ctx, restricted: tuple) -> tuple[int, int]:
    """phi of the psi-cumulant kappa^psi_part(args), nu_semi(part, 1_n; args),
    of the (part, args) ``restricted``, an integer pair tabled under
    ("semi", part, args)."""
    part, args = restricted
    table, key = ctx.phi_table, ("semi", part, args)
    value = table.get(key)
    if value is None:
        value = table[key] = ctx.phi_scalar(_cumulant_recursive(ctx, part, args)).as_integer_ratio()
    return value


def _top_scalar(ctx, restricted: tuple) -> tuple[int, int]:
    """nu(part, 1_n; args) of the (part, args) ``restricted``: the sum over
    tau in [part, 1_n] of mu(tau, 1_n) times the product of ``_semi_scalar``
    over tau's blocks, an integer pair tabled under ("top", part, args)."""
    part, args = restricted
    table, key = ctx.phi_table, ("top", part, args)
    value = table.get(key)
    if value is None:
        row = moebius_row(part, Partition.full(part.n), ctx.kind)
        value = table[key] = _pair_sum(ctx, [(mu, _restricted(_semi_scalar, part, tau, args)) for mu, tau in row])
    return value
