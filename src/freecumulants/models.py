"""Concrete probability models: towers C inside B inside A.

Every model packages an algebra A, a conditional expectation psi onto a
subalgebra B, and a scalar expectation phi onto C, as a
``ProbabilityContext`` the cumulant engine can drive generically.  The
contexts here:

* ``ClassicalContext``   commuting polynomial random variables; psi
  integrates out the variables not in ``keep``, phi integrates out all.
* ``MatrixContext``      d x d matrices with independent random entries;
  psi is entrywise expectation, phi the normalized trace of psi.
* ``ScalarFreeContext``  words in free families of scalar variables;
  B = C, both expectations are the free moment functional.
* ``WordContext``        a scalar free family sitting inside d x d
  matrices; psi is *defined* by the factorization rule, see
  ``FactorizationModel``.
* ``TensorContext``      simple tensors (word, vector) of a free family
  with a commutative d-point algebra; psi kills the word factor.

A context supplies only ``unit``, ``psi``, ``phi_scalar`` and, for the
linear combinations, ``mul``.  Every element (a ``Poly``, ``Matrix`` or
``LinearCombination``) holds integer numerators ``terms`` over one ``den``
and builds its like with ``_like``, so all contexts share ``combine``.

The expectation of a product goes through one hook, ``psi_product(xs)``,
and its scalar twin ``phi_scalar_product(xs)``: by default psi and
phi_scalar of ``product(xs)``.  Three sites build a product only to take
its expectation, and call them: ``engine._block_moment``,
``engine._moment_scalar`` and the alternating words of the freeness
checks.  ``WordContext`` overrides both with psi over simple tensors
b0 X b1 ... X bk, a recursion over intervals with d x d matrices in place
of the d^(2k+1) basis words of the product; its ``psi`` stays the flat
route, the reference for the hook.
``ScalarFreeContext`` overrides ``phi_scalar_product`` alone: it folds in
the factors one at a time, summing the coefficients per word, and takes
one free moment per word.  ``MatrixContext`` overrides both: it forms the
two half products and integrates their term pairs straight into psi,
and its literal route, psi of the product, is the reference and the
error path.

Every value-keyed memo of the engine and of a ``ScalarFreeSpec`` goes
through ``tabled(tag)``, under (tag, key) in the owner's ``phi_table``: a
spec keeps each word's free moment under "free-moment", m(()) = 1
seeded, and its Boolean cumulant under "free-boolean".  A spec also keeps
its cumulants once as integers, ``kappa_num`` over the common
``kappa_den``: the free moments and both psi routes of the word model
read that table, and ``cumulant`` stays the checked lookup, which raises
past ``max_order``.  Three memos stay outside the protocol: a
``ClassicalSpec``'s monomial moments, ``_moment_cache``, which the inner
loops of ``_integrate`` and ``_paired_moments`` read inline, where a call
per term would cost; ``FactorizationModel._psi_cache``, keyed on a
reduction of the arguments; and ``WordContext._factors``, which holds
None for the flat-route fallback.

All randomness is drawn from ``random.Random(seed)`` with numerators in
[-9, 9] and denominators in {1, 2, 3}, read from one table of the 57
draws, each with its ``Fraction`` and its text; drawn values travel in
``to_data`` payloads as those texts, so any run can be reproduced from its
report alone.  A model reads its record straight into integer pairs
(``as_ratio``) and keeps no ``Fraction`` of it: a ``ClassicalSpec`` keeps
one integer moment table, a ``ScalarFreeSpec`` its cumulant table and a
``TensorModel`` its weights as numerators over one denominator, so the
tensor state phi is summed in integers; ``Fraction`` is built only at the
boundary (``moment``, ``cumulant``, ``to_data``, ``phi_scalar``).
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from functools import cache, cached_property, partial, reduce, wraps
from math import gcd, lcm, prod
from operator import getitem

from .errors import CapacityError, DimensionMismatchError
from .exact import MAX_EXPONENT, LinearCombination, Matrix, Poly, PolyRing, _accumulate, as_fraction, as_ratio, combine
from .partitions import LatticeKind, first_blocks, outer_blocks

DEFAULT_MAX_ORDER = 8
# most words a drawn cumulant table may hold; the default tables hold 1,020
MAX_CUMULANT_WORDS = 2**16
_ZERO = Fraction(0)  # the cumulant of every word that mixes families


# the 57 draws (a, b), a in -9..9 and b in {1, 2, 3}: _DRAWS[a + 9][b - 1] is (a/b, str(a/b))
_DRAWS = [[(Fraction(a, b), str(Fraction(a, b))) for b in (1, 2, 3)] for a in range(-9, 10)]


def _draw(rng: random.Random) -> tuple[Fraction, str]:
    return _DRAWS[rng.randint(-9, 9) + 9][rng.choice((1, 2, 3)) - 1]


def draw_fraction(rng: random.Random) -> Fraction:
    """a/b for a drawn from -9..9, then b from {1, 2, 3}."""
    return _draw(rng)[0]


def draw_text(rng: random.Random) -> str:
    """``str(draw_fraction(rng))``, from the same two draws, as a record writes it."""
    return _draw(rng)[1]


_KINDS = {int: "an integer", str: "a string", list: "a list", (dict, list): "an object or a list"}


def _field(data, key: str, kind, default=None):
    """``data[key]`` of a model record, which must be of ``kind`` and not a
    bool; ``default`` stands for an absent key, and without one it is an error."""
    if not isinstance(data, dict):
        raise TypeError(f"a model record must be an object, got {data!r:.40}")
    value = data.get(key, default)
    if value is None:
        raise ValueError(f"model field {key!r} is missing or null")
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"model field {key!r} must be {_KINDS[kind]}, got {value!r:.40}")
    return value


def _over_one_den(pairs) -> tuple[list[int], int]:
    """The integer pairs (p, q), q > 0, as numerators over their least common denominator."""
    pairs = list(pairs)
    den = lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


class _Recorded:
    """A model drawn as its record: ``random_data(...)`` draws the dict
    ``to_data`` writes, each capacity error raised before anything is drawn,
    and ``random(...)`` is ``from_data(random_data(...))``."""

    @classmethod
    def random(cls, *args, **kwargs):
        return cls.from_data(cls.random_data(*args, **kwargs))


def tabled(tag: str):
    """The one table protocol: ``compute(owner, key)`` kept in
    ``owner.phi_table`` under (tag, key).  A hit returns the kept value, a
    miss stores and returns the computed one, an exception stores nothing;
    no value is None."""
    def decorate(compute):
        @wraps(compute)
        def lookup(owner, key):
            table, entry = owner.phi_table, (tag, key)
            value = table.get(entry)
            if value is None:
                value = table[entry] = compute(owner, key)
            return value
        return lookup
    return decorate


class ProbabilityContext:
    """Interface the cumulant engine works against.

    Elements of A are opaque to the engine.  A context supplies ``unit``,
    ``psi``, ``phi_scalar`` and, when its elements have no ``*``, ``mul``;
    it may override ``psi_product`` and ``phi_scalar_product`` with a
    route that never forms the product.  Every element holds integer
    numerators ``terms`` over one ``den`` > 0 and builds its like with
    ``_like``, so every linear operation is one ``combine``.  ``phi``
    returns the C-value embedded back into A so the engine can keep
    multiplying; ``phi_scalar`` exposes the bare rational.

    Elements are immutable hashable values, so the engine keeps the values
    it computes on the context in ``phi_table``, through ``tabled`` (see
    the engine's module docstring for the tags).
    """

    kind: LatticeKind = LatticeKind.NONCROSSING

    @cached_property
    def phi_table(self) -> dict:
        return {}

    def unit(self):
        raise NotImplementedError

    def mul(self, x, y):
        return x * y

    def psi(self, x):
        raise NotImplementedError

    def psi_product(self, xs):
        """psi of the product of the factors ``xs``."""
        return self.psi(self.product(xs))

    def phi(self, x):
        return self.embed_scalar(self.phi_scalar(x))

    def phi_scalar(self, x) -> Fraction:
        raise NotImplementedError

    def phi_scalar_product(self, xs) -> Fraction:
        """phi_scalar of the product of the factors ``xs``."""
        return self.phi_scalar(self.product(xs))

    def combine(self, pairs):
        """The sum of c * x over the (int or Fraction c, element x) pairs, in
        one accumulation; the zero of the context when there are none."""
        pairs = list(pairs)
        return combine(pairs, pairs[0][1] if pairs else self.unit())

    def add(self, x, y):
        return self.combine(((1, x), (1, y)))

    def sub(self, x, y):
        return self.combine(((1, x), (-1, y)))

    def scale(self, c, x):
        return self.combine(((c, x),))

    def sum(self, xs):
        return self.combine((1, x) for x in xs)

    @cached_property
    def _one(self):
        """The unit, built once: elements are immutable."""
        return self.unit()

    def embed_scalar(self, c):
        """The int or Fraction ``c`` times the unit."""
        return self.embed_ratio(*c.as_integer_ratio())

    def embed_ratio(self, num: int, den: int):
        """num/den, for an integer ``den`` > 0, times the unit: its numerators scaled."""
        one = self._one
        return one._like({k: num * v for k, v in one.terms.items()}, den * one.den)

    def product(self, xs):
        """The product of the factors from the first on; ``unit()`` when there are none."""
        xs = iter(xs)
        first = next(xs, None)
        return self.unit() if first is None else reduce(self.mul, xs, first)

    def describe(self, x) -> str:
        return str(x)


def centered(ctx: ProbabilityContext, x):
    """x minus its scalar expectation phi(x)."""
    return ctx.sub(x, ctx.phi(x))


class LinearCombinationContext(ProbabilityContext):
    """Elements are ``LinearCombination`` values over basis keys.

    ``mul`` is shared; a subclass supplies ``key_product``, the product
    of two basis keys, which is ``None`` when it vanishes.
    """

    def key_product(self, k1, k2):
        raise NotImplementedError

    def mul(self, x, y):
        key_product, den = self.key_product, x.den * y.den
        return LinearCombination(*_accumulate([(c, den, y.terms, partial(key_product, k))
                                               for k, c in x.terms.items()]))


# ---------------------------------------------------------------------------
# classical: independent scalar variables with prescribed moments


class ClassicalSpec(_Recorded):
    """Independent scalar random variables given by moment sequences.

    ``moments[v][k-1]`` is E[v^k]; every sequence carries ``max_order``
    entries and any request beyond that raises CapacityError naming the
    variable, so degree overflows surface at the first bad monomial.  The
    spec keeps the sequences only as one integer table, each read from its
    record straight into integer pairs: E[v^e] = table[k][e] / table[k][0]
    for the k-th variable v, so a monomial's expectation is the product of
    one entry per variable over ``den``, the product of the table[k][0].  It
    keeps E[m] of each packed monomial m that ``_integrate`` meets, as a
    numerator over ``den``, in ``_moment_cache`` for as long as it lives; a
    monomial past ``max_order`` leaves no entry.
    """

    def __init__(self, moments: dict[str, tuple], max_order: int = DEFAULT_MAX_ORDER):
        self.max_order = int(max_order)
        self.variables = tuple(moments)
        self.ring = PolyRing(self.variables)
        self.table: list[tuple[int, ...]] = []
        self.den = 1
        for name, seq in moments.items():
            seq = [as_ratio(m) for m in seq]
            if len(seq) < self.max_order:
                raise CapacityError(
                    f"variable {name!r} has {len(seq)} moments, needs {self.max_order}"
                )
            nums, d = _over_one_den(seq[: self.max_order])
            self.table.append((d, *nums))
            self.den *= d
        self._moment_cache: dict[int, int] = {}

    @staticmethod
    def random_data(variables, max_order: int = DEFAULT_MAX_ORDER, seed: int = 0) -> dict:
        if max_order > MAX_EXPONENT:
            # no monomial reaches a moment beyond the largest exponent
            raise CapacityError(f"max_order={max_order} exceeds MAX_EXPONENT={MAX_EXPONENT}, "
                                f"the largest exponent a monomial can carry")
        rng = random.Random(seed)
        return {"max_order": max_order, "variables": [
            {"name": v, "moments": [draw_text(rng) for _ in range(max_order)]} for v in variables]}

    def moment(self, name: str, k: int) -> Fraction:
        if k == 0:
            return Fraction(1)
        if k > self.max_order:
            raise CapacityError(
                f"moment of order {k} of variable {name!r} exceeds max_order={self.max_order}"
            )
        row = self.table[self.ring.index(name)]
        return Fraction(row[k], row[0])

    def to_data(self) -> dict:
        return {
            "max_order": self.max_order,
            "variables": [
                {"name": v, "moments": [str(Fraction(m, row[0])) for m in row[1:]]}
                for v, row in zip(self.variables, self.table)
            ],
        }

    @classmethod
    def from_data(cls, data: dict) -> ClassicalSpec:
        rows = _field(data, "variables", list)
        moments = {_field(row, "name", str): tuple(_field(row, "moments", list)) for row in rows}
        if len(moments) < len(rows):
            raise ValueError("model field 'variables' repeats a name")
        return cls(moments, _field(data, "max_order", int, DEFAULT_MAX_ORDER))


def _integrate(spec: ClassicalSpec, terms: dict[int, int], kept_mask: int, shift: int = 0) -> dict[int, int]:
    """The numerators over ``spec.den`` of the expectation of ``terms``: each
    packed key's ``kept_mask`` bits stay, and the monomial of the rest,
    shifted right by ``shift``, takes its ``_table_moment`` once per spec,
    kept in the spec's ``_moment_cache``."""
    moments = spec._moment_cache
    out: dict[int, int] = {}
    try:
        for k, c in terms.items():
            kept = k & kept_mask
            m = (k ^ kept) >> shift
            moment = moments.get(m)
            if moment is None:
                moment = moments[m] = _table_moment(spec, m)
            out[kept] = out.get(kept, 0) + c * moment
    except IndexError:
        raise _beyond_capacity(spec, [(k & ~kept_mask) >> shift for k in terms]) from None
    return out


def _table_moment(spec: ClassicalSpec, m: int) -> int:
    """E[m] over ``spec.den`` for the packed monomial ``m``: the product of one
    moment-table entry per variable; IndexError past ``max_order``."""
    return prod(map(getitem, spec.table, m.to_bytes(len(spec.variables), "big")))


def classical_expect(spec: ClassicalSpec, p: Poly) -> Fraction:
    """E[p] for independent variables: factor each monomial over moments."""
    return Fraction(_integrate(spec, p.terms, 0).get(0, 0), p.den * spec.den)


def classical_conditional_expect(spec: ClassicalSpec, p: Poly, keep: frozenset[str]) -> Poly:
    """E[p | keep]: integrate out every variable outside ``keep``."""
    return p._like(_integrate(spec, p.terms, spec.ring.mask(keep)), p.den * spec.den)


def _beyond_capacity(spec: ClassicalSpec, monomials) -> CapacityError:
    """The error ``spec.moment`` raises for the first exponent of the
    integrated ``monomials`` beyond ``max_order``, in their order and then
    variable order."""
    try:
        for m in monomials:
            for name, e in zip(spec.variables, spec.ring.exponents(m)):
                spec.moment(name, e)
    except CapacityError as exc:
        return exc
    raise AssertionError("no exponent is beyond max_order")


class ClassicalContext(ProbabilityContext):
    """Polynomials in independent variables; psi conditions on ``keep``."""

    kind = LatticeKind.FULL

    def __init__(self, spec: ClassicalSpec, keep: frozenset[str] = frozenset()):
        unknown = set(keep) - set(spec.variables)
        if unknown:
            raise ValueError(f"keep names unknown variables {sorted(unknown)}")
        self.spec = spec
        self.keep = frozenset(keep)

    def unit(self):
        return self.spec.ring.one

    def psi(self, x):
        return classical_conditional_expect(self.spec, x, self.keep)

    def phi_scalar(self, x):
        return classical_expect(self.spec, x)


# ---------------------------------------------------------------------------
# matrix model: d x d matrices of independent scalar entries


MAX_DIMENSION = 11  # from d = 12 on, the entries (1, 11) and (11, 1) of g would both be g_111


def _matrix_dimension(d) -> int:
    d = int(d)
    if d < 1:
        raise ValueError(f"matrix dimension must be at least 1, got {d}")
    if d > MAX_DIMENSION:
        raise CapacityError(f"matrix dimension {d} exceeds MAX_DIMENSION={MAX_DIMENSION}, "
                            f"the largest at which the entry names <generator>_<i><j> stay distinct")
    return d


class MatrixModel(_Recorded):
    """Generators are d x d matrices whose entries are independent variables.

    psi takes entrywise (conditional-on-nothing) expectation, landing in
    the constant matrices B = M_d(Q); phi is the normalized trace of psi.
    The entry variables of generator g are named ``g_ij`` (0-based), and d
    is at most ``MAX_DIMENSION``, checked before anything is drawn.
    """

    def __init__(self, spec: ClassicalSpec, dimension: int, generator_names: tuple[str, ...]):
        self.spec = spec
        self.d = _matrix_dimension(dimension)
        self.generator_names = tuple(generator_names)
        if len(set(self.generator_names)) < len(self.generator_names):
            raise ValueError(f"model field 'generators' repeats a name: {list(self.generator_names)}")
        self.ring = spec.ring
        self.generators: dict[str, Matrix] = {}
        for g in self.generator_names:
            rows = []
            for i in range(self.d):
                rows.append([self.ring.var(f"{g}_{i}{j}") for j in range(self.d)])
            self.generators[g] = Matrix(rows)
        self._spot_check()

    @staticmethod
    def random_data(generator_count: int = 2, dimension: int = 2, max_order: int = DEFAULT_MAX_ORDER,
                    seed: int = 0) -> dict:
        names = [f"g{k}" for k in range(1, generator_count + 1)]
        d = _matrix_dimension(dimension)
        variables = [f"{g}_{i}{j}" for g in names for i in range(d) for j in range(d)]
        return {**ClassicalSpec.random_data(variables, max_order, seed), "dimension": d, "generators": names}

    def _spot_check(self) -> None:
        # unitality and bimodularity certify the tower before any use
        ctx = MatrixContext(self)
        one = ctx.unit()
        if ctx.psi(one) != one or ctx.phi_scalar(one) != 1:
            raise AssertionError("expectations are not unital")
        if self.generator_names:
            x = self.generators[self.generator_names[0]]
            b = self.embed_b(Matrix([[Fraction(k + 2 * l + 1) for l in range(self.d)] for k in range(self.d)]))
            lhs = ctx.psi(ctx.mul(b, ctx.mul(x, b)))
            rhs = ctx.mul(b, ctx.mul(ctx.psi(x), b))
            if lhs != rhs:
                raise AssertionError("psi is not bimodular")

    def embed_b(self, m: Matrix) -> Matrix:
        """Rational data matrix, entered into the polynomial algebra."""
        if m.dimension != self.d or m.ring is not None:
            raise DimensionMismatchError(f"expected a rational {self.d}x{self.d} matrix")
        return Matrix.from_numerators(self.ring, self.d, m.terms, m.den)

    def to_data(self) -> dict:
        data = self.spec.to_data()
        data["dimension"] = self.d
        data["generators"] = list(self.generator_names)
        return data

    @classmethod
    def from_data(cls, data: dict) -> MatrixModel:
        return cls(ClassicalSpec.from_data(data), _field(data, "dimension", int),
                   tuple(_field(data, "generators", list)))


def matrix_psi(model: MatrixModel, x: Matrix) -> Matrix:
    """Entrywise expectation, psi = id (x) E: one pass over the packed keys,
    landing on their monomial-0 keys, the constant matrices B = M_d(Q)."""
    return Matrix.from_numerators(model.ring, model.d, _integrate(model.spec, x.terms, 0xFF, 8),
                                  x.den * model.spec.den)


def matrix_phi(model: MatrixModel, x: Matrix) -> Fraction:
    """Normalized trace of psi, read off its diagonal keys i << 4 | i."""
    p = matrix_psi(model, x)
    return Fraction(sum(p.terms.get(i << 4 | i, 0) for i in range(model.d)), p.den * model.d)


def _paired_moments(spec: ClassicalSpec, left: Matrix, right: Matrix, trace: bool) -> dict[int, int]:
    """The numerators over ``left.den * right.den * spec.den`` of psi(left *
    right), keyed i << 4 | j, or with ``trace`` of its diagonal alone, the
    product never formed: each term of ``left`` in (i, l) with monomial m1
    meets the terms of ``right`` in (l, j), and each pair adds the spec's
    table moment of m1 + m2, kept in its ``_moment_cache``, to (i, j).
    IndexError past ``max_order``, guard bits included, as ``_table_moment``."""
    moments, d = spec._moment_cache, left.dimension
    get = moments.get
    cells: list[dict[int, list]] = [{}, {}]  # each factor's (monomial, numerator) terms by (row, column)
    for cell, x in zip(cells, (left, right)):
        for k, c in x.terms.items():
            cell.setdefault(k & 0xFF, []).append((k >> 8, c))
    lefts, rights = cells
    out: dict[int, int] = {}
    for il, left_terms in lefts.items():
        i, l = il >> 4, il & 0xF
        for j in (i,) if trace else range(d):
            right_terms = rights.get(l << 4 | j)
            if right_terms is None:
                continue
            s = 0
            for m1, c1 in left_terms:
                t = 0
                for m2, c2 in right_terms:
                    moment = get(m1 + m2)
                    if moment is None:
                        moment = moments[m1 + m2] = _table_moment(spec, m1 + m2)
                    t += c2 * moment
                s += c1 * t
            if s:
                out[i << 4 | j] = out.get(i << 4 | j, 0) + s
    return out


class MatrixContext(ProbabilityContext):
    """``psi_product`` and ``phi_scalar_product`` form the two half products
    of the factors, split at the middle, and integrate their term pairs
    straight into psi (``_paired_moments``); past ``max_order`` or on an
    exponent overflow they take the literal route, psi of the product,
    which raises its error."""

    def __init__(self, model: MatrixModel):
        self.model = model

    def unit(self):
        d = self.model.d
        return Matrix.from_numerators(self.model.ring, d, {i << 4 | i: 1 for i in range(d)}, 1)

    def psi(self, x):
        return matrix_psi(self.model, x)

    def phi_scalar(self, x):
        return matrix_phi(self.model, x)

    def _halves(self, xs, trace: bool):
        """(numerators, den) of psi of the product of ``xs``, or of its trace,
        from the two half products; None for fewer than two factors, or
        where the literal route must raise."""
        if len(xs) < 2:
            return None
        h = len(xs) // 2
        try:
            left, right = self.product(xs[:h]), self.product(xs[h:])
            left._check(right)
            spec = self.model.spec
            return _paired_moments(spec, left, right, trace), left.den * right.den * spec.den
        except (CapacityError, DimensionMismatchError, IndexError):
            return None

    def psi_product(self, xs):
        xs = list(xs)
        paired = self._halves(xs, False)
        if paired is None:
            return self.psi(self.product(xs))
        return Matrix.from_numerators(self.model.ring, self.model.d, *paired)

    def phi_scalar_product(self, xs):
        xs = list(xs)
        paired = self._halves(xs, True)
        if paired is None:
            return self.phi_scalar(self.product(xs))
        terms, den = paired
        return Fraction(sum(terms.values()), den * self.model.d)


# ---------------------------------------------------------------------------
# scalar free families


class ScalarFreeSpec(_Recorded):
    """Free families of scalar variables with prescribed joint cumulants.

    ``families`` maps a family name to its generator names; ``cumulants``
    assigns a rational to every word (tuple of generators, all from one
    family) of length 1..max_order.  Moments of arbitrary mixed words then
    come from the noncrossing moment-cumulant sum, with mixed blocks
    contributing zero.
    """

    def __init__(
        self,
        families: dict[str, tuple[str, ...]],
        cumulants: dict[tuple[str, ...], Fraction],
        max_order: int = DEFAULT_MAX_ORDER,
    ):
        self.max_order = int(max_order)
        self.families = {f: tuple(gens) for f, gens in families.items()}
        self.family_of: dict[str, str] = {}
        for f, gens in self.families.items():
            for g in gens:
                if g in self.family_of:
                    raise ValueError(f"generator {g!r} is listed twice")
                self.family_of[g] = f
        pairs = {tuple(w): as_ratio(c) for w, c in cumulants.items()}
        family_of, counts = self.family_of, dict.fromkeys(self.families, 0)
        for word in pairs:
            f = family_of.get(word[0]) if word else None
            if f is None or len(word) > self.max_order or any(family_of.get(g) != f for g in word):
                raise ValueError(f"cumulant word {' '.join(word)!r} is not a word of one family's "
                                 f"generators of length 1..{self.max_order}")
            counts[f] += 1
        for f, gens in self.families.items():
            # the words are distinct, so a family is complete when it has them all
            if counts[f] != sum(len(gens) ** k for k in range(1, self.max_order + 1)):
                for k in range(1, self.max_order + 1):
                    for word in itertools.product(gens, repeat=k):
                        if word not in pairs:
                            raise ValueError(f"missing cumulant for word {word}")
        # the one cumulant table: integer numerators over their common denominator
        nums, self.kappa_den = _over_one_den(pairs.values())
        self.kappa_num = dict(zip(pairs, nums))
        # the free moments and Boolean cumulants met, through ``tabled``; m(()) = 1
        self.phi_table: dict = {("free-moment", ()): (1, 1)}

    @staticmethod
    def random_data(families: dict[str, tuple[str, ...]], max_order: int = DEFAULT_MAX_ORDER, seed: int = 0) -> dict:
        words = 0
        for k in range(1, max_order + 1):
            words += sum(len(gens) ** k for gens in families.values())
            if words > MAX_CUMULANT_WORDS:
                raise CapacityError(f"a cumulant table to max_order={max_order} exceeds MAX_CUMULANT_WORDS="
                                    f"{MAX_CUMULANT_WORDS}: orders 1..{k} alone hold {words} words")
        rng = random.Random(seed)
        return {"max_order": max_order, "families": [
            {"name": f, "generators": list(families[f]),
             "cumulants": {" ".join(word): draw_text(rng) for k in range(1, max_order + 1)
                           for word in itertools.product(families[f], repeat=k)}}
            for f in sorted(families)]}

    def cumulant(self, word: tuple[str, ...]) -> Fraction:
        if len(word) > self.max_order:
            raise CapacityError(
                f"cumulant of order {len(word)} exceeds max_order={self.max_order}"
            )
        fams = {self.family_of[g] for g in word}
        if len(fams) > 1:
            return _ZERO
        return Fraction(self.kappa_num[word], self.kappa_den)

    def to_data(self) -> dict:
        rows = []
        for f in sorted(self.families):
            gens = self.families[f]
            words = {}
            for k in range(1, self.max_order + 1):
                for word in itertools.product(gens, repeat=k):
                    words[" ".join(word)] = str(self.cumulant(word))
            rows.append({"name": f, "generators": list(gens), "cumulants": words})
        return {"max_order": self.max_order, "families": rows}

    @classmethod
    def from_data(cls, data: dict) -> ScalarFreeSpec:
        max_order = _field(data, "max_order", int, DEFAULT_MAX_ORDER)
        families = {}
        cumulants = {}  # the values as recorded, which the constructor reads
        for row in _field(data, "families", list):
            name = _field(row, "name", str)
            table = _field(row, "cumulants", (dict, list))
            if isinstance(table, dict):
                families[name] = tuple(_field(row, "generators", list))
                for key, val in table.items():  # each letter interned: one str per generator for every word
                    cumulants[tuple(map(sys.intern, key.split()))] = val
            else:
                # compact form: one generator named like its family,
                # cumulants[k-1] is the order-k cumulant
                families[name] = (name,)
                if len(table) < max_order:
                    raise CapacityError(
                        f"family {name!r} lists {len(table)} cumulants, needs {max_order}"
                    )
                for k in range(1, max_order + 1):
                    cumulants[(name,) * k] = table[k - 1]
        return cls(families, cumulants, max_order)


def free_moment(spec: ScalarFreeSpec, word: tuple[str, ...]) -> Fraction:
    """The noncrossing moment-cumulant sum, split at the Boolean cumulants
    (Lehner, Free cumulants and enumeration of connected partitions,
    European J. Combin. 23, 2002): m(w) is the sum over 1 <= l <= n of
    b(w[:l]) m(w[l:]), where b(w) sums, over the blocks V holding the first
    and the last letter, kappa(w_V) times the moments of the gaps V leaves
    (Nica-Speicher, Lectures on the Combinatorics of Free Probability,
    Lecture 11).  Blocks mixing families contribute zero, which is exactly
    freeness of the families with respect to this functional, so only the
    blocks of letters from the first letter's family are enumerated, and b
    of a word whose ends lie in two families is zero.
    """
    return Fraction(*_free_moment(spec, tuple(word)))


@tabled("free-moment")
def _free_moment(spec: ScalarFreeSpec, word: tuple[str, ...]) -> tuple[int, int]:
    """``free_moment`` as an integer pair in lowest terms, kept in the spec's table."""
    n = len(word)
    if n > spec.max_order:
        raise CapacityError(f"moment of order {n} exceeds max_order={spec.max_order}")
    num, den = 0, 1  # the sum, kept as integers until it is complete
    for l in range(1, n + 1):
        bn, bd = _free_boolean(spec, word[:l])
        if bn:
            m_num, m_den = _free_moment(spec, word[l:])
            num, den = num * bd * m_den + bn * m_num * den, den * bd * m_den
    g = gcd(num, den)
    return num // g, den // g


@tabled("free-boolean")
def _free_boolean(spec: ScalarFreeSpec, word: tuple[str, ...]) -> tuple[int, int]:
    """b(word) of ``free_moment``, an integer pair in lowest terms kept in the spec's table."""
    family_of, kappas = spec.family_of, spec.kappa_num
    own = [i for i, g in enumerate(word) if family_of[g] == family_of[word[0]]]
    num, den = 0, 1
    if own[-1] == len(word) - 1:
        for picks in outer_blocks(len(own)):
            block = tuple(map(own.__getitem__, picks))
            vn, vd = kappas[tuple(map(word.__getitem__, block))], spec.kappa_den
            for a, b in zip(block, block[1:]):
                if not vn:
                    break
                if b > a + 1:
                    m_num, m_den = _free_moment(spec, word[a + 1 : b])
                    vn, vd = vn * m_num, vd * m_den
            if vn:
                num, den = num * vd + vn * den, den * vd
    g = gcd(num, den)
    return num // g, den // g


def _moment_sum(spec: ScalarFreeSpec, coefficients) -> tuple[int, int]:
    """(num, den) of the sum over the (word, int c) ``coefficients`` of c
    times the word's free moment, one moment per word of nonzero c."""
    num, common = 0, 1
    for word, c in coefficients:
        if c:
            m_num, m_den = _free_moment(spec, word)
            lcd = lcm(common, m_den)
            num, common = num * (lcd // common) + c * m_num * (lcd // m_den), lcd
    return num, common


class ScalarFreeContext(LinearCombinationContext):
    """Linear combinations of words in the free generators; B = C."""

    def __init__(self, spec: ScalarFreeSpec):
        self.spec = spec

    def gen(self, name: str) -> LinearCombination:
        if name not in self.spec.family_of:
            raise ValueError(f"unknown generator {name!r}")
        return LinearCombination({(name,): 1})

    def unit(self):
        return LinearCombination({(): 1})

    def key_product(self, w1, w2):
        return w1 + w2

    def phi_scalar(self, x):
        num, den = _moment_sum(self.spec, x.terms.items())
        return Fraction(num, den * x.den)

    def phi_scalar_product(self, xs):
        """phi of the product of the factors ``xs``, never formed: the integer
        coefficients are folded in one factor at a time, equal words merged,
        and each word of nonzero coefficient takes one free moment."""
        coefficients, den = {(): 1}, 1
        for x in xs:
            folded: dict = {}
            for w, c in coefficients.items():
                for v, d in x.terms.items():
                    folded[w + v] = folded.get(w + v, 0) + c * d
            coefficients, den = folded, den * x.den
        num, common = _moment_sum(self.spec, coefficients.items())
        return Fraction(num, common * den)

    psi = ProbabilityContext.phi

    def describe(self, x) -> str:
        return " + ".join(f"{c}*{'.'.join(w) or '1'}" for w, c in sorted(x.items())) or "0"


# ---------------------------------------------------------------------------
# factorization model: a free family inside d x d matrices


class FactorizationModel(_Recorded):
    """A scalar free family N sitting inside A = N * M_d(Q) (amalgamated
    over the scalars), with psi: A -> B = M_d(Q) *defined* by the
    factorization rule: a cumulant block contributes its scalar family
    cumulant times the traces of the coefficients swallowed inside it.

    Elements are linear combinations of basis words
    ``E_{u0} X_{g1} E_{u1} ... X_{gk} E_{uk}`` stored as
    ``(gens, units) -> coeff`` with ``len(units) == len(gens) + 1`` and
    each unit a pair (i, j).
    """

    def __init__(self, scalars: ScalarFreeSpec, dimension: int = 2):
        if len(scalars.families) != 1:
            raise ValueError("factorization model wants exactly one scalar family")
        self.scalars = scalars
        self.d = int(dimension)
        if self.d < 1:
            raise ValueError(f"matrix dimension must be at least 1, got {self.d}")
        # c of each basis word met so far, see WordContext._psi_word
        self._psi_cache: dict = {}

    @staticmethod
    def random_data(generator_count: int = 1, dimension: int = 2, max_order: int = DEFAULT_MAX_ORDER,
                    seed: int = 0) -> dict:
        names = tuple(f"x{k}" for k in range(1, generator_count + 1))
        return {**ScalarFreeSpec.random_data({"n": names}, max_order, seed), "dimension": int(dimension)}

    def to_data(self) -> dict:
        data = self.scalars.to_data()
        data["dimension"] = self.d
        return data

    @classmethod
    def from_data(cls, data: dict) -> FactorizationModel:
        return cls(ScalarFreeSpec.from_data(data), _field(data, "dimension", int))


@cache
def _identity(d: int) -> tuple[int, ...]:
    return tuple(int(i == j) for i in range(d) for j in range(d))


def _matmul(d: int, a, b):
    """The product of two flat d x d integer matrices, where None is the unit."""
    if a is None or b is None:
        return b if a is None else a
    return tuple(sum(a[i + k] * b[k * d + j] for k in range(d)) for i in range(0, d * d, d) for j in range(d))


def _primitive(entries: list[int], d: int) -> tuple[int, tuple | None]:
    """(g, m) with g * m == entries, m a flat d x d matrix whose entries have
    gcd 1, or None when m is the unit."""
    g = gcd(*entries)
    m = tuple(c // g for c in entries)
    return g, None if m == _identity(d) else m


def _rank_one_terms(entries: dict, d: int) -> list:
    """The nonzero integer array ``entries`` {(u0, u1): c} over the d^2 x
    d^2 index pairs as terms (num, den, left, right), num/den times the
    outer product of two ``_primitive`` matrices: each pivot p = entries[u0,
    u1] splits off the outer product of its column and row over p, and
    leaves p * entries less that product, the integer array of the rest
    (fraction-free elimination), one term per unit of the rank."""
    terms, den = [], 1
    while entries:
        (p, q), pivot = next(iter(entries.items()))
        column, row = [0] * (d * d), [0] * (d * d)
        for (u0, u1), c in entries.items():
            if u1 == q:
                column[u0] = c
            if u0 == p:
                row[u1] = c
        den *= pivot
        (g_left, left), (g_right, right) = _primitive(column, d), _primitive(row, d)
        num = g_left * g_right if den > 0 else -g_left * g_right
        g = gcd(num, den)
        terms.append((num // g, abs(den) // g, left, right))
        rest = {key: pivot * c for key, c in entries.items()}
        for u0, a in enumerate(column):
            for u1, b in enumerate(row if a else ()):
                if b:
                    rest[u0, u1] = rest.get((u0, u1), 0) - a * b
        entries = {key: c for key, c in rest.items() if c}
    return terms


class WordContext(LinearCombinationContext):
    """Linear combinations of a ``FactorizationModel``'s basis words; ``_factors`` keeps
    the simple tensors of each element ``psi_product`` meets, apart from ``phi_table``."""

    def __init__(self, model: FactorizationModel):
        self.model = model
        self.d = model.d
        self._factors: dict = {}

    def unit(self):
        return LinearCombination(dict.fromkeys((((), ((i, i),)) for i in range(self.d)), 1))

    def gen(self, name: str):
        """The family element X_name = sum_{i,j} E_ii X E_jj."""
        if name not in self.model.scalars.family_of:
            raise ValueError(f"unknown generator {name!r}")
        return LinearCombination(dict.fromkeys((((name,), ((i, i), (j, j))) for i in range(self.d)
                                                for j in range(self.d)), 1))

    def embed_b(self, m: Matrix):
        if m.dimension != self.d:
            raise DimensionMismatchError(f"expected {self.d}x{self.d} matrix")
        return LinearCombination.collect((((), ((i, j),)), as_fraction(c))
                                         for i, row in enumerate(m.entries) for j, c in enumerate(row))

    def key_product(self, k1, k2):
        (g1, u1), (g2, u2) = k1, k2
        (a, b), (c, d) = u1[-1], u2[0]
        if b != c:
            return None
        return (g1 + g2, u1[:-1] + ((a, d),) + u2[1:])

    def _psi_word(self, gens, units) -> tuple[int, int]:
        """The c, as (numerator, denominator) in lowest terms, with psi(E_{u0}
        X_{g1} E_{u1} ... X_{gk} E_{uk}) = c E_{(u0.i, uk.j)}: psi is
        B-bimodular (Speicher, Mem. AMS 627, 1998).  By the first-block
        recursion (Nica-Speicher, Lecture 11), c is the sum over the blocks V
        holding the first generator of kappa(g_V), times the trace c_gap
        [u_{a+1}.i == u_b.j] / d of psi of each gap V swallows, times c_tail
        [u0.j == u_{last+1}.i] for the word after V.  c depends on neither u0.i
        nor uk.j, so the model keeps it under (gens, u0.j, inner units, uk.i),
        as the scalar spec keeps its free moments, for as long as the model lives."""
        if not gens:
            return 1, 1
        key = (gens, units[0][1], units[1:-1], units[-1][0])
        memo = self.model._psi_cache
        entry = memo.get(key)
        if entry is not None:
            return entry
        scalars, num, den = self.model.scalars, 0, 1
        for block in first_blocks(len(gens)):
            last = block[-1]
            if units[last + 1][0] != key[1]:
                continue
            word = tuple(gens[a] for a in block)
            vn, vd = scalars.kappa_num.get(word), scalars.kappa_den
            if vn is None:  # beyond max_order: raises CapacityError
                scalars.cumulant(word)
            for a, b in zip(block, block[1:]):
                if not vn or units[a + 1][0] != units[b][1]:
                    vn = 0
                    break
                t_num, t_den = self._psi_word(gens[a + 1 : b], units[a + 1 : b + 1])
                vn, vd = vn * t_num, vd * t_den * self.d
            if vn:
                t_num, t_den = self._psi_word(gens[last + 1 :], units[last + 1 :])
                num, den = num * vd * t_den + vn * t_num * den, den * vd * t_den
        g = gcd(num, den)
        memo[key] = entry = (num // g, den // g)
        return entry

    def psi(self, x):
        words = [(*self._psi_word(gens, u), c, u[0][0], u[-1][1]) for (gens, u), c in x.terms.items()]
        return LinearCombination(*_accumulate([(num * c, den * x.den, {((), ((i, j),)): 1}, None)
                                               for num, den, c, i, j in words]))

    def psi_product(self, xs):
        """psi of the product of the factors ``xs``, summed over the simple
        tensors b0 X_{g1} b1 ... X_{gk} bk the product expands into, each
        factor given by ``_simple_terms``, once per element; a factor with a
        term of two or more generators takes the flat route, psi(product(xs))."""
        xs, known = list(xs), self._factors
        factors = [known[x] if x in known else known.setdefault(x, self._simple_terms(x)) for x in xs]
        if None in factors:
            return self.psi(self.product(xs))
        d = self.d
        tensors = [(1, 1, (), (None,))]  # (num, den, gens, mats): mats[-1] still takes factors on the right
        for pieces in factors:
            grown = []
            for num, den, gens, mats in tensors:
                for p_num, p_den, g, (b, *rest) in pieces:
                    last = _matmul(d, mats[-1], b)
                    if last is None or any(last):
                        grown.append((num * p_num, den * p_den, gens + g, (*mats[:-1], last, *rest)))
            tensors = grown
        dk = d * self.model.scalars.kappa_den
        keys = [((), ((i, j),)) for i in range(d) for j in range(d)]
        return LinearCombination(*_accumulate([
            (num, den * dk ** len(gens), dict(zip(keys, self._psi_simple(gens, mats))), None)
            for num, den, gens, mats in tensors]))

    def _simple_terms(self, x) -> list | None:
        """x as a sum of simple tensors (num, den, gens, mats), each num/den
        times mats[0] X_g mats[1] for gens (g,), or the matrix mats[0] for
        gens (); a matrix is a flat tuple of integers, or None for the unit.
        The terms of one generator factor by integer elimination of their
        coefficients over (u0, u1), rank 1 for gen and gen.b; None if a term
        holds two or more generators."""
        d, groups = self.d, {}
        for (gens, units), c in x.terms.items():
            if len(gens) > 1:
                return None
            groups.setdefault(gens, {})[tuple(i * d + j for i, j in units)] = c
        pieces = []
        for gens, entries in groups.items():
            if gens:
                pieces += [(num, den * x.den, gens, (left, right))
                           for num, den, left, right in _rank_one_terms(entries, d)]
            else:
                b = [0] * (d * d)
                for (u,), c in entries.items():
                    b[u] = c
                g, b = _primitive(b, d)
                pieces.append((g, x.den, gens, (b,)))
        return pieces

    def _psi_simple(self, gens, mats) -> tuple[int, ...]:
        """The numerators over (d K)^k, K the spec's ``kappa_den``, of psi(b0
        X_{g1} b1 ... X_{gk} bk) for the k ``gens`` and k + 1 ``mats``, as a
        flat matrix.  F(s, t) = psi(b_s X_{g_s+1} ... X_{g_t} b_t) is b_s
        times the sum over the blocks V holding generator s + 1 of kappa(g_V),
        the normalized traces of F of the gaps V swallows, and F(last of V,
        t): the factorization rule (Nica-Shlyakhtenko-Speicher) on the
        first-block recursion, as ``_psi_word`` takes it per basis word.  The
        scalar c(s, e) of the blocks from s + 1 to e does not depend on t."""
        d, k, scalars = self.d, len(gens), self.model.scalars
        kappa_den, kappas = scalars.kappa_den, scalars.kappa_num
        identity = _identity(d)
        num, trace = {}, {}  # F(s, t) over (d K)^(t - s), and its trace
        for s in range(k, -1, -1):
            c = [0] * (k + 1)
            stack = [(s + 1, gens[s:s + 1], d)] if s < k else []
            while stack:  # blocks V as (last, g_V, d K^(|V| - 1) times the traces of its gaps)
                last, word, weight = stack.pop()
                kappa = kappas.get(word)
                if kappa is None:  # beyond max_order: raises CapacityError
                    scalars.cumulant(word)
                c[last] += kappa * weight
                stack += [(nxt, word + gens[nxt - 1:nxt], weight * kappa_den * trace[last, nxt - 1])
                          for nxt in range(last + 1, k + 1) if trace[last, nxt - 1]]
            for t in range(s, k + 1) if s else (k,):
                if t == s:
                    value = mats[s] or identity
                else:
                    total = [0] * (d * d)
                    for e in range(s + 1, t + 1):
                        if c[e]:
                            total = [a + c[e] * b for a, b in zip(total, num[e, t])]
                    value = _matmul(d, mats[s], tuple(total))
                num[s, t], trace[s, t] = value, sum(value[::d + 1])
        return num[0, k]

    def phi_scalar(self, x):
        return self._normalized_trace(self.psi(x))

    def phi_scalar_product(self, xs):
        return self._normalized_trace(self.psi_product(xs))

    def _normalized_trace(self, b) -> Fraction:
        """phi of the B element b: its normalized trace."""
        return Fraction(sum(c for (_, ((i, j),)), c in b.terms.items() if i == j), b.den * self.d)

    def describe(self, x) -> str:
        words = (f"{c}*E{u[0][0]}{u[0][1]}" + "".join(f".{g}.E{i}{j}" for g, (i, j) in zip(gens, u[1:]))
                 for (gens, u), c in sorted(x.items()))
        return " + ".join(words) or "0"


# ---------------------------------------------------------------------------
# tensor model: free family tensored with a commutative d-point algebra


MAX_POINTS = 32  # check tensor-factorization at n = 4 takes 0.6 s with 32 points, 11 s with 300


class TensorModel(_Recorded):
    """A (x) B with A spanned by words of one free family and B = Q^p.

    The conditional expectation onto B integrates out the word factor via
    the free moment; the state on B is a weighted point evaluation with
    rational weights summing to one, kept as the integer numerators
    ``weight_num`` over their common denominator ``weight_den``.
    """

    def __init__(self, scalars: ScalarFreeSpec, weights: tuple[Fraction, ...]):
        if len(scalars.families) != 1 or not scalars.family_of:
            raise ValueError("a tensor model wants one scalar family, with a generator")
        if len(weights) > MAX_POINTS:
            raise CapacityError(f"a tensor model of {len(weights)} points exceeds MAX_POINTS={MAX_POINTS}")
        self.scalars = scalars
        nums, self.weight_den = _over_one_den(map(as_ratio, weights))
        self.weight_num = tuple(nums)
        if sum(self.weight_num) != self.weight_den:
            raise ValueError("state weights must sum to 1")
        self.points = len(self.weight_num)

    @staticmethod
    def random_data(points: int = 2, max_order: int = DEFAULT_MAX_ORDER, seed: int = 0) -> dict:
        if points < 1:
            raise ValueError(f"a tensor model needs at least one point, got {points}")
        if points > MAX_POINTS:
            raise CapacityError(f"a tensor model of {points} points exceeds MAX_POINTS={MAX_POINTS}")
        rng = random.Random(seed)
        data = ScalarFreeSpec.random_data({"a": ("a",)}, max_order, seed)
        while True:
            raw = [draw_fraction(rng) for _ in range(points)]
            if sum(raw) != 0:
                break
        total = sum(raw)
        return {**data, "weights": [str(w / total) for w in raw]}

    def state(self, vec: tuple[Fraction, ...]) -> Fraction:
        """The weighted point evaluation of the vector ``vec``."""
        return sum((w * v for w, v in zip(self.weight_num, vec)), Fraction(0)) / self.weight_den

    def to_data(self) -> dict:
        data = self.scalars.to_data()
        data["weights"] = [str(Fraction(w, self.weight_den)) for w in self.weight_num]
        return data

    @classmethod
    def from_data(cls, data: dict) -> TensorModel:
        return cls(ScalarFreeSpec.from_data(data), tuple(_field(data, "weights", list)))


class TensorContext(LinearCombinationContext):
    """Basis keys are (word, point k): the word times the k-th unit
    vector of the point algebra."""

    def __init__(self, model: TensorModel):
        self.model = model
        self.points = model.points

    def unit(self):
        return LinearCombination(dict.fromkeys((((), k) for k in range(self.points)), 1))

    def simple(self, word: tuple[str, ...], vec) -> LinearCombination:
        """The simple tensor word (x) vec."""
        return LinearCombination.collect(((tuple(word), k), v) for k, v in enumerate(map(as_fraction, vec)))

    def key_product(self, k1, k2):
        (w1, p1), (w2, p2) = k1, k2
        return (w1 + w2, p1) if p1 == p2 else None

    def _vector(self, x, word=()) -> tuple[Fraction, ...]:
        return tuple(Fraction(x.terms.get((word, k), 0), x.den) for k in range(self.points))

    def psi(self, x):
        """Integrate out the word factor: sum of free moments times vectors."""
        moments = [(*_free_moment(self.model.scalars, w), k, c) for (w, k), c in x.terms.items()]
        return LinearCombination(*_accumulate([(num, den * x.den, {((), k): c}, None)
                                               for num, den, k, c in moments]))

    def phi_scalar(self, x):
        """The state of psi(x), summed in integers: each term (word, k) adds
        weight k times its coefficient times the word's free moment."""
        weights, model = self.model.weight_num, self.model
        num, den = _moment_sum(model.scalars, ((w, weights[k] * c) for (w, k), c in x.terms.items()))
        return Fraction(num, den * x.den * model.weight_den)

    def describe(self, x) -> str:
        return " + ".join(f"{'.'.join(w) or '1'}(x)({', '.join(str(a) for a in self._vector(x, w))})"
                          for w in sorted({w for w, _ in x.terms})) or "0"
