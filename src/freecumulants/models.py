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

All randomness is drawn from ``random.Random(seed)`` with numerators in
[-9, 9] and denominators in {1, 2, 3}; drawn values travel in ``to_data``
payloads so any run can be reproduced from its report alone.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm, prod
from operator import getitem

from .errors import CapacityError, DimensionMismatchError
from .exact import Matrix, Poly, PolyRing, as_fraction, scalar_embed
from .partitions import LatticeKind

DEFAULT_MAX_ORDER = 8
# most words a drawn cumulant table may hold; the default tables hold 1,020
MAX_CUMULANT_WORDS = 2**16


def draw_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))


class ProbabilityContext:
    """Interface the cumulant engine works against.

    Elements of A are opaque to the engine; a context supplies the ring
    operations, the two expectations, and membership predicates for the
    subalgebras.  ``phi`` returns the C-value embedded back into A so the
    engine can keep multiplying; ``phi_scalar`` exposes the bare rational.
    """

    kind: LatticeKind = LatticeKind.NONCROSSING
    commutative: bool = False

    def unit(self):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def scale(self, c: Fraction, x):
        raise NotImplementedError

    def psi(self, x):
        raise NotImplementedError

    def phi(self, x):
        raise NotImplementedError

    def phi_scalar(self, x) -> Fraction:
        raise NotImplementedError

    def in_b(self, x) -> bool:
        raise NotImplementedError

    def in_c(self, x) -> bool:
        raise NotImplementedError

    def neg(self, x):
        return self.scale(Fraction(-1), x)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def embed_scalar(self, c) -> object:
        return self.scale(as_fraction(c), self.unit())

    def product(self, xs) -> object:
        acc = self.unit()
        for x in xs:
            acc = self.mul(acc, x)
        return acc

    def sum(self, xs) -> object:
        """Left-to-right sum starting from the first term; zero when empty."""
        xs = iter(xs)
        total = next(xs, None)
        if total is None:
            return self.scale(Fraction(0), self.unit())
        for x in xs:
            total = self.add(total, x)
        return total

    def describe(self, x) -> str:
        return str(x)


def centered(ctx: ProbabilityContext, x, level: str = "C"):
    """x minus its expectation; level 'B' uses psi, level 'C' uses phi."""
    if level == "B":
        return ctx.sub(x, ctx.psi(x))
    if level == "C":
        return ctx.sub(x, ctx.phi(x))
    raise ValueError(f"level must be 'B' or 'C', got {level!r}")


class LinearCombinationContext(ProbabilityContext):
    """Elements are dicts from basis keys to nonzero rational coefficients.

    The ring operations are shared; a subclass supplies ``key_product``,
    the product of two basis keys, which is ``None`` when it vanishes.
    """

    def key_product(self, k1, k2):
        raise NotImplementedError

    def mul(self, x, y):
        key_product = self.key_product
        out: dict = {}
        for k1, c1 in x.items():
            for k2, c2 in y.items():
                k = key_product(k1, k2)
                if k is not None:
                    out[k] = out.get(k, Fraction(0)) + c1 * c2
        return {k: c for k, c in out.items() if c != 0}

    def add(self, x, y):
        out = dict(x)
        for k, c in y.items():
            out[k] = out.get(k, Fraction(0)) + c
        return {k: c for k, c in out.items() if c != 0}

    def scale(self, c, x):
        c = as_fraction(c)
        return {k: c * v for k, v in x.items() if c * v != 0}


# ---------------------------------------------------------------------------
# classical: independent scalar variables with prescribed moments


class ClassicalSpec:
    """Independent scalar random variables given by moment sequences.

    ``moments[v][k-1]`` is E[v^k]; every sequence carries ``max_order``
    entries and any request beyond that raises CapacityError naming the
    variable, so degree overflows surface at the first bad monomial.
    """

    def __init__(self, moments: dict[str, tuple], max_order: int = DEFAULT_MAX_ORDER):
        self.max_order = int(max_order)
        self.moments: dict[str, tuple[Fraction, ...]] = {}
        for name, seq in moments.items():
            seq = tuple(as_fraction(m) for m in seq)
            if len(seq) < self.max_order:
                raise CapacityError(
                    f"variable {name!r} has {len(seq)} moments, needs {self.max_order}"
                )
            self.moments[name] = seq[: self.max_order]
        self.variables = tuple(self.moments)
        self.ring = PolyRing(self.variables)
        # integer moment table: E[v^e] = table[k][e] / table[k][0] for the
        # k-th variable v, so a monomial's expectation is the product of one
        # entry per variable over ``den``, the product of the table[k][0]
        self.table: list[tuple[int, ...]] = []
        self.den = 1
        for seq in self.moments.values():
            d = lcm(*(m.denominator for m in seq))
            self.table.append((d, *(m.numerator * (d // m.denominator) for m in seq)))
            self.den *= d

    @classmethod
    def random(
        cls, variables, max_order: int = DEFAULT_MAX_ORDER, seed: int = 0
    ) -> ClassicalSpec:
        rng = random.Random(seed)
        return cls(
            {v: tuple(draw_fraction(rng) for _ in range(max_order)) for v in variables},
            max_order,
        )

    def moment(self, name: str, k: int) -> Fraction:
        if k == 0:
            return Fraction(1)
        if k > self.max_order:
            raise CapacityError(
                f"moment of order {k} of variable {name!r} exceeds max_order={self.max_order}"
            )
        return self.moments[name][k - 1]

    def to_data(self) -> dict:
        return {
            "max_order": self.max_order,
            "variables": [
                {"name": v, "moments": [str(m) for m in self.moments[v]]}
                for v in self.variables
            ],
        }

    @classmethod
    def from_data(cls, data: dict) -> ClassicalSpec:
        return cls(
            {row["name"]: tuple(row["moments"]) for row in data["variables"]},
            data.get("max_order", DEFAULT_MAX_ORDER),
        )


def classical_expect(spec: ClassicalSpec, p: Poly) -> Fraction:
    """E[p] for independent variables: factor each monomial over moments."""
    table, n = spec.table, len(spec.variables)
    num = 0
    try:
        for m, c in p.terms.items():
            num += c * prod(map(getitem, table, m.to_bytes(n, "big")))
    except IndexError:
        raise _beyond_capacity(spec, p.terms, 0) from None
    return Fraction(num, p.den * spec.den)


def classical_conditional_expect(spec: ClassicalSpec, p: Poly, keep: frozenset[str]) -> Poly:
    """E[p | keep]: integrate out every variable outside ``keep``."""
    table, n = spec.table, len(spec.variables)
    kept_mask = spec.ring.mask(keep)
    out: dict[int, int] = {}
    try:
        for m, c in p.terms.items():
            kept = m & kept_mask
            total = out.get(kept, 0) + c * prod(map(getitem, table, (m ^ kept).to_bytes(n, "big")))
            if total:
                out[kept] = total
            else:
                out.pop(kept, None)
    except IndexError:
        raise _beyond_capacity(spec, p.terms, kept_mask) from None
    return Poly.from_numerators(spec.ring, out, p.den * spec.den)


def _beyond_capacity(spec: ClassicalSpec, terms, kept_mask: int) -> CapacityError:
    """The error ``spec.moment`` raises for the first integrated exponent
    beyond ``max_order``, in term order and then variable order."""
    try:
        for m in terms:
            for name, e in zip(spec.variables, spec.ring.exponents(m & ~kept_mask)):
                spec.moment(name, e)
    except CapacityError as exc:
        return exc
    raise AssertionError("no exponent is beyond max_order")


class ClassicalContext(ProbabilityContext):
    """Polynomials in independent variables; psi conditions on ``keep``."""

    kind = LatticeKind.FULL
    commutative = True

    def __init__(self, spec: ClassicalSpec, keep: frozenset[str] = frozenset()):
        unknown = set(keep) - set(spec.variables)
        if unknown:
            raise ValueError(f"keep names unknown variables {sorted(unknown)}")
        self.spec = spec
        self.keep = frozenset(keep)
        self._integrated = ~spec.ring.mask(self.keep)

    def unit(self):
        return self.spec.ring.one

    def mul(self, x, y):
        return x * y

    def add(self, x, y):
        return x + y

    def scale(self, c, x):
        return x * as_fraction(c)

    def psi(self, x):
        return classical_conditional_expect(self.spec, x, self.keep)

    def phi(self, x):
        return self.spec.ring.const(classical_expect(self.spec, x))

    def phi_scalar(self, x):
        return classical_expect(self.spec, x)

    def in_b(self, x):
        return not any(m & self._integrated for m in x.terms)

    def in_c(self, x):
        return x.is_constant


# ---------------------------------------------------------------------------
# matrix model: d x d matrices of independent scalar entries


class MatrixModel:
    """Generators are d x d matrices whose entries are independent variables.

    psi takes entrywise (conditional-on-nothing) expectation, landing in
    the constant matrices B = M_d(Q); phi is the normalized trace of psi.
    The entry variables of generator g are named ``g_ij`` (0-based).
    """

    def __init__(self, spec: ClassicalSpec, dimension: int, generator_names: tuple[str, ...]):
        self.spec = spec
        self.d = int(dimension)
        if self.d < 1:
            raise ValueError(f"matrix dimension must be at least 1, got {self.d}")
        self.generator_names = tuple(generator_names)
        self.ring = spec.ring
        self.generators: dict[str, Matrix] = {}
        for g in self.generator_names:
            rows = []
            for i in range(self.d):
                rows.append([self.ring.var(f"{g}_{i}{j}") for j in range(self.d)])
            self.generators[g] = Matrix(rows)
        self._spot_check()

    @classmethod
    def random(
        cls,
        generator_count: int = 2,
        dimension: int = 2,
        max_order: int = DEFAULT_MAX_ORDER,
        seed: int = 0,
    ) -> MatrixModel:
        names = tuple(f"g{k}" for k in range(1, generator_count + 1))
        variables = [f"{g}_{i}{j}" for g in names for i in range(dimension) for j in range(dimension)]
        spec = ClassicalSpec.random(variables, max_order, seed)
        return cls(spec, dimension, names)

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
        """Constant rational matrix, entered into the polynomial algebra."""
        if m.dimension != self.d:
            raise DimensionMismatchError(f"expected {self.d}x{self.d} matrix")
        return Matrix([[self.ring.const(a) for a in row] for row in m.entries])

    def to_data(self) -> dict:
        data = self.spec.to_data()
        data["dimension"] = self.d
        data["generators"] = list(self.generator_names)
        return data

    @classmethod
    def from_data(cls, data: dict) -> MatrixModel:
        return cls(ClassicalSpec.from_data(data), data["dimension"], tuple(data["generators"]))


def matrix_psi(model: MatrixModel, x: Matrix) -> Matrix:
    """Entrywise expectation, a constant matrix in B = M_d(Q)."""
    return Matrix(
        [[classical_expect(model.spec, a) for a in row] for row in x.entries]
    )


def matrix_phi(model: MatrixModel, x: Matrix) -> Fraction:
    """Normalized trace after entrywise expectation."""
    return matrix_psi(model, x).normalized_trace()


class MatrixContext(ProbabilityContext):
    kind = LatticeKind.NONCROSSING
    commutative = False

    def __init__(self, model: MatrixModel):
        self.model = model

    def unit(self):
        return Matrix.identity(self.model.d, self.model.ring.one)

    def mul(self, x, y):
        return x * y

    def add(self, x, y):
        return x + y

    def scale(self, c, x):
        return x.scale(as_fraction(c))

    def psi(self, x):
        return self.model.embed_b(matrix_psi(self.model, x))

    def phi(self, x):
        return scalar_embed(matrix_phi(self.model, x), self.model.d, self.model.ring.one)

    def phi_scalar(self, x):
        return matrix_phi(self.model, x)

    def in_b(self, x):
        return all(a.is_constant for row in x.entries for a in row)

    def in_c(self, x):
        return self.in_b(x) and x == self.phi(x)


# ---------------------------------------------------------------------------
# scalar free families


class ScalarFreeSpec:
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
                    raise ValueError(f"generator {g!r} appears in two families")
                self.family_of[g] = f
        self.cumulants = {tuple(w): as_fraction(c) for w, c in cumulants.items()}
        for f, gens in self.families.items():
            for k in range(1, self.max_order + 1):
                for word in itertools.product(gens, repeat=k):
                    if word not in self.cumulants:
                        raise ValueError(f"missing cumulant for word {word}")
        self._moment_cache: dict[tuple[str, ...], Fraction] = {(): Fraction(1)}

    @classmethod
    def random(
        cls,
        families: dict[str, tuple[str, ...]],
        max_order: int = DEFAULT_MAX_ORDER,
        seed: int = 0,
    ) -> ScalarFreeSpec:
        words = 0
        for k in range(1, max_order + 1):
            words += sum(len(gens) ** k for gens in families.values())
            if words > MAX_CUMULANT_WORDS:
                raise CapacityError(f"a cumulant table to max_order={max_order} exceeds MAX_CUMULANT_WORDS="
                                    f"{MAX_CUMULANT_WORDS}: orders 1..{k} alone hold {words} words")
        rng = random.Random(seed)
        cumulants = {}
        for f in sorted(families):
            for k in range(1, max_order + 1):
                for word in itertools.product(families[f], repeat=k):
                    cumulants[word] = draw_fraction(rng)
        return cls(families, cumulants, max_order)

    def cumulant(self, word: tuple[str, ...]) -> Fraction:
        if len(word) > self.max_order:
            raise CapacityError(
                f"cumulant of order {len(word)} exceeds max_order={self.max_order}"
            )
        fams = {self.family_of[g] for g in word}
        if len(fams) > 1:
            return Fraction(0)
        return self.cumulants[word]

    def to_data(self) -> dict:
        rows = []
        for f in sorted(self.families):
            gens = self.families[f]
            words = {}
            for k in range(1, self.max_order + 1):
                for word in itertools.product(gens, repeat=k):
                    words[" ".join(word)] = str(self.cumulants[word])
            rows.append({"name": f, "generators": list(gens), "cumulants": words})
        return {"max_order": self.max_order, "families": rows}

    @classmethod
    def from_data(cls, data: dict) -> ScalarFreeSpec:
        max_order = data.get("max_order", DEFAULT_MAX_ORDER)
        families = {}
        cumulants: dict[tuple[str, ...], Fraction] = {}
        for row in data["families"]:
            name = row["name"]
            table = row["cumulants"]
            if isinstance(table, dict):
                families[name] = tuple(row["generators"])
                for key, val in table.items():
                    cumulants[tuple(key.split())] = as_fraction(val)
            else:
                # compact form: one generator named like its family,
                # cumulants[k-1] is the order-k cumulant
                families[name] = (name,)
                if len(table) < max_order:
                    raise CapacityError(
                        f"family {name!r} lists {len(table)} cumulants, needs {max_order}"
                    )
                for k in range(1, max_order + 1):
                    cumulants[(name,) * k] = as_fraction(table[k - 1])
        return cls(families, cumulants, max_order)


def first_blocks(i: int, j: int):
    """i together with each subset of i+1..j-1, as sorted tuples."""
    rest = range(i + 1, j)
    return ((i, *subset) for r in range(len(rest) + 1) for subset in itertools.combinations(rest, r))


def free_moment(spec: ScalarFreeSpec, word: tuple[str, ...]) -> Fraction:
    """The noncrossing moment-cumulant sum by its first-block recursion
    (Nica-Speicher, Lectures on the Combinatorics of Free Probability,
    Lecture 11): the sum, over the blocks V holding the first letter, of
    kappa(w_V) times the moments of the gaps V leaves, the tail after V
    included.  Blocks mixing families contribute zero, which is exactly
    freeness of the families with respect to this functional.
    """
    word = tuple(word)
    if len(word) > spec.max_order:
        raise CapacityError(f"moment of order {len(word)} exceeds max_order={spec.max_order}")
    cached = spec._moment_cache.get(word)
    if cached is not None:
        return cached
    total = Fraction(0)
    for block in first_blocks(0, len(word)):
        value = spec.cumulant(tuple(word[i] for i in block))
        for a, b in zip(block, block[1:] + (len(word),)):
            if not value:
                break
            value *= free_moment(spec, word[a + 1 : b])
        total += value
    spec._moment_cache[word] = total
    return total


class ScalarFreeContext(LinearCombinationContext):
    """Linear combinations of words in the free generators; B = C."""

    kind = LatticeKind.NONCROSSING
    commutative = False

    def __init__(self, spec: ScalarFreeSpec):
        self.spec = spec

    def gen(self, name: str) -> dict:
        if name not in self.spec.family_of:
            raise ValueError(f"unknown generator {name!r}")
        return {(name,): Fraction(1)}

    def unit(self):
        return {(): Fraction(1)}

    def key_product(self, w1, w2):
        return w1 + w2

    def phi_scalar(self, x):
        return sum((c * free_moment(self.spec, w) for w, c in x.items()), Fraction(0))

    def phi(self, x):
        return self.embed_scalar(self.phi_scalar(x))

    psi = phi

    def in_c(self, x):
        return set(x) <= {()}

    in_b = in_c

    def describe(self, x) -> str:
        if not x:
            return "0"
        parts = [f"{c}*{'.'.join(w) or '1'}" for w, c in sorted(x.items())]
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# factorization model: a free family inside d x d matrices


class FactorizationModel:
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

    @classmethod
    def random(
        cls,
        generator_count: int = 1,
        dimension: int = 2,
        max_order: int = DEFAULT_MAX_ORDER,
        seed: int = 0,
    ) -> FactorizationModel:
        names = tuple(f"x{k}" for k in range(1, generator_count + 1))
        return cls(ScalarFreeSpec.random({"n": names}, max_order, seed), dimension)

    def to_data(self) -> dict:
        data = self.scalars.to_data()
        data["dimension"] = self.d
        return data

    @classmethod
    def from_data(cls, data: dict) -> FactorizationModel:
        return cls(ScalarFreeSpec.from_data(data), data["dimension"])


class WordContext(LinearCombinationContext):
    kind = LatticeKind.NONCROSSING
    commutative = False

    def __init__(self, model: FactorizationModel):
        self.model = model
        self.d = model.d

    def unit(self):
        return {((), ((i, i),)): Fraction(1) for i in range(self.d)}

    def gen(self, name: str):
        """The family element X_name = sum_{i,j} E_ii X E_jj."""
        if name not in self.model.scalars.family_of:
            raise ValueError(f"unknown generator {name!r}")
        return {
            ((name,), ((i, i), (j, j))): Fraction(1)
            for i in range(self.d)
            for j in range(self.d)
        }

    def embed_b(self, m: Matrix):
        if m.dimension != self.d:
            raise DimensionMismatchError(f"expected {self.d}x{self.d} matrix")
        out = {}
        for i in range(self.d):
            for j in range(self.d):
                c = m.entries[i][j]
                if c != 0:
                    out[((), ((i, j),))] = as_fraction(c)
        return out

    def key_product(self, k1, k2):
        (g1, u1), (g2, u2) = k1, k2
        (a, b), (c, d) = u1[-1], u2[0]
        if b != c:
            return None
        return (g1 + g2, u1[:-1] + ((a, d),) + u2[1:])

    def _trace(self, b) -> Fraction:
        """Normalized trace of an element of B."""
        return sum((c for (_, ((i, j),)), c in b.items() if i == j), Fraction(0)) / self.d

    def _psi_word(self, gens, units, memo: dict) -> dict:
        """psi of the basis word E_{u0} X_{g1} E_{u1} ... X_{gk} E_{uk} by the
        first-block recursion (Nica-Speicher, Lecture 11): the sum, over the
        blocks V holding the first generator, of kappa(g_V) times the trace
        of psi of each gap V swallows, times E_{u0} psi(the word after V),
        by bimodularity.  ``memo`` maps sub-words to their psi."""
        key = (gens, units)
        if not gens:
            return {key: Fraction(1)}
        if key in memo:
            return memo[key]
        out: dict = {}
        for block in first_blocks(0, len(gens)):
            scalar = self.model.scalars.cumulant(tuple(gens[a] for a in block))
            for a, b in zip(block, block[1:]):
                if not scalar:
                    break
                scalar *= self._trace(self._psi_word(gens[a + 1 : b], units[a + 1 : b + 1], memo))
            if not scalar:
                continue
            t = block[-1] + 1
            for k, c in self._psi_word(gens[t:], units[t:], memo).items():
                fused = self.key_product(((), units[:1]), k)
                if fused is not None:
                    out[fused] = out.get(fused, Fraction(0)) + scalar * c
        memo[key] = out = {k: c for k, c in out.items() if c != 0}
        return out

    def psi(self, x):
        memo: dict = {}
        out: dict = {}
        for (gens, units), c in x.items():
            for key, v in self._psi_word(gens, units, memo).items():
                out[key] = out.get(key, Fraction(0)) + c * v
        return {key: v for key, v in out.items() if v != 0}

    def phi_scalar(self, x):
        return self._trace(self.psi(x))

    def phi(self, x):
        return self.scale(self.phi_scalar(x), self.unit())

    def in_b(self, x):
        return all(not gens for gens, _ in x)

    def in_c(self, x):
        return x == self.phi(x)

    def describe(self, x) -> str:
        if not x:
            return "0"
        parts = []
        for (gens, units), c in sorted(x.items()):
            word = []
            for k, u in enumerate(units):
                word.append(f"E{u[0]}{u[1]}")
                if k < len(gens):
                    word.append(gens[k])
            parts.append(f"{c}*" + ".".join(word))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# tensor model: free family tensored with a commutative d-point algebra


class TensorModel:
    """A (x) B with A spanned by words of one free family and B = Q^p.

    The conditional expectation onto B integrates out the word factor via
    the free moment; the state on B is a weighted point evaluation with
    rational weights summing to one.
    """

    def __init__(self, scalars: ScalarFreeSpec, weights: tuple[Fraction, ...]):
        self.scalars = scalars
        self.weights = tuple(as_fraction(w) for w in weights)
        if sum(self.weights) != 1:
            raise ValueError("state weights must sum to 1")
        self.points = len(self.weights)

    @classmethod
    def random(
        cls,
        points: int = 2,
        max_order: int = DEFAULT_MAX_ORDER,
        seed: int = 0,
    ) -> TensorModel:
        if points < 1:
            raise ValueError(f"a tensor model needs at least one point, got {points}")
        rng = random.Random(seed)
        spec = ScalarFreeSpec.random({"a": ("a",)}, max_order, seed)
        while True:
            raw = [draw_fraction(rng) for _ in range(points)]
            if sum(raw) != 0:
                break
        total = sum(raw)
        return cls(spec, tuple(w / total for w in raw))

    def state(self, vec: tuple[Fraction, ...]) -> Fraction:
        return sum((w * v for w, v in zip(self.weights, vec)), Fraction(0))

    def to_data(self) -> dict:
        data = self.scalars.to_data()
        data["weights"] = [str(w) for w in self.weights]
        return data

    @classmethod
    def from_data(cls, data: dict) -> TensorModel:
        return cls(ScalarFreeSpec.from_data(data), tuple(data["weights"]))


class TensorContext(LinearCombinationContext):
    """Basis keys are (word, point k): the word times the k-th unit
    vector of the point algebra."""

    kind = LatticeKind.NONCROSSING
    commutative = False

    def __init__(self, model: TensorModel):
        self.model = model
        self.points = model.points

    def unit(self):
        return {((), k): Fraction(1) for k in range(self.points)}

    def simple(self, word: tuple[str, ...], vec) -> dict:
        """The simple tensor word (x) vec."""
        return {(tuple(word), k): v for k, v in enumerate(map(as_fraction, vec)) if v != 0}

    def key_product(self, k1, k2):
        (w1, p1), (w2, p2) = k1, k2
        return (w1 + w2, p1) if p1 == p2 else None

    def _vector(self, x, word=()) -> tuple[Fraction, ...]:
        return tuple(x.get((word, k), Fraction(0)) for k in range(self.points))

    def psi(self, x):
        """Integrate out the word factor: sum of free moments times vectors."""
        out: dict = {}
        for (w, k), c in x.items():
            key = ((), k)
            out[key] = out.get(key, Fraction(0)) + free_moment(self.model.scalars, w) * c
        return {key: c for key, c in out.items() if c != 0}

    def phi_scalar(self, x):
        return self.model.state(self._vector(self.psi(x)))

    def phi(self, x):
        return self.scale(self.phi_scalar(x), self.unit())

    def in_b(self, x):
        return all(not w for w, _ in x)

    def in_c(self, x):
        return self.in_b(x) and len(set(self._vector(x))) == 1

    def describe(self, x) -> str:
        if not x:
            return "0"
        parts = [
            f"{'.'.join(w) or '1'}(x)({', '.join(str(a) for a in self._vector(x, w))})"
            for w in sorted({w for w, _ in x})
        ]
        return " + ".join(parts)
