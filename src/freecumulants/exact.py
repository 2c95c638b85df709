"""Exact scalar, polynomial and matrix arithmetic.

Everything in this package computes over the rationals, so ``Fraction``
is the scalar type and every equality test is exact.  Polynomials live in
a ring with a fixed, ordered variable universe declared up front; asking
for a variable outside the universe is an error, which keeps silently
growing monomial keys from masking model bugs.  A matrix is one flat
element of M_d(Q) (x) Q[x] over one ring, or of M_d(Q) as data (drawn
coefficients, spec values).

A polynomial is stored as integers.  Each monomial is packed into one
int with one byte per variable, variable 0 in the most significant byte:
the low seven bits hold the exponent (at most ``MAX_EXPONENT`` = 127) and
the top bit is a guard.  Multiplying two monomials is one int add, and a
set guard bit afterwards is an exponent overflow, reported as a
``CapacityError`` naming the variable before it can carry into the next
field.  Packed ints sort like their exponent tuples.  Coefficients are
integer numerators over one positive denominator per polynomial, kept in
lowest terms; ``Fraction`` values appear only at the boundary
(``items``, ``constant_value``, ``to_data``, ``str``).  A
``LinearCombination`` of basis keys is stored the same way, and each of
its operations sums integers over one denominator (``_accumulate``).  So
is a ``Matrix``: one numerator dict for all its entries, keyed by the
monomial packed above the row and column of its basis element E_ij.  Each
of the three builds an element of its own shape from numerators over a
denominator (``_like``), so ``combine`` forms any rational linear
combination of them in one accumulation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .errors import CapacityError, DimensionMismatchError

Scalar = Union[int, Fraction]

MAX_EXPONENT = 0x7F
_GUARD = 0x80


def as_fraction(value: int | str | Fraction) -> Fraction:
    """Coerce ints, Fractions and strings like '-3/2' to Fraction.  The form
    ``str(Fraction)`` writes, ``-?[0-9]+(/[0-9]+)?``, is read with ``int``;
    any other string goes to ``Fraction``, whose errors it keeps."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
            if isinstance(value, str):
                num, slash, den = value.partition("/")
                if value.isascii() and (num[1:] if num[:1] == "-" else num).isdigit() and (not slash or den.isdigit()):
                    return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


class PolyRing:
    """A polynomial ring over Q with a fixed tuple of named variables.

    It packs exponent tuples into ints, one byte per variable with
    variable 0 in the most significant byte, and ``guard`` has the top bit
    of every byte set.
    """

    __slots__ = ("variables", "_index", "guard")

    def __init__(self, variables: Sequence[str]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable in {variables}")
        self.variables = variables
        self._index = {v: k for k, v in enumerate(variables)}
        self.guard = int.from_bytes(bytes([_GUARD]) * len(variables), "big")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyRing) and self.variables == other.variables

    def __hash__(self) -> int:
        return hash(self.variables)

    def __repr__(self) -> str:
        return f"PolyRing({self.variables!r})"

    @property
    def one(self) -> Poly:
        return _make(self, {0: 1}, 1)

    def const(self, c: Scalar) -> Poly:
        if not isinstance(c, (int, Fraction)):
            c = as_fraction(c)
        return _make(self, {0: c.numerator}, c.denominator)

    def var(self, name: str) -> Poly:
        return _make(self, {1 << 8 * (len(self.variables) - 1 - self.index(name)): 1}, 1)

    def index(self, name: str) -> int:
        if name not in self._index:
            raise ValueError(f"variable {name!r} not in ring universe {self.variables}")
        return self._index[name]

    def pack(self, exponents: Sequence[int]) -> int:
        """The packed monomial of an exponent tuple."""
        if len(exponents) != len(self.variables):
            raise ValueError(f"{len(exponents)} exponents for the {len(self.variables)} "
                             f"variables {self.variables}")
        for name, e in zip(self.variables, exponents):
            if e < 0:
                raise ValueError(f"negative exponent {e} of variable {name!r}")
            if e > MAX_EXPONENT:
                raise CapacityError(f"exponent {e} of variable {name!r} exceeds {MAX_EXPONENT}")
        return int.from_bytes(bytes(exponents), "big")

    def exponents(self, monomial: int) -> bytes:
        """The exponents of a packed monomial, one byte per variable."""
        return monomial.to_bytes(len(self.variables), "big")

    def mask(self, names: Iterable[str]) -> int:
        """The exponent fields of the named variables, as a bit mask."""
        names = set(names)
        return int.from_bytes(bytes(0xFF if v in names else 0 for v in self.variables), "big")

    def overflow(self, monomial: int) -> CapacityError:
        """The error for a product whose guard bits are set."""
        for name, byte in zip(self.variables, self.exponents(monomial)):
            if byte & _GUARD:
                return CapacityError(f"exponent of variable {name!r} exceeds {MAX_EXPONENT}")
        raise AssertionError("no guard bit is set")


class Poly:
    """Sparse multivariate polynomial with integer coefficients over one
    denominator.

    ``terms`` maps each packed monomial (see ``PolyRing``) to its nonzero
    integer numerator and ``den`` > 0 is the common denominator, so the
    coefficient of a monomial is ``Fraction(terms[m], den)``.  The form is
    canonical: no zero numerator and ``gcd(den, *numerators) == 1`` (the
    zero polynomial has ``den == 1``), so equal polynomials have equal
    fields.  The constructor takes ``{exponent tuple: rational}``; an
    exponent above ``MAX_EXPONENT``, given or reached by a product, raises
    ``CapacityError``.  Nothing changes a Poly after it is built, so its
    hash is computed on first use and kept.
    """

    __slots__ = ("ring", "terms", "den", "_hash")

    def __init__(self, ring: PolyRing, terms: dict[tuple[int, ...], Scalar]):
        self.ring = ring
        _in_lowest_terms(self, *_accumulate(
            [(*as_fraction(c).as_integer_ratio(), {ring.pack(m): 1}, None) for m, c in terms.items()]))

    def _like(self, terms: dict[int, int], den: int) -> Poly:
        """The polynomial of this ring with the numerators ``terms`` over ``den``
        > 0, with zero numerators dropped and the fraction reduced."""
        return _make(self.ring, terms, den)

    def _coerce(self, other) -> Poly | None:
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise DimensionMismatchError("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __add__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return combine(((1, self), (1, o)), self)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return combine(((-1, self),), self)

    def __sub__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return combine(((1, self), (-1, o)), self)

    def __rsub__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return combine(((1, o), (-1, self)), self)

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            return combine(((other, self),), self)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring, guard, out = self.ring, self.ring.guard, {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = m1 + m2
                if m & guard:
                    raise ring.overflow(m)
                if m in out:
                    out[m] += c1 * c2
                else:
                    out[m] = c1 * c2
        return _make(ring, out, self.den * o.den)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms and self.den == other.den and self.ring == other.ring
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.terms
            return self.den == other.denominator and self.terms == {0: other.numerator}
        return False

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            # a constant equals its scalar, so it must hash like it
            self._hash = hash(self.constant_value() if self.is_constant
                              else (self.ring, self.den, tuple(sorted(self.terms.items()))))
            return self._hash

    @property
    def is_constant(self) -> bool:
        return not self.terms.keys() - {0}

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return Fraction(self.terms.get(0, 0), self.den)

    def items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """(exponent tuple, Fraction coefficient) of every term."""
        exponents = self.ring.exponents
        return [(tuple(exponents(m)), Fraction(c, self.den)) for m, c in self.terms.items()]

    def to_data(self) -> dict[str, str]:
        """JSON-friendly form: 'u^2 v^1' -> coefficient string."""
        out = {}
        for mono, c in sorted(self.items()):
            key = " ".join(f"{v}^{e}" for v, e in zip(self.ring.variables, mono) if e)
            out[key or "1"] = str(c)
        return out

    @staticmethod
    def from_data(ring: PolyRing, data: dict[str, str]) -> Poly:
        terms: dict[tuple[int, ...], Fraction] = {}
        for key, val in data.items():
            exps = [0] * len(ring.variables)
            if key != "1":
                for tok in key.split():
                    v, e = tok.split("^")
                    exps[ring.index(v)] = int(e)
            terms[tuple(exps)] = as_fraction(val)
        return Poly(ring, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.items(), reverse=True):
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.ring.variables, m)
                if e
            ]
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def _in_lowest_terms(obj, terms: dict, den: int):
    """``obj`` given the numerators ``terms`` over ``den`` > 0 in lowest terms."""
    if 0 in terms.values():
        terms = {k: c for k, c in terms.items() if c}
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    obj.terms, obj.den = terms, den
    return obj


def _make(ring: PolyRing, terms: dict[int, int], den: int) -> Poly:
    """The Poly of numerators ``terms`` over ``den`` > 0, in canonical form."""
    p = object.__new__(Poly)
    p.ring = ring
    return _in_lowest_terms(p, terms, den)


def _accumulate(parts) -> tuple[dict, int]:
    """The sum over the sequence of parts (num, den, terms, key_map) of num /
    den times the numerator dict ``terms``, its keys sent through ``key_map``
    (``None`` keeps them; a key mapped to ``None`` drops), over one den."""
    den = lcm(*(part[1] for part in parts))
    out: dict = {}
    get = out.get
    for num, d, terms, key_map in parts:
        f = num * (den // d)
        for k, c in zip(terms if key_map is None else map(key_map, terms), terms.values()):
            if k is not None:
                out[k] = get(k, 0) + f * c
    return out, den


def combine(pairs, like):
    """The sum of c * x over the (int or Fraction c, element x) pairs in one
    accumulation, built by ``like._like``: the x are Polys, Matrices or
    LinearCombinations of ``like``'s ring and dimension."""
    return like._like(*_accumulate([(c.numerator, c.denominator * x.den, x.terms, None) for c, x in pairs]))


class LinearCombination:
    """A sum of basis keys with rational coefficients, stored like a Poly:
    ``terms`` maps each key to its nonzero integer numerator over ``den`` > 0,
    in lowest terms; ``items()`` gives ``Fraction`` coefficients.  Nothing
    changes one after it is built, so its hash is kept on first use."""

    __slots__ = ("terms", "den", "_hash")

    def __init__(self, terms: dict, den: int = 1):
        _in_lowest_terms(self, terms, den)

    def _like(self, terms: dict, den: int) -> LinearCombination:
        return LinearCombination(terms, den)

    @classmethod
    def collect(cls, terms) -> LinearCombination:
        """The sum of the (key, rational) pairs ``terms``, whose keys may repeat."""
        return cls(*_accumulate([(c.numerator, c.denominator, {k: 1}, None) for k, c in terms]))

    def items(self) -> list[tuple[object, Fraction]]:
        return [(k, Fraction(c, self.den)) for k, c in self.terms.items()]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinearCombination) and self.den == other.den and self.terms == other.terms

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.den, frozenset(self.terms.items())))
            return self._hash


class Matrix:
    """Square d x d matrix of Polys of one ring, or of Fractions as data
    (``ring`` None), stored flat in the basis E_ij (x) monomial: ``terms``
    maps each packed key ``monomial << 8 | i << 4 | j`` to its nonzero integer
    numerator over one ``den`` > 0, in lowest terms as for a Poly, so the
    dimension is at most 16.  A product runs over the left factor's terms and
    the right factor's row j, grouped once and kept; the keys add, and the
    guard bits catch an exponent overflow.  ``entries`` rebuilds the rows.
    Nothing changes a Matrix after it is built."""

    __slots__ = ("ring", "dimension", "terms", "den", "_rows", "_hash")

    def __init__(self, entries: Iterable[Iterable]):
        rows = [list(r) for r in entries]
        d = len(rows)
        if d > 16:
            raise CapacityError(f"matrix dimension {d} exceeds 16, the most the packed keys hold")
        self.ring = next((a.ring for r in rows for a in r if isinstance(a, Poly)), None)
        self.dimension, parts = d, []
        for i, r in enumerate(rows):
            if len(r) != d:
                raise DimensionMismatchError(f"row of length {len(r)} in {d}x{d} matrix")
            for j, a in enumerate(r):
                if not isinstance(a, Poly):
                    a = as_fraction(a)
                    a = _make(self.ring, {0: a.numerator}, a.denominator)
                elif a.ring != self.ring:
                    raise DimensionMismatchError("polynomials from different rings")
                parts.append((1, a.den, {m << 8 | i << 4 | j: c for m, c in a.terms.items()}, None))
        _in_lowest_terms(self, *_accumulate(parts))

    @staticmethod
    def from_numerators(ring: PolyRing | None, d: int, terms: dict[int, int], den: int) -> Matrix:
        """The d x d matrix of the numerators ``terms`` over ``den`` > 0, keyed
        as above, with zero numerators dropped and the fraction reduced."""
        m = object.__new__(Matrix)
        m.ring, m.dimension = ring, d
        return _in_lowest_terms(m, terms, den)

    def _like(self, terms: dict[int, int], den: int) -> Matrix:
        return Matrix.from_numerators(self.ring, self.dimension, terms, den)

    @property
    def entries(self) -> tuple[tuple, ...]:
        cells = [[{} for _ in range(self.dimension)] for _ in range(self.dimension)]
        for k, c in self.terms.items():
            cells[k >> 4 & 0xF][k & 0xF][k >> 8] = c
        if self.ring is None:
            return tuple(tuple(Fraction(t.get(0, 0), self.den) for t in row) for row in cells)
        return tuple(tuple(_make(self.ring, t, self.den) for t in row) for row in cells)

    def _check(self, other: Matrix) -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(f"matrices of dimension {self.dimension} and {other.dimension}")
        if self.ring is not other.ring and self.ring != other.ring:
            raise DimensionMismatchError("matrices over different rings")

    def _by_row(self) -> list[list[tuple[int, int]]]:
        """The terms grouped by their row i, each key with its row field cleared."""
        try:
            return self._rows
        except AttributeError:
            rows = self._rows = [[] for _ in range(self.dimension)]
            for k, c in self.terms.items():
                rows[k >> 4 & 0xF].append((k & ~0xF0, c))
            return rows

    def __add__(self, other: Matrix) -> Matrix:
        self._check(other)
        return combine(((1, self), (1, other)), self)

    def __sub__(self, other: Matrix) -> Matrix:
        self._check(other)
        return combine(((1, self), (-1, other)), self)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        self._check(other)
        ring, rows, out = self.ring, other._by_row(), {}
        guard = 0 if ring is None else ring.guard << 8
        for k1, c1 in self.terms.items():
            base = k1 & ~0xF
            for k2, c2 in rows[k1 & 0xF]:
                k = base + k2
                if k & guard:
                    raise ring.overflow(k >> 8)
                if k in out:
                    out[k] += c1 * c2
                else:
                    out[k] = c1 * c2
        return Matrix.from_numerators(ring, self.dimension, out, self.den * other.den)

    def scale(self, c: Scalar) -> Matrix:
        if c == 1:
            return self
        return combine(((c, self),), self)

    __rmul__ = scale

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix) and self.den == other.den and self.terms == other.terms
                and self.dimension == other.dimension and self.ring == other.ring)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.dimension, self.den, frozenset(self.terms.items())))
            return self._hash

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(a) for a in r) for r in self.entries) + "]"

    __repr__ = __str__
