"""Exact scalar, polynomial and matrix arithmetic.

Everything in this package computes over the rationals, so ``Fraction``
is the scalar type and every equality test is exact.  Polynomials live in
a ring with a fixed, ordered variable universe declared up front; asking
for a variable outside the universe is an error, which keeps silently
growing monomial keys from masking model bugs.  Matrices are small dense
squares over any commutative ring of entries (Fractions or Polys here).

A polynomial is stored as integers.  Each monomial is packed into one
int with one byte per variable, variable 0 in the most significant byte:
the low seven bits hold the exponent (at most ``MAX_EXPONENT`` = 127) and
the top bit is a guard.  Multiplying two monomials is one int add, and a
set guard bit afterwards is an exponent overflow, reported as a
``CapacityError`` naming the variable before it can carry into the next
field.  Packed ints sort like their exponent tuples.  Coefficients are
integer numerators over one positive denominator per polynomial, kept in
lowest terms; ``Fraction`` values appear only at the boundary
(``items``, ``constant_value``, ``to_data``, ``str``).
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
    """Coerce ints, Fractions and strings like '-3/2' to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
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
    def zero(self) -> Poly:
        return _make(self, {}, 1)

    @property
    def one(self) -> Poly:
        return _make(self, {0: 1}, 1)

    def const(self, c: Scalar) -> Poly:
        if not isinstance(c, (int, Fraction)):
            c = as_fraction(c)
        if c == 0:
            return _make(self, {}, 1)
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
    ``CapacityError``.
    """

    __slots__ = ("ring", "terms", "den")

    def __init__(self, ring: PolyRing, terms: dict[tuple[int, ...], Scalar]):
        coeffs = {ring.pack(m): as_fraction(c) for m, c in terms.items()}
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.ring = ring
        self.terms = {m: c.numerator * (den // c.denominator) for m, c in coeffs.items() if c}
        self.den = den if self.terms else 1

    @staticmethod
    def from_numerators(ring: PolyRing, terms: dict[int, int], den: int) -> Poly:
        """The polynomial sum(terms[m] * m) / den over packed monomials, with
        zero numerators dropped and the fraction reduced; ``den`` > 0."""
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {m: c // g for m, c in terms.items()}
        return _make(ring, terms, den)

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
        return _combine(self, o, 1)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return _make(self.ring, {m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, -1)

    def __rsub__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(o, self, -1)

    def __mul__(self, other) -> Poly:
        if isinstance(other, Poly):
            ring = self.ring
            if other.ring is not ring and other.ring != ring:
                raise DimensionMismatchError("polynomials from different rings")
            guard = ring.guard
            b = other.terms
            out: dict[int, int] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in b.items():
                    m = m1 + m2
                    if m & guard:
                        raise ring.overflow(m)
                    if m in out:
                        out[m] += c1 * c2
                    else:
                        out[m] = c1 * c2
            return Poly.from_numerators(ring, out, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            if not num:
                return _make(self.ring, {}, 1)
            return Poly.from_numerators(self.ring, {m: c * num for m, c in self.terms.items()},
                                        self.den * other.denominator)
        return NotImplemented

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
        if self.is_constant:
            # equal to its scalar, so it must hash like it
            return hash(self.constant_value())
        return hash((self.ring, self.den, tuple(sorted(self.terms.items()))))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms.keys() - {0}

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return Fraction(self.terms.get(0, 0), self.den)

    def degree_in(self, name: str) -> int:
        """Largest exponent of one variable; zero polynomial has degree 0."""
        k = self.ring.index(name)
        exponents = self.ring.exponents
        return max((exponents(m)[k] for m in self.terms), default=0)

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


def _make(ring: PolyRing, terms: dict[int, int], den: int) -> Poly:
    """A Poly from fields already in canonical form."""
    p = object.__new__(Poly)
    p.ring, p.terms, p.den = ring, terms, den
    return p


def _combine(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign * b."""
    if a.den == b.den:
        den, fb = a.den, sign
        out = dict(a.terms)
    else:
        g = gcd(a.den, b.den)
        fa, fb = b.den // g, sign * (a.den // g)
        den = a.den * fa
        out = {m: c * fa for m, c in a.terms.items()}
    for m, c in b.terms.items():
        if m in out:
            out[m] += c * fb
        else:
            out[m] = c * fb
    return Poly.from_numerators(a.ring, out, den)


class Matrix:
    """Square matrix over a commutative ring of entries.

    Entries must support +, -, * among themselves and with Fraction.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(r) for r in entries)
        d = len(rows)
        for r in rows:
            if len(r) != d:
                raise DimensionMismatchError(f"row of length {len(r)} in {d}x{d} matrix")
        self.entries = rows

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @staticmethod
    def identity(d: int, one) -> Matrix:
        zero = one - one
        return Matrix([[one if i == j else zero for j in range(d)] for i in range(d)])

    def _check(self, other: Matrix) -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"matrices of dimension {self.dimension} and {other.dimension}"
            )

    def __add__(self, other: Matrix) -> Matrix:
        self._check(other)
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: Matrix) -> Matrix:
        self._check(other)
        return Matrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self) -> Matrix:
        return Matrix([[-a for a in r] for r in self.entries])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check(other)
            d = self.dimension
            cols = list(zip(*other.entries))
            return Matrix(
                [
                    [_dot(self.entries[i], cols[j]) for j in range(d)]
                    for i in range(d)
                ]
            )
        return self.scale(other)

    def __rmul__(self, other) -> Matrix:
        return self.scale(other)

    def scale(self, c) -> Matrix:
        return Matrix([[a * c for a in r] for r in self.entries])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def trace(self):
        acc = self.entries[0][0]
        for i in range(1, self.dimension):
            acc = acc + self.entries[i][i]
        return acc

    def normalized_trace(self):
        """tr_d = (1/d) * sum of diagonal entries; tr_d(identity) = 1."""
        return self.trace() * Fraction(1, self.dimension)

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(a) for a in r) for r in self.entries) + "]"

    __repr__ = __str__


def _dot(row, col):
    acc = row[0] * col[0]
    for a, b in zip(row[1:], col[1:]):
        acc = acc + a * b
    return acc


def scalar_embed(c: Scalar, d: int, one) -> Matrix:
    """c times the d x d identity, over the ring whose unit is ``one``."""
    return Matrix.identity(d, one).scale(as_fraction(c))
