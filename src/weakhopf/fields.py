"""Exact scalars: arbitrary-precision rationals and prime fields.

Every algebra instance fixes one field; all arithmetic in the package is
exact.  Rationals are plain ``fractions.Fraction`` values.  Prime-field
elements are instances of a per-prime class created by :func:`GF`, so that
``GF(5)(2) + GF(5)(4)`` works with the usual operators and reduces mod 5.

The hot sweeps and eliminations run on plain ints, and :class:`Field` is
the one place that knows how a scalar is held as one: :meth:`Field.to_ints`
brings dicts of scalars to ints at one scale D (over QQ the lcm of their
denominators, over GF(p) the residues and D = 1), :meth:`Field.reduce`
keeps an int dict's nonzero entries (residues mod p over GF(p)), and an int
c at scale a reads back as the field's own quotient ``field(c) / field(a)``.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .errors import ParseError, TooLarge, ValidationError


# The largest p a prime field may have: the primality test is trial division
# up to sqrt(p), about 46,000 divisions at 2^31.
PRIME_LIMIT = 2 ** 31

# The scalar strings :meth:`Field.format` emits: -?digits, and -?digits/digits over QQ.
_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class PrimeElement:
    """Residue modulo a prime; subclassed per prime by :func:`GF`."""

    __slots__ = ("v",)
    p: int = 0

    def __init__(self, v):
        self.v = int(v) % self.p

    def _coerce(self, other):
        if isinstance(other, int):
            return type(self)(other)
        if type(other) is type(self):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else type(self)(self.v + other.v)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else type(self)(self.v - other.v)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else type(self)(other.v - self.v)

    def __mul__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else type(self)(self.v * other.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.v == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return type(self)(self.v * pow(other.v, -1, self.p))

    def __neg__(self):
        return type(self)(-self.v)

    def __pow__(self, n):
        return type(self)(pow(self.v, n, self.p) if n >= 0 else pow(pow(self.v, -1, self.p), -n, self.p))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.p
        return type(other) is type(self) and self.v == other.v

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return str(self.v)


def is_prime(p):
    """Whether p is prime; raises TooLarge, before testing, above PRIME_LIMIT."""
    if p > PRIME_LIMIT:
        raise TooLarge(f"p = {p} exceeds the limit {PRIME_LIMIT}")
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@functools.cache
def GF(p: int):
    """Return the element class for the prime field with p elements."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    cls = type(f"GF({p})", (PrimeElement,), {"__slots__": ()})
    cls.p = p
    return cls


class Field:
    """Field descriptor: the rationals (p is None), or the prime field GF(p)."""

    __slots__ = ("p", "_elem")

    def __init__(self, p=None):
        self.p = p
        self._elem = None if p is None else GF(p)

    @classmethod
    def rationals(cls):
        return cls()

    @classmethod
    def prime(cls, p):
        return cls(p)

    def zero(self):
        return Fraction(0) if self._elem is None else self._elem(0)

    def one(self):
        return Fraction(1) if self._elem is None else self._elem(1)

    def __call__(self, n):
        """The field element of the int n."""
        return Fraction(n) if self._elem is None else self._elem(n)

    def coerce(self, x):
        """A scalar passed through the Python API, as an element of this field.

        A Python int becomes a field element and the field's own elements
        pass unchanged; float, bool, str and the elements of another field
        raise ValidationError.
        """
        if type(x) is int:
            return self(x)
        if type(x) is (Fraction if self._elem is None else self._elem):
            return x
        raise ValidationError(f"{x!r} is not a {self} scalar")

    def parse(self, value):
        """Parse a serialized scalar: int (not bool), or a string like "3" or "-3/4".

        The scalar is built from the digits the pattern matched; a quotient
        is refused over GF(p).
        """
        if type(value) is int:
            return self(value)
        match = _SCALAR.fullmatch(value) if isinstance(value, str) else None
        if match and (self._elem is None or match[2] is None):
            try:
                n = int(match[1])
                if self._elem is not None:
                    return self._elem(n)
                return Fraction(n, int(match[2])) if match[2] else Fraction(n)
            except (ValueError, ZeroDivisionError):  # too many digits for int(), or n/0
                pass
        raise ParseError(f"bad {'rational' if self._elem is None else self} scalar {value!r}")

    def format(self, x):
        """Serialize a scalar (inverse of :meth:`parse`)."""
        return x.v if self._elem is not None else str(x)

    def to_ints(self, tables, base=1):
        """(D, ints): the dicts of scalars ``tables`` (a list) as dicts of ints at one
        scale D, in the same order, each without its zero entries.

        Over QQ, D is the lcm of ``base`` and of every denominator, and a
        scalar c becomes the int D c; over GF(p), D = 1 and c becomes its
        residue (``base``, a scale that is 1 over GF(p), is not read).
        Python ints are taken as field elements.  Reading back, the int n
        stands for ``self(n) / self(D)``.
        """
        p = self.p
        if p is None:
            D = math.lcm(base, *(c.denominator for t in tables for c in t.values()))
            return D, [{k: n * (D // c.denominator) for k, c in t.items() if (n := c.numerator)}
                       for t in tables]
        return 1, [{k: r for k, c in t.items() if (r := c % p if type(c) is int else c.v)}
                   for t in tables]

    def reduce(self, d):
        """The nonzero entries of a dict of ints, as residues mod p over GF(p)."""
        p = self.p
        if p is None:
            return {k: c for k, c in d.items() if c}
        return {k: r for k, c in d.items() if (r := c % p)}

    @property
    def order(self):
        """p, or None over QQ: the package reads ``p``, and this name stays for
        code outside it (the benchmark's ``grouplike.brute_candidates`` probe)."""
        return self.p

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("rationals", None) if self.p is None else ("prime", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"

    def to_json(self):
        if self.p is None:
            return {"kind": "rationals"}
        return {"kind": "prime", "p": self.p}

    @classmethod
    def from_json(cls, d):
        try:
            kind = d["kind"]
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad field descriptor {d!r}") from exc
        if kind == "rationals":
            return cls.rationals()
        if kind == "prime":
            if type(d.get("p")) is not int or not is_prime(d["p"]):
                raise ParseError(f"bad field descriptor {d!r}")
            return cls.prime(d["p"])
        raise ParseError(f"unknown field kind {kind!r}")



QQ = Field.rationals()
