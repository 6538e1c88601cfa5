"""Exact Laurent polynomials in one variable q over the integers.

Coefficients are arbitrary-precision Python ints, stored sparsely as a map
exponent -> coefficient with no zero entries.  These polynomials carry every
graded dimension, Fock coefficient and quantum integer in the package, so all
arithmetic here is exact; nothing is ever floated.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping


class LaurentPolynomial:
    """An element of Z[q, q^-1], immutable and hashable."""

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for exp, c in items:
            if c:
                acc[exp] = acc.get(exp, 0) + c
                if not acc[exp]:
                    del acc[exp]
        self._coeffs = acc
        self._hash: int | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def q(cls, exp: int = 1) -> "LaurentPolynomial":
        return cls({exp: 1})

    # -- inspection ----------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._coeffs.items()))

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    @property
    def min_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    @property
    def max_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self._coeffs)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        other = _coerce(other)
        acc = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return _wrap(acc)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return _wrap({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: int) -> "LaurentPolynomial":
        return _coerce(other) - self

    def __mul__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            if other == 0:
                return LaurentPolynomial()
            return _wrap({e: c * other for e, c in self._coeffs.items()})
        acc: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        return _wrap(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exact_div(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """Divide by ``other``, requiring a zero remainder.

        Division proceeds from the lowest exponent; the divisor's lowest
        coefficient must divide exactly at every step, and no quotient term
        may exceed the degree an exact quotient can have.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPolynomial()
        rem = dict(self._coeffs)
        low = other.min_exponent
        lead = other._coeffs[low]
        top = self.max_exponent - other.max_exponent + low
        quot: dict[int, int] = {}
        while rem:
            e = min(rem)
            c = rem[e]
            if e > top:
                raise ValueError(f"inexact division: residual {c}*q^{e} beyond the quotient's degree")
            if c % lead:
                raise ValueError(f"inexact division: residual {c}*q^{e} not divisible by {lead}*q^{low}")
            f = c // lead
            quot[e - low] = f
            for e2, c2 in other._coeffs.items():
                e3 = e - low + e2
                s = rem.get(e3, 0) - f * c2
                if s:
                    rem[e3] = s
                else:
                    rem.pop(e3, None)
        return _wrap(quot)

    def bar(self) -> "LaurentPolynomial":
        """The bar involution q -> q^-1."""
        return _wrap({-e: c for e, c in self._coeffs.items()})

    def shift(self, exp: int) -> "LaurentPolynomial":
        """Multiply by q^exp."""
        return _wrap({e + exp: c for e, c in self._coeffs.items()})

    def evaluate(self, value: int) -> int:
        """Evaluate at an integer (negative exponents require |value| = 1)."""
        total = 0
        for e, c in self._coeffs.items():
            if e < 0 and abs(value) != 1:
                raise ValueError("cannot evaluate negative exponents at non-unit integers")
            total += c * value**e if e >= 0 else c * value ** (-e)
        return total

    def is_bar_symmetric_about(self, center: int) -> bool:
        """True when coefficients are symmetric about exponent ``center`` (2*center even)."""
        return all(c == self._coeffs.get(2 * center - e, 0) for e, c in self._coeffs.items())

    # -- protocol ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = _coerce(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._coeffs.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self._coeffs!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for e, c in sorted(self._coeffs.items()):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                qpart = "q" if e == 1 else f"q^{e}"
                body = qpart if mag == 1 else f"{mag}{qpart}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)


def _wrap(coeffs: dict[int, int]) -> LaurentPolynomial:
    p = LaurentPolynomial.__new__(LaurentPolynomial)
    p._coeffs = coeffs
    p._hash = None
    return p


def _coerce(value: "LaurentPolynomial | int") -> LaurentPolynomial:
    if isinstance(value, LaurentPolynomial):
        return value
    return LaurentPolynomial({0: value})


def quantum_integer(s: int, d: int = 1) -> LaurentPolynomial:
    """The symmetric quantum integer [s] in the variable q^d."""
    if s < 0:
        raise ValueError("quantum integers are defined for s >= 0")
    return LaurentPolynomial({d * (s - 1 - 2 * t): 1 for t in range(s)})


def quantum_factorial(r: int, d: int = 1) -> LaurentPolynomial:
    """[r]! = [1][2]...[r] in the variable q^d."""
    result = LaurentPolynomial.one()
    for s in range(1, r + 1):
        result = result * quantum_integer(s, d)
    return result


ZERO = LaurentPolynomial.zero()
ONE = LaurentPolynomial.one()
