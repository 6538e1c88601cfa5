"""Affine type C Cartan data: matrix, first-layer roots, residue folding, bilinear form, hubs.

The index set is I = {0, 1, ..., ell} with ell >= 2.  Roots and weights are
held as exact integer coefficient vectors over I; the symmetrizing vector is
d = (2, 1, ..., 1, 2) and the null root has coefficients (1, 2, ..., 2, 1).
All values are immutable, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import sub
from typing import Iterable, Iterator, Sequence

DEFAULT_MAX_RANK = 16
# Bound of every cache keyed by rank alone: room for each rank up to twice the
# command line's default cap.
RANK_CACHE_SIZE = 2 * DEFAULT_MAX_RANK


class GuardError(Exception):
    """A configurable size guard was exceeded."""


def fold_residue(m: int, ell: int) -> int:
    """Fold an integer into I: values repeat with period 2*ell as 0,1,...,ell,ell-1,...,1."""
    if ell < 2:
        raise ValueError("rank must be at least 2")
    r = m % (2 * ell)
    return r if r <= ell else 2 * ell - r


@lru_cache(maxsize=RANK_CACHE_SIZE)
def cartan(ell: int) -> "CartanDatum":
    return CartanDatum(ell)


class CartanDatum:
    """The rank-ell affine Cartan matrix of type C, stored as its band, together
    with its d-vector."""

    __slots__ = ("ell", "_band", "d", "delta_coeffs")

    def __init__(self, ell: int):
        if ell < 2:
            raise ValueError("rank must be at least 2")
        self.ell = ell
        # row i's entries a_{i,i-1}, a_{ii}, a_{i,i+1}, with 0 past either end:
        # A is tridiagonal, so these are all its nonzero entries
        self._band: tuple[tuple[int, int, int], ...] = tuple([
            (0 if i == 0 else -2 if i == 1 else -1, 2,
             0 if i == ell else -2 if i == ell - 1 else -1) for i in range(ell + 1)])
        self.d: tuple[int, ...] = (2,) + (1,) * (ell - 1) + (2,)
        self.delta_coeffs: tuple[int, ...] = (1,) + (2,) * (ell - 1) + (1,)

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The dense matrix A, built from the band on each read: a_ij is entry
        j - i + 1 of row i's band when |i - j| <= 1, and 0 otherwise."""
        band, n = self._band, range(self.ell + 1)
        return tuple([tuple([band[i][j - i + 1] if abs(i - j) <= 1 else 0 for j in n])
                      for i in n])

    def apply_matrix(self, x: Sequence[int]) -> tuple[int, ...]:
        """The product A . x as a coefficient vector, from the band of A."""
        if len(x) != self.ell + 1:
            raise ValueError("rank mismatch")
        p = (0, *x, 0)
        return tuple([a * p[i] + b * p[i + 1] + c * p[i + 2]
                      for i, (a, b, c) in enumerate(self._band)])

    def __repr__(self) -> str:
        return f"CartanDatum(ell={self.ell})"


def _first_layer(ell: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each first-layer root gamma with A.gamma, the one source of the root
    and move tables: the 2 ell^2 positive real roots below delta, which are
    the finite type C_ell roots eps_i - eps_j = alpha_i + ... + alpha_{j-1}
    (1 <= i < j <= ell) and eps_i + eps_j = that interval + 2(alpha_j + ...
    + alpha_{ell-1}) + alpha_ell (i <= j), each followed by delta - gamma."""
    datum = cartan(ell)
    pairs = [(i, j) for i in range(1, ell + 1) for j in range(i, ell + 1)]
    finite = [(0,) * i + (1,) * (j - i) + (0,) * (ell + 1 - j) for i, j in pairs if i < j]
    finite += [(0,) * i + (1,) * (j - i) + (2,) * (ell - j) + (1,) for i, j in pairs]
    for gamma in finite:
        for root in (gamma, tuple(map(sub, datum.delta_coeffs, gamma))):
            yield root, datum.apply_matrix(root)


def _sum_text(coeffs: Sequence[int], symbol: str) -> str:
    """``c0<symbol>0+c1<symbol>1+...`` over the nonzero coefficients, a
    coefficient of 1 left out; "0" when every coefficient is zero."""
    return "+".join([f"{'' if c == 1 else c}{symbol}{i}"
                     for i, c in enumerate(coeffs) if c]) or "0"


def _column_terms(columns: Iterable[Iterable[int]], symbol: str) -> list[str]:
    """``_sum_text`` of every member of a class, from its coordinate columns:
    column i's distinct values are each rendered once, as ``+c<symbol>i``
    with a coefficient of 1 left out and a zero as the empty text, and a
    member's text is its terms joined, the leading "+" dropped; "0" when
    every coefficient is zero."""
    parts = []
    for i, column in enumerate(columns):
        table = {c: f"+{'' if c == 1 else c}{symbol}{i}" if c else "" for c in set(column)}
        parts.append(map(table.__getitem__, column))
    return [text[1:] or "0" for text in map("".join, zip(*parts))]


def root_text(coeffs: Sequence[int]) -> str:
    """The text of the root-lattice vector with these coefficients, e.g. ``a0+2a1``;
    ``str(RootVector(coeffs))``."""
    return _sum_text(coeffs, "a")


def weight_text(m: Sequence[int]) -> str:
    """The text of the weight with these fundamental multiplicities, e.g.
    ``2Λ0+Λ3``; ``str(DominantWeight(m))``."""
    return _sum_text(m, "Λ")


@dataclass(frozen=True)
class RootVector:
    """An element of the root lattice, as coefficients of the simple roots."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 3:
            raise ValueError("rank must be at least 2")
        # tuples built from lists, not generators, are allocated at their final
        # size, so freeing them does not pile up CPython's tuple free lists
        object.__setattr__(self, "coeffs", tuple([int(c) for c in self.coeffs]))

    @classmethod
    def zero(cls, ell: int) -> "RootVector":
        return cls((0,) * (ell + 1))

    @classmethod
    def simple(cls, i: int, ell: int) -> "RootVector":
        if not 0 <= i <= ell:
            raise ValueError(f"index {i} out of range for rank {ell}")
        return cls(tuple(1 if j == i else 0 for j in range(ell + 1)))

    @classmethod
    def null_root(cls, ell: int) -> "RootVector":
        return cls(cartan(ell).delta_coeffs)

    @property
    def ell(self) -> int:
        return len(self.coeffs) - 1

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def in_positive_cone(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "RootVector") -> "RootVector":
        return RootVector(tuple(a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __sub__(self, other: "RootVector") -> "RootVector":
        return RootVector(tuple(a - b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __mul__(self, n: int) -> "RootVector":
        return RootVector(tuple(n * a for a in self.coeffs))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return root_text(self.coeffs)


class DominantWeight:
    """A classical dominant integral weight, as fundamental-weight multiplicities.

    ``charges`` is an ordered realization of the weight as a sum of
    fundamental weights.  The default order is weakly increasing; a caller
    may fix another order (it only affects tableau-level bookkeeping, never
    any algebra-level quantity).  The default order has one entry per unit of
    level, so it is built on each read and never stored: a weight of level
    three million, which ``classify`` answers from ``m`` alone, stays a few
    bytes.  Equality is that of the pair (m, charges); both it and the hash
    read the stored order, so neither builds the default one.
    """

    __slots__ = ("m", "_order")

    def __init__(self, m: Sequence[int], charges: Sequence[int] = ()):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_order", charges)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate, and keep the charges only when they are not the default order.

        A method of its own, as in a dataclass, so that the benchmark's tracer
        counts constructions by wrapping it."""
        m = tuple([int(v) for v in self.m])
        if len(m) < 3:
            raise ValueError("rank must be at least 2")
        if any(v < 0 for v in m):
            raise ValueError("fundamental multiplicities must be nonnegative")
        order = None  # the default order
        if self._order:
            order = tuple([int(c) for c in self._order])
            counts = [0] * len(m)
            for c in order:
                if not 0 <= c < len(m):
                    raise ValueError(f"charge {c} out of range")
                counts[c] += 1
            if tuple(counts) != m:
                raise ValueError("charges do not realize the weight")
            if all(a <= b for a, b in zip(order, order[1:])):
                order = None
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_order", order)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def charges(self) -> tuple[int, ...]:
        if self._order is not None:
            return self._order
        return tuple([i for i, v in enumerate(self.m) for _ in range(v)])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m == other.m and self._order == other._order

    def __hash__(self) -> int:
        return hash((self.m, self._order))

    def __repr__(self) -> str:
        return f"DominantWeight(m={self.m!r}, charges={self.charges!r})"

    @classmethod
    def fundamental(cls, i: int, ell: int) -> "DominantWeight":
        if not 0 <= i <= ell:
            raise ValueError(f"index {i} out of range for rank {ell}")
        return cls(tuple(1 if j == i else 0 for j in range(ell + 1)))

    @classmethod
    def from_charges(cls, charges: Sequence[int], ell: int) -> "DominantWeight":
        m = [0] * (ell + 1)
        for c in charges:
            if not 0 <= c <= ell:
                raise ValueError(f"charge {c} out of range for rank {ell}")
            m[c] += 1
        return cls(tuple(m), tuple(charges))

    @property
    def ell(self) -> int:
        return len(self.m) - 1

    @property
    def level(self) -> int:
        return sum(self.m)

    def __str__(self) -> str:
        return weight_text(self.m)


def pairing(lhs: "DominantWeight | RootVector", rhs: RootVector) -> int:
    """The invariant symmetric form, restricted to weight-root and root-root pairs.

    (Lambda_i, alpha_j) = d_j delta_ij and (alpha_i, alpha_j) = d_i a_ij;
    a weight-weight pairing is rejected.
    """
    if not isinstance(rhs, RootVector):
        raise TypeError("right argument must be a root-lattice vector")
    if not isinstance(lhs, (DominantWeight, RootVector)):
        raise TypeError(f"unsupported left argument {type(lhs).__name__}")
    if lhs.ell != rhs.ell:
        raise ValueError("rank mismatch")
    datum = cartan(lhs.ell)
    if isinstance(lhs, DominantWeight):
        return sum(mi * di * xi for mi, di, xi in zip(lhs.m, datum.d, rhs.coeffs))
    ax = datum.apply_matrix(rhs.coeffs)
    return sum(xi * di * v for xi, di, v in zip(lhs.coeffs, datum.d, ax))


def hub(weight: DominantWeight, beta: RootVector | None = None) -> tuple[int, ...]:
    """The coroot-pairing vector of Lambda - beta: m - A.x componentwise."""
    if beta is None:
        return weight.m
    if weight.ell != beta.ell:
        raise ValueError("rank mismatch")
    ax = cartan(weight.ell).apply_matrix(beta.coeffs)
    return tuple(mi - v for mi, v in zip(weight.m, ax))
