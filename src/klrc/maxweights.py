"""Dominant maximal weights of level-k highest weight modules in affine type C.

A weight Lambda' equivalent to Lambda determines the unique vector X with
A.X^t = hub(Lambda) - hub(Lambda') that is nonnegative and drops below the
null-root coefficients somewhere; Lambda - beta(X) is then a dominant maximal
weight, and every dominant maximal weight arises this way.

One prefix-and-shift rule gives every minimal solution.  ``_reduce`` is its
single-vector form, which ``minimal_solution``, ``beta_of`` and
``delta_decompose`` run.  ``_class_columns`` is its class form: it runs the
rule a coordinate at a time over all members of a class, one column of m_j
and one of x_j per coordinate j, with every check asserted for every member;
``_class_pass`` is its transpose, one (m, x) row per member.  The tests tie
the two forms together through the stars-and-bars class pass of
``tests/reference.py``, which solves each member with ``_solve``.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations_with_replacement, compress, repeat, tee
from math import comb
from operator import add, eq, floordiv, lt, mod, mul, neg, or_, sub
from typing import Iterable, Sequence

from .cartan import DominantWeight, GuardError, RootVector, cartan

DEFAULT_MAX_VERTICES = 5000


class NotEquivalentError(ValueError):
    """The two weights do not lie in the same equivalence class."""


def ev(weight: DominantWeight) -> int:
    """Sum of the fundamental multiplicities at odd indices."""
    return sum(weight.m[i] for i in range(1, weight.ell + 1, 2))


def _digits(column: Sequence[int]) -> int:
    """The entries of ``column``, each in 0..2^63 - 1, as the base-2^64
    digits of one int, in one digit order for every column of a length."""
    return int.from_bytes(array("q", column).tobytes(), sys.byteorder)


def _class_columns(root: tuple[int, ...], max_members: int = DEFAULT_MAX_VERTICES
                   ) -> tuple[list[list[int]], list[array]]:
    """The class of the multiplicities ``root`` as coordinate columns: the
    ell+1 lists of m_j and the ell+1 int64 arrays of x_j over all members m,
    x the minimal solution of m, with the members in lexicographic order of m.

    GuardError when the class has more than ``max_members`` members, counted
    by ``_class_size`` before any member is built.  A member is a finite part
    mu with k >= mu_1 >= ... >= mu_ell >= 0 and sum(mu) = sum(lam) modulo 2,
    lam the finite part of ``root`` (the parity of sum(mu) is that of ev),
    read back as m = (k - mu_1, mu_1 - mu_2, ..., mu_ell).
    ``combinations_with_replacement`` over k, k-1, ..., 0 yields the mu in
    descending lexicographic order, which is ascending lexicographic order
    of m.  x is ``_minimal`` of lam - mu, run a coordinate at a time over
    all members: the prefix columns xhat_j, halved at j = ell, the shift
    column n = min_j floor(xhat_j / delta_j), and x_j = xhat_j - n*delta_j.
    ``_reduce``'s checks, x >= 0 and x - delta < 0 somewhere, and
    A.x = root - m, read from the band of A, are asserted for every member.
    """
    size = _class_size(root)
    if size > max_members:
        raise GuardError(f"class has {size} members, cap is {max_members}")
    k, ell = sum(root), len(root) - 1
    datum = cartan(ell)
    lam = tuple(accumulate(root[:0:-1]))[::-1]  # lam_j = sum_{i>=j} m_i, j = 1..ell
    parity = sum(lam) % 2
    mus, sums = tee(combinations_with_replacement(range(k, -1, -1), ell))
    kept = compress(mus, map(eq, map(mod, map(sum, sums), repeat(2)), repeat(parity)))
    # m_j = mu_j - mu_{j+1}, with mu_0 = k and mu_{ell+1} = 0, and the prefix
    # columns xhat_j, which are shifted to x_j below.  xhat and x are int64
    # arrays: at deep rank most of their entries lie outside the small ints,
    # and in lists each would be an object of its own
    m_cols, x_cols = [], [array("q", bytes(8 * size))]
    left = (k,) * size
    for lam_s, mu_s in zip(lam, zip(*kept)):
        m_cols.append(list(map(sub, left, mu_s)))
        x_cols.append(array("q", map(add, x_cols[-1], map(sub, repeat(lam_s), mu_s))))
        left = mu_s
    m_cols.append(list(left))
    assert len(left) == size
    x_cols[-1] = array("q", map(floordiv, x_cols[-1], repeat(2)))
    delta = datum.delta_coeffs
    n = list(map(min, *[map(floordiv, col, repeat(d)) for col, d in zip(x_cols, delta)]))
    shifts = {d: list(map(mul, n, repeat(d))) for d in set(delta)}
    for j, d in enumerate(delta):
        x_cols[j] = array("q", map(sub, x_cols[j], shifts[d]))
    if __debug__:
        assert min(map(min, x_cols)) >= 0 and max(k, max(map(max, x_cols))) < 2 ** 59
        # x - delta < 0 somewhere: one byte per member, set where x_j < delta_j
        below = [int.from_bytes(bytes(map(lt, col, repeat(d))), "little")
                 for col, d in zip(x_cols, delta)]
        assert reduce(or_, below) == int.from_bytes(b"\1" * size, "little")
        # A.x + m = root: with each column packed into one int by ``_digits``,
        # row i of A.x + m over all members is one sum of ints.  Every x and m
        # is below 2^59, so each member's entry of the row, and its difference
        # from root_i, lies within 2^63 of 0: the sum is root_i times the
        # packed column of ones exactly when every member's entry is root_i
        packed = [0, *map(_digits, x_cols), 0]
        ones = _digits([1] * size)
        for i, (a, b, c) in enumerate(datum._band):
            assert (a * packed[i] + b * packed[i + 1] + c * packed[i + 2] + _digits(m_cols[i])
                    == root[i] * ones), i
    return m_cols, x_cols


def _class_pass(root: tuple[int, ...], max_members: int = DEFAULT_MAX_VERTICES
                ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``(m, x)`` for every member m of the class of the multiplicities ``root``,
    with x its minimal solution, in lexicographic order of m: the transpose of
    ``_class_columns``, which raises the same GuardError."""
    m_cols, x_cols = _class_columns(root, max_members)
    return list(zip(zip(*m_cols), zip(*x_cols)))


def class_members(weight: DominantWeight) -> list[DominantWeight]:
    """All level-k dominant weights equivalent to ``weight``.

    Membership is the parity condition: ev agrees modulo 2.  The result is
    sorted lexicographically on the multiplicity vector.  A class of more than
    ``DEFAULT_MAX_VERTICES`` members raises GuardError before any is listed.
    """
    return [DominantWeight(m) for m, _ in _class_pass(weight.m)]


def _class_size(m: tuple[int, ...]) -> int:
    """``class_size`` of the weight with the nonnegative multiplicities ``m``,
    read from ell, the level and the parity of ev alone."""
    k, ell = sum(m), len(m) - 1
    if k < 1:
        raise ValueError("level must be at least 1")
    odd = (ell + 1) // 2
    if ell % 2 == 0:
        surplus = comb(odd + k // 2, odd)
    else:
        surplus = 0 if k % 2 else comb(odd - 1 + k // 2, odd - 1)
    if sum(m[1::2]) % 2:
        surplus = -surplus
    return (comb(k + ell, ell) + surplus) // 2


def class_size(weight: DominantWeight) -> int:
    """``len(class_members(weight))``, counted without enumerating the class.

    Of the C(k+ell, ell) weak compositions of k into ell+1 parts, those with
    even ev outnumber the others by D = [t^k] (1-t)^-a (1+t)^-b, where a and b
    count the even and the odd indices.  For even ell, a = b + 1 and
    D = C(b + k//2, b); for odd ell, a = b and D = C(b - 1 + k/2, b - 1) when
    k is even, else 0.  That is two binomials at any level, so the size
    guards that call this stay cheap however large k is.
    """
    return _class_size(weight.m)


@dataclass(frozen=True)
class MaximalWeightDatum:
    """A class member together with its minimal solution vector."""

    weight: DominantWeight
    x: RootVector

    @property
    def size(self) -> int:
        return self.x.height


def _reduce(v: Sequence[int], delta: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """``(x, n)`` with v = x + n*delta, x >= 0 and min(x - delta) < 0: the
    shift rule n = min floor(v_j / delta_j)."""
    n = min(map(floordiv, v, delta))
    x = tuple([vj - n * dj for vj, dj in zip(v, delta)])
    assert min(x) >= 0 and min(map(sub, x, delta)) < 0
    return x, n


def _minimal(diff: Iterable[int], delta: tuple[int, ...]) -> tuple[int, ...]:
    """The minimal solution from diff_s = lam_s - mu_s, s = 1..ell, the
    difference of the finite parts of Lambda and Lambda': the prefix form
    xhat_0 = 0, xhat_j = diff_1 + ... + diff_j, halved at j = ell (an integer
    on the class), brought down by ``_reduce``."""
    xhat = [0, *accumulate(diff)]
    xhat[-1] //= 2
    return _reduce(xhat, delta)[0]


def _solve(y: tuple[int, ...], ell: int) -> tuple[int, ...]:
    """``minimal_solution`` on plain tuples."""
    datum = cartan(ell)
    if len(y) != ell + 1:
        raise ValueError("rank mismatch")
    if sum(y) != 0 or sum(map(mul, range(ell + 1), y)) % 2:
        raise NotEquivalentError(f"no equivalence-class solution for y={y}")
    # lam_s - mu_s = -(y_0 + ... + y_{s-1})
    x = _minimal(map(neg, accumulate(y[:-1])), datum.delta_coeffs)
    assert datum.apply_matrix(x) == y
    return x


def minimal_solution(y: tuple[int, ...], ell: int) -> RootVector:
    """The unique X with A.X^t = y^t, min X >= 0 and min(X - delta) < 0.

    Requires sum(y) = 0 and sum(i*y_i) even.  The particular solution is the
    closed-form prefix-sum vector; the general solution shifts it by integer
    multiples of the null-root coefficients, and exactly one shift meets both
    minimality conditions.
    """
    return RootVector(_solve(tuple(y), ell))


def beta_of(weight: DominantWeight, other: DominantWeight) -> MaximalWeightDatum:
    """The datum of the dominant maximal weight attached to ``other`` in the class of ``weight``."""
    if weight.ell != other.ell or weight.level != other.level:
        raise NotEquivalentError("weights live in different classes")
    return MaximalWeightDatum(other, RootVector(_solve(tuple(map(sub, weight.m, other.m)),
                                                       weight.ell)))


def _defect(m: tuple[int, ...], x: tuple[int, ...]) -> int:
    """``defect`` on plain tuples: (Lambda, beta) - (beta, beta)/2 from the
    multiplicities m of Lambda and the coefficients x of beta."""
    datum = cartan(len(m) - 1)
    dx = tuple(map(mul, datum.d, x))
    bb = sum(map(mul, dx, datum.apply_matrix(x)))
    assert bb % 2 == 0
    return sum(map(mul, m, dx)) - bb // 2


def defect(weight: DominantWeight, beta: RootVector) -> int:
    """(Lambda, beta) - (beta, beta)/2."""
    if weight.ell != beta.ell:
        raise ValueError("rank mismatch")
    return _defect(weight.m, beta.coeffs)


def delta_decompose(x: RootVector) -> tuple[RootVector, int]:
    """Write x = x0 + m*delta with x0 >= 0, min(x0 - delta) < 0 and m >= 0."""
    if not x.in_positive_cone():
        raise ValueError("vector must lie in the positive cone")
    x0, m = _reduce(x.coeffs, cartan(x.ell).delta_coeffs)
    return RootVector(x0), m


def _straighten(m: tuple[int, ...], coeffs: tuple[int, ...], hub: Sequence[int] | None = None
                ) -> tuple[tuple[int, ...] | None, list[int]]:
    """``dominantify`` and its reflection word, on plain tuples.

    The hub h = m - A.x starts from ``hub`` when the caller has it, else from
    the band of A, and is kept up to date: reflecting at i adds h_i to x_i,
    which subtracts h_i times column i of A from h.  That changes only
    h_{i-1}, h_i and h_{i+1}, and every entry before i was nonnegative, so
    the next scan for a negative entry starts at i - 1.  Column i's entries
    next to the diagonal are the last of row i - 1's band and the first of
    row i + 1's; the diagonal entry 2 turns h_i into -h_i.
    """
    if len(m) != len(coeffs):
        raise ValueError("rank mismatch")
    if sum(m) < 1:
        raise ValueError("level must be at least 1")
    x = list(coeffs)
    datum = cartan(len(m) - 1)
    band = datum._band
    h = list(map(sub, m, datum.apply_matrix(x)) if hub is None else hub)
    last = len(h) - 1
    word: list[int] = []
    bound = 8 * (sum(m) + sum(map(abs, x)) + 2) ** 2
    i = 0
    for _ in range(bound):
        while h[i] >= 0:
            if i == last:
                return tuple(x), word
            i += 1
        word.append(i)
        step = h[i]
        x[i] += step
        if x[i] < 0:
            return None, word
        h[i] = -step
        if i < last:
            h[i + 1] -= band[i + 1][0] * step
        if i:
            i -= 1
            h[i] -= band[i][2] * step
    raise AssertionError("straightening failed to terminate within bound")


def dominantify(weight: DominantWeight, beta: RootVector) -> RootVector | None:
    """Straighten Lambda - beta into the dominant chamber by simple reflections.

    Repeatedly reflects at the smallest index whose coroot pairing is
    negative.  Returns the straightened vector when the hub becomes
    nonnegative, or None as soon as a coefficient of beta goes negative
    (the weight then lies outside the weight system and the algebra is zero).
    """
    straightened = _straighten(weight.m, beta.coeffs)[0]
    return None if straightened is None else RootVector(straightened)


def reflection_word(weight: DominantWeight, beta: RootVector) -> list[int] | None:
    """The sequence of reflection indices applied by ``dominantify``, or None."""
    straightened, word = _straighten(weight.m, beta.coeffs)
    return word if straightened is not None else None
