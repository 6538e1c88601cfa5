"""Dominant maximal weights of level-k highest weight modules in affine type C.

A weight Lambda' equivalent to Lambda determines the unique vector X with
A.X^t = hub(Lambda) - hub(Lambda') that is nonnegative and drops below the
null-root coefficients somewhere; Lambda - beta(X) is then a dominant maximal
weight, and every dominant maximal weight arises this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import floordiv, mul, sub

from .cartan import DominantWeight, GuardError, RootVector, cartan

DEFAULT_MAX_VERTICES = 5000


class NotEquivalentError(ValueError):
    """The two weights do not lie in the same equivalence class."""


def ev(weight: DominantWeight) -> int:
    """Sum of the fundamental multiplicities at odd indices."""
    return sum(weight.m[i] for i in range(1, weight.ell + 1, 2))


def _class_pass(root: tuple[int, ...], max_members: int = DEFAULT_MAX_VERTICES
                ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``(m, x)`` for every member m of the class of the multiplicities ``root``,
    with x its minimal solution, in lexicographic order of m.

    GuardError when the class has more than ``max_members`` members, counted
    by ``_class_size`` before any member is built.  Membership is the parity
    condition: ev agrees modulo 2.  Stars and bars yield the weak compositions
    of k into ell+1 parts already in lexicographic order, since
    ``combinations`` yields the bar positions lexicographically and m_0, m_1,
    ... are their successive gaps.
    """
    size = _class_size(root)
    if size > max_members:
        raise GuardError(f"class has {size} members, cap is {max_members}")
    k, ell = sum(root), len(root) - 1
    parity = sum(root[1::2]) % 2
    members = []
    for bars in combinations(range(k + ell), ell):
        m = []
        prev = -1
        for b in bars:
            m.append(b - prev - 1)
            prev = b
        m.append(k + ell - 1 - prev)
        if sum(m[1::2]) % 2 == parity:
            m = tuple(m)
            members.append((m, _solve(tuple(map(sub, root, m)), ell)))
    return members


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


def _solve(y: tuple[int, ...], ell: int) -> tuple[int, ...]:
    """``minimal_solution`` on plain tuples."""
    datum = cartan(ell)
    if len(y) != ell + 1:
        raise ValueError("rank mismatch")
    moment = sum(map(mul, range(ell + 1), y))
    if sum(y) != 0 or moment % 2:
        raise NotEquivalentError(f"no equivalence-class solution for y={y}")
    # xhat[j] = -sum_{t<j} (j - t) y[t], from the running sums of y[t] and t*y[t]
    xhat = [0] * (ell + 1)
    total = weighted = 0
    for j in range(1, ell):
        total += y[j - 1]
        weighted += (j - 1) * y[j - 1]
        xhat[j] = weighted - j * total
    xhat[ell] = moment // 2
    delta = datum.delta_coeffs
    shift = -min(map(floordiv, xhat, delta))
    x = tuple([xj + shift * dj for xj, dj in zip(xhat, delta)])
    assert datum.apply_matrix(x) == y
    assert min(x) >= 0 and min(map(sub, x, delta)) < 0
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
    delta = cartan(x.ell).delta_coeffs
    m = min(xi // di for xi, di in zip(x.coeffs, delta))
    assert m >= 0
    x0 = RootVector(tuple(xi - m * di for xi, di in zip(x.coeffs, delta)))
    assert x0.in_positive_cone() and min(c - d for c, d in zip(x0.coeffs, delta)) < 0
    return x0, m


def _straighten(m: tuple[int, ...],
                coeffs: tuple[int, ...]) -> tuple[tuple[int, ...] | None, list[int]]:
    """``dominantify`` and its reflection word, on plain tuples.

    The hub h = m - A.x starts from the band of A and is kept up to date:
    reflecting at i adds h_i to x_i, which subtracts h_i times column i of A
    from h.  That changes only h_{i-1}, h_i and h_{i+1}, and every entry before
    i was nonnegative, so the next scan for a negative entry starts at i - 1.
    """
    if len(m) != len(coeffs):
        raise ValueError("rank mismatch")
    if sum(m) < 1:
        raise ValueError("level must be at least 1")
    x = list(coeffs)
    datum = cartan(len(m) - 1)
    matrix = datum.matrix
    h = list(map(sub, m, datum.apply_matrix(x)))
    word: list[int] = []
    bound = 8 * (sum(m) + sum(map(abs, x)) + 2) ** 2
    i = 0
    for _ in range(bound):
        i = next((j for j in range(max(i - 1, 0), len(h)) if h[j] < 0), None)
        if i is None:
            return tuple(x), word
        word.append(i)
        step = h[i]
        x[i] += step
        if x[i] < 0:
            return None, word
        for j in range(max(i - 1, 0), min(i + 2, len(h))):  # A is tridiagonal
            h[j] -= matrix[j][i] * step
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
