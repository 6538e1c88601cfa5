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
from operator import mul

from .cartan import DominantWeight, RootVector, cartan, hub, pairing


class NotEquivalentError(ValueError):
    """The two weights do not lie in the same equivalence class."""


def ev(weight: DominantWeight) -> int:
    """Sum of the fundamental multiplicities at odd indices."""
    return sum(weight.m[i] for i in range(1, weight.ell + 1, 2))


def _check_level(weight: DominantWeight) -> None:
    if weight.level < 1:
        raise ValueError("level must be at least 1")


def class_members(weight: DominantWeight) -> list[DominantWeight]:
    """All level-k dominant weights equivalent to ``weight``.

    Membership is the parity condition: ev agrees modulo 2.  The result is
    sorted lexicographically on the multiplicity vector.
    """
    _check_level(weight)
    k, ell = weight.level, weight.ell
    parity = ev(weight) % 2
    members = []
    # weak compositions of k into ell+1 parts, by stars and bars
    for bars in combinations(range(k + ell), ell):
        m = []
        prev = -1
        for b in bars:
            m.append(b - prev - 1)
            prev = b
        m.append(k + ell - 1 - prev)
        if sum(m[1::2]) % 2 == parity:
            members.append(DominantWeight(tuple(m)))
    members.sort(key=lambda w: w.m)
    return members


def class_size(weight: DominantWeight) -> int:
    """``len(class_members(weight))``, counted without enumerating the class.

    Of the C(k+ell, ell) weak compositions of k into ell+1 parts, those with
    even ev outnumber the others by D = [t^k] (1-t)^-a (1+t)^-b, where a and b
    count the even and the odd indices.  For even ell, a = b + 1 and
    D = C(b + k//2, b); for odd ell, a = b and D = C(b - 1 + k/2, b - 1) when
    k is even, else 0.  That is two binomials at any level, so the size
    guards that call this stay cheap however large k is.
    """
    _check_level(weight)
    k, ell = weight.level, weight.ell
    odd = (ell + 1) // 2
    if ell % 2 == 0:
        surplus = comb(odd + k // 2, odd)
    else:
        surplus = 0 if k % 2 else comb(odd - 1 + k // 2, odd - 1)
    if ev(weight) % 2:
        surplus = -surplus
    return (comb(k + ell, ell) + surplus) // 2


@dataclass(frozen=True)
class MaximalWeightDatum:
    """A class member together with its minimal solution vector."""

    weight: DominantWeight
    x: RootVector

    @property
    def size(self) -> int:
        return self.x.height


def minimal_solution(y: tuple[int, ...], ell: int) -> RootVector:
    """The unique X with A.X^t = y^t, min X >= 0 and min(X - delta) < 0.

    Requires sum(y) = 0 and sum(i*y_i) even.  The particular solution is the
    closed-form prefix-sum vector; the general solution shifts it by integer
    multiples of the null-root coefficients, and exactly one shift meets both
    minimality conditions.
    """
    datum = cartan(ell)
    moment = sum(t * y[t] for t in range(ell + 1))
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
    shift = -min(xj // dj for xj, dj in zip(xhat, delta))
    x = tuple(xj + shift * dj for xj, dj in zip(xhat, delta))
    assert datum.apply_matrix(x) == tuple(y)
    assert min(x) >= 0 and min(xi - di for xi, di in zip(x, delta)) < 0
    return RootVector(x)


def beta_of(weight: DominantWeight, other: DominantWeight) -> MaximalWeightDatum:
    """The datum of the dominant maximal weight attached to ``other`` in the class of ``weight``."""
    if weight.ell != other.ell or weight.level != other.level:
        raise NotEquivalentError("weights live in different classes")
    y = tuple(a - b for a, b in zip(hub(weight), hub(other)))
    return MaximalWeightDatum(other, minimal_solution(y, weight.ell))


def defect(weight: DominantWeight, beta: RootVector) -> int:
    """(Lambda, beta) - (beta, beta)/2."""
    bb = pairing(beta, beta)
    assert bb % 2 == 0
    return pairing(weight, beta) - bb // 2


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

    The hub h = m - A.x is kept up to date: reflecting at i adds h_i to x_i,
    which subtracts h_i times column i of A from h.
    """
    if len(m) != len(coeffs):
        raise ValueError("rank mismatch")
    if sum(m) < 1:
        raise ValueError("level must be at least 1")
    x = list(coeffs)
    matrix = cartan(len(m) - 1).matrix
    h = [mi - sum(map(mul, row, x)) for mi, row in zip(m, matrix)]
    word: list[int] = []
    bound = 8 * (sum(m) + sum(map(abs, x)) + 2) ** 2
    for _ in range(bound):
        i = next((j for j, v in enumerate(h) if v < 0), None)
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


def sigma_flip(weight: DominantWeight, beta: RootVector) -> tuple[DominantWeight, RootVector]:
    """The diagram involution i -> ell - i applied to both arguments."""
    return weight.sigma(), beta.sigma()
