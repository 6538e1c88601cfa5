"""Dominant maximal weights of level-k highest weight modules in affine type C.

A weight Lambda' equivalent to Lambda determines the unique vector X with
A.X^t = hub(Lambda) - hub(Lambda') that is nonnegative and drops below the
null-root coefficients somewhere; Lambda - beta(X) is then a dominant maximal
weight, and every dominant maximal weight arises this way.

The class pass works in ε-coordinates (Kac, *Infinite-dimensional Lie
algebras*, §6.5).  Every comark is 1, so a level-k weight with
multiplicities m has the finite part lam_j = m_j + ... + m_ell, j = 1..ell.
The class of a root is the finite parts mu with
k >= mu_1 >= ... >= mu_ell >= 0 and sum(mu) = sum(lam) modulo 2 (the parity
of sum(mu) is that of ev), read back as m = (k - mu_1, mu_1 - mu_2, ...,
mu_ell).  ``combinations_with_replacement`` over k, k-1, ..., 0 yields the
mu in descending lexicographic order, which is ascending lexicographic
order of m, with no recursion at any rank.

One prefix-and-shift rule gives every minimal solution: the prefix form
xhat_0 = 0, xhat_j = (lam_1 - mu_1) + ... + (lam_j - mu_j), halved at
j = ell (an integer on the class), then the shift x = xhat - n*delta with
n = min_j floor(xhat_j / delta_j), which leaves x >= 0 and x_j < delta_j
for some j.  ``_minimal`` is the rule's single-vector form and ``_reduce``
its shift, which asserts both conditions: ``minimal_solution`` and
``beta_of`` enter it through ``_solve`` with
lam_s - mu_s = -(y_0 + ... + y_{s-1}), and ``delta_decompose`` runs the
shift alone.  ``_straighten`` is the one straightening routine, which
``dominantify``, ``reflection_word``, the classifier and the Freudenthal
sum run.

``_class_packed`` is the rule's class form, run a coordinate at a time over
all members: each column of m_j and of x_j is one lane int of
``klrc._lanes``, one 64-bit digit per member, whose docstring shows each
packed step exact.  m_j = mu_j - mu_{j+1} (mu_0 = k, mu_{ell+1} = 0) is one
subtraction as mu descends.  The prefix columns, which can be negative,
carry the lane bias; every |xhat_j| and the shift |n| are at most ell*k,
which ``_lanes.check_depth`` keeps below 2^57.  The member cap, counted by
``_class_size``, and then the depth are checked before any member is built.
``_reduce``'s checks hold for every member, asserted in packed form:
0 <= x < 2^59, x - delta < 0 somewhere, and A.x + m = root, row by row of
the band of A.  ``_class_columns`` unpacks the columns in place, m_j to
lists and x_j to int64 arrays (at deep rank most x entries lie outside the
small ints, and a list would hold each as an object of its own), so each
column is held once, packed or not: the class of Λ0 at ell = 1,200 peaks
under 15 MiB of traced allocations.  ``class_members`` and the
``maxweights`` subcommand read the columns a member at a time, and
``build_quiver`` reads its vertex bitsets off the packed columns with the
lane masks the pass returns.  The tests tie the two forms together through
the stars-and-bars class pass of ``tests/reference.py``.

The defect (Lambda, beta) - (beta, beta)/2 has one identity in the same two
forms.  With (Lambda, alpha_j) = d_j m_j, (alpha_i, alpha_j) = d_i a_ij and
the hub h = m - A.x of Lambda - beta, twice the defect is
sum_j d_j x_j (2 m_j - (A.x)_j) = sum_j d_j x_j (m_j + h_j).  ``_defect`` is
its single-vector form, which ``defect`` runs, with h read from the band of
A.  ``_defects`` is its class form, which the ``maxweights`` subcommand
runs: on every member m' of the class of the root Lambda, with x its
minimal solution, A.x = m - m', so the hub is m' itself and the sum is
sum_j d_j x_j (m_j + m'_j), taken a column at a time over the columns of
``_class_columns`` with no product by A.  The tests check both forms
against the ε-coordinate model of ``tests/reference.py``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations_with_replacement, compress, repeat, tee
from math import comb
from operator import add, and_, eq, floordiv, mod, mul, neg, sub
from typing import Iterable, Sequence

from . import _lanes as lanes
from .cartan import DominantWeight, GuardError, RootVector, cartan

DEFAULT_MAX_VERTICES = 5000


class NotEquivalentError(ValueError):
    """The two weights do not lie in the same equivalence class."""


def ev(weight: DominantWeight) -> int:
    """Sum of the fundamental multiplicities at odd indices."""
    return sum(weight.m[i] for i in range(1, weight.ell + 1, 2))


def _class_packed(root: tuple[int, ...], max_members: int = DEFAULT_MAX_VERTICES
                  ) -> tuple[int, tuple[int, int, int], list[int], list[int]]:
    """``(size, masks, m_cols, x_cols)``: the columns of ``_class_columns``,
    each one 64-bit lane int, and ``masks`` the ``_lanes.masks(size)`` they
    were built with (module docstring).  GuardError as ``_class_columns``."""
    size = _class_size(root)
    if size > max_members:
        raise GuardError(f"class has {size} members, cap is {max_members}")
    k, ell = sum(root), len(root) - 1
    lanes.check_depth(ell * k)
    datum = cartan(ell)
    lam = tuple(accumulate(root[:0:-1]))[::-1]  # lam_j = sum_{i>=j} m_i, j = 1..ell
    parity = sum(lam) % 2
    mus, sums = tee(combinations_with_replacement(range(k, -1, -1), ell))
    kept = compress(mus, map(eq, map(mod, map(sum, sums), repeat(2)), repeat(parity)))
    masks = ones, top, low = lanes.masks(size)
    bias = lanes.BIAS * ones
    m_cols, x_cols = [], [bias]
    left = k * ones
    for lam_s, mu_s in zip(lam, zip(*kept)):
        mu = lanes.pack(mu_s)
        m_cols.append(left - mu)
        x_cols.append(x_cols[-1] + lam_s * ones - mu)
        left = mu
    m_cols.append(left)
    x_cols[-1] = lanes.halve(x_cols[-1], low, bias)
    delta = datum.delta_coeffs
    floors = (xhat if d == 1 else lanes.halve(xhat, low, bias) for xhat, d in zip(x_cols, delta))
    n = reduce(lambda n, q: lanes.lane_min(n, q, top), floors)
    shifts = {d: d * n - (d - 1) * bias for d in set(delta)}
    for j, d in enumerate(delta):
        x_cols[j] -= shifts[d]
    if __debug__:
        assert all(lanes.in_range(x, 59, ones) for x in x_cols)
        # x - delta < 0 somewhere: no member has x_j >= delta_j at every j
        assert not reduce(and_, [lanes.at_least(x, d * ones, top) for x, d in zip(x_cols, delta)])
        # A.x + m = root: every x and m is below 2^59, so each member's entry
        # of row i of A.x + m, and its difference from root_i, lies within
        # 2^63 of 0: the row is root_i * ONES exactly when every member's
        # entry is root_i
        padded = [0, *x_cols, 0]
        for i, (a, b, c) in enumerate(datum._band):
            assert (a * padded[i] + b * padded[i + 1] + c * padded[i + 2] + m_cols[i]
                    == root[i] * ones), i
    return size, masks, m_cols, x_cols


def _class_columns(root: tuple[int, ...], max_members: int = DEFAULT_MAX_VERTICES
                   ) -> tuple[list[list[int]], list[array]]:
    """The class of the multiplicities ``root`` as coordinate columns: the
    ell+1 lists of m_j and the ell+1 int64 arrays of x_j over all members m,
    x the minimal solution of m, with the members in lexicographic order of m
    (module docstring).  GuardError, before any member is built, when the
    class has more than ``max_members`` members or rank times level reaches
    ``_lanes.DEPTH_CAP``."""
    size, _, m_cols, x_cols = _class_packed(root, max_members)
    for j in range(len(m_cols)):
        m_cols[j] = lanes.unpack(m_cols[j], size).tolist()
        x_cols[j] = lanes.unpack(x_cols[j], size)
    return m_cols, x_cols


def class_members(weight: DominantWeight) -> list[DominantWeight]:
    """All level-k dominant weights equivalent to ``weight``.

    Membership is the parity condition: ev agrees modulo 2.  The result is
    sorted lexicographically on the multiplicity vector.  A class of more than
    ``DEFAULT_MAX_VERTICES`` members raises GuardError before any is listed.
    """
    return [DominantWeight(m) for m in zip(*_class_columns(weight.m)[0])]


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
    difference of the finite parts of Lambda and Lambda', by the prefix rule
    (module docstring)."""
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
    """The unique X with A.X^t = y^t, min X >= 0 and min(X - delta) < 0, by the
    prefix-and-shift rule of the module docstring.  NotEquivalentError
    unless sum(y) = 0 and sum(i*y_i) is even."""
    return RootVector(_solve(tuple(y), ell))


def beta_of(weight: DominantWeight, other: DominantWeight) -> MaximalWeightDatum:
    """The datum of the dominant maximal weight attached to ``other`` in the class of ``weight``."""
    if weight.ell != other.ell or weight.level != other.level:
        raise NotEquivalentError("weights live in different classes")
    return MaximalWeightDatum(other, RootVector(_solve(tuple(map(sub, weight.m, other.m)),
                                                       weight.ell)))


def _defect(m: tuple[int, ...], x: tuple[int, ...]) -> int:
    """``defect`` on plain tuples, from the multiplicities m of Lambda and the
    coefficients x of beta: half of sum_j d_j x_j (m_j + h_j), with the hub
    entry h_j = m_j - (A.x)_j read from row j of the band of A (the module
    docstring's identity)."""
    datum = cartan(len(m) - 1)
    p = (0, *x, 0)  # x_j at p[j + 1], with 0 past either end
    twice = sum([d * p[j + 1] * (mj + (mj - a * p[j] - b * p[j + 1] - c * p[j + 2]))
                 for j, ((a, b, c), d, mj) in enumerate(zip(datum._band, datum.d, m))])
    assert twice % 2 == 0
    return twice // 2


def _defects(root: tuple[int, ...], m_cols: Sequence[Sequence[int]],
             x_cols: Sequence[Sequence[int]]) -> list[int]:
    """``_defect`` of ``root`` and each member's x, from the columns of
    ``_class_columns``, a coordinate at a time: on a member the hub
    root - A.x is the member's m, which the class pass asserts, so twice the
    defect is sum_j d_j x_j (root_j + m_j), summed column by column and
    asserted even for every member."""
    twice: Iterable[int] = repeat(0)
    for r, d, hub, x in zip(root, cartan(len(root) - 1).d, m_cols, x_cols):
        twice = list(map(add, twice, map(mul, map(mul, x, repeat(d)), map(add, repeat(r), hub))))
    assert not any(map(mod, twice, repeat(2)))
    return list(map(floordiv, twice, repeat(2)))


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
