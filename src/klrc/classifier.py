"""Representation type of the block attached to a dominant weight and a root.

The decision pipeline straightens the root into the dominant chamber, splits
off null-root multiples, dispatches level one to its complete trichotomy, and
at higher level matches the reduced pair against the finite and tame case
tables; anything unmatched is wild.  The pipeline is ``_classify(m, x, p)``
on plain tuples (``maxweights._straighten``, ``_reduce``, ``apply_matrix``):
``classify`` checks beta with ``cartan._coefficients`` and calls it, and the
``classify`` subcommand calls it on the tuples it has checked once.
The case list is generated once per rank (``_generate_cases``) straight into
``_case_index``, its cases grouped by beta in list order; the flat table the
tests read lives in ``tests/reference.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from operator import sub
from typing import Iterator, Sequence

from .cartan import RANK_CACHE_SIZE, DominantWeight, RootVector, _coefficients, cartan
from .laurent import LaurentPolynomial
from .maxweights import _reduce, _straighten


class RepType(enum.Enum):
    ZERO = "Zero"
    FINITE = "Finite"
    TAME = "Tame"
    WILD = "Wild"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Verdict:
    rep_type: RepType
    tag: str
    char_assumption: str = "none"

    def __str__(self) -> str:
        text = str(self.rep_type)
        if self.tag not in ("zero", "trivial"):
            text += f" ({self.tag})"
        if self.char_assumption != "none":
            text += f" [{self.char_assumption}]"
        return text


Constraint = tuple[int, str, int]  # (index, "==" or ">=", value)


@dataclass(frozen=True)
class CaseInstance:
    """One parameter instantiation of a finite or tame case."""

    tag: str
    rep_type: RepType
    beta: tuple[int, ...]
    constraints: tuple[Constraint, ...]
    exclusions: tuple[tuple[Constraint, ...], ...] = ()
    char_ne: int | None = None

    def matches(self, m: Sequence[int], x: Sequence[int]) -> bool:
        if tuple(x) != self.beta:
            return False
        if not all(_holds(m, c) for c in self.constraints):
            return False
        return not any(all(_holds(m, c) for c in group) for group in self.exclusions)


def _holds(m: Sequence[int], constraint: Constraint) -> bool:
    i, op, value = constraint
    return m[i] == value if op == "==" else m[i] >= value


def _beta(ell: int, counts: dict[int, int]) -> tuple[int, ...]:
    x = [0] * (ell + 1)
    for i, c in counts.items():
        x[i] = c
    return tuple(x)


def _interval(a: int, b: int, coeff: int = 1) -> dict[int, int]:
    return {i: coeff for i in range(a, b + 1)}


def _generate_cases(ell: int) -> Iterator[CaseInstance]:
    """All finite and tame case instances at the given rank, finite cases first."""
    F, T = RepType.FINITE, RepType.TAME

    # finite cases
    for a in range(ell + 1):
        yield CaseInstance("f1", F, _beta(ell, {a: 1}), ((a, ">=", 2),))
    beta01 = _beta(ell, {0: 1, 1: 1})
    yield CaseInstance("f2", F, beta01, ((0, ">=", 1), (1, "==", 0)))
    yield CaseInstance("f2", F, beta01, ((0, "==", 1), (1, "==", 1)))
    beta_top = _beta(ell, {ell - 1: 1, ell: 1})
    yield CaseInstance("f3", F, beta_top, ((ell - 1, "==", 0), (ell, ">=", 1)))
    yield CaseInstance("f3", F, beta_top, ((ell - 1, "==", 1), (ell, "==", 1)))
    for a in range(1, ell):
        for b in range(a + 1, ell):
            cons = tuple((i, "==", 1 if i in (a, b) else 0) for i in range(a, b + 1))
            yield CaseInstance("f4", F, _beta(ell, _interval(a, b)), cons)
    for a in range(ell - 1):
        counts = {0: 1, a + 1: 1} | _interval(1, a, 2)
        cons = tuple((i, "==", 1 if i == a else 0) for i in range(a + 2))
        yield CaseInstance("f5", F, _beta(ell, counts), cons)
    for b in range(2, ell + 1):
        counts = {b - 1: 1, ell: 1} | _interval(b, ell - 1, 2)
        cons = tuple((i, "==", 1 if i == b else 0) for i in range(b - 1, ell + 1))
        yield CaseInstance("f6", F, _beta(ell, counts), cons)

    # tame cases
    yield CaseInstance("t1", T, _beta(ell, {0: 1, 1: 2}), ((0, "==", 0), (1, "==", 2)))
    yield CaseInstance("t2", T, _beta(ell, {ell - 1: 2, ell: 1}),
                       ((ell - 1, "==", 2), (ell, "==", 0)))
    yield CaseInstance("t3", T, beta01, ((0, ">=", 2), (1, "==", 1)))
    yield CaseInstance("t4", T, beta_top, ((ell - 1, "==", 1), (ell, ">=", 2)))
    for a in range(1, ell):
        cons = ((0, ">=", 1),) + tuple((i, "==", 1 if i == a else 0) for i in range(1, a + 1))
        exc = (((0, "==", 1),),) if a == 1 else ()
        yield CaseInstance("t5", T, _beta(ell, _interval(0, a)), cons, exc)
    for a in range(1, ell):
        cons = ((ell, ">=", 1),) + tuple((i, "==", 1 if i == a else 0) for i in range(a, ell))
        exc = (((ell, "==", 1),),) if a == ell - 1 else ()
        yield CaseInstance("t6", T, _beta(ell, _interval(a, ell)), cons, exc)
    yield CaseInstance("t7", T, beta01, ((0, "==", 1), (1, "==", 2)))
    yield CaseInstance("t8", T, beta_top, ((ell - 1, "==", 2), (ell, "==", 1)))
    for a in range(1, ell):
        for b in range(a + 1, ell):
            cons = ((a, ">=", 2),) + tuple((i, "==", 1 if i == b else 0)
                                           for i in range(a + 1, b + 1))
            yield CaseInstance("t9", T, _beta(ell, _interval(a, b)), cons)
            cons = ((b, ">=", 2),) + tuple((i, "==", 1 if i == a else 0)
                                           for i in range(a, b))
            yield CaseInstance("t9", T, _beta(ell, _interval(a, b)), cons)
    for i in range(2, ell + 1):
        yield CaseInstance("t10", T, _beta(ell, {0: 1, i: 1}), ((0, "==", 2), (i, "==", 2)))
    for i in range(ell - 1):
        yield CaseInstance("t11", T, _beta(ell, {i: 1, ell: 1}), ((i, "==", 2), (ell, "==", 2)))
    if ell >= 4:
        yield CaseInstance("t12", T, _beta(ell, {0: 1, 1: 1, ell - 1: 1, ell: 1}),
                           ((0, "==", 1), (1, "==", 0), (ell - 1, "==", 0), (ell, "==", 1)))
    for i in range(3, ell + 1):
        yield CaseInstance("t13", T, _beta(ell, {0: 1, 1: 1, i: 1}),
                           ((0, "==", 1), (1, "==", 0), (i, "==", 2)))
    for i in range(ell - 2):
        yield CaseInstance("t14", T, _beta(ell, {i: 1, ell - 1: 1, ell: 1}),
                           ((i, "==", 2), (ell - 1, "==", 0), (ell, "==", 1)))
    for a in range(2, ell - 1):
        yield CaseInstance("t15", T, _beta(ell, {a - 1: 1, a: 2, a + 1: 1}),
                           ((a, "==", 2), (a - 1, "==", 0), (a + 1, "==", 0)), char_ne=2)
    for a in range(1, ell - 1):
        yield CaseInstance("t16", T, _beta(ell, {a: 2, a + 1: 1}),
                           ((a, "==", 3), (a + 1, "==", 0)), char_ne=3)
    for a in range(2, ell):
        yield CaseInstance("t17", T, _beta(ell, {a - 1: 1, a: 2}),
                           ((a, "==", 3), (a - 1, "==", 0)), char_ne=3)
    for a in range(1, ell):
        for b in range(a + 2, ell):
            yield CaseInstance("t18", T, _beta(ell, {a: 1, b: 1}),
                               ((a, "==", 2), (b, "==", 2)))
    for a in range(1, ell):
        yield CaseInstance("t19", T, _beta(ell, {a: 2}), ((a, "==", 4),), char_ne=2)
    yield CaseInstance("t20", T, _beta(ell, {0: 2, 1: 2}), ((0, "==", 2), (1, "==", 0)),
                       char_ne=2)
    yield CaseInstance("t21", T, _beta(ell, {ell - 1: 2, ell: 2}),
                       ((ell - 1, "==", 0), (ell, "==", 2)), char_ne=2)


@lru_cache(maxsize=RANK_CACHE_SIZE)
def _case_index(ell: int) -> dict[tuple[int, ...], tuple[CaseInstance, ...]]:
    """The cases of ``_generate_cases`` grouped by beta, each group in the
    order generated."""
    index: dict[tuple[int, ...], tuple[CaseInstance, ...]] = {}
    for case in _generate_cases(ell):
        index[case.beta] = index.get(case.beta, ()) + (case,)
    return index


def match_case(m: Sequence[int], x: Sequence[int], ell: int) -> CaseInstance | None:
    """First matching case for the pair, finite cases first.  Only the cases
    at beta = x are tried.  The table is closed under the diagram flip
    i -> ell - i (tested), so a flipped pair matches only where the pair
    itself does, and no second pass is needed."""
    for case in _case_index(ell).get(tuple(x), ()):
        if case.matches(m, x):
            return case
    return None


# Trial division decides primality below this bound in at most 2^16 steps.
MAX_CHARACTERISTIC = 2 ** 32


def classify(weight: DominantWeight, beta: RootVector, characteristic: int = 0) -> Verdict:
    """Representation type of the block of ``weight`` at ``beta``.

    ``characteristic`` is the field characteristic: 0 or a prime below
    ``MAX_CHARACTERISTIC``, else ValueError.  Only the distinctions 2, 3 and
    "other" matter.
    """
    return _classify(weight.m, _coefficients(beta.coeffs, len(weight.m)), characteristic)


def _classify(m: tuple[int, ...], x: tuple[int, ...], p: int) -> Verdict:
    """``classify`` on plain tuples of equal length, x in the positive cone:
    ValueError when ``p`` is not 0 or a prime below ``MAX_CHARACTERISTIC``,
    or when the level is 0."""
    prime = 1 < p < MAX_CHARACTERISTIC and all(p % d for d in range(2, isqrt(p) + 1))
    if p != 0 and not prime:
        raise ValueError(f"characteristic {p} is not 0 or a prime below 2^32")
    straightened = _straighten(m, x)[0]  # refuses level 0
    if straightened is None:
        return Verdict(RepType.ZERO, "zero")
    ell = len(m) - 1
    core, null_multiple = _reduce(straightened, cartan(ell).delta_coeffs)

    if sum(m) == 1:
        return _classify_level_one(m, core, null_multiple)

    if null_multiple >= 1:
        return Verdict(RepType.WILD, "non-maximal-wild")
    if not any(core):
        return Verdict(RepType.FINITE, "trivial")

    case = match_case(m, core, ell)
    if case is None:
        return Verdict(RepType.WILD, "wild-otherwise")
    if case.char_ne is not None:
        if p == case.char_ne:
            return Verdict(RepType.WILD, case.tag)
        return Verdict(case.rep_type, case.tag, f"char≠{case.char_ne}")
    return Verdict(case.rep_type, case.tag)


def _classify_level_one(m: tuple[int, ...], core: tuple[int, ...],
                        null_multiple: int) -> Verdict:
    ell = len(m) - 1
    s = m.index(1)
    target_hub = tuple(map(sub, m, cartan(ell).apply_matrix(core)))
    assert min(target_hub) >= 0 and sum(target_hub) == 1
    t = target_hub.index(1)
    if null_multiple == 0 and t in {s, s - 2, s + 2}:
        return Verdict(RepType.FINITE, "level-one")
    if null_multiple == 1 and ell == 2 and t == s:
        return Verdict(RepType.TAME, "level-one")
    return Verdict(RepType.WILD, "level-one")


def wildness_criteria(diag, offdiag=None) -> tuple[RepType, str] | None:
    """Wildness tests reading only graded dimensions of idempotent truncations.

    With a single ``diag`` polynomial (a local truncation): fires when the
    Gabriel quiver is forced to carry at least three loops, or when the first
    two radical layers together have dimension at least five.

    With ``diag`` and ``offdiag`` pairs (a two-vertex truncation): fires when
    the diagonal degree-two parts total at least three and the off-diagonal
    degree-two parts total at least two.

    Returns the wild verdict with the name of the firing criterion, or None
    (no conclusion).
    """
    if offdiag is None:
        p = diag
        if not isinstance(p, LaurentPolynomial):
            raise TypeError("diag must be a Laurent polynomial")
        if p.is_zero() or p.min_exponent < 0 or p.coefficient(0) != 1:
            return None
        c1, c2 = p.coefficient(1), p.coefficient(2)
        if c1 >= 3:
            return (RepType.WILD, "three loops in degree 1")
        if c1 == 0 and c2 >= 3:
            return (RepType.WILD, "three loops in degree 2")
        if c1 == 1 and c2 >= 3:
            return (RepType.WILD, "loop plus three in degree 2")
        if c1 + c2 >= 5:
            return (RepType.WILD, "radical layers of dimension 5")
        return None
    p11, p22 = diag
    p12, p21 = offdiag
    for p in (p11, p22, p12, p21):
        if p and p.min_exponent < 0:
            return None
    if p11.coefficient(0) != 1 or p22.coefficient(0) != 1:
        return None
    if any(p.coefficient(1) != 0 for p in (p11, p22, p12, p21)):
        return None
    if p12.coefficient(0) != 0 or p21.coefficient(0) != 0:
        return None
    m11, m22 = p11.coefficient(2), p22.coefficient(2)
    m12, m21 = p12.coefficient(2), p21.coefficient(2)
    if m11 + m22 >= 3 and m12 + m21 >= 2:
        return (RepType.WILD, "two-vertex subquiver")
    return None
