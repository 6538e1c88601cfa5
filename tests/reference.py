"""Second routes to quantities the package computes one way, for the tests.

Each function here is an independent route that the tests compare the
package's engine against, or a helper only the tests need, kept as it ran in
the package:

* Laurent arithmetic the engines no longer use: powers, the bar involution,
  shifts, evaluation, the bar-symmetry check, quantum integers and quantum
  factorials, as functions of a ``LaurentPolynomial``;
* the standard tableaux of a shape and their degrees, the filling-by-filling
  route to the graded dimensions;
* the value-object arrow test of the quiver (``apply_move``, ``_shift``,
  ``_raised``, ``arrow_test``), which decides an arrow by raising the
  solution vector instead of by the two bitmasks of ``klrc.quiver``;
* ``sigma_flip``, ``minimal_weight`` of a case instance, and
  ``residue_word``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, lt
from typing import Iterable, Iterator, Sequence

from klrc.cartan import DominantWeight, RootVector, cartan
from klrc.classifier import CaseInstance, _holds
from klrc.fock import Multipartition, Node, node_degree, residue
from klrc.laurent import LaurentPolynomial, _wrap
from klrc.maxweights import MaximalWeightDatum
from klrc.quiver import STEPS, MoveLabel, delta_vector

# -- Laurent polynomials -------------------------------------------------


def power(p: LaurentPolynomial, n: int) -> LaurentPolynomial:
    """``p`` to the nonnegative power ``n``."""
    if n < 0:
        raise ValueError("negative powers are not defined for polynomials")
    result = LaurentPolynomial.one()
    base = p
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def bar(p: LaurentPolynomial) -> LaurentPolynomial:
    """The bar involution q -> q^-1."""
    return _wrap({-e: c for e, c in p._coeffs.items()})


def shift(p: LaurentPolynomial, exp: int) -> LaurentPolynomial:
    """Multiply by q^exp."""
    return _wrap({e + exp: c for e, c in p._coeffs.items()})


def evaluate(p: LaurentPolynomial, value: int) -> int:
    """Evaluate at an integer (negative exponents require |value| = 1)."""
    total = 0
    for e, c in p._coeffs.items():
        if e < 0 and abs(value) != 1:
            raise ValueError("cannot evaluate negative exponents at non-unit integers")
        total += c * value**e if e >= 0 else c * value ** (-e)
    return total


def is_bar_symmetric_about(p: LaurentPolynomial, center: int) -> bool:
    """True when coefficients are symmetric about exponent ``center`` (2*center even)."""
    return all(c == p._coeffs.get(2 * center - e, 0) for e, c in p._coeffs.items())


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


# -- standard tableaux ---------------------------------------------------


@dataclass(frozen=True)
class StdTableau:
    """A standard filling, stored as the node receiving each of 1..n in order."""

    shape: Multipartition
    order: tuple[Node, ...]

    def residue_sequence(self, charges: Sequence[int], ell: int) -> tuple[int, ...]:
        return tuple(residue(charges, node, ell) for node in self.order)


def standard_tableaux(shape: Multipartition) -> Iterator[StdTableau]:
    """All standard fillings, generated by growing from the empty shape."""
    n = shape.size

    def grow(current: Multipartition, order: tuple[Node, ...]) -> Iterator[tuple[Node, ...]]:
        if len(order) == n:
            yield order
            return
        for node in current.addable_nodes():
            s, a, b = node
            target = shape.components[s - 1]
            if a <= len(target) and target[a - 1] >= b:
                yield from grow(current.add_node(node), order + (node,))

    for order in grow(Multipartition.empty(shape.k), ()):
        yield StdTableau(shape, order)


def degree(charges: Sequence[int], tableau: StdTableau, ell: int) -> int:
    """Degree of a standard tableau, peeling n, n-1, ..., 1."""
    total = 0
    shape = tableau.shape
    for node in reversed(tableau.order):
        total += node_degree(charges, shape, node, ell)
        shape = shape.remove_node(node)
    return total


# -- the value-object arrow test -----------------------------------------


def _shift(m: tuple[int, ...], label: MoveLabel) -> tuple[int, ...] | None:
    """The multiplicities ``m`` re-indexed by the move, or None when ``m`` lacks
    the multiplicity the move removes.  The label is not validated."""
    index = label.index
    shifted = list(m)
    for n in index:
        shifted[n] -= 1
        if shifted[n] < 0:
            return None
    for n, step in zip(index, STEPS[label.kind]):
        shifted[n + step] += 1
    return tuple(shifted)


def apply_move(weight: DominantWeight, label: MoveLabel) -> DominantWeight:
    """Re-index fundamental weights according to the move."""
    label.validate(weight.ell)
    m = _shift(weight.m, label)
    if m is None:
        raise ValueError(f"{weight} lacks the multiplicity for move {label}")
    return DominantWeight(m)


def _raised(x: tuple[int, ...], delta: tuple[int, ...],
            null: tuple[int, ...]) -> tuple[int, ...] | None:
    """``x + delta`` when it still drops below ``null`` somewhere, else None."""
    raised = tuple(map(add, x, delta))
    return raised if any(map(lt, raised, null)) else None


def arrow_test(source: MaximalWeightDatum, label: MoveLabel) -> MaximalWeightDatum | None:
    """The target datum when the move yields an arrow out of ``source``.

    The move is an arrow exactly when the raised vector still drops below the
    null-root coefficients somewhere; otherwise the underlying edge points
    back toward ``source`` and None is returned.
    """
    ell = source.weight.ell
    target_weight = apply_move(source.weight, label)
    x = _raised(source.x.coeffs, delta_vector(label, ell).coeffs, cartan(ell).delta_coeffs)
    if x is None:
        return None
    return MaximalWeightDatum(target_weight, RootVector(x))


# -- other helpers -------------------------------------------------------


def sigma_flip(weight: DominantWeight, beta: RootVector) -> tuple[DominantWeight, RootVector]:
    """The diagram involution i -> ell - i applied to both arguments."""
    return weight.sigma(), beta.sigma()


def minimal_weight(case: CaseInstance) -> DominantWeight:
    """The smallest dominant weight satisfying the case's constraints."""
    m = [0] * len(case.beta)
    for i, _, value in case.constraints:
        m[i] = max(m[i], value)
    if sum(m) < 2:
        free = next(i for i in range(len(m))
                    if not any(c[0] == i and c[1] == "==" for c in case.constraints))
        m[free] += 2 - sum(m)
    if any(all(_holds(m, c) for c in group) for group in case.exclusions):
        bump = next(i for i, op, _ in case.constraints if op == ">=")
        m[bump] += 1
    weight = DominantWeight(tuple(m))
    assert case.matches(weight.m, case.beta)
    return weight


def residue_word(word: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The residue sequence obtained by expanding the divided powers, in application order."""
    out: list[int] = []
    for i, power in reversed(tuple(word)):
        out.extend([i] * power)
    return tuple(out)
