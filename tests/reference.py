"""Second routes to quantities the package computes one way, for the tests.

Each function here is an independent route that the tests compare the
package's engine against, or a helper only the tests need, kept as it ran in
the package:

* Laurent arithmetic the engines no longer use: powers, the bar involution,
  shifts, evaluation, the bar-symmetry check, quantum integers and quantum
  factorials, as functions of a ``LaurentPolynomial``;
* ``add_node`` of a multipartition, the standard tableaux of a shape and
  their degrees, the filling-by-filling route to the graded dimensions;
* the value-object arrow test of the quiver (``apply_move``, ``_shift``,
  ``_raised``, ``arrow_test``), which decides an arrow by raising the
  solution vector instead of by the two bitmasks of ``klrc.quiver``;
* the per-source quiver builder (``build_quiver``), which runs the two-mask
  test once per candidate move of each source and sorts each source's
  arrows, where ``klrc.quiver.build_quiver`` runs it once per move over
  vertex bitsets;
* the ε-coordinate class model (``finite_part``, ``class_model``,
  ``lowered_finite_part``), which lists a class by its finite parts instead
  of by stars and bars and the parity of ev;
* ``sigma_flip``, ``minimal_weight`` of a case instance, and
  ``residue_word``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import add, lt, sub
from typing import Iterable, Iterator, Sequence

from klrc.cartan import DominantWeight, RootVector, cartan
from klrc.classifier import CaseInstance, _holds
from klrc.fock import Multipartition, Node, node_degree, residue
from klrc.laurent import LaurentPolynomial, _wrap
from klrc.maxweights import MaximalWeightDatum, _class_pass
from klrc.quiver import (STEPS, MaxWeightQuiver, MoveLabel, _below_masks, _candidate_keys,
                         _move_table, delta_vector)

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


def add_node(mp: Multipartition, node: Node) -> Multipartition:
    """``mp`` with the addable node (component, row, column) added, 1-based."""
    s, a, b = node
    part = list(mp.components[s - 1])
    if a == len(part) + 1:
        part.append(1)
    else:
        part[a - 1] += 1
    assert part[a - 1] == b
    comps = list(mp.components)
    comps[s - 1] = tuple(part)
    return Multipartition(tuple(comps))


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
                yield from grow(add_node(current, node), order + (node,))

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


def build_quiver(weight: DominantWeight) -> MaxWeightQuiver:
    """The quiver built one source at a time: the two-mask test runs on each
    candidate move of each member, and each source's arrows are sorted by
    target, then label text."""
    members = _class_pass(weight.m)
    index = {m: n for n, (m, _) in enumerate(members)}
    null = cartan(weight.ell).delta_coeffs
    table = _move_table(weight.ell)
    rows = []
    for s, (m, x) in enumerate(members):
        one, two = _below_masks(x, null)
        found = []
        for key in _candidate_keys(m):
            move = table[key]
            if not (one & move.zero or two & move.low):
                continue
            shifted = list(m)
            for n in move.removed:
                shifted[n] -= 1
            for n in move.added:
                shifted[n] += 1
            t = index[tuple(shifted)]
            raised = tuple(map(add, x, move.delta.coeffs))
            # the raised vector drops below the null root and agrees with the
            # target's own minimal solution
            assert any(map(lt, raised, null)), (m, move.label)
            assert raised == members[t][1], (m, move.label)
            found.append((t, move.text, move))
        found.sort()  # by target, then label text: unique per source, so moves never compare
        rows.extend([(s, t, move) for t, _, move in found])
    ms, xs = zip(*members)
    return MaxWeightQuiver(weight, ms, xs, tuple(rows))


# -- the ε-coordinate class model ------------------------------------------


def finite_part(m: Sequence[int]) -> tuple[int, ...]:
    """The ε-coordinates λ_j = Σ_{i≥j} m_i, j = 1..ell, of the finite part of
    the weight with multiplicities ``m`` (every comark of C_ell^(1) is 1)."""
    return tuple(sum(m[j:]) for j in range(1, len(m)))


def class_model(root: Sequence[int]) -> list[tuple[int, ...]]:
    """The class of ``root`` in ε-coordinates: the dominant finite parts μ with
    k ≥ μ_1 ≥ … ≥ μ_ell ≥ 0 and Σμ ≡ Σλ (mod 2), λ the finite part of
    ``root`` and k its level, read back as multiplicities
    m = (k − μ_1, μ_1 − μ_2, …, μ_ell), in lexicographic order of m."""
    k, ell = sum(root), len(root) - 1
    parity = sum(finite_part(root)) % 2
    members = []
    for rising in combinations_with_replacement(range(k + 1), ell):  # μ_ell ≤ … ≤ μ_1
        if sum(rising) % 2 == parity:
            mu = (k,) + rising[::-1] + (0,)
            members.append(tuple(map(sub, mu, mu[1:])))
    return sorted(members)


def lowered_finite_part(root: Sequence[int], x: Sequence[int]) -> tuple[int, ...]:
    """The finite part of Λ − β, Λ with multiplicities ``root`` and β with
    coefficients ``x``: λ + 2x_0·e_1 − Σ_{0<i<ell} x_i(e_i − e_{i+1}) − 2x_ell·e_ell."""
    ell = len(root) - 1
    mu = list(finite_part(root))
    mu[0] += 2 * x[0]
    for i in range(1, ell):
        mu[i - 1] -= x[i]
        mu[i] += x[i]
    mu[ell - 1] -= 2 * x[ell]
    return tuple(mu)


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
