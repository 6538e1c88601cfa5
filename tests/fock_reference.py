"""The Fock step on Laurent coefficients: the reference for the packed engine.

``_step`` and ``_divided`` are the engine as it ran on ``LaurentPolynomial``
coefficients before ``klrc.fock`` packed them into integers, kept verbatim.
The functions below them give the reference answers of the public
``expand``, ``apply_f``, ``apply_divided_f`` and ``hom_dim``.
"""

from __future__ import annotations

from typing import Sequence

from klrc.cartan import cartan, fold_residue
from klrc.fock import FockVector, Multipartition, Shape
from klrc.laurent import ONE, ZERO, LaurentPolynomial, quantum_factorial

Terms = dict[Shape, LaurentPolynomial]


def _step(charges: Sequence[int], ell: int, terms: Terms, i: int) -> Terms:
    """One residue-i step on bare shapes, each degree read off one upward scan."""
    period = 2 * ell
    hit = [fold_residue(c, ell) == i for c in range(period)]
    d = cartan(ell).d[i]
    acc: Terms = {}
    for shape, coeff in terms.items():
        count = 0  # addable minus removable i-nodes below the current row
        for s in range(len(shape) - 1, -1, -1):
            part, charge = shape[s], charges[s]
            below = 0
            for a in range(len(part), -1, -1):  # 0-based rows, the empty row first
                row = part[a] if a < len(part) else 0
                if (a == 0 or row < part[a - 1]) and hit[(row - a + charge) % period]:
                    grown = shape[:s] + (part[:a] + (row + 1,) + part[a + 1:],) + shape[s + 1:]
                    weight = coeff.shift(d * count)
                    prev = acc.get(grown)
                    acc[grown] = weight if prev is None else prev + weight
                    count += 1
                elif row > below and hit[(row - 1 - a + charge) % period]:
                    count -= 1
                below = row
    return acc


def _divided(charges: Sequence[int], ell: int, terms: Terms, i: int, power: int) -> Terms:
    """``power`` steps, then exact division of every coefficient by [power]!."""
    for _ in range(power):
        terms = _step(charges, ell, terms, i)
    if power == 1 or not terms:
        return terms
    factorial = quantum_factorial(power, cartan(ell).d[i])
    return {shape: c.exact_div(factorial) for shape, c in terms.items()}


def _vector(charges: tuple[int, ...], ell: int, terms: Terms) -> FockVector:
    return FockVector.from_dict(charges, ell,
                                {Multipartition(shape): c for shape, c in terms.items()})


def apply_divided_f(vector: FockVector, i: int, power: int) -> FockVector:
    terms = {mp.components: c for mp, c in vector.terms}
    return _vector(vector.charges, vector.ell,
                   _divided(vector.charges, vector.ell, terms, i, power))


def apply_f(vector: FockVector, i: int) -> FockVector:
    return apply_divided_f(vector, i, 1)


def expand(weight, word) -> FockVector:
    terms: Terms = {((),) * weight.level: ONE}
    for i, power in reversed(tuple(word)):
        terms = _divided(weight.charges, weight.ell, terms, i, power)
    return _vector(weight.charges, weight.ell, terms)


def hom_dim(left: FockVector, right: FockVector) -> LaurentPolynomial:
    table = dict(right.terms)
    total = ZERO
    for mp, c in left.terms:
        other = table.get(mp)
        if other is not None:
            total = total + c * other
    return total
