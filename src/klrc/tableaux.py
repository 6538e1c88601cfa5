"""Graded dimensions of idempotent truncations, and their tableau reference.

dim_q e(nu) A e(nu') for the block at beta is the sum over multipartitions of
K(nu, shape) * K(nu', shape), K the degree generating function of standard
fillings.  ``graded_hom_dim`` computes it with the Fock engine, where K(nu,
shape) is the coefficient of the shape in the expansion of nu as single steps.
The tableau route (``multipartitions``, ``kostka_q`` with its cache
``_kostka_peel``, and ``node_degree``) enumerates every shape and peels each
one.  The package never calls it: it stays here, as the reference the tests
compare against, because the benchmark's tracer (``bench/tracing.py``) binds
these names.  The filling-by-filling route (``standard_tableaux``,
``degree``) lives in ``tests/reference.py``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .cartan import DominantWeight, RootVector
from .fock import (DEFAULT_MAX_BOXES, Multipartition, Shape, _check_size, _expand, _hom,
                   node_degree, residue, word_content)
from .laurent import ZERO, LaurentPolynomial


def kostka_q(charges: Sequence[int], nu: Sequence[int], shape: Multipartition,
             ell: int) -> LaurentPolynomial:
    """Sum of q^deg over standard fillings of ``shape`` with residue sequence ``nu``.

    Computed by peeling removable boxes whose residue matches the tail of nu,
    accumulating degrees without materializing fillings.  Subproblems are
    cached on (charges, residue prefix, shape), so shapes enumerated within
    one block query share their peeled tails.
    """
    if len(nu) != shape.size:
        return ZERO
    return _kostka_peel(tuple(charges), tuple(nu), shape.components, ell)


@lru_cache(maxsize=200_000)
def _kostka_peel(charges: tuple[int, ...], nu: tuple[int, ...], shape: Shape,
                 ell: int) -> LaurentPolynomial:
    current = Multipartition(shape)
    t = current.size
    if t == 0:
        return LaurentPolynomial.one()
    want = nu[t - 1]
    acc = ZERO
    for node in current.removable_nodes():
        if residue(charges, node, ell) != want:
            continue
        step = LaurentPolynomial.q(node_degree(charges, current, node, ell))
        acc = acc + step * _kostka_peel(charges, nu[:t - 1],
                                        current.remove_node(node).components, ell)
    return acc


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n with no part above ``largest``, largest first part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def multipartitions(n: int, k: int) -> Iterator[Multipartition]:
    """All k-component multipartitions of n."""

    def split(remaining: int, comps: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if comps == 1:
            for part in _partitions(remaining, remaining):
                yield (part,)
            return
        for first in range(remaining + 1):
            for part in _partitions(first, first):
                for rest in split(remaining - first, comps - 1):
                    yield (part,) + rest

    for comps in split(n, k):
        yield Multipartition(comps)


def _single_steps(ell: int, beta: RootVector, nu: Sequence[int],
                  name: str) -> tuple[tuple[int, int], ...]:
    """The residue sequence as single steps in application order, checked to
    have content beta; the residues are checked as a word, last one first."""
    factors = tuple([(r, 1) for r in nu])
    content = word_content(reversed(factors), ell)
    if content != beta:
        raise ValueError(f"{name} {tuple(nu)} has content {content.coeffs}, "
                         f"expected {beta.coeffs}")
    return factors


def graded_hom_dim(weight: DominantWeight, beta: RootVector,
                   nu: Sequence[int], nu_prime: Sequence[int] | None = None, *,
                   max_n: int = DEFAULT_MAX_BOXES) -> LaurentPolynomial:
    """Graded dimension of the (nu, nu') idempotent truncation of the block at beta.

    Sums K(nu, shape) * K(nu', shape) over all multipartitions of |beta| with
    one component per charge, as the Hom dimension of the Fock expansions of
    nu and nu' read as single steps; nu' defaults to nu, and equal sequences
    are expanded once.  Checks beta, then the caps (GuardError), then the
    content of nu and of nu', before the first expansion.
    """
    if not beta.in_positive_cone():
        raise ValueError("beta must lie in the positive cone")
    _check_size(weight, beta.height, max_n)
    factors = _single_steps(weight.ell, beta, nu, "nu")
    factors_prime = (factors if nu_prime is None
                     else _single_steps(weight.ell, beta, nu_prime, "nu'"))
    left = _expand(weight, factors)
    return _hom(left, left if factors_prime == factors else _expand(weight, factors_prime))
