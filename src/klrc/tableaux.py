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

from .cartan import DominantWeight, GuardError, RootVector
from .fock import (FWord, Multipartition, Shape, _hom, _summed_expansion, node_degree, residue,
                   word_content)
from .laurent import ZERO, LaurentPolynomial

DEFAULT_MAX_BOXES = 12
DEFAULT_MAX_COMPONENTS = 5


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


def _single_steps(ell: int, beta: RootVector, nus: Sequence[Sequence[int]],
                  name: str) -> list[FWord]:
    """Each residue sequence as a word of single steps, checked to have content beta."""
    words = []
    for nu in nus:
        word = tuple([(r, 1) for r in reversed(nu)])
        content = word_content(word, ell)
        if content != beta:
            raise ValueError(f"{name} {tuple(nu)} has content {content.coeffs}, "
                             f"expected {beta.coeffs}")
        words.append(word)
    return words


def graded_hom_dim(weight: DominantWeight, beta: RootVector,
                   nu: Sequence[int], nu_prime: Sequence[int] | None = None, *,
                   max_n: int = DEFAULT_MAX_BOXES) -> LaurentPolynomial:
    """Graded dimension of the (nu, nu') idempotent truncation of the block at beta.

    Sums K(nu, shape) * K(nu', shape) over all multipartitions of |beta| with
    one component per charge, as the Hom dimension of two Fock expansions.
    """
    return graded_hom_dim_block(weight, beta, [nu], None if nu_prime is None else [nu_prime],
                                max_n=max_n)


def graded_hom_dim_block(weight: DominantWeight, beta: RootVector,
                         nus: Sequence[Sequence[int]],
                         nus_prime: Sequence[Sequence[int]] | None = None, *,
                         max_n: int = DEFAULT_MAX_BOXES) -> LaurentPolynomial:
    """Graded dimension of a block truncation by sums of idempotents.

    By bilinearity, the Hom dimension of the summed expansions of ``nus`` and
    of ``nus_prime`` (``nus`` when omitted); equal sides are expanded once.
    """
    if not beta.in_positive_cone():
        raise ValueError("beta must lie in the positive cone")
    if beta.height > max_n:
        raise GuardError(f"{beta.height} boxes exceeds the cap of {max_n}")
    if weight.level > DEFAULT_MAX_COMPONENTS:
        raise GuardError(f"{weight.level} components exceeds the cap of {DEFAULT_MAX_COMPONENTS}")
    words = _single_steps(weight.ell, beta, nus, "nu")
    words_prime = (words if nus_prime is None
                   else _single_steps(weight.ell, beta, nus_prime, "nu'"))
    left = _summed_expansion(weight, words)
    right = left if words_prime == words else _summed_expansion(weight, words_prime)
    return _hom(left, right)
