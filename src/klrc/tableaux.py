"""Graded dimensions of idempotent truncations, and their tableau reference.

dim_q e(nu) A e(nu') for the block at beta is the sum over multipartitions of
K(nu, shape) * K(nu', shape), K the degree generating function of standard
fillings.  ``graded_hom_dim`` computes it with the Fock engine, where K(nu,
shape) is the coefficient of the shape in the expansion of nu as single steps.
It expands nu by its runs instead, each run i^r one divided power f_i^(r),
and scales the sum by the product of the quantum factorials [r]_i! (in
q^(d_i)) of the runs of nu and nu', since f_i^r = [r]_i! f_i^(r).
The tableau route (``multipartitions``, ``kostka_q`` with its cache
``_kostka_peel``, and ``node_degree``) enumerates every shape and peels each
one.  The package never calls it: it stays here, as the reference the tests
compare against, because the benchmark's tracer (``bench/tracing.py``) binds
these names.  The filling-by-filling route (``standard_tableaux``,
``degree``) lives in ``tests/reference.py``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from typing import Iterator, Sequence

from .cartan import DominantWeight, RootVector, cartan
from .fock import (DEFAULT_MAX_BOXES, FWord, Multipartition, Shape, _check_size, _expand,
                   _hom, node_degree, residue, word_content)
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


def _runs(ell: int, beta: RootVector, nu: Sequence[int], name: str) -> FWord:
    """The residue sequence as its runs (i, r) of r equal residues, in
    application order, once they are checked as a word, last run first, to
    have content beta."""
    runs = tuple([(i, len(list(run))) for i, run in groupby(nu)])
    if (content := word_content(runs[::-1], ell)) != beta:
        raise ValueError(f"{name} {tuple(nu)} has content {content.coeffs}, "
                         f"expected {beta.coeffs}")
    return runs


def graded_hom_dim(weight: DominantWeight, beta: RootVector,
                   nu: Sequence[int], nu_prime: Sequence[int] | None = None, *,
                   max_n: int = DEFAULT_MAX_BOXES) -> LaurentPolynomial:
    """Graded dimension of the (nu, nu') idempotent truncation of the block at beta.

    Sums K(nu, shape) * K(nu', shape) over all multipartitions of |beta| with
    one component per charge, as the Hom dimension of the Fock expansions of
    nu and nu'.  Each sequence is expanded by its runs: a run of r residues i
    acts as f_i^r = [r]_i! f_i^(r), one divided power, and the Hom dimension
    is scaled by [r]_i! for every run of both sides, [r]_i! the quantum
    factorial in q^(d_i).  nu' defaults to nu, and equal sequences are
    expanded once.  Checks beta, then the caps (GuardError), then the
    content of nu and of nu' on their runs, before the first expansion.
    """
    if not beta.in_positive_cone():
        raise ValueError("beta must lie in the positive cone")
    _check_size(weight, beta.height, max_n)
    runs = _runs(weight.ell, beta, nu, "nu")
    runs_prime = runs if nu_prime is None else _runs(weight.ell, beta, nu_prime, "nu'")
    left = _expand(weight, runs)
    right = left if runs_prime == runs else _expand(weight, runs_prime)
    d = cartan(weight.ell).d
    return _hom(left, right, [(r, d[i]) for i, r in runs + runs_prime if r > 1])
