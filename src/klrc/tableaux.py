"""The tableau reference route for graded dimensions.

dim_q e(nu) A e(nu') for the block at beta is the sum over multipartitions of
K(nu, shape) * K(nu', shape), K the degree generating function of standard
fillings.  The package computes it with the Fock engine, ``klrc.fock``'s
``graded_hom_dim``.  The tableau route here enumerates every shape
(``multipartitions``) and peels each one (``kostka_q`` with its cache
``_kostka_peel``), weighting each box by ``node_degree``, the per-node form of
the engine's degree rule.  The package never calls it: it stays here, as the
reference the tests compare against, because the benchmark's tracer
(``bench/tracing.py``) binds these names.  For the same reason
``graded_hom_dim`` is re-exported here, the same object as ``fock``'s.  The
filling-by-filling route (``standard_tableaux``, ``degree``) lives in
``tests/reference.py``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .cartan import cartan
from .fock import Multipartition, Node, Shape, residue
from .fock import graded_hom_dim  # noqa: F401  (the tracer binds tableaux.graded_hom_dim)
from .laurent import ZERO, LaurentPolynomial


def _is_below(node: Node, p: Node) -> bool:
    """Below = strictly lower row of the same component, or any later component."""
    s, a, _ = node
    ps, pa, _ = p
    return s > ps or (s == ps and a > pa)


def node_degree(charges: Sequence[int], shape: Multipartition, p: Node, ell: int) -> int:
    """d_p of a removable node: d_res(p) * (#addable - #removable) of the same residue below p."""
    res = residue(charges, p, ell)
    d = cartan(ell).d[res]
    add = sum(1 for n in shape.addable_nodes()
              if _is_below(n, p) and residue(charges, n, ell) == res)
    rem = sum(1 for n in shape.removable_nodes()
              if _is_below(n, p) and residue(charges, n, ell) == res)
    return d * (add - rem)


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
