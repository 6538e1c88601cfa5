"""Multipartitions, the residues of their nodes, and the per-node degree rule.

A multipartition is an ordered tuple of partitions, one per charge; its
nodes are (component, row, column) triples, 1-based, and a node's residue is
its content column - row + charge, folded.  ``node_degree`` is the per-node
form of the Fock engine's degree rule, which the tableau reference route
peels boxes with; ``klrc.fock`` re-exports every public name here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .cartan import RootVector, cartan, fold_residue

Shape = tuple[tuple[int, ...], ...]
Node = tuple[int, int, int]  # (component, row, column), all 1-based


@dataclass(frozen=True)
class Multipartition:
    """An ordered tuple of partitions."""

    components: Shape

    def __post_init__(self) -> None:
        comps = []
        for part in self.components:
            part = tuple(int(r) for r in part if r)
            if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
                raise ValueError(f"rows of {part} are not weakly decreasing")
            comps.append(part)
        object.__setattr__(self, "components", tuple(comps))

    @classmethod
    def empty(cls, k: int) -> "Multipartition":
        return cls(((),) * k)

    @property
    def size(self) -> int:
        return sum(sum(part) for part in self.components)

    @property
    def k(self) -> int:
        return len(self.components)

    def nodes(self) -> Iterator[Node]:
        for s, part in enumerate(self.components, start=1):
            for a, row in enumerate(part, start=1):
                for b in range(1, row + 1):
                    yield (s, a, b)

    def addable_nodes(self) -> list[Node]:
        out = []
        for s, part in enumerate(self.components, start=1):
            for a in range(1, len(part) + 2):
                row = part[a - 1] if a <= len(part) else 0
                above = part[a - 2] if a >= 2 else None
                if above is None or row < above:
                    out.append((s, a, row + 1))
        return out

    def removable_nodes(self) -> list[Node]:
        out = []
        for s, part in enumerate(self.components, start=1):
            for a, row in enumerate(part, start=1):
                below = part[a] if a < len(part) else 0
                if row > below:
                    out.append((s, a, row))
        return out

    def remove_node(self, node: Node) -> "Multipartition":
        s, a, b = node
        part = list(self.components[s - 1])
        assert part[a - 1] == b
        part[a - 1] -= 1
        comps = list(self.components)
        comps[s - 1] = tuple(part)
        return Multipartition(tuple(comps))

    def sort_key(self) -> tuple:
        return _shape_key(self.components)

    def __str__(self) -> str:
        return "(" + ",".join(_render_partition(p) for p in self.components) + ")"


def _multipartition(shape: Shape) -> Multipartition:
    """A multipartition of a shape the engine grew, which is already valid."""
    mp = object.__new__(Multipartition)
    object.__setattr__(mp, "components", shape)
    return mp


def _render_partition(part: tuple[int, ...]) -> str:
    if not part:
        return "(0)"
    groups = []
    run_val, run_len = part[0], 0
    for r in part:
        if r == run_val:
            run_len += 1
        else:
            groups.append((run_val, run_len))
            run_val, run_len = r, 1
    groups.append((run_val, run_len))
    return "(" + ",".join(f"{v}^{n}" if n > 1 else str(v) for v, n in groups) + ")"


def residue(charges: Sequence[int], node: Node, ell: int) -> int:
    """Folded content of a node: column - row + component charge."""
    s, a, b = node
    return fold_residue(b - a + charges[s - 1], ell)


def content_vector(charges: Sequence[int], shape: Multipartition, ell: int) -> RootVector:
    counts = [0] * (ell + 1)
    for node in shape.nodes():
        counts[residue(charges, node, ell)] += 1
    return RootVector(tuple(counts))


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


def _shape_key(shape: Shape) -> tuple:
    """The order of shapes in a vector: component sizes first, then rows."""
    return (tuple(map(sum, shape)), shape)
