"""Deformed Fock-space expansions of divided-power words.

A word of divided powers applied to the vacuum yields a finite combination
of multipartitions with Laurent coefficients; matching coefficients of two
such expansions computes graded Hom dimensions between the corresponding
projectives, and so every graded dimension the package reports.  A
multipartition is a bare tuple of partition shapes; the charge sequence that
pins down residues travels separately with each computation.

The one convention everything hinges on: a node q counts as *below* a node p
when q sits in a strictly lower row of the same component or in any later
component.  A single residue-i step sends a multipartition to the sum over its
addable i-nodes p, each weighted by q^(d_i * (#addable - #removable i-nodes
below p in the grown shape)); regression tests pin this against exact values.
The divided power applies the step repeatedly and divides by the symmetric
quantum factorial in q^(d_i).  That division is exact on every expansion
reachable from the vacuum; a remainder would mean a convention drift, so it
is asserted on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .cartan import DominantWeight, RootVector, cartan, fold_residue
from .laurent import ZERO, LaurentPolynomial, quantum_factorial

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

    def add_node(self, node: Node) -> "Multipartition":
        s, a, b = node
        part = list(self.components[s - 1])
        if a == len(part) + 1:
            part.append(1)
        else:
            part[a - 1] += 1
        assert part[a - 1] == b
        comps = list(self.components)
        comps[s - 1] = tuple(part)
        return Multipartition(tuple(comps))

    def remove_node(self, node: Node) -> "Multipartition":
        s, a, b = node
        part = list(self.components[s - 1])
        assert part[a - 1] == b
        part[a - 1] -= 1
        comps = list(self.components)
        comps[s - 1] = tuple(part)
        return Multipartition(tuple(comps))

    def sort_key(self) -> tuple:
        return (tuple(sum(p) for p in self.components), self.components)

    def __str__(self) -> str:
        return "(" + ",".join(_render_partition(p) for p in self.components) + ")"


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


FWord = tuple[tuple[int, int], ...]
"""A sequence of (residue, power) operator factors; the leftmost acts last."""


@dataclass(frozen=True)
class FockVector:
    """A finite combination of multipartitions sharing one charge sequence."""

    charges: tuple[int, ...]
    ell: int
    terms: tuple[tuple[Multipartition, LaurentPolynomial], ...]

    @classmethod
    def from_dict(cls, charges: tuple[int, ...], ell: int,
                  data: Mapping[Multipartition, LaurentPolynomial]) -> "FockVector":
        terms = tuple(sorted(((mp, c) for mp, c in data.items() if not c.is_zero()),
                             key=lambda item: item[0].sort_key()))
        sizes = {mp.size for mp, _ in terms}
        if len(sizes) > 1:
            raise ValueError("terms of mixed total size")
        for mp, _ in terms:
            if mp.k != len(charges):
                raise ValueError("component count does not match the charges")
        return cls(charges, ell, terms)

    @classmethod
    def vacuum(cls, weight: DominantWeight) -> "FockVector":
        empty = Multipartition.empty(weight.level)
        return cls(weight.charges, weight.ell, ((empty, LaurentPolynomial.one()),))

    def coefficient(self, shape: Multipartition) -> LaurentPolynomial:
        for mp, c in self.terms:
            if mp == shape:
                return c
        return ZERO

    def is_zero(self) -> bool:
        return not self.terms

    def size(self) -> int:
        return self.terms[0][0].size if self.terms else 0

    def content(self) -> RootVector:
        shape = self.terms[0][0] if self.terms else Multipartition.empty(len(self.charges))
        return content_vector(self.charges, shape, self.ell)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mp, c in self.terms:
            parts.append(f"{_coeff_prefix(c)}{mp}")
        return " + ".join(parts)


def _coeff_prefix(c: LaurentPolynomial) -> str:
    if c == LaurentPolynomial.one():
        return ""
    items = list(c.items())
    if len(items) == 1:
        e, v = items[0]
        if v == 1 and e != 0:
            return "q" if e == 1 else f"q^{e}"
    return f"({c})"


def apply_f(vector: FockVector, i: int) -> FockVector:
    """One residue-i box-adding step."""
    if not 0 <= i <= vector.ell:
        raise ValueError(f"residue {i} out of range for rank {vector.ell}")
    acc: dict[Multipartition, LaurentPolynomial] = {}
    for shape, coeff in vector.terms:
        for node in shape.addable_nodes():
            if residue(vector.charges, node, vector.ell) != i:
                continue
            grown = shape.add_node(node)
            weight = LaurentPolynomial.q(node_degree(vector.charges, grown, node, vector.ell))
            acc[grown] = acc.get(grown, ZERO) + coeff * weight
    return FockVector.from_dict(vector.charges, vector.ell, acc)


def apply_divided_f(vector: FockVector, i: int, power: int) -> FockVector:
    """The divided power: ``power`` single steps, then exact division by [power]!."""
    if power < 1:
        raise ValueError("power must be at least 1")
    result = vector
    for _ in range(power):
        result = apply_f(result, i)
    if power == 1 or result.is_zero():
        return result
    factorial = quantum_factorial(power, cartan(vector.ell).d[i])
    divided = {mp: c.exact_div(factorial) for mp, c in result.terms}
    return FockVector.from_dict(vector.charges, vector.ell, divided)


def expand(weight: DominantWeight, word: Iterable[tuple[int, int]]) -> FockVector:
    """Apply a divided-power word to the vacuum, rightmost factor first."""
    vector = FockVector.vacuum(weight)
    for i, power in reversed(tuple(word)):
        vector = apply_divided_f(vector, i, power)
    return vector


def word_content(word: Iterable[tuple[int, int]], ell: int) -> RootVector:
    counts = [0] * (ell + 1)
    for i, power in word:
        if not 0 <= i <= ell:
            raise ValueError(f"residue {i} out of range for rank {ell}")
        if power < 1:
            raise ValueError("power must be at least 1")
        counts[i] += power
    return RootVector(tuple(counts))


def residue_word(word: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The residue sequence obtained by expanding the divided powers, in application order."""
    out: list[int] = []
    for i, power in reversed(tuple(word)):
        out.extend([i] * power)
    return tuple(out)


def hom_dim(left: FockVector, right: FockVector) -> LaurentPolynomial:
    """Graded Hom dimension between the projectives the two expansions identify."""
    if left.charges != right.charges:
        raise ValueError("expansions carry different charge sequences")
    if not left.is_zero() and not right.is_zero() and left.content() != right.content():
        raise ValueError("expansions have different contents")
    table = dict(right.terms)
    total = ZERO
    for mp, c in left.terms:
        other = table.get(mp)
        if other is not None:
            total = total + c * other
    return total


def parse_word(text: str) -> FWord:
    """Parse ``i^r,i^r,...`` into an operator word (leftmost factor acts last)."""
    factors = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty factor in word")
        if "^" in chunk:
            base, _, exp = chunk.partition("^")
            factors.append((int(base), int(exp)))
        else:
            factors.append((int(chunk), 1))
    return tuple(factors)
