"""Multipartitions, deformed Fock-space expansions of divided-power words,
and the graded dimensions read off them.

A multipartition is an ordered tuple of partitions, one per charge; its
nodes are (component, row, column) triples, 1-based, and a node's residue is
its content column - row + charge, folded.  A word of divided powers applied
to the vacuum yields a finite combination of multipartitions with Laurent
coefficients; matching coefficients of two such expansions computes graded
Hom dimensions between the corresponding projectives, and so every graded
dimension the package reports (``graded_hom_dim``).  Inside the engine a
multipartition is a bare tuple of partition shapes; the charge sequence that
pins down residues travels separately with each computation.

The one convention everything hinges on: a node q counts as *below* a node p
when q sits in a strictly lower row of the same component or in any later
component.  A single residue-i step sends a multipartition to the sum over its
addable i-nodes p, each weighted by q^(d_i * N(p)), N(p) the number of
addable minus removable i-nodes below p in the grown shape; regression tests
pin this against exact values.  ``node_degree`` (in ``klrc.tableaux``) is
the per-node form of the rule, kept for the tableau reference route.

The engine keys a shape by one int, its beads on James's abacus (the Maya
diagrams of the q-deformed Fock space).  In a word of n boxes no shape has
more than n rows, so each component is n+1 beads in a window of 2n+2 bits:
row a (0-based) of length l_a puts a bead at bit l_a - a + n, and component
s sits in window k-1-s.  A bead at bit p of component s is an addable node
of content p - n + c_s when bit p+1 is empty, and a removable one of content
p - 1 - n + c_s when bit p-1 is empty.  Lower rows and later components sit
at lower bits, so "below" is "at a lower bit".  For residue i, ADD holds the
bits under each window's top bit whose addable content folds to i, and REM
is ADD moved up one bit; then A = S & ~(S >> 1) & ADD are the addable
i-nodes of S, R = S & ~(S << 1) & REM the removable ones, and adding the
node at bit p is S + 2^p.  One ascending walk over A | R keeps the running
count of addable minus removable i-nodes below each node.  It reads the
ungrown shape, which gives the same count as the grown one: adding p creates
or destroys only nodes of content c(p) +- 1, and fold(c) = fold(c - 1)
would need 2c = 1 (mod 2*ell).

The divided power f_i^(r) = f_i^r / [r]! (the symmetric quantum factorial
in q^(d_i)) runs in one pass as well.  Since adding an i-node creates or
destroys no other i-node, f_i^r adds the nodes of each r-set S of addable
i-nodes in all r! orders, and in no other way.  Adding p after j nodes of S
below it turns j addable nodes below p into removable ones, so p then
counts N(p) - 2j, N(p) read off the ungrown shape.  Summed over the orders
of S this gives q^(d_i * sum N(p)) times the sum over permutations of
q^(-2 d_i inv), and that sum is the Mahonian generating function
[1][2]...[r] in q^(-2 d_i), which is q^(-d_i r(r-1)/2) [r]!.  So f_i^(r)
sends a multipartition to the sum over the r-sets S of its addable i-nodes
of the multipartition with S added, weighted by
q^(d_i * (sum of N(p) over S - r(r-1)/2)), with no division left to do.
Two addable bits are never adjacent (an addable bead has an empty bit
above it), so no bead of an r-set moves onto another, and the shape with S
added is S plus the sum of its bits.

Coefficients are packed integers (Kronecker substitution): a vector carries
one digit width w and one base exponent b, and the int P stands for the
polynomial whose coefficient of q^(b + j) is digit j of P in base 2^w.  A
degree shift is then a left shift and a sum an int add; every shift is
offset so that none is negative, and the base exponent absorbs the offsets.
A node's running count never drops below minus the number of i-boxes
already placed, since every removable i-node is one of them, so in a word
each factor's shifts are offset by the boxes of its residue that the
factors before it placed.
At q=1 a divided power f_i^(r) is f_i^r / r!, so every coefficient met while
expanding a word of n boxes with powers r_1, ..., r_k is nonnegative and at
most n! / (r_1! ... r_k!) <= n! at q=1, and w = bits of that bound + 1 keeps
every digit free of carries.  ``_expand`` is the one packed expansion of a
word, at that width: ``expand`` runs it on a checked word, and
``graded_hom_dim`` on each residue sequence read as its runs, a run of r
residues i one divided power f_i^(r), with ``_hom`` scaling the sum by the
[r]! of the runs.

Shapes are decoded only where a ``Multipartition`` is read:
``FockVector.terms`` (on first read, with the coefficients), the rendering
of ``str`` and ``klrc fock`` (coefficients straight from the packed digits),
and ``FockVector.content``, one window at a time, each distinct window once
per call.  The packed form carries the n its keys are encoded at.  ``_hom``
matches the int keys of two packed forms, for ``hom_dim`` of two engine
vectors and for the graded dimensions; ``hom_dim`` pairs a vector built by
hand, on either side, as Laurent polynomials.  ``apply_f`` and
``apply_divided_f`` step each term's shape alone, at coefficient 1 and digit
width 1: a divided power reaches each output shape from one input shape
through at most one set of nodes, so each packed coefficient is one bit, a
monomial q^e, and the term's Laurent coefficient times q^e is added there.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, groupby, repeat
from math import factorial, prod
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .cartan import DominantWeight, GuardError, RootVector, cartan, fold_residue
from .laurent import ZERO, LaurentPolynomial, _wrap, polynomial_text

DEFAULT_MAX_BOXES = 12
DEFAULT_MAX_COMPONENTS = 5

FWord = tuple[tuple[int, int], ...]
"""A sequence of (residue, power) operator factors; the leftmost acts last."""

Terms = dict[int, int]
"""Packed coefficients by bead-encoded shape: the digits of each coefficient
in base 2^width are q-coefficients."""

_Packed = tuple[int, int, int, Terms]
"""(width, base exponent, n, terms): digit j of a term is its coefficient of
q^(base + j), and its key is a shape encoded at n boxes."""

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


def _shape_key(shape: Shape) -> tuple:
    """The order of shapes in a vector: component sizes first, then rows."""
    return (tuple(map(sum, shape)), shape)


class FockVector:
    """A finite combination of multipartitions sharing one charge sequence.

    ``terms`` pairs each multipartition with its Laurent coefficient, in sort
    order.  A vector the engine returns keeps its packed coefficients and
    decodes ``terms`` on first read; equality and hashing read ``terms``, so
    it equals the same vector built by hand.
    """

    __slots__ = ("charges", "ell", "_terms", "_packed")

    def __init__(self, charges: tuple[int, ...], ell: int,
                 terms: tuple[tuple[Multipartition, LaurentPolynomial], ...] | None = None,
                 packed: _Packed | None = None):
        self.charges = charges
        self.ell = ell
        self._terms = terms
        self._packed = packed

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

    @property
    def terms(self) -> tuple[tuple[Multipartition, LaurentPolynomial], ...]:
        if self._terms is None:
            width, low = self._packed[:2]
            rows, parts = self._decoded()
            self._terms = tuple((_multipartition(tuple(map(parts.__getitem__, windows))),
                                 _decode(coeff, width, low)) for windows, coeff in rows)
        return self._terms

    def _decoded(self) -> tuple[list[tuple[tuple[int, ...], int]], dict[int, tuple[int, ...]]]:
        """The packed terms as (windows, packed coefficient) in sort order, and
        the partition of each distinct window.

        The sort key is (component sizes, key), which is ``_shape_key`` order:
        at one n a window's int order is the zero-padded lexicographic order
        of its rows (beads sit at strictly decreasing bits, so the first row
        that differs sets the highest differing bit), and component 0 sits in
        the top window.
        """
        _, _, n, packed = self._packed
        columns, parts = _split(packed, len(self.charges), n)
        sizes = {window: sum(part) for window, part in parts.items()}
        order = sorted(zip(*[list(map(sizes.__getitem__, column)) for column in columns],
                           packed, _rows(columns, len(packed)), packed.values()))
        return [row[-2:] for row in order], parts

    def _rendered(self, render) -> tuple[list[tuple[tuple, str]], dict]:
        """Each term's components and ``render`` of its coefficient's ascending
        (exponent, coefficient) pairs, in sort order, and the partition of each
        distinct component.  An engine vector's components are its window
        ints, and its pairs are read off its packed digits, once per distinct
        coefficient; a hand-built vector's components are its partitions."""
        if self._packed is None:
            parts = {part: part for mp, _ in self._terms for part in mp.components}
            return [(mp.components, render(list(c.items()))) for mp, c in self._terms], parts
        width, low, _, packed = self._packed
        texts = {coeff: render(_digits(coeff, width, low)) for coeff in set(packed.values())}
        rows, parts = self._decoded()
        return [(windows, texts[coeff]) for windows, coeff in rows], parts

    def is_zero(self) -> bool:
        return not (self._terms if self._packed is None else self._packed[3])

    def content(self) -> RootVector:
        shape = ((),) * len(self.charges)
        if self._packed is not None:
            _, _, n, packed = self._packed
            if packed:
                shape = _shapes([next(iter(packed))], len(self.charges), n)[0]
        elif self._terms:
            shape = self._terms[0][0].components
        return content_vector(self.charges, _multipartition(shape), self.ell)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.charges, self.ell, self.terms) == (other.charges, other.ell, other.terms)

    def __hash__(self) -> int:
        return hash((self.charges, self.ell, self.terms))

    def __repr__(self) -> str:
        return f"FockVector(charges={self.charges!r}, ell={self.ell!r}, terms={self.terms!r})"

    def __str__(self) -> str:
        rows, parts = self._rendered(_coeff_prefix)
        texts = {comp: _render_partition(part) for comp, part in parts.items()}
        return " + ".join([f"{prefix}({','.join(map(texts.__getitem__, comps))})"
                           for comps, prefix in rows]) or "0"


def _coeff_prefix(pairs: list[tuple[int, int]]) -> str:
    """A term's coefficient as it prefixes the multipartition: a monomial q^e
    as is (nothing for 1), anything else in parentheses."""
    text = polynomial_text(pairs)
    if len(pairs) == 1 and pairs[0][1] == 1:
        return "" if text == "1" else text
    return f"({text})"


def _check_factor(i: int, power: int, ell: int) -> None:
    if power < 1:
        raise ValueError("power must be at least 1")
    if not 0 <= i <= ell:
        raise ValueError(f"residue {i} out of range for rank {ell}")


def _check_size(weight: DominantWeight, n: int, max_n: int) -> None:
    """GuardError on more than ``DEFAULT_MAX_COMPONENTS`` components (the
    level, read from the multiplicities) or more than ``max_n`` boxes."""
    if weight.level > DEFAULT_MAX_COMPONENTS:
        raise GuardError(f"{weight.level} components exceeds the cap of {DEFAULT_MAX_COMPONENTS}")
    if n > max_n:
        raise GuardError(f"{n} boxes exceeds the cap of {max_n}")


def _width(bound: int) -> int:
    """Digit width for coefficients that stay at most ``bound`` at q=1: every
    digit stays below 2^width, and so does the value at q=1 (see ``_hom``)."""
    return bound.bit_length() + 1


# -- the bead encoding -----------------------------------------------------


def _key(shape: Shape, n: int) -> int:
    """The bead encoding of a shape of at most ``n`` boxes: component s in
    window k-1-s of 2n+2 bits, row a of length l_a a bead at bit l_a - a + n."""
    size = 2 * n + 2
    key = 0
    for part in shape:
        window = 0
        for a in range(n + 1):
            window |= 1 << (part[a] if a < len(part) else 0) - a + n
        key = key << size | window
    return key


def _split(keys: Collection[int], k: int, n: int
           ) -> tuple[list[list[int]], dict[int, tuple[int, ...]]]:
    """The windows of ``keys`` encoded at ``n`` boxes, one list per component
    (component 0 first) in key order, and the partition of each distinct
    window, decoded once."""
    size = 2 * n + 2
    mask = (1 << size) - 1
    columns = [[key >> shift & mask for key in keys]
               for shift in range((k - 1) * size, -1, -size)]
    return columns, {window: _partition(window, n) for window in set().union(*columns)}


def _rows(columns: list[list], count: int) -> list[tuple]:
    """``count`` rows read across the columns; empty rows when there are none."""
    return list(zip(*columns)) if columns else [()] * count


def _shapes(keys: Collection[int], k: int, n: int) -> list[Shape]:
    """The shape of each key of ``k`` windows encoded at ``n`` boxes."""
    columns, parts = _split(keys, k, n)
    return _rows([list(map(parts.__getitem__, column)) for column in columns], len(keys))


def _partition(window: int, n: int) -> tuple[int, ...]:
    """The partition of one window: its beads from the top, row a's at l_a - a + n."""
    rows = []
    for a in range(n):
        top = window.bit_length() - 1
        if top == n - a:  # this row and every one below it are empty
            break
        rows.append(top - n + a)
        window ^= 1 << top
    return tuple(rows)


def _masks(charges: Sequence[int], ell: int, n: int, i: int) -> tuple[int, int]:
    """ADD and REM of residue ``i`` for shapes of ``len(charges)`` components
    encoded at ``n`` boxes.

    ADD holds the bits p <= 2n of each window whose content p - n + c_s folds
    to i, read off one periodic 2*ell-bit pattern tiled past the window and
    shifted by (c_s - n) mod 2*ell; REM holds the bits p >= 1 whose content
    p - 1 - n + c_s does, which is ADD moved up one bit.  The contents that
    fold to i are those congruent to i or -i mod 2*ell, so the pattern has
    those two bits, one when i is 0 or ell.
    """
    period = 2 * ell
    pattern = 1 << i | 1 << -i % period
    size = 2 * n + 2
    tiles = size // period + 2
    tiled = pattern * ((1 << period * tiles) - 1) // ((1 << period) - 1)
    below_top = (1 << size - 1) - 1
    add = 0
    for charge in charges:
        add = add << size | (tiled >> (charge - n) % period) & below_top
    return add, add << 1


# -- the step ----------------------------------------------------------------


def _step(terms: Terms, add: int, rem: int, unit: int, boxes: int, power: int) -> Terms:
    """The divided power f_i^(power), ``add`` and ``rem`` the masks of i, on
    packed shapes of at most ``boxes`` i-boxes, up to the factor
    q^(-d * power * (power - 1) / 2) that the caller applies.

    One ascending walk over the i-nodes of each shape meets its addable ones
    with their shifts: ``unit`` (width * d) bits per unit of the running
    count.  Every removable i-node is an i-box, so the count never drops
    below minus ``boxes``; every shift is offset by ``d * boxes`` units, and
    the caller lowers the base exponent by as much.
    Power 1 adds each node at its shift as the walk meets it.  A higher
    power lists the nodes and adds each ``power``-set of them at once,
    shifted by the sum of its nodes' shifts.
    """
    acc: Terms = {}
    offset = unit * boxes
    for shape, coeff in terms.items():
        grow = shape & ~(shape >> 1) & add
        if not grow:
            continue
        nodes = grow | shape & ~(shape << 1) & rem
        shift = offset
        found = []  # (bit, shift) of each addable i-node
        while nodes:
            bit = nodes & -nodes
            nodes ^= bit
            if not bit & grow:
                shift -= unit
                continue
            if power == 1:
                grown = shape + bit
                acc[grown] = acc.get(grown, 0) + (coeff << shift)
            else:
                found.append((bit, shift))
            shift += unit
        for subset in combinations(found, power):
            grown, total = shape, 0
            for bit, node_shift in subset:
                grown += bit
                total += node_shift
            acc[grown] = acc.get(grown, 0) + (coeff << total)
    return acc


def _divided(terms: Terms, low: int, boxes: int, masks: tuple[int, int], d: int,
             power: int, width: int) -> tuple[Terms, int]:
    """The divided power in one pass on shapes of at most ``boxes`` i-boxes,
    then the digits every term has as trailing zeros dropped; returns the
    terms and their base exponent.

    The offset is a bound, not the least shift a pass makes, so a pass can
    leave low digits that no term uses.  Kept, they would stay in every
    packed int to the end of the word, and each later pass would add its
    own: ``klrc dims --ell 2 --weight 0,1 --beta 4,8,4`` with nu = (0,1,2,1)
    four times (16 boxes) takes about 29 ms without the drop against 14 ms
    with it (Python 3.11 on 2 shared CPUs, in-process, best of 7), while the
    802 queries of the benchmark's dims pool (at most 10 boxes) take 0.13 s
    either way."""
    terms = _step(terms, *masks, width * d, boxes, power)
    low -= d * (power * boxes + power * (power - 1) // 2)
    used = 0
    for coeff in terms.values():
        used |= coeff
    drop = ((used & -used).bit_length() - 1) // width if used else 0
    if drop:
        terms = {shape: coeff >> drop * width for shape, coeff in terms.items()}
    return terms, low + drop


def _expand(weight: DominantWeight, factors: Sequence[tuple[int, int]]) -> _Packed:
    """The factors, in application order, on the vacuum, packed at one width:
    every coefficient met is at most n! / (r_1! ... r_k!) at q=1, n the
    number of boxes the factors add and r_1, ..., r_k their powers, and the
    keys are encoded at n.  Each factor's shifts are offset by the boxes of
    its residue placed before it.  The vacuum has every row empty, beads at
    bits 0..n of each window.  A factor that leaves no term ends the word."""
    charges, ell = weight.charges, weight.ell
    d = cartan(ell).d
    n = sum(power for _, power in factors)
    width = _width(factorial(n) // prod(factorial(power) for _, power in factors))
    masks: dict[int, tuple[int, int]] = {}
    size = 2 * n + 2
    terms: Terms = {((1 << n + 1) - 1) * ((1 << size * len(charges)) - 1)
                    // ((1 << size) - 1): 1}
    low = 0
    placed = [0] * (ell + 1)
    for i, power in factors:
        if i not in masks:
            masks[i] = _masks(charges, ell, n, i)
        terms, low = _divided(terms, low, placed[i], masks[i], d[i], power, width)
        if not terms:
            break
        placed[i] += power
    return width, low, n, terms


def _digits(packed: int, width: int, low: int) -> list[tuple[int, int]]:
    """The nonzero digits as ascending (exponent, coefficient) pairs; each run
    of zero digits is skipped in one shift, found from the lowest set bit."""
    mask = (1 << width) - 1
    out = []
    while packed:
        skip = ((packed & -packed).bit_length() - 1) // width
        packed >>= skip * width
        low += skip
        out.append((low, packed & mask))
        packed >>= width
        low += 1
    return out


def _decode(packed: int, width: int, low: int) -> LaurentPolynomial:
    return _wrap(dict(_digits(packed, width, low)))


def _widen(packed: int, width: int, wider: int) -> int:
    """The same digits, re-spaced from ``width`` to ``wider`` bits."""
    if wider == width:
        return packed
    mask = (1 << width) - 1
    out = shift = 0
    while packed:
        out |= (packed & mask) << shift
        packed >>= width
        shift += wider
    return out


def apply_f(vector: FockVector, i: int) -> FockVector:
    """One residue-i box-adding step."""
    return apply_divided_f(vector, i, 1)


def apply_divided_f(vector: FockVector, i: int, power: int) -> FockVector:
    """The divided power f_i^(power) = f_i^power / [power]!, in one pass on
    each term's shape alone (see the module docstring)."""
    _check_factor(i, power, vector.ell)
    charges, ell = vector.charges, vector.ell
    boxes = vector.terms[0][0].size if vector.terms else 0
    n = boxes + power
    masks = _masks(charges, ell, n, i)
    d = cartan(ell).d[i]
    acc: dict[int, LaurentPolynomial] = {}
    for mp, c in vector.terms:
        terms, low = _divided({_key(mp.components, n): 1}, 0, boxes, masks, d, power, 1)
        for key, bit in terms.items():
            acc[key] = acc.get(key, ZERO) + c * LaurentPolynomial.q(low + bit.bit_length() - 1)
    shapes = map(_multipartition, _shapes(acc, len(charges), n))
    return FockVector.from_dict(charges, ell, dict(zip(shapes, acc.values())))


def expand(weight: DominantWeight, word: Iterable[tuple[int, int]], *,
           max_n: int = DEFAULT_MAX_BOXES) -> FockVector:
    """Apply a divided-power word to the vacuum, rightmost factor first.

    Every factor is checked, in application order, and then the component and
    box caps (GuardError), before the first step.
    """
    factors = tuple(word)[::-1]
    for i, power in factors:
        _check_factor(i, power, weight.ell)
    _check_size(weight, sum(power for _, power in factors), max_n)
    return FockVector(weight.charges, weight.ell, packed=_expand(weight, factors))


def word_content(word: Iterable[tuple[int, int]], ell: int) -> RootVector:
    counts = [0] * (ell + 1)
    for i, power in word:
        _check_factor(i, power, ell)
        counts[i] += power
    return RootVector(tuple(counts))


def hom_dim(left: FockVector, right: FockVector) -> LaurentPolynomial:
    """Graded Hom dimension between the projectives the two expansions identify."""
    if left.charges != right.charges:
        raise ValueError("expansions carry different charge sequences")
    if left.is_zero() or right.is_zero():
        return ZERO
    if left is not right and left.content() != right.content():
        raise ValueError("expansions have different contents")
    if left._packed is not None and right._packed is not None:
        return _hom(left._packed, right._packed)
    other = dict(right.terms)
    return sum([c * other[mp] for mp, c in left.terms if mp in other], ZERO)


def _hom(left: _Packed, right: _Packed,
         scale: Sequence[tuple[int, int]] = ()) -> LaurentPolynomial:
    """Sum of coefficient products over the shared shapes, times the product
    of the quantum factorials [r]! in q^d over the (r, d) pairs of ``scale``,
    decoded once.

    Both sides are keyed at the same n.  Most shapes share a coefficient, so
    the sum runs over the distinct pairs (a, b) of packed coefficients, each
    with its count c over the left side's shapes, as c * a * b: each pair is
    widened and multiplied once.  A shape missing on the right pairs with
    b = 0, which adds nothing.  A term's value at q=1 is its digit sum, which
    the width keeps below 2^width - 1, so it is the term mod 2^width - 1.
    Every digit of the sum is at most the sum of c times the product of
    those values, so a width of that bound's bit length leaves the sum free
    of carries.  [r]! is r! at q=1 and has nonnegative coefficients, so the
    bound times the product of the r! does the same for the scaled sum.
    Each [s] in q^d is q^(-d(s-1)) times 1 + q^(2d) + ... + q^(2d(s-1)), a
    packed geometric sum, so the scale is one packed product.
    """
    (wl, ll, _, tl), (wr, lr, _, tr) = left, right
    if not (tl and tr):
        return ZERO
    pairs = Counter(zip(tl.values(), map(tr.get, tl, repeat(0)))).items()
    ml, mr = (1 << wl) - 1, (1 << wr) - 1
    bound = sum(c * (a % ml) * (b % mr) for (a, b), c in pairs)
    width = max(wl, wr, (bound * prod(factorial(r) for r, _ in scale)).bit_length())
    total = sum(c * _widen(a, wl, width) * _widen(b, wr, width) for (a, b), c in pairs)
    factor, low = 1, ll + lr
    for r, d in scale:
        step = width * 2 * d
        for s in range(2, r + 1):
            factor *= ((1 << step * s) - 1) // ((1 << step) - 1)
            low -= d * (s - 1)
    return _decode(total * factor, width, low)


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
    checked and expanded once.  Checks beta, then the caps (GuardError), then
    the content of nu and of nu' on their runs, before the first expansion.
    """
    if not beta.in_positive_cone():
        raise ValueError("beta must lie in the positive cone")
    _check_size(weight, beta.height, max_n)
    runs = _runs(weight.ell, beta, nu, "nu")
    same = nu_prime is None or tuple(nu_prime) == tuple(nu)  # a list may equal a tuple
    runs_prime = runs if same else _runs(weight.ell, beta, nu_prime, "nu'")
    left = _expand(weight, runs)
    right = left if runs_prime == runs else _expand(weight, runs_prime)
    d = cartan(weight.ell).d
    return _hom(left, right, [(r, d[i]) for i, r in runs + runs_prime if r > 1])


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
