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
addable i-nodes p, each weighted by q^(d_i * N(p)), N(p) the number of
addable minus removable i-nodes below p in the grown shape; regression tests
pin this against exact values.

The step runs on bare shapes and reads every degree off one upward scan of
the ungrown shape, from the last component's bottom row to the first row,
keeping a running count of addable minus removable i-nodes below the current
row.  The grown shape gives the same count: adding p creates or destroys
only nodes of content c(p) +- 1, and fold(c) = fold(c - 1) would need
2c = 1 (mod 2*ell).  For the same reason a row holds at most one i-node, so
the count at p's row is exactly the count below p.  ``node_degree`` (in
``klrc._shapes`` with ``Multipartition``, both re-exported here) is the
per-node form of the rule, kept for the tableau reference route.

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

Coefficients are packed integers (Kronecker substitution): a vector carries
one digit width w and one base exponent b, and the int P stands for the
polynomial whose coefficient of q^(b + j) is digit j of P in base 2^w.  A
degree shift is then a left shift and a sum an int add; every shift is
offset so that none is negative, and the base exponent absorbs the offsets.
At q=1 a divided power f_i^(r) is f_i^r / r!, so every coefficient met while
expanding a word of n boxes with powers r_1, ..., r_k is nonnegative and at
most n! / (r_1! ... r_k!) <= n! at q=1, and w = bits of that bound + 1 keeps
every digit free of carries.  Coefficients are decoded to Laurent
polynomials only when ``FockVector.terms`` is first read; ``str`` of an
engine vector and ``klrc fock`` render straight from the packed digits, and
``hom_dim`` multiplies packed ints at a width set by the exact values at
q=1.  Vectors built by hand are packed by sign, as a positive part and a
negated negative part, so the engine only ever sees nonnegative ints.
"""

from __future__ import annotations

from itertools import combinations, zip_longest
from math import factorial, prod
from typing import Iterable, Mapping, Sequence

from ._shapes import (Multipartition, Node, Shape, _multipartition, _render_partition,
                      _shape_key, content_vector, node_degree, residue)
from .cartan import DominantWeight, RootVector, cartan, fold_residue
from .laurent import ZERO, LaurentPolynomial, _wrap, polynomial_text

FWord = tuple[tuple[int, int], ...]
"""A sequence of (residue, power) operator factors; the leftmost acts last."""

Terms = dict[Shape, int]
"""Packed coefficients: the digits of each int in base 2^width are q-coefficients."""

_Packed = tuple[int, int, Terms]
"""(width, base exponent, terms): digit j of a term is its coefficient of q^(base + j)."""


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
            width, low, packed = self._packed
            self._terms = tuple((_multipartition(shape), _decode(packed[shape], width, low))
                                for shape in sorted(packed, key=_shape_key))
        return self._terms

    def _rendered(self, render) -> list[tuple[Shape, str]]:
        """Each term's shape and ``render`` of its coefficient's ascending
        (exponent, coefficient) pairs, in sort order.  An engine vector's pairs
        are read off its packed digits, once per distinct coefficient."""
        if self._packed is None:
            return [(mp.components, render(list(c.items()))) for mp, c in self._terms]
        width, low, packed = self._packed
        texts: dict[int, str] = {}
        out = []
        for shape in sorted(packed, key=_shape_key):
            coeff = packed[shape]
            text = texts.get(coeff)
            if text is None:
                text = texts[coeff] = render(_digits(coeff, width, low))
            out.append((shape, text))
        return out

    def is_zero(self) -> bool:
        return not (self._terms if self._packed is None else self._packed[2])

    def content(self) -> RootVector:
        if self._packed is not None:
            shape = next(iter(self._packed[2]), ((),) * len(self.charges))
        else:
            shape = self._terms[0][0].components if self._terms else ((),) * len(self.charges)
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
        rendered: dict[tuple[int, ...], str] = {}  # each distinct partition once
        parts = []
        for shape, prefix in self._rendered(_coeff_prefix):
            comps = []
            for part in shape:
                text = rendered.get(part)
                if text is None:
                    text = rendered[part] = _render_partition(part)
                comps.append(text)
            parts.append(f"{prefix}({','.join(comps)})")
        return " + ".join(parts) or "0"


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


def _width(bound: int) -> int:
    """Digit width for coefficients that stay at most ``bound`` at q=1: every
    digit stays below 2^width, and so does the value at q=1 (see ``_hom``)."""
    return bound.bit_length() + 1


def _step(charges: Sequence[int], ell: int, terms: Terms, i: int, width: int,
          boxes: int, power: int) -> Terms:
    """The divided power f_i^(power) on packed shapes of at most ``boxes``
    boxes, up to the factor q^(-d * power * (power - 1) / 2) that the caller
    applies.

    One upward scan of each shape, last component first, meets its addable
    i-nodes with their shifts: ``width * d`` bits per unit of the running
    count.  A step meets each distinct component many times, so its i-nodes
    are listed once per step.  The count never drops below minus the number
    of boxes, so every shift is offset by ``d * boxes`` units, and the caller
    lowers the base exponent by as much.  Power 1 adds each node at its shift
    as the scan meets it.  A higher power lists the nodes and adds each
    ``power``-set of them at once, shifted by the sum of its nodes' shifts;
    two nodes in one component lie in different rows, so the part with both
    added is the rowwise maximum of the two grown parts.
    """
    period = 2 * ell
    hit = [fold_residue(c, ell) == i for c in range(period)]
    unit = width * cartan(ell).d[i]
    known: list[dict] = [{} for _ in charges]
    acc: Terms = {}
    for shape, coeff in terms.items():
        shift = unit * boxes
        found = []  # (component, grown part, shift) of each addable i-node
        for s in range(len(shape) - 1, -1, -1):
            part = shape[s]
            nodes = known[s].get(part)
            if nodes is None:
                nodes = known[s][part] = _i_nodes(part, charges[s], hit, period)
            for grown_part in nodes:
                if grown_part is None:
                    shift -= unit
                    continue
                if power == 1:
                    grown = shape[:s] + (grown_part,) + shape[s + 1:]
                    acc[grown] = acc.get(grown, 0) + (coeff << shift)
                else:
                    found.append((s, grown_part, shift))
                shift += unit
        for subset in combinations(found, power):
            grown_parts = list(shape)
            total = 0
            for s, grown_part, node_shift in subset:
                if grown_parts[s] is not shape[s]:  # a second node in this component
                    grown_part = tuple(map(max, zip_longest(grown_parts[s], grown_part,
                                                            fillvalue=0)))
                grown_parts[s] = grown_part
                total += node_shift
            grown = tuple(grown_parts)
            acc[grown] = acc.get(grown, 0) + (coeff << total)
    return acc


def _i_nodes(part: tuple[int, ...], charge: int, hit: list[bool],
             period: int) -> list[tuple[int, ...] | None]:
    """The i-nodes of one partition, bottom row first, from one upward scan:
    the grown partition for an addable node, None for a removable one."""
    nodes: list[tuple[int, ...] | None] = []
    below = 0
    for a in range(len(part), -1, -1):  # 0-based rows, the empty row first
        row = part[a] if a < len(part) else 0
        if (a == 0 or row < part[a - 1]) and hit[(row - a + charge) % period]:
            nodes.append(part[:a] + (row + 1,) + part[a + 1:])
        elif row > below and hit[(row - 1 - a + charge) % period]:
            nodes.append(None)
        below = row
    return nodes


def _divided(charges: Sequence[int], ell: int, terms: Terms, low: int, boxes: int,
             i: int, power: int, width: int) -> tuple[Terms, int]:
    """The divided power in one pass, then the digits every term has as trailing
    zeros dropped; returns the terms and their base exponent."""
    terms = _step(charges, ell, terms, i, width, boxes, power)
    low -= cartan(ell).d[i] * (power * boxes + power * (power - 1) // 2)
    used = 0
    for coeff in terms.values():
        used |= coeff
    drop = ((used & -used).bit_length() - 1) // width if used else 0
    if drop:
        terms = {shape: coeff >> drop * width for shape, coeff in terms.items()}
    return terms, low + drop


def _expand(weight: DominantWeight, factors: Sequence[tuple[int, int]],
            width: int) -> tuple[Terms, int]:
    """The factors, in application order, on the vacuum at one width."""
    charges, ell = weight.charges, weight.ell
    terms: Terms = {((),) * len(charges): 1}
    low = boxes = 0
    for i, power in factors:
        terms, low = _divided(charges, ell, terms, low, boxes, i, power, width)
        boxes += power
    return terms, low


def _summed_expansion(weight: DominantWeight, words: Sequence[FWord]) -> _Packed:
    """The expansions of single-step words of one length n, summed packed.

    Each coefficient is at most n! at q=1, so the width covers the sum of
    ``len(words)`` of them.
    """
    width = _width(len(words) * factorial(max(map(len, words), default=0)))
    expansions = [_expand(weight, word[::-1], width) for word in words]
    low = min((base for terms, base in expansions if terms), default=0)
    acc: Terms = {}
    for terms, base in expansions:
        shift = width * (base - low)
        for shape, coeff in terms.items():
            acc[shape] = acc.get(shape, 0) + (coeff << shift)
    return width, low, acc


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


def _encode(vector: FockVector) -> tuple[_Packed, _Packed]:
    """The positive part and the negated negative part of the coefficients,
    each packed at a width that holds a divided power of it.

    A divided power reaches each output shape from each input shape through
    at most one set of nodes, so every output digit is at most the sum of a
    part's coefficients at q=1, which sets the part's width.
    """
    low = min((c.min_exponent for _, c in vector.terms if c), default=0)
    parts: tuple[dict, dict] = ({}, {})
    totals = [0, 0]
    for mp, c in vector.terms:
        for e, v in c.items():
            negative = v < 0
            parts[negative].setdefault(mp.components, []).append((e - low, abs(v)))
            totals[negative] += abs(v)
    out = []
    for part, total in zip(parts, totals):
        width = _width(total)
        out.append((width, low, {shape: sum(v << width * e for e, v in items)
                                 for shape, items in part.items()}))
    return out[0], out[1]


def _apply(vector: FockVector, i: int, power: int) -> FockVector:
    """Encode by sign, run the divided power on each part, decode the difference."""
    _check_factor(i, power, vector.ell)
    boxes = max((mp.size for mp, _ in vector.terms), default=0)
    acc: dict[Multipartition, LaurentPolynomial] = {}
    for sign, (width, low, terms) in zip((1, -1), _encode(vector)):
        terms, low = _divided(vector.charges, vector.ell, terms, low, boxes, i, power, width)
        for shape, coeff in terms.items():
            mp = _multipartition(shape)
            acc[mp] = acc.get(mp, ZERO) + _decode(coeff, width, low) * sign
    return FockVector.from_dict(vector.charges, vector.ell, acc)


def apply_f(vector: FockVector, i: int) -> FockVector:
    """One residue-i box-adding step."""
    return _apply(vector, i, 1)


def apply_divided_f(vector: FockVector, i: int, power: int) -> FockVector:
    """The divided power f_i^(power) = f_i^power / [power]!, in one pass."""
    return _apply(vector, i, power)


def expand(weight: DominantWeight, word: Iterable[tuple[int, int]]) -> FockVector:
    """Apply a divided-power word to the vacuum, rightmost factor first.

    Every factor is checked, in application order, before the first step.
    Every coefficient met on the way is nonnegative and at most
    n! / (r_1! ... r_k!) at q=1, n the number of boxes the word adds and
    r_1, ..., r_k its powers, so one width serves the whole word.
    """
    factors = tuple(word)[::-1]
    for i, power in factors:
        _check_factor(i, power, weight.ell)
    width = _width(factorial(sum(power for _, power in factors))
                   // prod(factorial(power) for _, power in factors))
    terms, low = _expand(weight, factors, width)
    return FockVector(weight.charges, weight.ell, packed=(width, low, terms))


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
    if not left.is_zero() and not right.is_zero() and left.content() != right.content():
        raise ValueError("expansions have different contents")
    plus, minus = _signed(left)
    plus_r, minus_r = _signed(right)
    same = _hom(plus, plus_r) + _hom(minus, minus_r)
    return same - (_hom(plus, minus_r) + _hom(minus, plus_r))


def _signed(vector: FockVector) -> tuple[_Packed, _Packed]:
    """The engine's packed terms, or the sign parts of a vector built by hand."""
    if vector._packed is not None:
        return vector._packed, (1, 0, {})
    return _encode(vector)


def _hom(left: _Packed, right: _Packed) -> LaurentPolynomial:
    """Sum of coefficient products over the shared shapes, decoded once.

    A term's value at q=1 is its digit sum, which the width keeps below
    2^width - 1, so it is the term mod 2^width - 1.  Every digit of the sum of
    products is at most the sum of the products of those values, so a width
    of that sum's bit length leaves the sum free of carries.
    """
    (wl, ll, tl), (wr, lr, tr) = left, right
    pairs = [(coeff, tr[shape]) for shape, coeff in tl.items() if shape in tr]
    if not pairs:
        return ZERO
    ml, mr = (1 << wl) - 1, (1 << wr) - 1
    bound = sum((a % ml) * (b % mr) for a, b in pairs)
    width = max(wl, wr, bound.bit_length())
    total = sum(_widen(a, wl, width) * _widen(b, wr, width) for a, b in pairs)
    return _decode(total, width, ll + lr)


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
