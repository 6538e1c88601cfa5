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

The step runs on bare shapes and reads every degree off one upward scan of
the ungrown shape, from the last component's bottom row to the first row,
keeping a running count of addable minus removable i-nodes below the current
row.  The grown shape gives the same count: adding p creates or destroys
only nodes of content c(p) +- 1, and fold(c) = fold(c - 1) would need
2c = 1 (mod 2*ell).  For the same reason a row holds at most one i-node, so
the count at p's row is exactly the count below p.  ``node_degree`` (in
``klrc._shapes`` with ``Multipartition``, both re-exported here) is the
per-node form of the rule, kept for the tableau reference route.

Coefficients are packed integers (Kronecker substitution): a vector carries
one digit width w and one base exponent b, and the int P stands for the
polynomial whose coefficient of q^(b + j) is digit j of P in base 2^w.  A
degree shift is then a left shift and a sum an int add; every shift is
offset so that none is negative, and the base exponent absorbs the offsets.
Every coefficient met while expanding a word of n boxes is nonnegative and
at most n! at q=1, before division too, so with w = bits(n!) + bits(r!) + 1,
r the largest power, no digit ever carries.  Dividing by [r]! divides P by
the packed factorial F; the quotient is accepted only when the remainder is
0 and every digit is below 2^(w - bits(r!)), which leaves the product of
the quotient and F without carries and so equal to P as polynomials (see
``_divide``).  Coefficients are decoded to Laurent polynomials once, at the
boundary; ``hom_dim`` multiplies packed ints at a width set by the exact
values at q=1.  Vectors built by hand are packed by sign, as a positive part
and a negated negative part, so the engine only ever sees nonnegative ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Iterable, Mapping, Sequence

from ._shapes import (Multipartition, Node, Shape, _multipartition, _render_partition,
                      _shape_key, content_vector, node_degree, residue)
from .cartan import DominantWeight, RootVector, cartan, fold_residue
from .laurent import ZERO, LaurentPolynomial, _wrap

FWord = tuple[tuple[int, int], ...]
"""A sequence of (residue, power) operator factors; the leftmost acts last."""


@dataclass(frozen=True)
class FockVector:
    """A finite combination of multipartitions sharing one charge sequence."""

    charges: tuple[int, ...]
    ell: int
    terms: tuple[tuple[Multipartition, LaurentPolynomial], ...]
    _packed: "_Packed | None" = field(default=None, repr=False, compare=False)

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

    def is_zero(self) -> bool:
        return not self.terms

    def content(self) -> RootVector:
        shape = self.terms[0][0] if self.terms else Multipartition.empty(len(self.charges))
        return content_vector(self.charges, shape, self.ell)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rendered: dict[tuple[int, ...], str] = {}  # each distinct partition once
        parts = []
        for mp, c in self.terms:
            comps = []
            for part in mp.components:
                text = rendered.get(part)
                if text is None:
                    text = rendered[part] = _render_partition(part)
                comps.append(text)
            parts.append(f"{_coeff_prefix(c)}({','.join(comps)})")
        return " + ".join(parts)


def _coeff_prefix(c: LaurentPolynomial) -> str:
    items = list(c.items())
    if len(items) == 1:
        e, v = items[0]
        if v == 1:
            return "" if e == 0 else "q" if e == 1 else f"q^{e}"
    return f"({c})"


Terms = dict[Shape, int]
"""Packed coefficients: the digits of each int in base 2^width are q-coefficients."""

_Packed = tuple[int, int, Terms]
"""(width, base exponent, terms): digit j of a term is its coefficient of q^(base + j)."""


def _check_factor(i: int, power: int, ell: int) -> None:
    if power < 1:
        raise ValueError("power must be at least 1")
    if not 0 <= i <= ell:
        raise ValueError(f"residue {i} out of range for rank {ell}")


def _width(bound: int, power: int) -> int:
    """Digit width for coefficients that stay at most ``bound`` at q=1, with
    room for the quotient check of divisions by [r]!, r <= ``power``."""
    return bound.bit_length() + factorial(power).bit_length() + 1


def _step(charges: Sequence[int], ell: int, terms: Terms, i: int, width: int,
          boxes: int) -> Terms:
    """One residue-i step on packed shapes of at most ``boxes`` boxes.

    Each degree is a shift of ``width * d`` bits per unit of the running
    count, read off the i-nodes of each component, last component first.  A
    step meets each distinct component many times, so its i-nodes are listed
    once per step.  The count never drops below minus the number of boxes, so
    every shift is offset by ``d * boxes`` units, and the caller lowers the
    base exponent by as much.
    """
    period = 2 * ell
    hit = [fold_residue(c, ell) == i for c in range(period)]
    unit = width * cartan(ell).d[i]
    offset = unit * boxes
    known: list[dict] = [{} for _ in charges]
    acc: Terms = {}
    for shape, coeff in terms.items():
        shift = offset  # offset plus unit times (addable minus removable i-nodes below)
        for s in range(len(shape) - 1, -1, -1):
            part = shape[s]
            nodes = known[s].get(part)
            if nodes is None:
                nodes = known[s][part] = _i_nodes(part, charges[s], hit, period)
            for grown_part in nodes:
                if grown_part is None:
                    shift -= unit
                else:
                    grown = shape[:s] + (grown_part,) + shape[s + 1:]
                    acc[grown] = acc.get(grown, 0) + (coeff << shift)
                    shift += unit
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
    """``power`` steps, exact division by [power]!, then the digits every term
    has as trailing zeros dropped; returns the terms and their base exponent."""
    d = cartan(ell).d[i]
    for added in range(power):
        terms = _step(charges, ell, terms, i, width, boxes + added)
        low -= d * (boxes + added)
    if power > 1 and terms:
        terms = _divide(terms, power, d, width)
        low += d * power * (power - 1) // 2
    used = 0
    for coeff in terms.values():
        used |= coeff
    drop = ((used & -used).bit_length() - 1) // width if used else 0
    if drop:
        terms = {shape: coeff >> drop * width for shape, coeff in terms.items()}
    return terms, low + drop


def _divide(terms: Terms, power: int, d: int, width: int) -> Terms:
    """Divide every term by f(2^width), f = q^(d*power*(power-1)/2) * [power]!.

    f has nonnegative coefficients summing to power!, which is below
    2^b, b = bits(power!).  A quotient is accepted only when the remainder
    is 0 and every digit is below 2^(width - b): then every digit of f times
    the quotient is below 2^width, so that product has no carries and equals
    the dividend as a polynomial, whose digits the width keeps below
    2^width.  An exact quotient always passes, its digits being at most the
    width's q=1 bound.  Anything else raises ``ValueError``.
    """
    spacing = 1 << 2 * d * width   # [s] shifted is 1 + q^(2d) + ... + q^(2d(s-1))
    divisor = 1
    for s in range(2, power + 1):
        divisor *= (spacing ** s - 1) // (spacing - 1)
    digits = max(coeff.bit_length() for coeff in terms.values()) // width + 1
    top = (1 << width) - (1 << width - factorial(power).bit_length())
    mask = top * (((1 << width * digits) - 1) // ((1 << width) - 1))
    out: Terms = {}
    for shape, coeff in terms.items():
        quotient, remainder = divmod(coeff, divisor)
        if remainder or quotient & mask:
            raise ValueError(f"inexact division by [{power}]! at shape {shape}")
        out[shape] = quotient
    return out


def _expand(weight: DominantWeight, factors: Sequence[tuple[int, int]],
            width: int) -> tuple[Terms, int]:
    """The factors, in application order, on the vacuum at one width."""
    terms: Terms = {((),) * weight.level: 1}
    low = boxes = 0
    for i, power in factors:
        terms, low = _divided(weight.charges, weight.ell, terms, low, boxes, i, power, width)
        boxes += power
    return terms, low


def _summed_expansion(weight: DominantWeight, words: Sequence[FWord]) -> _Packed:
    """The expansions of single-step words of one length n, summed packed.

    Each coefficient is at most n! at q=1, so the width covers the sum of
    ``len(words)`` of them.
    """
    width = _width(len(words) * factorial(max(map(len, words), default=0)), 1)
    expansions = [_expand(weight, word[::-1], width) for word in words]
    low = min((base for terms, base in expansions if terms), default=0)
    acc: Terms = {}
    for terms, base in expansions:
        shift = width * (base - low)
        for shape, coeff in terms.items():
            acc[shape] = acc.get(shape, 0) + (coeff << shift)
    return width, low, acc


def _decode(packed: int, width: int, low: int) -> LaurentPolynomial:
    mask = (1 << width) - 1
    coeffs: dict[int, int] = {}
    while packed:
        digit = packed & mask
        if digit:
            coeffs[low] = digit
        packed >>= width
        low += 1
    return _wrap(coeffs)


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


def _vector(charges: tuple[int, ...], ell: int, packed: _Packed) -> FockVector:
    """Decode at the boundary: one Laurent polynomial per term, in sort order."""
    width, low, terms = packed
    return FockVector(charges, ell,
                      tuple((_multipartition(shape), _decode(terms[shape], width, low))
                            for shape in sorted(terms, key=_shape_key)),
                      packed)


def _encode(vector: FockVector, power: int) -> tuple[_Packed, _Packed]:
    """The positive part and the negated negative part of the coefficients,
    each packed at a width that holds ``power`` steps and a division."""
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
        width = _width(total * factorial(power), power)
        out.append((width, low, {shape: sum(v << width * e for e, v in items)
                                 for shape, items in part.items()}))
    return out[0], out[1]


def _apply(vector: FockVector, i: int, power: int) -> FockVector:
    """Encode by sign, run the divided power on each part, decode the difference."""
    _check_factor(i, power, vector.ell)
    boxes = max((mp.size for mp, _ in vector.terms), default=0)
    acc: dict[Multipartition, LaurentPolynomial] = {}
    for sign, (width, low, terms) in zip((1, -1), _encode(vector, power)):
        terms, low = _divided(vector.charges, vector.ell, terms, low, boxes, i, power, width)
        for shape, coeff in terms.items():
            mp = _multipartition(shape)
            acc[mp] = acc.get(mp, ZERO) + _decode(coeff, width, low) * sign
    return FockVector.from_dict(vector.charges, vector.ell, acc)


def apply_f(vector: FockVector, i: int) -> FockVector:
    """One residue-i box-adding step."""
    return _apply(vector, i, 1)


def apply_divided_f(vector: FockVector, i: int, power: int) -> FockVector:
    """The divided power: ``power`` single steps, then exact division by [power]!."""
    return _apply(vector, i, power)


def expand(weight: DominantWeight, word: Iterable[tuple[int, int]]) -> FockVector:
    """Apply a divided-power word to the vacuum, rightmost factor first.

    Every factor is checked, in application order, before the first step.
    Every coefficient met on the way is nonnegative and at most n! at q=1,
    n the number of boxes the word adds, so one width serves the whole word.
    """
    factors = tuple(word)[::-1]
    for i, power in factors:
        _check_factor(i, power, weight.ell)
    width = _width(factorial(sum(power for _, power in factors)),
                   max((power for _, power in factors), default=1))
    terms, low = _expand(weight, factors, width)
    return _vector(weight.charges, weight.ell, (width, low, terms))


def word_content(word: Iterable[tuple[int, int]], ell: int) -> RootVector:
    counts = [0] * (ell + 1)
    for i, power in word:
        _check_factor(i, power, ell)
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
    plus, minus = _signed(left)
    plus_r, minus_r = _signed(right)
    same = _hom(plus, plus_r) + _hom(minus, minus_r)
    return same - (_hom(plus, minus_r) + _hom(minus, plus_r))


def _signed(vector: FockVector) -> tuple[_Packed, _Packed]:
    """The engine's packed terms, or the sign parts of a vector built by hand."""
    if vector._packed is not None:
        return vector._packed, (1, 0, {})
    return _encode(vector, 0)


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
