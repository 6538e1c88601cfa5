"""The connected directed quiver on the dominant maximal weights of a class.

Vertices are the class members with their minimal solution vectors.  A move
takes one fundamental multiplicity off each of its indices (one or two) and
puts it back a fixed step away, signed as its kind; an arrow is a move that
raises the solution vector by the move's increment d, the minimal solution of
A.d = -Δm for the move's change Δm to the multiplicities.  These increments
are the first-layer roots, one move per root, so each root gamma of
``cartan._first_layer`` gives the move with Δm = -A.gamma and d = gamma:
its takes (the indices of Δm's negative entries, with multiplicity) paired
in order with its puts (of the positive entries) spell its label, the sign
of each put minus its take giving the kind.  Arrows always point toward the
larger vector, the fixed root has in-degree zero, and every vertex is
reachable from it by a directed path.

Each move is stored once in a per-rank move table (``_move_table``), keyed
by its label, with its increment d, witness, rendered label, its change Δm to
the multiplicities, the coordinate bitmasks ``zero = {j : d_j = 0}`` and
``low = {j : d_j <= 1}``, and the coordinate lists ``needs`` and ``drops``
that ``build_quiver`` reads (below).  The table is the move set and the only
rule for which labels are moves, read through ``_entry``, which raises
ValueError for a label it lacks; each witness is built once, by
``_witness``.  No move puts a multiplicity back where it takes one off, so a
weight m holds what a move takes off exactly when m + Δm >= 0, and
``candidate_moves`` lists the labels that pass, in table order.  For a
source x and null-root coefficients n, the move is an arrow when x + d drops
below n somewhere, exactly when ``one & zero or two & low`` is nonzero, with
``one = {j : x_j < n_j}`` and ``two = {j : x_j + 1 < n_j}``.  This is exact
because x >= 0 and n_j <= 2 leave n_j - x_j <= 2 and every d_j lies in
{0, 1, 2}: x_j + d_j < n_j needs n_j - x_j = 1 and d_j = 0 (j in ``one``),
or n_j - x_j = 2 and d_j <= 1 (j in ``two``).  ``arrow_test`` decides one
move on value objects by this test.

``build_quiver`` runs the test once per move over all vertices, with four
bitsets over the vertices per coordinate j: m_j >= 1, m_j >= 2, x_j < n_j and
x_j + 1 < n_j, laid out flat in two lists, ``has = has[1] + has[2]`` and
``below = one + two``, coordinate j of a second half at index ell + 1 + j.
Each move lists the flat indices it reads, built once per rank with the
table:
``needs`` indexes ``has`` at its takes (m_j >= 1 where Δm_j = -1, m_j >= 2
where Δm_j = -2), and ``drops`` indexes ``below`` at x_j < n_j where d_j = 0
and at x_j + 1 < n_j where d_j = 1.  Where d_j = 0 the mask test reads both
x_j < n_j and x_j + 1 < n_j, but the second is a subset of the first, so
``drops`` reads the first alone.  A move's sources are one AND over its
``needs`` with one OR over its ``drops``, the same set as the two masks
give; neither list is empty, as every move takes a multiplicity off and d
lies below the null root, so d_j < n_j <= 2 somewhere.  The class comes from
``maxweights._class_packed`` as packed coordinate columns, one 64-bit digit
per member, and everything before the arrow loop runs a column at a time.
The bitsets are read off the packed columns by the class pass's own
digitwise compare: digit i of (col | G) - d*ONES, G the top bits and ONES a
1 in every digit, has its top bit set exactly when col_i >= d.  That bit,
shifted to bit 0 of its digit, is member i's flag; the low byte of each
digit, one flag byte per member, read as a binary numeral is the bitset.
The columns are then unpacked, and each member's x alone is packed into an
int, first coordinate in the lowest digit; the vertex index is keyed by it.
The arrow loop walks the set bits of a move's sources with ``str.find`` over
their binary text, and an arrow costs one add, one int check and one dict
lookup:

* x at digit width w = bits(max x + 2) + 1.  A raised digit x_j + d_j is at
  most max x + 2 < 2^(w-1), so R = X + D has no carry and every digit stays
  below its top (guard) bit.  With G the guard bits and N the packed n,
  digit j of R + G - N is r_j + 2^(w-1) - n_j, in 0..2^w - 1 as
  1 <= n_j <= 2 < 2^(w-1); its guard bit is set exactly when r_j >= n_j.  So
  "x + d drops below n somewhere" is ``(R + G - N) & G != G``; it is
  asserted.
* m is not packed: x fixes it.  The class pass asserts A.x + m = root for
  every member, so m = root - A.x, and the move table defines Δm = -A.d.  A
  member t with x_t = x + d therefore has m_t = root - A.x - A.d = m + Δm,
  the move's target, and two members never share an x.  So the target is
  the member whose packed x is R, and "x + d is the target's minimal
  solution" is ``R`` being a key of the index; it is asserted.

The table lists its moves in lexicographic order of Δm, then of label text.
For one source the target of a move is m + Δm, and adding a fixed m keeps
the order of the Δm; since the members are listed in lexicographic order of
m, that is the order of target indices, and moves with equal Δm share their
target.  So the arrows appended to a source's bucket move by move come in
(target, label) order, and the buckets joined in source order are the rows.

``tests/reference.py`` keeps the second routes: the rule that decides from
each kind's steps and index ranges which labels are moves, the move table
built label by label by that rule with ``maxweights._solve``, the increments
in closed form, the value-object arrow test that raises the solution vector,
and the per-source builder, with its own list of the moves a weight can take.

``render(quiver, fmt)`` is the one renderer of each format in ``FORMATS``
(``text``, ``dot``, ``json``, ``tsv``): a generator of the document's text in
order, one piece per line, vertex or arrow block.  ``export`` joins the
pieces; ``klrc quiver`` writes them one at a time as they are rendered, so
its memory is set by the quiver and not by the size of its text.  The
renderers work a class at a time, as the class pass does: the vertex names
and the JSON betas come from ``cartan._column_terms`` over the columns of
``ms`` and ``xs``, each column's distinct entries rendered once.  Each
move's tail, the text after the target (the label and delta of a text or
tsv line; the label, delta and witness that close a JSON arrow block),
depends only on the rank and the format.  A per-rank store (``_tails``,
``RANK_CACHE_SIZE`` ranks) keeps it per format by label text, rendered the
first time the move fires in that format, so a process renders no tail it
does not write and each at most once per rank and format; every arrow is
one f-string around a stored tail.  A JSON vertex or arrow block opens with
the text before it in its list, the bracket or the comma, in the same
f-string.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, count, repeat
from operator import add, and_, lshift, neg, or_
from typing import Iterable, Iterator, NamedTuple

from .cartan import (RANK_CACHE_SIZE, DominantWeight, RootVector, _column_terms, _first_layer,
                     cartan, root_text)
from .maxweights import DEFAULT_MAX_VERTICES, MaximalWeightDatum, _class_packed, _digits, _unpack

KIND_UP = "+"              # one index raised by 2
KIND_DOWN = "-"            # one index lowered by 2
KIND_UP_UP = "++"          # two indices raised by 1
KIND_DOWN_DOWN = "--"      # two indices lowered by 1
KIND_DOWN_UP = "-+"        # one lowered, one raised by 1


@dataclass(frozen=True)
class MoveLabel:
    """One of the five index moves, with its parameters."""

    kind: str
    i: int
    j: int | None = None

    def __str__(self) -> str:
        parts = ",".join(f"{n}^{sign}" for sign, n in zip(self.kind, (self.i, self.j)))
        return f"Δ_{{{parts}}}"


def delta_vector(label: MoveLabel, ell: int) -> RootVector:
    """The root-lattice increment of a move, the first-layer root gamma with
    A.gamma = -Δm, read off the move table."""
    return _entry(label, ell).delta


def candidate_moves(weight: DominantWeight) -> list[MoveLabel]:
    """All moves applicable to ``weight``, in the move table's order: the
    labels whose Δm leaves every multiplicity nonnegative.

    The pair moves at adjacent indices duplicate the single-index moves
    (the raised pair at (i, i+1) equals the single raise at i, and dually),
    so the table holds only the canonical single labels.
    """
    m = weight.m
    return [label for label, move in _move_table(weight.ell).items()
            if min(map(add, m, move.shift)) >= 0]


class _Move(NamedTuple):
    """A move's entry in the per-rank move table."""

    label: MoveLabel
    delta: RootVector
    witness: tuple[int, ...]
    text: str           # str(label)
    shift: tuple[int, ...]  # the change Δm the move makes to the multiplicities
    zero: int           # bitmask of the coordinates j with delta_j = 0
    low: int            # bitmask of the coordinates j with delta_j <= 1
    # the flat bitset indices ``build_quiver`` reads, in coordinate order:
    needs: tuple[int, ...]  # j where Δm_j = -1, ell + 1 + j where Δm_j = -2
    drops: tuple[int, ...]  # j where delta_j = 0, ell + 1 + j where delta_j = 1


@lru_cache(maxsize=RANK_CACHE_SIZE)
def _move_table(ell: int) -> dict[MoveLabel, _Move]:
    """Every move valid at rank ``ell``, one per first-layer root, keyed by
    its label, in lexicographic order of its Δm, then of its label text."""
    moves = []
    for gamma, ag in _first_layer(ell):
        shift = tuple(map(neg, ag))
        takes = [n for n, s in enumerate(shift) for _ in range(-s)]
        puts = [n for n, s in enumerate(shift) for _ in range(s)]
        kind = "".join(["+" if put > take else "-" for take, put in zip(takes, puts)])
        # "+-" is a raised index below a lowered one: the lowered one comes first
        label = (MoveLabel(KIND_DOWN_UP, takes[1], takes[0]) if kind == "+-"
                 else MoveLabel(kind, *takes))
        # the two-mask arrow test is exact only for increments in {0, 1, 2}
        assert set(gamma) <= {0, 1, 2}, label
        moves.append(_Move(
            label, RootVector(gamma), _witness(label, ell), str(label), shift,
            sum(1 << n for n, d in enumerate(gamma) if d == 0),
            sum(1 << n for n, d in enumerate(gamma) if d <= 1),
            tuple([(-s - 1) * (ell + 1) + n for n, s in enumerate(shift) if s < 0]),
            tuple([d * (ell + 1) + n for n, d in enumerate(gamma) if d <= 1])))
    moves.sort(key=lambda move: (move.shift, move.text))
    return {move.label: move for move in moves}


def _entry(label: MoveLabel, ell: int) -> _Move:
    """The move table's entry for ``label``; ValueError when ``label`` is no
    move at rank ``ell``."""
    move = _move_table(ell).get(label)
    if move is None:
        raise ValueError(f"move {label} is out of range for rank {ell}")
    return move


def witness_sequence(label: MoveLabel, ell: int) -> tuple[int, ...]:
    """A residue sequence realizing the arrow one simple root at a time.

    The sequence has length equal to the increment's height, and adding its
    simple roots in order keeps the coroot pairing at each step positive.
    """
    return _entry(label, ell).witness


def _witness(label: MoveLabel, ell: int) -> tuple[int, ...]:
    """``witness_sequence`` of a move of the table, by the move's kind."""
    i, j = label.i, label.j
    if label.kind == KIND_UP:
        if i == 0:
            return (0, 1)
        return tuple(range(i, -1, -1)) + tuple(range(1, i)) + (i + 1, i)
    if label.kind == KIND_DOWN:
        if i == ell:
            return (ell, ell - 1)
        return tuple(range(i, ell + 1)) + tuple(range(ell - 1, i, -1)) + (i - 1, i)
    if label.kind == KIND_DOWN_UP:
        if i <= j:
            return tuple(range(i, j + 1))
        # j <= i - 2: raise j by 2, then run up to ell and back down to i
        return (_witness(MoveLabel(KIND_UP, j), ell)
                + tuple(range(j + 2, ell + 1)) + tuple(range(ell - 1, i - 1, -1)))
    if label.kind == KIND_UP_UP:
        if i == j:
            return tuple(range(i, -1, -1)) + tuple(range(1, i + 1))
        # j >= i + 2: raise i by 2, then trade down at i+2 and up at j
        return _witness(MoveLabel(KIND_UP, i), ell) + tuple(range(i + 2, j + 1))
    # KIND_DOWN_DOWN
    if i == j:
        return tuple(range(j, ell + 1)) + tuple(range(ell - 1, j - 1, -1))
    # i <= j - 2: lower j by 2, then trade down at i and up at j-2
    return _witness(MoveLabel(KIND_DOWN, j), ell) + tuple(range(i, j - 1))


@dataclass(frozen=True)
class Arrow:
    source: DominantWeight
    target: DominantWeight
    label: MoveLabel
    delta: RootVector
    witness: tuple[int, ...]


@dataclass(frozen=True)
class MaxWeightQuiver:
    """The quiver as plain tuples: the class members' multiplicities ``ms`` in
    lexicographic order, their minimal solutions ``xs``, and one row
    ``(source index, target index, move)`` per arrow.  ``vertices``,
    ``arrows`` and ``vertex`` build the value objects on first read."""

    root: DominantWeight
    ms: tuple[tuple[int, ...], ...]
    xs: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, int, _Move], ...]

    @property
    def ell(self) -> int:
        return self.root.ell

    @cached_property
    def vertices(self) -> tuple[MaximalWeightDatum, ...]:
        return tuple([MaximalWeightDatum(DominantWeight(m), RootVector(x))
                      for m, x in zip(self.ms, self.xs)])

    @cached_property
    def arrows(self) -> tuple[Arrow, ...]:
        weights = [v.weight for v in self.vertices]
        return tuple([Arrow(weights[s], weights[t], move.label, move.delta, move.witness)
                      for s, t, move in self.rows])

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {m: n for n, m in enumerate(self.ms)}

    def vertex(self, weight: DominantWeight) -> MaximalWeightDatum:
        n = self._index.get(weight.m)
        if n is None:
            raise KeyError(f"{weight} is not a vertex")
        return self.vertices[n]


def _below_masks(x: tuple[int, ...], null: tuple[int, ...]) -> tuple[int, int]:
    """The bitmasks ``one = {j : x_j < n_j}`` and ``two = {j : x_j + 1 < n_j}``
    of the two-mask arrow test, for n the null-root coefficients ``null``."""
    one = two = 0
    for n, (xn, dn) in enumerate(zip(x, null)):
        if xn < dn:
            one |= 1 << n
            if xn + 1 < dn:
                two |= 1 << n
    return one, two


def arrow_test(source: MaximalWeightDatum, label: MoveLabel) -> MaximalWeightDatum | None:
    """The target datum when the move is an arrow out of ``source``, else None.

    The move is decided by the two-mask test that ``build_quiver`` runs, which
    is exact only for x >= 0, as every minimal solution vector such as
    ``beta_of`` gives is.  An x of another rank than the weight, a label out
    of range, a negative entry of x, or a weight without the multiplicity the
    move takes off raises ValueError.
    """
    weight = source.weight
    if len(source.x.coeffs) != weight.ell + 1:
        raise ValueError("rank mismatch")
    move = _entry(label, weight.ell)
    if min(source.x.coeffs) < 0:
        raise ValueError(f"x = {source.x.coeffs} has a negative entry")
    m = tuple(map(add, weight.m, move.shift))
    if min(m) < 0:
        raise ValueError(f"{weight} lacks the multiplicity for move {label}")
    one, two = _below_masks(source.x.coeffs, cartan(weight.ell).delta_coeffs)
    if not (one & move.zero or two & move.low):
        return None
    return MaximalWeightDatum(DominantWeight(m),
                              RootVector(tuple(map(add, source.x.coeffs, move.delta.coeffs))))


# bytes of 0/1 flags to the ASCII digits "0"/"1"
_DIGITS = bytes.maketrans(b"\0\1", b"01")
# the byte of a 64-bit digit of ``maxweights._digits`` that holds its bit 0
_LOW_BYTE = 0 if sys.byteorder == "little" else 7


def _packed(columns: Iterable[Iterable[int]], offsets: range) -> list[int]:
    """Each member's coordinates packed into one int, coordinate j shifted
    left by ``offsets[j]``, from the coordinate columns."""
    shifted = [map(lshift, col, repeat(at)) for col, at in zip(columns, offsets)]
    return list(map(sum, zip(*shifted)))


def _vertex_bitsets(size: int, m_cols: list[int], x_cols: list[int], null: tuple[int, ...]
                    ) -> tuple[dict[int, list[int]], list[int], list[int]]:
    """``(has, one, two)``: the per-coordinate vertex bitsets of m_j >= d
    (``has[d]``, d = 1, 2), x_j < n_j and x_j + 1 < n_j, read off the packed
    columns of ``maxweights._class_packed`` by the digitwise compare of the
    module docstring."""
    ones = _digits(repeat(1, size))
    top = ones << 63
    everyone = (1 << size) - 1

    def at_least(col: int, d: int) -> int:
        flags = (((col | top) - d * ones) >> 63 & ones).to_bytes(8 * size, sys.byteorder)
        return int(flags[_LOW_BYTE::8][::-1].translate(_DIGITS), 2)

    has = {d: [at_least(col, d) for col in m_cols] for d in (1, 2)}
    one = [everyone ^ at_least(col, n) for col, n in zip(x_cols, null)]
    two = [everyone ^ at_least(col, n - 1) for col, n in zip(x_cols, null)]
    return has, one, two


def build_quiver(weight: DominantWeight, max_vertices: int = DEFAULT_MAX_VERTICES) -> MaxWeightQuiver:
    """The full directed quiver on the equivalence class of ``weight``.

    Each move is decided for all vertices at once by the two-mask test of the
    module docstring, run over vertex bitsets, which the assertion x >= 0 of
    the class pass ``maxweights._class_packed`` makes exact: one AND over the
    bitsets its ``needs`` index and one OR over those its ``drops`` index.
    The class pass raises the vertex cap.  Everything before the arrow loop
    runs a coordinate at a time over the members' columns, the bitsets over
    the packed ones; the loop walks a move's sources by ``str.find`` over the
    bits of their bitset, and finds each target by its packed x, which fixes
    its m (module docstring).
    """
    size, m_packed, x_packed = _class_packed(weight.m, max_vertices)
    ell = weight.ell
    null = cartan(ell).delta_coeffs
    has, one, two = _vertex_bitsets(size, m_packed, x_packed, null)
    # flat, as the move table's ``needs`` and ``drops`` index them
    has, below = has[1] + has[2], one + two
    m_cols = [_unpack(col, size) for col in m_packed]
    x_cols = [_unpack(col, size) for col in x_packed]
    del m_packed, x_packed  # each column is held once, packed or unpacked
    # digit offsets of the packed x (width and no-carry argument in the module
    # docstring)
    wx = (max(map(max, x_cols)) + 2).bit_length() + 1
    at_x = range(0, wx * (ell + 1), wx)
    packed_x = _packed(x_cols, at_x)
    index = dict(zip(packed_x, count()))
    guard = sum([1 << (n + wx - 1) for n in at_x])
    lift = guard - sum(map(lshift, null, at_x))
    ms, xs = tuple(zip(*m_cols)), tuple(zip(*x_cols))
    buckets: list[list[tuple[int, int, _Move]]] = [[] for _ in ms]
    for move in _move_table(ell).values():
        sources = (reduce(and_, map(has.__getitem__, move.needs))
                   & reduce(or_, map(below.__getitem__, move.drops)))
        if not sources:
            continue
        dx = sum(map(lshift, move.delta.coeffs, at_x))
        bits = bin(sources)[:1:-1]  # bit s of sources at position s
        s = bits.find("1")
        while s >= 0:
            raised = packed_x[s] + dx
            assert (raised + lift) & guard != guard, \
                f"{move.text} from {ms[s]}: x + d stays above the null root"
            t = index.get(raised)
            assert t is not None, \
                f"{move.text} from {ms[s]}: x + d is not the target's minimal solution"
            buckets[s].append((s, t, move))
            s = bits.find("1", s + 1)
    return MaxWeightQuiver(weight, ms, xs, tuple(chain.from_iterable(buckets)))


# -- export ------------------------------------------------------------


def render(quiver: MaxWeightQuiver, fmt: str) -> Iterator[str]:
    """The text of ``quiver`` in ``fmt``, one of ``FORMATS``, in order and in
    pieces: one per line, vertex or arrow block.  The pieces joined are the
    whole document, ending in a newline.  ``build_quiver`` has made every
    check, so the pieces are only formatted text; an unknown ``fmt`` raises
    ValueError here, before the first piece."""
    lines = FORMATS.get(fmt)
    if lines is None:
        raise ValueError(f"unknown format {fmt!r}")
    return lines(quiver)


def export(quiver: MaxWeightQuiver, fmt: str) -> str:
    """The text of ``quiver`` in ``fmt`` as one string: ``render``'s pieces
    joined.  A caller that writes the text out should write the pieces
    instead, so that the whole text is never held at once."""
    return "".join(render(quiver, fmt))


@lru_cache(maxsize=RANK_CACHE_SIZE)
def _tails(ell: int) -> defaultdict[str, dict[str, str]]:
    """The rendered tails of rank ``ell``'s moves: per format, a move's label
    text to its tail.  The renderers fill it as they go, a move the first
    time it fires in that format, so it holds no tail that was not written."""
    return defaultdict(dict)


def _arrow_lines(quiver: MaxWeightQuiver, fmt: str, head: str, arrow: str, sep: str
                 ) -> Iterator[str]:
    """``head``, then one line per arrow,
    ``<source><arrow><target><sep><label><sep><delta>``.

    The vertex names are rendered a column at a time, and each move's tail,
    its label and delta, once per rank and format."""
    yield head
    names = _column_terms(zip(*quiver.ms), "Λ")
    tails = _tails(quiver.ell)[fmt]
    for s, t, move in quiver.rows:
        tail = tails.get(move.text)
        if tail is None:
            tail = tails[move.text] = f"{sep}{move.text}{sep}{root_text(move.delta.coeffs)}\n"
        yield f"{names[s]}{arrow}{names[t]}{tail}"


def _text_lines(quiver: MaxWeightQuiver) -> Iterator[str]:
    """A summary line, then one line per arrow: source, target, label and delta."""
    return _arrow_lines(quiver, "text", f"root {quiver.root}  vertices {len(quiver.ms)}  "
                                        f"arrows {len(quiver.rows)}\n", " -> ", "  ")


def _tsv_lines(quiver: MaxWeightQuiver) -> Iterator[str]:
    """A header, then one tab-separated line per arrow."""
    return _arrow_lines(quiver, "tsv", "#source\ttarget\tlabel\tdelta\n", "\t", "\t")


def _dot_lines(quiver: MaxWeightQuiver) -> Iterator[str]:
    """Graphviz text of the quiver."""
    yield "digraph maxweights {\n"
    for n, name in enumerate(_column_terms(zip(*quiver.ms), "Λ")):
        yield f'  v{n} [label="{name}"];\n'
    for s, t, move in quiver.rows:
        yield f'  v{s} -> v{t} [label="{move.text}"];\n'
    yield "}\n"


def _json_lines(quiver: MaxWeightQuiver) -> Iterator[str]:
    """``json.dumps(payload, indent=2, ensure_ascii=False)`` of the quiver, laid
    out here so that the encoder sees only strings.

    Each vertex block and each arrow block is one f-string, which opens with
    the text before it: the list's opening bracket before the first block, a
    comma before each later one.  The betas are rendered a column at a time,
    and each move's label, delta and witness once per rank, as the tail of
    its arrow blocks."""
    def ints(values: Iterable[int], indent: str = "      ") -> str:
        # every list of ints here, a vector or a witness, has an entry
        body = f",\n{indent}  ".join(map(str, values))
        return f"[\n{indent}  {body}\n{indent}]"

    def openings() -> Iterator[str]:
        return chain(["[\n    "], repeat(",\n    "))

    yield (f'{{\n  "ell": {quiver.ell},\n  "level": {quiver.root.level},\n'
           f'  "root": {ints(quiver.root.m, "  ")},\n  "vertices": ')
    # a class has at least one member, and a root text is digits, "a" and
    # "+", which a JSON string holds unescaped
    betas = _column_terms(zip(*quiver.xs), "a")
    for opening, m, x, beta in zip(openings(), quiver.ms, quiver.xs, betas):
        yield (f'{opening}{{\n      "m": {ints(m)},\n      "X": {ints(x)},'
               f'\n      "beta": "{beta}"\n    }}')
    yield '\n  ],\n  "arrows": '
    tails = _tails(quiver.ell)["json"]
    for opening, (s, t, move) in zip(openings(), quiver.rows):
        tail = tails.get(move.text)
        if tail is None:
            tail = tails[move.text] = (
                f',\n      "label": {json.dumps(move.text, ensure_ascii=False)},'
                f'\n      "delta": {ints(move.delta.coeffs)},'
                f'\n      "witness": {ints(move.witness)}\n    }}')
        yield f'{opening}{{\n      "src": {s},\n      "dst": {t}{tail}'
    yield "\n  ]\n}\n" if quiver.rows else "[]\n}\n"


# each format's renderer, in the order ``klrc quiver --format`` lists them
FORMATS = {"text": _text_lines, "dot": _dot_lines, "json": _json_lines, "tsv": _tsv_lines}
