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
the multiplicities, and the flat index lists ``needs`` and ``drops`` that
decide it (below).  The table is the move set and the only rule for which
labels are moves, read through ``_entry``, which raises ValueError for a
label it lacks; each witness is built once, by ``_witness``.  No move puts a
multiplicity back where it takes one off, so a weight m holds what a move
takes off exactly when m + Δm >= 0, and ``candidate_moves`` lists the labels
that pass, in table order.

From a source x the move is an arrow when x + d drops below the null-root
coefficients n somewhere.  As x >= 0 (asserted for every minimal solution,
by ``maxweights._reduce`` or the class pass), n_j <= 2 and every d_j lies in
{0, 1, 2} (asserted when the table is built), x_j + d_j < n_j holds exactly
when d_j = 0 and x_j < n_j, or d_j = 1 and x_j + 1 < n_j.  So one rule
decides a move, over flags laid out flat, coordinate j of a second half at
index ell + 1 + j: ``has`` holds m_j >= 1, then m_j >= 2, and ``below``
holds x_j < n_j, then x_j + 1 < n_j.  ``needs`` indexes ``has`` at the
move's takes (m_j >= 1 where Δm_j = -1, m_j >= 2 where Δm_j = -2), and
``drops`` indexes ``below`` at x_j < n_j where d_j = 0 and at x_j + 1 < n_j
where d_j = 1: the move is an arrow exactly when a flag its ``drops`` index
is set.  Neither list is empty, as every move takes a multiplicity off and d
lies below the null root, so d_j < n_j <= 2 somewhere.  ``arrow_test``
decides one move by this rule, over one source's flags.

``build_quiver`` runs the rule once per move over all vertices, each flag a
bitset over the vertices: a move's sources are one AND over the bitsets its
``needs`` index with one OR over those its ``drops`` index.  The class comes
from ``maxweights._class_packed`` as packed coordinate columns with their
lane masks, and the bitsets are read off them by the digitwise compare of
``klrc._lanes``.  The columns are then unpacked, ``ms`` and ``xs`` are
their transposes, and each member's x alone is packed into a lane int of
its own; the vertex index is keyed by it.  The arrow loop walks the set
bits of a move's sources with ``str.find`` over their binary text, and an
arrow costs one add, one int check and one dict lookup:

* x at digit width w = bits(max x + 2) + 1, so that every raised digit
  x_j + d_j <= max x + 2 stays clear of its guard bit and R = X + D is the
  lane int of x + d.  With G the guard bits and N the packed n, R + (G - N)
  is the digitwise compare (R | G) - N, as R is clear of G, so "x + d drops
  below n somewhere" is ``(R + G - N) & G != G``; it is asserted.
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
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, count, repeat
from operator import add, and_, neg, or_
from typing import Iterable, Iterator, NamedTuple

from . import _lanes as lanes
from .cartan import (RANK_CACHE_SIZE, DominantWeight, RootVector, _column_terms, _first_layer,
                     cartan, root_text)
from .maxweights import DEFAULT_MAX_VERTICES, MaximalWeightDatum, _class_packed

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
    # the flat indices of the vertex bitsets or flags a move reads, in
    # coordinate order:
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
        # the arrow rule is exact only for increments in {0, 1, 2}
        assert set(gamma) <= {0, 1, 2}, label
        moves.append(_Move(
            label, RootVector(gamma), _witness(label, ell), str(label), shift,
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


def arrow_test(source: MaximalWeightDatum, label: MoveLabel) -> MaximalWeightDatum | None:
    """The target datum when the move is an arrow out of ``source`` by the
    rule of the module docstring, else None.  ValueError for an x of another
    rank than the weight, a label out of range, a negative entry of x, or a
    weight without the multiplicity the move takes off."""
    weight = source.weight
    if len(source.x.coeffs) != weight.ell + 1:
        raise ValueError("rank mismatch")
    move = _entry(label, weight.ell)
    if min(source.x.coeffs) < 0:
        raise ValueError(f"x = {source.x.coeffs} has a negative entry")
    m = tuple(map(add, weight.m, move.shift))
    if min(m) < 0:
        raise ValueError(f"{weight} lacks the multiplicity for move {label}")
    null = cartan(weight.ell).delta_coeffs
    below = [xj + e < n for e in (0, 1) for xj, n in zip(source.x.coeffs, null)]
    if not any(map(below.__getitem__, move.drops)):
        return None
    return MaximalWeightDatum(DominantWeight(m),
                              RootVector(tuple(map(add, source.x.coeffs, move.delta.coeffs))))


def build_quiver(weight: DominantWeight, max_vertices: int = DEFAULT_MAX_VERTICES) -> MaxWeightQuiver:
    """The full directed quiver on the equivalence class of ``weight``
    (module docstring).  GuardError from the class pass, before any member
    is built, when the class has more than ``max_vertices`` members or is
    too deep for its lanes."""
    size, (ones, top, _), m_packed, x_packed = _class_packed(weight.m, max_vertices)
    ell = weight.ell
    null = cartan(ell).delta_coeffs
    # flat, as the move table's ``needs`` and ``drops`` index them: m_j >= d,
    # then x_j + e < n_j
    has = [lanes.bitset(lanes.at_least(col, d * ones, top), size)
           for d in (1, 2) for col in m_packed]
    below = [lanes.bitset(top ^ lanes.at_least(col, (n - e) * ones, top), size)
             for e in (0, 1) for col, n in zip(x_packed, null)]
    m_cols = [lanes.unpack(col, size) for col in m_packed]
    x_cols = [lanes.unpack(col, size) for col in x_packed]
    del m_packed, x_packed  # each column is held once, packed or unpacked
    # the packed x, its width and the per-arrow check (module docstring)
    wx = (max(map(max, x_cols)) + 2).bit_length() + 1
    packed_x = lanes.pack_rows(x_cols, wx)
    index = dict(zip(packed_x, count()))
    guard = lanes.masks(ell + 1, wx)[1]
    lift = guard - lanes.pack(null, wx)
    ms, xs = tuple(zip(*m_cols)), tuple(zip(*x_cols))
    buckets: list[list[tuple[int, int, _Move]]] = [[] for _ in ms]
    for move in _move_table(ell).values():
        sources = (reduce(and_, map(has.__getitem__, move.needs))
                   & reduce(or_, map(below.__getitem__, move.drops)))
        if not sources:
            continue
        dx = lanes.pack(move.delta.coeffs, wx)
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
    """The rendered tails of rank ``ell``'s moves, per format, by label text,
    as the renderers fill it (module docstring)."""
    return defaultdict(dict)


def _arrow_lines(quiver: MaxWeightQuiver, fmt: str, head: str, arrow: str, sep: str
                 ) -> Iterator[str]:
    """``head``, then one line per arrow,
    ``<source><arrow><target><sep><label><sep><delta>``."""
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
    out here so that the encoder sees only strings (module docstring)."""
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
