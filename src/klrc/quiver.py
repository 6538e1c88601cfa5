"""The connected directed quiver on the dominant maximal weights of a class.

Vertices are the class members with their minimal solution vectors.  A move
takes one fundamental multiplicity off each of its indices (one or two) and
puts it back the step ``STEPS`` lists for that index; an arrow is a move that
raises the solution vector by one of five explicit root-lattice increments.
Arrows always point toward the larger vector, the fixed root has in-degree
zero, and every vertex is reachable from it by a directed path.

``build_quiver`` decides arrows from a per-rank move table (``_move_table``):
each move is stored once with its label, increment d, witness and rendered
label, the indices it takes a multiplicity off and puts one on, and two
bitmasks over the coordinates, ``zero = {j : d_j = 0}`` and
``low = {j : d_j <= 1}``.  For a source x with null-root coefficients n, the
move is an arrow when x + d drops below n somewhere, and that holds exactly
when ``one & zero or two & low`` is nonzero, with ``one = {j : x_j < n_j}``
and ``two = {j : x_j + 1 < n_j}``.  The test is exact because x >= 0 and
n_j <= 2 leave n_j - x_j <= 2 and every d_j lies in {0, 1, 2}:
x_j + d_j < n_j needs n_j - x_j = 1 and d_j = 0 (j in ``one``), or
n_j - x_j = 2 and d_j <= 1 (j in ``two``).  Only accepted moves build the
raised vector, and it is checked against the target's own minimal solution.
``arrow_test`` decides one move on value objects by the same test.

``candidate_moves`` and ``arrow_test`` have no caller in the package: they
stay because the benchmark's tracer (``bench/tracing.py``) binds them by
name.  The value-object route that decides an arrow by raising the solution
vector lives in ``tests/reference.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from operator import add, lt
from typing import Iterable, Iterator, NamedTuple

from .cartan import (RANK_CACHE_SIZE, DominantWeight, GuardError, RootVector, cartan,
                     root_text, weight_text)
from .maxweights import MaximalWeightDatum, _class_pass, class_size

KIND_UP = "+"              # one index raised by 2
KIND_DOWN = "-"            # one index lowered by 2
KIND_UP_UP = "++"          # two indices raised by 1
KIND_DOWN_DOWN = "--"      # two indices lowered by 1
KIND_DOWN_UP = "-+"        # one lowered, one raised by 1

# the step each index of a move takes; the signs spell the kind
STEPS = {KIND_UP: (2,), KIND_DOWN: (-2,), KIND_UP_UP: (1, 1),
         KIND_DOWN_DOWN: (-1, -1), KIND_DOWN_UP: (-1, 1)}

DEFAULT_MAX_VERTICES = 5000


@dataclass(frozen=True)
class MoveLabel:
    """One of the five index moves, with its parameters."""

    kind: str
    i: int
    j: int | None = None

    @property
    def index(self) -> tuple[int, ...]:
        return (self.i,) if self.j is None else (self.i, self.j)

    def validate(self, ell: int) -> None:
        """Each index and its target lie in 0..ell, a same-sign pair is ordered,
        and no step lands on the other index (that pair is one move or none)."""
        steps = STEPS.get(self.kind)
        if steps is None:
            raise ValueError(f"unknown move kind {self.kind!r}")
        index = self.index
        ok = (len(index) == len(steps)
              and all(0 <= n <= ell and 0 <= n + s <= ell for n, s in zip(index, steps)))
        if ok and len(index) == 2:
            (i, j), (s, t) = index, steps
            ok = (s != t or i <= j) and i + s != j and j + t != i
        if not ok:
            raise ValueError(f"move {self} is out of range for rank {ell}")

    def __str__(self) -> str:
        parts = ",".join(f"{n}^{sign}" for sign, n in zip(self.kind, (self.i, self.j)))
        return f"Δ_{{{parts}}}"


def delta_vector(label: MoveLabel, ell: int) -> RootVector:
    """The root-lattice increment attached to a move."""
    label.validate(ell)
    i, j = label.i, label.j
    if label.kind == KIND_UP:
        coeffs = (1,) + (2,) * i + (1,) + (0,) * (ell - i - 1)
    elif label.kind == KIND_DOWN:
        coeffs = (0,) * (i - 1) + (1,) + (2,) * (ell - i) + (1,)
    elif label.kind == KIND_UP_UP:
        coeffs = (1,) + (2,) * i + (1,) * (j - i) + (0,) * (ell - j)
    elif label.kind == KIND_DOWN_DOWN:
        coeffs = (0,) * i + (1,) * (j - i) + (2,) * (ell - j) + (1,)
    elif i <= j:
        coeffs = (0,) * i + (1,) * (j - i + 1) + (0,) * (ell - j)
    else:
        coeffs = (1,) + (2,) * j + (1,) * (i - j - 1) + (2,) * (ell - i) + (1,)
    return RootVector(coeffs)


def _candidate_keys(m: tuple[int, ...]) -> list[tuple[str, int, int | None]]:
    """The ``(kind, i, j)`` keys of ``candidate_moves`` for multiplicities ``m``,
    in the same order, with ``j`` None for a single-index move."""
    ell = len(m) - 1
    support = [i for i, v in enumerate(m) if v]
    # index pairs (i, j) the weight can lose one multiplicity at each, in
    # lexicographic order
    pairs = [(i, j) for i in support for j in support if i != j or m[i] >= 2]
    return ([(KIND_UP, i, None) for i in support if i <= ell - 2]
            + [(KIND_DOWN, i, None) for i in support if i >= 2]
            + [(KIND_UP_UP, i, j) for i, j in pairs if i <= j < ell and j != i + 1]
            + [(KIND_DOWN_DOWN, i, j) for i, j in pairs if 1 <= i <= j and j != i + 1]
            + [(KIND_DOWN_UP, i, j) for i, j in pairs if i >= 1 and j < ell and j != i - 1])


def candidate_moves(weight: DominantWeight) -> list[MoveLabel]:
    """All moves applicable to ``weight``, with coincident pair moves dropped.

    The pair moves at adjacent indices duplicate the single-index moves
    (the raised pair at (i, i+1) equals the single raise at i, and dually),
    so only the canonical single labels are produced.
    """
    return [MoveLabel(*key) for key in _candidate_keys(weight.m)]


class _Move(NamedTuple):
    """A move's entry in the per-rank move table."""

    label: MoveLabel
    delta: RootVector
    witness: tuple[int, ...]
    text: str           # str(label)
    removed: tuple[int, ...]
    added: tuple[int, ...]
    zero: int           # bitmask of the coordinates j with delta_j = 0
    low: int            # bitmask of the coordinates j with delta_j <= 1


@lru_cache(maxsize=RANK_CACHE_SIZE)
def _move_table(ell: int) -> dict[tuple[str, int, int | None], _Move]:
    """Every move valid at rank ``ell``, keyed as ``_candidate_keys`` lists it."""
    table = {}
    for kind, steps in STEPS.items():
        for index in product(range(ell + 1), repeat=len(steps)):
            label = MoveLabel(kind, *index)
            try:
                label.validate(ell)
            except ValueError:
                continue
            delta = delta_vector(label, ell)
            # the two-mask arrow test is exact only for increments in {0, 1, 2}
            assert set(delta.coeffs) <= {0, 1, 2}, label
            table[kind, label.i, label.j] = _Move(
                label, delta, witness_sequence(label, ell), str(label), index,
                tuple(map(add, index, steps)),
                sum(1 << n for n, d in enumerate(delta.coeffs) if d == 0),
                sum(1 << n for n, d in enumerate(delta.coeffs) if d <= 1))
    return table


def witness_sequence(label: MoveLabel, ell: int) -> tuple[int, ...]:
    """A residue sequence realizing the arrow one simple root at a time.

    The sequence has length equal to the increment's height, and adding its
    simple roots in order keeps the coroot pairing at each step positive.
    """
    label.validate(ell)
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
        return (witness_sequence(MoveLabel(KIND_UP, j), ell)
                + tuple(range(j + 2, ell + 1)) + tuple(range(ell - 1, i - 1, -1)))
    if label.kind == KIND_UP_UP:
        if i == j:
            return tuple(range(i, -1, -1)) + tuple(range(1, i + 1))
        # j >= i + 2: raise i by 2, then trade down at i+2 and up at j
        return witness_sequence(MoveLabel(KIND_UP, i), ell) + tuple(range(i + 2, j + 1))
    # KIND_DOWN_DOWN
    if i == j:
        return tuple(range(j, ell + 1)) + tuple(range(ell - 1, j - 1, -1))
    # i <= j - 2: lower j by 2, then trade down at i and up at j-2
    return witness_sequence(MoveLabel(KIND_DOWN, j), ell) + tuple(range(i, j - 1))


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
    is exact for a minimal solution vector such as ``beta_of`` gives.  A label
    out of range, or a weight without the multiplicity the move takes off,
    raises ValueError.
    """
    weight = source.weight
    label.validate(weight.ell)
    move = _move_table(weight.ell)[label.kind, label.i, label.j]
    m = list(weight.m)
    for n in move.removed:
        m[n] -= 1
        if m[n] < 0:
            raise ValueError(f"{weight} lacks the multiplicity for move {label}")
    one, two = _below_masks(source.x.coeffs, cartan(weight.ell).delta_coeffs)
    if not (one & move.zero or two & move.low):
        return None
    for n in move.added:
        m[n] += 1
    return MaximalWeightDatum(DominantWeight(m),
                              RootVector(tuple(map(add, source.x.coeffs, move.delta.coeffs))))


def build_quiver(weight: DominantWeight, max_vertices: int = DEFAULT_MAX_VERTICES) -> MaxWeightQuiver:
    """The full directed quiver on the equivalence class of ``weight``.

    Each candidate move is decided by the two-mask test of the module
    docstring, which ``minimal_solution``'s assertion x >= 0 makes exact.
    """
    size = class_size(weight)
    if size > max_vertices:
        raise GuardError(f"class has {size} vertices, cap is {max_vertices}")
    members = _class_pass(weight.m)
    index = {m: n for n, (m, _) in enumerate(members)}
    null = cartan(weight.ell).delta_coeffs
    table = _move_table(weight.ell)
    rows = []
    for s, (m, x) in enumerate(members):
        one, two = _below_masks(x, null)
        found = []
        for key in _candidate_keys(m):
            move = table[key]
            if not (one & move.zero or two & move.low):
                continue
            shifted = list(m)
            for n in move.removed:
                shifted[n] -= 1
            for n in move.added:
                shifted[n] += 1
            t = index[tuple(shifted)]
            raised = tuple(map(add, x, move.delta.coeffs))
            # the raised vector drops below the null root and agrees with the
            # target's own minimal solution
            assert any(map(lt, raised, null)), (m, move.label)
            assert raised == members[t][1], (m, move.label)
            found.append((t, move.text, move))
        found.sort()  # by target, then label text: unique per source, so moves never compare
        rows.extend([(s, t, move) for t, _, move in found])
    ms, xs = zip(*members)
    return MaxWeightQuiver(weight, ms, xs, tuple(rows))


# -- export ------------------------------------------------------------


def export(quiver: MaxWeightQuiver, fmt: str) -> str:
    writers = {"dot": to_dot, "json": to_json, "tsv": to_tsv}
    if fmt not in writers:
        raise ValueError(f"unknown format {fmt!r}")
    return writers[fmt](quiver)


def to_dot(quiver: MaxWeightQuiver) -> str:
    """Graphviz text of the quiver."""
    lines = ["digraph maxweights {"]
    lines.extend([f'  v{n} [label="{weight_text(m)}"];' for n, m in enumerate(quiver.ms)])
    lines.extend([f'  v{s} -> v{t} [label="{move.text}"];' for s, t, move in quiver.rows])
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_block(items: Iterable[str], indent: str, brackets: str = "[]") -> str:
    """Rendered items as ``json.dumps(..., indent=2)`` lays out a list at ``indent``,
    or with ``brackets="{}"`` an object of rendered ``"key": value`` items."""
    body = f",\n{indent}  ".join(items)
    return f"{brackets[0]}\n{indent}  {body}\n{indent}{brackets[1]}" if body else brackets


def to_json(quiver: MaxWeightQuiver) -> str:
    """``json.dumps(payload, indent=2, ensure_ascii=False)`` of the quiver, laid out
    here so that the encoder sees only strings; each label with its delta and
    witness is rendered once per quiver."""
    def ints(values: Iterable[int], indent: str = "      ") -> str:
        return _json_block(map(str, values), indent)

    def text(value: str) -> str:
        return json.dumps(value, ensure_ascii=False)

    vertices = [_json_block([f'"m": {ints(m)}', f'"X": {ints(x)}',
                             f'"beta": {text(root_text(x))}'], "    ", "{}")
                for m, x in zip(quiver.ms, quiver.xs)]
    tails: dict[str, list[str]] = {}
    arrows = []
    for s, t, move in quiver.rows:
        tail = tails.get(move.text)
        if tail is None:
            tail = tails[move.text] = [f'"label": {text(move.text)}',
                                       f'"delta": {ints(move.delta.coeffs)}',
                                       f'"witness": {ints(move.witness)}']
        arrows.append(_json_block([f'"src": {s}', f'"dst": {t}', *tail], "    ", "{}"))
    return _json_block([f'"ell": {quiver.ell}', f'"level": {quiver.root.level}',
                        f'"root": {ints(quiver.root.m, "  ")}',
                        f'"vertices": {_json_block(vertices, "  ")}',
                        f'"arrows": {_json_block(arrows, "  ")}'], "", "{}") + "\n"


def arrow_rows(quiver: MaxWeightQuiver) -> Iterator[tuple[str, str, str, str]]:
    """Source, target, label and delta of each arrow, as text.

    Each vertex and each delta is rendered once per quiver.
    """
    names = [weight_text(m) for m in quiver.ms]
    deltas: dict[str, str] = {}
    for s, t, move in quiver.rows:
        delta = deltas.get(move.text)
        if delta is None:
            delta = deltas[move.text] = root_text(move.delta.coeffs)
        yield names[s], names[t], move.text, delta


def to_tsv(quiver: MaxWeightQuiver) -> str:
    lines = ["#source\ttarget\tlabel\tdelta"]
    lines.extend("\t".join(row) for row in arrow_rows(quiver))
    return "\n".join(lines) + "\n"
