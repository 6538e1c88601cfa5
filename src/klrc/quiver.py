"""The connected directed quiver on the dominant maximal weights of a class.

Vertices are the class members with their minimal solution vectors.  A move
takes one fundamental multiplicity off each of its indices (one or two) and
puts it back the step ``STEPS`` lists for that index; an arrow is a move that
raises the solution vector by the move's increment d, the minimal solution of
A.d = -Δm for the move's change Δm to the multiplicities
(``maxweights._solve``, the rule that gives every vertex its vector).  These
increments are the first-layer roots, the positive real roots not exceeding
the null root, one move per root.  Arrows always point toward the larger
vector, the fixed root has in-degree zero, and every vertex is reachable from
it by a directed path.

Each move is stored once in a per-rank move table (``_move_table``), keyed
by its label, with its increment d, witness, rendered label, its change Δm to
the multiplicities, and the coordinate bitmasks ``zero = {j : d_j = 0}`` and
``low = {j : d_j <= 1}``.  The table is the move set: no move puts a
multiplicity back where it takes one off, so a weight m holds what a move
takes off exactly when m + Δm >= 0, and ``candidate_moves`` lists the labels
that pass, in table order.  For a source x and null-root coefficients n, the
move is an arrow when x + d drops below n somewhere, exactly when
``one & zero or two & low`` is nonzero, with ``one = {j : x_j < n_j}`` and
``two = {j : x_j + 1 < n_j}``.  This is exact because x >= 0 and n_j <= 2
leave n_j - x_j <= 2 and every d_j lies in {0, 1, 2}: x_j + d_j < n_j needs
n_j - x_j = 1 and d_j = 0 (j in ``one``), or n_j - x_j = 2 and d_j <= 1
(j in ``two``).  ``arrow_test`` decides one move on value objects by this
test.

``build_quiver`` runs the test once per move over all vertices, with four
bitsets over the vertices per coordinate j: m_j >= 1, m_j >= 2, x_j < n_j and
x_j + 1 < n_j.  A move's sources are the AND of the bitsets its Δm reads
(m_j >= 1 where Δm_j = -1, m_j >= 2 where Δm_j = -2) with the OR of the
x_j < n_j bitsets over ``zero`` and the x_j + 1 < n_j bitsets over ``low``.
The class comes from ``maxweights._class_columns`` as coordinate columns,
and everything before the arrow loop runs a column at a time: each bitset
is one column of flags read as a binary numeral, and each member's m and x
are packed into an int, first coordinate in the lowest digit.  The arrow
loop walks the set bits of a move's sources with ``str.find`` over their
binary text, and an arrow costs one dict lookup and two int checks:

* m at digit width bits(k) + 1, k the level.  A source holds what the move
  takes off and the level stays k, so every digit of m + Δm lies in 0..k:
  adding the packed Δm (signed digits) neither borrows nor carries, and gives
  the target's packed m.
* x at digit width w = bits(max x + 2) + 1.  A raised digit x_j + d_j is at
  most max x + 2 < 2^(w-1), so R = X + D has no carry and every digit stays
  below its top (guard) bit.  With G the guard bits and N the packed n,
  digit j of R + G - N is r_j + 2^(w-1) - n_j, in 0..2^w - 1 as
  1 <= n_j <= 2 < 2^(w-1); its guard bit is set exactly when r_j >= n_j.  So
  "x + d drops below n somewhere" is ``(R + G - N) & G != G`` and "x + d is
  the target's minimal solution" is ``R == X_t``; both are asserted.

The table lists its moves in lexicographic order of Δm, then of label text.
For one source the target of a move is m + Δm, and adding a fixed m keeps
the order of the Δm; since the members are listed in lexicographic order of
m, that is the order of target indices, and moves with equal Δm share their
target.  So the arrows appended to a source's bucket move by move come in
(target, label) order, and the buckets joined in source order are the rows.

``candidate_moves``, ``arrow_test`` and ``delta_vector`` stay because the
benchmark's tracer (``bench/tracing.py``) and the tests bind them.
``_below_masks``, which the tracer does not bind, computes ``arrow_test``'s
two masks, and the tests call it too.
``tests/reference.py`` keeps the per-source builder, with its own list of the
moves a weight can take, the value-object route that decides an arrow by
raising the solution vector, and the increments in closed form.

``render(quiver, fmt)`` is the one renderer of each format in ``FORMATS``
(``text``, ``dot``, ``json``, ``tsv``): a generator of the document's text in
order, one piece per line, vertex or arrow block.  ``export`` and
``to_dot``/``to_json``/``to_tsv`` join the pieces; ``klrc quiver`` writes them
one at a time as they are rendered, so its memory is set by the quiver and
not by the size of its text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, count, product, repeat
from operator import add, and_, ge, lshift, lt, neg
from typing import Iterable, Iterator, NamedTuple

from .cartan import RANK_CACHE_SIZE, DominantWeight, RootVector, cartan, root_text, weight_text
from .maxweights import DEFAULT_MAX_VERTICES, MaximalWeightDatum, _class_columns, _solve

KIND_UP = "+"              # one index raised by 2
KIND_DOWN = "-"            # one index lowered by 2
KIND_UP_UP = "++"          # two indices raised by 1
KIND_DOWN_DOWN = "--"      # two indices lowered by 1
KIND_DOWN_UP = "-+"        # one lowered, one raised by 1

# the step each index of a move takes; the signs spell the kind
STEPS = {KIND_UP: (2,), KIND_DOWN: (-2,), KIND_UP_UP: (1, 1),
         KIND_DOWN_DOWN: (-1, -1), KIND_DOWN_UP: (-1, 1)}


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
    """The root-lattice increment attached to a move: the minimal solution d of
    A.d = -Δm, read off the move table.  These increments are the first-layer
    roots, one move per root."""
    label.validate(ell)
    return _move_table(ell)[label].delta


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


@lru_cache(maxsize=RANK_CACHE_SIZE)
def _move_table(ell: int) -> dict[MoveLabel, _Move]:
    """Every move valid at rank ``ell``, keyed by its label and stored in
    lexicographic order of its Δm, then of its label text."""
    moves = []
    for kind, steps in STEPS.items():
        for index in product(range(ell + 1), repeat=len(steps)):
            label = MoveLabel(kind, *index)
            try:
                label.validate(ell)
            except ValueError:
                continue
            shift = [0] * (ell + 1)
            for n, step in zip(index, steps):
                shift[n] -= 1
                shift[n + step] += 1
            delta = RootVector(_solve(tuple(map(neg, shift)), ell))
            # the two-mask arrow test is exact only for increments in {0, 1, 2}
            assert set(delta.coeffs) <= {0, 1, 2}, label
            moves.append(_Move(
                label, delta, witness_sequence(label, ell), str(label), tuple(shift),
                sum(1 << n for n, d in enumerate(delta.coeffs) if d == 0),
                sum(1 << n for n, d in enumerate(delta.coeffs) if d <= 1)))
    moves.sort(key=lambda move: (move.shift, move.text))
    return {move.label: move for move in moves}


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
    is exact only for x >= 0, as every minimal solution vector such as
    ``beta_of`` gives is.  A label out of range, a negative entry of x, or a
    weight without the multiplicity the move takes off raises ValueError.
    """
    weight = source.weight
    label.validate(weight.ell)
    if min(source.x.coeffs) < 0:
        raise ValueError(f"x = {source.x.coeffs} has a negative entry")
    move = _move_table(weight.ell)[label]
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


def _column(flags: Iterable[bool]) -> int:
    """The bitset over vertices with bit n set when flag n is true."""
    return int(bytes(flags)[::-1].translate(_DIGITS), 2)


def _packed(columns: Iterable[Iterable[int]], offsets: range) -> list[int]:
    """Each member's coordinates packed into one int, coordinate j shifted
    left by ``offsets[j]``, from the coordinate columns."""
    shifted = [map(lshift, col, repeat(at)) for col, at in zip(columns, offsets)]
    return list(map(sum, zip(*shifted)))


def build_quiver(weight: DominantWeight, max_vertices: int = DEFAULT_MAX_VERTICES) -> MaxWeightQuiver:
    """The full directed quiver on the equivalence class of ``weight``.

    Each move is decided for all vertices at once by the two-mask test of the
    module docstring, run over vertex bitsets, which the assertion x >= 0 of
    the class pass ``maxweights._class_columns`` makes exact.  The class
    pass raises the vertex cap.  Everything before the arrow loop runs a
    coordinate at a time over the members' columns; the loop walks a move's
    sources by ``str.find`` over the bits of their bitset.
    """
    m_cols, x_cols = _class_columns(weight.m, max_vertices)
    ell = weight.ell
    null = cartan(ell).delta_coeffs
    # digit offsets of the packed m and x (widths and no-carry argument in the
    # module docstring); has[d], one and two are the per-coordinate vertex
    # bitsets of m_j >= d, x_j < n_j and x_j + 1 < n_j
    wm = weight.level.bit_length() + 1
    wx = (max(map(max, x_cols)) + 2).bit_length() + 1
    at_m = range(0, wm * (ell + 1), wm)
    at_x = range(0, wx * (ell + 1), wx)
    packed_m = _packed(m_cols, at_m)
    packed_x = _packed(x_cols, at_x)
    index = dict(zip(packed_m, count()))
    guard = sum([1 << (n + wx - 1) for n in at_x])
    lift = guard - sum(map(lshift, null, at_x))
    has = {d: [_column(map(ge, col, repeat(d))) for col in m_cols] for d in (1, 2)}
    one = [_column(map(lt, col, repeat(n))) for col, n in zip(x_cols, null)]
    two = [_column(map(lt, col, repeat(n - 1))) for col, n in zip(x_cols, null)]
    ms, xs = tuple(zip(*m_cols)), tuple(zip(*x_cols))
    buckets: list[list[tuple[int, int, _Move]]] = [[] for _ in ms]
    for move in _move_table(ell).values():
        sources = reduce(and_, [has[-s][n] for n, s in enumerate(move.shift) if s < 0])
        fire = 0
        for n in range(ell + 1):
            if move.zero >> n & 1:
                fire |= one[n]
            if move.low >> n & 1:
                fire |= two[n]
        sources &= fire
        if not sources:
            continue
        dm = sum(map(lshift, move.shift, at_m))
        dx = sum(map(lshift, move.delta.coeffs, at_x))
        bits = bin(sources)[:1:-1]  # bit s of sources at position s
        s = bits.find("1")
        while s >= 0:
            t = index[packed_m[s] + dm]
            raised = packed_x[s] + dx
            assert (raised + lift) & guard != guard, \
                f"{move.text} from {ms[s]}: x + d stays above the null root"
            assert raised == packed_x[t], \
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


def _text_lines(quiver: MaxWeightQuiver) -> Iterator[str]:
    """A summary line, then one line per arrow: source, target, label and delta."""
    yield f"root {quiver.root}  vertices {len(quiver.ms)}  arrows {len(quiver.rows)}\n"
    for source, target, label, delta in _arrow_rows(quiver):
        yield f"{source} -> {target}  {label}  {delta}\n"


def _dot_lines(quiver: MaxWeightQuiver) -> Iterator[str]:
    """Graphviz text of the quiver."""
    yield "digraph maxweights {\n"
    for n, m in enumerate(quiver.ms):
        yield f'  v{n} [label="{weight_text(m)}"];\n'
    for s, t, move in quiver.rows:
        yield f'  v{s} -> v{t} [label="{move.text}"];\n'
    yield "}\n"


def _json_items(items: Iterable[str], indent: str) -> Iterator[str]:
    """``_json_block(items, indent)`` in pieces: the opening bracket with the
    first item, then each later item with its separator, then the closing
    bracket, so that a long list is never held whole."""
    head, sep = f"[\n{indent}  ", f",\n{indent}  "
    for item in items:
        yield head + item
        head = sep
    yield f"\n{indent}]" if head is sep else "[]"


def _json_block(items: Iterable[str], indent: str, brackets: str = "[]") -> str:
    """Rendered items as ``json.dumps(..., indent=2)`` lays out a list at ``indent``,
    or with ``brackets="{}"`` an object of rendered ``"key": value`` items."""
    body = f",\n{indent}  ".join(items)
    return f"{brackets[0]}\n{indent}  {body}\n{indent}{brackets[1]}" if body else brackets


def _json_lines(quiver: MaxWeightQuiver) -> Iterator[str]:
    """``json.dumps(payload, indent=2, ensure_ascii=False)`` of the quiver, laid
    out here so that the encoder sees only strings; each label with its delta
    and witness is rendered once per quiver."""
    def ints(values: Iterable[int], indent: str = "      ") -> str:
        return _json_block(map(str, values), indent)

    def text(value: str) -> str:
        return json.dumps(value, ensure_ascii=False)

    def arrows() -> Iterator[str]:
        tails: dict[str, str] = {}
        for s, t, move in quiver.rows:
            tail = tails.get(move.text)
            if tail is None:
                tail = tails[move.text] = ",\n      ".join([
                    f'"label": {text(move.text)}', f'"delta": {ints(move.delta.coeffs)}',
                    f'"witness": {ints(move.witness)}'])
            yield _json_block([f'"src": {s}', f'"dst": {t}', tail], "    ", "{}")

    vertices = (_json_block([f'"m": {ints(m)}', f'"X": {ints(x)}',
                             f'"beta": {text(root_text(x))}'], "    ", "{}")
                for m, x in zip(quiver.ms, quiver.xs))
    yield (f'{{\n  "ell": {quiver.ell},\n  "level": {quiver.root.level},\n'
           f'  "root": {ints(quiver.root.m, "  ")},\n  "vertices": ')
    yield from _json_items(vertices, "  ")
    yield ',\n  "arrows": '
    yield from _json_items(arrows(), "  ")
    yield "\n}\n"


def _arrow_rows(quiver: MaxWeightQuiver) -> Iterator[tuple[str, str, str, str]]:
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


def _tsv_lines(quiver: MaxWeightQuiver) -> Iterator[str]:
    """A header, then one tab-separated line per arrow."""
    yield "#source\ttarget\tlabel\tdelta\n"
    for source, target, label, delta in _arrow_rows(quiver):
        yield f"{source}\t{target}\t{label}\t{delta}\n"


# each format's renderer, in the order ``klrc quiver --format`` lists them
FORMATS = {"text": _text_lines, "dot": _dot_lines, "json": _json_lines, "tsv": _tsv_lines}


def to_dot(quiver: MaxWeightQuiver) -> str:
    """Graphviz text of the quiver."""
    return "".join(_dot_lines(quiver))


def to_json(quiver: MaxWeightQuiver) -> str:
    return "".join(_json_lines(quiver))


def to_tsv(quiver: MaxWeightQuiver) -> str:
    return "".join(_tsv_lines(quiver))
