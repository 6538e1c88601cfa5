"""Second routes to quantities the package computes one way, for the tests.

Each function here is an independent route that the tests compare the
package's engine against, or a helper only the tests need, kept as it ran in
the package:

* Laurent arithmetic the engines no longer use: powers, the bar involution,
  shifts, evaluation, the bar-symmetry check, quantum integers and quantum
  factorials, as functions of a ``LaurentPolynomial``;
* ``add_node`` of a multipartition, the standard tableaux of a shape and
  their degrees, the filling-by-filling route to the graded dimensions;
* the value-object arrow test of the quiver (``apply_move``, ``_shift``,
  ``_raised``, ``arrow_test``), which decides an arrow by raising the
  solution vector instead of by the flags each move's ``drops`` index in
  ``klrc.quiver``, and raises it by the closed-form increments
  (``delta_closed_form``), six branches by the move's kind, where
  ``klrc.quiver`` reads them off the first-layer roots of
  ``klrc.cartan._first_layer``;
* the two-mask arrow test (``below_masks``, ``delta_masks``): the masks of
  the coordinates where x_j < n_j and x_j + 1 < n_j, and of those where
  d_j = 0 and d_j <= 1, computed from each move's increment;
* the rule that decides which labels are moves (``validate``), from each
  kind's steps (``STEPS``) and index ranges, where ``klrc.quiver`` asks
  its move table;
* the move table built label by label (``move_table``): every label that
  validates, its Δm from the steps of its kind, and its increment solved
  from A.d = -Δm with ``klrc.maxweights._solve``, where
  ``klrc.quiver._move_table`` reads each move off a first-layer root;
* the per-source quiver builder (``build_quiver``), which lists each
  source's moves from the validity rules of each kind (``_candidate_keys``),
  runs the two-mask test once per move and sorts each source's arrows, where
  ``klrc.quiver.build_quiver`` reads the move set off the move table and runs
  each move's ``needs`` and ``drops`` once over vertex bitsets;
* the stars-and-bars class pass (``class_pass_by_compositions``), which
  builds every weak composition of the level, keeps those whose ev has the
  root's parity and solves each with ``klrc.maxweights._solve``, where
  ``klrc.maxweights._class_columns`` enumerates the finite parts, and
  ``class_rows``, which reads those columns a member at a time;
* the ε-coordinate class model (``finite_part``, ``class_model``,
  ``lowered_finite_part``), which lists a class by its finite parts as the
  engine's class pass does (the stars-and-bars pass is the independent check
  of that), straightens Λ − β in closed form (``straighten_model``) instead
  of one reflection at a time, and reads the defect off the invariant form
  (``defect_model``) instead of off the Cartan matrix;
* the diagram involution (``sigma_root``, ``sigma_weight``, ``sigma_flip``)
  and ``with_charges``, which the package itself never calls;
* ``bead_masks``, the Fock step's masks one bit at a time;
* the layered Fock-rank oracle (``fock_ranks``), which counts the simple
  modules at every beta up to a height as the rank of the Fock space's weight
  spaces at q=1, built one height at a time from a basis of words kept by
  fraction-free elimination (``independent_columns``), where
  ``klrc.multiplicity`` runs the Freudenthal recursion;
* ``stabilizer_orbit``, the orbit of a root under a parabolic subgroup W_J,
  found breadth first by simple reflections, where ``klrc.multiplicity``
  weights each J-dominant root by |W_J|/|W_J'| from the orders of the
  diagram's components;
* ``case_table``, the flat list of case instances at a rank, which
  ``klrc.classifier._case_index`` holds only grouped by beta;
* ``minimal_weight`` of a case instance, and ``residue_word``;
* ``graded_hom_dim_by_single_steps``, the graded dimension with ν and ν′
  expanded one residue at a time and matched unscaled, where
  ``klrc.fock.graded_hom_dim`` expands each run of equal residues as one
  divided power and scales by the quantum factorials of the runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations, combinations_with_replacement, product
from operator import add, lt, neg, sub
from typing import Iterable, Iterator, Sequence

from klrc.cartan import DominantWeight, GuardError, RootVector, cartan, fold_residue
from klrc.classifier import CaseInstance, _generate_cases, _holds
from klrc.fock import Multipartition, Node, _expand, _hom, residue
from klrc.laurent import LaurentPolynomial, _wrap
from klrc.maxweights import (DEFAULT_MAX_VERTICES, MaximalWeightDatum, _class_columns,
                             _class_size, _solve)
from klrc.quiver import (KIND_DOWN, KIND_DOWN_DOWN, KIND_DOWN_UP, KIND_UP, KIND_UP_UP,
                         MaxWeightQuiver, MoveLabel, _Move, _move_table, _witness)
from klrc.tableaux import node_degree

# -- Laurent polynomials -------------------------------------------------


def power(p: LaurentPolynomial, n: int) -> LaurentPolynomial:
    """``p`` to the nonnegative power ``n``."""
    if n < 0:
        raise ValueError("negative powers are not defined for polynomials")
    result = LaurentPolynomial.one()
    base = p
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def bar(p: LaurentPolynomial) -> LaurentPolynomial:
    """The bar involution q -> q^-1."""
    return _wrap({-e: c for e, c in p._coeffs.items()})


def shift(p: LaurentPolynomial, exp: int) -> LaurentPolynomial:
    """Multiply by q^exp."""
    return _wrap({e + exp: c for e, c in p._coeffs.items()})


def evaluate(p: LaurentPolynomial, value: int) -> int:
    """Evaluate at an integer (negative exponents require |value| = 1)."""
    total = 0
    for e, c in p._coeffs.items():
        if e < 0 and abs(value) != 1:
            raise ValueError("cannot evaluate negative exponents at non-unit integers")
        total += c * value**e if e >= 0 else c * value ** (-e)
    return total


def is_bar_symmetric_about(p: LaurentPolynomial, center: int) -> bool:
    """True when coefficients are symmetric about exponent ``center`` (2*center even)."""
    return all(c == p._coeffs.get(2 * center - e, 0) for e, c in p._coeffs.items())


def quantum_integer(s: int, d: int = 1) -> LaurentPolynomial:
    """The symmetric quantum integer [s] in the variable q^d."""
    if s < 0:
        raise ValueError("quantum integers are defined for s >= 0")
    return LaurentPolynomial({d * (s - 1 - 2 * t): 1 for t in range(s)})


def quantum_factorial(r: int, d: int = 1) -> LaurentPolynomial:
    """[r]! = [1][2]...[r] in the variable q^d."""
    result = LaurentPolynomial.one()
    for s in range(1, r + 1):
        result = result * quantum_integer(s, d)
    return result


# -- standard tableaux ---------------------------------------------------


def add_node(mp: Multipartition, node: Node) -> Multipartition:
    """``mp`` with the addable node (component, row, column) added, 1-based."""
    s, a, b = node
    part = list(mp.components[s - 1])
    if a == len(part) + 1:
        part.append(1)
    else:
        part[a - 1] += 1
    assert part[a - 1] == b
    comps = list(mp.components)
    comps[s - 1] = tuple(part)
    return Multipartition(tuple(comps))


@dataclass(frozen=True)
class StdTableau:
    """A standard filling, stored as the node receiving each of 1..n in order."""

    shape: Multipartition
    order: tuple[Node, ...]

    def residue_sequence(self, charges: Sequence[int], ell: int) -> tuple[int, ...]:
        return tuple(residue(charges, node, ell) for node in self.order)


def standard_tableaux(shape: Multipartition) -> Iterator[StdTableau]:
    """All standard fillings, generated by growing from the empty shape."""
    n = shape.size

    def grow(current: Multipartition, order: tuple[Node, ...]) -> Iterator[tuple[Node, ...]]:
        if len(order) == n:
            yield order
            return
        for node in current.addable_nodes():
            s, a, b = node
            target = shape.components[s - 1]
            if a <= len(target) and target[a - 1] >= b:
                yield from grow(add_node(current, node), order + (node,))

    for order in grow(Multipartition.empty(shape.k), ()):
        yield StdTableau(shape, order)


def degree(charges: Sequence[int], tableau: StdTableau, ell: int) -> int:
    """Degree of a standard tableau, peeling n, n-1, ..., 1."""
    total = 0
    shape = tableau.shape
    for node in reversed(tableau.order):
        total += node_degree(charges, shape, node, ell)
        shape = shape.remove_node(node)
    return total


# -- the value-object arrow test -----------------------------------------


# the step each index of a move takes; the signs spell the kind
STEPS = {KIND_UP: (2,), KIND_DOWN: (-2,), KIND_UP_UP: (1, 1),
         KIND_DOWN_DOWN: (-1, -1), KIND_DOWN_UP: (-1, 1)}


def label_index(label: MoveLabel) -> tuple[int, ...]:
    """The one or two indices of a move."""
    return (label.i,) if label.j is None else (label.i, label.j)


def validate(label: MoveLabel, ell: int) -> None:
    """Each index and its target lie in 0..ell, a same-sign pair is ordered,
    and no step lands on the other index (that pair is one move or none)."""
    steps = STEPS.get(label.kind)
    if steps is None:
        raise ValueError(f"unknown move kind {label.kind!r}")
    index = label_index(label)
    ok = (len(index) == len(steps)
          and all(0 <= n <= ell and 0 <= n + s <= ell for n, s in zip(index, steps)))
    if ok and len(index) == 2:
        (i, j), (s, t) = index, steps
        ok = (s != t or i <= j) and i + s != j and j + t != i
    if not ok:
        raise ValueError(f"move {label} is out of range for rank {ell}")


def delta_closed_form(label: MoveLabel, ell: int) -> RootVector:
    """The root-lattice increment attached to a move."""
    validate(label, ell)
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


def move_table(ell: int) -> dict[MoveLabel, _Move]:
    """Every label valid at rank ``ell`` with its ``klrc.quiver._Move`` entry,
    in lexicographic order of its Δm, then of its label text: each kind's
    labels enumerated over all indices and kept when ``validate`` accepts
    them, Δm taken from the kind's steps, the increment solved from
    A.d = -Δm, the witness built by ``klrc.quiver._witness`` and the
    coordinate lists read off Δm and the solved increment."""
    moves = []
    for kind, steps in STEPS.items():
        for index in product(range(ell + 1), repeat=len(steps)):
            label = MoveLabel(kind, *index)
            try:
                validate(label, ell)
            except ValueError:
                continue
            shift = [0] * (ell + 1)
            for n, step in zip(index, steps):
                shift[n] -= 1
                shift[n + step] += 1
            delta = RootVector(_solve(tuple(map(neg, shift)), ell))
            moves.append(_Move(
                label, delta, _witness(label, ell), str(label), tuple(shift),
                tuple([n if step == -1 else ell + 1 + n
                       for n, step in enumerate(shift) if step < 0]),
                tuple([n if d == 0 else ell + 1 + n
                       for n, d in enumerate(delta.coeffs) if d <= 1])))
    moves.sort(key=lambda move: (move.shift, move.text))
    return {move.label: move for move in moves}


def _shift(m: tuple[int, ...], label: MoveLabel) -> tuple[int, ...] | None:
    """The multiplicities ``m`` re-indexed by the move, or None when ``m`` lacks
    the multiplicity the move removes.  The label is not validated."""
    index = label_index(label)
    shifted = list(m)
    for n in index:
        shifted[n] -= 1
        if shifted[n] < 0:
            return None
    for n, step in zip(index, STEPS[label.kind]):
        shifted[n + step] += 1
    return tuple(shifted)


def apply_move(weight: DominantWeight, label: MoveLabel) -> DominantWeight:
    """Re-index fundamental weights according to the move."""
    validate(label, weight.ell)
    m = _shift(weight.m, label)
    if m is None:
        raise ValueError(f"{weight} lacks the multiplicity for move {label}")
    return DominantWeight(m)


def _raised(x: tuple[int, ...], delta: tuple[int, ...],
            null: tuple[int, ...]) -> tuple[int, ...] | None:
    """``x + delta`` when it still drops below ``null`` somewhere, else None."""
    raised = tuple(map(add, x, delta))
    return raised if any(map(lt, raised, null)) else None


def below_masks(x: tuple[int, ...], null: tuple[int, ...]) -> tuple[int, int]:
    """The bitmasks ``one = {j : x_j < n_j}`` and ``two = {j : x_j + 1 < n_j}``
    of the two-mask arrow test, for n the null-root coefficients ``null``."""
    one = two = 0
    for n, (xn, dn) in enumerate(zip(x, null)):
        if xn < dn:
            one |= 1 << n
            if xn + 1 < dn:
                two |= 1 << n
    return one, two


def delta_masks(delta: Sequence[int]) -> tuple[int, int]:
    """The bitmasks ``zero = {j : d_j = 0}`` and ``low = {j : d_j <= 1}`` of
    the two-mask arrow test, for d a move's increment ``delta``: the move is
    an arrow out of x exactly when ``one & zero or two & low`` is nonzero,
    with ``one`` and ``two`` from ``below_masks``."""
    return (sum(1 << n for n, d in enumerate(delta) if d == 0),
            sum(1 << n for n, d in enumerate(delta) if d <= 1))


def arrow_test(source: MaximalWeightDatum, label: MoveLabel) -> MaximalWeightDatum | None:
    """The target datum when the move yields an arrow out of ``source``.

    The move is an arrow exactly when the raised vector still drops below the
    null-root coefficients somewhere; otherwise the underlying edge points
    back toward ``source`` and None is returned.
    """
    ell = source.weight.ell
    target_weight = apply_move(source.weight, label)
    x = _raised(source.x.coeffs, delta_closed_form(label, ell).coeffs, cartan(ell).delta_coeffs)
    if x is None:
        return None
    return MaximalWeightDatum(target_weight, RootVector(x))


def _candidate_keys(m: tuple[int, ...]) -> list[tuple[str, int, int | None]]:
    """The ``(kind, i, j)`` keys of the moves applicable to multiplicities ``m``,
    listed from the validity rules of each kind rather than read off the move
    table, with ``j`` None for a single-index move."""
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


def build_quiver(weight: DominantWeight) -> MaxWeightQuiver:
    """The quiver built one source at a time: the two-mask test runs on each
    move ``_candidate_keys`` lists for each member, the target is read off
    ``_shift``, and each source's arrows are sorted by target, then label
    text."""
    members = class_rows(weight.m)
    index = {m: n for n, (m, _) in enumerate(members)}
    null = cartan(weight.ell).delta_coeffs
    table = _move_table(weight.ell)
    rows = []
    for s, (m, x) in enumerate(members):
        one, two = below_masks(x, null)
        found = []
        for key in _candidate_keys(m):
            move = table[MoveLabel(*key)]
            zero, low = delta_masks(move.delta.coeffs)
            if not (one & zero or two & low):
                continue
            t = index[_shift(m, move.label)]
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


# -- the bead masks of the Fock step --------------------------------------


def bead_masks(charges: Sequence[int], ell: int, n: int, i: int) -> tuple[int, int]:
    """The ADD and REM masks of ``klrc.fock._masks``, one ``fold_residue`` per
    bit: in window k-1-s of 2n+2 bits, ADD has bit p < 2n+1 when the content
    p - n + c_s folds to i, and REM has bit p >= 1 when p - 1 - n + c_s does."""
    size = 2 * n + 2
    add = rem = 0
    for s, charge in enumerate(charges):
        base = (len(charges) - 1 - s) * size
        for p in range(size):
            if p < size - 1 and fold_residue(p - n + charge, ell) == i:
                add |= 1 << base + p
            if p >= 1 and fold_residue(p - 1 - n + charge, ell) == i:
                rem |= 1 << base + p
    return add, rem


# -- the layered Fock-rank oracle -------------------------------------------


def independent_columns(columns: Sequence[dict[int, int]]) -> list[int]:
    """The indices of the first maximal set of linearly independent integer
    columns, each a sparse dict, by fraction-free (Bareiss) elimination.

    The columns are processed in order, and a column is kept when it has a
    nonzero entry in a row not yet used as a pivot.  Every later entry of
    every remaining row is then replaced by (p * a - f * b) / p', p the new
    pivot, f the row's entry in the pivot column, b the pivot row's entry and
    p' the previous pivot (1 at first).  Each entry stays a minor of the
    matrix, so the division is exact (asserted), and no fraction enters.
    """
    keys = sorted(set().union(*columns))
    rows = [[column.get(key, 0) for column in columns] for key in keys]
    kept, last = [], 1
    for c in range(len(columns)):
        at = next((r for r, row in enumerate(rows) if row[c]), None)
        if at is None:
            continue
        kept.append(c)
        pivot = rows.pop(at)
        p = pivot[c]
        for row in rows:
            f = row[c]
            for j in range(c + 1, len(columns)):
                value, rest = divmod(p * row[j] - f * pivot[j], last)
                assert rest == 0
                row[j] = value
            row[c] = 0
        last = p
    return kept


def at_q_one(weight: DominantWeight, word: tuple[int, ...]) -> dict[int, int]:
    """f_word applied to the vacuum at q=1, by bead key: ``klrc.fock._expand``
    of the residues in application order, each packed coefficient read as its
    digit sum, which is the coefficient mod 2^width - 1 (the width keeps the
    sum below that)."""
    width, _, _, terms = _expand(weight, [(i, 1) for i in word])
    modulus = (1 << width) - 1
    return {key: coeff % modulus for key, coeff in terms.items()}


def fock_ranks(weight: DominantWeight, height: int) -> dict[tuple[int, ...], int]:
    """dim V(Lambda)_{Lambda - beta} for every beta of height at most
    ``height`` at which it is nonzero, as the rank of the weight space of the
    Fock space at q=1 that the vacuum generates (Kang-Kashiwara; the type C
    Fock space of Ariki-Park-Speyer).

    The weight spaces of height h + 1 are spanned by f_i applied to the
    weight spaces of height h, so the words i.w, for w in the basis kept at
    height h, span them.  Vectors of one height share their box count, so
    their bead keys match across words, and each beta keeps the words of an
    independent subset of its candidates as its basis.
    """
    ell = weight.ell
    basis = {(0,) * (ell + 1): [()]}
    ranks = {(0,) * (ell + 1): 1}
    for _ in range(height):
        candidates: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for beta, words in basis.items():
            for i in range(ell + 1):
                raised = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                candidates.setdefault(raised, []).extend(word + (i,) for word in words)
        basis = {}
        for beta, words in candidates.items():
            kept = independent_columns([at_q_one(weight, word) for word in words])
            if kept:
                basis[beta] = [words[c] for c in kept]
                ranks[beta] = len(kept)
    return ranks


# -- orbits of a parabolic subgroup --------------------------------------


def stabilizer_orbit(ell: int, J: Sequence[int], x: Sequence[int]) -> set[tuple[int, ...]]:
    """The orbit of the root-lattice vector ``x`` under W_J, generated by the
    simple reflections s_j (j in J), s_j(x) = x - <alpha_j^vee, x> alpha_j,
    found breadth first."""
    matrix = cartan(ell).matrix
    orbit = {tuple(x)}
    frontier = [tuple(x)]
    while frontier:
        found = []
        for y in frontier:
            for j in J:
                z = list(y)
                z[j] -= sum(a * c for a, c in zip(matrix[j], y))
                z = tuple(z)
                if z not in orbit:
                    orbit.add(z)
                    found.append(z)
        frontier = found
    return orbit


# -- the class by stars and bars -----------------------------------------


def class_rows(root: tuple[int, ...], max_members: int = DEFAULT_MAX_VERTICES
               ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``(m, x)`` for every member m of the class of the multiplicities ``root``:
    the columns of ``klrc.maxweights._class_columns``, which raises its
    GuardError, read across, one row per member in its order."""
    m_cols, x_cols = _class_columns(root, max_members)
    return list(zip(zip(*m_cols), zip(*x_cols)))


def class_pass_by_compositions(root: tuple[int, ...], max_members: int = DEFAULT_MAX_VERTICES
                               ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``(m, x)`` for every member m of the class of the multiplicities ``root``,
    with x its minimal solution, in lexicographic order of m.

    GuardError when the class has more than ``max_members`` members, counted
    by ``_class_size`` before any member is built.  Membership is the parity
    condition: ev agrees modulo 2.  Stars and bars yield the weak compositions
    of k into ell+1 parts already in lexicographic order, since
    ``combinations`` yields the bar positions lexicographically and m_0, m_1,
    ... are their successive gaps.
    """
    size = _class_size(root)
    if size > max_members:
        raise GuardError(f"class has {size} members, cap is {max_members}")
    k, ell = sum(root), len(root) - 1
    parity = sum(root[1::2]) % 2
    members = []
    for bars in combinations(range(k + ell), ell):
        m = []
        prev = -1
        for b in bars:
            m.append(b - prev - 1)
            prev = b
        m.append(k + ell - 1 - prev)
        if sum(m[1::2]) % 2 == parity:
            m = tuple(m)
            members.append((m, _solve(tuple(map(sub, root, m)), ell)))
    return members


# -- the ε-coordinate class model ------------------------------------------


def finite_part(m: Sequence[int]) -> tuple[int, ...]:
    """The ε-coordinates λ_j = Σ_{i≥j} m_i, j = 1..ell, of the finite part of
    the weight with multiplicities ``m`` (every comark of C_ell^(1) is 1),
    as a running sum down from j = ell, so that deep ranks cost linear time."""
    lam, total = [], 0
    for v in m[:0:-1]:  # m_ell, ..., m_1
        total += v
        lam.append(total)
    return tuple(lam[::-1])


def class_model(root: Sequence[int]) -> list[tuple[int, ...]]:
    """The class of ``root`` in ε-coordinates: the dominant finite parts μ with
    k ≥ μ_1 ≥ … ≥ μ_ell ≥ 0 and Σμ ≡ Σλ (mod 2), λ the finite part of
    ``root`` and k its level, read back as multiplicities
    m = (k − μ_1, μ_1 − μ_2, …, μ_ell), in lexicographic order of m."""
    k, ell = sum(root), len(root) - 1
    parity = sum(finite_part(root)) % 2
    members = []
    for rising in combinations_with_replacement(range(k + 1), ell):  # μ_ell ≤ … ≤ μ_1
        if sum(rising) % 2 == parity:
            mu = (k,) + rising[::-1] + (0,)
            members.append(tuple(map(sub, mu, mu[1:])))
    return sorted(members)


def lowered_finite_part(root: Sequence[int], x: Sequence[int]) -> tuple[int, ...]:
    """The finite part of Λ − β, Λ with multiplicities ``root`` and β with
    coefficients ``x``: λ + 2x_0·e_1 − Σ_{0<i<ell} x_i(e_i − e_{i+1}) − 2x_ell·e_ell."""
    ell = len(root) - 1
    mu = list(finite_part(root))
    mu[0] += 2 * x[0]
    for i in range(1, ell):
        mu[i - 1] -= x[i]
        mu[i] += x[i]
    mu[ell - 1] -= 2 * x[ell]
    return tuple(mu)


def straighten_model(m: Sequence[int], x: Sequence[int]) -> tuple[int, ...] | None:
    """The straightened β′ of ``klrc.maxweights._straighten`` in closed form, or
    None when a coefficient of β′ is negative.

    W acts on the finite part of a level-k weight by signed permutations and
    translations in 2k·Z^ell, so folding each coordinate of the finite part ν
    of Λ − β mod 2k into [0, k] and sorting gives the finite part μ of its
    dominant conjugate Λ − β′.  The invariant |ν|² + 4k·d, d = −x_0 the
    δ-coefficient of Λ − β, gives x′_0, and the rest of β′ is read back from
    λ − μ = −2x′_0·e_1 + Σ_{0<i<ell} x′_i(e_i − e_{i+1}) + 2x′_ell·e_ell by
    prefix sums.  The reflections only lower coefficients, so β′ has a
    negative coefficient exactly when the straightening leaves the cone."""
    k = sum(m)
    nu = lowered_finite_part(m, x)
    mu = sorted([min(c % (2 * k), -c % (2 * k)) for c in nu], reverse=True)
    gap = sum(c * c for c in mu) - sum(c * c for c in nu)
    assert gap % (4 * k) == 0
    x0 = x[0] + gap // (4 * k)
    # 2x′_0 + (λ − μ)_1 + … + (λ − μ)_j is x′_j for j < ell and 2x′_ell for j = ell
    sums = list(accumulate(map(sub, finite_part(m), mu), initial=2 * x0))
    assert sums[-1] % 2 == 0
    straightened = (x0, *sums[1:-1], sums[-1] // 2)
    return straightened if min(straightened) >= 0 else None


def defect_model(m: Sequence[int], x: Sequence[int]) -> int:
    """The defect of ``klrc.maxweights.defect`` as ((Λ,Λ) − (Λ−β, Λ−β))/2, Λ
    with multiplicities ``m`` and β with coefficients ``x``, in ε-coordinates.

    A level-k weight kΛ_0 + ν + dδ pairs with itself to |ν|² + 4k·d, since
    (Λ_0, δ) = d_0 = 2 and the finite form is the dot product of ε-coordinates
    ((α_i, α_i) = 2 for the short roots e_i − e_{i+1}, 4 for 2e_ell).  Λ has
    finite part λ and d = 0 (the δ-part of Λ cancels in the difference); Λ − β
    has finite part ``lowered_finite_part`` and d = −x_0, from α_0 = δ − 2e_1."""
    k = sum(m)
    lam, nu = finite_part(m), lowered_finite_part(m, x)
    twice = sum(c * c for c in lam) - sum(c * c for c in nu) + 4 * k * x[0]
    assert twice % 2 == 0
    return twice // 2


# -- other helpers -------------------------------------------------------


def sigma_root(beta: RootVector) -> RootVector:
    """The diagram involution on a root vector: index reversal i -> ell - i."""
    return RootVector(beta.coeffs[::-1])


def sigma_weight(weight: DominantWeight) -> DominantWeight:
    """The diagram involution on a weight: its multiplicities reversed, and each
    charge c, in reversed order, sent to ell - c."""
    return DominantWeight(weight.m[::-1], tuple(weight.ell - c for c in weight.charges[::-1]))


def sigma_flip(weight: DominantWeight, beta: RootVector) -> tuple[DominantWeight, RootVector]:
    """The diagram involution i -> ell - i applied to both arguments."""
    return sigma_weight(weight), sigma_root(beta)


def with_charges(weight: DominantWeight, charges: Sequence[int]) -> DominantWeight:
    """The same weight with its charges in the order ``charges``."""
    return DominantWeight(weight.m, tuple(charges))


@lru_cache(maxsize=None)
def case_table(ell: int) -> tuple[CaseInstance, ...]:
    """All finite and tame case instances at rank ``ell``, finite cases first,
    in the order ``klrc.classifier._generate_cases`` lists them."""
    return tuple(_generate_cases(ell))


def minimal_weight(case: CaseInstance) -> DominantWeight:
    """The smallest dominant weight satisfying the case's constraints."""
    m = [0] * len(case.beta)
    for i, _, value in case.constraints:
        m[i] = max(m[i], value)
    if sum(m) < 2:
        free = next(i for i in range(len(m))
                    if not any(c[0] == i and c[1] == "==" for c in case.constraints))
        m[free] += 2 - sum(m)
    if any(all(_holds(m, c) for c in group) for group in case.exclusions):
        bump = next(i for i, op, _ in case.constraints if op == ">=")
        m[bump] += 1
    weight = DominantWeight(tuple(m))
    assert case.matches(weight.m, case.beta)
    return weight


def residue_word(word: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The residue sequence obtained by expanding the divided powers, in application order."""
    out: list[int] = []
    for i, power in reversed(tuple(word)):
        out.extend([i] * power)
    return tuple(out)


def graded_hom_dim_by_single_steps(weight: DominantWeight, nu: Sequence[int],
                                   nu_prime: Sequence[int] | None = None) -> LaurentPolynomial:
    """The graded dimension of the (nu, nu') truncation as the unscaled Hom
    dimension of the two expansions one residue at a time, nu' defaulting to
    nu; the sequences are taken to have the same content."""
    left = _expand(weight, [(i, 1) for i in nu])
    right = left if nu_prime is None else _expand(weight, [(i, 1) for i in nu_prime])
    return _hom(left, right)
