import json
from itertools import combinations, product, repeat
from operator import ge, lt
from pathlib import Path

import pytest

import klrc.quiver
import reference
from klrc import _lanes as lanes
from klrc.cartan import RANK_CACHE_SIZE, DominantWeight, RootVector, cartan, hub
from klrc.cli import main
from klrc.maxweights import (DEFAULT_MAX_VERTICES, MaximalWeightDatum, _class_packed, beta_of,
                             class_members, class_size, minimal_solution)
from klrc.multiplicity import _root_table
from klrc.quiver import (FORMATS, KIND_DOWN, KIND_DOWN_DOWN, KIND_DOWN_UP, KIND_UP, KIND_UP_UP,
                         Arrow, MoveLabel, _move_table, _tails, arrow_test, build_quiver,
                         candidate_moves, delta_vector, export, witness_sequence)
from reference import _raised, apply_move, below_masks, delta_masks


def W(*m):
    return DominantWeight(tuple(m))


def up(i):
    return MoveLabel(KIND_UP, i)


def down(i):
    return MoveLabel(KIND_DOWN, i)


def upup(i, j):
    return MoveLabel(KIND_UP_UP, i, j)


def downdown(i, j):
    return MoveLabel(KIND_DOWN_DOWN, i, j)


def downup(i, j):
    return MoveLabel(KIND_DOWN_UP, i, j)


def test_delta_vectors():
    assert delta_vector(down(2), 4).coeffs == (0, 1, 2, 2, 1)
    assert delta_vector(up(0), 4).coeffs == (1, 1, 0, 0, 0)
    assert delta_vector(downup(1, 3), 4).coeffs == (0, 1, 1, 1, 0)
    assert delta_vector(downup(3, 1), 4).coeffs == (1, 2, 1, 2, 1)
    assert delta_vector(upup(1, 3), 4).coeffs == (1, 2, 1, 1, 0)
    assert delta_vector(downdown(1, 3), 4).coeffs == (0, 1, 1, 2, 1)


def test_delta_vector_complements():
    """The complementary move recovers the null root."""
    delta = RootVector.null_root(4)
    assert delta_vector(up(1), 4) + delta_vector(down(3), 4) == delta
    assert delta_vector(upup(1, 3), 4) + delta_vector(downdown(2, 4), 4) == delta
    assert delta_vector(downup(1, 3), 4) + delta_vector(downup(4, 0), 4) == delta


def in_range_labels(ell):
    """Every label that the reference rule validates at rank ell."""
    labels = [MoveLabel(kind, i) for kind in (KIND_UP, KIND_DOWN) for i in range(ell + 1)]
    labels += [MoveLabel(kind, i, j)
               for kind in (KIND_UP_UP, KIND_DOWN_DOWN, KIND_DOWN_UP)
               for i in range(ell + 1) for j in range(ell + 1)]
    in_range = []
    for label in labels:
        try:
            reference.validate(label, ell)
        except ValueError:
            continue
        in_range.append(label)
    return in_range


def test_delta_vectors_are_minimal_solutions():
    """Each closed-form increment is the minimal solution for the hub change
    of its move, +1 at each index the move leaves and -1 at each target, and
    the increment the move table stores."""
    checked = 0
    for ell in range(2, 11):
        for label in in_range_labels(ell):
            y = [0] * (ell + 1)
            for n, step in zip(reference.label_index(label), reference.STEPS[label.kind]):
                y[n] += 1
                y[n + step] -= 1
            closed = reference.delta_closed_form(label, ell)
            assert closed == minimal_solution(tuple(y), ell), (label, ell)
            assert closed == delta_vector(label, ell), (label, ell)
            checked += 1
    assert checked == 768


def test_move_increments_are_the_first_layer_roots():
    """The move table's increments are the first-layer roots, one move per
    root: 2 ell^2 of each."""
    for ell in range(2, 17):
        increments = [move.delta for move in _move_table(ell).values()]
        assert len(increments) == len(set(increments)) == 2 * ell * ell
        layer = {RootVector(gamma) for gamma, root_mult, *_ in _root_table(ell) if root_mult == 1}
        assert set(increments) == layer, ell


@pytest.mark.parametrize("ell", range(2, 17))
def test_move_table_matches_the_enumerate_and_solve_route(ell):
    """Each move read off a first-layer root equals the reference table's
    move, built label by label with its increment solved from A.d = -Δm, on
    label, delta, witness, text, shift and both coordinate lists, entry by
    entry and in order."""
    assert list(_move_table(ell).items()) == list(reference.move_table(ell).items())


@pytest.mark.parametrize("ell", range(2, 17))
def test_move_coordinate_lists_match_the_masks(ell):
    """Each move's coordinate lists against the ones read off its Δm and the
    two masks of its increment: ``needs`` indexes has[1] + has[2] at j where
    Δm_j = -1 and -2, ``drops`` indexes one + two at the coordinates of
    ``zero`` and at those of ``low`` outside ``zero`` (two_j ⊆ one_j, so
    one_j alone where d_j = 0)."""
    size = ell + 1
    for move in _move_table(ell).values():
        zero, low = delta_masks(move.delta.coeffs)
        needs = ([n for n in range(size) if move.shift[n] == -1]
                 + [size + n for n in range(size) if move.shift[n] == -2])
        drops = ([n for n in range(size) if zero >> n & 1]
                 + [size + n for n in range(size) if (low & ~zero) >> n & 1])
        assert sorted(move.needs) == needs, move.label
        assert sorted(move.drops) == drops, move.label


def test_delta_vector_range_errors():
    with pytest.raises(ValueError):
        delta_vector(up(3), 4)
    with pytest.raises(ValueError):
        delta_vector(down(1), 4)
    with pytest.raises(ValueError):
        delta_vector(downup(2, 1), 4)  # i - 1 == j


def test_the_move_table_is_the_reference_label_rule():
    """For ell 2-16, every kind, the unknown "+-" and "x", i in -2..ell+2 and
    j None or in -2..ell+2, the reference rule accepts a label exactly when
    the move table holds it; delta_vector, witness_sequence and arrow_test
    answer for the table's labels and raise the range error for the others."""
    checked = 0
    for ell in range(2, 17):
        table = _move_table(ell)
        # every move leaves every multiplicity of m = 2 nonnegative
        source = MaximalWeightDatum(W(*(2,) * (ell + 1)), RootVector.zero(ell))
        span = range(-2, ell + 3)
        for kind, i, j in product([*reference.STEPS, "+-", "x"], span, [None, *span]):
            label = MoveLabel(kind, i, j)
            try:
                reference.validate(label, ell)
            except ValueError:
                valid = False
            else:
                valid = True
            assert valid == (label in table), (label, ell)
            for route in (lambda: delta_vector(label, ell), lambda: witness_sequence(label, ell),
                          lambda: arrow_test(source, label)):
                if valid:
                    route()
                else:
                    with pytest.raises(ValueError, match="out of range"):
                        route()
            checked += 1
    assert checked == 24010


def test_apply_move():
    assert apply_move(W(0, 0, 2, 0, 0), downup(2, 2)).m == (0, 1, 0, 1, 0)
    assert apply_move(W(0, 1, 1, 0, 0), up(1)).m == (0, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        apply_move(W(2, 0, 0, 0, 0), down(2))


def test_arrow_test():
    root = W(0, 0, 2, 0, 0)
    source = beta_of(root, root)
    target = arrow_test(source, downup(2, 2))
    assert target is not None
    assert target.weight.m == (0, 1, 0, 1, 0)
    assert target.x.coeffs == (0, 0, 1, 0, 0)
    # a move toward the root never fires
    other = beta_of(root, W(0, 2, 0, 0, 0))
    assert arrow_test(other, upup(1, 1)) is None


def test_arrow_test_rejects_a_missing_multiplicity():
    """Both arrow tests raise ValueError on a weight without the multiplicity
    the move takes off, and on a label out of range."""
    root = W(0, 0, 2, 0, 0)
    for route in (arrow_test, reference.arrow_test):
        for source, label in [(beta_of(root, W(2, 0, 0, 0, 0)), down(2)),
                              (beta_of(root, W(0, 1, 0, 1, 0)), upup(1, 1)),
                              (beta_of(root, root), downdown(1, 1))]:
            with pytest.raises(ValueError, match="lacks the multiplicity"):
                route(source, label)
        with pytest.raises(ValueError, match="out of range"):
            route(beta_of(root, root), up(3))


def test_arrow_test_rejects_a_solution_vector_of_another_rank():
    """An x longer or shorter than the weight's rank raises, where zip would
    drop the extra entries or the missing ones and answer a datum."""
    for m, x in [((1, 0, 0), (0, 0, 0, 5)), ((1, 0, 0, 0), (0, 0, 0))]:
        with pytest.raises(ValueError, match="rank mismatch"):
            arrow_test(MaximalWeightDatum(W(*m), RootVector(x)), up(0))


def test_arrow_test_rejects_a_negative_solution_entry():
    """The two-mask test is exact only for x >= 0: on a datum whose x has a
    negative entry, where the reference route finds an arrow, arrow_test
    raises instead of answering None."""
    source = MaximalWeightDatum(W(0, 0, 2, 0, 0), RootVector((1, 2, -1, 2, 1)))
    assert reference.arrow_test(source, down(2)).x.coeffs == (1, 3, 1, 4, 2)
    with pytest.raises(ValueError, match="negative entry"):
        arrow_test(source, down(2))


# golden arrow sets of the two worked rank-4 level-two quivers
ARROWS_2L2 = {
    ((0, 0, 2, 0, 0), (0, 2, 0, 0, 0), downdown(2, 2)),
    ((0, 0, 2, 0, 0), (1, 0, 1, 0, 0), down(2)),
    ((0, 0, 2, 0, 0), (0, 1, 0, 1, 0), downup(2, 2)),
    ((0, 0, 2, 0, 0), (0, 0, 0, 2, 0), upup(2, 2)),
    ((0, 0, 2, 0, 0), (0, 0, 1, 0, 1), up(2)),
    ((0, 2, 0, 0, 0), (2, 0, 0, 0, 0), downdown(1, 1)),
    ((0, 2, 0, 0, 0), (1, 0, 1, 0, 0), downup(1, 1)),
    ((1, 0, 1, 0, 0), (2, 0, 0, 0, 0), down(2)),
    ((0, 1, 0, 1, 0), (1, 0, 1, 0, 0), downdown(1, 3)),
    ((0, 1, 0, 1, 0), (0, 2, 0, 0, 0), down(3)),
    ((0, 1, 0, 1, 0), (0, 0, 0, 2, 0), up(1)),
    ((0, 1, 0, 1, 0), (1, 0, 0, 0, 1), downup(1, 3)),
    ((0, 1, 0, 1, 0), (0, 0, 1, 0, 1), upup(1, 3)),
    ((1, 0, 0, 0, 1), (1, 0, 1, 0, 0), down(4)),
    ((1, 0, 0, 0, 1), (0, 0, 1, 0, 1), up(0)),
    ((0, 0, 0, 2, 0), (0, 0, 1, 0, 1), downup(3, 3)),
    ((0, 0, 0, 2, 0), (0, 0, 0, 0, 2), upup(3, 3)),
    ((0, 0, 1, 0, 1), (0, 0, 0, 0, 2), up(2)),
}

ARROWS_L1L2 = {
    ((0, 1, 1, 0, 0), (1, 1, 0, 0, 0), down(2)),
    ((0, 1, 1, 0, 0), (1, 0, 0, 1, 0), downup(1, 2)),
    ((0, 1, 1, 0, 0), (0, 0, 1, 1, 0), up(1)),
    ((0, 1, 1, 0, 0), (0, 1, 0, 0, 1), up(2)),
    ((1, 0, 0, 1, 0), (1, 1, 0, 0, 0), down(3)),
    ((1, 0, 0, 1, 0), (0, 0, 1, 1, 0), up(0)),
    ((1, 0, 0, 1, 0), (0, 1, 0, 0, 1), upup(0, 3)),
    ((0, 0, 1, 1, 0), (0, 1, 0, 0, 1), downup(2, 3)),
    ((0, 0, 1, 1, 0), (0, 0, 0, 1, 1), up(2)),
    ((0, 1, 0, 0, 1), (0, 0, 0, 1, 1), up(1)),
}


@pytest.mark.parametrize("root,expected", [
    ((0, 0, 2, 0, 0), ARROWS_2L2),
    ((0, 1, 1, 0, 0), ARROWS_L1L2),
])
def test_build_quiver_golden(root, expected):
    quiver = build_quiver(DominantWeight(root))
    got = {(a.source.m, a.target.m, a.label) for a in quiver.arrows}
    assert got == expected
    assert len(quiver.vertices) == len({*[a[0] for a in expected], *[a[1] for a in expected]})


def test_level_one_chain_from_zero():
    quiver = build_quiver(DominantWeight.fundamental(0, 4))
    arcs = {(a.source.m.index(1), a.target.m.index(1)) for a in quiver.arrows}
    assert arcs == {(0, 2), (2, 4)}


@pytest.mark.parametrize("ell", range(2, 7))
@pytest.mark.parametrize("s_parity", [0, 1])
def test_level_one_bifurcating_chains(ell, s_parity):
    """Level-one quivers: directed chains away from the source vertex."""
    top = 2 * ((ell - s_parity) // 2) + s_parity
    for s in range(s_parity, ell + 1, 2):
        quiver = build_quiver(DominantWeight.fundamental(s, ell))
        indices = {v.weight.m.index(1) for v in quiver.vertices}
        assert indices == set(range(s_parity, ell + 1, 2))
        arcs = {(a.source.m.index(1), a.target.m.index(1)) for a in quiver.arrows}
        expected = {(t, t - 2) for t in range(s_parity + 2, s + 1, 2)}
        expected |= {(t, t + 2) for t in range(s, top - 1, 2)}
        assert arcs == expected


def test_single_vertex_class():
    quiver = build_quiver(DominantWeight.fundamental(1, 2))
    assert len(quiver.vertices) == 1 and not quiver.arrows


def test_witness_sequences():
    assert witness_sequence(up(0), 4) == (0, 1)
    assert witness_sequence(downup(1, 3), 4) == (1, 2, 3)
    assert witness_sequence(upup(0, 0), 4) == (0,)
    assert witness_sequence(up(2), 4) == (2, 1, 0, 1, 3, 2)
    assert witness_sequence(down(2), 4) == (2, 3, 4, 3, 1, 2)
    # the letters of each witness count its increment
    checked = 0
    for ell in range(2, 13):
        for label in _move_table(ell):
            counts = [0] * (ell + 1)
            for i in witness_sequence(label, ell):
                counts[i] += 1
            assert tuple(counts) == delta_vector(label, ell).coeffs, (label, ell)
            checked += 1
    assert checked == 1298


def all_weights(k, ell):
    for bars in combinations(range(k + ell), ell):
        m, prev = [], -1
        for b in bars:
            m.append(b - prev - 1)
            prev = b
        m.append(k + ell - 1 - prev)
        yield DominantWeight(tuple(m))


def test_quiver_properties_small_ranks():
    """Reachability, orientation, witness inequalities, move involution,
    first-layer labels and sigma-equivariance over all classes with
    k <= 3 and ell <= 5."""
    arrows_checked = 0
    for ell in range(2, 6):
        layer = {gamma for gamma, root_mult, *_ in _root_table(ell) if root_mult == 1}
        for k in range(1, 4):
            for weight in all_weights(k, ell):
                quiver = build_quiver(weight)
                assert not any(a.target.m == weight.m for a in quiver.arrows)
                adjacency: dict = {}
                for a in quiver.arrows:
                    adjacency.setdefault(a.source.m, []).append(a.target.m)
                seen, frontier = {weight.m}, [weight.m]
                while frontier:
                    nxt = []
                    for s in frontier:
                        for t in adjacency.get(s, []):
                            if t not in seen:
                                seen.add(t)
                                nxt.append(t)
                    frontier = nxt
                assert seen == {v.weight.m for v in quiver.vertices}
                for a in quiver.arrows:
                    arrows_checked += 1
                    assert a.delta.in_positive_cone() and a.delta.height > 0
                    assert a.delta.coeffs in layer
                    src, dst = quiver.vertex(a.source), quiver.vertex(a.target)
                    assert dst.x == src.x + a.delta
                    beta = src.x
                    for i in a.witness:
                        assert hub(weight, beta)[i] >= 1
                        beta = beta + RootVector.simple(i, ell)
                    assert beta == dst.x
                    assert apply_move(a.target, _inverse(a.label)) == a.source
                flipped = build_quiver(reference.sigma_weight(weight))
                assert ({(a.source.m, a.target.m) for a in flipped.arrows}
                        == {(a.source.m[::-1], a.target.m[::-1]) for a in quiver.arrows})
    assert arrows_checked > 200


def _inverse(label: MoveLabel) -> MoveLabel:
    if label.kind == KIND_UP:
        return down(label.i + 2)
    if label.kind == KIND_DOWN:
        return up(label.i - 2)
    if label.kind == KIND_UP_UP:
        return downdown(label.i + 1, label.j + 1)
    if label.kind == KIND_DOWN_DOWN:
        return upup(label.i - 1, label.j - 1)
    return downup(label.j + 1, label.i - 1)


@pytest.mark.parametrize("ell", range(2, 5))
def test_two_mask_arrow_test_is_exact(ell):
    """The rule of ``build_quiver`` and ``arrow_test``, a flag set among those
    a move's ``drops`` index in the flat flags x_j < n_j, then
    x_j + 1 < n_j, decides ``any(x + d < n)`` for every move and every x in
    {0, 1, 2, 3}^(ell+1), and so does the two-mask test ``one & zero or
    two & low`` of ``tests/reference.py``.  Both masks decide arrows on real
    classes (``test_second_mask_alone_decides_an_arrow``)."""
    null = cartan(ell).delta_coeffs
    table = _move_table(ell)
    assert {move.label for move in table.values()} == set(in_range_labels(ell))
    for x in product(range(4), repeat=ell + 1):
        below = [xj + e < n for e in (0, 1) for xj, n in zip(x, null)]
        one, two = below_masks(x, null)
        for move in table.values():
            raised = _raised(x, move.delta.coeffs, null) is not None
            assert any(below[i] for i in move.drops) == raised, (x, move.label)
            zero, low = delta_masks(move.delta.coeffs)
            assert bool(one & zero or two & low) == raised, (x, move.label)


def test_second_mask_alone_decides_an_arrow(capsys):
    """Out of the root of the class of Λ0+Λ2 at rank 2 (x = 0), the move
    Δ_{2^-,0^+} raises x by d = (1, 1, 1), and x + d drops below n = (1, 2, 1)
    only at the coordinate where n_j − x_j = 2: ``one & zero`` is 0, and the
    arrow is found by ``two & low`` alone, as ``drops`` finds it at the flag
    x_1 + 1 < n_1 alone."""
    root = W(1, 0, 1)
    move = _move_table(2)[downup(2, 0)]
    x, null = beta_of(root, root).x.coeffs, cartan(2).delta_coeffs
    one, two = below_masks(x, null)
    zero, low = delta_masks(move.delta.coeffs)
    assert (one, two, zero, low) == (0b111, 0b010, 0, 0b111)
    assert one & zero == 0 and two & low == 0b010
    # ``drops`` reads x_j + 1 < n_j at every j, and finds it at j = 1 alone
    below = [xj + e < n for e in (0, 1) for xj, n in zip(x, null)]
    assert move.drops == (3, 4, 5) and [i for i in move.drops if below[i]] == [4]
    assert arrow_test(beta_of(root, root), move.label) == beta_of(root, W(0, 2, 0))
    assert main(["quiver", "--ell", "2", "--m", "1,0,1"]) == 0
    assert "Λ0+Λ2 -> 2Λ1  Δ_{2^-,0^+}  a0+a1+a2" in capsys.readouterr().out.splitlines()


def test_move_table_entries():
    for ell in range(2, 11):
        for key, move in _move_table(ell).items():
            assert key == move.label
            assert move.delta == delta_vector(move.label, ell)
            assert move.witness == witness_sequence(move.label, ell)
            assert move.text == str(move.label)
            m = apply_move(DominantWeight((2,) * (ell + 1)), move.label).m
            assert move.shift == tuple(a - 2 for a in m)


def test_move_table_order():
    """The table lists its moves in lexicographic order of Δm, then of label
    text, Δm read off apply_move; build_quiver's row order rests on it."""
    for ell in range(2, 11):
        base = DominantWeight((2,) * (ell + 1))
        keys = [(tuple(a - 2 for a in apply_move(base, move.label).m), move.text)
                for move in _move_table(ell).values()]
        assert keys == sorted(set(keys))


def test_candidate_moves_are_the_applicable_labels():
    """candidate_moves lists, once each, every in-range label that apply_move
    accepts, in the move table's order."""
    for ell in range(2, 6):
        in_range = in_range_labels(ell)
        for k in range(1, 4):
            for weight in all_weights(k, ell):
                applicable = set()
                for label in in_range:
                    try:
                        apply_move(weight, label)
                    except ValueError:
                        continue
                    applicable.add(label)
                moves = candidate_moves(weight)
                assert moves == [label for label in _move_table(ell) if label in applicable]
                assert len(moves) == len(set(moves))
                assert set(moves) == applicable


# the classes rooted at (level - parity)Λ0 + parityΛ1 for ell 2-10 and level 1-5,
# up to C(15, 5) = 3003 compositions (1502 vertices)
ROUTE_CASES = [(parity, level, ell) for parity in (0, 1) for level in range(1, 6)
               for ell in range(2, 11)]

# (k-p)Λ0 + pΛ1 for ell 2-16, p in {0, 1} and every level k whose class is
# within the vertex cap: levels up to 140 at ell = 2, up to 4 at ell = 16
CAP_ROOTS = [root for ell in range(2, 17) for level in range(1, 141) for parity in (0, 1)
             for root in [(level - parity, parity) + (0,) * (ell - 1)]
             if class_size(DominantWeight(root)) <= DEFAULT_MAX_VERTICES]


def dot_text(vertices, arrows):
    """The dot export rendered from value objects."""
    index = {v.weight.m: n for n, v in enumerate(vertices)}
    lines = ["digraph maxweights {"]
    lines += [f'  v{n} [label="{v.weight}"];' for n, v in enumerate(vertices)]
    lines += [f'  v{index[a.source.m]} -> v{index[a.target.m]} [label="{a.label}"];'
              for a in arrows]
    return "\n".join(lines + ["}"]) + "\n"


def tsv_text(arrows):
    """The tsv export rendered from value objects."""
    lines = ["#source\ttarget\tlabel\tdelta"]
    lines += [f"{a.source}\t{a.target}\t{a.label}\t{a.delta}" for a in arrows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("parity,level,ell", ROUTE_CASES)
def test_build_quiver_matches_value_object_route(ell, level, parity):
    """build_quiver and its three exports against the arrows rebuilt from the
    public value-object functions, one reference arrow test per candidate move
    (so that rejected moves are checked as well as arrows), and the exports
    rendered from those value objects."""
    weight = DominantWeight((level - parity, parity) + (0,) * (ell - 1))
    data = {member.m: beta_of(weight, member) for member in class_members(weight)}
    arrows = []
    for member in class_members(weight):
        for label in candidate_moves(member):
            target = reference.arrow_test(data[member.m], label)
            if target is not None:
                arrows.append(Arrow(member, target.weight, label, delta_vector(label, ell),
                                    witness_sequence(label, ell)))
    arrows.sort(key=lambda a: (a.source.m, a.target.m, str(a.label)))
    vertices = tuple(data.values())
    quiver = build_quiver(weight)
    assert export(quiver, "dot") == dot_text(vertices, arrows)
    assert export(quiver, "tsv") == tsv_text(arrows)
    assert export(quiver, "json") == json.dumps(json_payload(weight, vertices, arrows),
                                                indent=2, ensure_ascii=False) + "\n"
    assert quiver.vertices == vertices
    assert quiver.arrows == tuple(arrows)


def pool_roots():
    """The roots of every query of the benchmark's quiver pool within the
    vertex cap."""
    pool = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden"
                       / "quiver.json").read_text(encoding="utf-8"))
    roots = set()
    for slot in pool["slots"]:
        for variant in slot["variants"]:
            for text, _, _ in variant:
                argv = text.split()
                ell = int(argv[argv.index("--ell") + 1])
                charges = [int(v) for v in argv[argv.index("--weight") + 1].split(",")]
                weight = DominantWeight.from_charges(charges, ell)
                if class_size(weight) <= DEFAULT_MAX_VERTICES:
                    roots.add(weight.m)
    return sorted(roots)


def test_build_quiver_rows_match_the_per_source_builder():
    """The per-move bitset build against the per-source reference builder, row
    for row, on every root of the quiver pool and every ROUTE_CASES class."""
    roots = pool_roots() + [(level - parity, parity) + (0,) * (ell - 1)
                            for parity, level, ell in ROUTE_CASES]
    assert len(roots) > 150
    for root in roots:
        weight = DominantWeight(root)
        assert build_quiver(weight).rows == reference.build_quiver(weight).rows, root


def test_build_quiver_checks_each_arrow_against_the_target(monkeypatch):
    """With one member's x corrupted, one digit of the packed x_0 column of the
    class pass, the per-arrow check that x + d is the target's own minimal
    solution fails."""
    root = (0, 0, 2, 0, 0)
    size, m_packed, x_packed = _class_packed(root)
    x_packed[0] += lanes.pack([0, 0, 0, 0, 1] + [0] * (size - 5))
    monkeypatch.setattr(klrc.quiver, "_class_packed", lambda *_: (size, m_packed, x_packed))
    with pytest.raises(AssertionError, match="not the target's minimal solution"):
        build_quiver(DominantWeight(root))


def test_vertex_bitsets_match_the_flag_columns():
    """The vertex bitsets of m_j >= 1, m_j >= 2, x_j < n_j and x_j + 1 < n_j,
    read off the packed class columns by the lane compare as ``build_quiver``
    reads them, against bitsets built a flag at a time over the unpacked
    columns, with ``ge`` and ``lt``, bit i for member i, on every class of
    CAP_ROOTS."""
    def column(flags):
        return sum(flag << i for i, flag in enumerate(flags))

    for root in CAP_ROOTS:
        null = cartan(len(root) - 1).delta_coeffs
        size, m_packed, x_packed = _class_packed(root)
        ones, top, _ = lanes.masks(size)
        m_cols = [lanes.unpack(col, size) for col in m_packed]
        x_cols = [lanes.unpack(col, size) for col in x_packed]
        for d in (1, 2):
            assert ([lanes.bitset(lanes.at_least(col, d * ones, top), size) for col in m_packed]
                    == [column(map(ge, col, repeat(d))) for col in m_cols]), (root, d)
        for e in (0, 1):
            assert ([lanes.bitset(top ^ lanes.at_least(col, (n - e) * ones, top), size)
                     for col, n in zip(x_packed, null)]
                    == [column(map(lt, col, repeat(n - e))) for col, n in zip(x_cols, null)]), \
                (root, e)


def test_build_quiver_checks_each_arrow_drops_below_the_null_root(monkeypatch):
    """With every move's ``drops`` corrupted to the x_j < n_j bitsets of all
    coordinates, the bitsets pass moves that are no arrows, and the
    per-arrow check that x + d drops below the null root fails."""
    table = {key: move._replace(drops=tuple(range(5))) for key, move in _move_table(4).items()}
    monkeypatch.setattr(klrc.quiver, "_move_table", lambda _: table)
    with pytest.raises(AssertionError, match="stays above the null root"):
        build_quiver(DominantWeight((0, 0, 2, 0, 0)))


def test_arrow_test_matches_the_reference_route():
    """The table-based arrow_test against the reference arrow test, which
    raises the solution vector, for every candidate move of every member of
    the ROUTE_CASES classes up to level 3, rejected moves included."""
    accepted = rejected = 0
    for parity, level, ell in ROUTE_CASES:
        if level > 3:
            continue
        weight = DominantWeight((level - parity, parity) + (0,) * (ell - 1))
        for member in class_members(weight):
            source = beta_of(weight, member)
            for label in candidate_moves(member):
                target = arrow_test(source, label)
                assert target == reference.arrow_test(source, label), (member, label)
                if target is None:
                    rejected += 1
                else:
                    accepted += 1
    # each edge is a candidate move from both of its ends and an arrow from one
    assert accepted == rejected > 1000


def test_export_dot():
    quiver = build_quiver(DominantWeight.fundamental(0, 4))
    dot = export(quiver, "dot")
    assert dot.startswith("digraph")
    assert dot.count("->") == 2
    assert "Λ0" in dot and "Δ_{0^+}" in dot
    assert export(quiver, "dot") == dot  # deterministic


def test_export_json_round_trip():
    quiver = build_quiver(DominantWeight((0, 0, 2, 0, 0)))
    payload = json.loads(export(quiver, "json"))
    assert payload["ell"] == 4 and payload["level"] == 2
    assert len(payload["vertices"]) == 9 and len(payload["arrows"]) == 18
    ms = [tuple(v["m"]) for v in payload["vertices"]]
    assert ms == sorted(ms)
    for arrow in payload["arrows"]:
        src = payload["vertices"][arrow["src"]]
        dst = payload["vertices"][arrow["dst"]]
        assert [a + d for a, d in zip(src["X"], arrow["delta"])] == dst["X"]
        assert len(arrow["witness"]) == sum(arrow["delta"])
    assert json.loads(export(quiver, "json")) == payload


def json_payload(root, vertices, arrows):
    """The export payload, for the standard library's own indent=2 layout."""
    index = {v.weight.m: n for n, v in enumerate(vertices)}
    return {
        "ell": root.ell,
        "level": root.level,
        "root": list(root.m),
        "vertices": [{"m": list(v.weight.m), "X": list(v.x.coeffs), "beta": str(v.x)}
                     for v in vertices],
        "arrows": [{"src": index[a.source.m], "dst": index[a.target.m],
                    "label": str(a.label), "delta": list(a.delta.coeffs),
                    "witness": list(a.witness)} for a in arrows],
    }


@pytest.mark.parametrize("ell", range(2, 7))
@pytest.mark.parametrize("level", range(1, 4))
@pytest.mark.parametrize("parity", [0, 1])
def test_export_json_layout_matches_json_dumps(ell, level, parity):
    weight = DominantWeight((level - parity, parity) + (0,) * (ell - 1))
    quiver = build_quiver(weight)
    payload = json_payload(quiver.root, quiver.vertices, quiver.arrows)
    expected = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    assert export(quiver, "json") == expected


def test_export_json_layout_without_arrows():
    quiver = build_quiver(DominantWeight.fundamental(1, 2))
    assert not quiver.arrows
    payload = json_payload(quiver.root, quiver.vertices, quiver.arrows)
    expected = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    assert export(quiver, "json") == expected
    assert '"arrows": []' in expected


def test_export_tsv():
    quiver = build_quiver(DominantWeight((0, 1, 1, 0, 0)))
    lines = export(quiver, "tsv").strip().split("\n")
    assert lines[0].startswith("#")
    assert len(lines) == 1 + 10
    assert all(len(line.split("\t")) == 4 for line in lines[1:])


@pytest.fixture
def empty_tails():
    """An empty per-rank tail store before the test and after it."""
    _tails.cache_clear()
    yield
    _tails.cache_clear()


def cold(quiver, fmt):
    """``export`` of ``quiver`` from an empty tail store, as in a fresh process."""
    _tails.cache_clear()
    return export(quiver, fmt)


def test_the_tail_store_is_bounded_by_the_rank_cache(empty_tails):
    """Quivers rendered at one rank more than RANK_CACHE_SIZE leave
    RANK_CACHE_SIZE ranks in the store, the first rank dropped, and each
    rank holds the tails of the moves that fired in the format rendered."""
    ranks = range(2, 3 + RANK_CACHE_SIZE)
    fired = {}
    for ell in ranks:
        quiver = build_quiver(DominantWeight.fundamental(0, ell))
        export(quiver, "text")
        fired[ell] = {move.text for _, _, move in quiver.rows}
    info = _tails.cache_info()
    assert info.maxsize == RANK_CACHE_SIZE and info.currsize == RANK_CACHE_SIZE
    for ell in ranks[1:]:
        tails = _tails(ell)
        assert list(tails) == ["text"] and set(tails["text"]) == fired[ell] != set(), ell
    assert _tails.cache_info().misses == info.misses
    _tails(ranks[0])
    assert _tails.cache_info().misses == info.misses + 1


def test_text_and_tsv_tails_never_mix(empty_tails):
    """A move's text and tsv tails share its label and delta and differ in
    the separator; rendered one after the other at one rank, in either
    order, each format gives the bytes it gives from an empty store."""
    quiver = build_quiver(DominantWeight((0, 1, 1, 0, 0)))
    text, tsv = cold(quiver, "text"), cold(quiver, "tsv")
    assert "\t" not in text and all(line.count("\t") == 3 for line in tsv.splitlines())
    for first, second in (("text", "tsv"), ("tsv", "text")):
        _tails.cache_clear()
        assert [export(quiver, first), export(quiver, second)] == \
            [{"text": text, "tsv": tsv}[fmt] for fmt in (first, second)]


def test_two_roots_at_one_rank_render_as_from_an_empty_store(empty_tails):
    """Two roots of rank 4 whose quivers share moves, rendered in every
    format, alternately and twice over, give the bytes each gives from an
    empty store, as in a fresh process: the tails one quiver stored serve
    the other."""
    quivers = [build_quiver(DominantWeight(m)) for m in ((0, 0, 2, 0, 0), (0, 1, 1, 0, 0))]
    first, second = ({move.text for _, _, move in quiver.rows} for quiver in quivers)
    assert first & second and first != second
    expected = {(n, fmt): cold(quiver, fmt) for n, quiver in enumerate(quivers)
                for fmt in FORMATS}
    _tails.cache_clear()
    for _ in range(2):
        for fmt in FORMATS:
            for n, quiver in enumerate(quivers):
                assert export(quiver, fmt) == expected[n, fmt], (n, fmt)


def test_export_unknown_format():
    quiver = build_quiver(DominantWeight.fundamental(1, 2))
    with pytest.raises(ValueError):
        export(quiver, "yaml")
