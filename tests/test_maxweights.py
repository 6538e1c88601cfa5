import random

import pytest

from klrc.cartan import DominantWeight, RootVector, cartan, hub
from klrc.maxweights import (NotEquivalentError, _class_pass, beta_of, class_members, class_size,
                             defect, delta_decompose, dominantify, ev, minimal_solution,
                             reflection_word)
from reference import sigma_flip


def W(*m):
    return DominantWeight(tuple(m))


def R(*x):
    return RootVector(tuple(x))


def test_ev():
    assert ev(W(1, 1, 0)) == 1
    assert ev(W(3, 0, 0)) == 0
    assert ev(W(0, 1, 0, 1, 0)) == 2
    assert ev(W(0, 1, 0, 1)) == 2


def test_class_members_level_two_rank_four():
    members = {w.m for w in class_members(W(2, 0, 0, 0, 0))}
    assert members == {
        (2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 2, 0),
        (0, 0, 0, 0, 2), (1, 0, 1, 0, 0), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1),
        (1, 0, 0, 0, 1),
    }
    members = {w.m for w in class_members(W(1, 1, 0, 0, 0))}
    assert members == {
        (1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1),
        (1, 0, 0, 1, 0), (0, 1, 0, 0, 1),
    }


def test_class_pass_is_lexicographic():
    """The class pass lists each member once, in lexicographic order of m,
    with its minimal solution, without sorting."""
    for ell in range(2, 8):
        for level in range(1, 7):
            for parity in (0, 1):
                root = (level - parity, parity) + (0,) * (ell - 1)
                members = _class_pass(root)
                ms = [m for m, _ in members]
                assert ms == sorted(set(ms))
                assert ms == [w.m for w in class_members(DominantWeight(root))]
                assert len(ms) == class_size(DominantWeight(root))
                for m, x in members[:: max(1, len(members) // 20)]:
                    assert x == beta_of(DominantWeight(root), DominantWeight(m)).x.coeffs


def test_class_contains_self():
    for m in [(2, 0, 0), (1, 1, 1, 0), (0, 0, 3, 0, 1)]:
        w = DominantWeight(m)
        assert any(v.m == m for v in class_members(w))


def class_size_by_parts(m):
    """The class size by a dynamic program over the parts: ``ways[s][p]``
    counts the multiplicities placed so far with total s and ev of parity p."""
    k = sum(m)
    ways = [[0, 0] for _ in range(k + 1)]
    ways[0][0] = 1
    for i in range(len(m)):
        placed = [[0, 0] for _ in range(k + 1)]
        for s, (even, odd) in enumerate(ways):
            for v in range(k - s + 1):
                flip = i % 2 and v % 2
                placed[s + v][flip] += even
                placed[s + v][1 - flip] += odd
        ways = placed
    return ways[k][sum(m[1::2]) % 2]


def test_class_size_matches_the_dynamic_program():
    for ell in range(2, 17):
        for level in range(1, 21):
            for parity in (0, 1):
                m = (level - parity, parity) + (0,) * (ell - 1)
                assert class_size(DominantWeight(m)) == class_size_by_parts(m), m


def test_class_size_at_a_large_level():
    """Two binomials at any level (the dynamic program would take hours here):
    at rank 2 the class of kΛ0 holds the compositions with m_1 even,
    ((k+2)(k+1)/2 + k//2 + 1)/2 of them."""
    k = 10 ** 5
    assert class_size(DominantWeight((k, 0, 0))) == ((k + 2) * (k + 1) // 2 + k // 2 + 1) // 2


@pytest.mark.parametrize("ell", range(2, 9))
def test_class_size_counts_the_members(ell):
    for level in range(1, 6):
        for parity in (0, 1):
            weight = DominantWeight((level - parity, parity) + (0,) * (ell - 1))
            assert class_size(weight) == len(class_members(weight))
    with pytest.raises(ValueError):
        class_size(DominantWeight((0,) * (ell + 1)))


# the two worked level-two classes at rank 4, with the two vectors the
# figure misprints corrected to satisfy A.X = Y (see the figure's own arrows)
VECTORS_2L2 = {
    (2, 0, 0, 0, 0): (0, 2, 4, 4, 2),
    (0, 2, 0, 0, 0): (0, 0, 2, 2, 1),
    (1, 0, 1, 0, 0): (0, 1, 2, 2, 1),
    (0, 0, 2, 0, 0): (0, 0, 0, 0, 0),
    (0, 1, 0, 1, 0): (0, 0, 1, 0, 0),
    (1, 0, 0, 0, 1): (0, 1, 2, 1, 0),
    (0, 0, 0, 2, 0): (1, 2, 2, 0, 0),
    (0, 0, 1, 0, 1): (1, 2, 2, 1, 0),
    (0, 0, 0, 0, 2): (2, 4, 4, 2, 0),
}

VECTORS_L1L2 = {
    (1, 1, 0, 0, 0): (0, 1, 2, 2, 1),
    (0, 1, 1, 0, 0): (0, 0, 0, 0, 0),
    (1, 0, 0, 1, 0): (0, 1, 1, 0, 0),
    (0, 0, 1, 1, 0): (1, 2, 1, 0, 0),
    (0, 1, 0, 0, 1): (1, 2, 2, 1, 0),
    (0, 0, 0, 1, 1): (2, 4, 3, 1, 0),
}


@pytest.mark.parametrize("root,table", [
    ((0, 0, 2, 0, 0), VECTORS_2L2),
    ((0, 1, 1, 0, 0), VECTORS_L1L2),
])
def test_beta_of_level_two_tables(root, table):
    weight = DominantWeight(root)
    for m, x in table.items():
        assert beta_of(weight, DominantWeight(m)).x.coeffs == x


def test_beta_of_self_is_zero():
    w = W(1, 0, 2, 0)
    assert beta_of(w, w).x.is_zero()


def test_beta_of_rejects_wrong_parity():
    with pytest.raises(NotEquivalentError):
        beta_of(W(2, 0, 0), W(1, 1, 0))


def test_minimal_solution_uniqueness_brute_force():
    """Independent oracle: scan all shifts of a particular solution."""
    rng = random.Random(20240817)
    cases = 0
    while cases < 200:
        ell = rng.randint(2, 6)
        y = [rng.randint(-3, 3) for _ in range(ell)]
        y.append(-sum(y))
        if sum(i * y[i] for i in range(ell + 1)) % 2:
            continue
        cases += 1
        datum = cartan(ell)
        x = minimal_solution(tuple(y), ell).coeffs
        assert datum.apply_matrix(x) == tuple(y)
        delta = datum.delta_coeffs
        found = []
        for shift in range(-20, 21):
            cand = tuple(c + shift * d for c, d in zip(x, delta))
            if min(cand) >= 0 and min(c - d for c, d in zip(cand, delta)) < 0:
                found.append(cand)
        assert found == [x]


def test_corollary_embedding_random_splits():
    """beta of a shifted class member is unchanged by adding a common summand."""
    rng = random.Random(5)
    for _ in range(200):
        ell = rng.randint(2, 5)
        k = rng.randint(1, 3)
        bar = DominantWeight.from_charges([rng.randint(0, ell) for _ in range(k)], ell)
        tilde_m = [0] * (ell + 1)
        for _ in range(rng.randint(1, 2)):
            tilde_m[rng.randint(0, ell)] += 1
        total = DominantWeight(tuple(a + b for a, b in zip(bar.m, tilde_m)))
        member = rng.choice(class_members(bar))
        shifted = DominantWeight(tuple(a + b for a, b in zip(member.m, tilde_m)))
        assert beta_of(bar, member).x == beta_of(total, shifted).x


def test_defect_values():
    assert defect(W(0, 0, 2, 0, 0), RootVector.simple(2, 4)) == 1
    assert defect(W(1, 1, 0), R(0, 0, 0)) == 0
    for ell in (3, 4):
        for a in range(1, ell):
            m = [0] * (ell + 1)
            m[a] = 4
            assert defect(DominantWeight(tuple(m)), 2 * RootVector.simple(a, ell)) == 4


def test_delta_decompose():
    delta = RootVector.null_root(4)
    assert delta_decompose(delta) == (RootVector.zero(4), 1)
    assert delta_decompose(R(0, 0, 1, 0, 0)) == (R(0, 0, 1, 0, 0), 0)
    assert delta_decompose(R(1, 2, 3, 2, 1)) == (R(0, 0, 1, 0, 0), 1)


def test_delta_decompose_round_trip():
    delta = RootVector.null_root(4)
    for m, x in VECTORS_2L2.items():
        for mult in range(4):
            vec = RootVector(x) + mult * delta
            assert delta_decompose(vec) == (RootVector(x), mult)


def test_dominantify():
    assert dominantify(W(1, 0, 0), RootVector.simple(0, 2)) == RootVector.zero(2)
    assert dominantify(W(1, 0, 0), RootVector.simple(1, 2)) is None
    beta = R(0, 0, 1, 0, 0)
    assert dominantify(W(0, 0, 2, 0, 0), beta) == beta


def test_dominantify_replay_word():
    """Replaying the reflection word reproduces the straightened vector."""
    rng = random.Random(11)
    for _ in range(200):
        ell = rng.randint(2, 5)
        k = rng.randint(1, 3)
        w = DominantWeight.from_charges([rng.randint(0, ell) for _ in range(k)], ell)
        beta = RootVector(tuple(rng.randint(0, 3) for _ in range(ell + 1)))
        word = reflection_word(w, beta)
        result = dominantify(w, beta)
        if word is None:
            assert result is None
            continue
        replay = beta
        for i in word:
            h = hub(w, replay)
            assert h[i] < 0
            replay = replay + h[i] * RootVector.simple(i, ell)
        assert replay == result
        assert min(hub(w, result)) >= 0


def test_sigma_flip():
    w, b = sigma_flip(W(2, 0, 0, 0), R(1, 2, 0, 0))
    assert w.m == (0, 0, 0, 2)
    assert b.coeffs == (0, 0, 2, 1)
    assert sigma_flip(w, b) == (W(2, 0, 0, 0), R(1, 2, 0, 0))
