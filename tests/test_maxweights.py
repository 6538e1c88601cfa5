import random
import signal
import time
import tracemalloc

import pytest

import klrc.maxweights
from klrc.cartan import DominantWeight, GuardError, RootVector, cartan, hub
from klrc.maxweights import (DEFAULT_MAX_VERTICES, NotEquivalentError, _class_columns,
                             _defects, _straighten, beta_of, class_members, class_size, defect,
                             delta_decompose, dominantify, ev, minimal_solution,
                             reflection_word)
from reference import (class_model, class_pass_by_compositions, class_rows, defect_model,
                       finite_part, lowered_finite_part, sigma_flip, straighten_model)
from test_quiver import CAP_ROOTS, ROUTE_CASES, pool_roots


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
                members = class_rows(root)
                ms = [m for m, _ in members]
                assert ms == sorted(set(ms))
                assert ms == [w.m for w in class_members(DominantWeight(root))]
                assert len(ms) == class_size(DominantWeight(root))
                for m, x in members[:: max(1, len(members) // 20)]:
                    assert x == beta_of(DominantWeight(root), DominantWeight(m)).x.coeffs


# the roots (k−p)Λ0 + pΛ1 with ell 2-6, level 1-5 and p in {0, 1}, and their
# diagram flips (k−p)Λell + pΛ(ell−1)
MODEL_ROOTS = [root for ell in range(2, 7) for level in range(1, 6) for parity in (0, 1)
               for base in [(level - parity, parity) + (0,) * (ell - 1)]
               for root in (base, base[::-1])]


def test_class_pass_matches_the_epsilon_model():
    """The class pass against the ε-coordinate class model: the same members in
    the same lexicographic order of m, as many as ``class_size`` counts, and
    each member's x lowers the root's finite part to the member's own (Λ − β
    and the member differ by a multiple of δ)."""
    assert len(MODEL_ROOTS) == 100
    for root in MODEL_ROOTS:
        members = class_rows(root)
        assert [m for m, _ in members] == class_model(root), root
        assert len(members) == class_size(DominantWeight(root)), root
        for m, x in members:
            assert lowered_finite_part(root, x) == finite_part(m), (root, m)


def test_class_pass_matches_the_stars_and_bars_route():
    """The class pass, which enumerates the finite parts, against the stars-and-bars
    route (``reference.class_pass_by_compositions``), which builds every weak
    composition, keeps those whose ev has the root's parity and solves each:
    the same members in the same order with the same x, on every root of the
    quiver pool within the cap, every ROUTE_CASES class and the MODEL_ROOTS."""
    roots = pool_roots() + [(level - parity, parity) + (0,) * (ell - 1)
                            for parity, level, ell in ROUTE_CASES] + MODEL_ROOTS
    assert len(set(roots)) > 250
    for root in roots:
        assert class_rows(root) == class_pass_by_compositions(root), root


def test_class_columns_are_the_class_pass_transposed():
    """``_class_columns`` against the stars-and-bars route at the column
    engine's edges: the one-member class of Λ1 at rank 2, whose columns have
    length 1; every root at rank 2 and levels 1-6; and the class of 37Λ0 at
    rank 3, 4,940 members, just under the member cap."""
    m_cols, x_cols = _class_columns((0, 1, 0))
    assert (m_cols, [list(col) for col in x_cols]) == ([[0], [1], [0]], [[0], [0], [0]])
    roots = [(a, b, level - a - b) for level in range(1, 7)
             for a in range(level + 1) for b in range(level + 1 - a)]
    assert len(roots) == 83
    for root in roots + [(37, 0, 0, 0)]:
        m_cols, x_cols = _class_columns(root)
        assert len(m_cols) == len(x_cols) == len(root)
        expected = class_pass_by_compositions(root)
        assert list(zip(zip(*m_cols), zip(*x_cols))) == expected, root
    assert len(expected) == 4_940 < DEFAULT_MAX_VERTICES


def test_class_columns_guard_runs_before_any_column(monkeypatch):
    """The class of 38Λ0 at rank 3 has 5,340 members, just over the member
    cap: GuardError is raised before the finite parts are enumerated."""
    assert class_size(DominantWeight((38, 0, 0, 0))) == 5_340

    def enumerated(*_):
        raise AssertionError("the class was enumerated")

    monkeypatch.setattr(klrc.maxweights, "combinations_with_replacement", enumerated)
    with pytest.raises(GuardError, match="5340 members, cap is 5000"):
        _class_columns((38, 0, 0, 0))
    with pytest.raises(GuardError, match="5340 members"):
        class_members(DominantWeight((38, 0, 0, 0)))
    with pytest.raises(AssertionError, match="enumerated"):
        _class_columns((37, 0, 0, 0))


def test_class_pass_at_a_deep_rank():
    """The class of Λ0 at ell = 1,200 (601 members) against the stars-and-bars
    route: the pass does not recurse, so its stack depth does not grow with the
    rank."""
    root = (1,) + (0,) * 1200
    members = class_rows(root)
    assert len(members) == 601
    assert members == class_pass_by_compositions(root)


def test_class_pass_matches_the_stars_and_bars_route_at_every_level_within_the_cap():
    """The packed class pass against the stars-and-bars route on CAP_ROOTS:
    ell 2-16 at every level whose class is within the member cap, with either
    parity of ev."""
    assert len(CAP_ROOTS) == 545
    for root in CAP_ROOTS:
        assert class_rows(root) == class_pass_by_compositions(root), root


def test_class_pass_at_a_high_level_with_a_raised_cap():
    """At ell = 2 and level 200, past the member cap, the class of 200Λ0 and
    that of 199Λ0 + Λ1 against the stars-and-bars route.  The finite part of
    root is 0 or (1, 0), so the prefix sums xhat_j = (lam_1 - mu_1) + ... +
    (lam_j - mu_j) go down to -400 before the halving and the shift n to
    -200: the biased digits of the class pass run below their bias."""
    for root, size in (((200, 0, 0), 10_201), ((199, 1, 0), 10_100)):
        rows = class_rows(root, 20_000)
        assert len(rows) == size > DEFAULT_MAX_VERTICES
        assert rows == class_pass_by_compositions(root, 20_000), root


def test_class_pass_at_a_deep_rank_within_its_memory_budget():
    """The class of Λ0 at ell = 1,200 (601 members, 1,201 columns of each of
    m and x) peaks under 15 MiB of traced allocations: each column is held
    once, packed or unpacked, beside the enumerated finite parts."""
    root = (1,) + (0,) * 1200
    tracemalloc.start()
    try:
        m_cols, x_cols = _class_columns(root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(m_cols) == len(x_cols) == 1201 and len(m_cols[0]) == 601
    assert peak < 15 * 2 ** 20, peak


def test_class_members_guard_runs_before_any_member():
    """The class of 3,000,000Λ2 at rank 2 has about 2.25·10¹² members:
    class_members raises the member cap on the count, within 2 s and in a few
    KiB, before any member is listed."""
    def overran(signum, frame):
        raise TimeoutError("the member guard overran its 2 s budget")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, 2)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(GuardError, match="^class has 2250003000001 members, cap is 5000$"):
            class_members(W(0, 0, 3_000_000))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 2
    assert peak < 2 ** 20


def random_weight(rng, ell, level):
    m = [0] * (ell + 1)
    for _ in range(level):
        m[rng.randint(0, ell)] += 1
    return tuple(m)


def test_straighten_matches_the_epsilon_model():
    """``_straighten`` against the closed-form straightening of the ε-coordinate
    model (``reference.straighten_model``) on random β at ell 2-8, level 1-5
    and entries up to 6, and on deep β = nδ + γ with n up to 10⁷, which from
    n = 10³ on always straighten inside the cone."""
    rng = random.Random(9)
    outcomes = {True: 0, False: 0}
    for _ in range(4000):
        ell = rng.randint(2, 8)
        m = random_weight(rng, ell, rng.randint(1, 5))
        x = tuple([rng.randint(0, 6) for _ in range(ell + 1)])
        straightened = _straighten(m, x)[0]
        assert straightened == straighten_model(m, x), (m, x)
        outcomes[straightened is None] += 1
    assert min(outcomes.values()) > 200
    for ell in (2, 4, 8):
        null = cartan(ell).delta_coeffs
        for n in (1, 10, 10 ** 3, 10 ** 5, 10 ** 7):
            for _ in range(8):
                m = random_weight(rng, ell, rng.randint(1, 5))
                x = tuple([n * d + rng.randint(0, 6) for d in null])
                straightened = _straighten(m, x)[0]
                assert straightened == straighten_model(m, x), (m, x)
                assert n < 10 ** 3 or straightened is not None, (m, x)


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


def test_defect_matches_the_epsilon_model():
    """``defect`` against ((Λ,Λ) − (Λ−β, Λ−β))/2 read in ε-coordinates
    (``reference.defect_model``), for every member of every ROUTE_CASES class
    and its β: Λ the class root, and Λ the member itself."""
    checked = 0
    for parity, level, ell in ROUTE_CASES:
        root = (level - parity, parity) + (0,) * (ell - 1)
        for m, x in class_rows(root):
            beta = RootVector(x)
            assert defect(DominantWeight(root), beta) == defect_model(root, x), (root, m)
            assert defect(DominantWeight(m), beta) == defect_model(m, x), (root, m)
            checked += 1
    assert checked > 12_000


def test_class_defects_match_the_epsilon_model_and_defect():
    """``_defects``, the class form of the defect identity, against
    ``reference.defect_model`` and the single-vector ``defect``, member by
    member: every class of the quiver pool within the vertex cap, and the
    601 members of the class of Λ0 at ell = 1,200."""
    checked = 0
    for root in pool_roots() + [(1,) + (0,) * 1200]:
        weight = DominantWeight(root)
        m_cols, x_cols = _class_columns(root)
        values = _defects(root, m_cols, x_cols)
        assert len(values) == len(m_cols[0])
        for x, value in zip(zip(*x_cols), values):
            assert value == defect_model(root, x) == defect(weight, RootVector(x)), (root, x)
        checked += len(values)
    assert checked > 20_000


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
