import random
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from operator import sub

import pytest

from klrc.cartan import (RANK_CACHE_SIZE, DominantWeight, GuardError, RootVector, cartan,
                         hub, pairing)
from klrc.classifier import _case_index
from klrc.cli import main
from klrc.fock import Multipartition, expand, residue
from klrc import multiplicity
from klrc.maxweights import _straighten, beta_of, class_members, dominantify, reflection_word
from klrc.multiplicity import (DEFAULT_MAX_HEIGHT, _mult, _multiplicity, _root_table,
                               _terms, _weyl_order, positive_roots_within, weight_multiplicity)
from klrc.quiver import _move_table
from reference import add_node, evaluate, fock_ranks, move_table, sigma_flip, stabilizer_orbit
from test_golden_replay import golden


def W(*m):
    return DominantWeight(tuple(m))


def R(*x):
    return RootVector(tuple(x))


def test_finite_root_count():
    # type C rank ell has 2*ell^2 roots, half positive; a finite root is a
    # first-layer row with gamma_0 = 0, the rest are their complements
    for ell in (2, 3, 4):
        real = [gamma for gamma, root_mult, *_ in _root_table(ell) if root_mult == 1]
        assert len([gamma for gamma in real if gamma[0] == 0]) == ell * ell
        assert len(real) == 2 * ell * ell


def test_first_layer_contents():
    layer = {gamma for gamma, root_mult, *_ in _root_table(2) if root_mult == 1}
    assert (0, 1, 0) in layer          # a simple root
    assert (1, 1, 0) in layer          # delta minus a finite root
    assert (1, 2, 1) not in layer      # the null root itself is not real


def test_highest_weight():
    assert weight_multiplicity(W(1, 1, 0), R(0, 0, 0)) == 1


def test_golden_counts():
    assert weight_multiplicity(W(0, 0, 2, 0), R(0, 0, 2, 1)) == 2
    assert weight_multiplicity(W(0, 0, 2, 1), R(0, 0, 2, 1)) == 3
    for j in (2, 3):
        m = [0] * 5
        m[0], m[j] = 3, 1
        x = [0] * 5
        x[0] = 2
        for t in range(1, j + 1):
            x[t] = 1
        assert weight_multiplicity(W(*m), R(*x)) == j + 1


def test_rank_one_strings():
    for ell in (2, 3):
        for i in range(ell + 1):
            present = DominantWeight(tuple(2 if t == i else 0 for t in range(ell + 1)))
            absent = DominantWeight(tuple(2 if t == (i + 1) % (ell + 1) else 0
                                          for t in range(ell + 1)))
            alpha = RootVector.simple(i, ell)
            assert weight_multiplicity(present, alpha) == 1
            assert weight_multiplicity(absent, alpha) == 0


def test_invariance_under_straightening():
    rng = random.Random(41)
    for _ in range(200):
        ell = rng.randint(2, 4)
        k = rng.randint(1, 3)
        weight = DominantWeight.from_charges([rng.randint(0, ell) for _ in range(k)], ell)
        beta = RootVector(tuple(rng.randint(0, 2) for _ in range(ell + 1)))
        straightened = dominantify(weight, beta)
        count = weight_multiplicity(weight, beta)
        if straightened is None:
            assert count == 0
        else:
            assert count == weight_multiplicity(weight, straightened)
            assert count >= 1  # dominant members of the weight cone are weights


def test_sigma_invariance():
    rng = random.Random(53)
    for _ in range(200):
        ell = rng.randint(2, 4)
        k = rng.randint(1, 2)
        weight = DominantWeight.from_charges([rng.randint(0, ell) for _ in range(k)], ell)
        beta = RootVector(tuple(rng.randint(0, 2) for _ in range(ell + 1)))
        assert (weight_multiplicity(weight, beta)
                == weight_multiplicity(*sigma_flip(weight, beta)))


def test_positive_exactly_on_maximal_weight_cone():
    """Dominant weights below the top are weights iff they sit over a class member."""
    ell = 3
    for root_m in [(2, 0, 0, 0), (1, 1, 0, 0)]:
        weight = DominantWeight(root_m)
        expected = set()
        delta = RootVector.null_root(ell)
        for member in class_members(weight):
            base = beta_of(weight, member).x
            for mult in range(3):
                vec = base + mult * delta
                if vec.height <= 8:
                    expected.add(vec.coeffs)
        for coeffs in product(range(4), repeat=ell + 1):
            beta = RootVector(coeffs)
            if beta.height > 8 or min(hub(weight, beta)) < 0:
                continue
            positive = weight_multiplicity(weight, beta) >= 1
            assert positive == (coeffs in expected), coeffs


def test_guard():
    with pytest.raises(GuardError):
        weight_multiplicity(W(1, 0, 0), R(5, 10, 5))
    with pytest.raises(ValueError):
        weight_multiplicity(W(1, 0, 0), R(-1, 0, 0))


def test_non_dominant_beta_reads_its_straightened_key(monkeypatch):
    """On a cold cache, a non-dominant beta answers with the multiplicity of its
    straightened beta' (Weyl invariance).  The cache holds sums only at
    dominant nonzero keys, each run once, so its misses count the sums run,
    and beta' then reads its sum with one hit and runs none."""
    m, coeffs = (0, 0, 2, 0), (1, 2, 3, 2)
    straightened = _straighten(m, coeffs)[0]
    assert straightened == (1, 2, 3, 1)
    summed = []

    def terms(m, beta):
        summed.append(beta)
        return _terms(m, beta)

    monkeypatch.setattr(multiplicity, "_terms", terms)
    _mult.cache_clear()
    value = _multiplicity(m, coeffs)
    assert value == 11
    info = _mult.cache_info()
    assert info.misses == info.currsize == len(summed) == len(set(summed)) > 1
    assert straightened in summed and coeffs not in summed
    datum = cartan(3)
    for beta in summed:
        assert any(beta) and min(map(sub, m, datum.apply_matrix(beta))) >= 0, beta
    assert _multiplicity(m, straightened) == value
    assert _mult.cache_info() == info._replace(hits=info.hits + 1)
    assert len(summed) == info.misses
    _mult.cache_clear()


def test_multiplicity_cache_is_bounded(monkeypatch):
    """No cache can grow without bound in a long-lived process; the caches
    keyed by rank alone share one bound.  The Freudenthal cache holds only
    sums: replaying the blocks pool's ``simples`` queries on a cold cache runs
    more sums than it holds, and its misses count them exactly."""
    assert _mult.cache_info().maxsize == 1024
    assert _weyl_order.cache_info().maxsize == 1024  # keyed by (rank, subset of I)
    for cached in (cartan, _root_table, _case_index, _move_table):
        assert cached.cache_info().maxsize == RANK_CACHE_SIZE, cached.__name__
    assert RANK_CACHE_SIZE >= 15  # every rank 2..16 the command line allows by default
    sums = []

    def terms(m, beta):
        sums.append(beta)
        return _terms(m, beta)

    monkeypatch.setattr(multiplicity, "_terms", terms)
    _mult.cache_clear()
    for m, beta in pool_cases(range(2, 9), DEFAULT_MAX_HEIGHT):
        _multiplicity(m, beta)
    info = _mult.cache_info()
    assert info.misses == len(sums) > info.currsize == info.maxsize
    _mult.cache_clear()


# Reference routes on value objects, which the tuple kernel must match: the
# straightening loop, the root enumeration and the Freudenthal recursion.

def reference_straighten(weight, beta):
    if weight.ell != beta.ell:
        raise ValueError("rank mismatch")
    if weight.level < 1:
        raise ValueError("level must be at least 1")
    coeffs = list(beta.coeffs)
    matrix = cartan(weight.ell).matrix
    word = []
    bound = 8 * (weight.level + sum(abs(c) for c in coeffs) + 2) ** 2
    for _ in range(bound):
        h = [mi - sum(row[j] * coeffs[j] for j in range(len(coeffs)))
             for mi, row in zip(weight.m, matrix)]
        i = next((j for j, v in enumerate(h) if v < 0), None)
        if i is None:
            return RootVector(tuple(coeffs)), word
        word.append(i)
        coeffs[i] += h[i]
        if coeffs[i] < 0:
            return None, word
    raise AssertionError("straightening failed to terminate within bound")


def reference_roots_within(ell, bound):
    out = []
    delta = RootVector.null_root(ell)

    def fits(r):
        return all(c <= b for c, b in zip(r.coeffs, bound))

    for gamma in sorted((move.delta for move in move_table(ell).values()),
                        key=lambda r: r.coeffs):
        root = gamma
        while fits(root):
            out.append((root, 1))
            root = root + delta
    imaginary = delta
    while fits(imaginary):
        out.append((imaginary, ell))
        imaginary = imaginary + delta
    return out


@lru_cache(maxsize=None)
def reference_mult(m, coeffs):
    weight = DominantWeight(m)
    straightened = reference_straighten(weight, RootVector(coeffs))[0]
    if straightened is None:
        return 0
    beta = straightened
    if beta.is_zero():
        return 1
    ell = weight.ell
    assert min(hub(weight, beta)) >= 0
    d = cartan(ell).d
    # denominator 2(Lambda + rho, beta) - (beta, beta); rho pairs with roots like sum(Lambda_i)
    rho_beta = sum(di * xi for di, xi in zip(d, beta.coeffs))
    denom = 2 * (pairing(weight, beta) + rho_beta) - pairing(beta, beta)
    assert denom > 0
    numer = 0
    for alpha, root_mult in reference_roots_within(ell, beta.coeffs):
        j = 1
        while True:
            rest = beta - alpha * j
            if not rest.in_positive_cone():
                break
            inner = reference_mult(m, rest.coeffs)
            if inner:
                # (Lambda - beta + j*alpha, alpha)
                value = pairing(weight, alpha) - pairing(rest, alpha)
                numer += root_mult * value * inner
            j += 1
    assert (2 * numer) % denom == 0
    return (2 * numer) // denom


def test_mult_matches_value_object_route():
    """A cold tuple kernel against the value-object recursion: ell 2..5,
    level 1..4, two weights each, every beta of height at most 7."""
    rng = random.Random(7)
    _mult.cache_clear()
    straightened = {"none": 0, "zero": 0}
    for ell in range(2, 6):
        betas = [coeffs for coeffs in product(range(8), repeat=ell + 1) if sum(coeffs) <= 7]
        for level in range(1, 5):
            charges = (sorted(rng.randint(0, ell) for _ in range(level)), [ell] * level)
            for weight in (DominantWeight.from_charges(c, ell) for c in charges):
                for coeffs in betas:
                    assert _multiplicity(weight.m, coeffs) == reference_mult(weight.m, coeffs), (
                        weight.m, coeffs)
                    result = reference_straighten(weight, RootVector(coeffs))[0]
                    if result is None:
                        straightened["none"] += 1
                    elif result.is_zero():
                        straightened["zero"] += 1
    assert straightened["none"] > 0 and straightened["zero"] > 0


def pool_cases(ells, max_height, commands=("simples",)):
    """The distinct (m, beta) of the blocks pool's queries of ``commands`` at
    the ranks ``ells`` with beta of height at most ``max_height``."""
    pool = golden("blocks")
    queries = [query for slot in pool["slots"] for variant in slot["variants"]
               for query in variant] + pool["fixed"]
    cases = set()
    for text, _, _ in queries:
        words = text.split()
        if words[0] not in commands:
            continue
        args = dict(zip(words[1::2], words[2::2]))
        ell = int(args["--ell"])
        beta = tuple(int(c) for c in args["--beta"].split(","))
        if ell in ells and sum(beta) <= max_height:
            charges = [int(c) for c in args["--weight"].split(",")]
            cases.add((DominantWeight.from_charges(charges, ell).m, beta))
    return sorted(cases)


def test_mult_matches_value_object_route_at_the_pool_ranks():
    """A cold tuple kernel against the value-object recursion on the blocks
    pool's ``simples`` queries at ell 6..8, where the stabilizers W_J of the
    orbit sum are largest: up to height 9, and up to height 10 at ell 8
    (about 2 s; height 10 at ell 6 and 7 would add about 3 s)."""
    cases = pool_cases({6, 7}, 9) + pool_cases({8}, 10)
    assert len(cases) == 480
    _mult.cache_clear()
    nonzero = 0
    for m, beta in cases:
        value = _multiplicity(m, beta)
        assert value == reference_mult(m, beta), (m, beta)
        nonzero += value > 0
    assert nonzero == len(cases)  # every pool query lies in the weight system


def test_root_table_rows_match_the_move_table_route():
    """The root table, rebuilt from the move increments of the reference move
    table (each the minimal solution of A.d = -Δm, one per first-layer root),
    in lexicographic order and then delta of multiplicity ell: A.gamma by
    ``apply_matrix``, (gamma, gamma) from d, and the three masks a bit at a
    time.  Row for row, in order, for ell 2..16."""
    for ell in range(2, 17):
        datum = cartan(ell)
        layer = sorted(move.delta.coeffs for move in move_table(ell).values())
        rows = []
        for gamma, root_mult in [(gamma, 1) for gamma in layer] + [(datum.delta_coeffs, ell)]:
            ag = datum.apply_matrix(gamma)
            aa = sum(g * d * a for g, d, a in zip(gamma, datum.d, ag))
            neg = zero = supp = 0
            for j in range(ell + 1):
                neg |= (ag[j] < 0) << j
                zero |= (ag[j] == 0) << j
                supp |= (gamma[j] != 0) << j
            rows.append((gamma, root_mult, ag, aa, neg, zero, supp))
        assert rows == list(_root_table(ell)), ell


def test_orbit_weights_match_breadth_first_orbits():
    """For ell 2..6 and every proper subset J of I, each root-table row whose
    root gamma is J-dominant stands for a W_J-orbit of the size the orbit sum
    weights it by, |W_J|/|W_J'|, and is that orbit's one J-dominant member.
    The orbit holds -gamma exactly when supp gamma lies in J, the Delta_J
    rows whose terms count half."""
    rows = 0
    for ell in range(2, 7):
        matrix = cartan(ell).matrix
        for jmask in range((1 << ell + 1) - 1):
            J = [j for j in range(ell + 1) if jmask >> j & 1]
            for gamma, _, _, _, neg, zero, supp in _root_table(ell):
                pairs = [sum(a * c for a, c in zip(matrix[j], gamma)) for j in J]
                assert (not neg & jmask) == all(p >= 0 for p in pairs)
                if neg & jmask:
                    continue
                orbit = stabilizer_orbit(ell, J, gamma)
                assert len(orbit) == _weyl_order(ell, jmask) // _weyl_order(ell, zero & jmask)
                dominant = [x for x in orbit
                            if all(sum(a * c for a, c in zip(matrix[j], x)) >= 0 for j in J)]
                assert dominant == [gamma], (ell, J, gamma)
                assert (tuple(-c for c in gamma) in orbit) == (not supp & ~jmask)
                rows += 1
    assert rows == 4862 + 243  # the real rows, and the imaginary row once per J


def test_positive_roots_within_matches_value_object_route():
    rng = random.Random(3)
    for ell in range(2, 7):
        delta = cartan(ell).delta_coeffs
        bounds = [tuple(t * c for c in delta) for t in range(4)]
        bounds += [tuple(rng.randint(0, 6) for _ in range(ell + 1)) for _ in range(40)]
        for bound in bounds:
            assert positive_roots_within(ell, bound) == reference_roots_within(ell, bound)


def test_straightening_matches_value_object_route():
    rng = random.Random(17)
    for _ in range(600):
        ell = rng.randint(2, 6)
        level = rng.randint(1, 4)
        weight = DominantWeight.from_charges([rng.randint(0, ell) for _ in range(level)], ell)
        beta = RootVector(tuple(rng.randint(0, 5) for _ in range(ell + 1)))
        result, word = reference_straighten(weight, beta)
        assert dominantify(weight, beta) == result
        assert reflection_word(weight, beta) == (word if result is not None else None)
    with pytest.raises(ValueError, match="rank mismatch"):
        dominantify(W(1, 0, 0), R(0, 0, 0, 0))
    with pytest.raises(ValueError, match="level must be at least 1"):
        dominantify(W(0, 0, 0), R(1, 0, 0))


def test_straightening_from_a_given_hub():
    """``_straighten`` started from the hub the caller has gives the vector
    and the word it gives from the band of A, and leaves the given hub as it
    was: for every beta of the blocks pool, and for random beta at ell 2..8.
    ``dominantify`` and ``reflection_word`` give what the value-object route
    gives."""
    rng = random.Random(29)
    cases = pool_cases(range(2, 17), float("inf"), ("classify", "simples", "defect"))
    assert len(cases) > 2000
    for _ in range(1500):
        ell = rng.randint(2, 8)
        weight = DominantWeight.from_charges([rng.randint(0, ell)
                                              for _ in range(rng.randint(1, 5))], ell)
        cases.append((weight.m, tuple(rng.randint(0, 6) for _ in range(ell + 1))))
    for m, x in cases:
        hub = list(map(sub, m, cartan(len(m) - 1).apply_matrix(x)))
        given = list(hub)
        assert _straighten(m, x, given) == _straighten(m, x), (m, x)
        assert given == hub
        weight, beta = DominantWeight(m), RootVector(x)
        result, word = reference_straighten(weight, beta)
        assert dominantify(weight, beta) == result
        assert reflection_word(weight, beta) == (word if result is not None else None)


# Heights far beyond the default cap: the sums run from a worklist, so
# neither time nor stack depth climbs with the height as recursion did.
HEIGHT_320_BUDGET_S = 2


def test_height_280_gives_the_recursive_answer():
    """The value the recursive evaluation gives, checked with an unbounded
    cache and a raised stack."""
    _mult.cache_clear()
    assert weight_multiplicity(W(1, 0, 0), R(70, 140, 70), max_height=280) == 161359833328


def test_height_320_answers_within_budget(capsys):
    _mult.cache_clear()
    start = time.perf_counter()
    code = main(["simples", "--ell", "2", "--m", "1,0,0", "--beta", "80,160,80",
                 "--max-n", "100000"])
    elapsed = time.perf_counter() - start
    assert (code, capsys.readouterr()) == (0, ("1428969357581\n", ""))
    assert elapsed < HEIGHT_320_BUDGET_S


def test_deep_query_runs_a_few_frames_deep():
    """On a cold cache, a height-320 query answers with the recursion limit
    a few dozen frames above the caller's own depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    _mult.cache_clear()
    sys.setrecursionlimit(depth + 40)
    try:
        value = weight_multiplicity(W(1, 0, 0), R(80, 160, 80), max_height=320)
    finally:
        sys.setrecursionlimit(limit)
    assert value == 1428969357581


def exact_rank(rows):
    """Rank of an integer matrix by Gaussian elimination over the rationals."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_counts_match_fock_rank():
    """The number of simples at beta is dim V(Lambda)_{Lambda-beta}, which is the
    rank at q=1 of the expansions f_nu of the vacuum over all residue
    sequences nu of content beta (categorification with the type C Fock space)."""
    rng = random.Random(1)
    cases = multiple = 0
    for ell in (2, 3):
        for level in (1, 2, 3):
            for _ in range(12):
                charges = sorted(rng.randint(0, ell) for _ in range(level))
                weight = DominantWeight.from_charges(charges, ell)
                shape = Multipartition.empty(level)
                counts = [0] * (ell + 1)
                for _ in range(rng.randint(2, 6)):
                    node = rng.choice(shape.addable_nodes())
                    counts[residue(charges, node, ell)] += 1
                    shape = add_node(shape, node)
                letters = [i for i, c in enumerate(counts) for _ in range(c)]
                vectors = [dict(expand(weight, [(r, 1) for r in reversed(nu)]).terms)
                           for nu in sorted(set(permutations(letters)))]
                shapes = sorted({mp for v in vectors for mp in v}, key=Multipartition.sort_key)
                rank = exact_rank([[evaluate(v[mp], 1) if mp in v else 0 for mp in shapes]
                                   for v in vectors])
                count = weight_multiplicity(weight, RootVector(tuple(counts)))
                assert rank == count, (ell, charges, counts)
                cases += 1
                multiple += count >= 2
    assert cases == 72
    assert multiple >= 40


def check_layered_fock_ranks(m, height):
    """The layered Fock rank equals ``weight_multiplicity`` at every beta of
    height at most ``height``, zero where the oracle finds no word; returns
    the largest rank met."""
    weight = DominantWeight(m)
    ranks = fock_ranks(weight, height)
    ell = weight.ell
    # beta's entries are the gaps between ell + 1 bars among height + ell + 1 places
    for bars in combinations(range(height + ell + 1), ell + 1):
        beta = tuple(b - a - 1 for a, b in zip((-1,) + bars, bars))
        count = weight_multiplicity(weight, RootVector(beta))
        assert ranks.get(beta, 0) == count, (m, beta)
    return max(ranks.values())


def layered_sweep(heights):
    """``check_layered_fock_ranks`` for every weight of level 1..3 at each
    rank ell of ``heights``, up to the height it maps ell to; returns the
    largest rank met."""
    return max(check_layered_fock_ranks(m, height)
               for ell, height in heights.items()
               for m in product(range(4), repeat=ell + 1) if 1 <= sum(m) <= 3)


def test_counts_match_layered_fock_rank():
    """The simples count at every beta up to a height, for every weight of
    level 1..3 at ell 2..4, is the rank of the Fock space's weight space at
    q=1, built a height at a time (``reference.fock_ranks``)."""
    assert layered_sweep({2: 7, 3: 6, 4: 5}) >= 20


@pytest.mark.deep
def test_counts_match_layered_fock_rank_deep():
    """The layered Fock rank at greater heights, and at levels 4 and 5 and
    ranks 5 and 6 for a few weights, with multiplicities up to 96."""
    largest = max(layered_sweep({2: 9, 3: 8, 4: 6}),
                  *(check_layered_fock_ranks(m, height) for m, height in
                    (((1, 1, 1, 1, 1), 8), ((2, 2, 1), 8), ((1, 0, 2, 0, 1, 0, 1), 7),
                     ((2, 0, 0, 0, 0, 0, 2), 8))))
    assert largest == 96
