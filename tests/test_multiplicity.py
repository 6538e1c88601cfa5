import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from klrc.cartan import DominantWeight, GuardError, RootVector, hub
from klrc.fock import Multipartition, expand, residue
from klrc.maxweights import beta_of, class_members, dominantify
from klrc.multiplicity import (_mult, finite_positive_roots, first_layer_roots,
                               weight_multiplicity)


def W(*m):
    return DominantWeight(tuple(m))


def R(*x):
    return RootVector(tuple(x))


def test_finite_root_count():
    # type C rank ell has 2*ell^2 roots, half positive
    for ell in (2, 3, 4):
        assert len(finite_positive_roots(ell)) == ell * ell
        assert len(first_layer_roots(ell)) == 2 * ell * ell


def test_first_layer_contents():
    layer = {r.coeffs for r in first_layer_roots(2)}
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
                == weight_multiplicity(weight.sigma(), beta.sigma()))


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


def test_multiplicity_cache_is_bounded():
    """The Freudenthal cache cannot grow without bound in a long-lived process."""
    assert _mult.cache_info().maxsize is not None


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
                    shape = shape.add_node(node)
                letters = [i for i, c in enumerate(counts) for _ in range(c)]
                vectors = [dict(expand(weight, [(r, 1) for r in reversed(nu)]).terms)
                           for nu in sorted(set(permutations(letters)))]
                shapes = sorted({mp for v in vectors for mp in v}, key=Multipartition.sort_key)
                rank = exact_rank([[v[mp].evaluate(1) if mp in v else 0 for mp in shapes]
                                   for v in vectors])
                count = weight_multiplicity(weight, RootVector(tuple(counts)))
                assert rank == count, (ell, charges, counts)
                cases += 1
                multiple += count >= 2
    assert cases == 72
    assert multiple >= 40
