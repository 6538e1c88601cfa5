import random

import pytest

from klrc.cartan import DominantWeight, GuardError, RootVector
from klrc.laurent import LaurentPolynomial
from klrc.fock import content_vector
from klrc.tableaux import (Multipartition, graded_hom_dim, graded_hom_dim_block, kostka_q,
                           multipartitions, residue)
from reference import StdTableau, degree, evaluate, standard_tableaux


def poly(*pairs):
    return LaurentPolynomial(dict(pairs))


def W(*m):
    return DominantWeight(tuple(m))


def R(*x):
    return RootVector(tuple(x))


def test_residue():
    assert residue((0,), (1, 1, 1), 2) == 0
    assert residue((0, 1), (1, 1, 4), 2) == 1
    assert residue((0, 1), (2, 1, 2), 2) == 2
    assert residue((0, 1), (2, 2, 1), 2) == 0


def test_multipartition_nodes():
    mp = Multipartition(((2, 1), (1,)))
    assert mp.size == 4
    assert set(mp.removable_nodes()) == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}
    assert set(mp.addable_nodes()) == {(1, 1, 3), (1, 2, 2), (1, 3, 1), (2, 1, 2), (2, 2, 1)}
    grown = mp.add_node((2, 2, 1))
    assert grown.components == ((2, 1), (1, 1))
    assert grown.remove_node((2, 2, 1)) == mp


def test_degree_chain_values():
    # the single-row bipartition with residues 0,1,2,1 has degree 4
    shape = Multipartition(((4,), ()))
    tableau = StdTableau(shape, ((1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 1, 4)))
    assert tableau.residue_sequence((0, 1), 2) == (0, 1, 2, 1)
    assert degree((0, 1), tableau, 2) == 4
    # the chain through the second component has degree 0
    shape = Multipartition(((1,), (3,)))
    tableau = StdTableau(shape, ((1, 1, 1), (2, 1, 1), (2, 1, 2), (2, 1, 3)))
    assert tableau.residue_sequence((0, 1), 2) == (0, 1, 2, 1)
    assert degree((0, 1), tableau, 2) == 0
    empty = StdTableau(Multipartition(((), ())), ())
    assert degree((0, 1), empty, 2) == 0


def test_kostka_values():
    assert kostka_q((0, 1), (0, 1, 2, 1), Multipartition(((4,), ())), 2) == poly((4, 1))
    assert kostka_q((0, 1), (0, 1, 2, 1), Multipartition(((1,), (3,))), 2) == poly((0, 1))
    assert kostka_q((0, 1), (0, 1, 1, 1), Multipartition(((4,), ())), 2).is_zero()
    assert kostka_q((0, 1), (0, 1), Multipartition(((4,), ())), 2).is_zero()


# exact reference values for graded dimensions of idempotent truncations
GOLDEN_DIMS = [
    # (m, beta, nu, nu', value)
    ((1, 1, 0), (1, 2, 1), (0, 1, 2, 1), None, poly((0, 1), (2, 2), (4, 3), (6, 2), (8, 1))),
    ((2, 0, 0), (1, 2, 1), (0, 1, 2, 1), None, poly((0, 1), (2, 2), (4, 2), (6, 2), (8, 1))),
    ((0, 2, 0), (1, 2, 1), (1, 2, 1, 0), None, poly((0, 1), (2, 2), (4, 2), (6, 2), (8, 1))),
    ((0, 2, 0), (1, 2, 1), (1, 2, 1, 0), (1, 2, 0, 1), poly((2, 1), (4, 2), (6, 1))),
    ((1, 1, 0), (1, 2, 1), (1, 2, 0, 1), None, poly((0, 1), (2, 1), (4, 2), (6, 1), (8, 1))),
    ((1, 1, 0), (1, 2, 1), (0, 1, 2, 1), (1, 2, 0, 1), poly((2, 1), (4, 1), (6, 1))),
    ((1, 0, 1), (1, 2, 1), (2, 1, 0, 1), None, poly((0, 1), (2, 3), (4, 4), (6, 3), (8, 1))),
    # the tame pattern at the top end of the diagram, rank 3
    ((0, 0, 2, 0), (0, 0, 2, 1), (2, 3, 2), None, poly((0, 1), (2, 2), (4, 1))),
    ((0, 0, 2, 0), (0, 0, 2, 1), (2, 2, 3), None,
     poly((-2, 1), (0, 2), (2, 2), (4, 2), (6, 1))),
    ((0, 0, 2, 0), (0, 0, 2, 1), (2, 3, 2), (2, 2, 3), poly((0, 1), (2, 2), (4, 1))),
    # local truncation forcing three loops, rank 3
    ((0, 0, 2, 0), (0, 1, 2, 1), (2, 3, 2, 1), None, poly((0, 1), (2, 3), (4, 3), (6, 1))),
    # two-box blocks at the affine node, level 3
    ((2, 1, 0, 0), (1, 1, 0, 0), (0, 1), None, poly((0, 1), (2, 1), (4, 2), (6, 1), (8, 1))),
    ((2, 1, 0, 0), (1, 1, 0, 0), (1, 0), None, poly((0, 1), (4, 1), (8, 1))),
    ((2, 1, 0, 0), (1, 1, 0, 0), (0, 1), (1, 0), poly((2, 1), (6, 1))),
    ((3, 0, 0, 0), (2, 1, 0, 0), (0, 1, 0), None,
     poly((0, 1), (2, 1), (4, 2), (6, 2), (8, 2), (10, 2), (12, 1), (14, 1))),
    ((2, 2, 0, 0), (1, 1, 0, 0), (1, 0), None,
     poly((0, 1), (2, 1), (4, 1), (6, 1), (8, 1), (10, 1))),
    # rank 4 wild witness with two idempotents
    ((2, 0, 0, 0, 0), (2, 2, 1, 0, 0), (0, 1, 2, 0, 1), None,
     poly((0, 1), (2, 2), (4, 3), (6, 3), (8, 2), (10, 1))),
    ((2, 0, 0, 0, 0), (2, 2, 1, 0, 0), (0, 1, 2, 1, 0), None,
     poly((0, 1), (2, 1), (4, 2), (6, 2), (8, 1), (10, 1))),
    ((2, 0, 0, 0, 0), (2, 2, 1, 0, 0), (0, 1, 2, 0, 1), (0, 1, 2, 1, 0),
     poly((2, 1), (4, 1), (6, 1), (8, 1))),
]


@pytest.mark.parametrize("m,beta,nu,nu2,value", GOLDEN_DIMS)
def test_graded_hom_dim_golden(m, beta, nu, nu2, value):
    assert graded_hom_dim(DominantWeight(m), RootVector(beta), nu, nu2) == value


def _tableau_dim(weight, beta, nu, nu2):
    """The reference route: sum of K(nu, shape) K(nu2, shape) over every multipartition."""
    total = LaurentPolynomial.zero()
    for shape in multipartitions(beta.height, weight.level):
        total = total + (kostka_q(weight.charges, nu, shape, weight.ell)
                         * kostka_q(weight.charges, nu2, shape, weight.ell))
    return total


def test_block_sum():
    w, beta = W(0, 2, 0), R(1, 2, 1)
    nus = [(1, 2, 1, 0), (1, 2, 0, 1)]
    total = graded_hom_dim_block(w, beta, nus)
    expected = sum((graded_hom_dim(w, beta, a, b) for a in nus for b in nus),
                   LaurentPolynomial.zero())
    assert total == expected
    # two different lists of different lengths, against the pairwise reference sum
    w, beta = W(1, 1, 0), R(1, 2, 1)
    nus, nus2 = [(0, 1, 2, 1), (1, 2, 0, 1)], [(1, 0, 1, 2), (0, 1, 2, 1), (1, 2, 1, 0)]
    expected = sum((_tableau_dim(w, beta, a, b) for a in nus for b in nus2),
                   LaurentPolynomial.zero())
    assert not expected.is_zero()
    assert graded_hom_dim_block(w, beta, nus, nus2) == expected


# The guard edge (12 boxes, 5 components) at rank 4, charges 0,0,1,2,3.  The
# coefficients of q^-26, q^-24, ..., q^42 were computed once, outside the
# suite, by the tableau reference route (_tableau_dim: kostka_q over all
# 5-component multipartitions of 12, about 10 s).
GUARD_EDGE_COEFFS = (
    2, 11, 39, 107, 247, 503, 926, 1570, 2478, 3672, 5140, 6828, 8640, 10441, 12075, 13383,
    14229, 14522, 14229, 13383, 12075, 10441, 8640, 6828, 5140, 3672, 2478, 1570, 926, 503,
    247, 107, 39, 11, 2)


def test_guard_edge_value():
    value = graded_hom_dim(W(2, 1, 1, 1, 0), R(4, 3, 3, 1, 1),
                           (2, 1, 1, 3, 2, 0, 0, 0, 0, 1, 2, 4))
    assert value == LaurentPolynomial(dict(zip(range(-26, 43, 2), GUARD_EDGE_COEFFS)))


def test_content_mismatch_rejected():
    with pytest.raises(ValueError):
        graded_hom_dim(W(2, 0, 0), R(1, 2, 1), (0, 1, 1, 1))
    with pytest.raises(ValueError):
        graded_hom_dim(W(2, 0, 0), R(1, 2, 1), (0, 1, 2, 1), (0, 2, 2, 1))


def test_guards():
    with pytest.raises(GuardError):
        graded_hom_dim(W(2, 0, 0), R(5, 10, 5), (0,) * 20, max_n=12)
    with pytest.raises(GuardError):
        graded_hom_dim(W(6, 0, 0), R(1, 1, 0), (0, 1))


def _random_instance(rng, max_k=3, max_n=6):
    ell = rng.randint(2, 4)
    k = rng.randint(1, max_k)
    charges = sorted(rng.randint(0, ell) for _ in range(k))
    weight = DominantWeight.from_charges(charges, ell)
    n = rng.randint(1, max_n)
    # grow a random multipartition to guarantee a nonempty block
    shape = Multipartition.empty(k)
    for _ in range(n):
        shape = shape.add_node(rng.choice(shape.addable_nodes()))
    beta = content_vector(charges, shape, ell)
    tableau = rng.choice(list(standard_tableaux(shape)))
    nu = tableau.residue_sequence(charges, ell)
    other = rng.choice(list(standard_tableaux(shape)))
    nu2 = other.residue_sequence(charges, ell)
    return weight, beta, nu, nu2


def test_charge_order_invariance_and_symmetry():
    rng = random.Random(99)
    for _ in range(200):
        weight, beta, nu, nu2 = _random_instance(rng)
        base = graded_hom_dim(weight, beta, nu, nu2)
        assert graded_hom_dim(weight, beta, nu2, nu) == base
        shuffled = list(weight.charges)
        rng.shuffle(shuffled)
        assert graded_hom_dim(weight.with_charges(shuffled), beta, nu, nu2) == base
        assert all(c >= 0 for _, c in base.items())


def test_sigma_invariance():
    rng = random.Random(17)
    for _ in range(200):
        weight, beta, nu, nu2 = _random_instance(rng, max_n=5)
        ell = weight.ell
        flipped = graded_hom_dim(weight.sigma(), beta.sigma(),
                                 tuple(ell - r for r in nu), tuple(ell - r for r in nu2))
        assert flipped == graded_hom_dim(weight, beta, nu, nu2)


def test_q_one_counting_oracle():
    """The value is the tableau reference sum, and at q = 1 the plain filling count."""
    rng = random.Random(3)
    for _ in range(60):
        weight, beta, nu, nu2 = _random_instance(rng, max_n=5)
        dim = graded_hom_dim(weight, beta, nu, nu2)
        assert dim == _tableau_dim(weight, beta, nu, nu2)
        value = evaluate(dim, 1)
        count = 0
        for shape in multipartitions(beta.height, weight.level):
            left = sum(1 for t in standard_tableaux(shape)
                       if t.residue_sequence(weight.charges, weight.ell) == nu)
            right = sum(1 for t in standard_tableaux(shape)
                        if t.residue_sequence(weight.charges, weight.ell) == nu2)
            count += left * right
        assert count == value


def test_tensor_factorization():
    """Blocks split across non-interacting intervals factor as products."""
    rng = random.Random(23)
    checked = 0
    while checked < 200:
        ell = rng.randint(3, 5)
        i = rng.randint(2, ell)  # interval {0} x {i..}; entry a_{0,i} = 0 needs i >= 2
        m = [0] * (ell + 1)
        m[0] = rng.randint(1, 2)
        m[i] = rng.randint(1, 2)
        weight = DominantWeight(tuple(m))
        n1 = rng.randint(1, min(2, 2 * m[0]))
        n2 = rng.randint(1, 2)
        if i == ell and n2 > 1:
            n2 = 1
        beta1 = RootVector(tuple(n1 if t == 0 else 0 for t in range(ell + 1)))
        beta2 = RootVector(tuple(n2 if t == i else 0 for t in range(ell + 1)))
        nu = (0,) * n1 + (i,) * n2
        left = DominantWeight(tuple(m[0] if t == 0 else 0 for t in range(ell + 1)))
        right = DominantWeight(tuple(m[i] if t == i else 0 for t in range(ell + 1)))
        product = (graded_hom_dim(left, beta1, (0,) * n1)
                   * graded_hom_dim(right, beta2, (i,) * n2))
        assert graded_hom_dim(weight, beta1 + beta2, nu) == product
        checked += 1
    # a four-interval style split: alpha_0 + alpha_1 away from the top pair
    ell = 4
    weight = DominantWeight((1, 0, 0, 0, 1))
    beta = RootVector((1, 1, 0, 1, 1))
    nu = (0, 1, 4, 3)
    left = graded_hom_dim(DominantWeight((1, 0, 0, 0, 0)), RootVector((1, 1, 0, 0, 0)), (0, 1))
    right = graded_hom_dim(DominantWeight((0, 0, 0, 0, 1)), RootVector((0, 0, 0, 1, 1)), (4, 3))
    assert graded_hom_dim(weight, beta, nu) == left * right
