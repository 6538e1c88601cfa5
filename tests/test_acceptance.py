"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they pass.
All comparisons are exact; reference data is frozen in the module and in the
per-module golden tables it imports.
"""

import test_classifier
import test_fock
import test_maxweights
import test_quiver
import test_tableaux
from test_maxweights import VECTORS_2L2, VECTORS_L1L2
from test_quiver import ARROWS_2L2, ARROWS_L1L2

from klrc.cartan import DominantWeight, RootVector
from klrc.classifier import RepType, classify
from klrc.fock import expand, hom_dim
from klrc.laurent import LaurentPolynomial
from klrc.maxweights import beta_of
from klrc.multiplicity import weight_multiplicity
from klrc.quiver import build_quiver
from klrc.tableaux import graded_hom_dim
from reference import power, quantum_factorial


def poly(*pairs):
    return LaurentPolynomial(dict(pairs))


def W(*m):
    return DominantWeight(tuple(m))


def R(*x):
    return RootVector(tuple(x))


def _report(number, text):
    print(f"criterion {number}: PASS - {text}")


def test_criterion_1_minimal_solutions():
    for root, table in [((0, 0, 2, 0, 0), VECTORS_2L2), ((0, 1, 1, 0, 0), VECTORS_L1L2)]:
        weight = DominantWeight(root)
        for m, x in table.items():
            assert beta_of(weight, DominantWeight(m)).x.coeffs == x
    _report(1, "all 9 + 6 minimal solution vectors of the two rank-4 classes match")


def test_criterion_2_quiver_structure():
    for root, expected in [((0, 0, 2, 0, 0), ARROWS_2L2), ((0, 1, 1, 0, 0), ARROWS_L1L2)]:
        quiver = build_quiver(DominantWeight(root))
        got = {(a.source.m, a.target.m, a.label) for a in quiver.arrows}
        assert got == expected
    # level-one chains and bifurcating chains up to rank 6
    for ell in range(2, 7):
        for parity in (0, 1):
            test_quiver.test_level_one_bifurcating_chains(ell, parity)
    _report(2, "vertex and labeled-arrow sets match the worked figures; "
               "level-one quivers are the expected chains for rank <= 6")


def test_criterion_3_graded_dimensions():
    checks = [
        # the worked single-block example and the four rank-2 tables
        ((1, 1, 0), (1, 2, 1), (0, 1, 2, 1), None, poly((0, 1), (2, 2), (4, 3), (6, 2), (8, 1))),
        ((2, 0, 0), (1, 2, 1), (0, 1, 2, 1), None, poly((0, 1), (2, 2), (4, 2), (6, 2), (8, 1))),
        ((0, 2, 0), (1, 2, 1), (1, 2, 1, 0), None, poly((0, 1), (2, 2), (4, 2), (6, 2), (8, 1))),
        ((0, 2, 0), (1, 2, 1), (1, 2, 1, 0), (1, 2, 0, 1), poly((2, 1), (4, 2), (6, 1))),
        ((1, 1, 0), (1, 2, 1), (1, 2, 0, 1), None, poly((0, 1), (2, 1), (4, 2), (6, 1), (8, 1))),
        ((1, 1, 0), (1, 2, 1), (0, 1, 2, 1), (1, 2, 0, 1), poly((2, 1), (4, 1), (6, 1))),
        ((1, 0, 1), (1, 2, 1), (2, 1, 0, 1), None, poly((0, 1), (2, 3), (4, 4), (6, 3), (8, 1))),
        # the tame pattern at the top pair of indices and its companions
        ((0, 0, 2, 0), (0, 0, 2, 1), (2, 3, 2), None, poly((0, 1), (2, 2), (4, 1))),
        ((0, 0, 2, 0), (0, 0, 2, 1), (2, 2, 3), None,
         poly((-2, 1), (0, 2), (2, 2), (4, 2), (6, 1))),
        ((0, 0, 2, 0), (0, 0, 2, 1), (2, 3, 2), (2, 2, 3), poly((0, 1), (2, 2), (4, 1))),
        # the three-loop local dimension
        ((0, 0, 2, 0), (0, 1, 2, 1), (2, 3, 2, 1), None, poly((0, 1), (2, 3), (4, 3), (6, 1))),
        # head of the two-box family at the affine end, doubled multiplicity
        ((2, 1, 0, 0), (1, 1, 0, 0), (0, 1), None, poly((0, 1), (2, 1), (4, 2), (6, 1), (8, 1))),
        ((2, 1, 0, 0), (1, 1, 0, 0), (1, 0), None, poly((0, 1), (4, 1), (8, 1))),
        ((2, 1, 0, 0), (1, 1, 0, 0), (0, 1), (1, 0), poly((2, 1), (6, 1))),
    ]
    for m, beta, nu, nu2, value in checks:
        assert graded_hom_dim(DominantWeight(m), RootVector(beta), nu, nu2) == value
    _report(3, f"{len(checks)} printed graded dimensions reproduced exactly")


def test_criterion_4_fock_engine():
    weight = W(2, 1, 0)
    vector = expand(weight, [(1, 2), (0, 1)])
    assert dict(vector.terms) == {
        test_fock.MP((), (1, 1), (1,)): poly((0, 1)),
        test_fock.MP((), (2,), (1,)): poly((1, 1)),
        test_fock.MP((), (2, 1), ()): poly((2, 1)),
        test_fock.MP((1, 1), (), (1,)): poly((2, 1)),
        test_fock.MP((2,), (), (1,)): poly((3, 1)),
        test_fock.MP((2, 1), (), ()): poly((4, 1)),
    }
    base = poly((0, 1), (2, 1), (4, 2), (6, 1), (8, 1))
    full = expand(weight, [(0, 1), (1, 2), (0, 1)])
    assert hom_dim(full, full) == (1 + poly((4, 1))) * base
    higher = W(2, 0, 1, 0)
    word = expand(higher, [(0, 1), (1, 2), (2, 1), (0, 1)])
    assert hom_dim(word, word) == (1 + poly((4, 1))) * base
    word = expand(higher, [(2, 1), (1, 2), (0, 2)])
    assert hom_dim(word, word) == poly((0, 1), (2, 1), (4, 1)) * base
    _report(4, "six-term divided-power expansion and both endomorphism products match")


def test_criterion_5_quantum_factorial_bridge():
    ell, a = 3, 1
    weight = W(0, 2, 0, 0)
    vector = expand(weight, [(3, 1), (2, 2), (1, 2)])
    end = hom_dim(vector, vector)
    assert end == poly((0, 1), (4, 1))
    bridge = end * power(quantum_factorial(2, 1), 2 * (ell - a))
    nu = (1, 1, 2, 2, 3)
    assert bridge == graded_hom_dim(weight, R(0, 2, 2, 1), nu)
    _report(5, "endomorphism dimension times (q+q^-1)^(2(l-a)) equals the idempotent dimension")


def test_criterion_6_multiplicities():
    assert weight_multiplicity(W(0, 0, 2, 0), R(0, 0, 2, 1)) == 2
    assert weight_multiplicity(W(0, 0, 2, 1), R(0, 0, 2, 1)) == 3
    for j in (2, 3):
        m = [0] * 5
        m[0], m[j] = 3, 1
        x = [0] * 5
        x[0] = 2
        for t in range(1, j + 1):
            x[t] = 1
        assert weight_multiplicity(DominantWeight(tuple(m)), RootVector(tuple(x))) == j + 1
    _report(6, "simple-module counts 2, 3 and j+1 reproduced")


def test_criterion_7_classifier():
    for ell in (3, 4, 5):
        test_classifier.test_level_two_oracle(ell)
    test_classifier.test_every_tag_instantiates()
    test_classifier.test_non_maximal_family_is_wild()
    for m, x in test_classifier.WILD_INSTANCES:
        assert classify(DominantWeight(m), RootVector(x)).rep_type == RepType.WILD
    _report(7, "level-two tables, all 27 case instantiations, the non-maximal family "
               "and the named wild instances agree")


def test_criterion_8_defects():
    test_classifier.test_matched_defects_follow_the_list()
    _report(8, "defects match the published list on every case instance at rank 5")


def test_criterion_9_property_suites():
    test_maxweights.test_minimal_solution_uniqueness_brute_force()
    test_tableaux.test_charge_order_invariance_and_symmetry()
    test_fock.test_exhaustive_kostka_consistency_rank_two()
    test_tableaux.test_sigma_invariance()
    test_classifier.test_sigma_invariance_random()
    import test_multiplicity
    test_multiplicity.test_sigma_invariance()
    test_quiver.test_quiver_properties_small_ranks()
    test_tableaux.test_tensor_factorization()
    _report(9, "uniqueness, charge-order, tableau-coefficient, diagram-flip, witness, "
               "reachability and tensor-factorization suites all pass")
