import random
import tracemalloc
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import fock_reference as reference
from klrc.cartan import DominantWeight, GuardError, RootVector
from klrc.fock import (FockVector, apply_divided_f, apply_f, expand, hom_dim, parse_word,
                       residue, word_content)
from klrc.laurent import LaurentPolynomial
from klrc.tableaux import Multipartition, kostka_q, multipartitions, graded_hom_dim, node_degree
from reference import (add_node, bead_masks, evaluate, is_bar_symmetric_about, power,
                       quantum_factorial, residue_word, shift)


def poly(*pairs):
    return LaurentPolynomial(dict(pairs))


def W(*m):
    return DominantWeight(tuple(m))


def MP(*comps):
    return Multipartition(tuple(comps))


def test_single_step_golden():
    vector = apply_f(FockVector.vacuum(W(2, 1, 0)), 0)
    assert dict(vector.terms) == {
        MP((), (1,), ()): poly((0, 1)),
        MP((1,), (), ()): poly((2, 1)),
    }


def test_divided_square_golden():
    """The six-term expansion applying the squared step after one box."""
    vector = expand(W(2, 1, 0), [(1, 2), (0, 1)])
    assert dict(vector.terms) == {
        MP((), (1, 1), (1,)): poly((0, 1)),
        MP((), (2,), (1,)): poly((1, 1)),
        MP((), (2, 1), ()): poly((2, 1)),
        MP((1, 1), (), (1,)): poly((2, 1)),
        MP((2,), (), (1,)): poly((3, 1)),
        MP((2, 1), (), ()): poly((4, 1)),
    }


def test_no_addable_node_gives_zero():
    vector = expand(W(1, 0, 0), [(2, 1)])
    assert vector.is_zero()


def test_empty_word():
    vector = expand(W(1, 1, 0), [])
    assert dict(vector.terms) == {MP((), ()): LaurentPolynomial.one()}


def test_twelve_term_word():
    vector = expand(W(2, 1, 0), [(0, 1), (1, 2), (0, 1)])
    assert len(vector.terms) == 12
    assert hom_dim(vector, vector) == (1 + poly((4, 1))) * poly((0, 1), (2, 1), (4, 2), (6, 1), (8, 1))


def test_level_two_row_expansions():
    """Row-shaped expansions at level two, rank 3."""
    weight = W(0, 2, 0, 0)
    vector = expand(weight, [(3, 1), (2, 2), (1, 2)])
    assert dict(vector.terms) == {MP((2,), (3,)): poly((0, 1)), MP((3,), (2,)): poly((2, 1))}
    longer = expand(weight, [(2, 1), (1, 1), (3, 1), (2, 1), (1, 1)])
    assert dict(longer.terms) == {
        MP((1,), (4,)): poly((0, 1)),
        MP((2,), (3,)): poly((1, 1)),
        MP((3,), (2,)): poly((1, 1)),
        MP((4,), (1,)): poly((2, 1)),
    }


HOM_GOLDEN = [
    # (m, words, pairs of (i, j, value))
    ((0, 2, 0, 0),
     [[(3, 1), (2, 2), (1, 2)], [(2, 1), (1, 1), (3, 1), (2, 1), (1, 1)],
      [(1, 1), (2, 1), (3, 1), (2, 1), (1, 1)]],
     [(0, 0, poly((0, 1), (4, 1))), (1, 1, poly((0, 1), (2, 2), (4, 1))),
      (2, 2, poly((0, 1), (2, 2), (4, 1))), (1, 2, poly((1, 1), (3, 1))),
      (0, 1, poly((1, 1), (3, 1))), (0, 2, LaurentPolynomial.zero())]),
    ((0, 0, 3, 0),
     [[(2, 1), (3, 1), (2, 1)], [(3, 1), (2, 2)]],
     [(0, 0, poly((0, 1), (2, 2), (4, 3), (6, 2), (8, 1))),
      (0, 1, poly((1, 1), (3, 2), (5, 2), (7, 1))),
      (1, 1, poly((0, 1), (2, 1), (4, 2), (6, 1), (8, 1)))]),
    ((2, 0, 0, 0),
     [[(1, 2), (0, 2)], [(0, 1), (1, 2), (0, 1)]],
     [(0, 0, poly((0, 1), (2, 1), (4, 2), (6, 1), (8, 1))),
      (1, 1, poly((0, 1), (4, 2), (8, 1))),
      (0, 1, poly((2, 1), (6, 1)))]),
    ((2, 0, 1, 0),
     [[(2, 1), (1, 2), (0, 2)], [(1, 2), (2, 1), (0, 2)]],
     [(0, 0, poly((0, 1), (2, 2), (4, 4), (6, 4), (8, 4), (10, 2), (12, 1))),
      (1, 1, poly((0, 1), (2, 1), (4, 2), (6, 2), (8, 2), (10, 1), (12, 1))),
      (0, 1, poly((2, 1), (4, 1), (6, 2), (8, 1), (10, 1)))]),
    # level-four families around a tripled affine multiplicity
    ((3, 1, 0, 0),
     [[(1, 1), (0, 2)], [(0, 2), (1, 1)]],
     [(0, 0, poly((0, 1), (2, 1), (4, 2), (6, 2), (8, 3), (10, 2), (12, 2), (14, 1), (16, 1))),
      (1, 1, poly((0, 1), (4, 1), (8, 2), (12, 1), (16, 1))),
      (0, 1, poly((4, 1), (8, 1), (12, 1)))]),
    ((3, 0, 1, 0),
     [[(2, 1), (1, 1), (0, 2)]],
     [(0, 0, poly((0, 1), (2, 2), (4, 3), (6, 4), (8, 4), (10, 4), (12, 3), (14, 2), (16, 1)))]),
    ((1, 2, 0, 0),
     [[(1, 2), (0, 2), (1, 1)]],
     [(0, 0, poly((0, 1), (2, 2), (4, 3), (6, 3), (8, 2), (10, 1)))]),
    # doubled affine end with two more charges, rank 4
    ((2, 0, 1, 1, 0),
     [[(1, 2), (2, 2), (0, 2), (3, 1)], [(0, 2), (1, 2), (2, 2), (3, 1)]],
     [(0, 0, poly((0, 1), (2, 1), (4, 2), (6, 2), (8, 3), (10, 2), (12, 2), (14, 1), (16, 1))),
      (1, 1, poly((0, 1), (4, 1), (8, 2), (12, 1), (16, 1))),
      (0, 1, poly((8, 1)))]),
]


PRODUCT_GOLDEN = [
    # (m, word, factors of dim_q End as coefficient lists)
    ((1, 0, 0, 3, 0, 0), [(2, 1), (1, 1), (0, 1), (3, 2)],
     [poly((0, 1), (2, 1), (4, 1)), poly((0, 1), (2, 2), (4, 2), (6, 1))]),
    ((1, 1, 1, 0, 0), [(1, 1), (2, 1), (1, 1), (3, 1), (2, 1), (0, 1)],
     [poly((0, 1), (2, 1)), poly((0, 1), (2, 1), (4, 2), (6, 1), (8, 1))]),
    # deeper words over a doubled affine end
    ((2, 0, 1, 0, 0), [(0, 1), (1, 3), (0, 2), (2, 1), (1, 1), (3, 1), (2, 1)],
     [poly((0, 1), (4, 1)), poly((0, 1), (2, 1), (4, 1), (6, 1)),
      poly((0, 1), (4, 1), (8, 1))]),
    ((2, 0, 0, 1, 0), [(2, 1), (1, 2), (3, 1), (4, 1), (3, 1), (0, 2)],
     [poly((0, 1), (2, 1), (4, 2), (6, 1), (8, 1)), poly((0, 1), (2, 1), (4, 1), (6, 1))]),
    ((2, 0, 1, 0), [(2, 2), (0, 1), (1, 4), (0, 2)],
     [poly((0, 1), (2, 1), (4, 3), (6, 3), (8, 4), (10, 3), (12, 3), (14, 1), (16, 1))]),
]


@pytest.mark.parametrize("m,word,factors", PRODUCT_GOLDEN)
def test_end_factors_as_product(m, word, factors):
    vector = expand(DominantWeight(m), word)
    product = LaurentPolynomial.one()
    for f in factors:
        product = product * f
    assert hom_dim(vector, vector) == product


@pytest.mark.parametrize("m,words,pairs", HOM_GOLDEN)
def test_hom_dim_golden(m, words, pairs):
    weight = DominantWeight(m)
    vectors = [expand(weight, word) for word in words]
    for i, j, value in pairs:
        assert hom_dim(vectors[i], vectors[j]) == value


def test_end_products_of_second_neighbors():
    base = poly((0, 1), (2, 1), (4, 2), (6, 1), (8, 1))
    weight = W(2, 0, 1, 0)
    vector = expand(weight, [(0, 1), (1, 2), (2, 1), (0, 1)])
    assert hom_dim(vector, vector) == (1 + poly((4, 1))) * base
    vector = expand(weight, [(2, 1), (1, 2), (0, 2)])
    assert hom_dim(vector, vector) == poly((0, 1), (2, 1), (4, 1)) * base


def test_hom_dim_mismatch_rejected():
    w = W(1, 1, 0)
    with pytest.raises(ValueError):
        hom_dim(expand(w, [(0, 1)]), expand(w, [(1, 1)]))
    with pytest.raises(ValueError):
        hom_dim(expand(w, [(0, 1)]), expand(W(2, 0, 0), [(0, 1)]))


def test_hom_dim_q_one_is_sum_of_squares():
    vector = expand(W(2, 1, 0), [(0, 1), (1, 2), (0, 1)])
    total = sum(evaluate(c, 1) ** 2 for _, c in vector.terms)
    assert evaluate(hom_dim(vector, vector), 1) == total


def test_shared_coefficients_count_in_the_width():
    """Four shapes with coefficient 5, packed at width 4, are one distinct
    pair counted 4 times: the End is 4 * 25 = 100, which fits a digit only
    once the count enters the width bound (25 alone gives 5 bits, and 100
    needs 7).  The same vector built by hand is paired as Laurent
    polynomials to the same End."""
    from klrc.fock import _hom, _key

    shapes = [((2,), (), ()), ((1, 1), (), ()), ((), (2,), ()), ((), (), (1, 1))]
    packed = (4, 0, 2, {_key(shape, 2): 5 for shape in shapes})
    assert _hom(packed, packed) == poly((0, 100))
    terms = {MP(*shape): poly((0, 5)) for shape in shapes}
    vector = FockVector.from_dict((0, 0, 0), 2, terms)
    assert hom_dim(vector, vector) == poly((0, 100))
    assert hom_dim(vector, FockVector.from_dict((0, 0, 0), 2, terms)) == poly((0, 100))


def test_multi_digit_coefficients_are_read_mod_the_digit_mask():
    """Eight shapes with coefficient 1 + q, packed at width 2 as 0b101, paired
    with themselves give 8(1 + q)^2 = 8 + 16q + 8q^2.  The width bound reads
    each coefficient's value at q=1 as the packed int mod 2^2 - 1, here 2, so
    the bound 8 * 2 * 2 = 32 widens the digits to 6 bits; read mod 2^2 + 1
    instead, 0b101 would count 0, the width would stay 2, and the sum 200
    would carry into 2q + 3q^3."""
    from klrc.fock import _hom, _key

    shapes = [((2,), (), ()), ((1, 1), (), ()), ((), (2,), ()), ((), (1, 1), ()),
              ((), (), (2,)), ((), (), (1, 1)), ((1,), (1,), ()), ((1,), (), (1,))]
    packed = (2, 0, 2, {_key(shape, 2): 0b101 for shape in shapes})
    assert len(packed[3]) == 8
    assert _hom(packed, packed) == poly((0, 8), (1, 16), (2, 8))


def test_end_bar_symmetry():
    """Self-Hom dimensions are symmetric about their degree midpoint."""
    for m, word in [((2, 1, 0), [(0, 1), (1, 2), (0, 1)]),
                    ((0, 2, 0, 0), [(3, 1), (2, 2), (1, 2)]),
                    ((2, 0, 1, 0), [(2, 1), (1, 2), (0, 2)])]:
        value = hom_dim(expand(DominantWeight(m), word), expand(DominantWeight(m), word))
        mid = (value.min_exponent + value.max_exponent) // 2
        assert is_bar_symmetric_about(value, mid)


def test_exhaustive_kostka_consistency_rank_two():
    """Coefficients of single-power words match the tableau sums, all words n <= 6."""
    weight = DominantWeight.from_charges((0, 1), 2)
    for n in range(1, 7):
        for word in product(range(3), repeat=n):
            vector = expand(weight, [(i, 1) for i in reversed(word)])
            shapes = dict(vector.terms)
            for shape, coeff in shapes.items():
                assert kostka_q((0, 1), word, shape, 2) == coeff
            # zero coefficients stay zero in the tableau sum
            if n <= 4:
                for shape in multipartitions(n, 2):
                    if shape not in shapes:
                        assert kostka_q((0, 1), word, shape, 2).is_zero()


def test_exhaustive_kostka_consistency_level_three():
    weight = DominantWeight.from_charges((0, 0, 1), 2)
    for n in range(1, 5):
        for word in product(range(3), repeat=n):
            vector = expand(weight, [(i, 1) for i in reversed(word)])
            for shape, coeff in vector.terms:
                assert kostka_q((0, 0, 1), word, shape, 2) == coeff


def test_quantum_factorial_bridge_random():
    """Multiplying by the word's quantum factorials recovers the idempotent dims."""
    rng = random.Random(2718)
    for _ in range(60):
        ell = rng.randint(2, 3)
        k = rng.randint(1, 3)
        weight = DominantWeight.from_charges(sorted(rng.randint(0, ell) for _ in range(k)), ell)
        word = []
        total = 0
        while total < 4:
            r = rng.randint(1, 2)
            word.append((rng.randint(0, ell), r))
            total += r
        vector = expand(weight, word)
        if vector.is_zero():
            continue
        factor = LaurentPolynomial.one()
        for i, r in word:
            factor = factor * quantum_factorial(r, 2 if i in (0, ell) else 1)
        nu = residue_word(word)
        direct = graded_hom_dim(weight, word_content(word, ell), nu)
        assert hom_dim(vector, vector) * factor * factor == direct


def test_quantum_factorial_bridge_level_two_instance():
    weight = W(0, 2, 0, 0)
    word = [(3, 1), (2, 2), (1, 2)]
    vector = expand(weight, word)
    end = hom_dim(vector, vector)
    bridge = end * power(quantum_factorial(2, 1), 2) * power(quantum_factorial(2, 1), 2)
    nu = (1, 1, 2, 2, 3)
    assert bridge == graded_hom_dim(weight, RootVector((0, 2, 2, 1)), nu)
    assert end == poly((0, 1), (4, 1))


def test_word_hom_dims_are_charge_order_invariant():
    """A word determines its projective without reference to the charge order,
    so Hom dimensions between expansions must not depend on it."""
    from itertools import permutations

    rng = random.Random(4242)
    for _ in range(80):
        ell = rng.randint(2, 4)
        k = rng.randint(2, 4)
        charges = sorted(rng.randint(0, ell) for _ in range(k))
        word = []
        total = 0
        while total < rng.randint(2, 5):
            r = rng.randint(1, 2)
            word.append((rng.randint(0, ell), r))
            total += r
        base_weight = DominantWeight.from_charges(charges, ell)
        base = hom_dim(expand(base_weight, word), expand(base_weight, word))
        for perm in set(permutations(charges)):
            shuffled = DominantWeight.from_charges(list(perm), ell)
            vector = expand(shuffled, word)
            assert hom_dim(vector, vector) == base


def test_parse_word():
    assert parse_word("0,1^2,0") == ((0, 1), (1, 2), (0, 1))
    assert parse_word("3") == ((3, 1),)
    with pytest.raises(ValueError):
        parse_word("")


def test_render():
    vector = expand(W(2, 1, 0), [(1, 2), (0, 1)])
    text = str(vector)
    assert text.startswith("((0),(1^2),(1))")
    assert "q^2((1^2),(0),(1))" in text
    assert "q^4((2,1),(0),(0))" in text


def reference_step(vector, i):
    """One step by the value-object route: every addable i-node, weighted by
    q to the ``node_degree`` of that node in the grown shape."""
    acc = {}
    for shape, coeff in vector.terms:
        for node in shape.addable_nodes():
            if residue(vector.charges, node, vector.ell) != i:
                continue
            grown = add_node(shape, node)
            weight = coeff * LaurentPolynomial.q(node_degree(vector.charges, grown, node,
                                                             vector.ell))
            acc[grown] = acc.get(grown, LaurentPolynomial.zero()) + weight
    return FockVector.from_dict(vector.charges, vector.ell, acc)


def reference_divided(vector, i, power):
    for _ in range(power):
        vector = reference_step(vector, i)
    factorial = quantum_factorial(power, 2 if i in (0, vector.ell) else 1)
    return FockVector.from_dict(vector.charges, vector.ell,
                                {mp: c.exact_div(factorial) for mp, c in vector.terms})


def grown_word(rng, charges, ell, boxes, top=3, greedy=False):
    """A word of powers 1..top that keeps one tracked multipartition growing,
    so its expansion is nonzero; factors listed leftmost first.  A greedy
    word adds as many nodes as it may at each factor."""
    shape = Multipartition.empty(len(charges))
    factors = []
    while boxes:
        by_residue = {}
        for node in shape.addable_nodes():
            by_residue.setdefault(residue(charges, node, ell), []).append(node)
        i = rng.choice(sorted(by_residue))
        r = min(top, len(by_residue[i]), boxes)
        if not greedy:
            r = rng.randint(1, r)
        for node in rng.sample(by_residue[i], r):
            shape = add_node(shape, node)
        factors.append((i, r))
        boxes -= r
    return factors[::-1]


def signed(vector, rng):
    """The vector with a mix of signs: each coefficient c becomes c, -c or c - 2q*c."""
    return FockVector.from_dict(vector.charges, vector.ell, {
        mp: rng.choice([c, -c, c - 2 * shift(c, 1)]) for mp, c in vector.terms})


def test_step_matches_value_object_route():
    """apply_f, apply_divided_f and expand against the value-object route, for
    every order of each charge sequence, repeated charges included; words of
    up to 14 boxes with powers up to 4, and vectors with negative
    coefficients for the two wrappers."""
    from itertools import permutations

    rng = random.Random(8128)
    repeated = fourth_powers = 0
    for ell in range(2, 7):
        for level in range(1, 5):
            charges = sorted(rng.randint(0, ell) for _ in range(level))
            if level >= 2 and ell % 2:
                charges[1] = charges[0]
            repeated += len(set(charges)) < level
            words = [grown_word(rng, charges, ell, rng.randint(6, 10)),
                     [(rng.randint(0, ell), rng.randint(1, 3)) for _ in range(3)],
                     grown_word(rng, charges, ell, 14 if level < 3 else 12, top=4, greedy=True)]
            fourth_powers += any(power == 4 for _, power in words[2])
            for order in sorted(set(permutations(charges))):
                weight = DominantWeight.from_charges(list(order), ell)
                for n, word in enumerate(words):
                    vector = FockVector.vacuum(weight)
                    for i, power in reversed(word):
                        assert apply_f(vector, i) == reference_step(vector, i)
                        mixed = signed(vector, rng)
                        assert apply_divided_f(mixed, i, power) == reference_divided(
                            mixed, i, power)
                        divided = apply_divided_f(vector, i, power)
                        assert divided == reference_divided(vector, i, power)
                        vector = divided
                    assert expand(weight, word, max_n=14) == vector
                    assert n == 1 or not vector.is_zero()   # the grown words
    assert repeated >= 6
    assert fourth_powers >= 4


def test_word_checked_before_any_step(monkeypatch):
    """Every factor is checked, rightmost first, before the first step runs."""
    import klrc.fock

    def no_step(*args):
        raise AssertionError("a step ran before the word was checked")

    monkeypatch.setattr(klrc.fock, "_step", no_step)
    weight = W(2, 1, 0)
    for word, message in [([(5, 1), (0, 1), (1, 2)], "residue 5 out of range for rank 2"),
                          ([(0, 0), (0, 1)], "power must be at least 1"),
                          ([(-1, 1), (0, 0)], "power must be at least 1"),
                          ([(0, 1), (7, 0)], "power must be at least 1")]:
        with pytest.raises(ValueError, match=message):
            expand(weight, word)


def test_component_cap_runs_before_any_step(monkeypatch):
    """A weight of level three million stores its multiplicities alone, and
    expand refuses its three million components before any step, in a few
    KiB."""
    import klrc.fock

    def no_step(*args):
        raise AssertionError("a step ran before the component cap was checked")

    monkeypatch.setattr(klrc.fock, "_step", no_step)
    tracemalloc.start()
    try:
        with pytest.raises(GuardError, match="^3000000 components exceeds the cap of 5$"):
            expand(W(0, 0, 3_000_000), [(0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_box_cap_defaults_to_twelve():
    """A 13-box word exceeds the default cap of 12 boxes, and expands with
    ``max_n=13``."""
    word = grown_word(random.Random(13), (0, 1), 2, 13)
    weight = DominantWeight.from_charges([0, 1], 2)
    with pytest.raises(GuardError, match="^13 boxes exceeds the cap of 12$"):
        expand(weight, word)
    vector = expand(weight, word, max_n=13)
    assert not vector.is_zero() and vector.content() == word_content(word, 2)


def test_packed_hom_dim_matches_reference_on_signed_vectors():
    rng = random.Random(31)
    weight = W(2, 0, 1, 0)
    left = expand(weight, [(2, 1), (1, 2), (0, 2)])
    right = expand(weight, [(1, 2), (2, 1), (0, 2)])
    for _ in range(20):
        a, b = signed(left, rng), signed(right, rng)
        for x, y in [(a, b), (a, a), (left, b), (a, right)]:
            assert hom_dim(x, y) == reference.hom_dim(x, y)


def test_hom_dim_of_two_engine_vectors_is_one_packed_hom(monkeypatch):
    """Two engine vectors are paired in one ``_hom`` call; with a vector
    built by hand on either side, the Laurent products are summed instead,
    to the same value."""
    import klrc.fock

    calls = []
    hom = klrc.fock._hom
    monkeypatch.setattr(klrc.fock, "_hom", lambda *args: calls.append(args) or hom(*args))
    weight = W(2, 0, 1, 0)
    left = expand(weight, [(2, 1), (1, 2), (0, 2)])
    right = expand(weight, [(1, 2), (2, 1), (0, 2)])
    value = hom_dim(left, right)
    assert len(calls) == 1 and not value.is_zero()
    by_hand = FockVector.from_dict(right.charges, right.ell, dict(right.terms))
    assert hom_dim(left, by_hand) == hom_dim(by_hand, left) == value
    assert len(calls) == 1


@st.composite
def fock_case(draw):
    """A rank, a charge sequence and a word of up to 9 boxes."""
    ell = draw(st.integers(2, 5))
    charges = draw(st.lists(st.integers(0, ell), min_size=1, max_size=4))
    factors = draw(st.lists(st.tuples(st.integers(0, ell), st.integers(1, 3)),
                            max_size=5).filter(lambda f: sum(r for _, r in f) <= 9))
    return DominantWeight.from_charges(charges, ell), factors


@settings(max_examples=150, deadline=None, database=None)
@given(fock_case(), st.randoms(use_true_random=False))
def test_packed_engine_matches_laurent_reference(case, rng):
    weight, word = case
    vector = expand(weight, word)
    assert vector == reference.expand(weight, word)
    assert hom_dim(vector, vector) == reference.hom_dim(vector, vector)
    twin = expand(weight, rng.sample(word, len(word)))   # same content, other order
    assert hom_dim(vector, twin) == reference.hom_dim(vector, twin)
    i = rng.randint(0, weight.ell)
    assert apply_f(vector, i) == reference.apply_f(vector, i)
    mixed = signed(vector, rng)
    for power in (1, 2, 3):
        assert apply_divided_f(mixed, i, power) == reference.apply_divided_f(mixed, i, power)


def test_wrong_degree_rule_differs_from_the_reference(monkeypatch):
    """With the REM mask zeroed, removable i-nodes drop out of the degree
    count, and the engine must disagree with the Laurent reference, which
    steps one node at a time and still divides by [r]! exactly, on most grown
    words.  The engine runs a divided power in one pass and checks no
    division, so this comparison is what catches a drift in the degree rule.
    The words add 6 to 10 boxes: below 6 a removable i-node seldom lies below
    an addable one."""
    import klrc.fock

    masks = klrc.fock._masks
    monkeypatch.setattr(klrc.fock, "_masks", lambda *args: (masks(*args)[0], 0))
    rng = random.Random(1729)
    differed = divided = 0
    for _ in range(40):
        ell = rng.randint(2, 5)
        charges = sorted(rng.randint(0, ell) for _ in range(rng.randint(1, 4)))
        weight = DominantWeight.from_charges(charges, ell)
        word = grown_word(rng, charges, ell, rng.randint(6, 10), top=4)
        differed += expand(weight, word) != reference.expand(weight, word)
        divided += any(power > 1 for _, power in word)
    assert differed >= 25 and divided >= 25


def test_bead_encoding_round_trips():
    """Every multipartition of at most 8 boxes with 1 to 4 components decodes
    from its bead encoding at every n from its size to 8, and distinct
    multipartitions get distinct keys at each n."""
    from klrc.fock import _key, _shapes

    for k in range(1, 5):
        for size in range(9):
            shapes = [mp.components for mp in multipartitions(size, k)]
            for n in range(size, 9):
                keys = [_key(shape, n) for shape in shapes]
                assert _shapes(keys, k, n) == shapes
                assert len(set(keys)) == len(keys)
                assert max(keys) < 1 << k * (2 * n + 2)


def test_key_order_is_the_shape_order():
    """At one n, ordering by (component sizes, bead key) is ``_shape_key``
    order, on every multipartition of at most 6 boxes with 1 to 3
    components: a window's int order is the zero-padded lexicographic order
    of its rows, and component 0 sits in the top window."""
    from klrc.fock import _key, _shape_key

    for k in range(1, 4):
        shapes = [mp.components for size in range(7) for mp in multipartitions(size, k)]
        for n in range(6, 9):
            assert (sorted(shapes, key=_shape_key)
                    == sorted(shapes, key=lambda shape: (tuple(map(sum, shape)), _key(shape, n))))


def test_masks_match_the_per_position_rule():
    """The periodic mask builder against one ``fold_residue`` per bit
    (``reference.bead_masks``), at rank 2-7, 1-5 components, 0-14 boxes and
    every residue, on two charge sequences each."""
    from klrc.fock import _masks

    rng = random.Random(16)
    for ell in range(2, 8):
        for k in range(1, 6):
            for n in range(15):
                for _ in range(2):
                    charges = tuple(rng.randint(0, ell) for _ in range(k))
                    for i in range(ell + 1):
                        assert _masks(charges, ell, n, i) == bead_masks(charges, ell, n, i), (
                            charges, ell, n, i)


def addable_count(mp, charges, ell, i):
    return sum(residue(charges, node, ell) == i for node in mp.addable_nodes())


@pytest.mark.parametrize("charges,ell,word,i,powers", [
    ((0, 0, 0, 0), 2, [(2, 2), (1, 2), (0, 4)], 1, (4, 5)),
    ((0, 0, 0, 0), 2, [(0, 1), (1, 1), (2, 1), (1, 1), (0, 3)], 1, (4, 5)),
    ((0, 0, 0, 0), 2, [(1, 3), (1, 3), (0, 4)], 2, (4,)),
    ((1, 1, 1, 1), 3, [(2, 2), (3, 1), (1, 1), (2, 1), (0, 2), (1, 2)], 1, (4,)),
])
def test_signed_fourth_and_fifth_divided_powers(charges, ell, word, i, powers):
    """apply_divided_f with r = 4 and 5 on vectors with mixed signs, where some
    term has C(#addable i-nodes, r) >= 10 r-sets, against the value-object
    route and the Laurent reference; i = 2 at rank 2 has d_i = 2."""
    rng = random.Random(len(word))
    weight = DominantWeight.from_charges(list(charges), ell)
    vector = signed(expand(weight, word), rng)
    assert len(vector.terms) >= 28
    widest = max(addable_count(mp, charges, ell, i) for mp, _ in vector.terms)
    for power in powers:
        assert comb(widest, power) >= 10
        result = apply_divided_f(vector, i, power)
        assert not result.is_zero()
        assert result == reference_divided(vector, i, power)
        assert result == reference.apply_divided_f(vector, i, power)


def test_packed_vectors_render_compare_and_hash_as_decoded():
    """An engine vector renders from its packed digits, before any decoding,
    and compares and hashes through its decoded terms: the same text,
    equality and hash as the vector rebuilt by hand from those terms."""
    for m, word in [((2, 1, 0), [(0, 1), (1, 2), (0, 1)]), ((0, 0, 0, 0, 0), [(1, 3), (0, 5)]),
                    ((2, 0, 1, 0), [(2, 2), (0, 1), (1, 4), (0, 2)]), ((1, 0, 0), [(2, 1)])]:
        vector = expand(DominantWeight(m), word)
        text = str(vector)
        by_hand = FockVector.from_dict(vector.charges, vector.ell, dict(vector.terms))
        assert by_hand._packed is None and text == str(by_hand)
        assert vector == by_hand and hash(vector) == hash(by_hand)
        assert vector.is_zero() == by_hand.is_zero()
        assert vector.is_zero() or vector.content() == by_hand.content()
    assert str(expand(W(1, 0, 0), [(2, 1)])) == "0"


def test_width_keeps_the_value_at_one_below_the_modulus():
    """``_hom`` reads a term's value at q=1 as the term mod 2^w - 1, which is
    exact only below 2^w - 1, so the bound a width is set by must be."""
    from klrc.fock import _width

    for bound in range(1, 5000):
        assert bound < (1 << _width(bound)) - 1


def test_digits_skip_zero_runs():
    from klrc.fock import _digits

    rng = random.Random(3)
    for _ in range(300):
        width = rng.randint(2, 40)
        coeffs = {e: rng.randint(1, 2 ** width - 1)
                  for e in rng.sample(range(60), rng.randint(0, 8))}
        low = rng.randint(-20, 20)
        packed = sum(c << width * e for e, c in coeffs.items())
        assert _digits(packed, width, low) == sorted((e + low, c) for e, c in coeffs.items())


def test_equal_charges_at_level_five_reach_the_width_bound():
    """Five equal charges give many standard fillings per shape, which pushes
    the coefficients toward the n! bound the width is set by."""
    weight = DominantWeight.from_charges([0] * 5, 2)
    runs = [[0] * 5 + [1] * 5 + [2] * 2, [0] * 5 + [1] * 5 + [0] * 2 + [2] * 2,
            [0] * 5 + [1] * 5 + [2] * 4]
    words = [[(i, 1) for i in reversed(run)] for run in runs]
    words.append([(2, 4), (1, 1), (1, 4), (0, 1), (0, 4)])
    biggest = 0
    for word in words:
        vector = expand(weight, word, max_n=14)
        assert vector == reference.expand(weight, word)
        assert hom_dim(vector, vector) == reference.hom_dim(vector, vector)
        biggest = max(biggest, max(evaluate(c, 1) for _, c in vector.terms))
    assert biggest >= 300_000


def test_expansions_drop_the_trailing_zero_digits_their_terms_share():
    """Every nonempty ``_expand`` output is normalized: the OR of its packed
    coefficients has a nonzero digit 0, because ``_divided`` drops the
    trailing zero digits all terms share after each pass.  Rank 2-4, level
    1-3, words of 1 to 10 boxes with powers up to 3 (runs of repeated
    residues)."""
    from klrc.fock import _expand

    rng = random.Random(30)
    divided = 0
    for _ in range(200):
        ell = rng.randint(2, 4)
        charges = sorted(rng.randint(0, ell) for _ in range(rng.randint(1, 3)))
        weight = DominantWeight.from_charges(charges, ell)
        word = grown_word(rng, charges, ell, rng.randint(1, 10))
        width, _, _, terms = _expand(weight, word[::-1])
        used = 0
        for coeff in terms.values():
            used |= coeff
        assert used & (1 << width) - 1, (charges, ell, word)
        divided += any(power > 1 for _, power in word)
    assert divided >= 100


def test_shift_offset_is_reached_at_minus_the_i_boxes_placed(monkeypatch):
    """Charges (0, 0) and the word 0,0: the second 0-node added, the box of
    component 1 over the 0-box of component 2, has that removable 0-node
    below it and no addable one, so its count is -1, minus the one 0-box
    placed.  Offset by that one box its shift is 0, the lowest digit, and
    offset by none it would be negative.  ``_expand`` offsets each factor by
    the boxes of its residue placed before it, and stops at a factor that
    leaves no term."""
    from klrc import fock

    n, width = 2, 3
    add, rem = fock._masks((0, 0), 2, n, 0)
    unit = width * 2  # d_0 = 2
    grown = fock._step({fock._key(((), (1,)), n): 1}, add, rem, unit, 1, 1)
    assert grown == {fock._key(((1,), (1,)), n): 1}
    with pytest.raises(ValueError, match="negative shift count"):
        fock._step({fock._key(((), (1,)), n): 1}, add, rem, unit, 0, 1)
    step, offsets = fock._step, []

    def recording(terms, add, rem, unit, boxes, power):
        offsets.append(boxes)
        return step(terms, add, rem, unit, boxes, power)

    monkeypatch.setattr(fock, "_step", recording)
    fock._expand(W(2, 0, 0), ((0, 1), (1, 1), (0, 2), (2, 1), (1, 1)))
    assert offsets == [0, 0, 1]  # f_0^(2) leaves no term
    offsets.clear()
    assert fock._expand(W(2, 0, 0), ((0, 1), (1, 1), (0, 1), (1, 2), (2, 1), (1, 1)))[3]
    assert offsets == [0, 0, 1, 1, 0, 3]


def test_a_word_that_leaves_no_term_steps_once(monkeypatch, capsys):
    """A residue sequence and a word whose first factor has no addable node
    on the vacuum of Λ0 stop after that factor: ``_divided`` runs once for
    each, and ``dims`` and ``fock`` print the text they printed when every
    later factor stepped an empty dict."""
    from klrc import fock
    from klrc.cli import main

    divided, calls = fock._divided, []
    monkeypatch.setattr(fock, "_divided", lambda *args: calls.append(args) or divided(*args))
    assert main(["dims", "--ell", "2", "--m", "1,0,0", "--beta", "2,2,1",
                 "--nu", "1-0-1-0-2"]) == 0
    assert len(calls) == 1
    assert main(["fock", "--ell", "2", "--weight", "0", "--word", "2,0,1,0,1"]) == 0
    assert len(calls) == 2
    assert capsys.readouterr().out == "0\n0\nEnd = 0\n"


def test_an_equal_nu_prime_is_checked_once(monkeypatch):
    """ν′ equal to ν, as ``klrc dims`` passes it without ``--nu2``, is checked
    and expanded once, as an absent ν′ is; a different ν′ is checked on its
    own."""
    from klrc import fock

    runs, names = fock._runs, []
    monkeypatch.setattr(fock, "_runs", lambda *args: names.append(args[3]) or runs(*args))
    weight, beta = DominantWeight.from_charges((1, 3, 4), 4), RootVector((1, 1, 1, 3, 1))
    nu = (4, 1, 3, 2, 0, 3, 3)
    value = graded_hom_dim(weight, beta, nu)
    assert str(value) == "q^-4 + 6q^-2 + 16 + 25q^2 + 25q^4 + 16q^6 + 6q^8 + q^10"
    assert graded_hom_dim(weight, beta, nu, nu) == value
    assert graded_hom_dim(weight, beta, nu, tuple(list(nu))) == value
    assert names == ["nu"] * 3
    graded_hom_dim(weight, beta, nu, (4, 1, 3, 2, 3, 0, 3))
    assert names == ["nu"] * 4 + ["nu'"]


def test_a_nu_prime_list_equal_to_a_nu_tuple_is_checked_once(monkeypatch):
    """ν′ and ν with the same entries, one a list and one a tuple, count as
    equal: ``_runs`` checks the sequence once, whichever of the two is the
    list."""
    from klrc import fock

    calls = []
    runs = fock._runs
    monkeypatch.setattr(fock, "_runs", lambda *args: calls.append(args[3]) or runs(*args))
    weight, beta = DominantWeight.from_charges((1, 3, 4), 4), RootVector((1, 1, 1, 3, 1))
    nu = (4, 1, 3, 2, 0, 3, 3)
    value = graded_hom_dim(weight, beta, nu)
    assert graded_hom_dim(weight, beta, nu, list(nu)) == value
    assert graded_hom_dim(weight, beta, list(nu), nu) == value
    assert calls == ["nu"] * 3
