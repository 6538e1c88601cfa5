import random
from itertools import combinations, product

import pytest

from klrc.cartan import DominantWeight, RootVector
from klrc.classifier import (CaseInstance, RepType, _case_index, classify, match_case,
                             wildness_criteria)
from klrc.laurent import LaurentPolynomial
from klrc.maxweights import beta_of, class_members, defect
from reference import case_table, is_bar_symmetric_about, minimal_weight, sigma_flip


def W(*m):
    return DominantWeight(tuple(m))


def R(*x):
    return RootVector(tuple(x))


def poly(*pairs):
    return LaurentPolynomial(dict(pairs))


def test_spec_examples():
    assert str(classify(W(0, 0, 2, 0, 0), R(0, 0, 1, 0, 0))) == "Finite (f1)"
    assert str(classify(W(0, 2, 0, 0), R(1, 2, 0, 0))) == "Tame (t1)"
    v = classify(W(2, 0, 0, 0), R(2, 2, 0, 0), 0)
    assert (v.rep_type, v.tag, v.char_assumption) == (RepType.TAME, "t20", "char≠2")
    assert classify(W(2, 0, 0, 0), R(2, 2, 0, 0), 2).rep_type == RepType.WILD
    assert classify(W(2, 0, 0), R(1, 2, 1)).rep_type == RepType.WILD
    assert classify(W(1, 0, 0), R(1, 2, 1)).rep_type == RepType.TAME
    assert classify(W(1, 1, 0), R(0, 0, 0)).rep_type == RepType.FINITE
    assert classify(W(1, 0, 0), R(0, 1, 0)).rep_type == RepType.ZERO


def test_validation_errors():
    with pytest.raises(ValueError):
        classify(W(1, 0, 0), R(-1, 0, 0))


def test_level_one_trichotomy():
    for ell in (2, 3, 4):
        delta = RootVector.null_root(ell)
        for s in range(ell + 1):
            weight = DominantWeight.fundamental(s, ell)
            for other in class_members(weight):
                base = beta_of(weight, other).x
                t = other.m.index(1)
                for mult in (0, 1, 2):
                    verdict = classify(weight, base + mult * delta)
                    if mult == 0 and t in (s - 2, s, s + 2):
                        assert verdict.rep_type == RepType.FINITE
                    elif mult == 1 and ell == 2 and t == s:
                        assert verdict.rep_type == RepType.TAME
                    else:
                        assert verdict.rep_type == RepType.WILD
                    assert verdict.tag == "level-one"


def expected_two_rows(ell, a, other, char):
    """Verdicts of the exhaustive level-two theorem for 2*Lambda_a."""
    m = other.m

    def pair(i, j):
        probe = [0] * (ell + 1)
        probe[i] += 1
        probe[j] += 1
        return list(m) == probe

    if pair(a, a):
        return "Finite"
    if 1 <= a and pair(a - 1, a - 1):
        return "Wild" if a <= ell - 2 else ("Tame" if a == ell - 1 else "Finite")
    if a <= ell - 1 and pair(a + 1, a + 1):
        return "Wild" if a >= 2 else ("Tame" if a == 1 else "Finite")
    if 1 <= a <= ell - 1 and pair(a - 1, a + 1):
        return "Finite"
    if 2 <= a and pair(a - 2, a):
        return "Wild" if a <= ell - 1 else "Finite"
    if a <= ell - 2 and pair(a, a + 2):
        return "Wild" if a >= 1 else "Finite"
    if 2 <= a <= ell - 2 and pair(a - 2, a + 2):
        return "Wild" if char == 2 else "Tame"
    if a == 0 and pair(2, 2):
        return "Wild" if char == 2 else "Tame"
    if a == ell and pair(ell - 2, ell - 2):
        return "Wild" if char == 2 else "Tame"
    return "Wild"


def expected_two_columns(ell, a, b, other, char):
    """Verdicts of the exhaustive level-two theorem for Lambda_a + Lambda_b."""
    m = other.m

    def pair(i, j):
        probe = [0] * (ell + 1)
        probe[i] += 1
        probe[j] += 1
        return list(m) == probe

    if pair(a, b):
        return "Finite"
    if 1 <= a and pair(a - 1, b - 1):
        if b <= ell - 1:
            return "Wild"
        return "Tame" if a <= ell - 2 else "Finite"
    if b <= ell - 1 and pair(a + 1, b + 1):
        if a >= 1:
            return "Wild"
        return "Finite" if b == 1 else "Tame"
    if 1 <= a and b <= ell - 1 and pair(a - 1, b + 1):
        return "Finite"
    if a <= b - 2 and pair(a + 1, b - 1):
        return "Wild"
    if a <= b - 2 and pair(a, b - 2):
        return "Finite"
    if a <= b - 2 and pair(a + 2, b):
        return "Finite"
    if b <= ell - 2 and pair(a, b + 2):
        return "Wild"
    if a >= 2 and pair(a - 2, b):
        return "Wild"
    if a <= b - 4 and pair(a + 2, b - 2):
        return "Tame" if (a == 0 and b == ell) else "Wild"
    return "Wild"


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_level_two_oracle(ell):
    for a in range(ell + 1):
        weight = DominantWeight(tuple(2 if i == a else 0 for i in range(ell + 1)))
        for other in class_members(weight):
            beta = beta_of(weight, other).x
            for char in (0, 2, 3):
                got = str(classify(weight, beta, char).rep_type)
                assert got == expected_two_rows(ell, a, other, char), (a, other, char)
    for a in range(ell + 1):
        for b in range(a + 1, ell + 1):
            m = [0] * (ell + 1)
            m[a] += 1
            m[b] += 1
            weight = DominantWeight(tuple(m))
            for other in class_members(weight):
                beta = beta_of(weight, other).x
                for char in (0, 2, 3):
                    got = str(classify(weight, beta, char).rep_type)
                    assert got == expected_two_columns(ell, a, b, other, char), (a, b, other, char)


def test_every_tag_instantiates():
    """One instance of each finite and tame case classifies to its declared type."""
    ell = 5
    tags = {f"f{i}" for i in range(1, 7)} | {f"t{i}" for i in range(1, 22)}
    assert {case.tag for case in case_table(ell)} == tags
    covered: dict[str, CaseInstance] = {}
    for case in case_table(ell):
        if case.tag in covered:
            continue
        weight = minimal_weight(case)
        verdict = classify(weight, RootVector(case.beta), 0)
        if verdict.tag == case.tag:
            covered[case.tag] = case
    assert set(covered) == tags
    for tag, case in covered.items():
        weight = minimal_weight(case)
        beta = RootVector(case.beta)
        verdict = classify(weight, beta, 0)
        assert verdict.rep_type == case.rep_type, (tag, verdict)
        if case.char_ne is not None:
            flipped = classify(weight, beta, case.char_ne)
            assert flipped.rep_type == RepType.WILD
            assert flipped.tag == tag
            other = classify(weight, beta, 5)
            assert other.rep_type == case.rep_type


def test_non_maximal_family_is_wild():
    for ell in (2, 3):
        delta = RootVector.null_root(ell)
        for k in (2, 3):
            for charges in combinations(range(ell + 1), 1):
                weight = DominantWeight.from_charges(charges * k, ell)
                for other in class_members(weight):
                    base = beta_of(weight, other).x
                    for mult in (1, 2):
                        verdict = classify(weight, base + mult * delta)
                        assert verdict.rep_type == RepType.WILD
                        assert verdict.tag == "non-maximal-wild"


WILD_INSTANCES = [
    # higher-level blocks shown wild by explicit truncations
    ((2, 2, 0, 0), (1, 1, 0, 0)),          # two raised ends at the affine node
    ((1, 3, 0, 0), (1, 1, 0, 0)),
    ((0, 0, 2, 1), (0, 0, 2, 1)),
    ((0, 0, 3, 0), (0, 0, 2, 1)),
    ((3, 0, 0, 0), (2, 1, 0, 0)),
    ((2, 1, 0, 0), (2, 2, 0, 0)),
    ((3, 0, 1, 0, 0), (2, 1, 1, 0, 0)),
]


@pytest.mark.parametrize("m,x", WILD_INSTANCES)
def test_named_wild_instances(m, x):
    assert classify(DominantWeight(m), RootVector(x)).rep_type == RepType.WILD


def test_sigma_invariance_random():
    rng = random.Random(77)
    for _ in range(200):
        ell = rng.randint(2, 5)
        k = rng.randint(1, 4)
        weight = DominantWeight.from_charges([rng.randint(0, ell) for _ in range(k)], ell)
        beta = RootVector(tuple(rng.randint(0, 3) for _ in range(ell + 1)))
        for char in (0, 2, 3):
            left = classify(weight, beta, char)
            right = classify(*sigma_flip(weight, beta), char)
            assert left.rep_type == right.rep_type


def all_weights(k, ell):
    for bars in combinations(range(k + ell), ell):
        m, prev = [], -1
        for b in bars:
            m.append(b - prev - 1)
            prev = b
        m.append(k + ell - 1 - prev)
        yield DominantWeight(tuple(m))


def test_mutual_exclusion_scan():
    """No reduced pair matches both a finite and a tame case."""
    for ell in range(2, 6):
        table = case_table(ell)
        for k in range(2, 5):
            for weight in all_weights(k, ell):
                for other in class_members(weight):
                    x = beta_of(weight, other).x.coeffs
                    kinds = {case.rep_type for case in table if case.matches(weight.m, x)}
                    assert kinds != {RepType.FINITE, RepType.TAME}, (weight, x)


def test_matched_defects_follow_the_list():
    """Defects of matched cases agree with the published defect list."""
    ell = 5
    for case in case_table(ell):
        weight = minimal_weight(case)
        beta = RootVector(case.beta)
        value = defect(weight, beta)
        m = weight.m
        tag = case.tag
        if tag == "f1":
            a = case.beta.index(1)
            expected = 2 * m[a] - 2 if a in (0, ell) else m[a] - 1
        elif tag in ("f2", "f3"):
            i = 0 if tag == "f2" else ell
            expected = 2 if m[0] == m[1] == 1 or m[ell - 1] == m[ell] == 1 else 2 * m[i] - 1
        elif tag in ("f4", "f5", "f6", "t1", "t2", "t12", "t15", "t18"):
            expected = 1 if tag.startswith("f") else 2
        elif tag in ("t3", "t4"):
            expected = 2 * m[0 if tag == "t3" else ell]
        elif tag in ("t5", "t6"):
            expected = 2 * m[0 if tag == "t5" else ell]
        elif tag in ("t7", "t8", "t16", "t17"):
            expected = 3
        elif tag == "t9":
            expected = max(v for v, x in zip(m, case.beta) if x)
        elif tag in ("t10", "t11"):
            support = [i for i, x in enumerate(case.beta) if x]
            expected = 4 if support in ([0, ell],) else 3
        elif tag in ("t13", "t14"):
            support = [i for i, x in enumerate(case.beta) if x]
            doubled = next(i for i in support if m[i] == 2)
            expected = 3 if doubled in (0, ell) else 2
        elif tag in ("t19", "t20", "t21"):
            expected = 4
        else:
            raise AssertionError(tag)
        assert value == expected, (tag, weight, beta, value, expected)


def test_defect_consistency_across_instances():
    """Matched tame/finite defects never depend on the free multiplicities."""
    ell = 4
    rng = random.Random(13)
    for case in case_table(ell):
        weight = minimal_weight(case)
        base = defect(weight, RootVector(case.beta))
        for _ in range(3):
            m = list(weight.m)
            i = rng.randint(0, ell)
            if any(c[0] == i for c in case.constraints):
                continue
            m[i] += rng.randint(1, 2)
            bigger = DominantWeight(tuple(m))
            if not case.matches(bigger.m, case.beta):
                continue
            grown = defect(bigger, RootVector(case.beta))
            assert grown >= base


def test_wildness_criteria():
    assert wildness_criteria(poly((0, 1), (2, 3), (4, 3), (6, 1))) == (
        RepType.WILD, "three loops in degree 2")
    assert wildness_criteria(poly((0, 1), (2, 1))) is None
    assert wildness_criteria(poly((0, 1), (1, 3), (2, 1))) == (
        RepType.WILD, "three loops in degree 1")
    assert wildness_criteria(poly((0, 1), (1, 1), (2, 3))) == (
        RepType.WILD, "loop plus three in degree 2")
    assert wildness_criteria(poly((0, 1), (1, 2), (2, 3))) == (
        RepType.WILD, "radical layers of dimension 5")
    diag = poly((0, 1), (2, 2), (4, 2), (6, 2), (8, 1))
    off = poly((2, 1), (4, 2), (6, 1))
    assert wildness_criteria((diag, diag), (off, off)) == (RepType.WILD, "two-vertex subquiver")
    thin = poly((2, 1))
    assert wildness_criteria((diag, diag), (thin, LaurentPolynomial.zero())) is None
    assert wildness_criteria(poly((-2, 1), (0, 2), (2, 1))) is None


def test_zero_block_from_straightening():
    # two boxes at the top index with no multiplicity there leave the weight cone
    assert classify(W(0, 0, 2, 0), R(0, 0, 0, 2)).rep_type == RepType.ZERO


def test_reduction_pipeline_uses_straightened_vector():
    # beta = 2*alpha_2 with m_2 = 2 straightens to zero: the trivial block
    assert classify(W(0, 0, 2, 0), R(0, 0, 2, 0)).rep_type == RepType.FINITE
    # beta = 2*alpha_2 with m_2 = 3 straightens to alpha_2: case f1
    assert classify(W(0, 0, 3, 0), R(0, 0, 2, 0)).tag == "f1"
    # beta = 2*alpha_2 with m_2 = 4 stays put: case t19
    verdict = classify(W(0, 0, 4, 0), R(0, 0, 2, 0))
    assert verdict.tag == "t19" and verdict.rep_type == RepType.TAME
    # and m_2 = 5 is beyond every pattern
    assert classify(W(0, 0, 5, 0), R(0, 0, 2, 0)).rep_type == RepType.WILD


def test_total_dimension_palindromic_about_defect():
    """The summed graded dimension over all residue pairs is bar-symmetric
    with lowest plus highest exponent equal to twice the defect."""
    from itertools import product as iproduct

    from klrc.tableaux import kostka_q, multipartitions

    for m, x in [((0, 0, 2, 0), (0, 0, 2, 1)), ((2, 0, 0), (1, 1, 0)),
                 ((1, 1, 0), (1, 2, 1)), ((0, 2, 0, 0), (1, 2, 0, 0)),
                 ((2, 1, 0), (1, 1, 0)), ((1, 0, 1), (1, 2, 1))]:
        weight, beta = DominantWeight(m), RootVector(x)
        ell, n = weight.ell, beta.height
        words = [w for w in iproduct(range(ell + 1), repeat=n)
                 if tuple(sum(1 for r in w if r == i)
                          for i in range(ell + 1)) == beta.coeffs]
        total = LaurentPolynomial.zero()
        for shape in multipartitions(n, weight.level):
            acc = LaurentPolynomial.zero()
            for word in words:
                acc = acc + kostka_q(weight.charges, word, shape, ell)
            total = total + acc * acc
        d = defect(weight, beta)
        assert total.min_exponent + total.max_exponent == 2 * d
        assert is_bar_symmetric_about(total, d)


def test_match_case_uses_flip():
    # t1 is the flip of t2; matching must see it from either side, and it
    # does with one direct lookup, the table holding both
    case = match_case((0, 2, 0, 0), (1, 2, 0, 0), 3)
    assert case is not None and case.tag == "t1"
    case = match_case((0, 0, 2, 0), (0, 0, 2, 1), 3)
    assert case is not None and case.tag == "t2"


def flipped(case, ell):
    """The case mirrored by the diagram flip i -> ell - i, without its tag."""
    def mirror(constraints):
        return frozenset((ell - i, op, value) for i, op, value in constraints)
    return (case.rep_type, case.beta[::-1], mirror(case.constraints),
            frozenset(mirror(group) for group in case.exclusions), case.char_ne)


def test_case_table_is_closed_under_the_flip():
    """Every case's mirror image, constraints and exclusions mirrored, is a
    case of the same table; tags are ignored, since a flipped f2 case is an
    f3 case and so on.  So ``match_case`` needs no flipped pass."""
    for ell in range(2, 17):
        cases = case_table(ell)
        plain = {(case.rep_type, case.beta, frozenset(case.constraints),
                  frozenset(frozenset(group) for group in case.exclusions), case.char_ne)
                 for case in cases}
        assert {flipped(case, ell) for case in cases} == plain, ell


def scanned_match(m, x, ell):
    """``match_case`` as a scan of the whole table, direct pass then flipped pass."""
    for pair_m, pair_x in ((tuple(m), tuple(x)), (tuple(m[::-1]), tuple(x[::-1]))):
        for case in case_table(ell):
            if case.matches(pair_m, pair_x):
                return case
    return None


def test_indexed_match_agrees_with_the_table_scan():
    """The by-beta index finds the case a full scan finds, for every beta with
    entries at most 2, over the minimal weights of six cases and one random
    weight of each level 2..4, at ell 2..6."""
    rng = random.Random(29)
    tags = set()
    for ell in range(2, 7):
        weights = {minimal_weight(case).m for case in rng.sample(case_table(ell), 6)}
        weights |= {DominantWeight.from_charges([rng.randint(0, ell) for _ in range(k)], ell).m
                    for k in (2, 3, 4)}
        assert {sum(m) for m in weights} <= {2, 3, 4}
        for x in product(range(3), repeat=ell + 1):
            for m in weights:
                case = match_case(m, x, ell)
                assert case == scanned_match(m, x, ell), (m, x)
                if case is not None:
                    tags.add(case.tag)
    assert len(tags) >= 20


def test_case_index_keeps_table_order():
    """The index holds every case of the flat table once, at its beta, each
    group in table order."""
    for ell in range(2, 17):
        index, table = _case_index(ell), case_table(ell)
        assert sum(map(len, index.values())) == len(table)
        for beta, cases in index.items():
            assert cases == tuple(case for case in table if case.beta == beta)
