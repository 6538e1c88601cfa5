import random
import tracemalloc
from array import array

import pytest

from klrc.cartan import (CartanDatum, DominantWeight, RootVector, _column_terms, _first_layer,
                         cartan, fold_residue, hub, pairing, root_text, weight_text)
from klrc.maxweights import _class_columns
from reference import sigma_root, sigma_weight, with_charges
from test_quiver import pool_roots


def test_matrix_shape():
    datum = cartan(2)
    assert datum.matrix == ((2, -1, 0), (-2, 2, -2), (0, -1, 2))
    datum = cartan(4)
    assert datum.matrix[1] == (-2, 2, -1, 0, 0)
    assert datum.matrix[3] == (0, 0, -1, 2, -2)
    assert datum.d == (2, 1, 1, 1, 2)
    assert datum.delta_coeffs == (1, 2, 2, 2, 1)


@pytest.mark.parametrize("ell", range(2, 17))
def test_null_root_and_row_sums(ell):
    datum = cartan(ell)
    assert datum.apply_matrix(datum.delta_coeffs) == (0,) * (ell + 1)
    ones = (1,) * (ell + 1)
    # (1,...,1) . A = 0 columnwise
    matrix = datum.matrix
    for j in range(ell + 1):
        assert sum(matrix[i][j] for i in range(ell + 1)) == 0
    del ones


def test_apply_matrix_matches_dense_row_product():
    rng = random.Random(8)
    for ell in range(2, 17):
        datum = cartan(ell)
        matrix = datum.matrix
        for _ in range(20):
            x = [rng.randint(-50, 50) for _ in range(ell + 1)]
            dense = tuple(sum(a * v for a, v in zip(row, x)) for row in matrix)
            assert datum.apply_matrix(x) == dense, (ell, x)
        with pytest.raises(ValueError):
            datum.apply_matrix(x[:-1])


@pytest.mark.parametrize("ell", range(2, 17))
def test_first_layer_roots_and_their_images(ell):
    """The generator yields 2 ell^2 distinct first-layer roots, each a real
    root ((gamma, gamma) > 0) in the positive cone below the null root, with
    its complement; each comes with A.gamma as ``apply_matrix`` and the dense
    matrix compute it, and no two roots share A.gamma."""
    datum = cartan(ell)
    matrix, delta = datum.matrix, datum.delta_coeffs
    layer = list(_first_layer(ell))
    roots = {gamma for gamma, _ in layer}
    assert len(roots) == len({ag for _, ag in layer}) == len(layer) == 2 * ell * ell
    for gamma, ag in layer:
        assert ag == datum.apply_matrix(gamma), gamma
        assert ag == tuple(sum(a * g for a, g in zip(row, gamma)) for row in matrix), gamma
        assert all(0 <= g <= n for g, n in zip(gamma, delta)) and gamma != delta, gamma
        assert tuple(n - g for g, n in zip(gamma, delta)) in roots, gamma
        assert pairing(RootVector(gamma), RootVector(gamma)) > 0, gamma


def test_only_the_band_is_stored():
    """A CartanDatum keeps the three band entries of each row, not the dense
    matrix: building rank 3000 peaks below 1 MiB.  ``matrix``, built from the
    band, has a_ii = 2, a_{i,i+-1} = -1 except a_10 = a_{ell-1,ell} = -2, and
    zeros off the tridiagonal."""
    tracemalloc.start()
    try:
        CartanDatum(3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    for ell in range(2, 13):
        datum = cartan(ell)
        expected = [[0] * (ell + 1) for _ in range(ell + 1)]
        for i in range(ell + 1):
            expected[i][i] = 2
            if i > 0:
                expected[i][i - 1] = -2 if i == 1 else -1
            if i < ell:
                expected[i][i + 1] = -2 if i == ell - 1 else -1
        assert datum.matrix == tuple(map(tuple, expected)), ell
        with pytest.raises(AttributeError):
            datum.matrix = datum.matrix


@pytest.mark.parametrize("ell", range(2, 7))
def test_fold_periodicity(ell):
    for m in range(-4 * ell, 4 * ell + 1):
        assert fold_residue(m, ell) == fold_residue(m + 2 * ell, ell)
        assert 0 <= fold_residue(m, ell) <= ell


def test_fold_values():
    assert fold_residue(0, 2) == 0
    assert fold_residue(3, 2) == 1
    assert fold_residue(-1, 2) == 1
    assert [fold_residue(m, 3) for m in range(8)] == [0, 1, 2, 3, 2, 1, 0, 1]


def test_pairing_values():
    ell = 2
    w0 = DominantWeight.fundamental(0, ell)
    a0 = RootVector.simple(0, ell)
    a1 = RootVector.simple(1, ell)
    assert pairing(w0, a0) == 2
    assert pairing(a0, a1) == -2
    delta = RootVector.null_root(ell)
    assert pairing(delta, delta) == 0


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_pairing_symmetry(ell):
    for i in range(ell + 1):
        for j in range(ell + 1):
            ai, aj = RootVector.simple(i, ell), RootVector.simple(j, ell)
            assert pairing(ai, aj) == pairing(aj, ai)


def test_weight_weight_rejected():
    w = DominantWeight.fundamental(0, 2)
    with pytest.raises(TypeError):
        pairing(w, w)


def test_hub_values():
    assert hub(DominantWeight((0, 0, 2, 0, 0))) == (0, 0, 2, 0, 0)
    assert hub(DominantWeight.fundamental(0, 2), RootVector.simple(0, 2)) == (-1, 2, 0)
    w = DominantWeight((1, 1, 0))
    assert hub(w, RootVector.null_root(2)) == (1, 1, 0)


def test_dominant_weight_charges():
    w = DominantWeight((2, 0, 1, 0))
    assert w.charges == (0, 0, 2)
    assert w.level == 3
    assert DominantWeight.from_charges((2, 0, 0), 3).m == (2, 0, 1, 0)
    reordered = with_charges(w, (2, 0, 0))
    assert reordered.m == w.m
    with pytest.raises(ValueError):
        with_charges(w, (0, 1, 2))
    with pytest.raises(ValueError):
        DominantWeight((-1, 0, 1))


def test_default_charge_order_compares_and_hashes_as_the_pair():
    """The default order is not stored, but a weight still compares as the pair
    (m, charges) and hashes consistently with it: the default order given
    explicitly is the same weight, another order is not."""
    w = DominantWeight((2, 0, 1, 0))
    same = DominantWeight((2, 0, 1, 0), (0, 0, 2))
    other = with_charges(w, (2, 0, 0))
    assert w == same and hash(w) == hash(same)
    assert w != other and other.charges == (2, 0, 0)
    assert hash(other) == hash(DominantWeight((2, 0, 1, 0), (2, 0, 0)))
    assert len({w, same, other, DominantWeight.from_charges((0, 0, 2), 3)}) == 2
    assert repr(other) == "DominantWeight(m=(2, 0, 1, 0), charges=(2, 0, 0))"
    with pytest.raises(AttributeError):
        w.m = (1, 0, 1, 0)
    assert DominantWeight((0, 0, 3 * 10 ** 6)).level == 3 * 10 ** 6


def test_hash_builds_no_default_charge_order():
    """Hashing a weight of level three million stays under 1 MiB, and equal
    weights hash equal, a default weight and the same weight built with its
    sorted charges given explicitly among them."""
    big = DominantWeight((0, 0, 3 * 10 ** 6))
    tracemalloc.start()
    try:
        value = hash(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert value == hash(DominantWeight((0, 0, 3 * 10 ** 6)))
    w = DominantWeight((1, 0, 2, 1))
    assert hash(w) == hash(DominantWeight((1, 0, 2, 1), (0, 2, 2, 3)))
    assert hash(w) == hash(DominantWeight.from_charges((0, 2, 2, 3), 3))


def test_sigma():
    w = DominantWeight((2, 1, 0, 0))
    assert sigma_weight(w).m == (0, 0, 1, 2)
    assert sigma_weight(sigma_weight(w)) == w
    r = RootVector((1, 2, 0, 0))
    assert sigma_root(r).coeffs == (0, 0, 2, 1)


def test_root_vector_helpers():
    r = RootVector((1, 2, 1))
    assert r.height == 4
    assert r.in_positive_cone()
    assert not (r - RootVector((2, 0, 0))).in_positive_cone()
    assert (2 * r).coeffs == (2, 4, 2)
    assert str(r) == "a0+2a1+a2"


def test_column_terms_by_hand():
    """The class form of the vector texts on four members: the zero vector
    reads "0", a coefficient of 1 is left out, and entries past 2^31, here
    in int64 columns such as the class pass gives, are written out whole."""
    columns = [array("q", [0, 1, 2 ** 31 + 5, 0]), array("q", [0, 1, 1, 2 ** 40]),
               array("q", [0, 0, 3, 1])]
    expected = ["0", "a0+a1", "2147483653a0+a1+3a2", "1099511627776a1+a2"]
    assert _column_terms(columns, "a") == expected
    assert [root_text(x) for x in zip(*columns)] == expected
    assert _column_terms([[0, 2], [1, 0], [0, 1]], "Λ") == ["Λ1", "2Λ0+Λ2"]


def test_column_terms_match_the_vector_texts():
    """``_column_terms`` against ``weight_text`` and ``root_text``, member by
    member, over the columns of every class of the quiver pool within the
    vertex cap."""
    checked = 0
    for root in pool_roots():
        m_cols, x_cols = _class_columns(root)
        ms, xs = list(zip(*m_cols)), list(zip(*x_cols))
        assert _column_terms(m_cols, "Λ") == [weight_text(m) for m in ms], root
        assert _column_terms(x_cols, "a") == [root_text(x) for x in xs], root
        checked += len(ms)
    assert checked > 20_000


def test_rank_guard():
    with pytest.raises(ValueError):
        CartanDatum(1)
    with pytest.raises(ValueError):
        fold_residue(0, 1)
