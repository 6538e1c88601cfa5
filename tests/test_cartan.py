import random
import tracemalloc

import pytest

from klrc.cartan import (CartanDatum, DominantWeight, RootVector, cartan,
                         fold_residue, hub, pairing)


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
    for j in range(ell + 1):
        assert sum(datum.matrix[i][j] for i in range(ell + 1)) == 0
    del ones


def test_apply_matrix_matches_dense_row_product():
    rng = random.Random(8)
    for ell in range(2, 17):
        datum = cartan(ell)
        for _ in range(20):
            x = [rng.randint(-50, 50) for _ in range(ell + 1)]
            dense = tuple(sum(a * v for a, v in zip(row, x)) for row in datum.matrix)
            assert datum.apply_matrix(x) == dense, (ell, x)
        with pytest.raises(ValueError):
            datum.apply_matrix(x[:-1])


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
    reordered = w.with_charges((2, 0, 0))
    assert reordered.m == w.m
    with pytest.raises(ValueError):
        w.with_charges((0, 1, 2))
    with pytest.raises(ValueError):
        DominantWeight((-1, 0, 1))


def test_default_charge_order_compares_and_hashes_as_the_pair():
    """The default order is not stored, but a weight still compares as the pair
    (m, charges) and hashes consistently with it: the default order given
    explicitly is the same weight, another order is not."""
    w = DominantWeight((2, 0, 1, 0))
    same = DominantWeight((2, 0, 1, 0), (0, 0, 2))
    other = w.with_charges((2, 0, 0))
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
    assert w.sigma().m == (0, 0, 1, 2)
    assert w.sigma().sigma() == w
    r = RootVector((1, 2, 0, 0))
    assert r.sigma().coeffs == (0, 0, 2, 1)


def test_root_vector_helpers():
    r = RootVector((1, 2, 1))
    assert r.height == 4
    assert r.in_positive_cone()
    assert not (r - RootVector((2, 0, 0))).in_positive_cone()
    assert (2 * r).coeffs == (2, 4, 2)
    assert str(r) == "a0+2a1+a2"


def test_rank_guard():
    with pytest.raises(ValueError):
        CartanDatum(1)
    with pytest.raises(ValueError):
        fold_residue(0, 1)
