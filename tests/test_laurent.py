import random

import pytest

from klrc.laurent import LaurentPolynomial, quantum_factorial, quantum_integer


def poly(*pairs):
    return LaurentPolynomial(dict(pairs))


def test_basic_arithmetic():
    p = poly((0, 1), (2, 2))
    q = poly((-1, 3), (2, -2))
    assert p + q == poly((0, 1), (-1, 3))
    assert p - q == poly((0, 1), (2, 4), (-1, -3))
    assert p * q == poly((-1, 3), (2, -2), (1, 6), (4, -4))
    assert p * 0 == LaurentPolynomial.zero()
    assert 1 + poly((1, 1)) == poly((0, 1), (1, 1))


def test_no_zero_coefficients_stored():
    p = poly((3, 5)) - poly((3, 5))
    assert p.is_zero()
    assert list(p.items()) == []


def test_power_and_shift():
    q = LaurentPolynomial.q()
    assert (1 + q) ** 2 == poly((0, 1), (1, 2), (2, 1))
    assert poly((0, 1), (1, 1)).shift(-3) == poly((-3, 1), (-2, 1))


def test_exact_division():
    a = poly((1, 1), (-1, 1))  # q + q^-1
    b = poly((0, 1), (4, 1))
    prod = a * b
    assert prod.exact_div(a) == b
    assert prod.exact_div(b) == a
    with pytest.raises(ValueError):
        poly((0, 1), (1, 1)).exact_div(poly((0, 2)))


def test_inexact_division_by_unit_lead_raises():
    """A divisor with lowest coefficient 1 never fails the coefficient test, so
    an inexact division must stop at the quotient's degree bound."""
    with pytest.raises(ValueError):
        poly((0, 1)).exact_div(quantum_factorial(2))
    with pytest.raises(ValueError):
        (quantum_factorial(3, 2) * poly((0, 1), (3, 1)) + poly((5, 1))).exact_div(
            quantum_factorial(3, 2))
    rng = random.Random(31)
    for _ in range(100):
        a = poly(*((rng.randint(-4, 4), rng.randint(-3, 3)) for _ in range(4)))
        b = poly((0, 1), *((rng.randint(1, 5), rng.randint(-3, 3)) for _ in range(2)))
        if not a.is_zero():
            assert (a * b).exact_div(b) == a


def test_quantum_integers():
    assert quantum_integer(2, 1) == poly((1, 1), (-1, 1))
    assert quantum_integer(3, 1) == poly((2, 1), (0, 1), (-2, 1))
    assert quantum_integer(2, 2) == poly((2, 1), (-2, 1))
    assert quantum_factorial(2, 1) == poly((1, 1), (-1, 1))
    fact3 = quantum_factorial(3, 1)
    assert fact3.evaluate(1) == 6
    assert fact3.bar() == fact3


def test_render():
    assert str(poly((0, 1), (2, 2), (4, 3), (6, 2), (8, 1))) == "1 + 2q^2 + 3q^4 + 2q^6 + q^8"
    assert str(LaurentPolynomial.zero()) == "0"
    assert str(poly((-2, 1), (1, -3))) == "q^-2 - 3q"
    assert str(poly((1, 1))) == "q"


def test_bar_involution_and_evaluation_random():
    rng = random.Random(7)
    for _ in range(300):
        p = LaurentPolynomial({rng.randint(-6, 6): rng.randint(-5, 5) for _ in range(4)})
        q = LaurentPolynomial({rng.randint(-6, 6): rng.randint(-5, 5) for _ in range(4)})
        assert p.bar().bar() == p
        assert (p * q).evaluate(1) == p.evaluate(1) * q.evaluate(1)
        assert (p + q).evaluate(1) == p.evaluate(1) + q.evaluate(1)
        assert (p * q).bar() == p.bar() * q.bar()


def test_bar_symmetry_helper():
    assert poly((0, 1), (2, 2), (4, 1)).is_bar_symmetric_about(2)
    assert not poly((0, 1), (2, 2), (4, 2)).is_bar_symmetric_about(2)
