import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form

from orbigenus.exactmath import (
    SingularMatrixError,
    _power_rows,
    cyclotomic_polynomial,
    euler_phi,
    invert_rational_matrix,
    mat_det,
    prime_powers,
    smith_valuations,
)

from helpers import reference_vec_mul

F = Fraction


def int_matrix(rows):
    return tuple(tuple(row) for row in rows)


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def test_invert_scalar_matrix():
    a = int_matrix([[5 if i == j else 0 for j in range(5)] for i in range(5)])
    inv = invert_rational_matrix(a)
    assert inv == tuple(tuple(F(1, 5) if i == j else F(0) for j in range(5)) for i in range(5))


def test_invert_loop_matrix():
    inv = invert_rational_matrix(int_matrix([[2, 1], [1, 2]]))
    assert inv == ((F(2, 3), F(-1, 3)), (F(-1, 3), F(2, 3)))


def test_invert_chain_matrix():
    inv = invert_rational_matrix(int_matrix([[3, 1], [0, 4]]))
    assert inv == ((F(1, 3), F(-1, 12)), (F(0), F(1, 4)))


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert_rational_matrix(int_matrix([[1, 2], [2, 4]]))


def test_invert_round_trip_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = int_matrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        if mat_det(a) == 0:
            continue
        prod = mat_mul(a, invert_rational_matrix(a))
        assert prod == tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 8))
    return int_matrix(draw(st.lists(st.lists(st.integers(-60, 60), min_size=n, max_size=n),
                                    min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_inverse_times_matrix_is_identity(a):
    n = len(a)
    if mat_det(a) == 0:
        with pytest.raises(SingularMatrixError):
            invert_rational_matrix(a)
        return
    assert mat_mul(invert_rational_matrix(a), a) == tuple(
        tuple(F(int(i == j)) for j in range(n)) for i in range(n))


@settings(max_examples=40, deadline=None)
@given(square_matrices(), st.data())
def test_invert_dependent_rows_raises(a, data):
    """A row replaced by a combination of the others makes the matrix singular."""
    n = len(a)
    i = data.draw(st.integers(0, n - 1))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    others = [(c, row) for k, (c, row) in enumerate(zip(coeffs, a)) if k != i]
    combo = [sum(c * row[j] for c, row in others) for j in range(n)]
    singular = int_matrix(combo if k == i else row for k, row in enumerate(a))
    with pytest.raises(SingularMatrixError):
        invert_rational_matrix(singular)


def test_invert_ragged_raises():
    with pytest.raises(ValueError):
        invert_rational_matrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        invert_rational_matrix(((1, 2, 3), (4, 5, 6)))


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def test_smith_valuations_match_full_form():
    """The elimination mod p^e, which ``SymmetryGroup.structure`` runs,
    reaches sympy's Smith factors: taking e above every valuation of a
    nonzero factor, at 2 and at each prime of the factors, the valuations
    rebuild every factor, a zero one as valuation e."""
    rng = random.Random(17)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = int_matrix([[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)])
        snf = smith_normal_form(Matrix(a), domain=ZZ)
        expected = tuple(abs(snf[i, i]) for i in range(min(rows, cols)))
        nonzero = [f for f in expected if f]
        primes = {2} | {p for f in nonzero for p, _ in prime_powers(f)}
        rebuilt = [1] * len(expected)
        for p in primes:
            e = 1 + max((valuation(f, p) for f in nonzero), default=0)
            found = smith_valuations(a, p, e)
            for i, v in enumerate(found + [e] * (len(expected) - len(found))):
                rebuilt[i] = 0 if v == e else rebuilt[i] * p**v
        assert tuple(rebuilt) == expected, a


def test_prime_powers():
    assert prime_powers(1) == []
    assert prime_powers(72) == [(2, 3), (3, 2)]
    assert prime_powers(97) == [(97, 1)]
    assert prime_powers(2 * 49 * 11) == [(2, 1), (7, 2), (11, 1)]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(12) == 4


def _power(row, k, n):
    """row^k in Z[zeta_n], one ``reference_vec_mul`` at a time."""
    acc = _power_rows(n)[0]
    for _ in range(k):
        acc = reference_vec_mul(acc, row, n)
    return tuple(acc)


def test_root_of_unity_identity():
    # zeta^0 = 1, and zeta^n = 1: as a product of n rows 1, and as the stored
    # row n where the table reaches that far
    for n in (1, 2, 3, 4, 5, 7, 12, 30):
        rows = _power_rows(n)
        one = rows[0]
        assert one == (1,) + (0,) * (euler_phi(n) - 1)
        assert _power(rows[1 % n], n, n) == one  # zeta = rows[1], or 1 for n = 1
        if len(rows) > n:
            assert rows[n] == one


def test_root_of_unity_fourth():
    i = _power_rows(4)[1]
    assert tuple(reference_vec_mul(i, i, 4)) == (-1, 0)


def test_fifth_roots_sum_to_zero():
    # the first n rows of a prime n are the n-th roots of unity, summing to 0
    for n in (2, 3, 5, 7, 11):
        rows = _power_rows(n)
        assert [sum(col) for col in zip(*rows[:n])] == [0] * euler_phi(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 10, 12])
def test_root_of_unity_orders(n):
    rows = _power_rows(n)
    for k in range(n):
        order = n // math.gcd(k, n)
        powers = [_power(rows[k], step, n) for step in range(1, order + 1)]
        assert powers[-1] == rows[0]
        assert rows[0] not in powers[:-1]


def test_inverse_roots_multiply_to_one():
    for n in (3, 5, 8, 12):
        rows = _power_rows(n)
        for k in range(n):
            assert tuple(reference_vec_mul(rows[k], rows[(-k) % n], n)) == rows[0]
