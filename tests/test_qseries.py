import random
from fractions import Fraction

import pytest

from orbigenus.exactmath import CycNum, root_of_unity
from orbigenus.qseries import (
    BiSeries,
    NonExpandableError,
    OutOfWindowError,
    WindowMismatchError,
    Windows,
    geom_expand,
    series_mul,
)

F = Fraction
WIN = Windows.make(2, -3, 3)


def poly(entries, denominator=5, conductor=1, windows=WIN):
    return BiSeries.from_terms(denominator, conductor, windows, entries)


def test_mul_identity():
    one = BiSeries.one(5, 1, WIN)
    s = poly({(F(1, 5), F(2, 5)): 3, (0, F(-1, 5)): -2})
    assert series_mul(one, s) == s


def test_geometric_telescoping():
    geo = geom_expand(F(1, 5), 0, 1, WIN)
    factor = poly({(0, 0): 1, (0, F(1, 5)): -1})
    assert series_mul(factor, geo) == BiSeries.one(5, 1, WIN)


def test_geometric_telescoping_partial():
    geo = geom_expand(F(1, 5), 0, 1, WIN)
    factor = poly({(0, 0): 1, (0, F(4, 5)): -1})
    expected = poly({(0, 0): 1, (0, F(1, 5)): 1, (0, F(2, 5)): 1, (0, F(3, 5)): 1})
    assert series_mul(factor, geo) == expected


def test_geom_expand_mixed_exponents():
    s = geom_expand(F(1, 5), F(2, 5), 1, WIN)
    assert s.coefficient(0, 0) == CycNum.one(1)
    assert s.coefficient(F(2, 5), F(1, 5)) == CycNum.one(1)
    assert s.coefficient(F(4, 5), F(2, 5)) == CycNum.one(1)
    assert s.coefficient(F(1, 5), F(1, 5)).is_zero()


def test_geom_expand_pure_y():
    s = geom_expand(F(1, 2), 0, 1, WIN)
    assert s.rational_terms() == {
        (F(0), F(k, 2)): F(1) for k in range(0, 7)
    }


def test_geom_expand_root_coefficient():
    z = root_of_unity(1, 5)
    s = geom_expand(F(1, 5), F(1, 5), z, WIN)
    factor = BiSeries.from_terms(5, 5, WIN, {(0, 0): 1, (F(1, 5), F(1, 5)): -z})
    assert series_mul(factor, s) == BiSeries.one(5, 5, WIN)
    assert s.coefficient(F(3, 5), F(3, 5)) == root_of_unity(3, 5)


def test_geom_expand_rejects_bad_annulus():
    with pytest.raises(NonExpandableError):
        geom_expand(F(1, 5), F(-1, 5), 1, WIN)
    with pytest.raises(NonExpandableError):
        geom_expand(F(-1, 5), 0, 1, WIN)
    with pytest.raises(NonExpandableError):
        geom_expand(0, 0, 1, WIN)


def test_coefficient_queries():
    s = geom_expand(F(1, 5), F(2, 5), 1, WIN)
    assert s.coefficient(0, 0) == CycNum.one(1)
    with pytest.raises(OutOfWindowError):
        s.coefficient(3, 0)
    # off-lattice exponents are simply zero
    assert s.coefficient(F(1, 7), 0).is_zero()


def test_window_mismatch():
    other = Windows.make(1, -1, 1)
    with pytest.raises(WindowMismatchError):
        series_mul(BiSeries.one(5, 1, WIN), BiSeries.one(5, 1, other))


def test_mul_commutative_and_associative():
    # with non-negative exponents truncation is absorbing, so the product is
    # associative on the window; mixed-sign exponents only commute after a
    # final restriction (covered by the next test)
    rng = random.Random(11)

    def rand_series():
        entries = {}
        for _ in range(rng.randint(1, 6)):
            eq = F(rng.randint(0, 10), 5)
            ey = F(rng.randint(0, 15), 5)
            entries[(eq, ey)] = rng.randint(-3, 3)
        return poly(entries)

    for _ in range(10):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert series_mul(a, b) == series_mul(b, a)
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


def test_restrict_then_multiply_matches_multiply_then_restrict():
    # restricting to a smaller window commutes with multiplication on that window
    big = Windows.make(2, -6, 6)
    small = Windows.make(1, -2, 2)
    rng = random.Random(3)
    for _ in range(10):
        entries_a = {
            (F(rng.randint(0, 8), 4), F(rng.randint(-8, 8), 4)): rng.randint(-2, 2)
            for _ in range(5)
        }
        entries_b = {
            (F(rng.randint(0, 4), 4), F(rng.randint(-4, 4), 4)): rng.randint(-2, 2)
            for _ in range(4)
        }
        # factors supported inside the small window multiply identically
        a_small = BiSeries.from_terms(4, 1, small, entries_a)
        b_small = BiSeries.from_terms(4, 1, small, entries_b)
        a_big = BiSeries.from_terms(4, 1, big, dict(a_small.rational_terms()))
        b_big = BiSeries.from_terms(4, 1, big, dict(b_small.rational_terms()))
        lhs = series_mul(a_big, b_big).restricted(small)
        rhs = series_mul(a_small, b_small)
        assert lhs.rational_terms() == rhs.rational_terms()


def test_shift_and_conductor_lift():
    s = poly({(0, F(1, 5)): 2})
    shifted = s.shifted(F(1, 5), F(-3, 5))
    assert shifted.rational_terms() == {(F(1, 5), F(-2, 5)): F(2)}
    z = root_of_unity(1, 2)
    t = BiSeries.from_terms(2, 2, WIN, {(0, F(1, 2)): z})
    u = s.lift(10, 2) + t.lift(10, 2)
    assert u.coefficient(0, F(1, 5)) == CycNum.from_rational(2, 2)
    assert u.coefficient(0, F(1, 2)) == root_of_unity(1, 2)


def test_to_json_requires_rational():
    z = root_of_unity(1, 5)
    s = BiSeries.from_terms(5, 5, WIN, {(0, 0): z})
    with pytest.raises(Exception):
        s.to_json_dict()
    ok = poly({(0, F(2, 5)): F(3, 2)})
    data = ok.to_json_dict()
    assert data["terms"] == [{"q": "0", "y": "2/5", "re": "3/2"}]
    assert data["qmax"] == "2"
