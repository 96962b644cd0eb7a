"""The exact engine's packed series product and recurrence-built factors
against the term-pair reference arithmetic in ``helpers``."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    K3_CHAIN,
    QUINTIC,
    reference_series_mul,
    reference_variable_factor,
)
from orbigenus import _engine
from orbigenus.exactmath import euler_phi
from orbigenus.genus import _build_context
from orbigenus.potential import compute_charges
from orbigenus.symmetry import grading_subgroup, sl_subgroup

CONDUCTORS = (1, 4, 5, 8, 12, 16)  # phi = 1, 2, 4, 4, 4, 8


def make_context(conductor, qcap, ylo, yhi):
    return _engine.SeriesContext(
        conductor=conductor,
        phi=euler_phi(conductor),
        rows=_engine._sparse_rows(conductor),
        denominator=1,
        qcap=qcap,
        ylo=ylo,
        yhi=yhi,
        charges=(),
        moduli=(),
    )


def ring_mul(a, b, ctx):
    """a * b through the exact ring's multiplication, as a series dict."""
    ring = _engine._ExactRing(ctx)
    return ring.finish(ring.mul(ring.lift(a), ring.lift(b)))


coefficients = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**80), 2**80),
    st.sampled_from([2**80, -(2**80), 2**31 - 1, -(2**31), 2**63 - 1, -(2**63)]),
)


@st.composite
def windows(draw):
    conductor = draw(st.sampled_from(CONDUCTORS))
    qcap = draw(st.integers(0, 5))
    ylo = draw(st.integers(-12, 0))
    yhi = draw(st.integers(ylo, 12))
    return make_context(conductor, qcap, ylo, yhi)


@st.composite
def series(draw, ctx, max_terms=12):
    """Terms on the y-sublattice offset + step*Z, keys reaching the window
    edges and a little beyond them."""
    step = draw(st.sampled_from([1, 1, 2, 3, 4, 6]))
    offset = draw(st.integers(0, step - 1))
    kq = st.one_of(st.sampled_from([0, ctx.qcap]), st.integers(0, ctx.qcap + 1))
    ky = st.one_of(
        st.sampled_from([ctx.ylo, ctx.yhi]), st.integers(ctx.ylo - 4, ctx.yhi + 4)
    ).map(lambda y: y - (y - offset) % step)
    small = draw(st.booleans())
    coeff = st.integers(-3, 3) if small else coefficients
    vec = st.lists(coeff, min_size=ctx.phi, max_size=ctx.phi)
    return draw(st.dictionaries(st.tuples(kq, ky), vec, max_size=max_terms))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_series_mul_matches_pair_loop(data):
    ctx = data.draw(windows())
    a = data.draw(series(ctx))
    b = data.draw(series(ctx))
    assert ring_mul(a, b, ctx) == reference_series_mul(a, b, ctx)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_series_mul_empty_and_single_terms(data):
    ctx = data.draw(windows())
    a = data.draw(series(ctx, max_terms=1))
    b = data.draw(series(ctx))
    assert ring_mul(a, b, ctx) == reference_series_mul(a, b, ctx)
    assert ring_mul(b, a, ctx) == reference_series_mul(b, a, ctx)
    assert ring_mul({}, b, ctx) == {}


@pytest.mark.parametrize("conductor", [1, 5])
@pytest.mark.parametrize("c, c2, terms", [(5, 17, 3), (-5, 17, 3), (255, 1, 1), (-(2**32), 2**32, 1)])
def test_series_mul_reaches_slot_bound(conductor, c, c2, terms):
    """Aligned rows whose central coefficient equals the slot-width bound
    max|a| * max|b| * min(nnz), at and around byte and word boundaries."""
    ctx = make_context(conductor, 2, -10, 10)
    a = {(0, y): [c] + [0] * (ctx.phi - 1) for y in range(terms)}
    b = {(1, y): [c2] + [0] * (ctx.phi - 1) for y in range(terms)}
    product = ring_mul(a, b, ctx)
    assert product[(1, terms - 1)][0] == terms * c * c2
    assert product == reference_series_mul(a, b, ctx)


def test_series_mul_dense_sublattice_rows():
    """Full rows on the even sublattice against odd-coset rows, N = 12."""
    ctx = make_context(12, 4, -20, 20)
    a = {(q, y): [y - q, 2**70, -3, q * y] for q in range(5) for y in range(-10, 11, 2)}
    b = {(q, y): [-(2**40), q, y, 1] for q in range(3) for y in range(-9, 10, 2)}
    assert ring_mul(a, b, ctx) == reference_series_mul(a, b, ctx)


@pytest.mark.parametrize("potential", [QUINTIC, K3_CHAIN])
@pytest.mark.parametrize("ylo, yhi", [(-8, 12), (-2, 2), (-40, -3), (3, 40)])
def test_variable_factor_cut_windows(potential, ylo, yhi):
    """Windows that cut binomials and towers, or keep no tower term at s = 0."""
    charges = tuple(compute_charges(potential).q)
    moduli = grading_subgroup(potential).coordinate_moduli()
    theta_max = tuple(Fraction(m - 1, m) for m in moduli)
    ctx = _build_context(charges, moduli, Fraction(2), Fraction(-1), Fraction(1), theta_max)
    ctx = replace(ctx, ylo=ylo, yhi=yhi)
    ring = _engine._ExactRing(ctx)
    for j, m in enumerate(moduli):
        for a in range(m):
            for b in range(m):
                expected = reference_variable_factor(ctx, j, a, b)
                assert ring.factor(j, a, b) == expected, (j, a, b)


@pytest.mark.parametrize(
    "potential, group",
    [(QUINTIC, grading_subgroup), (K3_CHAIN, grading_subgroup), (K3_CHAIN, sl_subgroup)],
)
def test_variable_factor_matches_seed_construction(potential, group):
    charges = tuple(compute_charges(potential).q)
    moduli = group(potential).coordinate_moduli()
    qmax = Fraction(3)
    theta_max = tuple(Fraction(m - 1, m) for m in moduli)
    ctx = _build_context(charges, moduli, qmax, Fraction(-3), Fraction(5), theta_max)
    ring = _engine._ExactRing(ctx)
    for j, m in enumerate(moduli):
        for a in range(m):
            for b in range(m):
                expected = reference_variable_factor(ctx, j, a, b)
                assert ring.factor(j, a, b) == expected, (j, a, b)
