"""The exact engine's packed series product, Galois deposit and
recurrence-built factors against the term-pair reference arithmetic in
``helpers``."""

from dataclasses import replace
from fractions import Fraction
from math import floor, gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    K3_CHAIN,
    QUINTIC,
    pairings,
    reference_series_mul,
    reference_variable_factor,
)
from orbigenus import _contract, _engine, genus
from orbigenus.exactmath import _power_rows, euler_phi, lcm
from orbigenus.genus import _build_context, ell_genus_series
from orbigenus.potential import compute_charges, parse_potential
from orbigenus.symmetry import grading_subgroup, sl_subgroup

CONDUCTORS = (1, 4, 5, 8, 12, 16)  # phi = 1, 2, 4, 4, 4, 8


def make_context(conductor, ylo, yhi):
    """A context on q-rows 0 .. len(yhi) - 1, row kq cut to [ylo, yhi[kq]]."""
    return _engine.SeriesContext(
        conductor=conductor,
        phi=euler_phi(conductor),
        denominator=1,
        qcap=len(yhi) - 1,
        ylo=ylo,
        yhi=tuple(yhi),
        charges=(),
        moduli=(),
    )


def is_rational(series):
    return all(not any(vec[1:]) for vec in series.values())


def ring_mul(a, b, ctx):
    """a * b through the exact ring's multiplication, as a series dict.

    Each operand and the product must have width 1, one packed slot per
    term, exactly when every vector of it is zero beyond slot 0."""
    ring = _engine._ExactRing(ctx)
    lifted = ring.lift(a), ring.lift(b)
    for operand, series in zip(lifted, (a, b)):
        assert operand.width == (1 if is_rational(series) else ctx.phi)
    product = ring.mul(*lifted)
    out = ring.finish(product)
    assert product.width == (1 if is_rational(out) else ctx.phi)
    return out


coefficients = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**80), 2**80),
    st.sampled_from([2**80, -(2**80), 2**31 - 1, -(2**31), 2**63 - 1, -(2**63)]),
)


@st.composite
def ceilings(draw, qcap, ylo):
    """Non-increasing row ceilings from a first row in [ylo, 12]: flat,
    falling by random steps, or falling below ylo before row qcap."""
    kind = draw(st.sampled_from(["flat", "steep", "below"]))
    drop = st.just(0) if kind == "flat" else st.integers(0, 8)
    rows = [draw(st.integers(ylo, 12))]
    for _ in range(qcap):
        rows.append(rows[-1] - draw(drop))
    if kind == "below" and qcap:
        r = draw(st.integers(1, qcap))
        rows[r:] = [min(y, ylo - 1 - i) for i, y in enumerate(rows[r:])]
    return rows


@st.composite
def windows(draw):
    conductor = draw(st.sampled_from(CONDUCTORS))
    qcap = draw(st.integers(0, 5))
    ylo = draw(st.integers(-12, 0))
    return make_context(conductor, ylo, draw(ceilings(qcap, ylo)))


@st.composite
def series(draw, ctx, max_terms=12):
    """Terms on the y-sublattice offset + step*Z, keys reaching the window
    edges and a little beyond them; about half the series are rational,
    every vector zero beyond slot 0."""
    step = draw(st.sampled_from([1, 1, 2, 3, 4, 6]))
    offset = draw(st.integers(0, step - 1))
    kq = st.one_of(st.sampled_from([0, ctx.qcap]), st.integers(0, ctx.qcap + 1))
    ky = st.one_of(
        st.sampled_from([ctx.ylo, *ctx.yhi]), st.integers(ctx.ylo - 4, ctx.yhi[0] + 4)
    ).map(lambda y: y - (y - offset) % step)
    small = draw(st.booleans())
    coeff = st.integers(-3, 3) if small else coefficients
    if draw(st.booleans()):
        vec = coeff.map(lambda c: [c] + [0] * (ctx.phi - 1))
    else:
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
    ctx = make_context(conductor, -10, (10,) * 3)
    a = {(0, y): [c] + [0] * (ctx.phi - 1) for y in range(terms)}
    b = {(1, y): [c2] + [0] * (ctx.phi - 1) for y in range(terms)}
    product = ring_mul(a, b, ctx)
    assert product[(1, terms - 1)][0] == terms * c * c2
    assert product == reference_series_mul(a, b, ctx)


@pytest.mark.parametrize("c, c2, terms", [(5, 17, 3), (-5, 17, 3), (255, 1, 1), (-(2**32), 2**32, 1)])
def test_series_mul_reaches_slot_bound_in_wide_cells(c, c2, terms):
    """The same bound for zeta times rational rows at N = 5, packed in
    cells of 2*phi-1 slots: the central coefficient lands in slot 2."""
    ctx = make_context(5, -10, (10,) * 3)
    a = {(0, y): [0, c, 0, 0] for y in range(terms)}
    b = {(1, y): [0, c2, 0, 0] for y in range(terms)}
    product = ring_mul(a, b, ctx)
    assert product[(1, terms - 1)] == [0, 0, terms * c * c2, 0]
    assert product == reference_series_mul(a, b, ctx)


def test_series_mul_dense_sublattice_rows():
    """Full rows on the even sublattice against odd-coset rows, N = 12."""
    ctx = make_context(12, -20, (20,) * 5)
    a = {(q, y): [y - q, 2**70, -3, q * y] for q in range(5) for y in range(-10, 11, 2)}
    b = {(q, y): [-(2**40), q, y, 1] for q in range(3) for y in range(-9, 10, 2)}
    assert ring_mul(a, b, ctx) == reference_series_mul(a, b, ctx)


@pytest.mark.parametrize("conductor", [4, 12])
def test_series_mul_rational_by_accident(conductor):
    """zeta^k A times zeta^-k B, A and B rational, at every k: operands of
    width phi (for k != 0) whose product is rational, so it has width 1."""
    ctx = make_context(conductor, -6, (6,) * 4)
    roots = _power_rows(conductor)
    for k in range(conductor):
        up, down = roots[k], roots[-k % conductor]
        a = {(0, 0): list(up), (0, 1): [2 * c for c in up], (1, -2): [-3 * c for c in up]}
        b = {(0, -1): list(down), (1, 3): [5 * c for c in down], (2, 0): [-c for c in down]}
        product = ring_mul(a, b, ctx)
        assert product == reference_series_mul(a, b, ctx)
        assert product and is_rational(product), k


WEIGHTED_K3 = parse_potential("x1^2+x2^3+x3^7+x4^42")
DEPOSIT_MODELS = {  # conductor: a model whose J and SL sums run at it
    4: parse_potential("x1^4+x2^4+x3^4+x4^4"),
    5: QUINTIC,
    8: parse_potential("x1^8+x2^8+x3^4+x4^2"),
    12: parse_potential("x1^3+x2^4+x3^4+x4^6"),
    42: WEIGHTED_K3,
}


@pytest.mark.parametrize("conductor", sorted(DEPOSIT_MODELS))
def test_summed_deposit_map_is_sum_of_unit_maps(conductor):
    """The deposit of a product's orbit images uses one map per unit set,
    the literal sum of the substitutions x -> x^u: for every unit set the
    contraction emits on the model's J and SL sums, on each pairing, with the
    whole left side and with the left classes of the folded genus sum."""
    potential = DEPOSIT_MODELS[conductor]
    phi = euler_phi(conductor)
    charges = tuple(compute_charges(potential).q)
    unit_sets = set()
    setups = pairings(grading_subgroup(potential)) + pairings(sl_subgroup(potential))
    for setup in setups:
        if lcm(*setup.moduli) != conductor:
            continue
        ctx = _build_context(charges, setup.moduli, Fraction(1), Fraction(-1), Fraction(1),
                             setup.theta_max)
        ring = _engine._ExactRing(ctx)
        assert ring.units == tuple(u for u in range(1, conductor + 1) if gcd(u, conductor) == 1)
        folded = genus._inverse_classes(setup) if setup.mode_l == "D" else [setup.left]
        for classes in ([setup.left], folded):
            steps = _contract.plan(tuple(map(tuple, classes)), tuple(setup.right), setup.mode_l,
                                   setup.mode_r, setup.moduli, ring.units)[1]
            unit_sets.update(ks for _, edges in steps for _, _, ks in edges)
    assert unit_sets and any(len(ks) > 1 for ks in unit_sets)

    def dense(row):
        vec = [0] * phi
        for i, r in row:
            vec[i] += r
        return vec

    for ks in unit_sets:
        summed = _engine._summed_substitution(conductor, ks)
        assert len(summed) == conductor
        for k, row in enumerate(summed):
            expected = [sum(col) for col in zip(
                *(dense(_engine._substitution(conductor, u)[k]) for u in ks))]
            assert dense(row) == expected, (ks, k)
            assert all(r for _, r in row), (ks, k)


def test_weighted_k3_at_the_widest_cell():
    """Conductor 42, phi = 12: a cell of 23 slots for two non-rational
    operands.  The genus is 2 phi_{0,1}."""
    g = ell_genus_series(WEIGHTED_K3, grading_subgroup(WEIGHTED_K3), qmax=1)
    assert g.terms == {
        (0, -1): 2, (0, 0): 20, (0, 1): 2,
        (1, -2): 20, (1, -1): -128, (1, 0): 216, (1, 1): -128, (1, 2): 20,
    }


@pytest.mark.parametrize("potential", [QUINTIC, K3_CHAIN])
@pytest.mark.parametrize("ylo, yhi", [(-8, 12), (-2, 2), (-40, -3), (3, 40)])
def test_variable_factor_cut_windows(potential, ylo, yhi):
    """Windows that cut binomials and towers, or keep no tower term at s = 0."""
    charges = tuple(compute_charges(potential).q)
    moduli = grading_subgroup(potential).coordinate_moduli()
    theta_max = tuple(Fraction(m - 1, m) for m in moduli)
    ctx = _build_context(charges, moduli, Fraction(2), Fraction(-1), Fraction(1), theta_max)
    ctx = replace(ctx, ylo=ylo, yhi=(yhi,) * (ctx.qcap + 1))
    assert_factors_match_reference(ctx)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(potential=st.sampled_from([QUINTIC, K3_CHAIN]), data=st.data())
def test_variable_factor_sloped_ceilings(potential, data):
    """Ceilings floor(top - rate kq), the shape of ``_build_context``'s:
    flat, falling slower than some towers or faster than all, and falling
    below ylo before row qcap."""
    charges = tuple(compute_charges(potential).q)
    moduli = grading_subgroup(potential).coordinate_moduli()
    theta_max = tuple(Fraction(m - 1, m) for m in moduli)
    ctx = _build_context(charges, moduli, Fraction(2), Fraction(-1), Fraction(1), theta_max)
    d = ctx.denominator
    ylo = data.draw(st.integers(-3 * d, 0), label="ylo")
    top = data.draw(st.integers(ylo, 3 * d), label="top")
    rate = data.draw(st.one_of(st.just(Fraction(0)), st.fractions(0, 4, max_denominator=7)),
                     label="rate")
    yhi = tuple(floor(top - rate * kq) for kq in range(ctx.qcap + 1))
    assert_factors_match_reference(replace(ctx, ylo=ylo, yhi=yhi))


def assert_factors_match_reference(ctx):
    ring = _engine._ExactRing(ctx)
    for j, m in enumerate(ctx.moduli):
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
    assert_factors_match_reference(ctx)
