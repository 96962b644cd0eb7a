"""The one-pass genus window.

The genus is a weak Jacobi form of index m = cbar/2, so its q^n y^r
coefficient vanishes unless r^2 <= m^2 + 4nm.  ``ell_genus_series`` sizes a
single double sum from that bound and reads the reported window off it; these
tests compare it with a pass at the window the widening schedule ends on.
They also compare the sum on its work window, whose ceiling falls row by row
in q, with the same sum on a rectangle of the row-0 height.
"""

from dataclasses import replace
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    CUBIC,
    K3_CHAIN,
    LOOP_K3,
    QUINTIC,
    TWO_SQUARES,
    cy_potentials,
    d_left_orbifolds,
    q_slice,
)
from orbigenus import JacobiBoundError, genus
from orbigenus.cli import main
from orbigenus.exactmath import lcm
from orbigenus.genus import (
    MAX_WIDEN,
    WindowCertificationError,
    _genus_rational_terms,
    default_y_cap,
    ell_genus_series,
    jacobi_reach,
)
from orbigenus.potential import compute_charges, parse_potential, transpose_potential
from orbigenus.symmetry import SymmetryGroup, dual_group, grading_subgroup, sl_subgroup

F = Fraction

MODELS = {"quintic": QUINTIC, "cubic": CUBIC, "two-squares": TWO_SQUARES,
          "k3-chain": K3_CHAIN, "loop-k3": LOOP_K3}
K3_FERMAT = parse_potential("x1^4+x2^4+x3^4+x4^4")


def group_of(potential, name):
    return grading_subgroup(potential) if name == "J" else sl_subgroup(potential)


def in_jacobi_bound(terms, central_charge):
    m = central_charge / 2
    return all(ey * ey <= m * m + 4 * eq * m for (eq, ey) in terms)


def counted_passes(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _genus_rational_terms(*args)

    monkeypatch.setattr(genus, "_genus_rational_terms", counted)
    return calls


def pass_denominator(potential, group, qmax, ycap):
    """The exponent denominator of a pass on |y| <= ycap: y runs over
    [m - ycap, m + ycap] before the shift by m = cbar/2, and every exponent
    is a multiple of 1/2, of a twist 1/m_j, of qmax or of a charge."""
    charges = compute_charges(potential)
    m = charges.central_charge / 2
    return lcm(2, *group.coordinate_moduli(), F(qmax).denominator, (m - ycap).denominator,
               (m + ycap).denominator, *(q.denominator for q in charges.q))


def assert_one_pass_matches_wide(potential, group, qmax):
    """One pass, and the same terms, window, margin and D as a pass at the
    window the widening schedule ends on."""
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_passes(mp)
        series = ell_genus_series(potential, group, qmax)
    assert len(calls) == 1
    cbar = compute_charges(potential).central_charge
    wide = _genus_rational_terms(potential, group, F(qmax), series.ycap)
    assert in_jacobi_bound(wide, cbar)
    assert series.terms == wide
    assert series.denominator == pass_denominator(potential, group, qmax, series.ycap)
    reach = max((abs(ey) for (_, ey) in wide), default=F(0))
    assert series.boundary_margin == series.ycap - reach >= 1
    # weight 0: the value at z = 0 is the constant Witten index
    assert all(sum(q_slice(series, n).values()) == 0 for n in range(1, qmax + 1))
    return series


# q^1..q^4 for every model and group, except the loop K3 with SL beyond q^2:
# its pair of passes takes 6-11 s at q^3-q^4
MODEL_CASES = [(model, group, qmax) for model in sorted(MODELS) for group in ("J", "SL")
               for qmax in (1, 2, 3, 4) if not (model == "loop-k3" and group == "SL" and qmax > 2)]


@pytest.mark.parametrize("model,group_name,qmax", MODEL_CASES)
def test_one_pass_matches_wide_window_on_models(model, group_name, qmax):
    potential = MODELS[model]
    series = assert_one_pass_matches_wide(potential, group_of(potential, group_name), qmax)
    assert series.ycap == default_y_cap(potential, F(qmax))


@st.composite
def genus_cases(draw):
    """A generated Calabi-Yau potential, J or SL, and qmax <= 2.  The charge
    denominators bound the default window and the phase conductor, and the
    representative count the double sum, so the reference pass stays cheap."""
    p = draw(cy_potentials(600))
    assume(lcm(*(q.denominator for q in compute_charges(p).q)) <= 12)
    group = group_of(p, draw(st.sampled_from(["J", "SL"])))
    assume(len(genus._sum_setup(group).right) <= 16)
    return p, group, draw(st.sampled_from([1, 2]))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(genus_cases())
def test_one_pass_matches_wide_window_on_generated_models(case):
    assert_one_pass_matches_wide(*case)


@pytest.mark.parametrize("model,group_name,index", [
    ("quintic", "J", -200), ("quintic", "SL", 200),
    ("k3-chain", "J", 24), ("k3-chain", "SL", 24),
    ("loop-k3", "J", 24), ("loop-k3", "SL", 24),
    ("k3-fermat", "J", 24), ("k3-fermat", "SL", 24),
    ("two-squares", "J", 2),
    ("cubic", "J", 0),
])
def test_witten_index_at_q0(model, group_name, index):
    """The q^0 coefficients sum to the Witten index, the genus at z = 0."""
    potential = {**MODELS, "k3-fermat": K3_FERMAT}[model]
    series = ell_genus_series(potential, group_of(potential, group_name), qmax=0)
    assert sum(q_slice(series, 0).values()) == index


def test_narrow_start_widens_without_rerunning(monkeypatch):
    calls = counted_passes(monkeypatch)
    series = ell_genus_series(QUINTIC, grading_subgroup(QUINTIC), qmax=6, ycap=4)
    assert len(calls) == 1
    assert series.ycap == 8
    assert series.boundary_margin == F(5, 2)
    assert in_jacobi_bound(series.terms, series.central_charge)
    # the bound is tight: the reach 11/2 at q^6 is the largest r with r^2 <= 9/4 + 36
    assert max(abs(ey) for (_, ey) in series.terms) == F(11, 2)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=st.sampled_from(sorted(MODELS)), group_name=st.sampled_from(["J", "SL"]),
       qmax=st.sampled_from([1, 2]),
       ycap=st.fractions(min_value=F(1, 4), max_value=F(10), max_denominator=6))
@example(model="quintic", group_name="J", qmax=6, ycap=F(2))  # no q^n y^(3/2) term
def test_explicit_window_reports_default_terms(model, group_name, qmax, ycap):
    """An explicit window, however narrow, reports the default window's
    terms restricted to it, with the margin measured from every term."""
    potential = MODELS[model]
    group = group_of(potential, group_name)
    default = ell_genus_series(potential, group, qmax)
    series = ell_genus_series(potential, group, qmax, ycap)
    assert (series.ycap - ycap) % 2 == 0
    restricted = {key: c for key, c in default.terms.items() if abs(key[1]) <= series.ycap}
    assert series.terms == restricted
    reach = max((abs(ey) for (_, ey) in default.terms), default=F(0))
    assert series.boundary_margin == series.ycap - reach >= 1


def test_margin_equal_to_certify_margin_is_accepted():
    # q^1 reaches 5/2, so a start at 7/2 leaves exactly the certify margin 1
    series = ell_genus_series(QUINTIC, grading_subgroup(QUINTIC), qmax=1, ycap=F(7, 2))
    assert (series.ycap, series.boundary_margin) == (F(7, 2), 1)
    wide = _genus_rational_terms(QUINTIC, grading_subgroup(QUINTIC), F(1), F(7, 2))
    d = pass_denominator(QUINTIC, grading_subgroup(QUINTIC), 1, F(7, 2))
    assert (series.terms, series.denominator) == (wide, d)


@pytest.mark.parametrize("cbar,qmax,reach", [
    (3, 6, F(13, 2)),   # 9/4 + 36 = 38.25 lies between 6^2 and (13/2)^2
    (2, 8, F(6)),       # 33 lies between (11/2)^2 and 6^2
    (2, 2, F(3)),       # 9 is a square: R = 3 exactly
    (3, 0, F(3, 2)),    # q^0: R = m
    (0, 5, F(0)),       # index 0: only y^0
])
def test_jacobi_reach_exact(cbar, qmax, reach):
    assert jacobi_reach(F(cbar), F(qmax)) == reach


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(potential=cy_potentials(max_det=10**9), qmax=st.integers(0, 12))
def test_default_window_holds_the_jacobi_reach(potential, qmax):
    """a_j q_j + q_next = 1 with a_j >= 2 in an invertible potential, so every
    q_j <= 1/2, with equality only where the monomial of x_j is x_j^2; then
    m >= 0 and the default window's 1/q_j >= 2 give
    R <= m + 2 qmax <= default_y_cap."""
    charges = compute_charges(potential)
    d = potential.dimension
    for j, q in enumerate(charges.q):
        square = tuple(2 if i == j else 0 for i in range(d))
        assert q < F(1, 2) or (q == F(1, 2) and square in potential.matrix)
    cbar, qmax = charges.central_charge, F(qmax)
    assert jacobi_reach(cbar, qmax) <= cbar / 2 + 2 * qmax <= default_y_cap(potential, qmax)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(potential=cy_potentials(max_det=10**6))
def test_charge_denominators_divide_the_moduli(potential):
    """Every admissible group contains J = (q_1, ..., q_d), so den(q_j)
    divides m_j, and the conductor lcm(m_j) already holds every charge
    denominator: J and SL on W, and their duals on W^T."""
    transposed = transpose_potential(potential)
    cases = [(potential, grading_subgroup(potential)), (potential, sl_subgroup(potential))]
    cases += [(transposed, dual_group(potential, g)) for _, g in cases]
    for p, group in cases:
        moduli = group.coordinate_moduli()
        dens = [q.denominator for q in compute_charges(p).q]
        assert all(m % den == 0 for den, m in zip(dens, moduli)), (p.text, moduli)
        ctx = genus._build_context(tuple(compute_charges(p).q), moduli, F(1), F(-1), F(1),
                                   tuple(F(m - 1, m) for m in moduli))
        assert ctx.conductor == lcm(*dens, *moduli)


def test_cone_runs_at_conductor_one():
    """The cone is the sum over the trivial group: one (0, 0) pair, moduli 1."""
    qs = tuple(compute_charges(QUINTIC).q)
    setup = genus._sum_setup(SymmetryGroup.trivial(len(qs)))
    zero = (0,) * len(qs)
    assert (setup.left, setup.right, setup.mode_l, setup.mode_r) == ([zero], [zero], "D", "D")
    assert setup.weight == 1
    ctx = genus._build_context(qs, setup.moduli, F(3), F(-3), F(3), setup.theta_max)
    assert (ctx.conductor, ctx.phi) == (1, 1)


def inject_term_beyond_bound(monkeypatch):
    def with_extra_term(*args):
        terms = _genus_rational_terms(*args)
        # quintic, m = 3/2: at q^0 the bound is y^2 <= 9/4
        return {**terms, (F(0), F(2)): F(1)}

    monkeypatch.setattr(genus, "_genus_rational_terms", with_extra_term)


def test_term_beyond_bound_raises(monkeypatch):
    inject_term_beyond_bound(monkeypatch)
    with pytest.raises(JacobiBoundError) as err:
        ell_genus_series(QUINTIC, grading_subgroup(QUINTIC), qmax=1)
    assert (err.value.e_q, err.value.e_y, err.value.index) == (0, 2, F(3, 2))
    assert isinstance(err.value, ArithmeticError)


def test_term_beyond_bound_exits_one(monkeypatch, capsys):
    inject_term_beyond_bound(monkeypatch)
    code = main(["genus", "--potential", QUINTIC.text, "--qmax", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("computation failed:")
    assert "weak-Jacobi" in captured.err


@pytest.mark.parametrize("max_widen, qmax, window", [
    # no widening allowed: the start at 1/10 is the one window tried
    (0, "1", "1/10"),
    # q^12 reaches 17/2; the schedule from 1/10 ends at 1/10 + 4 * 2 = 81/10
    (MAX_WIDEN, "12", "81/10"),
])
def test_uncertified_window_names_the_last_window_tried(monkeypatch, capsys, max_widen, qmax,
                                                        window):
    monkeypatch.setattr(genus, "MAX_WIDEN", max_widen)
    with pytest.raises(WindowCertificationError, match=f"up to ycap={window}$"):
        ell_genus_series(QUINTIC, grading_subgroup(QUINTIC), qmax=F(qmax), ycap=F(1, 10))
    code = main(["genus", "--potential", QUINTIC.text, "--qmax", qmax, "--ywin", "1/10"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        f"computation failed: no vanishing boundary band of width 1 up to ycap={window}\n")


def rectangular_terms(potential, group, qmax):
    """``_genus_rational_terms`` at qmax on the strip of ``ell_genus_series``,
    once on the trapezoid of ``_build_context`` and once on a rectangle:
    every row's ceiling at the constant ceil((st_hi + free + qmax rate) d)
    of the row-0 bound."""
    ycap = jacobi_reach(compute_charges(potential).central_charge, qmax) + genus.CERTIFY_MARGIN
    build = genus._build_context

    def rectangle(charges, moduli, qmax, st_lo, st_hi, theta_max):
        ctx = build(charges, moduli, qmax, st_lo, st_hi, theta_max)
        free, rate = genus._negative_capacity(charges, theta_max)
        top = ceil((st_hi + free + qmax * rate) * ctx.denominator)
        assert ctx.yhi[0] <= top and ctx.yhi[-1] < top
        return replace(ctx, yhi=(top,) * (ctx.qcap + 1))

    trapezoid = _genus_rational_terms(potential, group, qmax, ycap)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(genus, "_build_context", rectangle)
        flat = _genus_rational_terms(potential, group, qmax, ycap)
    return trapezoid, flat


@pytest.mark.parametrize("group", ["J", "SL"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_trapezoid_equals_rectangle_on_the_strip(name, group):
    """The per-row ceiling cuts nothing that reaches the strip: the genus
    sum at q^2, folded where it folds, is the rectangle's term for term."""
    potential = MODELS[name]
    trapezoid, flat = rectangular_terms(potential, group_of(potential, group), F(2))
    assert trapezoid == flat


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(d_left_orbifolds())
def test_trapezoid_equals_rectangle_on_generated_models(case):
    potential, group = case
    trapezoid, flat = rectangular_terms(potential, group, F(1))
    assert trapezoid == flat
