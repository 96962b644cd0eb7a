import dataclasses
import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orbigenus import _engine, genus, verify
from orbigenus.cli import main
from orbigenus.exactmath import lcm
from orbigenus.potential import compute_charges, transpose_potential
from orbigenus.symmetry import (
    dual_group,
    grading_subgroup,
    sl_subgroup,
)
from orbigenus.verify import (
    check_jacobi_transformations,
    check_mirror,
    check_spectral_flow,
    check_star_substitution,
    holomorphy_certificate,
)

from helpers import (
    ATOMS,
    CUBIC,
    K3_CHAIN,
    LOOP_K3,
    QUINTIC,
    TWO_SQUARES,
    cy_potentials,
    potential_from_atoms,
    reference_jacobian_middle_dimension,
    reference_sector_zero_orders,
    sector_pole,
)

F = Fraction


def test_holomorphy_quintic_grading_group():
    report = holomorphy_certificate(QUINTIC, grading_subgroup(QUINTIC))
    assert report.passed
    assert report.pairs_total == 25
    # five self-power atoms, 5x5 projected twist combinations each
    assert report.combos_checked == 125


def test_holomorphy_quintic_sl():
    report = holomorphy_certificate(QUINTIC, sl_subgroup(QUINTIC))
    assert report.passed
    assert report.pairs_total == 625**2
    assert report.combos_checked == 125


def test_holomorphy_loop_atoms():
    report = holomorphy_certificate(LOOP_K3, grading_subgroup(LOOP_K3))
    assert report.passed
    # a loop of two variables and two self-power atoms, J of order 4
    assert report.combos_checked == 3 * 4**2


def test_holomorphy_chain_atoms():
    report = holomorphy_certificate(K3_CHAIN, grading_subgroup(K3_CHAIN))
    assert report.passed
    assert report.combos_checked == 48


def test_holomorphy_dual_chain():
    pd = transpose_potential(K3_CHAIN)
    gd = dual_group(K3_CHAIN, grading_subgroup(K3_CHAIN))
    report = holomorphy_certificate(pd, gd)
    assert report.passed
    assert report.pairs_total == gd.order**2


def test_holomorphy_all_admissible_test_pairs():
    for p in (TWO_SQUARES, CUBIC, QUINTIC, K3_CHAIN, LOOP_K3):
        for g in (grading_subgroup(p), sl_subgroup(p)):
            assert holomorphy_certificate(p, g).passed


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(potential=cy_potentials(max_det=4000), group_name=st.sampled_from(["J", "SL"]))
def test_holomorphy_generated_models_and_duals(potential, group_name):
    group = (grading_subgroup if group_name == "J" else sl_subgroup)(potential)
    assert holomorphy_certificate(potential, group).passed
    dual = dual_group(potential, group)
    assert holomorphy_certificate(transpose_potential(potential), dual).passed


def _atom_charges(kind, exponents):
    return compute_charges(potential_from_atoms([(kind, exponents)])).q


def test_sector_pole_k3_chain_non_symmetry_twist():
    # x1^3 x2 + x2^4 twisted by (1/7, 1/7), which is not a symmetry
    qs = _atom_charges("chain", (3, 4))
    tn, tn1 = (F(1, 7), F(1, 7)), (F(0), F(0))
    a, b, order = sector_pole(qs, tn, tn1)
    assert order > 0
    assert reference_sector_zero_orders(qs, tn, tn1)[(a, b)] == order


def test_sector_pole_loop_non_symmetry_twist_is_holomorphic():
    # x1^2 x2 + x2^2 x1: not a symmetry twist, yet every zero cancels
    qs = _atom_charges("loop", (2, 2))
    tn, tn1 = (F(0), F(1, 3)), (F(1, 3), F(0))
    assert sector_pole(qs, tn, tn1) is None
    assert max(reference_sector_zero_orders(qs, tn, tn1).values()) <= 0


def _random_twist(draw_int, qs):
    """Rational twist entries over a denominator dividing the charge period,
    or over an arbitrary one up to twice the period; ``draw_int(lo, hi)``
    draws from lo..hi inclusive."""
    period = lcm(*(q.denominator for q in qs))
    divisors = [d for d in range(1, period + 1) if period % d == 0]
    den = divisors[draw_int(0, len(divisors) - 1)] if draw_int(0, 1) else draw_int(1, 2 * period)
    return tuple(F(draw_int(0, den - 1), den) for _ in qs)


def _agrees_with_reference(qs, tn, tn1) -> bool:
    """sector_pole's verdict against the point-by-point count; a reported
    pole must be a point with the reported order."""
    orders = reference_sector_zero_orders(qs, tn, tn1)
    pole = sector_pole(qs, tn, tn1)
    if pole is None:
        return all(order <= 0 for order in orders.values())
    a, b, order = pole
    return order > 0 and orders.get((a, b)) == order


@settings(max_examples=200, deadline=None)
@given(atom=ATOMS, data=st.data())
def test_sector_pole_matches_point_enumeration(atom, data):
    qs = _atom_charges(*atom)
    draw_int = lambda lo, hi: data.draw(st.integers(lo, hi))
    tn, tn1 = _random_twist(draw_int, qs), _random_twist(draw_int, qs)
    assert _agrees_with_reference(qs, tn, tn1)


def test_random_twists_give_poles_and_holomorphic_sectors():
    rng = random.Random(0)
    atoms = [("fermat", (5,)), ("chain", (3, 4)), ("chain", (2, 3, 4)),
             ("loop", (2, 2)), ("loop", (3, 2, 4))]
    verdicts = []
    for _ in range(200):
        qs = _atom_charges(*rng.choice(atoms))
        tn, tn1 = _random_twist(rng.randint, qs), _random_twist(rng.randint, qs)
        assert _agrees_with_reference(qs, tn, tn1)
        verdicts.append(sector_pole(qs, tn, tn1) is None)
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


def test_jacobi_two_squares():
    verdict = check_jacobi_transformations(TWO_SQUARES, grading_subgroup(TWO_SQUARES), samples=5)
    assert verdict.status == "pass"
    assert verdict.max_residual < 1e-6


def test_jacobi_cubic():
    """The cubic's genus vanishes identically, so its Jacobi check passes
    whatever the laws say; what holds is that it reads 0 at the samples."""
    phi = genus.NumericGenus(CUBIC, grading_subgroup(CUBIC))
    for z, tau in verify._sample_points(5, 0):
        assert abs(phi(z, tau, retries=0).value) < 1e-12


def test_jacobi_k3_chain_sl():
    """A nonvanishing model with a lattice group, so a wrong law fails."""
    group = sl_subgroup(K3_CHAIN)
    assert abs(genus.ell_genus_numeric(K3_CHAIN, group, 0.2 + 0.05j, 0.1 + 1.2j).value) > 20
    verdict = check_jacobi_transformations(K3_CHAIN, group, samples=3)
    assert verdict.status == "pass"
    assert verdict.max_residual < 1e-6


def test_jacobi_quintic():
    verdict = check_jacobi_transformations(QUINTIC, grading_subgroup(QUINTIC), samples=3, tol=1e-5)
    assert verdict.status == "pass"
    assert verdict.max_residual < 1e-5


def test_mirror_series_quintic():
    verdict = check_mirror(QUINTIC, grading_subgroup(QUINTIC), qmax=1)
    assert verdict.status == "pass"
    assert verdict.max_residual == "exact"


def test_mirror_series_cubic_and_k3():
    assert check_mirror(CUBIC, grading_subgroup(CUBIC), qmax=2).status == "pass"
    assert check_mirror(K3_CHAIN, grading_subgroup(K3_CHAIN), qmax=1).status == "pass"


def test_mirror_compares_every_computed_term(monkeypatch):
    """A dual series that lost its |y| >= 2 terms, and reports the window
    that ycap=1/10 gives at its reach of 1/2, fails on the first lost term:
    no reported window hides a term either series computed."""
    series = genus.ell_genus_series
    j = grading_subgroup(QUINTIC)
    narrow = F(1, 10) + genus.WIDEN_STEP
    assert narrow < F(5, 2)

    def corrupted(potential, group, qmax=None, ycap=None):
        out = series(potential, group, qmax=qmax, ycap=ycap)
        if group == j:
            return out
        terms = {key: c for key, c in out.terms.items() if abs(key[1]) < 2}
        return dataclasses.replace(out, terms=terms, ycap=narrow, boundary_margin=narrow - F(1, 2))

    monkeypatch.setattr(verify, "ell_genus_series", corrupted)
    verdict = check_mirror(QUINTIC, j, qmax=1)
    assert verdict.status == "fail"
    assert verdict.details[0] == {"q": "1", "y": "-5/2", "lhs": "100", "rhs": "0"}


def test_star_substitution():
    assert check_star_substitution(TWO_SQUARES, grading_subgroup(TWO_SQUARES)).status == "pass"
    assert check_star_substitution(CUBIC, grading_subgroup(CUBIC)).status == "pass"
    v = check_star_substitution(QUINTIC, grading_subgroup(QUINTIC), tol=1e-5)
    assert v.status == "pass"


def test_spectral_flow():
    assert check_spectral_flow(TWO_SQUARES, grading_subgroup(TWO_SQUARES)).status == "pass"
    assert check_spectral_flow(CUBIC, grading_subgroup(CUBIC)).status == "pass"
    v = check_spectral_flow(QUINTIC, grading_subgroup(QUINTIC), tol=1e-5)
    assert v.status == "pass"


def test_check_evaluates_each_point_once(monkeypatch, capsys):
    """A default check on the quintic with SL: jacobi evaluates 25 points,
    star 5 of the model and 5 of its dual, flow only points already seen."""
    sums = []
    double_sum = _engine.double_sum

    def counted(ring, *args):
        if isinstance(ring, genus._ThetaRing):
            sums.append((ring.z, ring.theta.tau))
        return double_sum(ring, *args)

    monkeypatch.setattr(_engine, "double_sum", counted)
    verify._genus.cache_clear()
    main(["check", "--potential", "x1^5+x2^5+x3^5+x4^5+x5^5", "--group", "SL"])
    capsys.readouterr()
    assert len(sums) == 35


def test_jacobian_ring_count():
    assert reference_jacobian_middle_dimension([5, 5, 5, 5, 5]) == 101
    # cubic curve: one middle-dimensional class
    assert reference_jacobian_middle_dimension([3, 3, 3]) == 1
    # an independent count: it reads nothing from the package
    used = inspect.getclosurevars(reference_jacobian_middle_dimension).globals.values()
    assert not any(getattr(v, "__module__", "").startswith("orbigenus") for v in used)
