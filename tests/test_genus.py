import cmath
import gc
from fractions import Fraction

import pytest

from orbigenus import genus
from orbigenus.genus import (
    NearPoleError,
    NumericGenus,
    cone_supertrace_series,
    ell_genus_numeric,
    ell_genus_series,
    sector_supertrace_series,
    sector_value_from_coords,
)
from orbigenus.potential import compute_charges, parse_potential
from orbigenus.qseries import Windows
from orbigenus.symmetry import (
    PhaseVector,
    grading_element,
    grading_subgroup,
    sl_subgroup,
)
from orbigenus.theta import ThetaKernel, ThetaRangeError

from helpers import (
    CUBIC,
    K3_CHAIN,
    LOOP_K3,
    QUINTIC,
    TWO_SQUARES,
    q_slice,
    reference_rational_terms,
    reference_sector_pair_series,
)

F = Fraction


def test_cone_single_variable_slices():
    w = Windows.make(1, -2, 2)
    s = cone_supertrace_series([F(1, 5)], w)
    q0 = {k[1]: v for k, v in s.items() if k[0] == 0}
    assert q0 == {F(0): 1, F(1, 5): 1, F(2, 5): 1, F(3, 5): 1}
    s2 = cone_supertrace_series([F(1, 2)], w)
    q0 = {k[1]: v for k, v in s2.items() if k[0] == 0}
    assert q0 == {F(0): 1}


def test_cone_quintic_q0_is_fifth_power():
    w = Windows.make(0, 0, 4)
    s = cone_supertrace_series(compute_charges(QUINTIC), w)
    # product of five single-variable slices: coefficients of
    # (1 + y^(1/5) + y^(2/5) + y^(3/5))^5
    poly = [1]
    for _ in range(5):
        new = [0] * (len(poly) + 3)
        for i, c in enumerate(poly):
            for j in range(4):
                new[i + j] += c
        poly = new
    got = {k[1]: v for k, v in s.items()}
    assert got == {F(i, 5): c for i, c in enumerate(poly) if c and i <= 20}


def test_sector_series_matches_reference_pairs():
    # engine output for one twisted sector against the term-pair reference,
    # averaged over the second twist by explicit summation
    group = grading_subgroup(QUINTIC)
    windows = Windows.make(1, -3, 3)
    j = grading_element(QUINTIC)
    conductor = 5
    engine = sector_supertrace_series(QUINTIC, group, j, windows)
    acc = {}
    for n1 in group.elements:
        ref = reference_sector_pair_series(
            QUINTIC, j.entries, n1.entries, windows, conductor
        )
        for key, vec in ref.items():
            cur = acc.setdefault(key, [0] * len(vec))
            acc[key] = [a + b for a, b in zip(cur, vec)]
    assert engine == reference_rational_terms(acc, F(1, group.order))


def test_sector_series_untwisted_equals_cone_for_trivial_group():
    from orbigenus.symmetry import SymmetryGroup

    w = Windows.make(1, -2, 2)
    charges = compute_charges(TWO_SQUARES)
    # x^2+y^2 has <J> = SL, so compare engine sector (trivial twists only)
    # against the free cone through the reference pair with zero twists
    ref = reference_sector_pair_series(
        TWO_SQUARES, (F(0), F(0)), (F(0), F(0)), w, 2
    )
    cone = cone_supertrace_series(charges, w)
    assert reference_rational_terms(ref) == cone


def test_sector_prefactor_two_squares():
    group = grading_subgroup(TWO_SQUARES)
    j = grading_element(TWO_SQUARES)
    assert sum(j.entries) == 1  # prefactor exponent deg.n = 1
    s = sector_supertrace_series(TWO_SQUARES, group, j, Windows.make(1, -2, 2))
    assert all(eq >= 0 for (eq, _) in s)


def test_sector_quintic_twisted_q0_term():
    group = grading_subgroup(QUINTIC)
    j = grading_element(QUINTIC)
    s = sector_supertrace_series(QUINTIC, group, j, Windows.make(1, -4, 4))
    assert all(eq >= 0 for (eq, _) in s)
    # the five fermion zero modes survive at q^0 against the prefactor
    assert s[(F(0), F(3))] == -1


def test_two_squares_genus_constant():
    g = ell_genus_series(TWO_SQUARES, grading_subgroup(TWO_SQUARES), qmax=2, ycap=3)
    assert g.terms == {(F(0), F(0)): F(2)}
    assert g.central_charge == 0
    assert g.boundary_margin == 3


def test_quintic_genus_q0_slice():
    g = ell_genus_series(QUINTIC, grading_subgroup(QUINTIC), qmax=1, ycap=4)
    assert q_slice(g, 0) == {F(-1, 2): F(-100), F(1, 2): F(-100)}
    assert g.central_charge == 3
    assert g.integer_coefficients
    assert all(eq >= 0 for (eq, _) in g.terms)


def test_k3_genus_slices():
    g = ell_genus_series(K3_CHAIN, grading_subgroup(K3_CHAIN), qmax=1, ycap=4)
    assert q_slice(g, 0) == {F(-1): F(2), F(0): F(20), F(1): F(2)}
    assert q_slice(g, 1) == {
        F(-2): F(20), F(-1): F(-128), F(0): F(216), F(1): F(-128), F(2): F(20),
    }


def test_cubic_genus_vanishes():
    g = ell_genus_series(CUBIC, grading_subgroup(CUBIC), qmax=2, ycap=3)
    assert g.terms == {}


def test_genus_mirror_sign_quintic():
    gj = ell_genus_series(QUINTIC, grading_subgroup(QUINTIC), qmax=1, ycap=4)
    gsl = ell_genus_series(QUINTIC, sl_subgroup(QUINTIC), qmax=1, ycap=4)
    keys = set(gj.terms) | set(gsl.terms)
    assert keys
    for key in keys:
        assert gj.terms.get(key, F(0)) == -gsl.terms.get(key, F(0))


def test_widening_reports_margin():
    g = ell_genus_series(QUINTIC, grading_subgroup(QUINTIC), qmax=1, ycap=3)
    # support reaches 5/2 at q^1, so a cap of 3 leaves margin 1/2 and widens
    assert g.ycap > 3
    assert g.boundary_margin >= 1


def test_sector_value_numeric_pole_at_origin():
    zero = PhaseVector.canonical([0] * 5)
    with pytest.raises(NearPoleError) as err:
        sector_value_from_coords(compute_charges(QUINTIC), zero.entries, zero.entries, 0.0, 1.3j)
    assert err.value.variable == 0


def test_sector_value_representative_shift_invariance():
    charges = compute_charges(QUINTIC)
    z, tau = 0.23 + 0.04j, 0.11 + 1.31j
    tn = (F(1, 5),) * 5
    tn1 = (F(2, 5),) * 5
    base = sector_value_from_coords(charges, tn, tn1, z, tau)
    shifted = tuple(t + 1 for t in tn1)
    again = sector_value_from_coords(charges, tn, shifted, z, tau)
    assert abs(base - again) < 1e-9 * max(1, abs(base))


def test_sector_cross_path_quintic():
    j = grading_element(QUINTIC)
    zero = PhaseVector.canonical([0] * 5)
    z, tau = 0.23 + 0.04j, 0.11 + 1.31j
    numeric = sector_value_from_coords(compute_charges(QUINTIC), j.entries, zero.entries, z, tau)
    windows = Windows.make(2, -8, 8)
    series = reference_sector_pair_series(
        QUINTIC, j.entries, zero.entries, windows, 5
    )
    cbar = compute_charges(QUINTIC).central_charge
    total = 0j
    for (eq, ey), vec in series.items():
        # the coefficient vector over the power basis of zeta_5, evaluated
        val = sum(c * cmath.exp(2j * cmath.pi * i / 5) for i, c in enumerate(vec))
        total += val * _expi(z, tau, ey - F(cbar, 2), eq)
    assert abs(numeric - total) < 1e-4


def _expi(z, tau, ey, eq):
    return cmath.exp(2j * cmath.pi * (z * float(ey) + tau * float(eq)))


def test_two_path_consistency():
    z, tau = 0.19 + 0.05j, 0.07 + 1.45j
    for potential, qmax, ycap, tol in (
        (TWO_SQUARES, 2, 3, 1e-8),
        (CUBIC, 2, 3, 1e-8),
        (K3_CHAIN, 1, 4, 5e-3),
    ):
        group = grading_subgroup(potential)
        series = ell_genus_series(potential, group, qmax=qmax, ycap=ycap)
        numeric = ell_genus_numeric(potential, group, z, tau)
        assert abs(series.evaluate(z, tau) - numeric.value) < tol


def test_numeric_constant_for_two_squares():
    group = grading_subgroup(TWO_SQUARES)
    values = [
        ell_genus_numeric(TWO_SQUARES, group, z, tau).value
        for z, tau in ((0.11 + 0.02j, 1.2j), (0.31, 0.8 + 1.1j), (0.27 + 0.09j, 1.02j))
    ]
    for a in values:
        for b in values:
            assert abs(a - b) < 1e-6
    assert abs(values[0] - 2) < 1e-8


def test_numeric_retry_reports_count():
    group = grading_subgroup(TWO_SQUARES)
    # z = 0 sits on the untwisted denominator zero; the ladder retries away
    result = ell_genus_numeric(TWO_SQUARES, group, 0.0, 1.3j, retries=3)
    assert result.retries >= 1
    assert abs(result.value - 2) < 1e-4
    with pytest.raises(NearPoleError):
        ell_genus_numeric(TWO_SQUARES, group, 0.0, 1.3j, retries=0)


def test_numeric_retry_keeps_its_theta_kernel(monkeypatch):
    # a retry moves z, not tau: every attempt at a point reads one kernel
    built = []

    class Counted(ThetaKernel):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(genus, "ThetaKernel", Counted)
    group = grading_subgroup(TWO_SQUARES)
    assert ell_genus_numeric(TWO_SQUARES, group, 0.0, 1.3j, retries=3).retries >= 1
    assert built == [(1.3j,)]


def test_numeric_pole_names_its_sector():
    # z = tau + 1 puts the (1/2, 1/2) sector's denominator z/2 + tau/2 + 1/2
    # on the lattice while the other sectors of J stay finite
    group = grading_subgroup(TWO_SQUARES)
    with pytest.raises(NearPoleError) as err:
        ell_genus_numeric(TWO_SQUARES, group, 1 + 1.3j, 1.3j, retries=0)
    half = (F(1, 2), F(1, 2))
    assert (err.value.variable, err.value.n, err.value.n1) == (0, half, half)
    assert ell_genus_numeric(TWO_SQUARES, group, 1 + 1.3j, 1.3j).retries == 1


@pytest.mark.parametrize("tau", [0.13 + 0.004j, -0.27 + 0.004j])
@pytest.mark.parametrize("potential, name", [(K3_CHAIN, "J"), (QUINTIC, "SL")])
def test_numeric_inversion_law_near_real_axis(potential, name, tau):
    """phi(z/tau, -1/tau) = e(c z^2 / 2 tau) phi(z, tau) at Im tau = 0.004,
    where each theta value takes 1375 product factors."""
    group = (grading_subgroup if name == "J" else sl_subgroup)(potential)
    evaluate = NumericGenus(potential, group)
    c = int(compute_charges(potential).central_charge)
    for z in (0.21 + 0.03j, 0.37 + 0.002j):
        image = evaluate(z / tau, -1 / tau, retries=0).value
        expected = cmath.exp(1j * cmath.pi * c * z * z / tau) * evaluate(z, tau, retries=0).value
        assert abs(image - expected) <= 1e-9 * max(abs(image), abs(expected)), z


def test_numeric_point_frees_its_theta_kernel():
    """No theta table outlives its point: with the cyclic collector off, no
    kernel is left once a call returns (a 1375-factor table at Im tau = 0.004)."""
    evaluate = NumericGenus(K3_CHAIN, grading_subgroup(K3_CHAIN))
    gc.collect()
    gc.disable()
    try:
        evaluate(0.2 + 0.05j, 0.1 + 0.004j)
        alive = sum(isinstance(x, ThetaKernel) for x in gc.get_objects())
    finally:
        gc.enable()
    assert alive == 0


def test_numeric_theta_out_of_range_is_typed():
    # at Im(-1/tau) = 240 some theta arguments of the image point reach
    # Im nu = -153.6, where e(nu) = e^(2 pi i nu) passes double range
    tau, z = 1j / 240, 0.3 + 0.1j
    with pytest.raises(ThetaRangeError, match="nu = .*, tau = "):
        ell_genus_numeric(QUINTIC, sl_subgroup(QUINTIC), z / tau, -1 / tau, retries=0)


# The genus at (0.2 + 0.05i, 0.1 + 1.2i), recorded before the evaluator was
# split from ell_genus_numeric; the cubic's genus vanishes.
PINNED_VALUES = {
    (QUINTIC, "J"): -163.9939535526513 + 18.41572555583524j,
    (QUINTIC, "SL"): 163.99395355265193 - 18.415725555834957j,
    (K3_CHAIN, "J"): 21.318542589953125 - 1.1586899031269284j,
    (K3_CHAIN, "SL"): 21.318542589953097 - 1.1586899031269242j,
    (LOOP_K3, "J"): 21.318542589953125 - 1.1586899031269284j,
    (LOOP_K3, "SL"): 21.31854258995308 - 1.158689903126921j,
    (CUBIC, "J"): 0j,
    (CUBIC, "SL"): 0j,
    (TWO_SQUARES, "J"): 1.9999999999999993 - 2.5667106151982484e-16j,
    (TWO_SQUARES, "SL"): 1.9999999999999993 - 2.5667106151982484e-16j,
}


@pytest.mark.parametrize("model", PINNED_VALUES)
def test_numeric_genus_evaluator_matches_ell_genus_numeric(model):
    """One evaluator called point after point gives each point's value bit
    for bit as a fresh ell_genus_numeric call does."""
    potential, name = model
    group = (grading_subgroup if name == "J" else sl_subgroup)(potential)
    evaluate = NumericGenus(potential, group)
    points = [(0.2 + 0.05j, 0.1 + 1.2j), (0.23 + 0.04j, 0.11 + 1.31j),
              (0.31 + 0.02j, -0.27 + 0.97j), (0.13 + 0.1j, 0.4 + 0.3j)]
    for z, tau in points + points[:1]:
        assert evaluate(z, tau) == ell_genus_numeric(potential, group, z, tau)
    value = evaluate(*points[0]).value
    assert abs(value - PINNED_VALUES[model]) <= 1e-12 * max(1.0, abs(value))


def test_numeric_fused_matches_direct_double_sum():
    # brute-force the double sum from per-sector values and compare with the
    # fused evaluation, for a group where the character path is exercised
    z, tau = 0.23 + 0.04j, 0.11 + 1.31j
    group = sl_subgroup(CUBIC)
    charges = compute_charges(CUBIC)
    cbar = int(charges.central_charge)
    total = 0j
    for n in group.elements:
        for n1 in group.elements:
            total += sector_value_from_coords(charges, n.entries, n1.entries, z, tau)
    total *= (-1) ** cbar / group.order
    fused = ell_genus_numeric(CUBIC, group, z, tau).value
    assert abs(total - fused) < 1e-9


def test_fused_genus_matches_sector_sum():
    # the fused double-character path against the per-sector assembly,
    # which exercises a different representation mode of the group sum
    group = sl_subgroup(CUBIC)
    qmax, ycap = F(1), F(3)
    fused = ell_genus_series(CUBIC, group, qmax=qmax, ycap=ycap)
    cbar = compute_charges(CUBIC).central_charge
    shift = F(cbar, 2)
    windows = Windows.make(qmax, -ycap + shift, ycap + shift)
    total: dict = {}
    for n in group.elements:
        sector = sector_supertrace_series(CUBIC, group, n, windows)
        for (eq, ey), c in sector.items():
            key = (eq, ey - shift)
            total[key] = total.get(key, F(0)) + c
    sign = -1 if int(cbar) % 2 else 1
    total = {k: sign * v for k, v in total.items() if v}
    assert total == fused.terms


def test_genus_requires_admissible_group():
    from orbigenus.symmetry import AdmissibilityError, SymmetryGroup

    with pytest.raises(AdmissibilityError):
        ell_genus_series(QUINTIC, SymmetryGroup.trivial(5), qmax=1)
    chain = parse_potential("x1^3*x2+x2^4")
    with pytest.raises(AdmissibilityError):
        ell_genus_series(chain, grading_subgroup(chain), qmax=1)


def test_genus_series_json_round_trip():
    g = ell_genus_series(TWO_SQUARES, grading_subgroup(TWO_SQUARES), qmax=1, ycap=2)
    data = g.to_json_dict()
    assert data["terms"] == [{"q": "0", "y": "0", "re": "2"}]
    assert data["metadata"]["cbar"] == "0"
    assert data["metadata"]["potential"] == "x1^2+x2^2"
