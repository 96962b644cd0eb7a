import cmath
import math

import pytest

from orbigenus import theta
from orbigenus.theta import (
    ThetaKernel,
    ThetaRangeError,
    lattice_distance,
    theta_value,
)
from orbigenus.verify import JACOBI_LAWS, check_theta_identities, jacobi_laws

# Ten seeded (nu, tau) samples kept as data: nu in [0.08, 0.42] + [-0.2, 0.2] i,
# tau in [-0.45, 0.45] + [0.9, 1.8] i, away from the zero lattice and the real axis.
THETA_SAMPLES = [
    ((0.3671034295185163+0.10318176117612099j), (-0.07148557725223947+1.133025075263667j)),
    ((0.2538334052653269-0.03802634501983429j), (0.2554187301312954+1.1729814534710348j)),
    ((0.24204296441180095+0.03335281578201249j), (0.3673015966758017+1.3542181702356513j)),
    ((0.17582486709589928+0.10232168166288957j), (0.10653209700779848+1.1254557072261966j)),
    ((0.38931372702920164+0.19311419041506123j), (0.2791955123969306+1.7119493553956244j)),
    ((0.18545017356857307+0.09193269930405146j), (0.3589544591711941+1.5155855387238972j)),
    ((0.24052852325392254-0.1597195167726537j), (-0.05924534809159471+1.4497982760994215j)),
    ((0.39042375810088537+0.18664254710830352j), (-0.02069120110255468+1.678778934994476j)),
    ((0.1685673855332662+0.12201113080520892j), (0.04382937345203036+0.9126375301476171j)),
    ((0.3246995933773444-0.0404705831102925j), (0.29236047943340976+1.501337881108666j)),
]


def test_zero_at_origin():
    assert theta_value(0, 1.3j) == 0


def test_zero_at_lattice_points():
    # far from the fundamental domain the numerical zero quality degrades like
    # e^(2 pi Im(nu)), so only moderate lattice points are probed
    for tau in (1.2j, 0.3 + 1.1j):
        assert abs(theta_value(1, tau)) < 1e-12
        assert abs(theta_value(-2, tau)) < 1e-12
        assert abs(theta_value(tau, tau)) < 1e-10
        assert abs(theta_value(tau + 1, tau)) < 1e-10
        assert abs(theta_value(2 * tau + 1, tau)) < 1e-6


def test_requires_upper_half_plane():
    with pytest.raises(ValueError):
        theta_value(0.3, -1j)
    with pytest.raises(ValueError):
        theta_value(0.3, 0.5)


def test_nu_shift_example():
    nu, tau = 0.3 + 0.1j, 1.2j
    assert abs(theta_value(nu + 1, tau) + theta_value(nu, tau)) < 1e-12


def test_tau_shift_example():
    nu, tau = 0.3 + 0.1j, 1.7j
    lhs = theta_value(nu, tau + 1)
    rhs = theta_value(nu, tau)
    assert abs(lhs - rhs) / abs(rhs) < 1e-12


def test_inversion_example():
    nu, tau = 0.2, 0.1 + 1.3j
    lhs = theta_value(nu / tau, -1 / tau)
    rhs = -1j * cmath.sqrt(tau / 1j) * cmath.exp(1j * math.pi * nu**2 / tau) * theta_value(nu, tau)
    assert abs(lhs - rhs) / abs(rhs) < 1e-9


def test_identities_at_seeded_samples():
    laws = jacobi_laws(theta_value, 1, lambda tau: -1j * cmath.sqrt(tau / 1j))
    for nu, tau in THETA_SAMPLES:
        pairs = laws(nu, tau)
        assert set(pairs) == set(JACOBI_LAWS)
        for name, (lhs, rhs) in pairs.items():
            assert abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)) < 1e-9, (name, nu, tau)


@pytest.mark.parametrize("seed", range(5))
def test_check_theta_identities_passes(seed):
    verdict = check_theta_identities(samples=10, seed=seed, tol=1e-9)
    assert verdict.status == "pass", verdict.details
    detail = verdict.details[0]
    assert not detail["skipped"]
    assert set(detail["residuals"]) == set(JACOBI_LAWS)
    assert verdict.max_residual < 1e-9


def test_quasi_periodicity_integer_shifts():
    nu, tau = 0.23 + 0.05j, 0.2 + 1.4j
    base = theta_value(nu, tau)
    for t in (-2, -1, 1, 2, 3):
        expected = (-1) ** t * base
        assert abs(theta_value(nu + t, tau) - expected) < 1e-10


def test_oddness():
    for nu in (0.3, 0.1 + 0.2j, -0.4 + 0.05j):
        for tau in (1.1j, 0.4 + 1.6j):
            assert abs(theta_value(-nu, tau) + theta_value(nu, tau)) < 1e-12


def test_truncation_stability(monkeypatch):
    nu, tau = 0.31 + 0.07j, 1.05j
    tolerance = theta.TOLERANCE
    p = ThetaKernel(tau).terms
    v1 = theta_value(nu, tau)
    # a tolerance of |q|^(2P) asks for at least twice the factors
    monkeypatch.setattr(theta, "TOLERANCE", math.exp(-2 * math.pi * tau.imag * 2 * p))
    assert ThetaKernel(tau).terms >= 2 * p
    v2 = theta_value(nu, tau)
    assert abs(v1 - v2) < tolerance * 10
    assert math.exp(-2 * math.pi * tau.imag * p) < 1e-14  # |q|^P, the first dropped factor


def test_lattice_distance():
    tau = 0.3 + 1.2j
    assert lattice_distance(2 + 3 * tau, tau) < 1e-12
    assert lattice_distance(0.5, tau) == pytest.approx(0.5)
    assert lattice_distance(tau / 2, tau) == pytest.approx(0.5)


@pytest.mark.parametrize("tau", [0.001 + 250j, 0.7 + 250j, -0.3 + 250j, -3.2 + 300j])
def test_underflowed_q_keeps_leading_term(tau):
    # q = e^(2 pi i tau) underflows to 0 here, while q^(1/8) is about 1e-85;
    # every product factor is then exactly 1 and the value is the leading term
    # with q^(1/8) = exp(log(q) / 8), log the principal logarithm
    nu = 0.1
    assert cmath.exp(2j * math.pi * tau) == 0
    log_q = -2 * math.pi * tau.imag + 1j * cmath.phase(cmath.exp(2j * math.pi * tau.real))
    expected = (1j * cmath.exp(log_q / 8) * cmath.exp(-1j * math.pi * nu)
                * (1 - cmath.exp(2j * math.pi * nu)))
    value = theta_value(nu, tau)
    assert abs(value - expected) <= 1e-12 * abs(expected)
    assert abs(theta_value(nu, tau + 1) - value) <= 1e-12 * abs(value)


@pytest.mark.parametrize("im_tau", [1.6, 0.1, 0.01, 0.004, 0.001])
def test_matches_mpmath_jtheta(im_tau):
    # T(nu, tau) is jtheta(1, pi nu, e^(i pi tau)); near the real axis the
    # product is long (5498 factors at Im tau = 0.001), and a truncated one
    # is off by far more than 1e-12
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for re_tau in (0.13, -0.27, 0.41):
            tau = complex(re_tau, im_tau)
            nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            for re_nu, frac in ((0.31, 0.98), (0.07, 0.5), (0.5, 0.0), (0.73, -0.5), (0.9, -0.98)):
                nu = complex(re_nu, frac * im_tau)
                expected = complex(mpmath.jtheta(1, mpmath.pi * mpmath.mpc(nu), nome))
                value = theta_value(nu, tau)
                assert abs(value - expected) <= 1e-12 * abs(expected), (nu, tau)


def test_order_from_tolerance_up_to_ceiling():
    assert ThetaKernel(0.004j).terms == 1375
    assert ThetaKernel(0.001j).terms == 5498
    assert ThetaKernel(250j).terms == 8
    for tau in (0.0005j, 1e-300j):
        with pytest.raises(ThetaRangeError):
            ThetaKernel(tau)


@pytest.mark.parametrize("nu, tau", [
    (0.3 + 0.5j, 0.0005j),  # more factors than MAX_TERMS
    (0.3 + 150j, 240j),  # e(nu) underflows
    (0.3 - 150j, 240j),  # e(nu) overflows
    (0.3 + 0.9j, 0.001j),  # |T| is about e^2545
])
def test_out_of_range_raises_typed_error(nu, tau):
    with pytest.raises(ThetaRangeError) as err:
        theta_value(nu, tau)
    assert isinstance(err.value, ArithmeticError)
    assert f"nu = {nu}" in str(err.value) and f"tau = {tau}" in str(err.value)
