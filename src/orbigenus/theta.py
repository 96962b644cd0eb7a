"""Numerical Jacobi theta function.

The function computed here is the odd theta

    T(v, t) = i q^(1/8) e^(-i pi v) (1 - e^(2 pi i v))
              prod_{n>=1} (1-q^n)(1-q^n e^(2 pi i v))(1-q^n e^(-2 pi i v)),

with q = e^(2 pi i t), holomorphic for t in the upper half-plane, odd in v,
with simple zeros exactly on the lattice Z t + Z: a Jacobi form of weight 1/2
and index 1/2, whose laws ``verify.check_theta_identities`` checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class ThetaParams:
    """Truncation control for the infinite product.

    ``terms`` fixes the number of product factors; when None it is chosen per
    evaluation so the dropped tail is below ``tolerance`` (|q|^P < tolerance).
    """

    terms: int | None = None
    tolerance: float = 1e-15

    def resolve_terms(self, tau: complex) -> int:
        if self.terms is not None:
            return self.terms
        qabs = math.exp(-2 * math.pi * tau.imag)
        if qabs <= 0:
            return 8
        p = int(math.log(self.tolerance) / math.log(qabs)) + 1 if qabs < 1 else 600
        return max(8, min(600, p))


DEFAULT_PARAMS = ThetaParams()


def theta_value(nu: complex, tau: complex, params: ThetaParams | None = None) -> complex:
    """Truncated triple-product value; deterministic for fixed params."""
    if tau.imag <= 0:
        raise ValueError(f"tau = {tau} must lie in the upper half-plane")
    params = params or DEFAULT_PARAMS
    terms = params.resolve_terms(tau)
    q = cmath.exp(TWO_PI_I * tau)
    u = cmath.exp(TWO_PI_I * nu)
    # q^(1/8) is the principal eighth root of q itself, so shifting tau by one
    # leaves the value literally unchanged
    if q:
        q8 = cmath.exp(cmath.log(q) / 8)
    else:
        # q underflowed (large Im tau) but q^(1/8) need not: the principal log
        # of q is 2 pi i (tau - n) with Re(tau - n) in (-1/2, 1/2], so a shift
        # of tau by one changes the value only by the rounding of tau - n
        q8 = cmath.exp(TWO_PI_I * (tau - math.ceil(tau.real - 0.5)) / 8)
    value = 1j * q8 * cmath.exp(-1j * math.pi * nu) * (1 - u)
    qn = 1.0 + 0j
    for _ in range(terms):
        qn *= q
        value *= (1 - qn) * (1 - qn * u) * (1 - qn / u)
    return value


def lattice_distance(nu: complex, tau: complex) -> float:
    """Distance of nu from the zero lattice Z tau + Z, in lattice coordinates."""
    alpha = nu.imag / tau.imag
    beta = nu - alpha * tau
    da = abs(alpha - round(alpha))
    db = abs(beta.real - round(beta.real))
    return max(da, db)
