"""Numerical Jacobi theta function.

The function computed here is the odd theta

    T(v, t) = i q^(1/8) e^(-i pi v) (1 - e^(2 pi i v))
              prod_{n>=1} (1-q^n)(1-q^n e^(2 pi i v))(1-q^n e^(-2 pi i v)),

with q = e^(2 pi i t), holomorphic for t in the upper half-plane, odd in v,
with simple zeros exactly on the lattice Z t + Z: a Jacobi form of weight 1/2
and index 1/2, whose laws ``verify.check_theta_identities`` checks.  It is
``mpmath.jtheta(1, pi v, e^(i pi t))``.

Kernel.  Everything that depends on t alone is done once per t by
``ThetaKernel``: q, q^(1/8), the order P, the pairs (q^n, q^(2n)) for
n = 1..P and the v-free factor i q^(1/8) prod_{n<=P} (1 - q^n).  A value
then needs u = e^(2 pi i v), s = u + 1/u and one factor
1 - q^n s + q^(2n) = (1 - q^n u)(1 - q^n / u) per n.  ``theta_value``
builds a kernel for its one value; the numeric genus builds one per
evaluation point and shares it among all its theta values.

Tolerance rule.  P is the least order whose first dropped factor is below
the tolerance, |q|^P < ``TOLERANCE`` = 1e-15:
P = floor(log(TOLERANCE) / log|q|) + 1 with log|q| = -2 pi Im t, at least
8.  P grows as 1/Im t: 550 at Im t = 0.01, 1375 at 0.004, 5498 at 0.001.
Against ``mpmath.jtheta`` the relative error is below 1e-12 (at most 2e-13
measured) for Im t >= 0.001 and |Im v| <= Im t.

Ceiling and error.  An order above ``MAX_TERMS`` raises ``ThetaRangeError``,
as does a value that leaves double range: e^(2 pi i v) over- or
underflowing, or the product overflowing, which happens far from the
fundamental domain in v or t.  The error subclasses ``ArithmeticError`` and
names v (where known) and t; no value is returned as nan or inf.
"""

from __future__ import annotations

import cmath
import math

TWO_PI_I = 2j * math.pi
# The first dropped factor of the product is below this: |q|^P < TOLERANCE.
TOLERANCE = 1e-15
# The largest product order P a kernel builds: Im tau down to about 6.7e-4 at
# TOLERANCE.  Rounding grows with P; measured against mpmath the
# relative error is 2e-13 at P = 5498 (Im tau = 0.001) and 4e-13 at P = 7852
# (Im tau = 7e-4), so beyond the ceiling it could pass 1e-12.
MAX_TERMS = 8192


class ThetaRangeError(ArithmeticError):
    """theta_1 cannot be evaluated in double precision at (nu, tau)."""

    def __init__(self, nu, tau: complex, reason: str):
        where = f"tau = {tau}" if nu is None else f"nu = {nu}, tau = {tau}"
        super().__init__(f"theta_1 at {where}: {reason}")
        self.nu = nu
        self.tau = tau
        self.reason = reason


class ThetaKernel:
    """theta_1 at one tau: the order ``terms``, the pairs (q^n, q^(2n)) and
    the v-free factor ``lead`` = i q^(1/8) prod (1 - q^n), built once, from
    which ``value`` evaluates T(nu, tau) at any nu."""

    def __init__(self, tau: complex):
        if tau.imag <= 0:
            raise ValueError(f"tau = {tau} must lie in the upper half-plane")
        self.tau = tau
        # log|q| = -2 pi Im tau, finite even where |q| itself underflows
        bound = math.log(TOLERANCE) / (-2 * math.pi * tau.imag)
        if bound >= MAX_TERMS:
            raise ThetaRangeError(None, tau, f"the product needs more than MAX_TERMS = "
                                             f"{MAX_TERMS} factors")
        self.terms = max(8, int(bound) + 1)
        q = cmath.exp(TWO_PI_I * tau)
        # q^(1/8) is the principal eighth root of q itself, so shifting tau by
        # one leaves the value literally unchanged
        if q:
            q8 = cmath.exp(cmath.log(q) / 8)
        else:
            # q underflowed (large Im tau) but q^(1/8) need not: the principal
            # log of q is 2 pi i (tau - n) with Re(tau - n) in (-1/2, 1/2], so a
            # shift of tau by one changes the value only by the rounding of tau - n
            q8 = cmath.exp(TWO_PI_I * (tau - math.ceil(tau.real - 0.5)) / 8)
        lead = 1j * q8
        pairs = []
        qn = 1.0 + 0j
        for _ in range(self.terms):
            qn *= q
            lead *= 1 - qn
            pairs.append((qn, qn * qn))
        self.lead = lead
        self.pairs = pairs

    def value(self, nu: complex) -> complex:
        """T(nu, tau), truncated at the kernel's order."""
        try:
            u = cmath.exp(TWO_PI_I * nu)
            s = u + 1 / u
            value = self.lead * cmath.exp(-1j * math.pi * nu) * (1 - u)
        except (OverflowError, ZeroDivisionError):
            raise ThetaRangeError(nu, self.tau, "e(nu) leaves double range") from None
        for qn, q2n in self.pairs:
            value *= 1 - qn * s + q2n
        if not cmath.isfinite(value):
            raise ThetaRangeError(nu, self.tau, "the value leaves double range")
        return value


def theta_value(nu: complex, tau: complex) -> complex:
    """Truncated triple-product value."""
    try:
        kernel = ThetaKernel(tau)
    except ThetaRangeError as exc:
        raise ThetaRangeError(nu, tau, exc.reason) from None
    return kernel.value(nu)


def lattice_distance(nu: complex, tau: complex) -> float:
    """Distance of nu from the zero lattice Z tau + Z, in lattice coordinates."""
    alpha = nu.imag / tau.imag
    beta = nu - alpha * tau
    da = abs(alpha - round(alpha))
    db = abs(beta.real - round(beta.real))
    return max(da, db)
