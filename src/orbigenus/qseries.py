"""Truncation windows for bivariate series in (y, q) with fractional exponents.

The series themselves are the exact engine's (``_engine``): integer-keyed
terms whose coefficients are integer vectors over the power basis of zeta_N,
made rational once by ``_engine.rationalize``.  The public series functions
return the rational-term dict ``{(e_q, e_y): Fraction}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Windows:
    """Truncation data: q-exponents <= qmax, y-exponents in [ymin, ymax]."""

    qmax: Fraction
    ymin: Fraction
    ymax: Fraction

    @classmethod
    def make(cls, qmax, ymin, ymax) -> "Windows":
        qmax, ymin, ymax = Fraction(qmax), Fraction(ymin), Fraction(ymax)
        if ymin > ymax:
            raise ValueError("empty y-window")
        return cls(qmax, ymin, ymax)
