"""Truncated bivariate series in (y, q) with fractional exponents.

Exponents live in (1/D)*Z and are stored as integer keys (D*e_q, D*e_y);
coefficients are exact cyclotomic numbers over a fixed conductor.  The
q direction is truncated above by the window's qmax; the y direction is a
two-sided window.  Multiplication discards terms outside the window, so a
product is exact on the window whenever its factors are.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .exactmath import CycNum, cyc_to_rational, lcm


class WindowMismatchError(ValueError):
    """Series combined across different truncation windows."""


class NonExpandableError(ValueError):
    """Geometric expansion requested outside the fixed annulus."""


class OutOfWindowError(ValueError):
    """Coefficient query outside the stored window."""


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


class BiSeries:
    """Sparse truncated series; immutable by convention (treat as a value)."""

    __slots__ = ("denominator", "conductor", "windows", "terms")

    def __init__(
        self,
        denominator: int,
        conductor: int,
        windows: Windows,
        terms: dict[tuple[int, int], CycNum],
    ):
        self.denominator = denominator
        self.conductor = conductor
        self.windows = windows
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, denominator: int, conductor: int, windows: Windows) -> "BiSeries":
        return cls(denominator, conductor, windows, {})

    @classmethod
    def one(cls, denominator: int, conductor: int, windows: Windows) -> "BiSeries":
        return cls(denominator, conductor, windows, {(0, 0): CycNum.one(conductor)})

    @classmethod
    def from_terms(
        cls,
        denominator: int,
        conductor: int,
        windows: Windows,
        entries: dict[tuple[Fraction, Fraction], CycNum | Fraction | int],
    ) -> "BiSeries":
        """Build from {(e_q, e_y): coefficient} with exact exponents."""
        d = denominator
        terms: dict[tuple[int, int], CycNum] = {}
        for (eq, ey), coeff in entries.items():
            eq, ey = Fraction(eq), Fraction(ey)
            kq, ky = eq * d, ey * d
            if kq.denominator != 1 or ky.denominator != 1:
                raise ValueError(f"exponent ({eq}, {ey}) not a multiple of 1/{d}")
            if not isinstance(coeff, CycNum):
                coeff = CycNum.from_rational(conductor, coeff)
            if _inside(windows, d, int(kq), int(ky)):
                terms[(int(kq), int(ky))] = coeff
        return cls(d, conductor, windows, terms)

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator[tuple[tuple[Fraction, Fraction], CycNum]]:
        d = self.denominator
        for (kq, ky) in sorted(self.terms):
            yield (Fraction(kq, d), Fraction(ky, d)), self.terms[(kq, ky)]

    def coefficient(self, e_q, e_y) -> CycNum:
        """Exact coefficient at (e_q, e_y); zero if absent, error if outside."""
        eq, ey = Fraction(e_q), Fraction(e_y)
        kq, ky = eq * self.denominator, ey * self.denominator
        if kq.denominator != 1 or ky.denominator != 1:
            return CycNum.zero(self.conductor)
        if not _inside(self.windows, self.denominator, int(kq), int(ky)):
            raise OutOfWindowError(f"({eq}, {ey}) lies outside the window")
        return self.terms.get((int(kq), int(ky)), CycNum.zero(self.conductor))

    def rational_terms(self) -> dict[tuple[Fraction, Fraction], Fraction]:
        """All coefficients as rationals (raises NotRationalError if any is not)."""
        return {key: cyc_to_rational(c) for key, c in self.items()}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        a = {(Fraction(kq, self.denominator), Fraction(ky, self.denominator)): c
             for (kq, ky), c in self.terms.items()}
        b = {(Fraction(kq, other.denominator), Fraction(ky, other.denominator)): c
             for (kq, ky), c in other.terms.items()}
        if set(a) != set(b):
            return False
        n = lcm(self.conductor, other.conductor)
        return all(a[k].lift(n) == b[k].lift(n) for k in a)

    __hash__ = None

    # -- arithmetic ---------------------------------------------------------

    def _aligned(self, other: "BiSeries") -> tuple["BiSeries", "BiSeries"]:
        if self.windows != other.windows:
            raise WindowMismatchError("series have different windows")
        d = lcm(self.denominator, other.denominator)
        n = lcm(self.conductor, other.conductor)
        return self.lift(d, n), other.lift(d, n)

    def lift(self, denominator: int, conductor: int | None = None) -> "BiSeries":
        """Re-key to a finer exponent lattice and/or larger conductor."""
        n = conductor or self.conductor
        if denominator % self.denominator or n % self.conductor:
            raise ValueError("can only lift to multiples")
        if denominator == self.denominator and n == self.conductor:
            return self
        step = denominator // self.denominator
        terms = {
            (kq * step, ky * step): (c.lift(n) if n != self.conductor else c)
            for (kq, ky), c in self.terms.items()
        }
        return BiSeries(denominator, n, self.windows, terms)

    def __add__(self, other: "BiSeries") -> "BiSeries":
        a, b = self._aligned(other)
        terms = dict(a.terms)
        for key, c in b.terms.items():
            cur = terms.get(key)
            terms[key] = c if cur is None else cur + c
        return BiSeries(a.denominator, a.conductor, a.windows, terms)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self + other.scale(-1)

    def scale(self, factor) -> "BiSeries":
        if not isinstance(factor, CycNum):
            factor = CycNum.from_rational(self.conductor, factor)
            return BiSeries(
                self.denominator,
                self.conductor,
                self.windows,
                {k: v * factor for k, v in self.terms.items()},
            )
        n = lcm(self.conductor, factor.conductor)
        lifted = self.lift(self.denominator, n)
        f = factor.lift(n)
        return BiSeries(
            lifted.denominator,
            n,
            lifted.windows,
            {k: v * f for k, v in lifted.terms.items()},
        )

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        return series_mul(self, other)

    def shifted(self, d_eq, d_ey) -> "BiSeries":
        """Multiply by y^d_ey q^d_eq; terms leaving the window are dropped."""
        deq, dey = Fraction(d_eq), Fraction(d_ey)
        d = lcm(self.denominator, deq.denominator, dey.denominator)
        lifted = self.lift(d)
        sq, sy = int(deq * d), int(dey * d)
        terms = {}
        for (kq, ky), c in lifted.terms.items():
            key = (kq + sq, ky + sy)
            if _inside(self.windows, d, key[0], key[1]):
                terms[key] = c
        return BiSeries(d, lifted.conductor, self.windows, terms)

    def restricted(self, windows: Windows) -> "BiSeries":
        """Restrict to a (typically smaller) window."""
        terms = {
            k: v for k, v in self.terms.items() if _inside(windows, self.denominator, *k)
        }
        return BiSeries(self.denominator, self.conductor, windows, terms)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON form with exact fraction strings; requires rational coefficients."""
        rat = self.rational_terms()
        return {
            "D": self.denominator,
            "qmax": str(self.windows.qmax),
            "ywindow": [str(self.windows.ymin), str(self.windows.ymax)],
            "terms": [
                {"q": str(eq), "y": str(ey), "re": str(rat[(eq, ey)])}
                for (eq, ey) in sorted(rat)
            ],
        }

    def __repr__(self) -> str:
        return (
            f"BiSeries(D={self.denominator}, N={self.conductor}, "
            f"terms={len(self.terms)}, qmax={self.windows.qmax})"
        )


def _inside(windows: Windows, d: int, kq: int, ky: int) -> bool:
    return (
        kq <= windows.qmax * d
        and windows.ymin * d <= ky <= windows.ymax * d
    )


def series_mul(a: BiSeries, b: BiSeries) -> BiSeries:
    """Truncated product; exact on the common window."""
    a, b = a._aligned(b)
    d = a.denominator
    w = a.windows
    qcap = w.qmax * d
    ylo, yhi = w.ymin * d, w.ymax * d
    small, big = (a, b) if len(a.terms) <= len(b.terms) else (b, a)
    out: dict[tuple[int, int], CycNum] = {}
    for (kq1, ky1), c1 in small.terms.items():
        for (kq2, ky2), c2 in big.terms.items():
            kq = kq1 + kq2
            if kq > qcap:
                continue
            ky = ky1 + ky2
            if ky < ylo or ky > yhi:
                continue
            prod = c1 * c2
            key = (kq, ky)
            cur = out.get(key)
            out[key] = prod if cur is None else cur + prod
    return BiSeries(d, a.conductor, w, out)


def geom_expand(
    e_y,
    e_q,
    coefficient: CycNum | Fraction | int,
    windows: Windows,
    denominator: int | None = None,
    conductor: int | None = None,
) -> BiSeries:
    """Expansion of 1/(1 - c y^e_y q^e_q) in the fixed annulus.

    Requires e_q > 0, or e_q = 0 with e_y > 0 (the pure-y direction); anything
    else cannot be expanded with non-negative q-powers and raises
    NonExpandableError.
    """
    ey, eq = Fraction(e_y), Fraction(e_q)
    if eq < 0 or (eq == 0 and ey <= 0):
        raise NonExpandableError(
            f"non-expandable factor: exponents (e_y={ey}, e_q={eq})"
        )
    if not isinstance(coefficient, CycNum):
        n = conductor or 1
        coefficient = CycNum.from_rational(n, coefficient)
    n = conductor or coefficient.conductor
    coefficient = coefficient.lift(n)
    d = denominator or lcm(ey.denominator, eq.denominator)
    if (ey * d).denominator != 1 or (eq * d).denominator != 1:
        raise ValueError("denominator does not accommodate the exponents")
    terms: dict[tuple[int, int], CycNum] = {}
    power = CycNum.one(n)
    m = 0
    while True:
        kq, ky = int(eq * d) * m, int(ey * d) * m
        if kq > windows.qmax * d:
            break
        if eq == 0 and ky > windows.ymax * d:
            break
        if _inside(windows, d, kq, ky):
            terms[(kq, ky)] = power
        elif eq > 0 and ey >= 0 and ky > windows.ymax * d:
            break
        m += 1
        power = power * coefficient
    return BiSeries(d, n, windows, terms)

