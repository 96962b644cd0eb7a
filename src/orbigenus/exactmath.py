"""Exact arithmetic kernels: rational matrices, Smith normal form, cyclotomic numbers.

Everything in this module is immutable after construction and every function is
pure, so concurrent use on shared values is safe.  Rational scalars are plain
``fractions.Fraction``; integer matrices are tuples of tuples.  ``CycNum``
represents an element of Q(zeta_N) as a vector of Fractions in the power basis
of a fixed primitive N-th root of unity, reduced modulo the N-th cyclotomic
polynomial so equality is coefficient equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

IntMat = tuple[tuple[int, ...], ...]
RatMat = tuple[tuple[Fraction, ...], ...]


class SingularMatrixError(ValueError):
    """Raised when a matrix required to be invertible has determinant zero."""


class NotRationalError(ValueError):
    """Raised when a cyclotomic number with non-vanishing root components is
    coerced to a rational.  Carries the offending residual components."""

    def __init__(self, message: str, residual: dict[int, Fraction]):
        super().__init__(message)
        self.residual = residual


def int_matrix(rows: Iterable[Iterable[int]]) -> IntMat:
    """Freeze an iterable of integer rows into an IntMat."""
    mat = tuple(tuple(int(x) for x in row) for row in rows)
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("ragged matrix")
    return mat


def mat_transpose(a: IntMat) -> IntMat:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]):
    """Matrix product, exact over int/Fraction entries."""
    if not a or not b:
        return ()
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def mat_det(a: IntMat) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(r) != n for r in a):
        raise ValueError("determinant of non-square matrix")
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def invert_rational_matrix(a: IntMat) -> RatMat:
    """Exact inverse of a square integer matrix via Gauss-Jordan over Q.

    Raises SingularMatrixError when det(a) = 0.
    """
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("inverse of non-square matrix")
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def solve_rational(a: IntMat, rhs: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
    """Solve a.x = rhs exactly for square invertible a."""
    inv = invert_rational_matrix(a)
    return tuple(sum(r * Fraction(v) for r, v in zip(row, rhs)) for row in inv)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form data: left * a * right = diag(factors)."""

    factors: tuple[int, ...]
    left: IntMat
    right: IntMat


def smith_normal_form(a: IntMat) -> SnfResult:
    """Smith normal form over Z with unimodular transforms.

    Returns factors d_1 | d_2 | ... (non-negative, divisibility chain) and
    unimodular left/right transforms U, V with U*a*V diagonal.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    m = [list(row) for row in a]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_combine(i1, i2, c11, c12, c21, c22):
        for mat in (m, u):
            r1, r2 = mat[i1], mat[i2]
            mat[i1] = [c11 * x + c12 * y for x, y in zip(r1, r2)]
            mat[i2] = [c21 * x + c22 * y for x, y in zip(r1, r2)]

    def col_combine(j1, j2, c11, c12, c21, c22):
        # new col j1 = c11*col j1 + c12*col j2; new col j2 = c21*col j1 + c22*col j2
        for mat in (m, v):
            for row in mat:
                x, y = row[j1], row[j2]
                row[j1] = c11 * x + c12 * y
                row[j2] = c21 * x + c22 * y

    rank = min(nrows, ncols)
    for t in range(rank):
        # Move a nonzero entry of minimal magnitude into the pivot slot.
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            row_combine(t, pivot[0], 0, 1, 1, 0)
        if pivot[1] != t:
            col_combine(t, pivot[1], 0, 1, 1, 0)

        while True:
            # Clear column t below the pivot.
            dirty = False
            for i in range(t + 1, nrows):
                if m[i][t] == 0:
                    continue
                p, q = m[t][t], m[i][t]
                if q % p == 0:
                    row_combine(t, i, 1, 0, -(q // p), 1)
                else:
                    g, x, y = _xgcd(p, q)
                    row_combine(t, i, x, y, -(q // g), p // g)
                    dirty = True
            for j in range(t + 1, ncols):
                if m[t][j] == 0:
                    continue
                p, q = m[t][t], m[t][j]
                if q % p == 0:
                    col_combine(t, j, 1, 0, -(q // p), 1)
                else:
                    g, x, y = _xgcd(p, q)
                    col_combine(t, j, x, y, -(q // g), p // g)
                    dirty = True
            if dirty:
                continue
            if any(m[i][t] for i in range(t + 1, nrows)):
                continue
            # Enforce divisibility of the remaining block by the pivot.
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if m[i][j] % m[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_combine(t, offender, 1, 1, 0, 1)

        if m[t][t] < 0:
            # Negating a single row keeps |det| = 1; fold the sign into U.
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]

    factors = tuple(m[i][i] if i < ncols else 0 for i in range(rank))
    return SnfResult(factors, tuple(tuple(r) for r in u), tuple(tuple(r) for r in v))


# ---------------------------------------------------------------------------
# Cyclotomic arithmetic
# ---------------------------------------------------------------------------


def _poly_div_exact(num: list[int], den: Sequence[int]) -> list[int]:
    """Exact division of integer polynomials (coefficients low to high)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        out[k] = q
        if q:
            for i, d in enumerate(den):
                num[k + i] -= q * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _power_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """x^k reduced mod Phi_n, for k = 0 .. max(2*phi-2, n-1), as coefficient rows."""
    phi = euler_phi(n)
    top = max(2 * phi - 1, n)
    # x^phi == sum_i fold[i] x^i, since Phi_n is monic
    fold = [-c for c in cyclotomic_polynomial(n)[:phi]]
    rows: list[tuple[int, ...]] = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(top):
        rows.append(tuple(cur))
        lead = cur[phi - 1]
        nxt = [0] + cur[: phi - 1]
        if lead:
            nxt = [nxt[i] + lead * fold[i] for i in range(phi)]
        cur = nxt
    return tuple(rows)


@dataclass(frozen=True)
class CycNum:
    """Element of Q(zeta_N) in the power basis 1, z, ..., z^(phi(N)-1)."""

    conductor: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != euler_phi(self.conductor):
            raise ValueError("coefficient vector has wrong length for conductor")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, conductor: int, value) -> "CycNum":
        phi = euler_phi(conductor)
        coeffs = [Fraction(0)] * phi
        coeffs[0] = Fraction(value)
        return cls(conductor, tuple(coeffs))

    @classmethod
    def zero(cls, conductor: int) -> "CycNum":
        return cls.from_rational(conductor, 0)

    @classmethod
    def one(cls, conductor: int) -> "CycNum":
        return cls.from_rational(conductor, 1)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "CycNum":
        if isinstance(other, CycNum):
            if other.conductor != self.conductor:
                raise ValueError("conductor mismatch; lift explicitly")
            return other
        return CycNum.from_rational(self.conductor, other)

    def __add__(self, other) -> "CycNum":
        o = self._coerce(other)
        return CycNum(self.conductor, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "CycNum":
        return CycNum(self.conductor, tuple(-a for a in self.coeffs))

    def __sub__(self, other) -> "CycNum":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "CycNum":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "CycNum":
        if not isinstance(other, CycNum):
            f = Fraction(other)
            return CycNum(self.conductor, tuple(a * f for a in self.coeffs))
        o = self._coerce(other)
        n = self.conductor
        phi = len(self.coeffs)
        rows = _power_rows(n)
        out = [Fraction(0)] * phi
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if not b:
                    continue
                c = a * b
                k = i + j
                if k < phi:
                    out[k] += c
                else:
                    for idx, r in enumerate(rows[k]):
                        if r:
                            out[idx] += c * r
        return CycNum(n, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "CycNum":
        if exponent < 0:
            raise ValueError("negative powers not supported")
        acc = CycNum.one(self.conductor)
        base = self
        e = exponent
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def conjugate(self) -> "CycNum":
        """Complex conjugation: zeta -> zeta^(N-1)."""
        n = self.conductor
        phi = len(self.coeffs)
        rows = _power_rows(n)
        out = [Fraction(0)] * phi
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for idx, r in enumerate(rows[(n - i) % n]):
                if r:
                    out[idx] += a * r
        return CycNum(n, tuple(out))

    def lift(self, conductor: int) -> "CycNum":
        """Embed into Q(zeta_M) for a multiple M of the current conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ValueError("can only lift to a multiple of the conductor")
        step = conductor // self.conductor
        phi = euler_phi(conductor)
        rows = _power_rows(conductor)
        out = [Fraction(0)] * phi
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            k = i * step
            if k < phi:
                out[k] += a
            else:
                for idx, r in enumerate(rows[k]):
                    if r:
                        out[idx] += a * r
        return CycNum(conductor, tuple(out))

    # -- predicates and conversions -----------------------------------------

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(a == 0 for a in self.coeffs[1:])

    def complex_value(self) -> complex:
        import cmath

        z = cmath.exp(2j * cmath.pi / self.conductor)
        return sum(float(a) * z**i for i, a in enumerate(self.coeffs))

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        parts = [f"{a}*z^{i}" for i, a in enumerate(self.coeffs) if a]
        return " + ".join(parts) + f"  (z = primitive {self.conductor}-th root)"


def root_of_unity(k: int, n: int) -> CycNum:
    """The exact n-th root of unity to the k-th power, as a CycNum."""
    if n < 1:
        raise ValueError("order must be positive")
    row = _power_rows(n)[k % n]
    return CycNum(n, tuple(Fraction(c) for c in row))


def cyc_to_rational(c: CycNum) -> Fraction:
    """Convert a CycNum to a Fraction; error (with residual) if impossible."""
    if not c.is_rational():
        residual = {i: a for i, a in enumerate(c.coeffs) if i > 0 and a != 0}
        raise NotRationalError(
            f"cyclotomic number is not rational (conductor {c.conductor})", residual
        )
    return c.coeffs[0]


def lcm(*values: int) -> int:
    out = 1
    for v in values:
        v = abs(int(v))
        if v:
            out = out * v // gcd(out, v)
    return out
