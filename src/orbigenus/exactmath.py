"""Exact arithmetic kernels: integer matrices, Smith valuations, cyclotomic reduction.

Everything in this module is immutable after construction and every function is
pure, so concurrent use on shared values is safe.  Rational scalars are plain
``fractions.Fraction``; integer matrices are tuples of tuples, and every
elimination here runs on integers.  An element of Z[zeta_N] is a coefficient
vector over the power basis 1, z, ..., z^(phi(N)-1) of a fixed primitive N-th
root of unity; ``_power_rows`` holds x^k reduced modulo the N-th cyclotomic
polynomial, so equality is coefficient equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence

IntMat = tuple[tuple[int, ...], ...]
RatMat = tuple[tuple[Fraction, ...], ...]


class SingularMatrixError(ValueError):
    """Raised when a matrix required to be invertible has determinant zero."""


def mat_transpose(a: IntMat) -> IntMat:
    return tuple(zip(*a)) if a else ()


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
    """Exact inverse of a square integer matrix by fraction-free Gauss-Jordan:
    clearing a column sets a row r of [a | I] to p r - f (pivot row), divided
    by its gcd, so rows stay integral and row i ends as c (e_i | c a^-1_i).
    Raises SingularMatrixError when det(a) = 0.
    """
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("inverse of non-square matrix")
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col]
        p = pivot[col]
        for r, row in enumerate(work):
            f = row[col]
            if f and r != col:
                row = [p * x - f * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                work[r] = [x // g for x in row]
    return tuple(tuple(Fraction(x, row[i]) for x in row[n:]) for i, row in enumerate(work))


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


def smith_valuations(a: IntMat, p: int, e: int) -> list[int]:
    """The p-adic valuations below e of the Smith factors of ``a``, ascending.

    Eliminated mod p^e by rows: at level v every entry left is divisible by
    p^v, and an entry p^v u, u a unit, is a pivot of one factor of valuation
    v; its row times u^-1 clears its column.  Column operations would change
    only the pivot row, so that row is dropped instead.
    """
    q = p**e
    rows = [r for r in ([x % q for x in row] for row in a) if any(r)]
    out = []
    for v in range(e):
        step = p**v
        while at := next(((r, c) for r, row in enumerate(rows) for c, x in enumerate(row)
                          if x % (step * p)), None):
            r, c = at
            pivot = rows.pop(r)
            inverse = pow(pivot[c] // step, -1, q)
            for i, row in enumerate(rows):
                if row[c]:
                    f = row[c] // step * inverse
                    rows[i] = [(x - f * y) % q for x, y in zip(row, pivot)]
            out.append(v)
    return out


def prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing n >= 1, p ascending."""
    out, p = [], 2
    while n > 1:
        p = p if p * p <= n else n
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append((p, e))
        p += 1
    return out


# ---------------------------------------------------------------------------
# Cyclotomic reduction
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


def lcm(*values: int) -> int:
    out = 1
    for v in values:
        v = abs(int(v))
        if v:
            out = out * v // gcd(out, v)
    return out
