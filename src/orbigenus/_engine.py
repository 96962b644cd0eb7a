"""Internal engine assembling twisted-sector supertrace series exactly.

A series is a dict keyed by scaled integer exponents (kq, ky) whose values
are integer coefficient vectors over the power basis of zeta_N; all rational
normalization (1/|G|, character-sum weights) is applied once at the end, so
the hot loops touch only machine/big integers.

Series products are Kronecker substitutions.  Each q-row of an operand is
packed into one Python int, cells spaced by the gcd g of the y-steps of both
operands, so one big-integer multiply per pair of q-rows does the
y-convolution and the zeta-polynomial product together (Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution",
arXiv:0712.4046).  Each operand carries a width, 1 when every vector is zero
beyond slot 0 and phi otherwise, and the term at ky fills that many slots of
a cell of a.width + b.width - 1 signed slots: one for two rational operands,
as in the sectors untwisted in time and the character sums over a right
twist, phi for one and 2*phi-1 for neither.  The slot width is proven wide
enough: an output slot sums at most min(nnz_a, nnz_b) products of
coefficients, so bits(max|a| * max|b| * min(nnz_a, nnz_b)) plus a sign bit
suffice.  Products are decoded once per output row, cut to the window and,
where the cell is wider than phi, reduced mod Phi_N; a product whose vectors
are all rational gets width 1.

The window is a trapezoid, not a rectangle: q-rows 0 .. qcap, y at least
ylo, and on row kq at most the ceiling yhi[kq], which does not increase
with kq (``SeriesContext``).  ``genus._build_context`` lowers the ceiling
by the y a term can still lose in the q left to it, so nothing cut above
it can fall back into the strip the sum is exact on.  Every series the
double sum forms stays inside the window: the factors, their transforms,
the partial products and the totals.

The single-variable factors are built without general products: each
fermionic binomial is a shift-and-add and each bosonic geometric tower a
first-order recurrence along its step, in both cases cut to the window after
every factor exactly as a term-by-term product would be.  The recurrence
walks each chain of a tower's step until it leaves the window; that is
exact because the height of the ceiling above a chain moves one way only
along it (``_times_geometric``).

The right twist b of a factor enters only through the phase w^b, w = e(1/m_j),
so each factor is built once per left twist a as a formal polynomial F_a(w)
with w^m_j = 1 (``variable_factor``).  The factor at any right twist is the
substitution F_a(w^b), slot k moved to slot k b mod m_j and reduced mod
Phi_N, and a character sum over the right twist is read off one slot:

    sum_b e(i b / m_j) F_a(w^b) = m_j [w^(-i)] F_a.

The double group sum is evaluated per side either directly over the group
elements ("D") or over the annihilator of the group inside prod_j Z/m_j
("T"), through the character-sum identity

    sum_{t in G} X(t) = (|G| / prod_j m_j) sum_{s in ann(G)} sum_t e(s.t) X(t),

which factorizes over coordinates.  ``genus._sum_setup`` picks the modes
from the group sizes.  A same-mode sum runs both sides over the smaller of
G and ann(G), min(|G|, |ann G|)^2 pairs in Galois orbits of up to phi(N);
the exact genus sum pairs group elements with characters ("D" x "T") where
the two sizes are within a factor phi(N) of each other.  Every transform of
that pairing is the rational series m_j [w^-i] F_a, so each of its
|G| |ann G| products is a one-slot Kronecker product, with no reduction
mod Phi_N, and its total is rational by construction.

``double_sum`` is the one driver of that sum for both evaluation paths: it
runs over a coefficient ring, the exact series ring here (``_ExactRing``) or
the theta-value ring of the numeric path in ``genus``.  It contracts the sum
one coordinate at a time instead of multiplying out every (left, right)
pair.  Each side's representatives form a minimal layered automaton, whose
state at level k is the set of completions of a length-k prefix; a pair of
such states carries the sum of the partial products of its prefix pairs, and
each sum is multiplied by the next coordinate's transform once:

    value(t) = sum over edges s -(xl, xr)-> t of value(s) * T_k(xl, xr).

On a cyclic group no two prefixes share their completions and the
contraction forms one chain of products per pair, as a pair loop would.
Several classes of left representatives share one schedule, with one
accepting state and one total per class: the genus sum folded by inversion
(``genus._inverse_classes``) runs its two classes that way, where their
schedule, counted from the automata and the Galois units, forms fewer
products than the whole left side's (``_contract.fewest_products``).  A
``check --qmax 1`` of the loop K3 with SL (|SL| = |ann SL| = 32, its genus
sums "D" x "T" and folded) forms 291 series products, where one chain of
products per pair forms 1863.  For the exact ring the Galois
automorphism zeta_N -> zeta_N^u, u a unit mod N, maps the sector product of
(g, h) to a product of the same sum, so on a same-mode sum values are kept
on one state of each orbit of the unit group and a product stands in for its
whole orbit.  A product is deposited on its state through one summed map
per set of units, the sum of the substitutions zeta_N -> zeta_N^u, never
through a shortcut that assumes the orbit sum rational, so a same-mode sum
that breaks the symmetry still fails ``rationalize``; a "D" x "T" total is
rational by construction, and that check guards only same-mode sums.

Everything here is standard library only.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, sub

from ._contract import Vec, plan
from .exactmath import _power_rows

Series = dict[tuple[int, int], list[int]]


class RationalityError(ArithmeticError):
    """A fully summed genus coefficient failed to be rational."""

    def __init__(self, e_q: Fraction, e_y: Fraction, residual):
        super().__init__(
            f"non-rational coefficient at (q^{e_q}, y^{e_y}); residual components {residual}"
        )
        self.e_q = e_q
        self.e_y = e_y
        self.residual = residual


@dataclass
class SeriesContext:
    """Shared data for one genus computation.

    Exponents are scaled by ``denominator``.  The work window is the
    trapezoid of the terms (kq, ky) with kq <= qcap and
    ylo <= ky <= yhi[kq]: ``yhi`` holds one ceiling per q-row 0 .. qcap and
    does not increase with kq.  Every series the engine forms is cut to it.
    """

    conductor: int
    phi: int
    denominator: int
    qcap: int
    ylo: int
    yhi: tuple[int, ...]
    charges: tuple[Fraction, ...]
    moduli: tuple[int, ...]

    def __post_init__(self):
        assert len(self.yhi) == self.qcap + 1, "one ceiling per q-row"
        assert all(a >= b for a, b in zip(self.yhi, self.yhi[1:])), "the ceiling rises"


# Signed array typecodes by item size: slots of 1, 2, 4 or 8 bytes move between
# ints and bytes at C speed; wider slots go chunk by chunk.
_SLOT_CODES = {array(code).itemsize: code for code in "bhilq"}


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for signed values of magnitude at most ``bound``."""
    need = bound.bit_length() // 8 + 1  # one spare bit for the sign
    return next((size for size in (1, 2, 4, 8) if size >= need), need)


def _bias(nbytes: int, count: int) -> int:
    """Half the slot range in each of ``count`` slots."""
    return int.from_bytes((b"\0" * (nbytes - 1) + b"\x80") * count, "little")


def _pack(slots: list[int], nbytes: int) -> int:
    """sum_k slots[k] 2^(8 nbytes k) for signed slots of nbytes bytes each.

    The bytes hold each slot in two's complement; flipping every slot's top
    bit turns that into slot + half with no borrows, and the bias comes off
    as one integer.
    """
    code = _SLOT_CODES.get(nbytes)
    if code is not None:
        arr = array(code, slots)
        if sys.byteorder == "big":
            arr.byteswap()
        raw = arr.tobytes()
    else:
        raw = b"".join(c.to_bytes(nbytes, "little", signed=True) for c in slots)
    bias = _bias(nbytes, len(slots))
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpack(x: int, nbytes: int, count: int, lo: int, hi: int) -> list[int]:
    """Signed slots lo .. hi-1 of a packed value with ``count`` slots."""
    bias = _bias(nbytes, count)
    raw = ((x + bias) ^ bias).to_bytes(count * nbytes, "little")[lo * nbytes:hi * nbytes]
    code = _SLOT_CODES.get(nbytes)
    if code is None:
        return [int.from_bytes(raw[i:i + nbytes], "little", signed=True)
                for i in range(0, len(raw), nbytes)]
    arr = array(code)
    arr.frombytes(raw)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr.tolist()


class _Rows:
    """A series split into q-rows, with what its Kronecker packings need.

    ``rows`` lists (kq, [(ky, vector), ...]) by increasing kq, each row by
    increasing ky; ``step`` is the gcd of the y-steps inside the rows (0 when
    every row has a single term), ``peak`` the largest coefficient magnitude,
    ``nnz`` the number of nonzero coefficients and ``width`` the slots a
    packing fills per term: 1 when every vector is zero beyond slot 0 (a
    rational series), else phi.
    """

    __slots__ = ("rows", "step", "peak", "nnz", "width")

    def __init__(self, rows: list, peak: int, nnz: int, width: int):
        step = 0
        for _, terms in rows:
            y0 = terms[0][0]
            for ky, _ in terms:
                step = gcd(step, ky - y0)
        self.rows = rows
        self.step = step
        self.peak = peak
        self.nnz = nnz
        self.width = width

    @classmethod
    def of(cls, series: Series) -> "_Rows":
        by_q: dict[int, list] = {}
        peak = nnz = 0
        width = 1
        for (kq, ky), vec in series.items():
            by_q.setdefault(kq, []).append((ky, vec))
            peak = max(peak, max(map(abs, vec)))
            nonzero = len(vec) - vec.count(0)
            nnz += nonzero
            if nonzero > (vec[0] != 0):  # a nonzero slot beyond slot 0
                width = len(vec)
        for terms in by_q.values():
            terms.sort()
        return cls(sorted(by_q.items()), peak, nnz, width)

    def items(self):
        for kq, terms in self.rows:
            for ky, vec in terms:
                yield (kq, ky), vec

    def packed(self, g: int, nbytes: int, cell: int):
        """Rows as (kq, ymin, cells, int), coefficient i < width of the term at
        ky in slot ((ky - ymin) // g) * cell + i of nbytes-byte signed slots."""
        width = self.width
        for kq, terms in self.rows:
            y0 = terms[0][0]
            cells = (terms[-1][0] - y0) // g + 1
            slots = [0] * (cells * cell)
            for ky, vec in terms:
                at = (ky - y0) // g * cell
                slots[at:at + width] = vec[:width]
            yield kq, y0, cells, _pack(slots, nbytes)


def _mul_rows(a: _Rows, b: _Rows, ctx: SeriesContext) -> _Rows:
    """Truncated product, one big-integer multiply per pair of q-rows.

    A cell of a.width + b.width - 1 slots holds the unreduced product of two
    coefficient vectors: one slot for two rational operands, phi for one,
    2*phi-1 for neither.  So the y-convolution and the zeta-polynomial
    product of two rows are one integer product.  Each output slot sums at
    most min(nnz_a, nnz_b) coefficient products, so slots of
    bits(peak_a * peak_b * min(nnz)) plus a sign bit keep every slot exact.
    A pair of rows whose lowest product term lies above its row's ceiling
    is skipped.  Products are accumulated per (kq, ky mod g), then each sum
    is decoded once, cut to [ylo, yhi[kq]] and, where the cell is wider
    than phi, reduced mod Phi_N.  The product's width is 1 when every
    decoded vector is zero beyond slot 0, whatever the operands' widths.
    """
    if not a.nnz or not b.nnz:
        return _Rows([], 0, 0, 1)  # a zero operand; its coefficients fix no slot width
    n, phi, qcap, ylo, yhi = ctx.conductor, ctx.phi, ctx.qcap, ctx.ylo, ctx.yhi
    reduce_rows = _substitution(n, 1)
    cell = a.width + b.width - 1
    g = gcd(a.step, b.step) or 1
    nbytes = _slot_bytes(a.peak * b.peak * min(a.nnz, b.nnz))
    cell_bits = 8 * nbytes * cell
    acc: dict[tuple[int, int], list] = {}
    packed_b = list(b.packed(g, nbytes, cell))
    for kq1, y1, n1, x1 in a.packed(g, nbytes, cell):
        room = qcap - kq1
        for kq2, y2, n2, x2 in packed_b:
            if kq2 > room:
                break
            if y1 + y2 > yhi[kq1 + kq2]:
                continue
            e, c = divmod(y1 + y2, g)
            top = e + n1 + n2 - 1
            key = (kq1 + kq2, c)
            slot = acc.get(key)
            if slot is None:
                acc[key] = [e, top, x1 * x2]
                continue
            if e >= slot[0]:
                slot[2] += (x1 * x2) << (cell_bits * (e - slot[0]))
            else:
                slot[2] = (slot[2] << (cell_bits * (slot[0] - e))) + x1 * x2
                slot[0] = e
            if top > slot[1]:
                slot[1] = top

    rows: list = []
    peak = nnz = 0
    width = 1
    pad = (0,) * (phi - 1)
    for kq, c in sorted(acc):
        e, top, x = acc.pop((kq, c))  # each sum is freed once decoded
        base = e * g + c
        lo = max(0, -((base - ylo) // g))
        hi = min(top - e, (yhi[kq] - base) // g + 1)
        if lo >= hi:
            continue
        digits = _unpack(x, nbytes, (top - e) * cell, lo * cell, hi * cell)
        # column t holds slot t of every cell; fold t >= phi into the basis
        # through x^t = x^(t mod N), as x^N = 1 mod Phi_N
        cols = [digits[t::cell] for t in range(min(cell, phi))]
        for t in range(phi, cell):
            high = digits[t::cell]
            for i, r in reduce_rows[t % n]:
                if r == 1:
                    cols[i] = list(map(add, cols[i], high))
                elif r == -1:
                    cols[i] = list(map(sub, cols[i], high))
                else:
                    cols[i] = [u + r * v for u, v in zip(cols[i], high)]
        for col in cols:
            peak = max(peak, max(col), -min(col))
            nnz += len(col) - col.count(0)
        if not rows or rows[-1][0] != kq:
            rows.append((kq, []))
        terms = rows[-1][1]
        ky = base + lo * g
        if any(map(any, cols[1:])):
            width = phi
            terms.extend((ky + i * g, vec) for i, vec in enumerate(zip(*cols)) if any(vec))
        else:
            terms.extend((ky + i * g, (v,) + pad) for i, v in enumerate(cols[0]) if v)
    rows = [(kq, sorted(terms)) for kq, terms in rows if terms]
    return _Rows(rows, peak, nnz, width)


def _add_term(acc: Series, key: tuple[int, int], vec) -> None:
    cur = acc.get(key)
    acc[key] = list(vec) if cur is None else list(map(add, cur, vec))


# ---------------------------------------------------------------------------
# Single-variable factors
# ---------------------------------------------------------------------------


def _scaled_exponent(value: Fraction, d: int) -> int:
    out = value * d
    if out.denominator != 1:
        raise AssertionError(f"exponent {value} not on the 1/{d} lattice")
    return int(out)


def variable_factor(ctx: SeriesContext, j: int, a: int) -> Series:
    """Formal single-variable factor F_a(w) for left twist numerator a mod m_j.

    This is the j-th factor of the twisted-sector product with the
    (y^-1 q)^theta piece of the sector prefactor folded in, so every stored
    q-exponent is non-negative.  Its coefficients are vectors over
    w^0 .. w^(m_j - 1) with w^m_j = 1: the right twist b enters the factor
    only through the phase zeta = w^b, so the factor at b is F_a(w^b)
    (``_at_twist``), and sum_b e(i b / m_j) F_a(w^b) is m_j times the
    coefficient of w^(-i).

    The factor is built one binomial or geometric tower at a time, each
    product cut to the window, row by row, as it is formed; a binomial
    whose monomial lies outside the window is left out, and so is each
    tower term outside it.  w acts by rotation.
    """
    qj = ctx.charges[j]
    m = ctx.moduli[j]
    d = ctx.denominator
    a %= m
    theta = Fraction(a, m)
    qcap, ylo, yhi = ctx.qcap, ctx.ylo, ctx.yhi

    # (y^-1 q)^theta * (1 - zeta_bar y^(1-qj) q^(-theta)): non-negative q-powers
    series: Series = {}
    kq1, ky1 = _scaled_exponent(theta, d), _scaled_exponent(-theta, d)
    if kq1 <= qcap and ylo <= ky1 <= yhi[kq1]:
        series[(kq1, ky1)] = [1] + [0] * (m - 1)
    ky2 = _scaled_exponent(1 - qj - theta, d)
    if ylo <= ky2 <= yhi[0]:
        series[(0, ky2)] = _rotate([-1] + [0] * (m - 1), -1)

    # remaining fermionic factors (1 - zeta_bar y^(1-qj) q^(k-theta)) and
    # (1 - zeta y^(qj-1) q^(k+theta)) with positive q-exponent
    for sign, y_exp in ((-1, 1 - qj), (1, qj - 1)):
        k = 1
        while True:
            kq = _scaled_exponent(k + sign * theta, d)
            if kq > qcap:
                break
            ky = _scaled_exponent(y_exp, d)
            if ylo <= ky <= yhi[kq]:
                series = _times_binomial(series, kq, ky, sign, ctx)
            k += 1
    # bosonic towers sum_s zeta^s (y^qj q^(k+theta))^s, k >= 0, and
    # sum_s zeta^(-s) (y^-qj q^(k-theta))^s, k >= 1, expanded in the fixed
    # annulus; the kept s are those whose term lies in the window
    for sign, first in ((1, 0), (-1, 1)):
        k = first
        while True:
            step_q = _scaled_exponent(k + sign * theta, d)
            if step_q > qcap:
                break
            step_y = _scaled_exponent(sign * qj, d)
            kept = []
            s = 0
            while s * step_q <= qcap and (
                    s * step_y <= yhi[s * step_q] if sign > 0 else s * step_y >= ylo):
                if ylo <= s * step_y <= yhi[s * step_q]:
                    kept.append(s)
                s += 1
            series = _times_geometric(series, step_q, step_y, sign, kept, m, ctx)
            k += 1
    return series


@lru_cache(maxsize=None)
def _substitution(n: int, unit: int) -> tuple:
    """Sparse rows of x^(k unit mod n) reduced mod Phi_n, k = 0 .. n-1: the
    substitution x -> x^unit on vectors of at most n slots."""
    power_rows = _power_rows(n)
    return tuple(tuple((i, r) for i, r in enumerate(power_rows[k * unit % n]) if r)
                 for k in range(n))


@lru_cache(maxsize=None)
def _summed_substitution(n: int, units: tuple[int, ...]) -> tuple:
    """Sparse rows of sum_{u in units} x^(k u mod n) reduced mod Phi_n: the
    sum of the substitutions x -> x^u, row by row, zero entries dropped."""
    out = []
    for parts in zip(*(_substitution(n, u) for u in units)):
        row: dict[int, int] = {}
        for part in parts:
            for i, r in part:
                row[i] = row.get(i, 0) + r
        out.append(tuple((i, r) for i, r in sorted(row.items()) if r))
    return tuple(out)


def _substitute(coeffs, rows: tuple, phi: int) -> list[int]:
    """sum_k coeffs[k] rows[k], a vector over the power basis of zeta_N."""
    vec = [0] * phi
    for c, row in zip(coeffs, rows):
        if c:
            for i, r in row:
                vec[i] += c * r
    return vec


def _at_twist(formal: Series, unit: int, ctx: SeriesContext) -> Series:
    """A formal factor at w = x^unit, reduced mod Phi_N; zeros dropped.

    Slot k of a formal vector moves to x^(k unit mod N); for the right twist
    b of a factor, unit = b N / m_j.
    """
    rows = _substitution(ctx.conductor, unit)
    out: Series = {}
    for term, coeffs in formal.items():
        vec = _substitute(coeffs, rows, ctx.phi)
        if any(vec):
            out[term] = vec
    return out


def _rotate(vec: list[int], k: int) -> list[int]:
    """vec * w^k for a coefficient vector over w^0 .. w^(m-1), w^m = 1."""
    k %= len(vec)
    return vec[-k:] + vec[:-k] if k else vec


def _times_binomial(s: Series, kq: int, ky: int, k: int, ctx: SeriesContext) -> Series:
    """s * (1 - w^k q^kq y^ky), w^m = 1 coefficients, truncated to the window."""
    qcap, ylo, yhi = ctx.qcap, ctx.ylo, ctx.yhi
    out: Series = dict(s)
    for (q, y), v in s.items():
        key = (q + kq, y + ky)
        if key[0] <= qcap and ylo <= key[1] <= yhi[key[0]]:
            moved = _rotate(v, k)
            cur = out.get(key)
            out[key] = [-c for c in moved] if cur is None else list(map(sub, cur, moved))
    return {key: v for key, v in out.items() if any(v)}


def _times_geometric(
    s: Series, step_q: int, step_y: int, ratio: int, kept: list[int], m: int, ctx: SeriesContext
) -> Series:
    """s * sum_{t in kept} w^(t ratio) q^(t step_q) y^(t step_y) on the window,
    w^m = 1 coefficients.

    ``kept`` is a run t0..t1.  Along each chain p, p + step, ... the product
    obeys P[p] = w^(t0 ratio) s[p - t0 step] + w^ratio P[p - step]
    - w^((t1+1) ratio) s[p - (t1+1) step].  A chain is walked from its
    first term of s, moved on by t0 steps, until it leaves the window; P
    vanishes before that start, as s has no earlier term on the chain.

    The walk is exact when no point of the chain from the start on lies in
    the window after one that does not.  The q-cap keeps that, as
    step_q >= 0, and so does the floor ylo for a falling step; a rising
    step starts at or above ylo, as t0 step_y >= 0 and s lies in the
    window.  Under the ceiling, the height yhi[q] - y along a chain changes
    at each step by the ceiling's drop over step_q rows less the tower's
    fall -step_y.  The step bound asserted below says that change has one
    sign on every row: the ceiling drops over each step at least as far as
    the tower falls, or on every row at most as far.  In the first case
    the height never rises, so a chain that leaves the ceiling never comes
    back under it.  That is the case of every rising step, and of every
    tower on the window of ``genus._build_context``, whose ceiling falls
    at a rate no tower step exceeds.  In the second (a flat ceiling, say)
    the height never falls, so the chain stays under the ceiling from its
    start, which is under it because s[start - t0 step] is.
    """
    if not kept:
        return {}
    t0, t1 = kept[0], kept[-1]
    assert kept == list(range(t0, t1 + 1))
    head, ratio, tail = (t0 * ratio) % m, ratio % m, ((t1 + 1) * ratio) % m
    back_q, back_y = t0 * step_q, t0 * step_y
    lag_q, lag_y = (t1 + 1) * step_q, (t1 + 1) * step_y
    qcap, ylo, yhi = ctx.qcap, ctx.ylo, ctx.yhi
    drops = {yhi[q] - yhi[q + step_q] for q in range(qcap + 1 - step_q)}
    assert min(drops) >= -step_y or max(drops) <= -step_y, "a chain may re-enter the window"
    order = sorted(s) if step_q else sorted(s, key=lambda term: term[1] * step_y)
    get = s.get
    out: Series = {}
    for kq, ky in order:
        q, y = kq + back_q, ky + back_y
        if (q, y) in out:
            continue  # on the chain of an earlier term
        val = None
        while q <= qcap and ylo <= y <= yhi[q]:
            src = get((q - back_q, y - back_y))
            if val is None:
                val = src[-head:] + src[:-head] if head else src
            else:
                if ratio:
                    val = val[-ratio:] + val[:-ratio]
                if src is not None:
                    val = list(map(add, val, src[-head:] + src[:-head] if head else src))
            lagged = get((q - lag_q, y - lag_y))
            if lagged is not None:
                val = list(map(sub, val, lagged[-tail:] + lagged[:-tail] if tail else lagged))
            out[(q, y)] = val
            q += step_q
            y += step_y
    return {key: v for key, v in out.items() if any(v)}


# ---------------------------------------------------------------------------
# The double sum
# ---------------------------------------------------------------------------


def _class_memos(charges, moduli) -> list[dict]:
    """One memo per variable, shared by the variables of one (q_j, m_j) class:
    their factors are the same functions of the twists."""
    classes: dict = {}
    return [classes.setdefault(key, {}) for key in zip(charges, moduli)]


def galois_units(n: int) -> tuple[int, ...]:
    """The units u mod n, ascending: zeta_n -> zeta_n^u is the Galois group."""
    return tuple(k for k in range(1, n + 1) if gcd(k, n) == 1)


class _ExactRing:
    """Exact series coefficients for ``double_sum``: integer vectors over the
    power basis of zeta_N on the context window.

    The ring keeps one formal factor F_a(w) of ``variable_factor`` per class
    (q_j, m_j) and left twist a.  ``factor`` substitutes w = e(b / m_j) into
    it and ``twist_sum`` reads the character sum over b off one slot; in
    ``character_sum`` e(k/N) acts by rotation, reduced mod Phi_N once per
    sum.  The contraction multiplies ``lift``-ed operands, packed q-rows
    (``_Rows``), and sums products per state in a dict; a state reached by
    one untransformed product keeps that product until a second one arrives.
    Its ``units`` are the whole unit group mod N.
    """

    def __init__(self, ctx: SeriesContext):
        self.ctx = ctx
        self.charges = ctx.charges
        self.moduli = ctx.moduli
        self.unit = {(0, 0): [1] + [0] * (ctx.phi - 1)}
        self._formal = _class_memos(self.charges, self.moduli)

    @property
    def units(self) -> tuple[int, ...]:
        return galois_units(self.ctx.conductor)

    def _formal_factor(self, j: int, a: int) -> Series:
        a %= self.moduli[j]
        formal = self._formal[j].get(a)
        if formal is None:
            formal = self._formal[j][a] = variable_factor(self.ctx, j, a)
        return formal

    def factor(self, j: int, a: int, b: int) -> Series:
        """The factor at twists (a, b): F_a(w^b), reduced mod Phi_N."""
        m = self.moduli[j]
        return _at_twist(self._formal_factor(j, a), b % m * (self.ctx.conductor // m), self.ctx)

    def twist_sum(self, j: int, a: int, index: int) -> Series:
        """sum_b e(index b / m_j) factor(j, a, b) = m_j [w^(-index)] F_a, a
        rational series."""
        m = self.moduli[j]
        k = -index % m
        pad = [0] * (self.ctx.phi - 1)
        return {key: [m * vec[k]] + pad for key, vec in self._formal_factor(j, a).items() if vec[k]}

    def character_sum(self, index: int, values: list[Series]) -> Series:
        """sum_t e(index t / m) values[t], m = len(values)."""
        n = self.ctx.conductor
        step = index * (n // len(values))
        acc: Series = {}
        for t, series in enumerate(values):
            k = (step * t) % n
            for key, vec in series.items():
                moved = _rotate(list(vec) + [0] * (n - len(vec)), k)
                cur = acc.get(key)
                acc[key] = moved if cur is None else list(map(add, cur, moved))
        return _at_twist(acc, 1, self.ctx)

    def lift(self, series) -> _Rows:
        """A transform or an accumulated state value as a multiplicand."""
        if isinstance(series, _Rows):
            return series
        return _Rows.of({key: vec for key, vec in series.items() if any(vec)})

    def mul(self, a: _Rows, b: _Rows) -> _Rows:
        return _mul_rows(a, b, self.ctx)

    def accumulate(self, acc, product: _Rows, ks: tuple[int, ...]):
        """acc plus sigma_k(product), zeta_N -> zeta_N^k, for each unit k in
        ks, through the one summed map of ks."""
        if acc is None and ks == (1,):
            return product  # shared; copied when a second product arrives
        if not isinstance(acc, dict):
            acc = {} if acc is None else {key: list(vec) for key, vec in acc.items()}
        if ks == (1,):  # sigma_1 is the identity
            for key, vec in product.items():
                _add_term(acc, key, vec)
            return acc
        rows, phi = _summed_substitution(self.ctx.conductor, ks), self.ctx.phi
        for key, vec in product.items():
            _add_term(acc, key, _substitute(vec, rows, phi))
        return acc

    def finish(self, acc) -> Series:
        """The summed series of an accumulator, zero coefficients dropped."""
        return {key: list(vec) for key, vec in acc.items() if any(vec)}


def _transform(ring, memo: dict, j: int, sides: tuple[str, str], il: int, ir: int):
    """Variable j's transform at (il, ir) under the side modes ``sides`` (see
    ``double_sum``), kept in ``memo``, the memo of j's class.

    A module function, not a closure in ``double_sum``: a closure that calls
    itself is a reference cycle, which would keep the ring and everything it
    holds alive after the sum until the cyclic garbage collector runs."""
    key = (sides, il, ir)
    val = memo.get(key)
    if val is None:
        if sides[0] == "T":
            inner = ("D", sides[1])
            val = ring.character_sum(il, [_transform(ring, memo, j, inner, a, ir)
                                          for a in range(ring.moduli[j])])
        elif sides[1] == "T":
            val = ring.twist_sum(j, il, ir)
        else:
            val = ring.factor(j, il, ir)
        memo[key] = val
    return val


def double_sum(ring, classes_l: list[list[Vec]], reps_r: list[Vec], mode_l: str, mode_r: str) -> list:
    """Sum over (left, right) representatives of the product over variables,
    one total per class of left representatives.

    Mode "D" iterates group-element coordinates, mode "T" annihilator
    characters.  Variable j of a pair (il, ir) contributes the ring's
    transform of its factor f_j(a, b): f_j(il, ir) itself for ("D", "D"),
    the right twist sum ``twist_sum(j, il, ir)`` = sum_b e(ir b / m_j)
    f_j(il, b) for ("D", "T"), and for a "T" left side the character sum
    sum_a e(il a / m_j) of the ("D", right) transform at (a, ir).  These
    depend on j only through (q_j, m_j) and are cached per such class.

    The sum is contracted one coordinate at a time (``_contract.plan``):
    pairs of prefixes with the same completions on both sides share one
    state, whose value is the sum of their partial products, so each such
    sum is multiplied by the next transform once.  Truncation to the window,
    reduction mod Phi_N and each sigma_u below are linear, so the exact total
    is the sum of the pair products.  The ring's ``units`` u act through
    sigma_u: zeta_N -> zeta_N^u, which maps f_j(a, b) to f_j(a, u b), as b
    enters only through the phase w^b, and a character index i to u i; so
    sigma_u scales a "T" left index and a "D" right twist by u, and values
    are kept on one state of each orbit.  ``units = (1,)`` pairs nothing.

    The ring supplies ``charges``, ``moduli``, ``factor(j, a, b)``,
    ``twist_sum(j, a, index)``, ``character_sum(index, values)``, ``units``
    (1 first) and the contraction's ``unit``, ``lift`` (a transform or an
    accumulator as a multiplicand), ``mul``, ``accumulate(acc, product, ks)``
    (acc None at first; the sum of sigma_k(product) over the units ks) and
    ``finish`` (an accumulator as the result).  The right representatives
    and each left class must be closed under the scaling by each unit, and
    no class may be empty.  Left prefixes share a state where their
    completions into every class agree.
    """
    moduli = ring.moduli
    modes = (mode_l, mode_r)
    cache = _class_memos(ring.charges, moduli)
    keys, steps, states, finals = plan(tuple(tuple(map(tuple, reps)) for reps in classes_l),
                                       tuple(map(tuple, reps_r)), mode_l, mode_r, moduli, ring.units)
    lifted = _class_memos(ring.charges, moduli)  # one multiplicand per class and twist pair
    table = []
    for j, il, ir in keys:
        if (il, ir) not in lifted[j]:
            lifted[j][il, ir] = ring.lift(_transform(ring, cache[j], j, modes, il, ir))
        table.append(lifted[j][il, ir])
    acc = [None] * states
    acc[0] = ring.unit
    for sid, edges in steps:
        value = ring.lift(acc[sid])
        acc[sid] = None
        for t, target, ks in edges:
            product = ring.mul(value, table[t]) if sid else table[t]  # the root's value is 1
            acc[target] = ring.accumulate(acc[target], product, ks)
    return [ring.finish(acc[final]) for final in finals]


# ---------------------------------------------------------------------------
# Finalization
# ---------------------------------------------------------------------------


def rationalize(
    total: Series, ctx: SeriesContext, scalar: Fraction
) -> dict[tuple[Fraction, Fraction], Fraction]:
    """Scale accumulated integer-vector terms and demand rational values.

    A vector is rational iff its components on z, ..., z^(phi-1) vanish; any
    that do not raise ``RationalityError`` with the scaled residual.
    """
    out: dict[tuple[Fraction, Fraction], Fraction] = {}
    d = ctx.denominator
    for (kq, ky), vec in sorted(total.items()):
        e_q, e_y = Fraction(kq, d), Fraction(ky, d)
        if any(vec[1:]):
            residual = {i: Fraction(c) * scalar for i, c in enumerate(vec) if i and c}
            raise RationalityError(e_q, e_y, residual)
        if vec[0]:
            out[(e_q, e_y)] = Fraction(vec[0]) * scalar
    return out
