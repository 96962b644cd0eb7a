"""Shared fixtures: test potentials and a hypothesis strategy for invertible
ones, the term-pair reference arithmetic for the exact engine's
integer-vector series and a slow sector builder on it, list-based reference
group algebra kept off the lattice code, the one-vector-at-a-time zero-level
lattice count, a point-by-point zero count of one atom's sector theta
ratio next to ``verify``'s pole rule on it, the q-slices of a series, the
two pairings of a whole-group sum and the Jacobian ring count behind the
Witten index.  Nothing here
imports the engine or ``genus`` at module level."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from hypothesis import assume
from hypothesis import strategies as st

from orbigenus.exactmath import (
    _power_rows,
    euler_phi,
    invert_rational_matrix,
    lcm,
    mat_det,
)
from orbigenus.potential import (
    compute_charges,
    make_potential,
    parse_potential,
    transpose_potential,
)

F = Fraction

QUINTIC = parse_potential("x1^5+x2^5+x3^5+x4^5+x5^5")
CUBIC = parse_potential("x1^3+x2^3+x3^3")
TWO_SQUARES = parse_potential("x1^2+x2^2")
K3_CHAIN = parse_potential("x1^3*x2+x2^4+x3^4+x4^4")
LOOP_K3 = parse_potential("x1^3*x2+x2^3*x1+x3^4+x4^4")

ATOMS = st.one_of(
    st.tuples(st.just("fermat"), st.tuples(st.integers(2, 9))),
    st.tuples(st.just("chain"), st.lists(st.integers(2, 5), min_size=2, max_size=3).map(tuple)),
    st.tuples(st.just("loop"), st.lists(st.integers(2, 4), min_size=2, max_size=3).map(tuple)),
)


def potential_from_atoms(atoms):
    """Block-diagonal exponent matrix: x^a, x1^a1 x2 + ... + xk^ak (chain),
    x1^a1 x2 + ... + xk^ak x1 (loop)."""
    d = sum(len(exps) for _, exps in atoms)
    rows = []
    offset = 0
    for kind, exps in atoms:
        k = len(exps)
        for i, a in enumerate(exps):
            row = [0] * d
            row[offset + i] = a
            if kind == "chain" and i < k - 1:
                row[offset + i + 1] = 1
            if kind == "loop":
                row[offset + (i + 1) % k] = 1
            rows.append(row)
        offset += k
    return make_potential(rows)


@st.composite
def cy_potentials(draw, max_det):
    """Atoms completed by Fermat atoms x^b until the charges sum to an integer."""
    atoms = draw(st.lists(ATOMS, min_size=1, max_size=2))
    total = sum(compute_charges(potential_from_atoms(atoms)).q)
    gap = math.ceil(total) - total
    assume(gap.numerator <= 2)
    if gap:
        atoms = atoms + [("fermat", (gap.denominator,))] * gap.numerator
    p = potential_from_atoms(atoms)
    assume(abs(mat_det(p.matrix)) <= max_det)
    return p


@st.composite
def d_left_orbifolds(draw):
    """A generated CY model with J or SL whose double sum runs its left side
    over at most 16 group elements (mode "D") at a conductor in 3 .. 42."""
    from orbigenus.genus import _sum_setup
    from orbigenus.symmetry import grading_subgroup, sl_subgroup

    p = draw(cy_potentials(200))
    group = (grading_subgroup if draw(st.booleans()) else sl_subgroup)(p)
    setup = _sum_setup(group)
    # an exponent above 2 leaves an element that is not its own inverse
    assume(setup.mode_l == "D" and len(setup.left) <= 16 and 2 < lcm(*setup.moduli) <= 42)
    return p, group


def pairings(group):
    """The set-ups of the whole-group sum over ``group``: the exact path's and,
    where that one pairs group elements with characters, the same-mode one
    of the numeric path (both sides over the smaller of G and ann(G))."""
    from orbigenus.genus import _sum_setup

    setup = _sum_setup(group)
    return [setup] if setup.mode_l == setup.mode_r else [setup, _sum_setup(group, exact=False)]


def same_mode_pairing(monkeypatch):
    """Run every exact sum on the same-mode pairing of ``pairings``."""
    from orbigenus import genus

    setup = genus._sum_setup
    monkeypatch.setattr(genus, "_sum_setup",
                        lambda group, twist=None, exact=True: setup(group, twist, exact=False))


@lru_cache(maxsize=None)
def genus_series_cached(text, group_gens, qmax, ycap):
    from orbigenus.genus import ell_genus_series
    from orbigenus.symmetry import SymmetryGroup

    p = parse_potential(text)
    group = SymmetryGroup.from_generator_strings(group_gens, p.dimension)
    return ell_genus_series(p, group, qmax=qmax, ycap=ycap)


def q_slice(series, e_q):
    """The coefficients of q^e_q in a ``GenusSeries``, keyed by y-exponent."""
    return {ey: c for (eq, ey), c in series.terms.items() if eq == e_q}


# ---------------------------------------------------------------------------
# Term-pair reference for the engine's series: dicts (kq, ky) -> coefficient
# vector over the power basis of zeta_N, truncated to the context window.
# ---------------------------------------------------------------------------


def reference_vec_mul(u, v, conductor):
    """Product in Z[zeta_N]: full convolution, then x^k replaced by its
    reduction mod Phi_N."""
    phi = euler_phi(conductor)
    powers = _power_rows(conductor)
    out = [0] * phi
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            for idx, r in enumerate(powers[i + j]):
                out[idx] += ui * vj * r
    return out


def reference_series_mul(a, b, ctx):
    """Every term pair multiplied and cut to the window, zero vectors dropped.

    The window of ``ctx`` holds q-rows 0 .. qcap, y from ylo up to the
    ceiling yhi[kq] of the row."""
    out = {}
    for (kq1, ky1), v1 in a.items():
        for (kq2, ky2), v2 in b.items():
            kq, ky = kq1 + kq2, ky1 + ky2
            if kq > ctx.qcap or not ctx.ylo <= ky <= ctx.yhi[kq]:
                continue
            prod = reference_vec_mul(v1, v2, ctx.conductor)
            cur = out.setdefault((kq, ky), [0] * len(prod))
            for i, c in enumerate(prod):
                cur[i] += c
    return {k: v for k, v in out.items() if any(v)}


def reference_variable_factor(ctx, j, a, b):
    """The single-variable factor as a product of its binomials and truncated
    geometric towers, each multiplied in with ``reference_series_mul``."""
    qj, m = ctx.charges[j], ctx.moduli[j]
    n, d = ctx.conductor, ctx.denominator
    qcap, ylo, yhi = ctx.qcap, ctx.ylo, ctx.yhi
    a %= m
    b %= m
    theta = F(a, m)
    ib = (b * (n // m)) % n
    powers = _power_rows(n)

    def root(k):
        return list(powers[k % n])

    def neg(vec):
        return [-c for c in vec]

    def scaled(value):
        out = value * d
        assert out.denominator == 1
        return int(out)

    # (y^-1 q)^theta * (1 - zeta_bar y^(1-qj) q^(-theta))
    series = {}
    kq1, ky1 = scaled(theta), scaled(-theta)
    if kq1 <= qcap and ylo <= ky1 <= yhi[kq1]:
        series[(kq1, ky1)] = root(0)
    ky2 = scaled(1 - qj - theta)
    if ylo <= ky2 <= yhi[0]:
        series[(0, ky2)] = neg(root(-ib))
    polys = []
    # fermionic binomials, the monomial kept only inside the window
    for sign, y_exp, coeff in ((-1, 1 - qj, neg(root(-ib))), (1, qj - 1, neg(root(ib)))):
        k = 1
        while scaled(k + sign * theta) <= qcap:
            poly = {(0, 0): root(0)}
            kq = scaled(k + sign * theta)
            if ylo <= scaled(y_exp) <= yhi[kq]:
                poly[(kq, scaled(y_exp))] = coeff
            polys.append(poly)
            k += 1
    # bosonic towers: terms until q or the far y-edge of their row is
    # passed, those inside the window kept
    k = 0
    while scaled(k + theta) <= qcap:
        step_q, step_y = scaled(k + theta), scaled(qj)
        geom = {}
        s = 0
        while s * step_q <= qcap and s * step_y <= yhi[s * step_q]:
            if s * step_y >= ylo:
                geom[(s * step_q, s * step_y)] = root(s * ib)
            s += 1
        polys.append(geom)
        k += 1
    k = 1
    while scaled(k - theta) <= qcap:
        step_q, step_y = scaled(k - theta), scaled(-qj)
        geom = {}
        s = 0
        while s * step_q <= qcap and s * step_y >= ylo:
            if s * step_y <= yhi[s * step_q]:
                geom[(s * step_q, s * step_y)] = root(-s * ib)
            s += 1
        polys.append(geom)
        k += 1
    for poly in polys:
        series = reference_series_mul(series, poly, ctx)
    return series


def reference_sector_pair_series(potential, thetas_n, thetas_n1, windows, conductor):
    """One (n, n1) sector term: the product over the variables of
    ``reference_variable_factor``, multiplied with ``reference_series_mul``.

    The product runs on a rectangular window of its own, padded by the
    largest negative y-excursion the q-window allows, and is then
    restricted to ``windows``.
    Returns {(e_q, e_y): coefficient vector over the power basis of zeta_N}
    with N = ``conductor``, which every twist denominator must divide.
    """
    qs = tuple(compute_charges(potential).q)
    pad = sum(
        (q * windows.qmax / (1 - t) for q, t in zip(qs, thetas_n)),
        F(0),
    ) + len(qs) * (1 + windows.qmax)
    d = lcm(
        conductor,
        windows.qmax.denominator,
        windows.ymin.denominator,
        windows.ymax.denominator,
        *(q.denominator for q in qs),
    )
    qcap = int(windows.qmax * d)
    ctx = SimpleNamespace(
        conductor=conductor,
        denominator=d,
        qcap=qcap,
        ylo=math.floor((min(windows.ymin, 0) - pad) * d),
        yhi=(math.ceil((windows.ymax + pad) * d),) * (qcap + 1),
        charges=qs,
        moduli=(conductor,) * len(qs),
    )

    def twist(t):
        scaled = t * conductor
        assert scaled.denominator == 1, f"twist {t} not a multiple of 1/{conductor}"
        return int(scaled)

    series = {(0, 0): list(_power_rows(conductor)[0])}
    for j in range(len(qs)):
        factor = reference_variable_factor(ctx, j, twist(thetas_n[j]), twist(thetas_n1[j]))
        series = reference_series_mul(series, factor, ctx)
    return {
        (F(kq, d), F(ky, d)): vec
        for (kq, ky), vec in series.items()
        if windows.ymin * d <= ky <= windows.ymax * d
    }


def reference_rational_terms(series, scale=1):
    """{(e_q, e_y): Fraction} of a vector series times ``scale``, zeros
    dropped; every vector must be rational (zero off the constant slot)."""
    assert all(not any(vec[1:]) for vec in series.values()), "non-rational coefficient"
    return {key: F(vec[0]) * scale for key, vec in series.items() if vec[0]}


# ---------------------------------------------------------------------------
# List-based reference group algebra.  A group is its sorted list of elements,
# each a tuple of Fractions in [0, 1); nothing here uses symmetry.py.
# ---------------------------------------------------------------------------


def _exponent(vectors):
    return lcm(1, *(e.denominator for v in vectors for e in v))


def _scaled(vectors, m):
    return [tuple(x.numerator * (m // x.denominator) for x in v) for v in vectors]


def _closure_scaled(generators, m, dimension):
    zero = (0,) * dimension
    elements = {zero}
    frontier = [zero]
    gens = [g for g in generators if g != zero]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                s = tuple((a + b) % m for a, b in zip(e, g))
                if s not in elements:
                    elements.add(s)
                    nxt.append(s)
        frontier = nxt
    return sorted(elements)


def reference_closure(generators, dimension):
    """Sorted elements of the group the phase vectors generate, by closure."""
    gens = [tuple(F(x) % 1 for x in g) for g in generators]
    m = _exponent(gens)
    return [tuple(F(a, m) for a in e) for e in _closure_scaled(_scaled(gens, m), m, dimension)]


@lru_cache(maxsize=None)
def _aut_elements(potential):
    inv = invert_rational_matrix(potential.matrix)
    return tuple(reference_closure(list(zip(*inv)), potential.dimension))


def reference_aut(potential):
    """Closure over the columns of A^-1."""
    return list(_aut_elements(potential))


def reference_sl(potential):
    """The elements of Aut whose coordinates sum to an integer."""
    return [e for e in _aut_elements(potential) if sum(e).denominator == 1]


def reference_grading(potential):
    return reference_closure([compute_charges(potential).q], potential.dimension)


def reference_generators(elements):
    """Greedy generators: each element, in sorted order, not yet spanned."""
    m = _exponent(elements)
    dimension = len(elements[0])
    scaled = _scaled(elements, m)
    chosen = []
    span = {(0,) * dimension}
    for e in scaled:
        if e not in span:
            chosen.append(e)
            span = set(_closure_scaled(chosen, m, dimension))
            if len(span) == len(scaled):
                break
    return [tuple(F(a, m) for a in g) for g in chosen] or [(F(0),) * dimension]


def reference_generator_strings(elements):
    return [",".join(str(x) for x in g) for g in reference_generators(elements)]


def reference_moduli(elements):
    return tuple(lcm(1, *(e[j].denominator for e in elements)) for j in range(len(elements[0])))


def reference_structure(elements):
    """Invariant factors from sympy's Smith form of the generators (scaled by
    the exponent m) stacked on m times the identity."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    m = _exponent(elements)
    dimension = len(elements[0])
    rows = [list(g) for g in _scaled(reference_generators(elements), m)]
    rows += [[m * (i == j) for j in range(dimension)] for i in range(dimension)]
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    factors = (m // abs(snf[i, i]) for i in range(dimension))
    return tuple(sorted(f for f in factors if f > 1))


def reference_dual(potential, elements):
    """Scan of Aut(W^T) for the u with u.A.g integral for every generator g."""
    a = potential.matrix
    d = potential.dimension
    images = [
        tuple(sum(a[i][j] * g[j] for j in range(d)) for i in range(d))
        for g in reference_generators(elements)
    ]
    return [
        u for u in _aut_elements(transpose_potential(potential))
        if all(sum(x * w for x, w in zip(u, image)).denominator == 1 for image in images)
    ]


def reference_annihilator(elements, moduli):
    """Scan of prod_j Z/m_j for the s with sum_j s_j g_j integral for every generator g."""
    m_all = lcm(*moduli)
    rows = _scaled(reference_generators(elements), m_all)
    return [
        s for s in itertools.product(*(range(m) for m in moduli))
        if all(sum(sj * rj for sj, rj in zip(s, row)) % m_all == 0 for row in rows)
    ]


def reference_admissible_subgroups(potential):
    """Groups between <J> and SL by label closure over SL/<J>, each a sorted
    element list, in order of (size, elements)."""
    sl = reference_sl(potential)
    d = potential.dimension
    m = _exponent(sl)
    sl_scaled = _scaled(sl, m)
    j_scaled = tuple(int((q % 1) * m) for q in compute_charges(potential).q)
    j_multiples = _closure_scaled([j_scaled], m, d)

    def label(e):
        return min(tuple((a + b) % m for a, b in zip(e, k)) for k in j_multiples)

    labels = sorted({label(e) for e in sl_scaled})
    zero_label = label((0,) * d)

    def close(subset):
        out = set(subset) | {zero_label}
        frontier = list(out)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(out):
                    s = label(tuple((x + y) % m for x, y in zip(a, b)))
                    if s not in out:
                        out.add(s)
                        nxt.append(s)
            frontier = nxt
        return frozenset(out)

    found = {frozenset({zero_label})}
    queue = list(found)
    while queue:
        current = queue.pop()
        for x in labels:
            if x not in current:
                bigger = close(current | {x})
                if bigger not in found:
                    found.add(bigger)
                    queue.append(bigger)
    groups = [
        [e for e, scaled in zip(sl, sl_scaled) if label(scaled) in subset]
        for subset in found
    ]
    return sorted(groups, key=lambda g: (len(g), g))


# ---------------------------------------------------------------------------
# Zero-level lattice count, one occupancy vector at a time.
# ---------------------------------------------------------------------------


def reference_zero_level(potential, group, ywindow):
    """Level-zero slice of the group-averaged supertrace: every occupancy
    vector c of the level-0 bosons and subset S of the level-0 fermions with
    charge inside the window, kept iff c - 1_S pairs integrally with every
    generator, its pairings carried as Fractions.  No work cap."""
    charges = compute_charges(potential)
    qs = tuple(charges.q)
    dim = len(qs)
    ymin, ymax = F(ywindow[0]), F(ywindow[1])
    d = lcm(*(q.denominator for q in qs)) if qs else 1
    gen_coords = [g.entries for g in group.generators]
    counts = {}

    def recurse(i, ky, pairing, fermions):
        if i == dim:
            if ky < ymin * d or ky > ymax * d:
                return
            if any(p.denominator != 1 for p in pairing):
                return
            counts[ky] = counts.get(ky, 0) + (-1) ** fermions
            return
        step = int(qs[i] * d)
        psi_step = int((1 - qs[i]) * d)
        c = 0
        while True:
            base = ky + c * step
            if base > ymax * d:
                break
            pair_c = tuple(p + c * g[i] for p, g in zip(pairing, gen_coords))
            recurse(i + 1, base, pair_c, fermions)
            recurse(
                i + 1,
                base + psi_step,
                tuple(p - g[i] for p, g in zip(pair_c, gen_coords)),
                fermions + 1,
            )
            c += 1

    recurse(0, 0, tuple(F(0) for _ in gen_coords), 0)
    return {(F(0), F(ky, d)): F(v) for ky, v in counts.items() if v}


# ---------------------------------------------------------------------------
# Zeros of one atom's sector theta ratio, point by point.
# ---------------------------------------------------------------------------


def reference_sector_zero_orders(qs, tn, tn1):
    """Order of vanishing of the denominator of
    prod_j T((1 - q_j) z - tn_j tau - tn1_j) / T(q_j z + tn_j tau + tn1_j)
    minus that of the numerator, at every point z = a tau + b of the period
    box [0, L)^2 (L the lcm of the charge denominators) where some
    denominator factor vanishes.  T(s z + c tau + c1) vanishes at z iff
    s a + c and s b + c1 are both integers; every factor is tested at every
    point."""
    period = lcm(*(q.denominator for q in qs))

    def roots(t):
        # coordinates x in [0, L) with q_j x + t_j an integer for some j
        return {
            (k - tj) / qj
            for qj, tj in zip(qs, t)
            for k in range(math.floor(tj), math.ceil(tj + qj * period) + 1)
            if 0 <= (k - tj) / qj < period
        }

    def vanishes(s, c, c1, a, b):
        return (s * a + c).denominator == 1 and (s * b + c1).denominator == 1

    orders = {}
    for a in roots(tn):
        for b in roots(tn1):
            den = sum(vanishes(q, t, t1, a, b) for q, t, t1 in zip(qs, tn, tn1))
            num = sum(vanishes(1 - q, -t, -t1, a, b) for q, t, t1 in zip(qs, tn, tn1))
            if den:
                orders[(a, b)] = den - num
    return orders


def sector_pole(qs, tn, tn1):
    """``verify``'s pole rule on one atom's sector theta ratio: (a, b, order)
    of the first pole at z = a tau + b, or None when the ratio is holomorphic."""
    from orbigenus.verify import _first_pole, _zero_types

    return _first_pole(_zero_types(qs, tn), _zero_types(qs, tn1))


# ---------------------------------------------------------------------------
# Jacobian ring count for the Witten index
# ---------------------------------------------------------------------------


def reference_jacobian_middle_dimension(exponents):
    """Number of monomials x^c, 0 <= c_i <= a_i - 2, of weighted degree 1 in
    the Jacobian ring of the diagonal potential sum_i x_i^(a_i): its
    middle-dimensional classes, counted without the package."""
    counts = {Fraction(0): 1}
    for a in exponents:
        new = {}
        for deg, cnt in counts.items():
            for c in range(a - 1):
                nd = deg + Fraction(c, a)
                if nd <= 1:
                    new[nd] = new.get(nd, 0) + cnt
        counts = new
    return counts.get(Fraction(1), 0)
