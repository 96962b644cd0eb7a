"""The double-sum driver ``_engine.double_sum``, tested from outside it.

The driver runs the exact path over ``_engine._ExactRing`` and the numeric
path over ``genus._ThetaRing``.  These tests swap the exact ring for a
subclass that counts products, pairs none of them or breaks their Galois
symmetry, compare single transforms of both rings with explicit sums (the
exact ones over the engine-free reference factors of ``helpers``), compare
the contraction with an explicit sum over every pair, and compare the
numeric ring with sector-by-sector totals.
"""

import cmath
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    CUBIC,
    K3_CHAIN,
    LOOP_K3,
    QUINTIC,
    cy_potentials,
    pairings,
    reference_series_mul,
    reference_variable_factor,
    reference_vec_mul,
    same_mode_pairing,
)
from orbigenus import _engine, genus
from orbigenus._engine import RationalityError
from orbigenus.exactmath import _power_rows, lcm
from orbigenus.genus import (
    NearPoleError,
    ell_genus_numeric,
    jacobi_reach,
    sector_value_from_coords,
)
from orbigenus.potential import compute_charges, parse_potential, transpose_potential
from orbigenus.symmetry import dual_group, grading_subgroup, sl_subgroup
from orbigenus.theta import ThetaKernel

F = Fraction
SEPTIC = parse_potential("+".join(f"x{i}^7" for i in range(1, 8)))
Z, TAU = 0.23 + 0.04j, 0.11 + 1.31j


class CountingRing(_engine._ExactRing):
    products = 0

    def mul(self, a, b):
        CountingRing.products += 1
        return super().mul(a, b)


class UnpairedRing(_engine._ExactRing):
    units = (1,)


class SkewRing(_engine._ExactRing):
    """The exact ring with every transform multiplied by c = 2 + zeta_N.
    sigma_u(c) = 2 + zeta_N^u is not c, so sigma_u no longer maps the
    product of a sector pair to the product of its image.  No power of c is
    rational (N > 2), so the pair sum c^d S is not; the orbit sums of the
    skewed products are not either on the models tested below."""

    def _skew(self, series):
        n = self.ctx.conductor
        c = [2, 1] + [0] * (self.ctx.phi - 2)
        return {key: reference_vec_mul(c, vec, n) for key, vec in series.items()}

    def factor(self, j, a, b):
        return self._skew(super().factor(j, a, b))

    def twist_sum(self, j, a, index):
        return self._skew(super().twist_sum(j, a, index))


def raw_sum(qs, group, qmax, st_lo, st_hi, twist=None):
    """The engine total of the sum set up by ``genus`` on a context exact on
    [st_lo, st_hi], before the window cut and rationalization."""
    setup = genus._sum_setup(group, twist)
    ctx = genus._build_context(qs, setup.moduli, qmax, st_lo, st_hi, setup.theta_max)
    total, = _engine.double_sum(_engine._ExactRing(ctx), [setup.left], setup.right,
                                setup.mode_l, setup.mode_r)
    return total


def count_products(monkeypatch, potential, group):
    monkeypatch.setattr(_engine, "_ExactRing", CountingRing)
    CountingRing.products = 0
    genus._genus_rational_terms(potential, group, F(1), F(3))
    return CountingRing.products


def orbit_count(group):
    """Series products of a sum that multiplies out one product of each
    Galois orbit of sector pairs, d - 1 per product.  The unit u maps the
    pair (l, r) to (u l, r) for character sums ("T") and to (l, u r) for
    group elements ("D").  A "D" left side runs over one element of each
    inverse pair {g, g^-1}, the self-inverse ones included; orbits are
    counted by visiting every pair of such a left element and a right one.
    Both sides run in one mode."""
    setup = genus._sum_setup(group)
    assert setup.mode_l == setup.mode_r
    moduli, reps, mode = setup.moduli, setup.right, setup.mode_r
    n = lcm(*moduli)
    units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]

    def scaled(vec, u):
        return tuple(u * x % m for x, m in zip(vec, moduli))

    lefts = [rep for rep in map(tuple, reps) if mode == "T" or scaled(rep, -1) >= rep]
    seen, orbits = set(), 0
    for pair in itertools.product(lefts, map(tuple, reps)):
        if pair in seen:
            continue
        orbits += 1
        rl, rr = pair
        seen.update((scaled(rl, u), rr) if mode == "T" else (rl, scaled(rr, u)) for u in units)
    assert orbits < len(reps) ** 2
    return orbits * (len(moduli) - 1)


@pytest.mark.parametrize("potential, group, mode, products", [
    pytest.param(K3_CHAIN, grading_subgroup(K3_CHAIN), "D", 27, id="k3chain-J"),
    pytest.param(QUINTIC, sl_subgroup(QUINTIC), "T", 40, id="quintic-SL"),
    pytest.param(QUINTIC, grading_subgroup(QUINTIC), "D", 24, id="quintic-J"),
    pytest.param(SEPTIC, grading_subgroup(SEPTIC), "D", 48, id="septic-J"),
])
def test_sector_products_one_chain_per_galois_orbit(monkeypatch, potential, group, mode, products):
    """Where no two prefixes share their completions the contraction forms
    one chain of products per orbit of the units mod N on the sector pairs
    of the folded left side (quintic J: 60 products when only conjugates
    were paired, 40 with the whole left side; septic J: 168, then 84)."""
    assert genus._sum_setup(group).mode_r == mode
    assert orbit_count(group) == products
    assert count_products(monkeypatch, potential, group) == products


@pytest.mark.parametrize("potential, group", [
    (K3_CHAIN, sl_subgroup(K3_CHAIN)),
    (LOOP_K3, sl_subgroup(LOOP_K3)),
])
def test_merged_prefixes_save_products(monkeypatch, potential, group):
    """On the same-mode pairing: both groups sum "D" x "T" by default."""
    assert genus._sum_setup(group).mode_r == "T"
    same_mode_pairing(monkeypatch)
    assert genus._sum_setup(group).mode_r == "D"
    assert count_products(monkeypatch, potential, group) < orbit_count(group)


def test_mixed_sum_folds_and_counts_its_products(monkeypatch):
    """The loop K3 with SL at q^1, |SL| = |ann SL| = 32, N = 8: group
    elements against characters, whose transforms no unit scales, so every
    edge is its own orbit.  Folded, the schedule forms 244 products; the
    whole left side would form 336."""
    group = sl_subgroup(LOOP_K3)
    setup = genus._sum_setup(group)
    assert (setup.mode_l, setup.mode_r, len(setup.left), len(setup.right)) == ("D", "T", 32, 32)
    assert len(genus._inverse_classes(setup)) == 2
    assert count_products(monkeypatch, LOOP_K3, group) == 244


def test_mixed_pairing_lists_no_side_past_the_size_cap(monkeypatch):
    """Where the larger side would pass ``GROUP_SIZE_CAP``, both sides keep
    the same-mode choice: a group whose smaller side can be listed never
    fails on listing the larger."""
    group = sl_subgroup(LOOP_K3)
    monkeypatch.setattr(genus, "GROUP_SIZE_CAP", 31)
    setup = genus._sum_setup(group)
    assert (setup.mode_l, setup.mode_r, len(setup.right)) == ("D", "D", 32)


@st.composite
def mixed_orbifolds(draw):
    """A generated CY model with J or SL whose exact genus sum runs group
    elements against characters, each side at most 64 representatives."""
    p = draw(cy_potentials(200))
    group = (grading_subgroup if draw(st.booleans()) else sl_subgroup)(p)
    setup = genus._sum_setup(group)
    assume(setup.mode_l != setup.mode_r and max(len(setup.left), len(setup.right)) <= 64)
    return p, group


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(mixed_orbifolds())
@example((LOOP_K3, sl_subgroup(LOOP_K3)))
@example((K3_CHAIN, sl_subgroup(K3_CHAIN)))
def test_mixed_pairing_equals_same_mode_sum(case):
    """The genus at q^1 summed "D" x "T", each pair weighted |G| / prod_j m_j,
    has the terms of the same-mode sum."""
    potential, group = case
    qmax = F(1)
    ycap = jacobi_reach(compute_charges(potential).central_charge, qmax) + genus.CERTIFY_MARGIN
    setup = genus._sum_setup(group)
    assert (setup.mode_l, setup.mode_r) == ("D", "T")
    mixed = genus._genus_rational_terms(potential, group, qmax, ycap)
    with pytest.MonkeyPatch.context() as patch:
        same_mode_pairing(patch)
        same = genus._genus_rational_terms(potential, group, qmax, ycap)
    assert mixed == same


@pytest.mark.parametrize("potential, group", [
    (K3_CHAIN, grading_subgroup(K3_CHAIN)),
    (QUINTIC, sl_subgroup(QUINTIC)),
    (CUBIC, sl_subgroup(CUBIC)),
])
def test_paired_sum_equals_unpaired_sum(monkeypatch, potential, group):
    """Galois images stand in for exactly the products they skip, in the
    genus sum and in one twisted sector."""
    twist = group.elements[-1]
    qs = tuple(compute_charges(potential).q)

    def sums():
        return (raw_sum(qs, group, F(1), F(-2), F(4)),
                raw_sum(qs, group, F(1), F(-2), F(4), twist=twist))

    paired = sums()
    monkeypatch.setattr(_engine, "_ExactRing", UnpairedRing)
    assert sums() == paired


@pytest.mark.parametrize("potential, group", [
    (K3_CHAIN, grading_subgroup(K3_CHAIN)),
    (QUINTIC, grading_subgroup(QUINTIC)),
    (QUINTIC, sl_subgroup(QUINTIC)),
])
@pytest.mark.parametrize("ring", [SkewRing, type("UnpairedSkewRing", (SkewRing,), {"units": (1,)})],
                         ids=["orbits", "unpaired"])
def test_non_galois_sum_is_not_rational(monkeypatch, potential, group, ring):
    """Each orbit sum is formed from its sigma_k images, with no shortcut
    that assumes the total rational: transforms that break the Galois
    symmetry give a sum that ``rationalize`` rejects.  Each group sums
    cyclotomic transforms, in one mode on both sides: a "D" x "T" total is
    rational by construction."""
    setup = genus._sum_setup(group)
    assert setup.mode_l == setup.mode_r
    monkeypatch.setattr(_engine, "_ExactRing", ring)
    with pytest.raises(RationalityError):
        genus._genus_rational_terms(potential, group, F(1), F(3))


@pytest.mark.parametrize("modes", [("T", "T"), ("T", "D"), ("D", "T"), ("D", "D")])
def test_theta_transforms_match_explicit_character_sums(modes):
    """One pair of coordinates, not a whole annihilator: over a set closed
    under negation a character sum with the wrong sign sums to the same."""
    group = sl_subgroup(CUBIC)
    moduli = group.coordinate_moduli()
    qs = tuple(compute_charges(CUBIC).q)
    il, ir = (1, 2, 0), (2, 0, 1)
    ring = genus._ThetaRing(qs, moduli, group, Z, ThetaKernel(TAU))
    value, = _engine.double_sum(ring, [[il]], [ir], *modes)

    expected = 1.0
    for q, m, s, s2 in zip(qs, moduli, il, ir):
        def f(a, b):
            return sector_value_from_coords((q,), (F(a, m),), (F(b, m),), Z, TAU)

        def e(k):
            return cmath.exp(2j * math.pi * k / m)

        lefts = range(m) if modes[0] == "T" else [s]
        rights = range(m) if modes[1] == "T" else [s2]
        expected *= sum(
            (e(s * a) if modes[0] == "T" else 1) * (e(s2 * b) if modes[1] == "T" else 1) * f(a, b)
            for a in lefts for b in rights
        )
    assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


# The dual K3 chain with the dual of J: moduli (3, 12, 4, 4), N = 12, mode T.
K3_DUAL = transpose_potential(K3_CHAIN)
K3_DUAL_GROUP = dual_group(K3_CHAIN, grading_subgroup(K3_CHAIN))


def transform_contexts():
    """Contexts with m_j = N (12 of 12), m_j < N, and m_j = 1 both at N = 1
    (the trivial group) and inside N = 12."""
    qs = tuple(compute_charges(K3_DUAL).q)
    moduli = K3_DUAL_GROUP.coordinate_moduli()
    assert moduli == (3, 12, 4, 4)
    out = []
    for mods in (moduli, (1, 12, 4, 4), (1, 1, 1, 1)):
        theta_max = tuple(F(m - 1, m) for m in mods)
        out.append(genus._build_context(qs, mods, F(1), F(-2), F(3), theta_max))
    return out


@pytest.mark.parametrize("ctx", transform_contexts(), ids=lambda c: str(c.moduli))
def test_exact_transforms_match_reference_sums(ctx):
    """factor(j, a, b) at every right twist b, coprime to m_j or not, and
    twist_sum(j, a, i) = sum_b e(i b / m_j) f_j(a, b), against factors built
    directly at b by the reference construction."""
    n = ctx.conductor
    roots = _power_rows(n)
    ring = _engine._ExactRing(ctx)
    for j, m in enumerate(ctx.moduli):
        for a in range(m):
            direct = [reference_variable_factor(ctx, j, a, b) for b in range(m)]
            for b in range(m):
                assert ring.factor(j, a, b) == direct[b], (j, a, b)
            for i in range(m):
                expected = {}
                for b, series in enumerate(direct):
                    phase = roots[i * b * (n // m) % n]
                    for key, vec in series.items():
                        term = reference_vec_mul(phase, vec, n)
                        cur = expected.setdefault(key, [0] * ctx.phi)
                        expected[key] = [u + v for u, v in zip(cur, term)]
                expected = {key: vec for key, vec in expected.items() if any(vec)}
                assert ring.twist_sum(j, a, i) == expected, (j, a, i)


@pytest.mark.parametrize("potential, group", [
    (K3_DUAL, K3_DUAL_GROUP),
    (QUINTIC, sl_subgroup(QUINTIC)),
])
def test_theta_ring_factor_equals_theta_ratio(potential, group):
    """The ring's float twists a / m give the factor of the Fraction twists
    bit for bit."""
    qs = tuple(compute_charges(potential).q)
    moduli = group.coordinate_moduli()
    theta = ThetaKernel(TAU)
    ring = genus._ThetaRing(qs, moduli, group, Z, theta)
    for j, (q, m) in enumerate(zip(qs, moduli)):
        for a in range(m):
            for b in range(m):
                expected = genus._theta_ratio(theta, q, F(a, m), F(b, m), Z, genus.POLE_EPS,
                                              NearPoleError)
                assert ring.factor(j, a, b) == expected, (j, a, b)


def test_theta_twist_sum_matches_explicit_sum():
    qs = tuple(compute_charges(K3_DUAL).q)
    moduli = K3_DUAL_GROUP.coordinate_moduli()
    ring = genus._ThetaRing(qs, moduli, K3_DUAL_GROUP, Z, ThetaKernel(TAU))
    for j, (q, m) in enumerate(zip(qs, moduli)):
        for a in range(m):
            for i in range(m):
                expected = sum(
                    cmath.exp(2j * math.pi * i * b / m)
                    * sector_value_from_coords((q,), (F(a, m),), (F(b, m),), Z, TAU)
                    for b in range(m))
                value = ring.twist_sum(j, a, i)
                assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected)), (j, a, i)


@pytest.mark.parametrize("potential, group, mode", [
    (K3_DUAL, K3_DUAL_GROUP, "T"),
    (QUINTIC, sl_subgroup(QUINTIC), "T"),
    (K3_CHAIN, sl_subgroup(K3_CHAIN), "D"),
])
def test_one_formal_factor_per_left_twist(monkeypatch, potential, group, mode):
    """Each (q_j, m_j) class builds at most one formal factor per left twist,
    whatever the right twists and character indices, on each pairing of the
    sum; ``mode`` is the right side's on the same-mode one."""
    builds = []
    build = _engine.variable_factor

    def counted(ctx, j, a):
        builds.append((ctx.charges[j], ctx.moduli[j], a % ctx.moduli[j]))
        return build(ctx, j, a)

    setups = pairings(group)
    assert setups[-1].mode_r == mode
    monkeypatch.setattr(_engine, "variable_factor", counted)
    for setup in setups:
        builds.clear()
        monkeypatch.setattr(genus, "_sum_setup", lambda group, twist=None, exact=True: setup)
        genus._exact_sum(tuple(compute_charges(potential).q), group, F(1), F(-2), F(4))
        classes = set(zip(compute_charges(potential).q, setup.moduli))
        assert builds and len(builds) == len(set(builds))
        assert len(builds) <= sum(m for _, m in classes)


@st.composite
def small_orbifolds(draw):
    p = draw(cy_potentials(200))
    group = (grading_subgroup if draw(st.booleans()) else sl_subgroup)(p)
    assume(group.order <= 27)
    return p, group


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(small_orbifolds())
@example((K3_CHAIN, grading_subgroup(K3_CHAIN)))  # mode D
@example((CUBIC, sl_subgroup(CUBIC)))  # mode T
def test_numeric_genus_equals_sector_sum(case):
    potential, group = case
    try:
        fused = ell_genus_numeric(potential, group, Z, TAU, retries=0).value
        charges = compute_charges(potential)
        terms = [sector_value_from_coords(charges, n.entries, n1.entries, Z, TAU)
                 for n in group.elements for n1 in group.elements]
    except NearPoleError:
        assume(False)
    sign = (-1) ** int(compute_charges(potential).central_charge)
    brute = sign * sum(terms) / group.order
    scale = sum(abs(t) for t in terms) / group.order
    assert abs(fused - brute) <= 1e-11 * max(1.0, scale)


def explicit_pair_sum(ring, reps_l, reps_r, mode_l, mode_r):
    """Every (left, right) product multiplied out factor by factor with the
    term-pair reference product, from the ring's transforms, and summed."""
    moduli = ring.moduli

    def transform(j, sides, il, ir):
        if sides[0] == "T":
            return ring.character_sum(
                il, [transform(j, ("D", sides[1]), a, ir) for a in range(moduli[j])])
        return ring.twist_sum(j, il, ir) if sides[1] == "T" else ring.factor(j, il, ir)

    total = {}
    for rl in reps_l:
        for rr in reps_r:
            product = ring.unit
            for j in range(len(moduli)):
                product = reference_series_mul(
                    product, transform(j, (mode_l, mode_r), rl[j], rr[j]), ring.ctx)
            for key, vec in product.items():
                cur = total.setdefault(key, [0] * len(vec))
                total[key] = [u + v for u, v in zip(cur, vec)]
    return {key: vec for key, vec in total.items() if any(vec)}


N8_MODEL = parse_potential("x1^8+x2^8+x3^4+x4^2")
N12_MODEL = parse_potential("x1^3+x2^4+x3^4+x4^6")


@st.composite
def contraction_cases(draw):
    """A generated CY model with J or SL, or the dual of one, either the
    whole double sum or the sector of one left twist, and the pairing of a
    whole sum: the exact path's or the same-mode one.  Each side lists at
    most 16 representatives."""
    p = draw(cy_potentials(200))
    group = (grading_subgroup if draw(st.booleans()) else sl_subgroup)(p)
    if draw(st.booleans()):
        p, group = transpose_potential(p), dual_group(p, group)
    exact = draw(st.booleans())
    setup = genus._sum_setup(group, exact=exact)
    # the term-pair reference costs phi(N)^2 per pair of terms
    assume(len(setup.left) <= 16 and len(setup.right) <= 16 and lcm(*setup.moduli) <= 12)
    twist = draw(st.sampled_from(group.elements)) if draw(st.booleans()) else None
    return p, group, twist, exact


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(contraction_cases())
@example((K3_CHAIN, sl_subgroup(K3_CHAIN), None, False))  # merged states, mode D
@example((K3_CHAIN, sl_subgroup(K3_CHAIN), None, True))  # merged states, modes D x T
@example((K3_DUAL, K3_DUAL_GROUP, None, False))  # mode T
@example((QUINTIC, grading_subgroup(QUINTIC), grading_subgroup(QUINTIC).elements[2], True))
@example((QUINTIC, sl_subgroup(QUINTIC), None, True))  # N = 5, mode T
@example((N8_MODEL, grading_subgroup(N8_MODEL), None, True))  # N = 8, mode D
@example((N12_MODEL, grading_subgroup(N12_MODEL), None, False))  # N = 12, moduli (3, 4, 4, 6)
def test_contraction_equals_explicit_pair_sum(case):
    """The contraction, over Galois orbits and unpaired, equals the sum of
    every pair product: truncation, reduction and each sigma_u are linear."""
    potential, group, twist, exact = case
    qs = tuple(compute_charges(potential).q)
    setup = genus._sum_setup(group, twist, exact)
    moduli, reps, mode = setup.moduli, setup.right, setup.mode_r
    if twist is not None:
        left, mode_l = [tuple(int(t * m) for t, m in zip(twist.entries, moduli))], "D"
    elif setup.mode_l != mode:
        assert (exact, mode) == (True, "T")
        left, mode_l = group.scaled_elements(moduli), "D"
    else:
        left, mode_l = reps, mode
    assert (setup.left, setup.mode_l) == (left, mode_l)
    ctx = genus._build_context(qs, moduli, F(1), F(-1), F(2), setup.theta_max)
    total, = _engine.double_sum(_engine._ExactRing(ctx), [left], reps, mode_l, mode)
    unpaired, = _engine.double_sum(UnpairedRing(ctx), [left], reps, mode_l, mode)
    expected = explicit_pair_sum(_engine._ExactRing(ctx), left, reps, mode_l, mode)
    assert total == expected
    assert unpaired == expected
