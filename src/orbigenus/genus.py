"""Orbifold elliptic genus: exact series assembly and numeric evaluation.

Two independent evaluation paths are provided.  The exact path assembles the
twisted-sector supertrace as a truncated series in (y, q) with fractional
exponents and exact cyclotomic phase arithmetic; the numeric path evaluates
the same object through ratios of Jacobi theta functions at complex (z, tau).

Sign convention: the genus returned by ``ell_genus_series`` and
``ell_genus_numeric`` carries an overall factor (-1)^c relative to the bare
normalized supertrace (c the integer central charge), which makes the z -> 0
limit equal the orbifold Euler number.  Sector-level functions are bare.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, prod
from typing import NamedTuple

from . import _contract, _engine
from ._engine import RationalityError, SeriesContext
from .exactmath import euler_phi, lcm
from .potential import Charges, Potential, charge_tuple, compute_charges
from .qseries import Windows
from .symmetry import GROUP_SIZE_CAP, PhaseVector, SymmetryGroup, require_admissible
from .theta import ThetaKernel, lattice_distance

DEFAULT_QMAX = Fraction(2)
# The reported y-window: a band of CERTIFY_MARGIN beyond the outermost term,
# reached from the requested window in at most MAX_WIDEN steps of WIDEN_STEP.
CERTIFY_MARGIN = Fraction(1)
MAX_WIDEN = 4
WIDEN_STEP = Fraction(2)
# Numeric evaluation: a denominator theta argument closer than POLE_EPS to its
# zero lattice is a pole hit, retried at z + PERTURBATION.
POLE_EPS = 1e-6
PERTURBATION = 1e-3


class WindowCertificationError(ArithmeticError):
    """The y-window kept widening without the boundary band vanishing."""


class JacobiBoundError(ArithmeticError):
    """A genus coefficient lies outside the weak-Jacobi support r^2 <= m^2 + 4nm."""

    def __init__(self, e_q: Fraction, e_y: Fraction, index: Fraction):
        super().__init__(
            f"genus coefficient at q^{e_q} y^{e_y} breaks the weak-Jacobi bound "
            f"y^2 <= m^2 + 4qm of index m = {index}"
        )
        self.e_q = e_q
        self.e_y = e_y
        self.index = index


class NearPoleError(ArithmeticError):
    """A denominator theta argument fell on (or too close to) its zero lattice."""

    def __init__(self, variable: int, n, n1, distance: float):
        super().__init__(
            f"near pole: denominator theta for variable {variable} at twists "
            f"n={n}, n1={n1} (lattice distance {distance:.2e})"
        )
        self.variable = variable
        self.n = n
        self.n1 = n1
        self.distance = distance


@dataclass(slots=True)
class EllValue:
    """Numeric genus value, with the evaluation point actually used.

    Slotted: a sweep that keeps its values holds 64 bytes for each, not 105.
    """

    value: complex
    z: complex
    tau: complex
    retries: int


@dataclass
class GenusSeries:
    """Exact genus expansion with run metadata."""

    terms: dict[tuple[Fraction, Fraction], Fraction]
    qmax: Fraction
    ycap: Fraction
    denominator: int
    central_charge: Fraction
    cy_degree: int
    group_generators: tuple[str, ...]
    potential_text: str
    boundary_margin: Fraction
    integer_coefficients: bool

    def coefficient(self, e_q, e_y) -> Fraction:
        return self.terms.get((Fraction(e_q), Fraction(e_y)), Fraction(0))

    def evaluate(self, z: complex, tau: complex) -> complex:
        """Value at (y, q) = (e^(2 pi i z), e^(2 pi i tau)), fractional powers
        read off the (z, tau) branch."""
        out = 0j
        for (eq, ey), c in self.terms.items():
            out += float(c) * cmath.exp(2j * math.pi * (z * float(ey) + tau * float(eq)))
        return out

    def to_json_dict(self) -> dict:
        return {
            "D": self.denominator,
            "qmax": str(self.qmax),
            "ywindow": [str(-self.ycap), str(self.ycap)],
            "terms": [
                {"q": str(eq), "y": str(ey), "re": str(self.terms[(eq, ey)])}
                for (eq, ey) in sorted(self.terms)
            ],
            "metadata": {
                "cbar": str(self.central_charge),
                "cy_degree": self.cy_degree,
                "group": list(self.group_generators),
                "potential": self.potential_text,
                "boundary_margin": str(self.boundary_margin),
                "integer_coefficients": self.integer_coefficients,
            },
        }


# ---------------------------------------------------------------------------
# Exact path
# ---------------------------------------------------------------------------


def _work_denominator(
    charges: tuple[Fraction, ...],
    moduli: tuple[int, ...],
    qmax: Fraction,
    st_lo: Fraction,
    st_hi: Fraction,
) -> int:
    """Exponent denominator of the context for the window [st_lo, st_hi]."""
    return lcm(2, *moduli, qmax.denominator, st_lo.denominator, st_hi.denominator,
               *(q.denominator for q in charges))


def _negative_capacity(
    charges: tuple[Fraction, ...], theta_max: tuple[Fraction, ...]
) -> tuple[Fraction, Fraction]:
    """(free, rate): every term of a product of single-variable factors,
    at left twists theta_j <= theta_max_j, has -y <= free + q rate.

    Cost accounting, term by term of a factor: the only q-free negative y
    comes from the fermionic bracket term y^(1-q_j-theta) when
    q_j + theta > 1, at most free_j = max(0, q_j + theta_max_j - 1) and
    summed into ``free``.  Every other unit of negative y costs q at a rate
    of at most rate = max(1, q_j / (1 - theta_max_j)): the prefix
    (y^-1 q)^theta and the binomials (1 - y^(q_j-1) q^(k+theta)) lose y no
    faster than they gain q, and a bosonic step y^-q_j q^(k-theta), k >= 1,
    loses q_j for k - theta >= 1 - theta_max_j.  No tower step falls
    faster than ``rate``.
    """
    free = sum(
        (max(Fraction(0), q + t - 1) for q, t in zip(charges, theta_max)),
        Fraction(0),
    )
    rate = Fraction(1)
    for q, t in zip(charges, theta_max):
        rate = max(rate, q / (1 - t))
    return free, rate


def _build_context(
    charges: tuple[Fraction, ...],
    moduli: tuple[int, ...],
    qmax: Fraction,
    st_lo: Fraction,
    st_hi: Fraction,
    theta_max: tuple[Fraction, ...],
) -> SeriesContext:
    """Context whose work window is exact on the strip [st_lo, st_hi].

    The window is a trapezoid.  Its ceiling on q-row kq is the largest ky
    with ky + rate kq <= (st_hi + free + qmax rate) d, the exact rational
    test, with (free, rate) from ``_negative_capacity`` and d the exponent
    denominator.  A term (kq, ky) of any partial product reaches the
    strip only through the product of the factors still to come, at most
    qcap - kq in q, whose y is at least -(free + (qmax - kq / d) rate) d;
    so a term above the ceiling, whether a partial product, a factor's or
    a single binomial's or tower's, cannot reach y <= st_hi d, and every
    term kept on the strip is exact.  The ceiling falls at the rate no
    tower step exceeds, which keeps the engine's tower recurrence exact
    (``_engine._times_geometric``).  The floor stays flat at
    -(free + qmax rate) d or st_lo d, whichever is lower: an untwisted
    bosonic tower raises y at no cost in q, so no bound caps y from above
    by the q spent, and no term falls below that floor.
    """
    # every twist is a multiple of 1/m_j (an admissible group contains J, so
    # den(q_j) divides m_j): the factors hold roots of unity of order lcm(m_j)
    n = lcm(*moduli)
    d = _work_denominator(charges, moduli, qmax, st_lo, st_hi)
    free, rate = _negative_capacity(charges, theta_max)
    cap = free + qmax * rate
    top = (st_hi + cap) * d
    qcap = int(qmax * d)
    return SeriesContext(
        conductor=n,
        phi=euler_phi(n),
        denominator=d,
        qcap=qcap,
        ylo=min(floor(-cap * d), floor(st_lo * d)),
        yhi=tuple(floor(top - rate * kq) for kq in range(qcap + 1)),
        charges=charges,
        moduli=moduli,
    )


class _SumSetup(NamedTuple):
    """What a sector double sum over one group runs on."""

    moduli: tuple[int, ...]
    left: list[tuple[int, ...]]
    mode_l: str
    right: list[tuple[int, ...]]
    mode_r: str
    theta_max: tuple[Fraction, ...]  # the largest left twist per coordinate
    weights: tuple[Fraction, Fraction]  # of a left and of a right representative

    @property
    def weight(self) -> Fraction:
        """The weight of a pair, the product of its sides' weights."""
        return self.weights[0] * self.weights[1]


def _sum_setup(group: SymmetryGroup, twist: PhaseVector | None = None,
               exact: bool = True) -> _SumSetup:
    """The representatives, modes and weight of the double sum over ``group``.

    A side runs over G itself ("D", scaled group elements) or over its
    annihilator ann(G) inside prod_j Z/m_j ("T", characters);
    |ann(G)| = prod_j m_j / |G| is known before anything is listed, so only
    the sides chosen are listed.  A "T" side carries the weight
    |G| / prod_j m_j of the character identity, a "D" side 1, and a pair
    the product of its sides' weights.  With a twist n the left side is n
    alone, in mode "D" (one sector, averaged over the second twist), and
    the right side runs over the smaller of G and ann(G).

    Over the whole group, on the exact ring (``exact``), the left side runs
    over G and the right over ann(G) whenever
    max(|G|, |ann G|) <= phi(N) min(|G|, |ann G|), N = lcm(m_j), phi(N) > 1.
    Every transform of that pairing is a rational series, m_j [w^-i] F_a
    (``_engine._ExactRing.twist_sum``), so the products of its |G| |ann G|
    pairs are one-slot Kronecker products; a same-mode sum over the smaller
    side multiplies min(|G|, |ann G|)^2 pairs in Galois orbits of up to
    phi(N), on phi(N)-slot vectors.  At phi(N) = 1 every vector is rational
    already, and the mixed pairing would only list both sides.  Where the
    larger side exceeds ``GROUP_SIZE_CAP`` both sides keep the smaller one's
    mode, so no group whose smaller side can be listed fails.  The numeric
    theta ring has no Galois orbits, so there the |G| |ann G| pairs of a
    mixed pairing never number fewer than a same-mode sum's, and both sides
    keep one mode.
    """
    moduli = group.coordinate_moduli()
    order, co_order = group.order, prod(moduli) // group.order
    theta_max = tuple(Fraction(m - 1, m) for m in moduli)
    character = Fraction(order, prod(moduli))
    small, large = sorted((order, co_order))
    phi = euler_phi(lcm(*moduli))
    if exact and twist is None and phi > 1 and large <= min(phi * small, GROUP_SIZE_CAP):
        return _SumSetup(moduli, group.scaled_elements(moduli), "D", group.annihilator_elements(),
                         "T", theta_max, (Fraction(1), character))
    if co_order < order:
        reps, mode, side = group.annihilator_elements(), "T", character
    else:
        reps, mode, side = group.scaled_elements(moduli), "D", Fraction(1)
    if twist is None:
        return _SumSetup(moduli, reps, mode, reps, mode, theta_max, (side, side))
    left = [tuple(int(t * m) for t, m in zip(twist.entries, moduli))]
    return _SumSetup(moduli, left, "D", reps, mode, twist.entries, (Fraction(1), side))


def _inverse_classes(setup: _SumSetup) -> list[list[tuple[int, ...]]]:
    """The left classes of a whole-group sum on a strip centred at c/2.

    theta_1 is odd, theta_1(tau, -v) = -theta_1(tau, v), and the factor of a
    variable is a quotient of two theta_1 with the phase e(-z a / m_j), so
    the factor at twists (-a, -b) and -z is the factor at (a, b) and z:
    Z_{g^-1,h^-1}(tau, z) = Z_{g,h}(tau, -z).  Summed over h, which runs over
    a set closed under inversion in either right mode, the left element
    g^-1 gives S_{g^-1}(z) = S_g(-z).  The engine's y-exponents are the
    genus's shifted up by c/2 (``_genus_rational_terms`` shifts them back),
    so S_{g^-1} is S_g reflected about c/2, and on a strip centred there the
    terms of one are the reflected terms of the other.  So the left side
    splits into two classes, the self-inverse elements and one element of
    each pair {g, g^-1}, the first in sorted order; the pair class is
    counted twice, once reflected.  Neither class total moves under the
    Galois units, which scale only a "D" right side (the transforms of a "T"
    right side are rational), so each is rational on its own.

    The split does not always pay: the merged prefixes of a lattice can
    beat the halved left side, and a group of exponent 2 has no pairs.  So
    the whole left side is kept, one class, unless the split's schedule forms
    fewer products, counted from the automata, the right side's mode and the
    exact ring's Galois units mod lcm(m_j) (``_contract.fewest_products``,
    no schedule built).  It declines the K3 Fermat's
    0,0,1/2,1/2;0,1/2,1/4,1/4;1/4,1/4,1/4,1/4 (104 products folded, 80
    whole, "D" x "T"; 75 against 72 on the same-mode pairing) and
    x1^6+x2^3+x3^3+x4^6's 0,0,1/3,2/3;1/6,1/3,0,1/2 (132 against 108; 88
    against 72).  Counted as if units scaled a "T" right side, it would fold
    two "D" x "T" groups of the sextic Fermat, where the fold forms 1140
    products against 1116.
    """
    whole = [setup.left]
    inverse = {rep: tuple(-x % m for x, m in zip(rep, setup.moduli)) for rep in setup.left}
    kept = [rep for rep in setup.left if inverse[rep] > rep]
    if not kept:
        return whole
    folded = [[rep for rep in setup.left if inverse[rep] == rep], kept]
    units = _engine.galois_units(lcm(*setup.moduli))
    return _contract.fewest_products([whole, folded], setup.right, setup.mode_r, setup.moduli,
                                     units)


def _exact_sum(
    charges: tuple[Fraction, ...],
    group: SymmetryGroup,
    qmax: Fraction,
    lo: Fraction,
    hi: Fraction,
    shift: Fraction = Fraction(0),
    sign: int = 1,
    twist: PhaseVector | None = None,
) -> dict[tuple[Fraction, Fraction], Fraction]:
    """sign times the 1/|G|-averaged double sum, y shifted down by ``shift``,
    as rational terms with y-exponent in [lo, hi].

    The sum runs on a context exact on [lo + shift, hi + shift]; every
    stored q-exponent is non-negative (asserted).  Where that strip is
    centred at c/2 = sum_j (1 - 2 q_j) / 2 and the left side runs over the
    whole group in mode "D", the sum is folded by inversion
    (``_inverse_classes``): each class total is rationalized on its own,
    and the pair class is added twice, once reflected y -> lo + hi - y, the
    image of the reflection about c/2.  A twisted sector's left side is one
    element, and a "T" left side holds characters, not sectors: neither is
    folded.  Each total is weighted by the pair weight of ``_sum_setup``,
    |G| / prod_j m_j on a "D" x "T" sum.  Such a total is rational by
    construction, so ``rationalize``'s check guards only same-mode sums.
    """
    setup = _sum_setup(group, twist)
    st_lo, st_hi = lo + shift, hi + shift
    classes = [setup.left]
    if twist is None and setup.mode_l == "D" and st_lo + st_hi == sum(1 - 2 * q for q in charges):
        classes = _inverse_classes(setup)
    ctx = _build_context(charges, setup.moduli, qmax, st_lo, st_hi, setup.theta_max)
    totals = _engine.double_sum(_engine._ExactRing(ctx), classes, setup.right,
                                setup.mode_l, setup.mode_r)
    d = ctx.denominator
    ky_lo, ky_hi, ky_shift = st_lo * d, st_hi * d, int(shift * d)
    parts = []
    for total in totals:
        assert all(kq >= 0 for (kq, _) in total), "negative q-exponent in the double sum"
        window = {(kq, ky - ky_shift): vec for (kq, ky), vec in total.items() if ky_lo <= ky <= ky_hi}
        parts.append(_engine.rationalize(window, ctx, sign * setup.weight / group.order))
    if len(parts) == 1:
        return parts[0]
    terms, pairs = parts
    for (e_q, e_y), c in pairs.items():
        for key in ((e_q, e_y), (e_q, lo + hi - e_y)):
            terms[key] = terms.get(key, 0) + c
    return {key: c for key, c in sorted(terms.items()) if c}


def cone_supertrace_series(
    charges: Charges | tuple, windows: Windows
) -> dict[tuple[Fraction, Fraction], Fraction]:
    """Supertrace of the free untwisted cone on ``windows``, as rational terms.

    This is the double sum over the trivial group: every modulus 1, so the
    one (0, 0) pair is the product of the single-variable factors of
    ``_engine.variable_factor`` at zero twist.  ``oracle.untwisted_states``
    over the trivial group counts the same supertrace state by state.
    """
    qs = charge_tuple(charges)
    return _exact_sum(qs, SymmetryGroup.trivial(len(qs)), windows.qmax, windows.ymin, windows.ymax)


def sector_supertrace_series(
    potential: Potential, group: SymmetryGroup, n: PhaseVector, windows: Windows
) -> dict[tuple[Fraction, Fraction], Fraction]:
    """Group-averaged supertrace series of the sector twisted by n, as rational terms.

    Includes the 1/|G| average over the second twist and the sector
    prefactor; all stored q-exponents are non-negative (asserted).
    """
    require_admissible(potential, group)
    if n not in group:
        raise ValueError("twist must be an element of the group")
    return _exact_sum(tuple(compute_charges(potential).q), group, windows.qmax,
                      windows.ymin, windows.ymax, twist=n)


def _genus_rational_terms(
    potential: Potential,
    group: SymmetryGroup,
    qmax: Fraction,
    ycap: Fraction,
) -> dict[tuple[Fraction, Fraction], Fraction]:
    """Signed, shifted, rationalized genus terms with |y| <= ycap."""
    charges = compute_charges(potential)
    cbar = charges.central_charge
    assert cbar.denominator == 1
    sign = -1 if int(cbar) % 2 else 1
    return _exact_sum(tuple(charges.q), group, qmax, -ycap, ycap, shift=cbar / 2, sign=sign)


def default_y_cap(potential: Potential, qmax: Fraction) -> Fraction:
    charges = compute_charges(potential)
    return abs(charges.central_charge) / 2 + qmax * max(1 / q for q in charges.q)


def jacobi_reach(central_charge: Fraction, qmax: Fraction) -> Fraction:
    """Smallest multiple of 1/2 whose square is at least m^2 + 4 qmax m, m = cbar/2.

    Exact: with k = 2R the condition reads k^2 >= cbar^2 + 8 qmax cbar.
    """
    bound = max(ceil(central_charge**2 + 8 * qmax * central_charge), 0)
    k = math.isqrt(bound)
    return Fraction(k if k * k == bound else k + 1, 2)


def ell_genus_series(
    potential: Potential,
    group: SymmetryGroup,
    qmax=None,
    ycap=None,
) -> GenusSeries:
    """Exact genus expansion through q^qmax, with a certified y-window.

    The genus is a weak Jacobi form of weight 0 and index m = cbar/2, so its
    coefficient of q^n y^r vanishes unless r^2 <= m^2 + 4nm (Eichler-Zagier).
    The double sum therefore runs once, on |y| <= R + ``CERTIFY_MARGIN``
    with R from ``jacobi_reach``; every computed term is checked against the
    bound, and one outside it raises ``JacobiBoundError``.

    The reported window is the first of ``ycap`` (or a charge-based
    default) + k ``WIDEN_STEP`` that reaches ``CERTIFY_MARGIN`` beyond the
    outermost computed term: k = max(0, ceil((reach + CERTIFY_MARGIN - ycap)
    / WIDEN_STEP)), and k > ``MAX_WIDEN`` raises ``WindowCertificationError``.
    The reach is taken over every computed term, so a gap in the y-support
    (the quintic has no q^n y^(3/2) term through q^6) cannot pass for its
    edge, and the margin puts every computed term inside the window.  The
    result holds those terms and the achieved margin.
    Where ycap exceeds the computed window, the coefficients between the two
    are zero by the theorem, not by computation.
    """
    require_admissible(potential, group)
    charges = compute_charges(potential)
    cbar = charges.central_charge
    qmax = Fraction(qmax) if qmax is not None else DEFAULT_QMAX
    ycap = Fraction(ycap) if ycap is not None else default_y_cap(potential, qmax)
    work = jacobi_reach(cbar, qmax) + CERTIFY_MARGIN
    terms = _genus_rational_terms(potential, group, qmax, work)
    index = cbar / 2
    for e_q, e_y in terms:
        if e_y * e_y > index * index + 4 * e_q * index:
            raise JacobiBoundError(e_q, e_y, index)
    reach = max((abs(ey) for (_, ey) in terms), default=Fraction(0))
    k = max(0, ceil((reach + CERTIFY_MARGIN - ycap) / WIDEN_STEP))
    if k > MAX_WIDEN:
        raise WindowCertificationError(
            f"no vanishing boundary band of width {CERTIFY_MARGIN} up to "
            f"ycap={ycap + MAX_WIDEN * WIDEN_STEP}"
        )
    ycap += k * WIDEN_STEP
    margin = ycap - reach
    # the denominator a pass on this window would have used (y shifted by m)
    d = _work_denominator(tuple(charges.q), group.coordinate_moduli(), qmax,
                          index - ycap, index + ycap)
    return GenusSeries(
        terms=terms,
        qmax=qmax,
        ycap=ycap,
        denominator=d,
        central_charge=cbar,
        cy_degree=charges.cy_degree,
        group_generators=tuple(group.generator_strings()),
        potential_text=potential.text,
        boundary_margin=margin,
        integer_coefficients=all(c.denominator == 1 for c in terms.values()),
    )


# ---------------------------------------------------------------------------
# Numeric path
# ---------------------------------------------------------------------------


def _theta_ratio(theta: ThetaKernel, qj, tn, tn1, z: complex, pole_eps: float, pole) -> complex:
    """e(-z tn) T((1 - qj) z - tn tau - tn1) / T(qj z + tn tau + tn1), the factor
    of one variable of charge qj at twists (tn, tn1), with T from the kernel
    ``theta`` at tau; ``pole(distance)`` is raised when the denominator
    argument lies within pole_eps of its zeros."""
    tau = theta.tau
    nu_den = float(qj) * z + float(tn) * tau + float(tn1)
    dist = lattice_distance(nu_den, tau)
    if dist < pole_eps:
        raise pole(dist)
    nu_num = (1 - float(qj)) * z - float(tn) * tau - float(tn1)
    return (
        cmath.exp(-2j * math.pi * z * float(tn))
        * theta.value(nu_num)
        / theta.value(nu_den)
    )


def sector_value_from_coords(
    charges,
    thetas_n,
    thetas_n1,
    z: complex,
    tau: complex,
    pole_eps: float = POLE_EPS,
) -> complex:
    """Theta-ratio product for one sector pair, from raw rational twists.

    The twists need not be canonical representatives; integer shifts flip
    numerator and denominator signs together and leave the value unchanged.
    """
    qs = charge_tuple(charges)
    theta = ThetaKernel(tau)
    out = 1.0 + 0j
    for j, (qj, tn, tn1) in enumerate(zip(qs, thetas_n, thetas_n1)):
        out *= _theta_ratio(
            theta, qj, tn, tn1, z, pole_eps,
            lambda dist: NearPoleError(j, tuple(thetas_n), tuple(thetas_n1), dist),
        )
    return out


@dataclass
class _ThetaRing:
    """Sector-factor values at one (z, tau), the numeric ring of
    ``_engine.double_sum``: complex numbers, multiplied and summed as they
    are.  Its ``units`` are (1,): the Galois orbits of sector products hold
    for series coefficients, not for values at complex (z, tau).  Factor
    values are kept per class (q_j, m_j) and twist pair, so the right twist
    sums of one left twist share them.  Every theta value of every factor
    comes from the one kernel ``theta`` at tau, which the retries of one point
    share, as tau does not change.  Twists enter as the floats a / m_j, the
    float of Fraction(a, m_j); ``phases`` keeps the character weights, which
    do not depend on (z, tau), and may be shared by the rings of one model."""

    charges: tuple[Fraction, ...]
    moduli: tuple[int, ...]
    group: SymmetryGroup
    z: complex
    theta: ThetaKernel
    phases: dict = field(default_factory=dict)
    units = (1,)
    unit = 1.0 + 0j

    def __post_init__(self):
        self._values = _engine._class_memos(self.charges, self.moduli)
        self._q = tuple(map(float, self.charges))

    def factor(self, j: int, a: int, b: int) -> complex:
        m = self.moduli[j]
        a, b = a % m, b % m
        values = self._values[j]
        value = values.get((a, b))
        if value is None:
            value = values[a, b] = _theta_ratio(
                self.theta, self._q[j], a / m, b / m, self.z, POLE_EPS,
                lambda dist: NearPoleError(j, self.group.element_with(j, Fraction(a, m)).entries,
                                           self.group.element_with(j, Fraction(b, m)).entries, dist),
            )
        return value

    def twist_sum(self, j: int, a: int, index: int) -> complex:
        """sum_b e(index b / m_j) factor(j, a, b), summed term by term."""
        return self.character_sum(index, [self.factor(j, a, b) for b in range(self.moduli[j])])

    def character_sum(self, index: int, values: list[complex]) -> complex:
        """sum_t e(index t / m) values[t], m = len(values)."""
        m = len(values)
        weights = self.phases.get((index, m))
        if weights is None:
            weights = self.phases[index, m] = [
                cmath.exp(2j * math.pi * index * t / m) for t in range(m)]
        out = 0j
        for weight, value in zip(weights, values):
            out += weight * value
        return out

    def lift(self, value: complex) -> complex:
        return value

    def mul(self, a: complex, b: complex) -> complex:
        return a * b

    def accumulate(self, acc: complex | None, product: complex, ks: tuple[int, ...]) -> complex:
        """acc + product; with units (1,), ks is always (1,)."""
        return product if acc is None else acc + product

    def finish(self, acc: complex) -> complex:
        return acc


class NumericGenus:
    """The numeric genus of one model, as a function of (z, tau).

    What depends on the model alone is done once, when it is built:
    admissibility, the charges and the sign, the set-up of the double sum
    (``_sum_setup``), and the character weights.  Each call evaluates one
    point; the object keeps no values of the genus.
    """

    def __init__(self, potential: Potential, group: SymmetryGroup):
        require_admissible(potential, group)
        charges = compute_charges(potential)
        self.group = group
        self._charges = tuple(charges.q)
        self._sign = -1 if int(charges.central_charge) % 2 else 1
        self._setup = _sum_setup(group, exact=False)
        weight_l, weight_r = map(float, self._setup.weights)
        self._weight = weight_l * weight_r
        self._phases: dict = {}

    def __call__(self, z: complex, tau: complex, retries: int = 3) -> EllValue:
        """The value at (z, tau), retried at z + ``PERTURBATION`` on a
        near-pole hit (see ``ell_genus_numeric``)."""
        theta = ThetaKernel(tau)
        z_cur = complex(z)
        attempts = 0
        setup = self._setup
        while True:
            ring = _ThetaRing(self._charges, setup.moduli, self.group, z_cur, theta, self._phases)
            try:
                total, = _engine.double_sum(ring, [setup.left], setup.right,
                                            setup.mode_l, setup.mode_r)
                value = self._sign * (total * self._weight / self.group.order)
                return EllValue(value, z_cur, tau, attempts)
            except NearPoleError:
                if attempts >= retries:
                    raise
                attempts += 1
                z_cur = z_cur + PERTURBATION


def ell_genus_numeric(
    potential: Potential,
    group: SymmetryGroup,
    z: complex,
    tau: complex,
    retries: int = 3,
) -> EllValue:
    """Numeric genus value at (z, tau).

    Individual sector terms have poles on a measure-zero set even though the
    total is finite; on a near-pole hit the evaluation deterministically
    retries at z + ``PERTURBATION`` (up to ``retries`` times, count reported).
    To evaluate one model at many points, build one ``NumericGenus``.
    """
    return NumericGenus(potential, group)(z, tau, retries)
