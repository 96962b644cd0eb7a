"""Mechanical verification: holomorphy, transformation laws, duality
comparisons.

Holomorphy is checked per atom and per pair of twists by zero containment:
a sector's theta ratio has a pole exactly where more denominator than
numerator theta factors vanish, and every zero of every factor shows up on
one period of the lattice L(Z tau + Z), one coordinate at a time.
The mirror statement and the oracle state counts are checked exactly, on
the series side.  The transformation laws of the genus and of the theta
function, and the star and flow statements, are checked numerically at
seeded samples through one sample loop.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache

from .exactmath import lcm
from .genus import (
    NearPoleError,
    NumericGenus,
    cone_supertrace_series,
    default_y_cap,
    ell_genus_series,
    sector_supertrace_series,
)
from .oracle import untwisted_states
from .potential import Atom, Potential, compute_charges, decompose_atoms, transpose_potential
from .qseries import Windows
from .symmetry import PhaseVector, SymmetryGroup, dual_group, require_admissible
from .theta import theta_value


def default_tolerance(group_order: int) -> float:
    return 1e-6 if group_order <= 100 else 1e-5


@dataclass
class Verdict:
    check: str
    status: str  # "pass" | "fail" | "skipped"
    max_residual: float | str | None
    details: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Holomorphy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectorPole:
    """A pole of one atom's sector theta ratio at z = a*tau + b."""

    atom: Atom
    theta_n: tuple[Fraction, ...]
    theta_n1: tuple[Fraction, ...]
    a: Fraction
    b: Fraction
    order: int


@dataclass
class HolomorphyReport:
    pairs_total: int
    combos_checked: int
    poles: list[SectorPole]

    @property
    def passed(self) -> bool:
        return not self.poles


def _zero_types(qs, t) -> dict[tuple[int, int], Fraction]:
    """Zero masks along one coordinate of z = a*tau + b.

    For each x in [0, L) where some denominator factor q_j x + t_j is
    integral, the mask of denominator factors vanishing there and the mask of
    numerator factors (1 - q_j) x - t_j vanishing there; one x is kept per
    distinct pair of masks.
    """
    period = lcm(*(q.denominator for q in qs))
    types: dict[tuple[int, int], Fraction] = {}
    for qj, tj in zip(qs, t):
        first = math.ceil(tj)
        for k in range(first, first + int(qj * period)):
            x = (k - tj) / qj
            den = num = 0
            for i, (qi, ti) in enumerate(zip(qs, t)):
                if (qi * x + ti).denominator == 1:
                    den |= 1 << i
                if ((1 - qi) * x - ti).denominator == 1:
                    num |= 1 << i
            types.setdefault((den, num), x)
    return types


def _first_pole(types_a, types_b) -> tuple[Fraction, Fraction, int] | None:
    """(a, b, order) of the first point where more denominator than numerator
    factors vanish, or None when the ratio is holomorphic.

    The ratio is prod_j T((1 - q_j) z - tn_j tau - tn1_j) / T(q_j z + tn_j tau
    + tn1_j), and T has simple zeros exactly on Z tau + Z, so at z = a*tau + b
    a factor vanishes iff both its tau and its constant coordinate are
    integral: the a-coordinate sees only tn and the b-coordinate only tn1.
    Every zero set is periodic under L(Z tau + Z), L the lcm of the charge
    denominators, so one period of each coordinate, grouped by zero masks
    (``_zero_types``), decides the ratio.
    """
    for (den_a, num_a), a in types_a.items():
        for (den_b, num_b), b in types_b.items():
            order = (den_a & den_b).bit_count() - (num_a & num_b).bit_count()
            if order > 0:
                return a, b, order
    return None


def holomorphy_certificate(potential: Potential, group: SymmetryGroup) -> HolomorphyReport:
    """Check every atom's sector ratio for poles at every twist combination.

    Twist pairs (n, n1) enter an atom's ratio only through the atom's
    coordinates, so distinct projected combinations are checked once; the
    coverage still spans all |G|^2 sector pairs.
    """
    require_admissible(potential, group)
    charges = compute_charges(potential)
    poles: list[SectorPole] = []
    combos = 0
    for atom in decompose_atoms(potential).atoms:
        qs = tuple(charges.q[v] for v in atom.variables)
        types = {e.entries: _zero_types(qs, e.entries)
                 for e in group.projection(atom.variables).elements}
        for tn, types_n in types.items():
            for tn1, types_n1 in types.items():
                combos += 1
                if pole := _first_pole(types_n, types_n1):
                    poles.append(SectorPole(atom, tn, tn1, *pole))
    return HolomorphyReport(group.order**2, combos, poles)


def check_holomorphy(potential: Potential, group: SymmetryGroup) -> Verdict:
    report = holomorphy_certificate(potential, group)
    details = [
        {
            "atom": f"{p.atom.kind}{p.atom.variables}",
            "theta_n": [str(x) for x in p.theta_n],
            "theta_n1": [str(x) for x in p.theta_n1],
            "pole": {"a": str(p.a), "b": str(p.b), "order": p.order},
        }
        for p in report.poles
    ]
    return Verdict(
        "holo",
        "pass" if report.passed else "fail",
        "exact",
        details or [{"combos": report.combos_checked, "pairs_covered": report.pairs_total}],
    )


# ---------------------------------------------------------------------------
# Exact comparisons
# ---------------------------------------------------------------------------


def check_mirror(potential: Potential, group: SymmetryGroup, qmax=1) -> Verdict:
    """Genus of (W, G) against the genus of the transposed model with the
    dual group, with the parity sign, on every term either series computed
    (both share cbar and qmax, so one work window).  (Star and flow at the
    same samples imply the numeric mirror law.)"""
    require_admissible(potential, group)
    dual_potential = transpose_potential(potential)
    dual = dual_group(potential, group)
    sign = (-1) ** int(compute_charges(potential).central_charge)
    a = ell_genus_series(potential, group, qmax=qmax)
    b = ell_genus_series(dual_potential, dual, qmax=qmax)
    keys = sorted(set(a.terms) | set(b.terms))
    mismatches = []
    for key in keys:
        va, vb = a.terms.get(key, Fraction(0)), sign * b.terms.get(key, Fraction(0))
        if va != vb:
            mismatches.append({"q": str(key[0]), "y": str(key[1]), "lhs": str(va), "rhs": str(vb)})
    status = "pass" if not mismatches else "fail"
    return Verdict("mirror", status, "exact", mismatches[:10] or
                   [{"compared_terms": len(keys), "sign": sign}])


def check_oracle(potential: Potential, group: SymmetryGroup, qmax: Fraction) -> list[Verdict]:
    """The state count of ``oracle`` against the engine's untwisted sector,
    exact on a window small enough for the count: over the trivial group
    through ``qmax`` (free states), and over the group at level 0."""
    charges = compute_charges(potential)
    ymax = min(default_y_cap(potential, qmax), Fraction(3))
    trivial = SymmetryGroup.trivial(potential.dimension)
    free = untwisted_states(charges, trivial, int(qmax), (-ymax, ymax))
    cone = cone_supertrace_series(charges, Windows.make(qmax, -ymax, ymax))
    zero = PhaseVector.canonical([0] * potential.dimension)
    sector = sector_supertrace_series(potential, group, zero, Windows.make(0, 0, ymax))
    lattice = untwisted_states(charges, group, 0, (0, ymax))
    return [
        Verdict("oracle-free-states", "pass" if free == cone else "fail", "exact"),
        Verdict("oracle-zero-level", "pass" if sector == lattice else "fail", "exact"),
    ]


# ---------------------------------------------------------------------------
# Numeric checks
# ---------------------------------------------------------------------------


def _sample_points(count: int, seed: int) -> list[tuple[complex, complex]]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        z = complex(rng.uniform(0.07, 0.43), rng.uniform(0.01, 0.16))
        tau = complex(rng.uniform(-0.42, 0.42), rng.uniform(0.95, 1.65))
        out.append((z, tau))
    return out


def _residual(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _sampled_check(check: str, identity, samples: int, seed: int, tol: float,
                   laws: tuple[str, ...] | None = None) -> Verdict:
    """Worst residual of each law over seeded samples.

    ``identity(z, tau)`` returns {law: (lhs, rhs)} for the given laws, or
    {check: (lhs, rhs)} by default; a sample where it hits a sector pole is
    skipped and reported.  A check of several laws also reports each law's
    worst residual.
    """
    laws = laws or (check,)
    worst = dict.fromkeys(laws, 0.0)
    skipped = []
    for z, tau in _sample_points(samples, seed):
        try:
            pairs = identity(z, tau)
        except NearPoleError as err:
            skipped.append({"z": str(z), "tau": str(tau), "reason": str(err)})
            continue
        for law, (lhs, rhs) in pairs.items():
            worst[law] = max(worst[law], _residual(lhs, rhs))
    residual = max(worst.values())
    detail = {"tolerance": tol, "skipped": skipped}
    if len(laws) > 1:
        detail["residuals"] = worst
    return Verdict(check, "pass" if residual < tol else "fail", residual, [detail])


JACOBI_LAWS = ("tau_shift", "z_shift", "z_tau_shift", "inversion")


def jacobi_laws(f, index2: int, weight):
    """The four transformation laws of a Jacobi form f(z, tau) of index
    index2 / 2, as an identity of ``_sampled_check``; ``weight(tau)`` is the
    automorphy factor of the inversion law."""
    sign = (-1) ** index2

    def laws(z, tau):
        base = f(z, tau)
        return {
            "tau_shift": (f(z, tau + 1), base),
            "z_shift": (f(z + 1, tau), sign * base),
            "z_tau_shift": (f(z + tau, tau),
                            sign * cmath.exp(-1j * math.pi * index2 * (tau + 2 * z)) * base),
            "inversion": (f(z / tau, -1 / tau),
                          weight(tau) * cmath.exp(1j * math.pi * index2 * z * z / tau) * base),
        }

    return laws


def check_theta_identities(samples: int = 10, seed: int = 0, tol: float = 1e-9) -> Verdict:
    """Residuals of the odd theta's four transformation laws at seeded
    sample points: weight 1/2 with the multiplier -i, index 1/2."""
    laws = jacobi_laws(theta_value, 1, lambda tau: -1j * cmath.sqrt(tau / 1j))
    return _sampled_check("theta", laws, samples, seed, tol, JACOBI_LAWS)


# Most values kept per model.  The jacobi, star and flow checks of one run
# evaluate the model at 6 points per sample, so up to 170 samples every
# value is computed once; past that the oldest are computed again.
_POINT_MEMO = 1024


@lru_cache(maxsize=2)
def _genus(potential: Potential, group: SymmetryGroup):
    """(z, tau) -> numeric genus value, with no retry at a pole.

    One evaluator per model, its values memoized per point: the jacobi,
    star and flow checks draw the same seeded points, and flow evaluates
    the genus at (z, tau), where jacobi did, and at (tau - z, tau), where
    star did.  The two slots hold a model and its dual.
    """
    evaluate = NumericGenus(potential, group)
    return lru_cache(maxsize=_POINT_MEMO)(lambda z, tau: evaluate(z, tau, retries=0).value)


def check_jacobi_transformations(
    potential: Potential,
    group: SymmetryGroup,
    samples: int = 5,
    tol: float | None = None,
    seed: int = 0,
) -> Verdict:
    """Residuals of the four transformation laws of a weak Jacobi form of
    weight 0 and index cbar/2 at seeded sample points."""
    require_admissible(potential, group)
    tol = tol if tol is not None else default_tolerance(group.order)
    cbar = int(compute_charges(potential).central_charge)
    laws = jacobi_laws(_genus(potential, group), cbar, lambda tau: 1)
    return _sampled_check("jacobi", laws, samples, seed, tol, JACOBI_LAWS)


def check_star_substitution(
    potential: Potential,
    group: SymmetryGroup,
    samples: int = 3,
    tol: float | None = None,
    seed: int = 0,
) -> Verdict:
    """Dual genus against y^-c q^(c/2) times the genus at (tau - z, tau)."""
    require_admissible(potential, group)
    dual_potential = transpose_potential(potential)
    dual = dual_group(potential, group)
    tol = tol if tol is not None else default_tolerance(max(group.order, dual.order))
    cbar = int(compute_charges(potential).central_charge)
    phi, phi_dual = _genus(potential, group), _genus(dual_potential, dual)

    def law(z, tau):
        factor = cmath.exp(1j * math.pi * cbar * (tau - 2 * z))
        return {"star": (phi_dual(z, tau), factor * phi(tau - z, tau))}

    return _sampled_check("star", law, samples, seed, tol)


def check_spectral_flow(
    potential: Potential,
    group: SymmetryGroup,
    samples: int = 3,
    tol: float | None = None,
    seed: int = 0,
) -> Verdict:
    """Genus at (tau - z, tau) against the half-period multiplier law."""
    require_admissible(potential, group)
    tol = tol if tol is not None else default_tolerance(group.order)
    cbar = int(compute_charges(potential).central_charge)
    sign = (-1) ** cbar
    phi = _genus(potential, group)

    def law(z, tau):
        factor = sign * cmath.exp(-1j * math.pi * cbar * (tau - 2 * z))
        return {"flow": (phi(-z + tau, tau), factor * phi(z, tau))}

    return _sampled_check("flow", law, samples, seed, tol)
