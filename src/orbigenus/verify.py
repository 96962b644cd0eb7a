"""Mechanical verification: holomorphy certificates, transformation laws,
duality comparisons.

The holomorphy certificate re-runs, per atom and per pair of twists, the
zero-cancellation bookkeeping between numerator and denominator theta
factors: containment of zero-line families for self-power atoms, the cyclic
pairing for loops, and for chains a right-to-left reduction that repeatedly
merges the residual line family into the next factor, tracking the exact
divisibility data at every step.  Transformation laws and duality statements
are checked numerically at seeded samples; the mirror statement is also
checked exactly, coefficient by coefficient, on the series side.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .genus import (
    NearPoleError,
    ell_genus_numeric,
    ell_genus_series,
)
from .potential import Atom, Potential, compute_charges, decompose_atoms, transpose_potential
from .symmetry import SymmetryGroup, dual_group, require_admissible
from .theta import ThetaParams, _residual


# Traces kept in a holomorphy report besides the failing ones.
RECORD_LIMIT = 4096


def default_tolerance(group_order: int) -> float:
    return 1e-6 if group_order <= 100 else 1e-5


@dataclass
class Verdict:
    check: str
    status: str  # "pass" | "fail" | "skipped"
    max_residual: float | str | None
    details: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "max_residual": self.max_residual,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# Holomorphy certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineFamily:
    """Zero lines {slope*z + tau_coeff*tau + const = p*tau + q, (p,q) integer}."""

    slope: Fraction
    tau_coeff: Fraction
    const: Fraction


@dataclass(frozen=True)
class ReductionStep:
    kind: str  # "reduce" | "cleared" | "pairwise" | "containment"
    m: int | None = None
    k: int | None = None
    l: int | None = None
    alpha2: Fraction | None = None
    beta2: Fraction | None = None
    alpha3: Fraction | None = None
    beta3: Fraction | None = None
    p_prime: int | None = None
    q_prime: int | None = None
    m_new: int | None = None
    k_new: int | None = None
    alpha2_new: Fraction | None = None
    beta2_new: Fraction | None = None


@dataclass
class CertificateTrace:
    atom: Atom
    theta_n: tuple[Fraction, ...]
    theta_n1: tuple[Fraction, ...]
    steps: tuple[ReductionStep, ...]
    passed: bool
    failure: str | None = None
    uncancelled: LineFamily | None = None


@dataclass
class HolomorphyReport:
    passed: bool
    pairs_total: int
    combos_checked: int
    traces: list[CertificateTrace]

    def failures(self) -> list[CertificateTrace]:
        return [t for t in self.traces if not t.passed]


def _is_integral(x: Fraction) -> bool:
    return x.denominator == 1


def _fermat_certificate(atom, qs, tn, tn1) -> CertificateTrace:
    a = atom.exponents[0]
    (q,) = qs
    ok = a * q == 1 and _is_integral(a * tn[0]) and _is_integral(a * tn1[0])
    step = ReductionStep(kind="containment", m=a, k=a - 1, alpha2=tn[0], beta2=tn1[0])
    return CertificateTrace(
        atom,
        tn,
        tn1,
        (step,),
        ok,
        None if ok else "self-power integrality a*theta failed",
        None if ok else LineFamily(q, tn[0], tn1[0]),
    )


def _loop_certificate(atom, qs, tn, tn1) -> CertificateTrace:
    size = len(atom.exponents)
    steps = []
    for i in range(size):
        a = atom.exponents[i]
        nxt = (i + 1) % size
        ok = (
            a * qs[i] + qs[nxt] == 1
            and _is_integral(a * tn[i] + tn[nxt])
            and _is_integral(a * tn1[i] + tn1[nxt])
        )
        steps.append(ReductionStep(kind="pairwise", m=None, k=a, alpha2=tn[i], beta2=tn1[i]))
        if not ok:
            return CertificateTrace(
                atom, tn, tn1, tuple(steps), False,
                f"cyclic pairing failed at position {i}",
                LineFamily(qs[i], tn[i], tn1[i]),
            )
    return CertificateTrace(atom, tn, tn1, tuple(steps), True)


def _smallest_solution(k: int, l: int, target: Fraction) -> int | None:
    """Smallest non-negative p with k*p = target (mod l); None if unsolvable."""
    if not _is_integral(target):
        return None
    t = int(target) % l
    g = gcd(k, l)
    if t % g:
        return None
    lred = l // g
    kred = (k // g) % lred
    tred = (t // g) % lred
    if lred == 1:
        return 0
    inv = pow(kred, -1, lred)
    return (inv * tred) % lred


def _chain_certificate(atom, qs, tn, tn1) -> CertificateTrace:
    size = len(atom.exponents)
    steps: list[ReductionStep] = []

    def fail(msg, line):
        return CertificateTrace(atom, tn, tn1, tuple(steps), False, msg, line)

    # initial residual family comes from the tail denominator
    m = atom.exponents[-1]
    if qs[-1] * m != 1 or not (_is_integral(m * tn[-1]) and _is_integral(m * tn1[-1])):
        return fail("tail integrality failed", LineFamily(qs[-1], tn[-1], tn1[-1]))
    k = m - 1
    alpha2, beta2 = tn[-1], tn1[-1]
    # consume factor pairs from right to left
    for pos in range(size - 1, 0, -1):
        alpha1, beta1 = -tn[pos], -tn1[pos]
        if k == 0:
            return fail("degenerate slope in reduction", LineFamily(Fraction(1, m), alpha2, beta2))
        # invariants of the running residual
        if not (
            gcd(k, m) == 1
            and _is_integral(m * alpha2)
            and _is_integral(m * beta2)
            and _is_integral(k * alpha2 - alpha1)
            and _is_integral(k * beta2 - beta1)
            and Fraction(k, m) == 1 - qs[pos]
        ):
            return fail("residual invariants failed", LineFamily(Fraction(1, m), alpha2, beta2))
        l = atom.exponents[pos - 1]
        alpha3, beta3 = tn[pos - 1], tn1[pos - 1]
        if qs[pos - 1] != Fraction(k, m * l):
            return fail("slope chain relation failed", LineFamily(qs[pos - 1], alpha3, beta3))
        if not (_is_integral(l * alpha3 - alpha1) and _is_integral(l * beta3 - beta1)):
            return fail("coupling integrality failed", LineFamily(qs[pos - 1], alpha3, beta3))
        p_prime = _smallest_solution(k, l, k * alpha2 - l * alpha3)
        q_prime = _smallest_solution(k, l, k * beta2 - l * beta3)
        if p_prime is None or q_prime is None:
            # the two denominator line families are disjoint: everything
            # cancels into the numerators; the remaining factors pair up
            steps.append(ReductionStep(kind="cleared", m=m, k=k, l=l,
                                       alpha2=alpha2, beta2=beta2,
                                       alpha3=alpha3, beta3=beta3))
            for i in range(pos - 1, 0, -1):
                a = atom.exponents[i - 1]
                ok = (
                    a * qs[i - 1] + qs[i] == 1
                    and _is_integral(a * tn[i - 1] + tn[i])
                    and _is_integral(a * tn1[i - 1] + tn1[i])
                )
                steps.append(ReductionStep(kind="pairwise", k=a, alpha2=tn[i - 1], beta2=tn1[i - 1]))
                if not ok:
                    return fail(
                        f"pairwise cancellation failed at position {i - 1}",
                        LineFamily(qs[i - 1], tn[i - 1], tn1[i - 1]),
                    )
            return CertificateTrace(atom, tn, tn1, tuple(steps), True)
        g = gcd(k, l)
        m_new = m * l // g
        alpha2_new = Fraction(g, l) * (alpha2 - p_prime)
        beta2_new = Fraction(g, l) * (beta2 - q_prime)
        k_new = (m * l - k) // g
        steps.append(
            ReductionStep(
                kind="reduce", m=m, k=k, l=l,
                alpha2=alpha2, beta2=beta2, alpha3=alpha3, beta3=beta3,
                p_prime=p_prime, q_prime=q_prime,
                m_new=m_new, k_new=k_new,
                alpha2_new=alpha2_new, beta2_new=beta2_new,
            )
        )
        if not (
            gcd(k_new, m_new) == 1
            and _is_integral(m_new * alpha2_new)
            and _is_integral(m_new * beta2_new)
            and _is_integral(k_new * alpha2_new + alpha3)
            and _is_integral(k_new * beta2_new + beta3)
        ):
            return fail("reduction output invariants failed",
                        LineFamily(Fraction(1, m_new), alpha2_new, beta2_new))
        m, k, alpha2, beta2 = m_new, k_new, alpha2_new, beta2_new
    # head factor: the residual family must sit inside the head numerator lines
    ok = (
        Fraction(k, m) == 1 - qs[0]
        and _is_integral(k * alpha2 + tn[0])
        and _is_integral(k * beta2 + tn1[0])
    )
    steps.append(ReductionStep(kind="containment", m=m, k=k, alpha2=alpha2, beta2=beta2))
    if not ok:
        return fail("head containment failed", LineFamily(Fraction(1, m), alpha2, beta2))
    return CertificateTrace(atom, tn, tn1, tuple(steps), True)


def holomorphy_certificate(potential: Potential, group: SymmetryGroup) -> HolomorphyReport:
    """Run the cancellation certificate for every atom and twist combination.

    Twist pairs (n, n1) enter an atom's certificate only through the atom's
    coordinates, so distinct projected combinations are certified once; the
    coverage still spans all |G|^2 sector pairs.  The report keeps every
    failing trace and the first ``RECORD_LIMIT`` traces in all.
    """
    require_admissible(potential, group)
    charges = compute_charges(potential)
    atoms = decompose_atoms(potential).atoms
    traces: list[CertificateTrace] = []
    passed = True
    combos = 0
    for atom in atoms:
        qs = tuple(charges.q[v] for v in atom.variables)
        projected = [e.entries for e in group.projection(atom.variables).elements]
        checker = {
            "fermat": _fermat_certificate,
            "loop": _loop_certificate,
            "chain": _chain_certificate,
        }[atom.kind]
        for tn in projected:
            for tn1 in projected:
                trace = checker(atom, qs, tn, tn1)
                combos += 1
                passed = passed and trace.passed
                if not trace.passed or len(traces) < RECORD_LIMIT:
                    traces.append(trace)
    return HolomorphyReport(
        passed=passed,
        pairs_total=group.order**2,
        combos_checked=combos,
        traces=traces,
    )


def check_holomorphy(potential: Potential, group: SymmetryGroup) -> Verdict:
    report = holomorphy_certificate(potential, group)
    details = [
        {
            "atom": f"{t.atom.kind}{t.atom.variables}",
            "theta_n": [str(x) for x in t.theta_n],
            "theta_n1": [str(x) for x in t.theta_n1],
            "failure": t.failure,
        }
        for t in report.failures()
    ]
    return Verdict(
        "holo",
        "pass" if report.passed else "fail",
        "exact",
        details or [{"combos": report.combos_checked, "pairs_covered": report.pairs_total}],
    )


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


def _genus(potential: Potential, group: SymmetryGroup, params: ThetaParams | None = None):
    """(z, tau) -> numeric genus value, with no retry at a pole."""
    return lambda z, tau: ell_genus_numeric(potential, group, z, tau, params, retries=0).value


def check_jacobi_transformations(
    potential: Potential,
    group: SymmetryGroup,
    samples: int = 5,
    tol: float | None = None,
    seed: int = 0,
    params: ThetaParams | None = None,
) -> Verdict:
    """Residuals of the four transformation laws at seeded sample points."""
    require_admissible(potential, group)
    tol = tol if tol is not None else default_tolerance(group.order)
    cbar = int(compute_charges(potential).central_charge)
    sign = (-1) ** cbar
    phi = _genus(potential, group, params)

    def laws(z, tau):
        base = phi(z, tau)
        return {
            "tau_shift": (phi(z, tau + 1), base),
            "z_shift": (phi(z + 1, tau), sign * base),
            "z_tau_shift": (phi(z + tau, tau),
                            sign * cmath.exp(-1j * math.pi * cbar * (tau + 2 * z)) * base),
            "inversion": (phi(z / tau, -1 / tau),
                          cmath.exp(1j * math.pi * cbar * z * z / tau) * base),
        }

    names = ("tau_shift", "z_shift", "z_tau_shift", "inversion")
    return _sampled_check("jacobi", laws, samples, seed, tol, names)


def check_mirror(
    potential: Potential,
    group: SymmetryGroup,
    mode: str = "series",
    qmax=1,
    ycap=None,
    samples: int = 3,
    tol: float | None = None,
    seed: int = 0,
) -> Verdict:
    """Genus of (W, G) against the genus of the transposed model with the
    dual group, with the parity sign; exact in series mode."""
    require_admissible(potential, group)
    dual_potential = transpose_potential(potential)
    dual = dual_group(potential, group)
    cbar = int(compute_charges(potential).central_charge)
    sign = (-1) ** cbar
    if mode == "series":
        a = ell_genus_series(potential, group, qmax=qmax, ycap=ycap)
        b = ell_genus_series(dual_potential, dual, qmax=qmax, ycap=ycap)
        qcap = min(a.qmax, b.qmax)
        ywin = min(a.ycap, b.ycap)
        mismatches = []
        for key in sorted(set(a.terms) | set(b.terms)):
            eq, ey = key
            if eq > qcap or abs(ey) > ywin:
                continue
            va, vb = a.terms.get(key, Fraction(0)), sign * b.terms.get(key, Fraction(0))
            if va != vb:
                mismatches.append({"q": str(eq), "y": str(ey), "lhs": str(va), "rhs": str(vb)})
        status = "pass" if not mismatches else "fail"
        return Verdict("mirror", status, "exact", mismatches[:10] or
                       [{"compared_terms": len(set(a.terms) | set(b.terms)), "sign": sign}])
    tol = tol if tol is not None else default_tolerance(max(group.order, dual.order))
    phi, phi_dual = _genus(potential, group), _genus(dual_potential, dual)
    return _sampled_check(
        "mirror", lambda z, tau: {"mirror": (phi(z, tau), sign * phi_dual(z, tau))},
        samples, seed, tol,
    )


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


def check_weight_zero_limit(
    potential: Potential,
    group: SymmetryGroup,
    eps_ladder=(1e-2, 1e-3),
    taus=(1.2j, 0.3 + 1.7j),
    tol: float = 1e-4,
) -> tuple[Verdict, complex]:
    """Constancy of the small-z limit across tau, and the limit value itself.

    The value at z = eps deviates from the limit by an eps^2 Taylor term, so
    the two finest ladder rungs are Richardson-extrapolated per tau; the check
    passes when the finest rung and the extrapolated limits agree across tau
    within tol.
    """
    require_admissible(potential, group)
    ladder = sorted(eps_ladder, reverse=True)
    values = {
        tau: [ell_genus_numeric(potential, group, eps, complex(tau)).value for eps in ladder]
        for tau in taus
    }
    finest = [values[tau][-1] for tau in taus]
    spread_fine = max(abs(a - b) for a in finest for b in finest)
    limits = []
    for tau in taus:
        coarse, fine = values[tau][-2], values[tau][-1]
        r2 = (ladder[-2] / ladder[-1]) ** 2
        limits.append((r2 * fine - coarse) / (r2 - 1))
    spread_limits = max(abs(a - b) for a in limits for b in limits)
    spread = max(spread_fine, spread_limits)
    limit = sum(limits) / len(limits)
    status = "pass" if spread < tol else "fail"
    details = [{
        "ladder": {str(tau): [str(v) for v in vals] for tau, vals in values.items()},
        "extrapolated": [str(v) for v in limits],
        "limit": str(limit),
    }]
    return Verdict("weight0", status, spread, details), limit


def jacobian_ring_middle_dimension(exponents: list[int]) -> int:
    """Count degree-k monomial classes in the quotient by the partials of a
    diagonal potential sum_i x_i^{a_i} (degree k = common weighted degree).

    For the diagonal case the quotient basis is x^c with 0 <= c_i <= a_i - 2;
    this counts those of total weighted degree equal to the potential's.
    """
    d = len(exponents)
    target = Fraction(1)
    counts = {Fraction(0): 1}
    for a in exponents:
        new: dict[Fraction, int] = {}
        for deg, cnt in counts.items():
            for c in range(0, a - 1):
                nd = deg + Fraction(c, a)
                if nd <= target:
                    new[nd] = new.get(nd, 0) + cnt
        counts = new
    return counts.get(target, 0)
