"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The five reference potentials are the two-squares model, the cubic, the
quintic, a chain+fermat K3 model (genuinely asymmetric exponent matrix), and
a loop+fermat K3 model.  All tolerances are pinned here.
"""

from fractions import Fraction

from orbigenus.exactmath import mat_det
from orbigenus.genus import cone_supertrace_series, ell_genus_series, sector_supertrace_series
from orbigenus.oracle import untwisted_states
from orbigenus.potential import compute_charges, transpose_potential
from orbigenus.qseries import Windows
from orbigenus.symmetry import (
    PhaseVector,
    SymmetryGroup,
    dual_group,
    grading_subgroup,
    sl_subgroup,
)
from orbigenus.verify import (
    check_jacobi_transformations,
    check_theta_identities,
    holomorphy_certificate,
)

from helpers import (
    CUBIC,
    K3_CHAIN,
    LOOP_K3,
    QUINTIC,
    TWO_SQUARES,
    genus_series_cached,
    q_slice,
    reference_jacobian_middle_dimension,
)

F = Fraction

TEST_POTENTIALS = {
    "two_squares": TWO_SQUARES,
    "cubic": CUBIC,
    "quintic": QUINTIC,
    "k3_chain": K3_CHAIN,
    "k3_loop": LOOP_K3,
}


def _report(criterion: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def _genus(potential, group, qmax, ycap):
    return genus_series_cached(
        potential.text, tuple(group.generator_strings()), F(qmax), F(ycap)
    )


MIRROR_CASES = [
    ("quintic", QUINTIC, 1, 4),
    ("cubic", CUBIC, 2, 4),
    ("k3_chain", K3_CHAIN, 1, 4),
    ("two_squares", TWO_SQUARES, 2, 3),
]


def test_criterion_1_mirror_duality_exact():
    failures = []
    for name, potential, qmax, ycap in MIRROR_CASES:
        group = grading_subgroup(potential)
        dual = dual_group(potential, group)
        sign = -1 if int(compute_charges(potential).central_charge) % 2 else 1
        a = _genus(potential, group, qmax, ycap)
        b = _genus(transpose_potential(potential), dual, qmax, ycap)
        keys = set(a.terms) | set(b.terms)
        bad = [k for k in keys if a.terms.get(k, F(0)) != sign * b.terms.get(k, F(0))]
        if bad:
            failures.append((name, sorted(bad)[:3]))
    _report("1 mirror-duality", not failures, f"{len(MIRROR_CASES)} pairs, zero tolerance")


def test_criterion_2_transformation_laws():
    cases = [
        (TWO_SQUARES, 5, 1e-6),
        (CUBIC, 5, 1e-6),
        (QUINTIC, 5, 1e-5),
    ]
    worst = 0.0
    ok = True
    for potential, samples, tol in cases:
        verdict = check_jacobi_transformations(
            potential, grading_subgroup(potential), samples=samples, tol=tol, seed=0
        )
        ok = ok and verdict.status == "pass"
        worst = max(worst, verdict.max_residual)
    _report("2 transformation-laws", ok, f"max residual {worst:.2e}")


def test_criterion_3_theta_identities():
    verdict = check_theta_identities(samples=10, seed=0, tol=1e-9)
    ok = verdict.status == "pass" and not verdict.details[0]["skipped"]
    _report("3 theta-identities", ok, f"max residual {verdict.max_residual:.2e} over 10 samples")


def test_criterion_4_oracle_equivalence():
    ok = True
    for charges in ((F(1, 2),), (F(1, 5),), (F(1, 4), F(1, 4))):
        windows = Windows.make(2, -3, 3)
        oracle = untwisted_states(charges, SymmetryGroup.trivial(len(charges)), 2, (-3, 3))
        engine = cone_supertrace_series(charges, windows)
        ok = ok and oracle == engine
    for potential in (TWO_SQUARES, CUBIC, QUINTIC):
        group = grading_subgroup(potential)
        zero = PhaseVector.canonical([0] * potential.dimension)
        sector = sector_supertrace_series(potential, group, zero, Windows.make(0, 0, 3))
        lattice = untwisted_states(compute_charges(potential), group, 0, (0, 3))
        ok = ok and sector == lattice
    _report("4 oracle-equivalence", ok, "free states and zero-level lattice counts, exact")


def test_criterion_5_cusp_and_rationality():
    checked = 0
    for name, potential, qmax, ycap in MIRROR_CASES:
        series = _genus(potential, grading_subgroup(potential), qmax, ycap)
        assert all(eq >= 0 for (eq, _) in series.terms)
        assert all(isinstance(c, F) for c in series.terms.values())
        checked += 1
    # the SL side of the quintic as the largest group-summed case
    series = _genus(QUINTIC, sl_subgroup(QUINTIC), 1, 4)
    assert all(eq >= 0 for (eq, _) in series.terms)
    checked += 1
    _report("5 cusp-and-rationality", True, f"{checked} genus series, hard assertions")


def test_criterion_6_group_duality():
    ok = True
    for name, potential in TEST_POTENTIALS.items():
        det = abs(mat_det(potential.matrix))
        dual_potential = transpose_potential(potential)
        j_group = grading_subgroup(potential)
        sl = sl_subgroup(potential)
        d1 = dual_group(potential, j_group)
        d2 = dual_group(potential, sl)
        ok = ok and d1 == sl_subgroup(dual_potential)
        ok = ok and d2 == grading_subgroup(dual_potential)
        ok = ok and j_group.order * d1.order == det and sl.order * d2.order == det
        ok = ok and dual_group(dual_potential, d1) == j_group
        ok = ok and dual_group(dual_potential, d2) == sl
    _report("6 group-duality", ok, f"{len(TEST_POTENTIALS)} potentials, exact")


def test_criterion_7_holomorphy_certificates():
    ok = True
    combos = 0
    for name, potential in TEST_POTENTIALS.items():
        for group in (grading_subgroup(potential), sl_subgroup(potential)):
            report = holomorphy_certificate(potential, group)
            ok = ok and report.passed
            combos += report.combos_checked
    # the dual K3 chain with the dual group
    dual_pair = holomorphy_certificate(
        transpose_potential(K3_CHAIN), dual_group(K3_CHAIN, grading_subgroup(K3_CHAIN))
    )
    ok = ok and dual_pair.passed
    combos += dual_pair.combos_checked
    _report("7 holomorphy-certificates", ok, f"{combos} distinct twist combinations")


def test_criterion_8_weight_zero_limit():
    # weight 0: at z = 0 the genus is the constant Witten index, so the q^0
    # coefficients sum to chi and every higher q-slice sums to 0
    series = ell_genus_series(QUINTIC, grading_subgroup(QUINTIC), qmax=3)
    sums = [sum(q_slice(series, n).values()) for n in range(4)]
    middle = reference_jacobian_middle_dimension([5, 5, 5, 5, 5])
    expected = 2 * (1 - middle)
    ok = expected == -200 and sums == [expected, 0, 0, 0]
    _report("8 weight-zero-limit", ok, f"slice sums q^0..q^3 {sums}, oracle {expected}")
