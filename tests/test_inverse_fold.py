"""The exact genus sum folded by inversion, ``genus._inverse_classes``.

theta_1 is odd, so Z_{g^-1,h^-1}(tau, z) = Z_{g,h}(tau, -z), and the sum
over h of a left element g^-1 is the sum of g reflected r -> -r; on the
engine's exponents, shifted up by c/2, that is ky -> c d - ky.  These tests
check that identity one left element at a time through ``double_sum``,
without the folding code, and check the folded genus against the sum over
the whole left side on every admissible group of six models.  The choice
to fold is read off the automata: each exact sum builds one plan, and the
chosen classes never form more products than the other candidate's.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, example, given, settings

from helpers import CUBIC, K3_CHAIN, LOOP_K3, QUINTIC, TWO_SQUARES, d_left_orbifolds, pairings
from orbigenus import _contract, _engine, genus
from orbigenus.exactmath import lcm
from orbigenus.genus import jacobi_reach
from orbigenus.potential import compute_charges, parse_potential
from orbigenus.symmetry import SymmetryGroup, admissible_subgroups, grading_subgroup, sl_subgroup

F = Fraction
K3_FERMAT = parse_potential("x1^4+x2^4+x3^4+x4^4")
SEXTIC_CURVE = parse_potential("x1^6+x2^6+x3^6+x4^2")
SEPTIC = parse_potential("+".join(f"x{i}^7" for i in range(1, 8)))
MIXED = parse_potential("x1^6+x2^3+x3^3+x4^6")
K3_FERMAT_UNFOLDED = SymmetryGroup.from_generator_strings(
    ["0,0,1/2,1/2", "0,1/2,1/4,1/4", "1/4,1/4,1/4,1/4"], 4)
MIXED_UNFOLDED = SymmetryGroup.from_generator_strings(["0,0,1/3,2/3", "1/6,1/3,0,1/2"], 4)
SEXTIC = parse_potential("+".join(f"x{i}^6" for i in range(1, 7)))
# two of the 12 sextic Fermat groups on which the Galois units decide: with
# no units, the automata of the same-mode pairing count fewer products
# folded; and one of the two whose "D" x "T" sum the fold costs products,
# which units scaling the right side would count as fewer
SEXTIC_UNFOLDED = [SymmetryGroup.from_generator_strings(text.split(";"), 6) for text in (
    "0,0,0,0,1/3,2/3;0,0,0,1/2,0,1/2;0,1/6,1/3,1/3,0,1/6;1/6,0,5/6,1/3,1/6,1/2",
    "0,0,0,1/6,1/6,2/3;0,1/6,1/3,0,1/2,0;1/6,0,5/6,0,1/2,1/2",
    "0,0,0,0,1/6,5/6;0,1/6,1/3,5/6,0,2/3;1/6,0,5/6,1/3,0,2/3",
)]
# "D" groups with inverse pairs on which the fold forms more products:
# (group, folded products, whole products), on the exact path's pairing and
# the same-mode one
UNFOLDED = {K3_FERMAT: [(K3_FERMAT_UNFOLDED, 104, 80), (K3_FERMAT_UNFOLDED, 75, 72)],
            MIXED: [(MIXED_UNFOLDED, 132, 108), (MIXED_UNFOLDED, 88, 72)],
            SEXTIC: [(SEXTIC_UNFOLDED[0], 1952, 1944), (SEXTIC_UNFOLDED[1], 1328, 1320),
                     (SEXTIC_UNFOLDED[2], 1140, 1116)]}


def single_element_sums(potential, group, qmax, width):
    """The engine total of each left element g, summed over the right side,
    on the strip of half-width ``width`` centred at c/2: a map g -> its
    terms (kq, ky) -> vector, and c d, the reflection's sum of exponents."""
    charges = compute_charges(potential)
    half = charges.central_charge / 2
    setup = genus._sum_setup(group)
    assert setup.mode_l == "D"
    st_lo, st_hi = half - width, half + width
    ctx = genus._build_context(tuple(charges.q), setup.moduli, qmax, st_lo, st_hi,
                               setup.theta_max)
    totals = _engine.double_sum(_engine._ExactRing(ctx), [[g] for g in setup.left],
                                setup.right, setup.mode_l, setup.mode_r)
    d = ctx.denominator
    sums = {tuple(g): {(kq, ky): vec for (kq, ky), vec in total.items()
                       if st_lo * d <= ky <= st_hi * d}
            for g, total in zip(setup.left, totals)}
    return sums, int(2 * half * d), setup.moduli


def assert_inverse_is_reflection(potential, group, qmax, width):
    """S_{g^-1}(n, r) = S_g(n, -r) for every left element; returns how many
    elements are not their own inverse."""
    sums, mirror, moduli = single_element_sums(potential, group, qmax, width)
    pairs = 0
    for g, terms in sums.items():
        assert all(not any(vec[1:]) for vec in terms.values()), g  # each S_g is rational
        inverse = tuple(-x % m for x, m in zip(g, moduli))
        assert {(kq, mirror - ky): vec for (kq, ky), vec in terms.items()} == sums[inverse], g
        pairs += inverse != g
    return pairs


REFERENCE_D_SUMS = [
    pytest.param(QUINTIC, grading_subgroup(QUINTIC), id="quintic-J"),
    pytest.param(K3_CHAIN, grading_subgroup(K3_CHAIN), id="k3chain-J"),
    pytest.param(K3_CHAIN, sl_subgroup(K3_CHAIN), id="k3chain-SL"),
    pytest.param(LOOP_K3, grading_subgroup(LOOP_K3), id="loopk3-J"),
    pytest.param(LOOP_K3, sl_subgroup(LOOP_K3), id="loopk3-SL"),
    pytest.param(K3_FERMAT, grading_subgroup(K3_FERMAT), id="k3fermat-J"),
    pytest.param(CUBIC, grading_subgroup(CUBIC), id="cubic-J"),
    pytest.param(SEXTIC_CURVE, grading_subgroup(SEXTIC_CURVE), id="sextic-curve-J"),
    pytest.param(SEPTIC, grading_subgroup(SEPTIC), id="septic-J"),
]


@pytest.mark.parametrize("potential, group", REFERENCE_D_SUMS)
def test_inverse_element_sum_is_reflected(potential, group):
    """The identity behind the fold, on each reference "D" left side at q^2,
    with the reflection taken about c/2 and not about 0."""
    assert assert_inverse_is_reflection(potential, group, F(2), F(3)) > 0


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(d_left_orbifolds())
@example((parse_potential("x1^2+x2^3+x3^7+x4^42"),
          grading_subgroup(parse_potential("x1^2+x2^3+x3^7+x4^42"))))  # conductor 42
def test_inverse_element_sum_is_reflected_on_generated_models(case):
    potential, group = case
    assert assert_inverse_is_reflection(potential, group, F(1), F(2)) > 0


class CountingRing(_engine._ExactRing):
    products = 0

    def mul(self, a, b):
        CountingRing.products += 1
        return super().mul(a, b)


FOLD_MODELS = [QUINTIC, K3_CHAIN, LOOP_K3, K3_FERMAT, CUBIC, SEXTIC_CURVE]


@pytest.mark.parametrize("potential", FOLD_MODELS, ids=lambda p: p.text)
def test_folded_genus_equals_unfolded_sum(monkeypatch, potential):
    """On every admissible group at q^2: the same terms as the sum over the
    whole left side, and never more ring products; J, which has pairs here,
    forms strictly fewer.  A "T" left side holds characters and is not
    folded, which a q^0 run shows; only "D" sums run twice at q^2."""
    qmax = F(2)
    ycap = jacobi_reach(compute_charges(potential).central_charge, qmax) + genus.CERTIFY_MARGIN
    monkeypatch.setattr(_engine, "_ExactRing", CountingRing)
    fold = genus._inverse_classes
    folds = []

    def spy(setup):
        classes = fold(setup)
        folds.append(len(classes) > 1)
        return classes

    def run(group):
        CountingRing.products = 0
        return genus._genus_rational_terms(potential, group, qmax, ycap), CountingRing.products

    for group in admissible_subgroups(potential):
        monkeypatch.setattr(genus, "_inverse_classes", spy)
        if genus._sum_setup(group).mode_l == "T":
            calls = len(folds)
            genus._genus_rational_terms(potential, group, F(0), ycap)
            assert len(folds) == calls, group
            continue
        folded, products = run(group)
        monkeypatch.setattr(genus, "_inverse_classes", lambda setup: [setup.left])
        whole, whole_products = run(group)
        assert folded == whole, group
        assert list(folded) == sorted(folded)
        assert products <= whole_products, group
        if group == grading_subgroup(potential):
            assert folds[-1] and products < whole_products
    assert any(folds)


@pytest.mark.parametrize("potential, group, folded", [
    pytest.param(QUINTIC, grading_subgroup(QUINTIC), True, id="quintic-J"),
    pytest.param(K3_FERMAT, K3_FERMAT_UNFOLDED, False, id="k3fermat-order-16"),
    pytest.param(TWO_SQUARES, grading_subgroup(TWO_SQUARES), False, id="two-squares-J"),
])
def test_each_exact_sum_plans_once(monkeypatch, potential, group, folded):
    """The fold is decided from the automata, so an exact genus sum builds
    one contraction plan whether it folds, keeps the whole left side where
    the fold costs more, or has no inverse pairs."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _contract.plan(*args)

    _contract.plan.cache_clear()
    monkeypatch.setattr(_engine, "plan", counted)
    genus._genus_rational_terms(potential, group, F(1), F(3))
    assert len(calls) == 1
    assert len(calls[0][0]) == (2 if folded else 1)


def plan_products(classes, setup):
    """The ring products of the exact ring's schedule: one per edge out of a
    state other than the root, whose value is 1."""
    n = lcm(*setup.moduli)
    units = tuple(u for u in range(1, n + 1) if gcd(u, n) == 1)
    steps = _contract.plan(tuple(map(tuple, classes)), tuple(setup.right), setup.mode_l,
                           setup.mode_r, setup.moduli, units)[1]
    return sum(len(edges) for sid, edges in steps if sid)


@pytest.mark.parametrize("potential", FOLD_MODELS + [MIXED, SEXTIC], ids=lambda p: p.text)
def test_fold_rule_never_picks_the_costlier_schedule(potential):
    """On every "D" left side with inverse pairs, of each pairing of every
    admissible group (on the sextic, the pinned ones), the classes
    ``_inverse_classes`` picks from the automata form no more products than
    the other candidate's schedule; plans only, no series."""
    checked = []
    groups = SEXTIC_UNFOLDED if potential == SEXTIC else admissible_subgroups(potential)
    for group, setup in ((group, setup) for group in groups for setup in pairings(group)):
        if setup.mode_l != "D":
            continue
        inverse = {rep: tuple(-x % m for x, m in zip(rep, setup.moduli)) for rep in setup.left}
        if all(inverse[rep] == rep for rep in setup.left):
            continue
        whole = plan_products([setup.left], setup)
        folded = plan_products([[rep for rep in setup.left if inverse[rep] == rep],
                                [rep for rep in setup.left if inverse[rep] > rep]], setup)
        chosen, other = (folded, whole) if len(genus._inverse_classes(setup)) == 2 else (whole, folded)
        assert chosen <= other, group
        checked.append((group, folded, whole))
    assert checked
    for case in UNFOLDED.get(potential, []):
        assert case in checked
