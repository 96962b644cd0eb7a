from fractions import Fraction

import pytest

from orbigenus.exactmath import mat_det
from orbigenus.potential import parse_potential, transpose_potential
from orbigenus.symmetry import (
    AdmissibilityError,
    GroupSizeError,
    PhaseVector,
    SymmetryGroup,
    admissible_subgroups,
    aut_group,
    dual_group,
    grading_element,
    grading_subgroup,
    require_admissible,
    sl_subgroup,
)

F = Fraction

QUINTIC = parse_potential("x1^5+x2^5+x3^5+x4^5+x5^5")
CUBIC = parse_potential("x1^3+x2^3+x3^3")
TWO_SQUARES = parse_potential("x1^2+x2^2")
LOOP22 = parse_potential("x1^2*x2+x2^2*x1")
CHAIN34 = parse_potential("x1^3*x2+x2^4")
K3_CHAIN = parse_potential("x1^3*x2+x2^4+x3^4+x4^4")
LOOP_K3 = parse_potential("x1^3*x2+x2^3*x1+x3^4+x4^4")
OCTIC = parse_potential("+".join(f"x{i}^8" for i in range(1, 9)))

CY_POTENTIALS = [QUINTIC, CUBIC, TWO_SQUARES, K3_CHAIN, LOOP_K3]


def test_phase_vector_canonicalization():
    v = PhaseVector.canonical([F(7, 5), F(-1, 5)])
    assert v.entries == (F(2, 5), F(4, 5))
    assert (v + v).entries == (F(4, 5), F(3, 5))
    assert (-v).entries == (F(3, 5), F(1, 5))
    assert v.order() == 5


def test_aut_quintic():
    g = aut_group(QUINTIC)
    assert g.order == 3125
    assert g.structure == (5, 5, 5, 5, 5)


def test_aut_loop():
    g = aut_group(LOOP22)
    assert g.order == 3
    assert PhaseVector.canonical([F(1, 3), F(1, 3)]) in g
    assert g.structure == (3,)


def test_aut_chain():
    g = aut_group(CHAIN34)
    assert g.order == 12
    assert g.structure == (12,)


def test_aut_order_equals_det():
    for p in CY_POTENTIALS + [LOOP22, CHAIN34]:
        assert aut_group(p).order == abs(mat_det(p.matrix))


def test_grading_element_examples():
    assert grading_element(QUINTIC).entries == (F(1, 5),) * 5
    assert grading_element(K3_CHAIN).entries == (F(1, 4),) * 4
    assert grading_element(TWO_SQUARES).entries == (F(1, 2), F(1, 2))


def test_sl_quintic():
    assert sl_subgroup(QUINTIC).order == 625


def test_sl_two_squares():
    g = sl_subgroup(TWO_SQUARES)
    assert g.order == 2
    assert PhaseVector.canonical([F(1, 2), F(1, 2)]) in g


def test_sl_loop_is_trivial():
    g = sl_subgroup(LOOP22)
    assert g.order == 1
    assert g.elements[0].entries == (F(0), F(0))


def test_admissible_two_squares():
    subs = admissible_subgroups(TWO_SQUARES)
    assert len(subs) == 1
    assert subs[0] == grading_subgroup(TWO_SQUARES)


def test_admissible_cubic():
    subs = admissible_subgroups(CUBIC)
    orders = sorted(g.order for g in subs)
    assert orders == [3, 9]
    assert grading_subgroup(CUBIC) in subs
    assert sl_subgroup(CUBIC) in subs


def test_admissible_quintic_structure():
    subs = admissible_subgroups(QUINTIC)
    # the interval [<J>, SL] is the subgroup lattice of (Z/5)^3: 64 entries
    assert len(subs) == 64
    assert grading_subgroup(QUINTIC) in subs
    assert sl_subgroup(QUINTIC) in subs
    j = grading_element(QUINTIC)
    sl = sl_subgroup(QUINTIC)
    for g in subs:
        assert j in g
        assert g.is_subgroup_of(sl)
        assert 625 % g.order == 0


def test_admissible_requires_cy():
    with pytest.raises(AdmissibilityError):
        admissible_subgroups(CHAIN34)


def test_require_admissible():
    require_admissible(QUINTIC, grading_subgroup(QUINTIC))
    with pytest.raises(AdmissibilityError):
        require_admissible(QUINTIC, SymmetryGroup.trivial(5))
    with pytest.raises(AdmissibilityError):
        require_admissible(QUINTIC, aut_group(QUINTIC))


def test_dual_of_grading_subgroup_is_sl_of_dual():
    for p in CY_POTENTIALS:
        dual = dual_group(p, grading_subgroup(p))
        assert dual == sl_subgroup(transpose_potential(p))


def test_dual_of_sl_is_grading_subgroup_of_dual():
    for p in CY_POTENTIALS:
        dual = dual_group(p, sl_subgroup(p))
        assert dual == grading_subgroup(transpose_potential(p))


def test_dual_of_full_group_is_trivial():
    for p in (CUBIC, TWO_SQUARES, K3_CHAIN):
        dual = dual_group(p, aut_group(p))
        assert dual.order == 1


def test_dual_order_product():
    for p in CY_POTENTIALS:
        det = abs(mat_det(p.matrix))
        for g in (grading_subgroup(p), sl_subgroup(p)):
            assert g.order * dual_group(p, g).order == det


def test_double_dual_identity():
    for p in CY_POTENTIALS:
        pd = transpose_potential(p)
        for g in (grading_subgroup(p), sl_subgroup(p)):
            gd = dual_group(p, g)
            assert dual_group(pd, gd) == g


def test_dual_group_is_admissible_for_dual():
    for p in CY_POTENTIALS:
        pd = transpose_potential(p)
        gd = dual_group(p, grading_subgroup(p))
        assert grading_element(pd) in gd
        assert gd.is_subgroup_of(sl_subgroup(pd))


def test_theta_sums_integral_on_sl():
    for p in CY_POTENTIALS:
        for el in sl_subgroup(p).elements:
            assert sum(el.entries).denominator == 1


def test_chain_aut_coordinates_canonical():
    g = aut_group(CHAIN34)
    for el in g.elements:
        assert all(0 <= e < 1 for e in el.entries)
    orders = {el.order() for el in g.elements}
    assert max(orders) == 12  # cyclic generator present


def test_group_serialization_round_trip():
    g = sl_subgroup(QUINTIC)
    rebuilt = SymmetryGroup.from_generator_strings(g.generator_strings(), 5)
    assert rebuilt == g


def test_coordinate_moduli():
    assert aut_group(CHAIN34).coordinate_moduli() == (12, 4)
    assert aut_group(transpose_potential(CHAIN34)).coordinate_moduli() == (3, 12)
    assert grading_subgroup(QUINTIC).coordinate_moduli() == (5, 5, 5, 5, 5)


def test_size_cap_applies_only_to_listing():
    sl = sl_subgroup(OCTIC)
    assert sl.order == 8**7
    assert grading_element(OCTIC) in sl
    require_admissible(OCTIC, sl)
    assert sl.is_subgroup_of(aut_group(OCTIC))
    with pytest.raises(GroupSizeError):
        sl.elements
