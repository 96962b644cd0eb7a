"""The lattice group algebra of symmetry.py against the list-based reference
in helpers.py, on generated invertible potentials with |det A| <= 4000."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form

from helpers import (
    ATOMS,
    QUINTIC,
    cy_potentials,
    potential_from_atoms,
    reference_admissible_subgroups,
    reference_annihilator,
    reference_aut,
    reference_closure,
    reference_dual,
    reference_generator_strings,
    reference_grading,
    reference_moduli,
    reference_sl,
    reference_structure,
)
from orbigenus import symmetry
from orbigenus.exactmath import invert_rational_matrix, mat_det
from orbigenus.potential import parse_potential
from orbigenus.symmetry import (
    PhaseVector,
    SymmetryGroup,
    admissible_subgroups,
    aut_group,
    dual_group,
    grading_subgroup,
    sl_subgroup,
)

MAX_DET = 4000
OCTIC = parse_potential("+".join(f"x{i}^8" for i in range(1, 9)))
# the greedy generators of the octic's SL (8^7 elements), recorded from the
# code that walked the group in sorted order until it was spanned
OCTIC_SL_GENERATORS = [
    "0,0,0,0,0,0,1/8,7/8",
    "0,0,0,0,0,1/8,0,7/8",
    "0,0,0,0,1/8,0,0,7/8",
    "0,0,0,1/8,0,0,0,7/8",
    "0,0,1/8,0,0,0,0,7/8",
    "0,1/8,0,0,0,0,0,7/8",
    "1/8,0,0,0,0,0,0,7/8",
]
SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


@st.composite
def potentials(draw):
    p = potential_from_atoms(draw(st.lists(ATOMS, min_size=1, max_size=3)))
    assume(abs(mat_det(p.matrix)) <= MAX_DET)
    return p


def entries(group):
    return [e.entries for e in group.elements]


def assert_matches(group, reference):
    assert entries(group) == reference
    assert group.order == len(reference)
    assert group.structure == reference_structure(reference)
    assert group.generator_strings() == reference_generator_strings(reference)
    assert group.coordinate_moduli() == reference_moduli(reference)


@SETTINGS
@given(potentials())
def test_aut_sl_and_grading_match_reference(p):
    for group, reference in ((aut_group(p), reference_aut(p)),
                             (sl_subgroup(p), reference_sl(p)),
                             (grading_subgroup(p), reference_grading(p))):
        assert_matches(group, reference)


@SETTINGS
@given(potentials(), st.data())
def test_subgroups_dual_and_annihilator_match_reference(p, data):
    aut = reference_aut(p)
    picks = data.draw(st.lists(st.sampled_from(aut), min_size=1, max_size=3))
    reference = reference_closure(picks, p.dimension)
    group = SymmetryGroup.generate([PhaseVector(e) for e in picks], p.dimension)
    assert_matches(group, reference)
    assert group.is_subgroup_of(aut_group(p))
    assert_matches(dual_group(p, group), reference_dual(p, reference))
    moduli = group.coordinate_moduli()
    if prod(moduli) <= 20000:
        assert group.annihilator_elements() == reference_annihilator(reference, moduli)
    # the first element, in sorted order, with a given coordinate
    j = data.draw(st.integers(0, p.dimension - 1))
    value = data.draw(st.sampled_from(reference))[j]
    assert group.element_with(j, value).entries == next(e for e in reference if e[j] == value)
    # projection onto a set of coordinates
    keep = sorted(data.draw(st.sets(st.integers(0, p.dimension - 1), min_size=1)))
    projected = sorted({tuple(e[i] for i in keep) for e in reference})
    assert entries(group.projection(keep)) == projected


@SETTINGS
@given(cy_potentials(MAX_DET))
def test_admissible_subgroups_match_reference(p):
    assume(sl_subgroup(p).order <= 16 * grading_subgroup(p).order)
    groups = admissible_subgroups(p)
    reference = reference_admissible_subgroups(p)
    assert [entries(g) for g in groups] == reference
    assert [g.structure for g in groups] == [reference_structure(r) for r in reference]
    assert [g.generator_strings() for g in groups] == [
        reference_generator_strings(r) for r in reference
    ]


@SETTINGS
@given(potentials())
def test_aut_structure_is_smith_form_of_exponent_matrix(p):
    snf = smith_normal_form(Matrix(p.matrix), domain=ZZ)
    factors = [abs(snf[i, i]) for i in range(p.dimension)]
    assert aut_group(p).structure == tuple(f for f in factors if f > 1)


@st.composite
def lattices(draw):
    """A group as a lattice containing m Z^d, m one of a few exponents with
    repeated and mixed primes, spanned by random rows besides m Z^d."""
    m = draw(st.sampled_from([4, 8, 9, 12, 36, 72]))
    d = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=d, max_size=d), max_size=5))
    return SymmetryGroup(d, m, symmetry._hnf(rows, (m,) * d))


@settings(max_examples=150, deadline=None)
@given(lattices())
def test_structure_is_smith_form_of_lattice(group):
    """The invariant factors read mod each prime power of m equal m / s_i,
    s_i the Smith factors of the Hermite basis, in divisibility order."""
    m = group.exponent
    snf = smith_normal_form(Matrix(group.hnf), domain=ZZ)
    factors = (m // abs(snf[i, i]) for i in reversed(range(group.dimension)))
    assert group.structure == tuple(f for f in factors if f > 1)
    assert prod(group.structure) == group.order


@settings(max_examples=150, deadline=None)
@given(lattices())
def test_dual_rows_are_columns_of_scaled_inverse(group):
    m = group.exponent
    scaled = [[m * x for x in column] for column in zip(*invert_rational_matrix(group.hnf))]
    assert [list(row) for row in group._dual_rows()] == scaled


@st.composite
def relations(draw):
    """An upper triangular integer matrix with a positive diagonal."""
    r = draw(st.integers(1, 3))
    return [[draw(st.integers(1, 12)) if k == i else draw(st.integers(-20, 20)) if k > i else 0
             for k in range(r)] for i in range(r)]


@settings(max_examples=150, deadline=None)
@given(relations())
def test_superlattices_are_the_lattices_containing_the_relation(relation):
    """Each yielded basis is in Hermite form and contains every row of R, no
    two are equal, and there are as many as subgroups of Z^r / R Z^r, counted
    on the diagonal of R's Smith factors."""
    r = len(relation)
    bases = [tuple(map(tuple, h)) for h in symmetry._superlattices(relation)]
    for h in bases:
        for i, row in enumerate(h):
            assert not any(row[:i]) and relation[i][i] % row[i] == 0
            assert all(0 <= row[k] < h[k][k] for k in range(i + 1, r))
        assert not any(any(symmetry._reduce(h, rrow)) for rrow in relation)
    assert len(set(bases)) == len(bases)
    snf = smith_normal_form(Matrix(relation), domain=ZZ)
    diagonal = [[abs(snf[i, i]) * (i == k) for k in range(r)] for i in range(r)]
    assert len(bases) == sum(1 for _ in symmetry._superlattices(diagonal))


def test_element_with_rejects_absent_coordinate():
    group = SymmetryGroup.from_generator_strings(["1/2,1/2"], 2)
    assert group.element_with(1, Fraction(1, 2)).entries == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        group.element_with(0, Fraction(1, 3))


def test_naming_and_ordering_list_no_element(monkeypatch):
    """Generators, element_with and the order of the admissible groups read
    the Hermite basis; no group is walked for them."""

    def no_walk(*args):
        raise AssertionError("a group was walked")

    monkeypatch.setattr(symmetry, "_walk", no_walk)
    sl = sl_subgroup(OCTIC)
    assert sl.generator_strings() == OCTIC_SL_GENERATORS
    assert sl.element_with(7, Fraction(3, 8)).entries == (0,) * 6 + (Fraction(5, 8), Fraction(3, 8))
    names = [g.generator_strings() for g in admissible_subgroups(QUINTIC)]
    # the list-based closures: sorted by (size, elements), named greedily
    closures = [reference_closure([PhaseVector.from_string(t).entries for t in gens], 5)
                for gens in names]
    assert len(closures) == 64
    assert closures == sorted(closures, key=lambda c: (len(c), c))
    assert names == [reference_generator_strings(c) for c in closures]
