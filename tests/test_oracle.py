import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from orbigenus import oracle as oracle_module
from orbigenus.exactmath import lcm, mat_det
from orbigenus.genus import cone_supertrace_series, sector_supertrace_series
from orbigenus.oracle import StateCapError, _pairing_rows, modes_for_charges, untwisted_states
from orbigenus.potential import compute_charges, parse_potential
from orbigenus.qseries import Windows
from orbigenus.symmetry import (
    PhaseVector,
    SymmetryGroup,
    aut_group,
    grading_subgroup,
    sl_subgroup,
)

from helpers import (
    ATOMS,
    CUBIC,
    K3_CHAIN,
    LOOP_K3,
    QUINTIC,
    TWO_SQUARES,
    potential_from_atoms,
    reference_zero_level,
)

F = Fraction


def test_mode_table():
    modes = modes_for_charges((F(1, 5),), 1)
    table = {(m.family, m.level): (m.charge, m.weight, m.bosonic) for m in modes}
    assert table[("b", 0)] == (F(1, 5), 0, True)
    assert table[("a", 1)] == (F(-1, 5), 1, True)
    assert table[("phi", 1)] == (F(-4, 5), 1, False)
    assert table[("psi", 0)] == (F(4, 5), 0, False)
    assert ("a", 0) not in table
    assert ("phi", 0) not in table


def test_free_states_single_half_charge():
    # q = 1/2, level 0: states are b-tower times optional psi; the q^0 slice
    # telescopes to 1 within any window
    s = untwisted_states([F(1, 2)], SymmetryGroup.trivial(1), 0, (-2, 2))
    assert s == {(F(0), F(0)): F(1)}


def test_free_states_single_fifth_charge():
    s = untwisted_states([F(1, 5)], SymmetryGroup.trivial(1), 0, (0, Fraction(99, 100)))
    assert s == {
        (F(0), F(0)): F(1),
        (F(0), F(1, 5)): F(1),
        (F(0), F(2, 5)): F(1),
        (F(0), F(3, 5)): F(1),
    }


def test_free_states_empty_potential():
    s = untwisted_states([], SymmetryGroup.trivial(0), 2, (-1, 1))
    assert s == {(F(0), F(0)): F(1)}


@pytest.mark.parametrize(
    "charges", [(F(1, 2),), (F(1, 5),), (F(1, 4), F(1, 4)), ()]
)
def test_free_states_match_cone_product(charges):
    windows = Windows.make(2, -3, 3)
    oracle = untwisted_states(charges, SymmetryGroup.trivial(len(charges)), 2, (-3, 3))
    product = cone_supertrace_series(charges, windows)
    assert oracle == product


# charges a/b with b <= 6 and a/b <= 1/2, as in an invertible potential
CHARGES = st.integers(2, 6).flatmap(lambda b: st.integers(1, b // 2).map(lambda a: F(a, b)))
HALVES = st.integers(-6, 10).map(lambda k: F(k, 2))


@settings(max_examples=60, deadline=None)
@given(
    charges=st.lists(CHARGES, min_size=1, max_size=3),
    qmax=st.integers(0, 2),
    ends=st.tuples(HALVES, HALVES).map(sorted),
)
@example(charges=[F(1, 7)], qmax=1, ends=[F(3, 2), F(2)])
@example(charges=[F(4, 7), F(1, 7)], qmax=0, ends=[F(2), F(11, 2)])
def test_free_states_on_windows_either_side_of_zero(charges, qmax, ends):
    # partial sums start at y = 0, so a window above 0 must keep the states
    # that pass below it; the narrow slice equals the wide one restricted
    ymin, ymax = ends
    trivial = SymmetryGroup.trivial(len(charges))
    narrow = untwisted_states(charges, trivial, qmax, (ymin, ymax))
    wide = untwisted_states(charges, trivial, qmax, (-4, 6))
    assert narrow == {key: c for key, c in wide.items() if ymin <= key[1] <= ymax}
    assert narrow == cone_supertrace_series(charges, Windows.make(qmax, ymin, ymax))


def test_free_states_above_zero_pins():
    one, two = SymmetryGroup.trivial(1), SymmetryGroup.trivial(2)
    assert untwisted_states([F(1, 7)], one, 1, (F(3, 2), 2)) == {(F(1), F(11, 7)): F(-1)}
    assert len(untwisted_states([F(4, 7), F(1, 7)], two, 0, (2, F(11, 2)))) == 12


def _runtime_imports(tree):
    """(module, level, names) of every import not under ``if TYPE_CHECKING:``."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.If) and isinstance(child.test, ast.Name)
                    and child.test.id == "TYPE_CHECKING"):
                continue
            if isinstance(child, ast.Import):
                found.extend((alias.name, 0, ()) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                found.append((child.module or "", child.level,
                              tuple(alias.name for alias in child.names)))
            visit(child)

    visit(tree)
    return found


def test_oracle_imports_nothing_from_the_engine():
    # the oracles count states independently of the series engine; the
    # reference helpers keep the engine and genus out of their module level
    src = Path(oracle_module.__file__)
    engine_side = {"_engine", "genus", "qseries"}
    for module, level, names in _runtime_imports(ast.parse(src.read_text())):
        parts = set(module.split(".")) | (set(names) if level and not module else set())
        assert not parts & engine_side, (module, names)
    helpers = ast.parse((Path(__file__).parent / "helpers.py").read_text())
    for node in helpers.body:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        assert not {"orbigenus._engine", "orbigenus.genus"} & set(modules), modules


def test_state_cap(monkeypatch):
    monkeypatch.setattr(oracle_module, "STATE_CAP", 1000)
    with pytest.raises(StateCapError):
        untwisted_states([F(1, 5)] * 5, SymmetryGroup.trivial(5), 3, (-40, 40))


def test_zero_level_two_squares_parity_filter():
    g = grading_subgroup(TWO_SQUARES)
    terms = untwisted_states(compute_charges(TWO_SQUARES), g, 0, (0, 2))
    # only even total occupancy survives; odd y-levels cancel
    assert terms[(F(0), F(0))] == 1
    assert (F(0), F(1, 2)) not in terms
    assert (F(0), F(1)) not in terms  # +4 bosonic/fermion-pair states, -4 mixed


def test_zero_level_quintic_single_mode_filtered():
    g = grading_subgroup(QUINTIC)
    terms = untwisted_states(compute_charges(QUINTIC), g, 0, (0, 1))
    assert (F(0), F(1, 5)) not in terms  # single mode pairs to 1/5, filtered out
    assert terms[(F(0), F(1))] == 101


@pytest.mark.parametrize(
    "potential,name",
    [(TWO_SQUARES, "two_squares"), (CUBIC, "cubic"), (QUINTIC, "quintic")],
)
def test_zero_level_matches_untwisted_sector(potential, name):
    group = grading_subgroup(potential)
    ymax = 3
    zero = PhaseVector.canonical([0] * potential.dimension)
    sector = sector_supertrace_series(potential, group, zero, Windows.make(1, 0, ymax))
    oracle = untwisted_states(compute_charges(potential), group, 0, (0, ymax))
    sector_q0 = {key: val for key, val in sector.items() if key[0] == 0}
    assert sector_q0 == oracle


def _occupancy_vectors(potential, ymax):
    """How many occupancy vectors the one-at-a-time reference visits."""
    qs = compute_charges(potential).q
    d = lcm(*(q.denominator for q in qs))
    top = ymax * d
    counts = {0: 1}
    for q in qs:
        step, psi_step = int(q * d), int((1 - q) * d)
        out = {}
        for ky, n in counts.items():
            while ky <= top:
                out[ky] = out.get(ky, 0) + n
                if ky + psi_step <= top:
                    out[ky + psi_step] = out.get(ky + psi_step, 0) + n
                ky += step
        counts = out
    return sum(counts.values())


@st.composite
def oracle_cases(draw):
    """A generated invertible potential, one of its groups (J, SL, trivial or
    spanned by random Aut elements) and a y-window with ymax <= 2."""
    p = potential_from_atoms(draw(st.lists(ATOMS, min_size=1, max_size=2)))
    assume(abs(mat_det(p.matrix)) <= 2000)
    ymax = draw(st.sampled_from([F(1), F(3, 2), F(2)]))
    ymin = draw(st.sampled_from([F(0), F(1, 2), F(1)]).filter(lambda y: y <= ymax))
    assume(_occupancy_vectors(p, ymax) <= 4000)
    kind = draw(st.sampled_from(["J", "SL", "trivial", "aut"]))
    if kind == "J":
        group = grading_subgroup(p)
    elif kind == "SL":
        group = sl_subgroup(p)
    elif kind == "trivial":
        group = SymmetryGroup.trivial(p.dimension)
    else:
        aut = aut_group(p).elements
        picks = draw(st.lists(st.sampled_from(aut), min_size=1, max_size=3))
        group = SymmetryGroup.generate(picks, p.dimension)
    return p, group, (ymin, ymax)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(oracle_cases())
def test_zero_level_matches_one_vector_reference(case):
    p, group, window = case
    expected = reference_zero_level(p, group, window)
    assert untwisted_states(compute_charges(p), group, 0, window) == expected


@pytest.mark.parametrize(
    "potential,group",
    [(QUINTIC, "SL"), (TWO_SQUARES, "J"), (LOOP_K3, "SL")],
)
def test_zero_level_matches_reference_on_models(potential, group):
    g = sl_subgroup(potential) if group == "SL" else grading_subgroup(potential)
    for window in ((0, 2), (F(1, 2), 2)):
        expected = reference_zero_level(potential, g, window)
        assert untwisted_states(compute_charges(potential), g, 0, window) == expected


def test_zero_level_state_cap(monkeypatch):
    monkeypatch.setattr(oracle_module, "STATE_CAP", 1000)
    group = sl_subgroup(QUINTIC)
    with pytest.raises(StateCapError):
        untwisted_states(compute_charges(QUINTIC), group, 0, (0, 3))


def test_pairing_rows_drop_trivial_rows():
    # J of the quintic: one Hermite row (1,1,1,1,1) and four rows 5 e_j
    assert _pairing_rows(grading_subgroup(QUINTIC)) == [((1, 1, 1, 1, 1), 5)]
    assert _pairing_rows(SymmetryGroup.trivial(3)) == []
    for group in (sl_subgroup(QUINTIC), aut_group(CUBIC)):
        rows = _pairing_rows(group)
        assert rows and all(mod > 1 for _, mod in rows)
        assert len(rows) == sum(row[i] != group.exponent for i, row in enumerate(group.hnf))


@pytest.mark.parametrize(
    "potential",
    [TWO_SQUARES, CUBIC, QUINTIC, K3_CHAIN, LOOP_K3],
    ids=["two_squares", "cubic", "quintic", "k3_chain", "loop_k3"],
)
@pytest.mark.parametrize("kind", ["J", "SL"])
def test_first_level_matches_untwisted_sector(potential, kind):
    # at q^1 the a and phi modes enter: a pairs with the group through the
    # opposite phase of b, phi through the opposite phase of psi
    group = grading_subgroup(potential) if kind == "J" else sl_subgroup(potential)
    zero = PhaseVector.canonical([0] * potential.dimension)
    sector = sector_supertrace_series(potential, group, zero, Windows.make(1, 0, 2))
    assert untwisted_states(compute_charges(potential), group, 1, (0, 2)) == sector


def test_zero_level_octic_matches_untwisted_sector():
    # |Aut| = 8^8; each state carries one residue mod 8, so the count stays small
    octic = parse_potential("+".join(f"x{i}^8" for i in range(1, 9)))
    group = grading_subgroup(octic)
    zero = PhaseVector.canonical([0] * 8)
    sector = sector_supertrace_series(octic, group, zero, Windows.make(0, 0, 2))
    oracle = untwisted_states(compute_charges(octic), group, 0, (0, 2))
    assert oracle == sector
    assert oracle
