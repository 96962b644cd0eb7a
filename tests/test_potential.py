from fractions import Fraction

import pytest

from orbigenus.potential import (
    DegenerateChargesError,
    InvalidPotentialError,
    NotInvertibleError,
    Potential,
    PotentialSyntaxError,
    compute_charges,
    decompose_atoms,
    make_potential,
    parse_potential,
    transpose_potential,
)

F = Fraction

QUINTIC = "x1^5+x2^5+x3^5+x4^5+x5^5"
LOOP22 = "x1^2*x2+x2^2*x1"
CHAIN34 = "x1^3*x2+x2^4"
K3_CHAIN = "x1^3*x2+x2^4+x3^4+x4^4"


def test_parse_quintic():
    p = parse_potential(QUINTIC)
    assert p.dimension == 5
    assert p.matrix == tuple(tuple(5 if i == j else 0 for j in range(5)) for i in range(5))


def test_parse_loop():
    assert parse_potential(LOOP22).matrix == ((2, 1), (1, 2))


def test_parse_chain():
    assert parse_potential(CHAIN34).matrix == ((3, 1), (0, 4))


def test_parse_json_form():
    p = parse_potential('{"monomials": [[3, 1], [0, 4]]}')
    assert p.matrix == ((3, 1), (0, 4))


def test_parse_whitespace_and_repeats():
    p = parse_potential(" x1 ^ 2 * x2 + x2^2 * x1 ")
    assert p.matrix == ((2, 1), (1, 2))
    # repeated factors accumulate
    assert parse_potential("x1*x1*x1+x1*x2^2").matrix == ((3, 0), (1, 2))


def test_parse_syntax_error_position():
    with pytest.raises(PotentialSyntaxError) as err:
        parse_potential("x1^5+y^5")
    assert err.value.position == 5


@pytest.mark.parametrize("text, position", [
    ("x1\u00b2+x2^2", 2),  # superscript two
    ("x\u00b9+x2^2", 1),  # superscript one as the index
    ("x1^\u0663+x2^2", 3),  # Arabic-Indic three
])
def test_parse_reads_ascii_digits_only(text, position):
    with pytest.raises(PotentialSyntaxError) as err:
        parse_potential(text)
    assert err.value.position == position


def test_parse_deeply_nested_json():
    with pytest.raises(PotentialSyntaxError, match="nested too deeply"):
        parse_potential('{"monomials": ' + "[" * 200_000)


def test_parse_missing_variable():
    with pytest.raises(InvalidPotentialError):
        parse_potential("x1^2+x3^2")


def test_parse_singular():
    with pytest.raises(InvalidPotentialError):
        parse_potential("x1*x2+x1*x2")


def test_canonical_text_round_trip():
    for text in (QUINTIC, LOOP22, CHAIN34, K3_CHAIN):
        p = parse_potential(text)
        assert parse_potential(p.text).matrix == p.matrix


def test_decompose_quintic():
    atoms = decompose_atoms(parse_potential(QUINTIC)).atoms
    assert len(atoms) == 5
    assert all(a.kind == "fermat" and a.exponents == (5,) for a in atoms)


def test_decompose_loop():
    (atom,) = decompose_atoms(parse_potential(LOOP22)).atoms
    assert atom.kind == "loop"
    assert atom.variables == (0, 1)
    assert atom.exponents == (2, 2)


def test_decompose_chain():
    (atom,) = decompose_atoms(parse_potential(CHAIN34)).atoms
    assert atom.kind == "chain"
    assert atom.variables == (0, 1)
    assert atom.exponents == (3, 4)


def test_decompose_mixed():
    atoms = decompose_atoms(parse_potential(K3_CHAIN)).atoms
    kinds = [a.kind for a in atoms]
    assert kinds == ["chain", "fermat", "fermat"]


def test_decompose_longer_loop_orientation():
    p = parse_potential("x2^3*x3+x3^3*x1+x1^3*x2")
    (atom,) = decompose_atoms(p).atoms
    assert atom.kind == "loop"
    assert atom.variables[0] == 0  # rotated to start at the smallest index
    assert atom.exponents == (3, 3, 3)


def test_decompose_rejects_unit_diagonal():
    # x1*x2 + x2^2 has determinant 2 but a diagonal exponent 1
    with pytest.raises(NotInvertibleError) as err:
        make_potential([[1, 1], [0, 2]])
    assert err.value.rows


def test_decompose_rejects_three_factor_monomial():
    with pytest.raises(NotInvertibleError):
        make_potential([[2, 1, 1], [0, 3, 0], [0, 0, 3]])


def test_decompose_rejects_double_coupling():
    # both monomials couple into x3
    with pytest.raises(NotInvertibleError):
        make_potential([[2, 0, 1], [0, 2, 1], [0, 0, 2]])


def test_quadratic_fermat_flagged():
    dec = decompose_atoms(parse_potential("x1^2+x2^2"))
    assert dec.quadratic_fermat_variables() == (0, 1)
    assert decompose_atoms(parse_potential(QUINTIC)).quadratic_fermat_variables() == ()


def test_transpose_examples():
    assert transpose_potential(parse_potential(QUINTIC)).matrix == parse_potential(QUINTIC).matrix
    assert transpose_potential(parse_potential(CHAIN34)).matrix == ((3, 0), (1, 4))
    assert transpose_potential(parse_potential(LOOP22)).matrix == ((2, 1), (1, 2))


def test_transpose_involution_and_kind_preserved():
    for text in (QUINTIC, LOOP22, CHAIN34, K3_CHAIN, "x1^3*x2+x2^3*x1+x3^4+x4^4"):
        p = parse_potential(text)
        pd = transpose_potential(p)
        assert transpose_potential(pd).matrix == p.matrix
        kinds = sorted(a.kind for a in decompose_atoms(p).atoms)
        dual_kinds = sorted(a.kind for a in decompose_atoms(pd).atoms)
        assert kinds == dual_kinds


def test_charges_quintic():
    ch = compute_charges(parse_potential(QUINTIC))
    assert ch.q == (F(1, 5),) * 5
    assert ch.cy_degree == 1
    assert ch.central_charge == 3


def test_charges_chain_not_cy():
    ch = compute_charges(parse_potential(CHAIN34))
    assert ch.q == (F(1, 4), F(1, 4))
    assert ch.cy_degree is None
    assert ch.central_charge == 1


def test_charges_k3_chain():
    ch = compute_charges(parse_potential(K3_CHAIN))
    assert ch.q == (F(1, 4),) * 4
    assert ch.cy_degree == 1
    assert ch.central_charge == 2


def test_charges_degenerate():
    # x1 + x2^2 is not invertible, so make_potential refuses it; built
    # directly, it reaches the charge guard
    bad = Potential(((1, 0), (0, 2)))
    with pytest.raises(DegenerateChargesError):
        compute_charges(bad)
    # the memo caches results only: the raise repeats
    with pytest.raises(DegenerateChargesError):
        compute_charges(bad)


def test_charges_of_potential_from_matrix():
    p = make_potential([[2, 0], [0, 3]])
    assert compute_charges(p).q == (F(1, 2), F(1, 3))


def test_dual_charges_solve_transposed_system():
    p = parse_potential(K3_CHAIN)
    qd = compute_charges(transpose_potential(p)).q
    assert qd == (F(1, 3), F(1, 6), F(1, 4), F(1, 4))


def test_central_charge_parity_matches_dimension():
    # whenever the CY condition holds, c-hat and d have the same parity
    for text in (QUINTIC, "x1^2+x2^2", "x1^3+x2^3+x3^3", K3_CHAIN):
        p = parse_potential(text)
        ch = compute_charges(p)
        assert ch.cy_degree is not None
        assert (ch.central_charge - p.dimension) % 2 == 0
