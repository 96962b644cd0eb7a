import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbigenus import _engine, oracle, symmetry, verify
from orbigenus.cli import COMMANDS, build_parser, main
from orbigenus.oracle import StateCapError
from orbigenus.potential import parse_potential

QUINTIC = "x1^5+x2^5+x3^5+x4^5+x5^5"
SEPTIC = "+".join(f"x{i}^7" for i in range(1, 8))
OCTIC = "+".join(f"x{i}^8" for i in range(1, 9))
DATA = Path(__file__).parent / "data"
# the eight benchmark series commands, a narrow --ywin, two windows whose
# denominators enter D, and a negative --ywin; recorded from the code that
# reran the double sum on every widening step, except the narrow --ywin 2
# (that code cut it at the gap in the y-support at |y| = 3/2; it now matches
# --ywin 4) and the negative window (rejected as bad input, exit 2); the
# last two are "D" groups with inverse pairs that the genus sum does not fold,
# recorded while the fold was decided by counting two trial schedules
GENUS_STDOUT = json.loads((DATA / "genus_stdout.json").read_text())
# the benchmark's five check cases at seed 1, recorded before the exact and
# numeric paths shared one double-sum driver
CHECK_STDOUT = json.loads((DATA / "check_stdout.json").read_text())
# `groups` on the five reference models and six squares, recorded from the
# code that listed each group's elements to name and order it
GROUPS_STDOUT = json.loads((DATA / "groups_stdout.json").read_text())
# `info`, and `dual` with J and SL, on the five reference models, recorded
# before the variable names were derived from the column index
INFO_STDOUT = json.loads((DATA / "info_stdout.json").read_text())
DUAL_STDOUT = json.loads((DATA / "dual_stdout.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_quintic(capsys, tmp_path):
    path = tmp_path / "quintic.txt"
    path.write_text(QUINTIC)
    code, out, _ = run_cli(capsys, "info", "--potential", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 5
    assert data["k"] == 1
    assert data["cbar"] == "3"
    assert data["aut_order"] == 3125
    assert data["sl_order"] == 625
    assert data["J"] == "1/5,1/5,1/5,1/5,1/5"


def test_info_non_calabi_yau_chain(capsys):
    code, out, _ = run_cli(capsys, "info", "--potential", "x1^3*x2+x2^4")
    assert code == 0
    data = json.loads(out)
    assert data["calabi_yau"] is False
    assert data["k"] is None
    assert data["atoms"][0]["kind"] == "chain"


def test_malformed_potential_exit_code(capsys):
    code, _, err = run_cli(capsys, "info", "--potential", "x1^5+!x2")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize("monomials, message", [
    ("[[2.5, 0], [0, 2]]", "must be a list of rows of integers"),
    ("5", "must be a list of rows of integers"),
    ('[[2, "x"], [0, 2]]', "must be a list of rows of integers"),
    ("[[1e400, 0], [0, 2]]", "must be a list of rows of integers"),
    ("[[true, 0], [0, 2]]", "must be a list of rows of integers"),
    ("[[2, 0], [0]]", "need as many monomials as variables"),
])
def test_bad_json_potential_exit_code(capsys, monomials, message):
    code, out, err = run_cli(capsys, "info", "--potential", f'{{"monomials": {monomials}}}')
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_potential_with_superscript_exit_code(capsys):
    code, out, err = run_cli(capsys, "info", "--potential", "x1\u00b2+x2^2")
    assert code == 2
    assert out == ""
    assert err == "error: unexpected character '\u00b2' (at position 2)\n"


def test_deeply_nested_json_potential_exit_code(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"monomials": ' + "[" * 200_000)
    code, out, err = run_cli(capsys, "info", "--potential", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: bad JSON: nested too deeply (at position 0)\n"


@pytest.mark.parametrize("command", ["info", "groups", "dual", "genus", "check"])
def test_non_invertible_potential_exit_code(capsys, command):
    # x1*x2 + x2^4 is nonsingular but has the diagonal exponent 1
    code, out, err = run_cli(capsys, command, "--potential", "x1*x2+x2^4")
    assert code == 2
    assert out == ""
    assert "not an invertible potential" in err


def test_inadmissible_group_exit_code(capsys):
    code, _, err = run_cli(capsys, "genus", "--potential", "x1^3*x2+x2^4")
    assert code == 2
    assert "J_W" in err or "charge sum" in err


def test_genus_two_squares_constant(capsys):
    code, out, _ = run_cli(
        capsys, "genus", "--potential", "x1^2+x2^2", "--qmax", "2", "--ywin", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"q": "0", "y": "0", "re": "2"}]
    assert data["metadata"]["cbar"] == "0"


def test_genus_deterministic_output(capsys):
    args = ["genus", "--potential", "x1^3+x2^3+x3^3", "--group", "SL", "--qmax", "1"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_groups_cubic(capsys):
    code, out, _ = run_cli(capsys, "groups", "--potential", "x1^3+x2^3+x3^3")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert sorted(g["order"] for g in data["groups"]) == [3, 9]


def test_dual_quintic(capsys):
    code, out, _ = run_cli(capsys, "dual", "--potential", QUINTIC, "--group", "J")
    assert code == 0
    data = json.loads(out)
    assert data["dual_group"]["order"] == 625


def test_check_mirror_cubic(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--potential", "x1^3+x2^3+x3^3", "--set", "mirror", "--qmax", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert data["checks"][0]["max_residual"] == "exact"


def test_check_jacobi_two_squares(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--potential", "x1^2+x2^2", "--set", "jacobi",
        "--samples", "5", "--tol", "1e-6",
    )
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_check_oracle_quintic(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--potential", QUINTIC, "--set", "oracle", "--qmax", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert all(v["status"] == "pass" for v in data["checks"])


def test_check_unknown_set(capsys):
    code, _, err = run_cli(capsys, "check", "--potential", QUINTIC, "--set", "nope")
    assert code == 2
    assert "unknown check" in err


def test_dual_rejects_non_symmetry_group(capsys):
    code, _, err = run_cli(
        capsys, "dual", "--potential", "x1^2+x2^2", "--group", "1/3,0"
    )
    assert code == 2
    assert "do not preserve" in err


def test_out_file_written(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "info", "--potential", "x1^2+x2^2", "--out", str(out_path)
    )
    assert code == 0
    assert json.loads(out_path.read_text()) == json.loads(out)


def not_utf8_file(tmp_path):
    path = tmp_path / "potential.txt"
    path.write_bytes(b"x1^2+\xff")
    return ["--potential", str(path)]


@pytest.mark.parametrize("argv, message", [
    (lambda tmp_path: ["--potential", str(tmp_path)], "cannot read --potential"),
    (not_utf8_file, "cannot read --potential"),
    (lambda tmp_path: ["--potential", "x1^2+x2^2", "--out", str(tmp_path / "missing" / "x.json")],
     "cannot write --out"),
], ids=["potential is a directory", "potential not utf-8", "out in a missing directory"])
def test_file_error_is_bad_input(capsys, tmp_path, argv, message):
    code, out, err = run_cli(capsys, "info", *argv(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["genus", "check"])
def test_unwritable_out_fails_before_any_work(monkeypatch, capsys, tmp_path, command):
    """An --out in a missing directory or on a directory exits 2 without
    running the engine and leaves no new file; an existing file is kept as
    it was until the result is written."""
    def engine_called(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(_engine, "double_sum", engine_called)
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run_cli(capsys, command, "--potential", QUINTIC, "--qmax", "16",
                                 "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --out")
    assert list(tmp_path.iterdir()) == []

    existing = tmp_path / "old.json"
    existing.write_text("old")
    monkeypatch.setattr(_engine, "double_sum", lambda *args: 1 / 0)
    code, _, err = run_cli(capsys, "genus", "--potential", QUINTIC, "--out", str(existing))
    assert code == 1 and "computation failed" in err
    assert existing.read_text() == "old"


def test_custom_group_generators(capsys):
    code, out, _ = run_cli(
        capsys, "genus", "--potential", "x1^2+x2^2", "--group", "1/2,1/2", "--qmax", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["metadata"]["group"] == ["1/2,1/2"]


def test_info_octic_fermat(capsys):
    # |Aut| = 8^8 is far above the listing cap; no element is listed
    code, out, _ = run_cli(capsys, "info", "--potential", OCTIC)
    assert code == 0
    data = json.loads(out)
    assert data["aut_order"] == 8**8
    assert data["sl_order"] == 8**7
    assert data["aut_structure"] == [8] * 8


def test_genus_octic_fermat_j(capsys):
    code, out, _ = run_cli(capsys, "genus", "--potential", OCTIC, "--qmax", "1")
    assert code == 0
    terms = {(t["q"], Fraction(t["y"])): Fraction(t["re"]) for t in json.loads(out)["terms"]}
    assert terms
    assert all(c.denominator == 1 for c in terms.values())
    assert all(terms.get((q, -y)) == c for (q, y), c in terms.items())


def test_genus_septic_fermat_j_output(capsys):
    # stdout of the list-based group code (|Aut| = 7^7 listed), byte for byte
    code, out, _ = run_cli(capsys, "genus", "--potential", SEPTIC, "--qmax", "1")
    assert code == 0
    assert out == (DATA / "septic_J_q1.json").read_text()


def test_genus_dual_k3_chain_mode_t_output(capsys):
    """Mode T with moduli (3, 12, 4, 4) and N = 12, so most right twists are
    not coprime to their modulus; stdout recorded from the code that built
    every factor at its own right twist."""
    code, out, _ = run_cli(
        capsys, "genus", "--potential", "x1^3+x1*x2^4+x3^4+x4^4",
        "--group", "0,0,1/4,3/4;0,1/4,0,3/4;1/3,1/6,0,1/2", "--qmax", "2",
    )
    assert code == 0
    assert out == (DATA / "k3chain_dual_T_q2.json").read_text()


def test_genus_loop_k3_sl_output(capsys):
    """The case whose contraction merges the most prefixes (|SL| = 32, mode
    D); stdout recorded from the code that multiplied out every pair."""
    code, out, _ = run_cli(capsys, "genus", "--potential", "x1^3*x2+x2^3*x1+x3^4+x4^4",
                           "--group", "SL", "--qmax", "2")
    assert code == 0
    assert out == (DATA / "loopk3_SL_q2.json").read_text()


def test_check_oracle_table_cap_exit_code(capsys, monkeypatch):
    """The table cap bounds the states the zero-level oracle holds, within
    its transition budget."""
    monkeypatch.setattr(oracle, "TABLE_CAP", 100)
    code, out, err = run_cli(capsys, "check", "--potential", QUINTIC, "--group", "SL",
                             "--set", "oracle")
    assert code == 1
    assert out == ""
    assert err.startswith("computation failed:") and "100 states held" in err


def test_check_oracle_state_cap_exit_code(capsys, monkeypatch):
    def capped(*args, **kwargs):
        raise StateCapError(10)

    monkeypatch.setattr(verify, "untwisted_states", capped)
    code, out, err = run_cli(capsys, "check", "--potential", QUINTIC, "--set", "oracle")
    assert code == 1
    assert out == ""
    assert err == "computation failed: state enumeration exceeded the cap of 10 work units\n"


@pytest.mark.parametrize("case", GENUS_STDOUT, ids=lambda c: " ".join(c["argv"][2:]))
def test_genus_stdout_pinned(capsys, case):
    code, out, err = run_cli(capsys, *case["argv"])
    assert code == case["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]
    assert err == case["stderr"]


@pytest.mark.parametrize("case", GROUPS_STDOUT, ids=lambda c: c["potential"])
def test_groups_stdout_pinned(capsys, case):
    code, out, _ = run_cli(capsys, "groups", "--potential", case["potential"])
    assert code == case["exit"]
    assert out == case["stdout"]


@pytest.mark.parametrize("case", INFO_STDOUT + DUAL_STDOUT, ids=lambda c: " ".join(c["argv"]))
def test_info_and_dual_stdout_pinned(capsys, case):
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]


def test_one_aut_group_per_potential(capsys, monkeypatch):
    """Aut(W) is built once per potential: in `dual --group SL`, SL, the
    subgroup test and the dual group all read the one group."""
    potential = parse_potential(QUINTIC)
    assert symmetry.aut_group(potential) is symmetry.aut_group(potential)
    built = []
    generate = symmetry.SymmetryGroup.generate.__func__

    def spy(cls, generators, dimension):
        built.append(generate(cls, generators, dimension))
        return built[-1]

    monkeypatch.setattr(symmetry.SymmetryGroup, "generate", classmethod(spy))
    symmetry.aut_group.cache_clear()
    code, out, _ = run_cli(capsys, "dual", "--potential", QUINTIC, "--group", "SL")
    assert code == 0 and json.loads(out)["dual_group"]["order"] == 5
    aut = symmetry.aut_group(potential)
    assert aut.order == 3125
    assert sum(group == aut for group in built) == 1


@pytest.mark.parametrize("argv", [
    ("genus", "--qmax", "1", "--ywin", "0"),
    ("genus", "--qmax", "-1"),
    ("check", "--qmax", "-1", "--set", "mirror"),
], ids=" ".join)
def test_bad_window_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--potential", QUINTIC)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --")


@pytest.mark.parametrize("argv, message", [
    (("--set", ","), "no check selected"),
    (("--samples", "0"), "--samples must be at least 1"),
    (("--samples=-3",), "--samples must be at least 1"),
    (("--tol=-1",), "--tol must be a finite positive number"),
    (("--tol", "nan"), "--tol must be a finite positive number"),
    (("--tol", "inf"), "--tol must be a finite positive number"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_vacuous_or_impossible_check_exit_code(capsys, argv, message):
    """A check run that could only pass vacuously (nothing selected, no
    sample drawn) or fail by construction (no residual below the tolerance)
    is bad input."""
    code, out, err = run_cli(capsys, "check", "--potential", "x1^3+x2^3+x3^3", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


def assert_matches(got, want, where="stdout"):
    """Equal JSON, floats within 1e-12 relative to magnitudes of at least 1:
    residuals are rounding noise that differs between math libraries."""
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12 * max(1.0, abs(want)), where
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


@pytest.mark.parametrize("case", CHECK_STDOUT, ids=lambda c: " ".join(c["argv"][2:]))
def test_check_stdout_pinned(capsys, case):
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == case["exit"]
    assert_matches(json.loads(out), case["stdout"])


@pytest.mark.parametrize("argv", [
    ("info", "--samples", "-4"),
    ("groups", "--group", "SL"),
    ("dual", "--qmax", "-3"),
    ("genus", "--seed", "1"),
    ("genus", "--set", "holo"),
    ("check", "--ywin", "4"),
    ("check", "--ywin=-1/2"),
], ids=" ".join)
def test_option_of_another_subcommand_is_bad_input(capsys, argv):
    """Each subcommand accepts only the options it reads."""
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--potential", "x1^2+x2^2"])
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"usage: orbigenus {argv[0]} ")
    assert "unrecognized arguments: " + " ".join(argv[1:]) in captured.err


def _outcome(capsys, call):
    """Exit status, stdout and stderr of call(), which may exit through SystemExit."""
    try:
        code = call()
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _tree_parse(argv):
    """Parse argv with the whole build_parser tree: a named command's subparser, else the tree."""
    tree = build_parser()
    if argv and argv[0] in COMMANDS:
        (commands,) = [a for a in tree._actions if isinstance(a, argparse._SubParsersAction)]
        return commands.choices[argv[0]].parse_args(argv[1:])
    return tree.parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["-h"],
    *([command, "-h"] for command in COMMANDS),
    [],
    ["nosuch", "--potential", "x1^2"],
    *([command] for command in COMMANDS),
    ["info", "--group", "J", "--potential", "x1^2+x2^2"],
    ["groups", "--qmax", "1", "--potential", "x1^2+x2^2"],
    ["dual", "--qmax", "-3", "--potential", "x1^2+x2^2"],
    ["genus", "--seed", "1", "--potential", "x1^2+x2^2"],
    ["check", "--ywin", "4", "--potential", "x1^2+x2^2"],
    ["check", "--samples", "x", "--potential", "x1^2+x2^2"],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_parse_exits_as_the_whole_tree(capsys, argv):
    """Help, usage errors and their exit status match build_parser's tree in this Python."""
    expected = _outcome(capsys, lambda: _tree_parse(argv))
    assert expected[0] in (0, 2)
    assert _outcome(capsys, lambda: main(argv)) == expected


@pytest.mark.parametrize("argv", [
    ["check", "--samples", "x", "--potential", "x1^2+x2^2"],
    ["genus", "-h"],
], ids=" ".join)
def test_main_reads_sys_argv(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["orbigenus", *argv])
    assert _outcome(capsys, main) == _outcome(capsys, lambda: _tree_parse(argv))


def test_abbreviated_options_parse_as_the_whole_tree(monkeypatch):
    argv = ["genus", "--pot", "x1^2+x2^2", "--qm", "1"]
    seen = []
    help_line, _, options = COMMANDS["genus"]
    monkeypatch.setitem(COMMANDS, "genus", (help_line, lambda args: seen.append(args) or 0, options))
    assert main(argv) == 0
    assert seen == [_tree_parse(argv)]
    assert (seen[0].potential, seen[0].qmax) == ("x1^2+x2^2", "1")


def test_a_named_command_builds_one_parser(capsys, monkeypatch):
    """Only the parser of the command that runs is built, not the whole tree."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for command in COMMANDS:
        built.clear()
        extra = ["--set", "holo"] if command == "check" else []
        assert main([command, "--potential", "x1^2+x2^2", *extra]) == 0
        assert built == [f"orbigenus {command}"]
    capsys.readouterr()
