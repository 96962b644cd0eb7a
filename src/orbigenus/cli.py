"""Batch command-line interface with stable JSON output.

Exit status: 0 all checks passed / command succeeded, 1 a check failed or the
computation could not be completed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .exactmath import mat_det
from .genus import ell_genus_series
from .potential import (
    InvalidPotentialError,
    Potential,
    PotentialSyntaxError,
    compute_charges,
    decompose_atoms,
    parse_potential,
    transpose_potential,
)
from .symmetry import (
    AdmissibilityError,
    SymmetryGroup,
    admissible_subgroups,
    aut_group,
    dual_group,
    grading_element,
    grading_subgroup,
    sl_subgroup,
)
from .verify import (
    check_holomorphy,
    check_jacobi_transformations,
    check_mirror,
    check_oracle,
    check_spectral_flow,
    check_star_substitution,
)

CHECK_NAMES = ("holo", "jacobi", "mirror", "star", "flow", "oracle")
_SAMPLED_CHECKS = {
    "jacobi": check_jacobi_transformations,
    "star": check_star_substitution,
    "flow": check_spectral_flow,
}


class InputError(ValueError):
    pass


def _load_potential(source: str) -> Potential:
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as err:
            raise InputError(f"cannot read --potential {source}: {err}") from err
    return parse_potential(source)


def _load_group(source: str | None, potential: Potential) -> SymmetryGroup:
    if source is None or source.strip() in ("J", "j", ""):
        return grading_subgroup(potential)
    if source.strip() in ("SL", "sl"):
        return sl_subgroup(potential)
    generators = [part for part in source.split(";") if part.strip()]
    try:
        group = SymmetryGroup.from_generator_strings(generators, potential.dimension)
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"bad group generators: {err}") from err
    return group


def _group_json(group: SymmetryGroup) -> dict:
    return {
        "order": group.order,
        "structure": list(group.structure),
        "generators": group.generator_strings(),
    }


def _info_payload(potential: Potential) -> dict:
    atoms = decompose_atoms(potential)
    charges = compute_charges(potential)
    aut = aut_group(potential)
    sl = sl_subgroup(potential)
    payload = {
        "d": potential.dimension,
        "potential": potential.text,
        "matrix": [list(row) for row in potential.matrix],
        "atoms": [
            {"kind": a.kind,
             "variables": [potential.names[v] for v in a.variables],
             "exponents": list(a.exponents)}
            for a in atoms.atoms
        ],
        "charges": [str(q) for q in charges.q],
        "k": charges.cy_degree,
        "cbar": str(charges.central_charge),
        "calabi_yau": charges.cy_degree is not None,
        "det": mat_det(potential.matrix),
        "aut_order": aut.order,
        "aut_structure": list(aut.structure),
        "J": grading_element(potential).as_string(),
        "sl_order": sl.order,
        "quadratic_fermat_variables": [
            potential.names[v] for v in atoms.quadratic_fermat_variables()
        ],
    }
    return payload


def _check_out(out_path: str | None) -> None:
    """Refuse an --out path that cannot be written before any work is done.

    Nothing is created or changed: an existing file is opened for appending
    and closed, a new one needs a writable directory.  ``_emit`` still
    reports a write that fails later.
    """
    if not out_path:
        return
    if os.path.exists(out_path):
        try:
            with open(out_path, "a", encoding="utf-8"):
                pass
        except OSError as err:
            raise InputError(f"cannot write --out {out_path}: {err}") from err
        return
    parent = os.path.dirname(os.path.abspath(out_path))
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
        raise InputError(f"cannot write --out {out_path}: {parent} is not a writable directory")


def _emit(payload, out_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            raise InputError(f"cannot write --out {out_path}: {err}") from err
    sys.stdout.write(text)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"bad rational {text!r}: {err}") from err


def _qmax(args, default_qmax: Fraction | None) -> Fraction | None:
    """--qmax (at least 0), or default_qmax where unset."""
    qmax = _fraction(args.qmax) if args.qmax else default_qmax
    if qmax is not None and qmax < 0:
        raise InputError(f"--qmax must be at least 0, got {args.qmax}")
    return qmax


def _cmd_info(args) -> int:
    potential = _load_potential(args.potential)
    _emit(_info_payload(potential), args.out)
    return 0


def _cmd_groups(args) -> int:
    potential = _load_potential(args.potential)
    subgroups = admissible_subgroups(potential)
    _emit({"count": len(subgroups), "groups": [_group_json(g) for g in subgroups]}, args.out)
    return 0


def _cmd_dual(args) -> int:
    potential = _load_potential(args.potential)
    group = _load_group(args.group, potential)
    if not group.is_subgroup_of(aut_group(potential)):
        raise InputError("group generators do not preserve the potential")
    dual = dual_group(potential, group)
    _emit(
        {
            "group": _group_json(group),
            "dual_potential": transpose_potential(potential).text,
            "dual_group": _group_json(dual),
        },
        args.out,
    )
    return 0


def _cmd_genus(args) -> int:
    potential = _load_potential(args.potential)
    group = _load_group(args.group, potential)
    qmax = _qmax(args, None)
    ycap = _fraction(args.ywin) if args.ywin else None
    if ycap is not None and ycap <= 0:
        raise InputError(f"--ywin must be positive, got {args.ywin}")
    series = ell_genus_series(potential, group, qmax=qmax, ycap=ycap)
    _emit(series.to_json_dict(), args.out)
    return 0


def _cmd_check(args) -> int:
    potential = _load_potential(args.potential)
    group = _load_group(args.group, potential)
    selected = [name.strip() for name in (args.set or ",".join(CHECK_NAMES)).split(",") if name.strip()]
    unknown = [name for name in selected if name not in CHECK_NAMES]
    if unknown:
        raise InputError(f"unknown check(s): {', '.join(unknown)}; valid: {', '.join(CHECK_NAMES)}")
    if not selected:
        raise InputError(f"no check selected; valid: {', '.join(CHECK_NAMES)}")
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        raise InputError(f"--tol must be a finite positive number, got {args.tol}")
    qmax = _qmax(args, Fraction(1))
    verdicts = []
    for name in selected:
        if name == "holo":
            verdicts.append(check_holomorphy(potential, group))
        elif name == "mirror":
            verdicts.append(check_mirror(potential, group, qmax=qmax))
        elif name == "oracle":
            verdicts.extend(check_oracle(potential, group, qmax))
        else:
            verdicts.append(_SAMPLED_CHECKS[name](
                potential, group, samples=args.samples, tol=args.tol, seed=args.seed
            ))
    all_pass = all(v.status == "pass" for v in verdicts)
    _emit({"checks": [v.to_json_dict() for v in verdicts], "all_pass": all_pass}, args.out)
    return 0 if all_pass else 1


_POTENTIAL = ("--potential", dict(required=True, help="potential file, inline text, or inline JSON"))
_OUT = ("--out", dict(help="also write the JSON to this path"))
_GROUP = ("--group", dict(help='generators "a/b,...;c/d,..." or the aliases J / SL (default J)'))
_QMAX = ("--qmax", dict(help="q-order truncation (rational)"))

# subcommand: its help line, its handler and the options it reads, in usage order
COMMANDS = {
    "info": ("potential data and symmetry overview", _cmd_info, (_POTENTIAL, _OUT)),
    "groups": ("enumerate admissible groups", _cmd_groups, (_POTENTIAL, _OUT)),
    "dual": ("dual potential and dual group", _cmd_dual, (_POTENTIAL, _OUT, _GROUP)),
    "genus": ("exact genus expansion as JSON", _cmd_genus, (
        _POTENTIAL, _OUT, _GROUP, _QMAX,
        ("--ywin", dict(help="reported y-window half width (rational)")))),
    "check": ("run verification checks", _cmd_check, (
        _POTENTIAL, _OUT, _GROUP, _QMAX,
        ("--tol", dict(type=float, help="numeric tolerance")),
        ("--samples", dict(type=int, default=5, help="sample count for numeric checks")),
        ("--seed", dict(type=int, default=0, help="sample RNG seed")),
        ("--set", dict(help=f"comma-separated subset of {{{','.join(CHECK_NAMES)}}}")))),
}


def _add_options(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    for flag, kwargs in COMMANDS[command][2]:
        parser.add_argument(flag, **kwargs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """Every ``COMMANDS`` entry under one parser, the only one that lists them all.

    ``main`` builds it only for ``-h``, no arguments or an unknown command.
    """
    parser = argparse.ArgumentParser(
        prog="orbigenus", description="Orbifold elliptic genus of invertible polynomial potentials")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, _, _) in COMMANDS.items():
        _add_options(sub.add_parser(command, help=help_line), command)
    return parser


def main(argv=None) -> int:
    """Run one subcommand, parsed by its own parser alone, built from ``COMMANDS``.

    Arguments that do not start with a command, such as ``-h``, build the whole tree.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        command = argv[0]
        parser = _add_options(argparse.ArgumentParser(prog=f"orbigenus {command}"), command)
        args = parser.parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
        command = args.command
    try:
        _check_out(args.out)
        return COMMANDS[command][1](args)
    except (PotentialSyntaxError, InvalidPotentialError, AdmissibilityError, InputError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except (ArithmeticError, ValueError) as err:
        sys.stderr.write(f"computation failed: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
