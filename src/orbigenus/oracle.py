"""Independent counting checks for the supertrace formulas.

Nothing here touches the series engine: this module imports only ``lcm`` and
the charges, and its counts are the ground truth the engine's product
formulas are tested against.  Both counts build the supertrace from the mode
table (four families per variable, with their charge and level weights),
accumulating (-1)^fermions y^(total charge) q^(total level), and both
aggregate states instead of listing them: ``free_state_series`` adds one
mode at a time to a table of signed counts keyed by (scaled charge, level);
``zero_level_group_average`` adds one variable at a time to a table keyed by
(scaled charge, residues of the pairing with the group's Hermite rows).  Of a
group only its exponent and Hermite basis are read.  Both return the
rational-term dict ``{(e_q, e_y): Fraction}`` that the engine's series
functions return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd
from typing import TYPE_CHECKING

from .exactmath import lcm
from .potential import Potential, charge_tuple, compute_charges

if TYPE_CHECKING:
    from .symmetry import SymmetryGroup

# Transitions either count may make before it raises ``StateCapError``.
STATE_CAP = 10**7
# States the table of ``zero_level_group_average`` may hold: about 0.3 kB
# each, so the table stays near 100 MB.  The reference models hold at most
# 1472 (the quintic with SL), the septic Fermat with SL 185944.
TABLE_CAP = 3 * 10**5


class StateCapError(ArithmeticError):
    """The state enumeration outgrew its cap; a computation limit, exit 1."""

    def __init__(self, cap: int, unit: str = "work units"):
        super().__init__(f"state enumeration exceeded the cap of {cap} {unit}")
        self.cap = cap


@dataclass(frozen=True)
class ModeSpec:
    """One oscillator mode family member.

    family "b" and "a" are bosonic (arbitrary occupancy), "psi" and "phi"
    fermionic (occupancy 0 or 1).  Charge and level follow the fixed table:
    b -> (q_i, k >= 0), a -> (-q_i, k >= 1), phi -> (q_i - 1, k >= 1),
    psi -> (1 - q_i, k >= 0).
    """

    family: str
    variable: int
    level: int
    bosonic: bool
    charge: Fraction  # y-weight
    weight: int  # q-weight


def modes_for_charges(qs: tuple[Fraction, ...], qmax: int) -> list[ModeSpec]:
    modes = []
    for i, q in enumerate(qs):
        for k in range(0, qmax + 1):
            modes.append(ModeSpec("b", i, k, True, q, k))
        for k in range(1, qmax + 1):
            modes.append(ModeSpec("a", i, k, True, -q, k))
        for k in range(1, qmax + 1):
            modes.append(ModeSpec("phi", i, k, False, q - 1, k))
        for k in range(0, qmax + 1):
            modes.append(ModeSpec("psi", i, k, False, 1 - q, k))
    return modes


def _ywindow(ywindow) -> tuple[Fraction, Fraction]:
    ymin, ymax = Fraction(ywindow[0]), Fraction(ywindow[1])
    if ymin > ymax:
        raise ValueError("empty y-window")
    return ymin, ymax


def free_state_series(charges, qmax: int, ywindow) -> dict[tuple[Fraction, Fraction], Fraction]:
    """Supertrace of the free state space by direct mode enumeration.

    Equals the untwisted cone product formula coefficientwise on the shared
    window.  ``ywindow`` is (ymin, ymax); levels are truncated at ``qmax``.
    """
    qs = charge_tuple(charges)
    ymin, ymax = _ywindow(ywindow)
    d = lcm(*(q.denominator for q in qs)) if qs else 1
    # accumulate over (scaled charge, level).  Every partial sum starts at
    # y = 0; the negative modes cost level, so none falls more than pad below
    # 0 or rises more than pad above its final charge
    pad = len(qs) * qmax * d
    lo = min(int(ymin * d), 0) - pad
    hi = int(ymax * d) + pad
    states: dict[tuple[int, int], int] = {(0, 0): 1}
    work = 0
    for mode in modes_for_charges(qs, qmax):
        step_y = int(mode.charge * d)
        step_q = mode.weight
        out: dict[tuple[int, int], int] = {}
        for (ky, kq), count in states.items():
            occ = 0
            y, q = ky, kq
            while True:
                cur = out.get((y, q))
                signed = count if (mode.bosonic or occ % 2 == 0) else -count
                out[(y, q)] = signed if cur is None else cur + signed
                work += 1
                if work > STATE_CAP:
                    raise StateCapError(STATE_CAP)
                occ += 1
                if not mode.bosonic and occ > 1:
                    break
                y += step_y
                q += step_q
                if q > qmax or y > hi or y < lo:
                    break
                if step_q == 0 and step_y == 0:
                    break
        states = {k: v for k, v in out.items() if v}
    return {
        (Fraction(kq), Fraction(ky, d)): Fraction(count)
        for (ky, kq), count in states.items()
        if ymin * d <= ky <= ymax * d
    }


def _pairing_rows(group: SymmetryGroup) -> list[tuple[tuple[int, ...], int]]:
    """The group's nontrivial Hermite rows as (coefficients, modulus) pairs.

    With m the exponent and h a Hermite row, v pairs integrally with h / m iff
    v.(h / g) = 0 mod m / g, g = gcd(m, h).  Rows that are 0 mod m (g = m)
    pair integrally with every v and are dropped.
    """
    m = group.exponent
    out = []
    for row in group.hnf:
        g = gcd(m, *row)
        if g != m:
            out.append((tuple(x // g for x in row), m // g))
    return out


def zero_level_group_average(
    potential: Potential, group: SymmetryGroup, ywindow
) -> dict[tuple[Fraction, Fraction], Fraction]:
    """Level-zero slice of the group-averaged supertrace, by lattice counting.

    Zero modes are the bosonic raising modes at level 0 (one per variable,
    any occupancy c_i) and the fermionic raising modes at level 0 (a subset
    S); a state survives averaging iff its lattice vector v = c - 1_S pairs
    integrally with every group element.  The result is the q^0 slice of the
    untwisted group-averaged formula, exactly.

    The states are aggregated variable by variable: a partial state is its
    scaled y-charge ky and the residues of v.h modulo each nontrivial Hermite
    row h of the group (see ``_pairing_rows``), carrying the signed number of
    partial occupancy vectors that reach it.  Every mode has positive charge,
    so a state past floor(ymax * d) is dropped at once; at the end only the
    states with every residue 0 and ky >= ymin * d count.  ``STATE_CAP``
    bounds the number of transitions, one per (state, occupancy of the next
    variable), and ``TABLE_CAP`` the number of states one table holds.
    """
    charges = compute_charges(potential)
    qs = tuple(charges.q)
    ymin, ymax = _ywindow(ywindow)
    d = lcm(*(q.denominator for q in qs)) if qs else 1
    top = floor(ymax * d)
    rows = _pairing_rows(group)
    moduli = tuple(mod for _, mod in rows)
    states: dict[tuple[int, tuple[int, ...]], int] = {(0, (0,) * len(rows)): 1}
    work = 0
    for i, q in enumerate(qs):
        step = int(q * d)
        psi_step = int((1 - q) * d)
        column = tuple(coeffs[i] for coeffs, _ in rows)
        out: dict[tuple[int, tuple[int, ...]], int] = {}
        for (ky, residues), count in states.items():
            for c, base in enumerate(range(ky, top + 1, step)):
                boson = tuple((r + c * x) % mod for r, x, mod in zip(residues, column, moduli))
                key = (base, boson)
                out[key] = out.get(key, 0) + count
                work += 1
                if base + psi_step <= top:
                    key = (base + psi_step,
                           tuple((r - x) % mod for r, x, mod in zip(boson, column, moduli)))
                    out[key] = out.get(key, 0) - count
                    work += 1
                if work > STATE_CAP:
                    raise StateCapError(STATE_CAP)
                if len(out) > TABLE_CAP:
                    raise StateCapError(TABLE_CAP, "states held")
        states = {key: v for key, v in out.items() if v}
    zero = (0,) * len(rows)
    return {
        (Fraction(0), Fraction(ky, d)): Fraction(v)
        for (ky, residues), v in states.items()
        if residues == zero and ky >= ymin * d
    }
