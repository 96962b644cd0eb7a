"""Independent counting check for the supertrace formulas.

Nothing here touches the series engine: this module imports only ``lcm`` and
the charges, and its count is the ground truth the engine's product formulas
are tested against.  ``untwisted_states`` builds the supertrace of the
untwisted sector, projected onto the invariants of a group, from the mode
table (four families per variable, with their charge and level weights),
accumulating (-1)^fermions y^(total charge) q^(total level).  It aggregates
states instead of listing them: it adds one mode at a time to a table of
signed counts keyed by (scaled charge, level, residues of the pairing with
the group's Hermite rows).  Of a group only its exponent and Hermite basis
are read.  It returns the rational-term dict ``{(e_q, e_y): Fraction}`` that
the engine's series functions return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING

from .exactmath import lcm
from .potential import charge_tuple

if TYPE_CHECKING:
    from .symmetry import SymmetryGroup

# Transitions the count may make before it raises ``StateCapError``.
STATE_CAP = 10**7
# States one table may hold: about 0.3 kB each, so the table stays near
# 100 MB.  The reference models hold at most 1472 (the quintic with SL), the
# septic Fermat with SL 185944.
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


def untwisted_states(
    charges, group: SymmetryGroup, qmax: int, ywindow
) -> dict[tuple[Fraction, Fraction], Fraction]:
    """Supertrace of the untwisted sector averaged over ``group``, by counting.

    Equals the engine's untwisted sector coefficientwise on the shared
    window; over the trivial group that is the free cone.  ``ywindow`` is
    (ymin, ymax); levels are truncated at ``qmax``.

    A state's lattice vector v counts, per variable, its b and phi
    occupancies less its a and psi occupancies: the coefficient of q_i in its
    charge.  The state survives averaging iff v pairs integrally with every
    group element.  The modes are added one at a time to a table keyed by
    the scaled y-charge, the level and the residues of v.h modulo each
    nontrivial Hermite row h of the group (see ``_pairing_rows``), each entry
    the signed number of partial states that reach it; at the end only the
    entries in the window with every residue 0 count.  ``STATE_CAP`` bounds
    the number of transitions, one per (entry, occupancy of the next mode),
    and ``TABLE_CAP`` the number of entries one table holds; both are read
    after each entry's occupancies of a mode.
    """
    qs = charge_tuple(charges)
    ymin, ymax = Fraction(ywindow[0]), Fraction(ywindow[1])
    if ymin > ymax:
        raise ValueError("empty y-window")
    d = lcm(*(q.denominator for q in qs)) if qs else 1
    # every partial sum starts at y = 0; only a and phi lower it, by less
    # than one unit of y per unit of level (q_i, 1 - q_i), so no partial sum
    # falls qmax or more below 0 or rises qmax or more above its final
    # charge.  At level 0 every mode has positive charge and pad = 0
    pad = qmax * d
    lo = min(int(ymin * d), 0) - pad
    hi = int(ymax * d) + pad
    rows = _pairing_rows(group)
    moduli = tuple(mod for _, mod in rows)
    zero = (0,) * len(rows)
    states: dict[tuple[int, int, tuple[int, ...]], int] = {(0, 0, zero): 1}
    work = 0
    for mode in modes_for_charges(qs, qmax):
        step_y = int(mode.charge * d)
        step_q = mode.weight
        phase = 1 if mode.family in ("b", "phi") else -1
        column = tuple(phase * coeffs[mode.variable] for coeffs, _ in rows)
        out: dict[tuple[int, int, tuple[int, ...]], int] = {}
        for (y, q, residues), count in states.items():
            occ = 0
            while True:
                key = (y, q, residues)
                signed = count if (mode.bosonic or occ % 2 == 0) else -count
                out[key] = out.get(key, 0) + signed
                occ += 1
                if not mode.bosonic and occ > 1:
                    break
                y += step_y
                q += step_q
                if q > qmax or y > hi or y < lo:
                    break
                if step_q == 0 and step_y == 0:
                    break
                if rows:
                    residues = tuple((r + x) % mod for r, x, mod in zip(residues, column, moduli))
            work += occ
            if work > STATE_CAP:
                raise StateCapError(STATE_CAP)
            if len(out) > TABLE_CAP:
                raise StateCapError(TABLE_CAP, "states held")
        states = {key: v for key, v in out.items() if v}
    return {
        (Fraction(q), Fraction(y, d)): Fraction(count)
        for (y, q, residues), count in states.items()
        if residues == zero and ymin * d <= y <= ymax * d
    }
