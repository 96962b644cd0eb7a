"""Independent counting checks for the supertrace formulas.

Nothing here touches the series engine: states are enumerated directly from
the mode table (four families per variable, with their charge and level
weights), accumulating (-1)^fermions y^(total charge) q^(total level).  These
enumerations are the ground truth the product formulas are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .exactmath import lcm
from .potential import Charges, Potential, compute_charges
from .qseries import BiSeries, Windows

if TYPE_CHECKING:
    from .symmetry import SymmetryGroup

STATE_CAP = 10**7


class StateCapError(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"state enumeration exceeded the cap of {cap} work units")
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


def _charges_tuple(charges) -> tuple[Fraction, ...]:
    if isinstance(charges, Charges):
        return tuple(charges.q)
    return tuple(Fraction(q) for q in charges)


def free_state_series(charges, qmax: int, ywindow, cap: int = STATE_CAP) -> BiSeries:
    """Supertrace of the free state space by direct mode enumeration.

    Equals the untwisted cone product formula coefficientwise on the shared
    window.  ``ywindow`` is (ymin, ymax); levels are truncated at ``qmax``.
    """
    qs = _charges_tuple(charges)
    ymin, ymax = Fraction(ywindow[0]), Fraction(ywindow[1])
    windows = Windows.make(qmax, ymin, ymax)
    d = lcm(*(q.denominator for q in qs)) if qs else 1
    # accumulate over (scaled charge, level); padding keeps partial sums that
    # wander below the window but are pulled back by later positive modes
    pad = len(qs) * qmax * d
    lo = int(ymin * d) - pad
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
                if work > cap:
                    raise StateCapError(cap)
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
    entries = {}
    for (ky, kq), count in states.items():
        if ymin * d <= ky <= ymax * d:
            entries[(Fraction(kq), Fraction(ky, d))] = count
    return BiSeries.from_terms(d, 1, windows, entries)


def zero_level_group_average(
    potential: Potential, group: SymmetryGroup, ywindow, cap: int = STATE_CAP
) -> BiSeries:
    """Level-zero slice of the group-averaged supertrace, by lattice counting.

    Zero modes are the bosonic raising modes at level 0 (one per variable,
    any occupancy c_i) and the fermionic raising modes at level 0 (a subset
    S); a state survives averaging iff its lattice vector c - 1_S pairs
    integrally with every group generator.  The result is the q^0 slice of
    the untwisted group-averaged formula, exactly.
    """
    charges = compute_charges(potential)
    qs = tuple(charges.q)
    dim = len(qs)
    ymin, ymax = Fraction(ywindow[0]), Fraction(ywindow[1])
    windows = Windows.make(0, ymin, ymax)
    d = lcm(*(q.denominator for q in qs)) if qs else 1
    gen_coords = [g.entries for g in group.generators]
    counts: dict[int, int] = {}
    work = 0

    def recurse(i: int, ky: int, pairing: tuple[Fraction, ...], fermions: int):
        nonlocal work
        work += 1
        if work > cap:
            raise StateCapError(cap)
        if i == dim:
            if ky < ymin * d or ky > ymax * d:
                return
            if any(p.denominator != 1 for p in pairing):
                return
            counts[ky] = counts.get(ky, 0) + (-1) ** fermions
            return
        step = int(qs[i] * d)
        psi_step = int((1 - qs[i]) * d)
        c = 0
        while True:
            base = ky + c * step
            if base > ymax * d:
                break
            pair_c = tuple(p + c * g[i] for p, g in zip(pairing, gen_coords))
            recurse(i + 1, base, pair_c, fermions)
            recurse(
                i + 1,
                base + psi_step,
                tuple(p - g[i] for p, g in zip(pair_c, gen_coords)),
                fermions + 1,
            )
            c += 1

    recurse(0, 0, tuple(Fraction(0) for _ in gen_coords), 0)
    entries = {(Fraction(0), Fraction(ky, d)): v for ky, v in counts.items() if v}
    return BiSeries.from_terms(d, 1, windows, entries)
