"""Invertible polynomial potentials: parsing, classification, transpose, charges.

A potential is a sum of d monomials in d variables, encoded by its square
exponent matrix (row i = exponents of monomial i).  Valid potentials decompose
uniquely into decoupled atoms of three shapes:

  * self-power:          x^a                     (one variable, a >= 2)
  * cycle:               x1^a1 x2 + ... + xn^an x1
  * chain:               x1^a1 x2 + ... + xn^an

Diagonal exponents must be >= 2 and the coupling exponent is exactly 1;
anything else is rejected as outside the classification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .exactmath import IntMat, mat_det, mat_transpose, solve_rational


class PotentialSyntaxError(ValueError):
    """Parse failure; carries the character position of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidPotentialError(ValueError):
    """Structurally invalid potential (non-square, singular, ...)."""


class NotInvertibleError(InvalidPotentialError):
    """Exponent matrix does not match any fermat/loop/chain pattern."""

    def __init__(self, message: str, rows: tuple[int, ...] = ()):
        super().__init__(message)
        self.rows = rows


class DegenerateChargesError(ValueError):
    """Some charge falls outside (0, 1)."""


@dataclass(frozen=True)
class Potential:
    """Invertible polynomial potential given by its exponent matrix."""

    matrix: IntMat

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    @property
    def names(self) -> tuple[str, ...]:
        """The variable names x1..xd, by column."""
        return tuple(f"x{j + 1}" for j in range(self.dimension))

    @property
    def text(self) -> str:
        """Canonical monomial-sum form, monomial order as stored."""
        names = self.names
        monomials = []
        for row in self.matrix:
            factors = []
            for j, e in enumerate(row):
                if e == 1:
                    factors.append(names[j])
                elif e > 1:
                    factors.append(f"{names[j]}^{e}")
            monomials.append("*".join(factors))
        return "+".join(monomials)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Atom:
    kind: str  # "fermat" | "loop" | "chain"
    variables: tuple[int, ...]  # zero-based indices, in cycle/chain order
    exponents: tuple[int, ...]  # diagonal exponents along the same order


@dataclass(frozen=True)
class AtomDecomposition:
    atoms: tuple[Atom, ...]

    def quadratic_fermat_variables(self) -> tuple[int, ...]:
        """Variables sitting in x^2 atoms (admitted, but worth flagging)."""
        out = []
        for atom in self.atoms:
            if atom.kind == "fermat" and atom.exponents[0] == 2:
                out.extend(atom.variables)
        return tuple(out)


@dataclass(frozen=True)
class Charges:
    q: tuple[Fraction, ...]
    cy_degree: int | None
    central_charge: Fraction


def charge_tuple(charges) -> tuple[Fraction, ...]:
    """The charges q_j of a ``Charges`` object or of a sequence, as Fractions."""
    if isinstance(charges, Charges):
        return tuple(charges.q)
    return tuple(Fraction(q) for q in charges)


def make_potential(matrix: Iterable[Iterable[int]]) -> Potential:
    """Build and validate a Potential from an exponent matrix.

    Raises InvalidPotentialError unless every entry is an int (not a bool or
    a float), and NotInvertibleError unless the matrix decomposes into atoms,
    so every Potential built here is invertible.
    """
    try:
        mat = tuple(tuple(row) for row in matrix)
    except TypeError:
        mat = None
    if mat is None or any(isinstance(e, bool) or not isinstance(e, int) for row in mat for e in row):
        raise InvalidPotentialError("the exponent matrix must be a list of rows of integers")
    d = len(mat)
    if d == 0:
        raise InvalidPotentialError("empty potential")
    for row in mat:
        if len(row) != d:
            raise InvalidPotentialError(
                f"need as many monomials as variables; got {d} monomials over {len(row)} variables"
            )
    if any(e < 0 for row in mat for e in row):
        raise InvalidPotentialError("negative exponents are not allowed")
    if mat_det(mat) == 0:
        raise InvalidPotentialError("exponent matrix is singular")
    potential = Potential(mat)
    decompose_atoms(potential)
    return potential


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_potential(text: str) -> Potential:
    """Parse a potential from monomial-sum text or the JSON matrix form.

    Grammar: expression = monomial ('+' monomial)*;
             monomial = factor ('*' factor)*;
             factor = varname ('^' positive-integer)?;
             varname = 'x' positive-integer.  Whitespace is ignored.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as err:
            raise PotentialSyntaxError(f"bad JSON: {err.msg}", err.pos)
        except RecursionError:
            raise PotentialSyntaxError("bad JSON: nested too deeply", 0) from None
        if not isinstance(data, dict) or "monomials" not in data:
            raise PotentialSyntaxError('JSON form needs a "monomials" key', 0)
        return make_potential(data["monomials"])
    return _parse_monomial_sum(text)


def _parse_monomial_sum(text: str) -> Potential:
    monomials: list[dict[int, int]] = []
    pos = 0
    n = len(text)

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    def parse_int(p: int) -> tuple[int, int]:
        start = p
        while p < n and "0" <= text[p] <= "9":  # ASCII only: str.isdigit accepts "²"
            p += 1
        if p == start:
            raise PotentialSyntaxError("expected a positive integer", start)
        value = int(text[start:p])
        if value <= 0:
            raise PotentialSyntaxError("expected a positive integer", start)
        return value, p

    def parse_factor(p: int) -> tuple[int, int, int]:
        p = skip_ws(p)
        if p >= n or text[p] != "x":
            raise PotentialSyntaxError("expected a variable like 'x1'", p)
        index, p = parse_int(p + 1)
        p = skip_ws(p)
        exponent = 1
        if p < n and text[p] == "^":
            exponent, p = parse_int(skip_ws(p + 1))
        return index, exponent, p

    while True:
        exponents: dict[int, int] = {}
        index, exponent, pos = parse_factor(pos)
        exponents[index] = exponents.get(index, 0) + exponent
        pos = skip_ws(pos)
        while pos < n and text[pos] == "*":
            index, exponent, pos = parse_factor(pos + 1)
            exponents[index] = exponents.get(index, 0) + exponent
            pos = skip_ws(pos)
        monomials.append(exponents)
        if pos >= n:
            break
        if text[pos] != "+":
            raise PotentialSyntaxError(f"unexpected character {text[pos]!r}", pos)
        pos += 1

    d = len(monomials)
    used = sorted({v for m in monomials for v in m})
    if used and (used[0] < 1 or used[-1] > d):
        bad = used[0] if used[0] < 1 else used[-1]
        raise InvalidPotentialError(
            f"variable x{bad} out of range for {d} monomials (expected x1..x{d})"
        )
    missing = [j for j in range(1, d + 1) if j not in set(used)]
    if missing:
        raise InvalidPotentialError(f"variable x{missing[0]} never appears")
    matrix = [[m.get(j, 0) for j in range(1, d + 1)] for m in monomials]
    return make_potential(matrix)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def decompose_atoms(potential: Potential) -> AtomDecomposition:
    """Partition the variables into fermat/loop/chain atoms.

    Each monomial row must be either x_v^a (a >= 2) or x_v^a * x_w (a >= 2,
    w != v).  Row ownership v must be a bijection onto the variables and the
    successor map v -> w must be injective; the components of the successor
    graph are then cycles (loops) and paths (chains / isolated fermats).
    """
    mat = potential.matrix
    d = potential.dimension
    owner_of_row: list[int] = [-1] * d
    successor: dict[int, int] = {}
    bad_rows: list[int] = []
    owned_by: dict[int, int] = {}

    for i, row in enumerate(mat):
        support = [(j, e) for j, e in enumerate(row) if e]
        if len(support) == 1:
            j, e = support[0]
            if e < 2:
                bad_rows.append(i)
                continue
            owner = j
        elif len(support) == 2:
            heavy = [(j, e) for j, e in support if e >= 2]
            light = [(j, e) for j, e in support if e == 1]
            if len(heavy) != 1 or len(light) != 1:
                bad_rows.append(i)
                continue
            owner = heavy[0][0]
            successor[owner] = light[0][0]
        else:
            bad_rows.append(i)
            continue
        if owner in owned_by:
            bad_rows.append(i)
            continue
        owned_by[owner] = i
        owner_of_row[i] = owner

    if bad_rows or len(owned_by) != d:
        rows = tuple(sorted(set(bad_rows) | {i for i in range(d) if owner_of_row[i] == -1}))
        raise NotInvertibleError(
            "not an invertible potential: rows do not match the x^a / x^a*y patterns",
            rows,
        )

    indegree: dict[int, int] = {v: 0 for v in range(d)}
    for w in successor.values():
        indegree[w] += 1
    if any(c > 1 for c in indegree.values()):
        rows = tuple(owned_by[v] for v, w in successor.items() if indegree[w] > 1)
        raise NotInvertibleError(
            "not an invertible potential: a variable is coupled from two monomials",
            rows,
        )

    def exponent(v: int) -> int:
        return mat[owned_by[v]][v]

    atoms: list[Atom] = []
    seen: set[int] = set()

    # Paths: start from variables with no incoming coupling.
    for start in range(d):
        if indegree[start] or start in seen:
            continue
        path = [start]
        seen.add(start)
        v = start
        while v in successor:
            v = successor[v]
            if v in seen:  # joined a previously consumed vertex: impossible here
                raise NotInvertibleError("not an invertible potential: tangled coupling", ())
            seen.add(v)
            path.append(v)
        if len(path) == 1:
            atoms.append(Atom("fermat", (start,), (exponent(start),)))
        else:
            atoms.append(Atom("chain", tuple(path), tuple(exponent(v) for v in path)))

    # Remaining variables sit on cycles.
    for start in range(d):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        v = successor[start]
        while v != start:
            cycle.append(v)
            seen.add(v)
            v = successor[v]
        # canonical orientation: begin at the smallest variable index
        pivot = cycle.index(min(cycle))
        cycle = cycle[pivot:] + cycle[:pivot]
        atoms.append(Atom("loop", tuple(cycle), tuple(exponent(v) for v in cycle)))

    atoms.sort(key=lambda a: a.variables[0])
    return AtomDecomposition(tuple(atoms))


def transpose_potential(potential: Potential) -> Potential:
    """Dual potential: same variables, transposed exponent matrix."""
    return Potential(mat_transpose(potential.matrix))


@lru_cache(maxsize=256)
def compute_charges(potential: Potential) -> Charges:
    """Rational weights solving A.q = (1,...,1), with CY degree and c-hat.

    Raises DegenerateChargesError unless every q_j lies strictly in (0, 1).
    Memoized per potential (both frozen dataclasses); a raise is not cached.
    """
    d = potential.dimension
    q = solve_rational(potential.matrix, [1] * d)
    for j, qj in enumerate(q):
        if not (0 < qj < 1):
            raise DegenerateChargesError(
                f"degenerate charges: q_{j + 1} = {qj} outside (0, 1)"
            )
    total = sum(q, Fraction(0))
    cy_degree = int(total) if total.denominator == 1 and total > 0 else None
    central_charge = d - 2 * total
    return Charges(tuple(q), cy_degree, central_charge)
