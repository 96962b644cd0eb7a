"""Diagonal symmetry groups of invertible potentials and their duality.

Group elements are d-tuples of rationals in [0, 1) under addition mod 1.  A
group G of exponent m is held as a lattice: the vectors m*g for g in G,
together with m Z^d, span a full-rank lattice L in Z^d, and G = L / m Z^d.
L is stored as its Hermite normal form H, which is unique: rows are a basis,
row i is zero left of column i, each diagonal entry divides m and the entries
above a diagonal entry lie below it.  So order, membership, subgroup tests,
equality and hashing read H without listing any element:

    |G| = m^d / prod_i H_ii,    v in G  iff  m*v reduces to 0 down the rows of H.

Every kernel on H runs on integers: the invariant factors come from one
elimination of H mod p^e per prime power p^e exactly dividing m, the dual
lattice m H^-1 from back-substitution, and the canonical generators are the
rows of H with H_ii < m.  Elements and their
per-coordinate scaled forms are listed only where something sums over them,
by walking the lattice in lexicographic order, and the size cap applies only
there.

The groups attached to a potential with exponent matrix A follow Krawitz's
lattice description (arXiv:0906.0796) of the Berglund-Huebsch duality:

    Aut(W) = A^-1 Z^d / Z^d             g in Aut iff A g in Z^d;  |Aut| = |det A|
    SL(W)  = ker(g -> sum_j g_j) on Aut(W)
    G^T    = A^-T {w in Z^d : w.g in Z for all g in G} / Z^d
    ann(G) = {s in prod_j Z/m_j : sum_j s_j g_j integral for all g in G}

with m_j the coordinate moduli of G, so |ann(G)| = prod_j m_j / |G|.  The
admissible groups <J> <= G <= SL are the lattices between the Hermite bases
of <J> and SL, listed as Hermite bases relative to that of SL.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

from .exactmath import (
    _xgcd,
    invert_rational_matrix,
    lcm,
    mat_det,
    prime_powers,
    smith_valuations,
)
from .potential import Potential, compute_charges

GROUP_SIZE_CAP = 10**6

Row = tuple[int, ...]


class GroupSizeError(ValueError):
    """Listing the elements would exceed the size cap."""


class AdmissibilityError(ValueError):
    """Group fails the grading / determinant-one sandwich condition."""


@dataclass(frozen=True)
class PhaseVector:
    """Rational d-tuple mod 1, stored canonically with entries in [0, 1)."""

    entries: tuple[Fraction, ...]

    @classmethod
    def canonical(cls, values: Iterable) -> "PhaseVector":
        return cls(tuple(Fraction(v) % 1 for v in values))

    def __post_init__(self):
        if any(not 0 <= e.numerator < e.denominator for e in self.entries):
            raise ValueError("phase vector entries must lie in [0, 1)")

    def __add__(self, other: "PhaseVector") -> "PhaseVector":
        return PhaseVector(tuple((a + b) % 1 for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "PhaseVector":
        return PhaseVector(tuple((-a) % 1 for a in self.entries))

    def __mul__(self, k: int) -> "PhaseVector":
        return PhaseVector(tuple((a * k) % 1 for a in self.entries))

    __rmul__ = __mul__

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def order(self) -> int:
        return lcm(*(e.denominator for e in self.entries)) if self.entries else 1

    def as_string(self) -> str:
        return ",".join(str(e) for e in self.entries)

    @classmethod
    def from_string(cls, text: str) -> "PhaseVector":
        return cls.canonical(Fraction(part.strip()) for part in text.split(","))

    def __str__(self) -> str:
        return f"({self.as_string()})"


def _scale(vec: PhaseVector, m: int) -> Row:
    return tuple(int(e * m) for e in vec.entries)


def _unscale(row: Sequence[int], m: int) -> PhaseVector:
    return PhaseVector(tuple(Fraction(a % m, m) for a in row))


def _phase_string(a: int, m: int) -> str:
    """str(Fraction(a % m, m)) without building the Fraction."""
    a %= m
    g = gcd(a, m)
    return f"{a // g}/{m // g}" if a else "0"


# ---------------------------------------------------------------------------
# Lattices containing a box of moduli
# ---------------------------------------------------------------------------


def _hnf(rows: Iterable[Sequence[int]], moduli: Sequence[int]) -> tuple[Row, ...]:
    """Hermite normal form of the lattice spanned by rows and every moduli[j] e_j.

    Column j is worked modulo moduli[j], which is exact because moduli[j] e_j
    lies in the lattice; so every diagonal entry divides its modulus.
    """
    d = len(moduli)
    pending = [[x % m for x, m in zip(r, moduli)] for r in rows]
    basis = []
    for c in range(d):
        pivot = [0] * d
        pivot[c] = moduli[c]
        rest = []
        for r in pending:
            if r[c]:
                g, x, y = _xgcd(pivot[c], r[c])
                a, b = pivot[c] // g, r[c] // g
                pivot, r = (
                    [(x * p + y * q) % m for p, q, m in zip(pivot, r, moduli)],
                    [(a * q - b * p) % m for p, q, m in zip(pivot, r, moduli)],
                )
            if any(r):
                rest.append(r)
        pending = rest
        basis.append(pivot)
    for c in range(d):
        h = basis[c][c]
        for i in range(c):
            k = basis[i][c] // h
            if k:
                basis[i] = [u - k * v for u, v in zip(basis[i], basis[c])]
    return tuple(tuple(r) for r in basis)


def _reduce(hnf: Sequence[Row], vec: Sequence[int]) -> list[int]:
    """The least point of vec + L: coordinate c brought into [0, H_cc) down the rows."""
    v = list(vec)
    for c, row in enumerate(hnf):
        k = v[c] // row[c]
        if k:
            v = [a - k * b for a, b in zip(v, row)]
    return v


def _walk(hnf: Sequence[Row], moduli: Sequence[int]) -> Iterator[Row]:
    """Lattice points reduced into the box of moduli, in lexicographic order.

    Coordinate i of x.H depends on x_0..x_i only, and x_i moves it through one
    residue class mod H_ii; visiting that class upwards at every level yields
    the points sorted.
    """
    d = len(moduli)
    point = [0] * d

    def level(i: int, carry: list[int]) -> Iterator[Row]:
        if i == d:
            yield tuple(point)
            return
        row, m = hnf[i], moduli[i]
        h = row[i]
        base = carry[i] % m
        for v in range(base % h, m, h):
            k = (v - base) // h
            point[i] = v
            yield from level(i + 1, [s + k * t for s, t in zip(carry, row)] if k else carry)

    return level(0, [0] * d)


def _check_cap(size: int) -> None:
    if size > GROUP_SIZE_CAP:
        raise GroupSizeError(f"listing {size} elements exceeds the cap of {GROUP_SIZE_CAP}")


def _superlattices(relation: Sequence[Sequence[int]]) -> Iterator[list[list[int]]]:
    """Every lattice between the row span of R = relation and Z^r, as its
    Hermite normal form; R is upper triangular with a positive diagonal.

    Rows are built from the last one up.  Row i is (0.., h, e_(i+1).., e_(r-1))
    with h | R_ii and 0 <= e_k < H_kk; the lattice must contain R_i, that is
    (R_ii / h) row_i - R_i must reduce to 0 down the rows below, and each e_k
    is kept only if it lets that reduction clear column k.
    """
    r = len(relation)

    def complete(i: int, tail: list[list[int]], row: list[int], carry: list[int]):
        k = i + len(row)
        if k == r:
            yield [[0] * i + row] + tail
            return
        below = tail[k - i - 1]
        hk = below[k]
        c = relation[i][i] // row[0]
        for e in range(hk):
            v = c * e + carry[k]
            if v % hk == 0:
                q = v // hk
                yield from complete(i, tail, row + [e],
                                    [s - q * t for s, t in zip(carry, below)] if q else carry)

    def rows_from(i: int):
        if i == r:
            yield []
            return
        n = relation[i][i]
        for tail in rows_from(i + 1):
            for h in range(1, n + 1):
                if n % h == 0:
                    yield from complete(i, tail, [h], [-x for x in relation[i]])

    return rows_from(0)


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------


class SymmetryGroup:
    """Finite abelian group of phase vectors, held as a lattice (see module doc).

    Two groups are equal exactly when their dimension, exponent and Hermite
    normal form agree.
    """

    def __init__(self, dimension: int, exponent: int, hnf: tuple[Row, ...]):
        self.dimension = dimension
        self.exponent = exponent
        self.hnf = hnf
        self.order = exponent**dimension // prod(row[i] for i, row in enumerate(hnf))

    @classmethod
    def _span(cls, rows: Iterable[Sequence[int]], modulus: int, dimension: int) -> "SymmetryGroup":
        """Group generated by the integer rows divided by modulus, mod 1."""
        rows = list(rows)
        exponent = lcm(1, *(modulus // gcd(modulus, *r) for r in rows))
        step = modulus // exponent
        return cls(dimension, exponent,
                   _hnf([[x // step for x in r] for r in rows], (exponent,) * dimension))

    @classmethod
    def generate(cls, generators: Iterable[PhaseVector], dimension: int) -> "SymmetryGroup":
        gens = list(generators)
        if any(g.dimension != dimension for g in gens):
            raise ValueError("generator dimension mismatch")
        m = lcm(1, *(g.order() for g in gens))
        return cls._span([_scale(g, m) for g in gens], m, dimension)

    @classmethod
    def trivial(cls, dimension: int) -> "SymmetryGroup":
        return cls.generate([PhaseVector.canonical([0] * dimension)], dimension)

    @classmethod
    def from_generator_strings(cls, texts: Iterable[str], dimension: int) -> "SymmetryGroup":
        return cls.generate([PhaseVector.from_string(t) for t in texts], dimension)

    def _generator_rows(self) -> list[Row]:
        """Canonical generators scaled by the exponent m: each element, in
        sorted order, that the ones chosen before it do not span.  These are
        the Hermite rows with H_kk < m, last row first: the least element
        outside the span of the rows after k is row k, which they already
        reduce, and a row with H_kk = m is m e_k.  The trivial group has the
        zero generator."""
        m = self.exponent
        rows = [row for k, row in enumerate(self.hnf) if row[k] < m]
        return rows[::-1] or [(0,) * self.dimension]

    @cached_property
    def generators(self) -> tuple[PhaseVector, ...]:
        return tuple(_unscale(row, self.exponent) for row in self._generator_rows())

    def generator_strings(self) -> list[str]:
        """The generators as "a/b,..." strings, each entry a reduced fraction
        or 0, read off the integer rows."""
        m = self.exponent
        return [",".join(_phase_string(a, m) for a in row) for row in self._generator_rows()]

    @cached_property
    def structure(self) -> tuple[int, ...]:
        """Invariant factors, in divisibility order.

        With Smith factors s_i of the lattice, each dividing m, the group is
        the sum of Z/(m/s_i); for p^e exactly dividing m its p-part is the sum
        of Z/p^(e - v), v the valuations below e of the s_i, and the i-th
        largest p-parts multiply to the i-th largest invariant factor.
        """
        factors = [1] * self.dimension
        for p, e in prime_powers(self.exponent):
            for i, v in enumerate(smith_valuations(self.hnf, p, e)):
                factors[i] *= p ** (e - v)
        return tuple(f for f in reversed(factors) if f > 1)

    def coordinate_moduli(self) -> tuple[int, ...]:
        """Per-coordinate denominator bound over the whole group."""
        m = self.exponent
        return tuple(m // gcd(m, *column) for column in zip(*self.hnf))

    def _box_basis(self, moduli: Sequence[int]) -> tuple[Row, ...]:
        """The basis with coordinate j counted in steps of 1/moduli[j]."""
        m = self.exponent
        return tuple(tuple(x * mj // m for x, mj in zip(row, moduli)) for row in self.hnf)

    def scaled_elements(self, moduli: Sequence[int]) -> list[Row]:
        """Sorted elements as integer tuples, coordinate j scaled by moduli[j]."""
        _check_cap(self.order)
        return list(_walk(self._box_basis(moduli), moduli))

    @cached_property
    def elements(self) -> tuple[PhaseVector, ...]:
        m = self.exponent
        return tuple(_unscale(e, m) for e in self.scaled_elements((m,) * self.dimension))

    def _dual_rows(self) -> list[Row]:
        """Basis of {w in Z^d : w.g integral for every g in the group}.

        The lattice L/m has basis rows H/m, so its dual has the columns of
        X = m H^-1 as a basis; they are integral because L/m contains Z^d.
        H is upper triangular, so H X = m I gives the rows of X from the last
        up, row i = (m e_i - sum_(k > i) H_ik X_k) / H_ii, each division exact.
        """
        m, d = self.exponent, self.dimension
        x = [()] * d
        for i, row in reversed(list(enumerate(self.hnf))):
            x[i] = [(m * (i == j) - sum(row[k] * x[k][j] for k in range(i + 1, d))) // row[i]
                    for j in range(d)]
        return list(zip(*x))

    def annihilator_elements(self) -> list[Row]:
        """Sorted ann(G) inside prod_j Z/m_j, m_j the coordinate moduli:
        every s with sum_j s_j t_j / m_j integral for all t in the group.
        It has prod_j m_j / |G| elements."""
        mods = self.coordinate_moduli()
        _check_cap(prod(mods) // self.order)
        return list(_walk(_hnf(self._dual_rows(), mods), mods))

    def element_with(self, j: int, value: Fraction) -> PhaseVector:
        """The first element, in sorted order, whose coordinate j is value: the
        least point of a coset of the kernel of coordinate j, whose Hermite
        rows follow the first once coordinate j is carried in front."""
        m = self.exponent
        scaled = Fraction(value) * m
        first, *kernel = _hnf([(row[j],) + row for row in self.hnf], (m,) * (self.dimension + 1))
        if scaled.denominator == 1 and int(scaled) % first[0] == 0:
            step = int(scaled) % m // first[0]
            return _unscale(_reduce([row[1:] for row in kernel], [step * x for x in first[1:]]), m)
        raise ValueError(f"no group element has coordinate {j} equal to {value}")

    def projection(self, indices: Sequence[int]) -> "SymmetryGroup":
        """Image of the group under g -> (g_i for i in indices)."""
        rows = [[row[i] for i in indices] for row in self.hnf]
        return SymmetryGroup._span(rows, self.exponent, len(indices))

    def __contains__(self, vec: PhaseVector) -> bool:
        m = self.exponent
        if vec.dimension != self.dimension or m % vec.order():
            return False
        return not any(_reduce(self.hnf, _scale(vec, m)))

    def _key(self) -> tuple:
        return (self.dimension, self.exponent, self.hnf)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymmetryGroup) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def is_subgroup_of(self, other: "SymmetryGroup") -> bool:
        if other.dimension != self.dimension or other.exponent % self.exponent:
            return False
        k = other.exponent // self.exponent
        return all(not any(_reduce(other.hnf, [x * k for x in row])) for row in self.hnf)

    def __repr__(self) -> str:
        shape = "x".join(f"Z/{f}" for f in self.structure) or "trivial"
        return f"SymmetryGroup(order={self.order}, {shape})"


# ---------------------------------------------------------------------------
# Groups attached to a potential
# ---------------------------------------------------------------------------


def _integral_image(matrix, row: Sequence[int], m: int) -> bool:
    """Whether matrix . (row / m) lies in Z^d."""
    return all(sum(a * x for a, x in zip(arow, row)) % m == 0 for arow in matrix)


@lru_cache(maxsize=256)
def aut_group(potential: Potential) -> SymmetryGroup:
    """All diagonal phase symmetries, generated by the columns of A^-1; one per potential."""
    inv = invert_rational_matrix(potential.matrix)
    group = SymmetryGroup.generate(
        [PhaseVector.canonical(col) for col in zip(*inv)], potential.dimension
    )
    assert group.order == abs(mat_det(potential.matrix)), "|Aut| must equal |det A|"
    return group


def grading_element(potential: Potential) -> PhaseVector:
    """Phase vector of the exponential grading operator (the charges mod 1)."""
    charges = compute_charges(potential)
    vec = PhaseVector.canonical(charges.q)
    m = vec.order()
    assert _integral_image(potential.matrix, _scale(vec, m), m), "J must preserve W"
    return vec


def sl_subgroup(potential: Potential) -> SymmetryGroup:
    """Subgroup of aut_group whose coordinates sum to an integer.

    The kernel of g -> sum_j g_j mod 1: carry the sum as an extra leading
    coordinate; the Hermite rows below the first have sum 0 mod m and span
    the kernel.
    """
    aut = aut_group(potential)
    m, d = aut.exponent, potential.dimension
    rows = [(sum(row),) + row for row in aut.hnf]
    kernel = _hnf(rows, (m,) * (d + 1))[1:]
    return SymmetryGroup._span([row[1:] for row in kernel], m, d)


def grading_subgroup(potential: Potential) -> SymmetryGroup:
    """The cyclic group generated by the grading element."""
    return SymmetryGroup.generate([grading_element(potential)], potential.dimension)


def _require_cy(potential: Potential) -> None:
    charges = compute_charges(potential)
    if charges.cy_degree is None:
        raise AdmissibilityError(
            f"J_W not in SL_W: charge sum {sum(charges.q)} is not a positive integer"
        )


def require_admissible(potential: Potential, group: SymmetryGroup) -> None:
    """Check <J> <= group <= SL; raise AdmissibilityError otherwise."""
    _require_cy(potential)
    if grading_element(potential) not in group:
        raise AdmissibilityError("group does not contain the grading element")
    m = group.exponent
    for row in group.hnf:
        if sum(row) % m or not _integral_image(potential.matrix, row, m):
            raise AdmissibilityError("group is not contained in the determinant-one subgroup")


def admissible_subgroups(potential: Potential) -> list[SymmetryGroup]:
    """All groups between <J> and SL, one per lattice between their Hermite bases.

    With B and C the Hermite bases of SL and <J>, C = R.B, R = C (m B^-1) / m
    integral and upper triangular, in Hermite form since R Z^d holds m Z^d;
    the groups are the H.B, H the Hermite basis of a lattice between R Z^d
    and Z^d.  A row of R with R_ii = 1 is alone in column i and lies in every
    such lattice, so coordinate i is left out.  A row of H with H_ii = R_ii is
    R_i modulo the rows below it, and R_i.B = C_i lies in the span of J and
    m Z^d, so each group is spanned by J and the other rows.
    """
    _require_cy(potential)
    d = potential.dimension
    sl = sl_subgroup(potential)
    m = sl.exponent
    j = _scale(grading_element(potential), m)
    cyclic, dual = _hnf([j], (m,) * d), sl._dual_rows()
    relation = _hnf([[sum(map(mul, row, column)) // m for column in dual] for row in cyclic],
                    (m,) * d)
    keep = [i for i, row in enumerate(relation) if row[i] > 1]
    relation = [[relation[i][k] for k in keep] for i in keep]
    columns = list(zip(*(sl.hnf[i] for i in keep)))
    groups = []
    for lattice in _superlattices(relation):
        rows = [[sum(map(mul, coeffs, column)) for column in columns]
                for i, coeffs in enumerate(lattice) if coeffs[i] < relation[i][i]]
        groups.append(SymmetryGroup._span(rows + [j], m, d))
    groups.sort(key=lambda g: (g.order, _rows_up(g, m)))
    return groups


def _rows_up(group: SymmetryGroup, m: int) -> list[Row]:
    """Hermite rows from the last up, row i from column i on, in the box of m.

    Groups of one order compare by these as their sorted element lists do:
    past the last row i where they differ, both lists begin with the span of
    the later rows, and go on with row i if H_ii < m (see generators), or
    with a point nonzero left of column i if row i is m e_i.
    """
    s = m // group.exponent
    return [tuple(x * s for x in row[i:]) for i, row in reversed(tuple(enumerate(group.hnf)))]


def dual_group(potential: Potential, group: SymmetryGroup) -> SymmetryGroup:
    """Symmetries of the transposed potential pairing integrally with group.

    u is in Aut(W^T) iff u = A^-T w with w in Z^d, and the pairing u.A.g is
    w.g; so the dual group is A^-T applied to the lattice dual of the group.
    """
    if not group.is_subgroup_of(aut_group(potential)):
        raise ValueError("group is not a subgroup of the automorphism group")
    inv_t = tuple(zip(*invert_rational_matrix(potential.matrix)))
    gens = [
        PhaseVector.canonical(sum(x * wk for x, wk in zip(row, w)) for row in inv_t)
        for w in group._dual_rows()
    ]
    return SymmetryGroup.generate(gens, potential.dimension)
