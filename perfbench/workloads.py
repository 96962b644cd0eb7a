"""Workload definitions: fixed case lists, seeded inputs and correctness checks.

``series``, ``groups`` and ``check`` run ``orbigenus`` commands in process,
each in a freshly imported package so every case starts as cold as one
command does.  ``numeric`` sweeps ``ell_genus_numeric`` over seeded (z, tau)
points in one warm package, as a library sweep does.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

QUINTIC = "x1^5+x2^5+x3^5+x4^5+x5^5"
K3_CHAIN = "x1^3*x2+x2^4+x3^4+x4^4"
LOOP_K3 = "x1^3*x2+x2^3*x1+x3^4+x4^4"
K3_FERMAT = "x1^4+x2^4+x3^4+x4^4"
CUBIC = "x1^3+x2^3+x3^3"
TWO_SQUARES = "x1^2+x2^2"
SEXTIC = "x1^6+x2^6+x3^6+x4^6+x5^6+x6^6"
SIX_SQUARES = "x1^2+x2^2+x3^2+x4^2+x5^2+x6^2"
K3_CHAIN_SQUARES = "x1^3*x2+x2^4+x3^4+x4^4+x5^2+x6^2"
SEXTIC_CURVE = "x1^6+x2^6+x3^6+x4^2"

NAMES = ("series", "groups", "numeric", "check")

# Relative tolerance of the tau -> -1/tau check on numeric values.
INVERSION_TOL = 1e-9
# A value that is a sum of sector terms cannot be known to better than
# rounding of those terms, about 1e-16 of their magnitude.  So the check
# measures a value against the larger of its own magnitude and CANCELLATION
# times the magnitude of its sector terms: at INVERSION_TOL that allows an
# error of 1e-13 of the terms, 1000 times rounding.  It matters where the
# terms cancel, as for some quintic-SL points near Re tau = 0, whose values
# are down to 1e-16 of their terms; elsewhere the terms are 1e2 to 1e4 times
# the value and the check stays at INVERSION_TOL of the value.
CANCELLATION = 1e-4
# At Im tau = 0.004 the theta product is capped at 600 factors, too few for
# INVERSION_TOL (residuals 3e-7 to 4e-6).  These points count as failed but
# are the known numeric defect; a failed point anywhere else, or a raised
# error, makes the run incorrect.
KNOWN_DEFECT_IM_TAU = 0.004


def known_defect(point) -> bool:
    return point.tau.imag == KNOWN_DEFECT_IM_TAU


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]


def _genus(name, potential, qmax, group=None, ywin=None):
    argv = ["genus", "--potential", potential, "--qmax", qmax]
    if group:
        argv += ["--group", group]
    if ywin:
        argv += ["--ywin", ywin]
    return Case(name, tuple(argv))


def cli_cases(workload: str, seed: int) -> list[Case]:
    if workload == "series":
        return [
            _genus("quintic-J-q6", QUINTIC, "6"),
            _genus("quintic-J-q6-ywin4", QUINTIC, "6", ywin="4"),
            _genus("quintic-SL-q3", QUINTIC, "3", group="SL"),
            _genus("k3chain-SL-q4", K3_CHAIN, "4", group="SL"),
            _genus("k3chain-J-q6", K3_CHAIN, "6"),
            _genus("loopk3-J-q6", LOOP_K3, "6"),
            _genus("k3fermat-J-q8", K3_FERMAT, "8"),
            _genus("sextic-curve-J-q4", SEXTIC_CURVE, "4"),
        ]
    if workload == "groups":
        # groups on the cubic sixfold (212 groups, about 11 s on a 2-core Xeon)
        # leaves one sample per run, too few for a steady median; these
        # smaller listings run the same close() enumeration many times a run
        return [
            Case("groups-six-squares", ("groups", "--potential", SIX_SQUARES)),
            Case("groups-k3chain-squares", ("groups", "--potential", K3_CHAIN_SQUARES)),
            Case("groups-k3fermat", ("groups", "--potential", K3_FERMAT)),
            Case("groups-k3chain", ("groups", "--potential", K3_CHAIN)),
            Case("groups-loopk3", ("groups", "--potential", LOOP_K3)),
            _genus("sextic-J-q1", SEXTIC, "1"),
            Case("dual-quintic-J", ("dual", "--potential", QUINTIC, "--group", "J")),
            Case("dual-quintic-SL", ("dual", "--potential", QUINTIC, "--group", "SL")),
            Case("holo-quintic-SL", ("check", "--potential", QUINTIC, "--group", "SL",
                                     "--set", "holo")),
        ]
    if workload == "check":
        models = [
            ("quintic-SL-q1", QUINTIC, "SL", "1"),
            ("k3chain-J-q1", K3_CHAIN, "J", "1"),
            ("loopk3-SL-q1", LOOP_K3, "SL", "1"),
            ("cubic-J-q2", CUBIC, "J", "2"),
            ("two-squares-J-q2", TWO_SQUARES, "J", "2"),
        ]
        return [
            Case(f"check-{name}", ("check", "--potential", p, "--group", g, "--qmax", q,
                                   "--seed", str(seed)))
            for name, p, g, q in models
        ]
    raise ValueError(f"no command cases for workload {workload!r}")


# ---------------------------------------------------------------------------
# numeric
# ---------------------------------------------------------------------------

# One block of points, as (model, Im tau, count).  About 1/3 of the points
# are on the quintic with SL, whose cost is group data redone on every call;
# about 2/3 are on the K3 chain with J, whose cost is theta and grows as
# Im tau falls.  The counts put the median point in the middle of the K3
# Im tau = 0.004 points and the 90th percentile among the slowest quintic
# points, away from the edges between clusters.
NUMERIC_BLOCK = (
    ("k3chain-J", 1.2, 2),
    ("k3chain-J", 0.1, 2),
    ("k3chain-J", 0.01, 1),
    ("k3chain-J", KNOWN_DEFECT_IM_TAU, 3),
    ("quintic-SL", 1.2, 1),
    ("quintic-SL", 0.1, 1),
    ("quintic-SL", 0.01, 2),
    ("quintic-SL", KNOWN_DEFECT_IM_TAU, 1),
)
NUMERIC_BLOCKS = 16
NUMERIC_MODELS = {"quintic-SL": (QUINTIC, "SL"), "k3chain-J": (K3_CHAIN, "J")}


# Fixed points, the same for every seed, whose values are also compared
# against golden values from the seed commit: the tau -> -1/tau law holds for
# any multiple of the true genus, these anchor the scale.  They sit away from
# the known defect, where the sector terms are at most 1e4 times the value.
ANCHORS = tuple(
    (model, z, tau)
    for model in NUMERIC_MODELS
    for z, tau in ((0.2 + 0.05j, 1.2j), (0.3 + 0.1j, 0.2 + 0.1j), (0.15 + 0.03j, -0.1 + 0.01j))
)


@dataclass(frozen=True)
class Point:
    model: str
    z: complex
    tau: complex
    anchor: bool = False

    @property
    def name(self) -> str:
        return f"{self.model} z={self.z} tau={self.tau}"


def numeric_points(seed: int) -> list[Point]:
    """The anchors, then NUMERIC_BLOCKS seeded blocks of NUMERIC_BLOCK points."""
    rng = random.Random(seed)
    points = [Point(model, z, tau, anchor=True) for model, z, tau in ANCHORS]
    for _ in range(NUMERIC_BLOCKS):
        for model, im_tau, count in NUMERIC_BLOCK:
            for _ in range(count):
                z = complex(rng.uniform(0.07, 0.43), rng.uniform(0.01, 0.16))
                tau = complex(rng.uniform(-0.45, 0.45), im_tau)
                points.append(Point(model, z, tau))
    return points


@dataclass(frozen=True)
class Model:
    potential: object
    group: object
    cbar: int
    charges: tuple  # q_j
    moduli: tuple   # coordinate moduli of the group


def numeric_models(package) -> dict[str, Model]:
    """Each numeric model, built in the given package."""
    out = {}
    for model, (text, group) in NUMERIC_MODELS.items():
        potential = package.parse_potential(text)
        grp = package.sl_subgroup(potential) if group == "SL" else package.grading_subgroup(potential)
        charges = package.compute_charges(potential)
        out[model] = Model(potential, grp, int(charges.central_charge), tuple(charges.q),
                           grp.coordinate_moduli())
    return out


def sector_magnitude(genus_module, model: Model, z: complex, tau: complex) -> float:
    """Upper bound of (1/|G|) sum over sector pairs of |sector term| at (z, tau).

    A sector term is a product over coordinates j of one theta-ratio factor
    per twist pair (a/m_j, b/m_j); summing over every pair of every
    coordinate, not only those of the group, bounds the sum over the group.
    """
    sums = {}
    total = 1.0
    for q, m in zip(model.charges, model.moduli):
        if (q, m) not in sums:
            sums[q, m] = sum(
                abs(genus_module.sector_value_from_coords(
                    (q,), (Fraction(a, m),), (Fraction(b, m),), z, tau, pole_eps=0))
                for a in range(m) for b in range(m))
        total *= sums[q, m]
    return total / model.group.order


def inversion_residual(genus_module, model: Model, value) -> float:
    """Residual of phi(z/tau, -1/tau) = e(c z^2 / 2 tau) phi(z, tau) at the point used.

    The error is measured against the larger of the two sides and CANCELLATION
    times the magnitude of their sector terms; both sides 0 is a failure.
    """
    z, tau = value.z, value.tau
    factor = cmath.exp(1j * math.pi * model.cbar * z * z / tau)
    try:
        image = genus_module.ell_genus_numeric(
            model.potential, model.group, z / tau, -1 / tau, retries=0).value
        terms = max(sector_magnitude(genus_module, model, z / tau, -1 / tau),
                    abs(factor) * sector_magnitude(genus_module, model, z, tau))
    except (ArithmeticError, ValueError):  # e.g. q underflows to 0 when Im(-1/tau) is huge
        return math.inf
    expected = factor * value.value
    size = max(abs(image), abs(expected))
    if size == 0:
        return math.inf
    return abs(image - expected) / max(size, CANCELLATION * terms)


def anchor_error(value: complex, golden: list[float]) -> float:
    """Relative distance of a value from its golden [re, im]."""
    target = complex(*golden)
    return abs(value - target) / abs(target)


# ---------------------------------------------------------------------------
# Output digests, compared against golden values from the seed commit
# ---------------------------------------------------------------------------


def _closure(generators: list[str]) -> list[str]:
    """Element set spanned by generator strings, by the benchmark's own closure."""
    gens = [tuple(Fraction(part) % 1 for part in text.split(",")) for text in generators]
    m = 1
    for g in gens:
        for e in g:
            m = m * e.denominator // gcd(m, e.denominator)
    scaled = [tuple(int(e * m) for e in g) for g in gens]
    zero = (0,) * len(scaled[0])
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for e in frontier:
            for g in scaled:
                s = tuple((a + b) % m for a, b in zip(e, g))
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return sorted(",".join(str(Fraction(a, m)) for a in e) for e in seen)


def group_digest(group: dict) -> list:
    """[order, invariant factors, hash of the element set]; generator spelling drops out."""
    elements = _closure(group["generators"])
    if len(elements) != group["order"]:
        return ["order-mismatch", group["order"], len(elements)]
    return [group["order"], group["structure"],
            hashlib.sha256(";".join(elements).encode()).hexdigest()[:16]]


def digest(argv: tuple[str, ...], payload: dict):
    """The part of a command's JSON output that must not change."""
    command = argv[0]
    if command == "genus":
        return sorted([t["q"], t["y"], t["re"]] for t in payload["terms"])
    if command == "groups":
        return {"count": payload["count"],
                "groups": sorted(group_digest(g) for g in payload["groups"])}
    if command == "dual":
        return {"group": group_digest(payload["group"]),
                "dual_potential": payload["dual_potential"],
                "dual_group": group_digest(payload["dual_group"])}
    if command == "check":
        return {"checks": [v["check"] for v in payload["checks"]],
                "all_pass": payload["all_pass"]}
    raise ValueError(f"no digest for command {command!r}")
