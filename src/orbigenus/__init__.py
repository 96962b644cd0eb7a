"""Orbifold elliptic genus of invertible polynomial potentials.

Exact fractional-exponent q-expansions with cyclotomic phase arithmetic, a
numeric theta-function evaluation path, finite abelian symmetry-group
duality, and mechanical verification of holomorphy, the transformation laws,
and the duality of mirror models.
"""

from .exactmath import (
    SingularMatrixError,
    cyclotomic_polynomial,
    invert_rational_matrix,
)
from .genus import (
    EllValue,
    GenusSeries,
    JacobiBoundError,
    NearPoleError,
    NumericGenus,
    RationalityError,
    cone_supertrace_series,
    ell_genus_numeric,
    ell_genus_series,
    sector_supertrace_series,
)
from .oracle import ModeSpec, StateCapError, untwisted_states
from .potential import (
    Atom,
    AtomDecomposition,
    Charges,
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
from .qseries import Windows
from .symmetry import (
    AdmissibilityError,
    PhaseVector,
    SymmetryGroup,
    admissible_subgroups,
    aut_group,
    dual_group,
    grading_element,
    grading_subgroup,
    sl_subgroup,
)
from .theta import ThetaRangeError, theta_value
from .verify import (
    HolomorphyReport,
    SectorPole,
    Verdict,
    check_holomorphy,
    check_jacobi_transformations,
    check_mirror,
    check_oracle,
    check_spectral_flow,
    check_star_substitution,
    check_theta_identities,
    holomorphy_certificate,
    jacobi_laws,
)

__version__ = "0.1.0"
