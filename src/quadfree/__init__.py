"""Maximal quadratic-free sets and intersection cuts for quadratic
inequalities, with oracle-based verifiers."""

from .corefns import (
    CaseData,
    phi_gradient,
    phi_value,
    r_coefficient,
    theta_dual,
    x_beta,
)
from .cuts import CutCertificate, SimplicialCone, intersection_cut, separate
from .freesets import (
    CGLambda,
    CLambda,
    CPhiLambda,
    CRPhiLambda,
    FreeSetDescriptor,
    Halfspace,
    boundary_steps,
    build_free_set,
)
from .oracle import (
    VerificationReport,
    asymptote_sequence,
    check_convexity,
    check_cut_validity,
    check_duality,
    check_freeness,
    check_gradient,
    exposing_witness,
    phi_bruteforce,
    sample_S,
    sample_S_homogeneous,
    sample_quadratic_region,
    structured_slice_points,
)
from .spectral import (
    CanonicalForm,
    QuadraticConstraint,
    canonicalize,
    eigen,
    lift,
)

__version__ = "0.1.0"
