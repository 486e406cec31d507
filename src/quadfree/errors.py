"""Exception types shared across the package."""


class QuadfreeError(Exception):
    """Base class for all package-specific errors."""


class NonSymmetricError(QuadfreeError):
    """A matrix that must be symmetric is not."""


class NotSeparableError(QuadfreeError):
    """The given point already satisfies the quadratic constraint, so
    there is nothing to separate."""


class DegenerateQuadraticError(QuadfreeError):
    """Every eigenvalue of the lifted matrix vanishes at the zero
    tolerance, so the quadratic has no canonical form."""


class NotUnitError(QuadfreeError):
    """A direction that must lie on the unit sphere does not."""


class ApexNotInteriorError(QuadfreeError):
    """The cone apex is not in the interior of the free set, so no
    intersection cut through boundary points exists."""


class AllRaysRecessionError(QuadfreeError):
    """Every ray of the cone stays inside the free set forever; the
    intersection cut degenerates."""


class UncertifiedStepError(QuadfreeError):
    """No candidate step along a ray has its margin in [−tol, 0]."""


class EmptySError(QuadfreeError):
    """The constraint is infeasible everywhere (the canonical form has no
    y block), so separation is vacuous."""


class SamplingExhaustedError(QuadfreeError):
    """Rejection sampling hit its attempt budget without enough points."""


class PreconditionViolatedError(QuadfreeError):
    """A documented precondition of a verification routine fails."""


class InfeasibleLPError(QuadfreeError):
    """The linear relaxation has no feasible point."""


class UnboundedLPError(QuadfreeError):
    """The linear relaxation is unbounded in the objective direction."""


class DegenerateVertexError(QuadfreeError):
    """The cone of the LP vertex is singular (a coordinate no tight row fixes)
    or its rays R miss −A_N⁻¹ (‖A_N R + I‖ > 1e-6): no simplicial cone."""


class ParseError(QuadfreeError):
    """An instance file violates the expected schema, or describes a
    constraint floats cannot represent: its lifted matrix has no
    eigendecomposition, or its mapped point w̄ = M(s̄, 1) is not finite."""
