"""Exception hierarchy shared by all diskinterp modules: every error is in
one of three families, from which the CLI's exit status follows."""


class DiskInterpError(Exception):
    """Base class for all library errors."""


class InputError(DiskInterpError):
    """Malformed input (CLI exit status 2)."""


class PreconditionError(DiskInterpError):
    """Input outside the hypotheses of the method asked for (CLI exit status 3)."""


class NumericalError(DiskInterpError):
    """A computation failed on admissible input (CLI exit status 4)."""


class PointOutsideDisk(InputError):
    """A point does not lie strictly inside the unit disk."""


class MalformedJet(InputError):
    """A jet constraint document or list is inconsistent."""


class DiameterOverflow(PreconditionError):
    """A scheme component has pseudohyperbolic diameter too close to 1."""


class NoValidEpsilon(PreconditionError):
    """No epsilon of at least 1e-6 meets the radius recursion."""


class SingularGram(NumericalError):
    """Kernel Gram matrix is numerically singular (condition > 1e12)."""


class InfeasibleConstraints(PreconditionError):
    """Linear constraint system has no solution in the chosen basis."""


class NonConvergence(NumericalError):
    """Iterative minimization failed to reach its tolerance."""


class DegeneratePair(PreconditionError):
    """Two-point interpolation nodes are (numerically) identical."""


class PairTooFar(PreconditionError):
    """A point pair has pseudohyperbolic separation >= 0.99."""


class DuplicatePoint(PreconditionError):
    """Distinct-point input contains a repeated point."""


class QuadratureDivergence(NumericalError):
    """A quadrature tail estimate exceeded its tolerance."""


class PositiveLaplacian(NumericalError):
    """A Laplacian that must be negative was positive at a sample."""


class StencilOutOfDomain(PreconditionError):
    """A finite-difference stencil leaves the admissible region."""


class GridTooCoarse(PreconditionError):
    """Too few grid nodes fall inside a required disk."""


class GridTooLarge(PreconditionError):
    """A grid would need more working memory than the method's cap allows."""


class EmptyGrid(PreconditionError):
    """A radius or center grid required to be nonempty is empty."""
