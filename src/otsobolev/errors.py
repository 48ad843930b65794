"""Exception types shared across the package."""


class OTSobolevError(Exception):
    """Base class for all package errors."""


class CutLocusError(OTSobolevError):
    """Log map requested for a pair at or beyond the cut locus."""


class UnsupportedVariantError(OTSobolevError):
    """Operation not defined for this manifold variant."""


class NonOrthonormalPlaneError(OTSobolevError):
    """Plane basis fails the orthonormality check."""


class UnsupportedChartError(OTSobolevError):
    """Chart specification not among the built-ins."""


class ResolutionTooCoarseError(OTSobolevError):
    """Mesh resolution produced fewer interior nodes than required."""


class DegenerateStencilError(OTSobolevError):
    """Too few chart neighbors for a least-squares fit."""


class LengthMismatchError(OTSobolevError):
    """Field length does not match the node list of the requested region."""


class UnboundedDomainError(OTSobolevError):
    """Monte Carlo sampling on a noncompact manifold without a bounding ball."""


class SizeCapError(OTSobolevError):
    """Exact solver instance exceeds the configured size cap."""


class NoConvergenceError(OTSobolevError):
    """Iterative solver hit the iteration cap before reaching tolerance."""


class NonSymmetricHessianError(OTSobolevError):
    """Hessian input fails the symmetry check."""


class SingularPError(OTSobolevError):
    """det P changed sign before t = 1 (conjugate-point degeneracy)."""


class DenominatorVanishesError(OTSobolevError):
    """Determinant-profile denominator vanished on (0, 1)."""


class ArgOutOfDomainError(OTSobolevError):
    """Comparison-profile argument left the domain of arctan/artanh."""


class NormalizationDriftError(OTSobolevError):
    """t^-m det P failed its small-t normalization check."""


class EmptyDomainError(OTSobolevError):
    """Target-domain constraints admit no samples."""


class HypothesisViolationError(OTSobolevError):
    """Scenario violates the hypotheses of the requested inequality variant."""


class ConfigError(OTSobolevError):
    """Scenario configuration failed to parse or validate."""
