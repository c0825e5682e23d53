"""Exception types raised across the package.

Every error that callers are expected to catch is defined here so that
modules can share them without import cycles.
"""


class IpltError(Exception):
    """Base class for all package-specific errors."""


# --- field ---------------------------------------------------------------


class NotPrime(IpltError):
    """The requested field modulus is not a prime number."""


# --- matrix --------------------------------------------------------------


class ShapeError(IpltError):
    """Matrix dimensions or field moduli do not line up for the operation."""


class DegenerateCauchy(IpltError):
    """Cauchy parameters collide, so some denominator would be zero."""


class BadGrsParameters(IpltError):
    """GRS parameters are invalid: bad sizes, repeated points, or zero multipliers."""


class CompletionFailed(IpltError):
    """No MDS matrix extends the pinned columns a planted trailing block needs."""


class NotGrs(CompletionFailed):
    """A matrix does not generate a generalized Reed-Solomon (GRS) code.

    The planted trailing block extends the demand's GRS code by fresh
    evaluation points, so a demand whose coefficient matrix is MDS but not
    GRS cannot be planted on it.
    """


class InconsistentSystem(IpltError):
    """A linear system has no solution."""


# --- protocol ------------------------------------------------------------


class BadShape(IpltError):
    """Protocol or bound parameters violate 1 <= L <= D <= K or a size pin."""


class NotMds(IpltError):
    """A coefficient matrix that must be MDS is not."""


class FieldTooSmall(IpltError):
    """The field order is below the minimum D + (K mod D) for these parameters."""


class AlignmentSingular(IpltError):
    """The alignment system is degenerate: wrong nullity or a zero coefficient."""


class RecoveryInconsistent(IpltError):
    """The answer rows do not admit a consistent recovery combination."""


# --- bounds --------------------------------------------------------------


class TooLarge(IpltError):
    """The exhaustive optimizer refuses instances beyond its guard."""


# --- store ---------------------------------------------------------------


class BadMagic(IpltError):
    """A store file does not start with the expected magic bytes."""


class VersionUnsupported(IpltError):
    """A store file declares a version this reader does not support."""


class TruncatedFile(IpltError):
    """A store file ends before its declared payload."""


class EntryOutOfRange(IpltError):
    """A stored field element is not reduced modulo the declared order."""


# --- wire ----------------------------------------------------------------


class MalformedPayload(IpltError):
    """A frame payload fails structural validation."""


class FrameTooLarge(IpltError):
    """A frame declares a length beyond the hard cap."""


class RemoteError(IpltError):
    """The server answered with an error frame."""


class BadEndpoint(IpltError, ValueError):
    """An endpoint is not host:port with a port in 0..65535.

    It is also a ValueError, so callers that catch ValueError for a bad
    endpoint keep working.
    """
