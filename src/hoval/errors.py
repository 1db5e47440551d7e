"""Exception taxonomy shared by all hoval modules."""

from __future__ import annotations


class HovalError(Exception):
    """Base class for every error raised by this package."""


# --- field construction / arithmetic ---------------------------------------

class UnsupportedDegree(HovalError):
    """Extension degree outside the supported range 1..24."""


class IrreducibleCheckFailed(HovalError):
    """Proposed modulus is reducible over GF(2) or has the wrong degree."""


class DivisionByZero(HovalError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


# --- projective geometry -----------------------------------------------------

class ZeroVector(HovalError):
    """The zero vector has no projective point."""


class DegenerateSpan(HovalError):
    """Spanning set does not reach the requested dimension."""


class DimensionMismatch(HovalError):
    """Vectors or subspaces from incompatible ambient spaces."""


class SingularMatrix(HovalError):
    """A linear map has no inverse (gf2.LinearMap.inverse)."""


class EnumerationTooLarge(HovalError):
    """Requested enumeration exceeds the configured operation budget."""

    def __init__(self, estimate: int, budget: int, what: str = "enumeration"):
        super().__init__(f"{what} needs ~{estimate} operations, budget is {budget}")
        self.estimate = estimate
        self.budget = budget
        self.what = what


# --- maps between the three geometries --------------------------------------

class NotAffine(HovalError):
    """Point lies at infinity where an affine point is required."""


# --- hyperovals and direction sets ------------------------------------------

class GcdHypothesisViolated(HovalError):
    """Frobenius exponent i violates gcd(i, hk) = 1 and strict mode is on."""


class TooFewPoints(HovalError):
    """Point set too small for the requested check."""


class NotF2Linear(HovalError):
    """Affine point set is not closed under the GF(2) affine structure."""


# --- pseudoregulus / spread --------------------------------------------------

class NotPseudoregulusCandidate(HovalError):
    """Direction set lacks the long-secant structure of a pseudoregulus."""


class NoLongSecants(HovalError):
    """q = 2: a long secant would carry a single direction, so none is found."""


class TransversalExtractionFailed(HovalError):
    """Zero points do not split into two transversal subspaces."""


class SemilinearFitFailed(HovalError):
    """No candidate exponent reproduces the direction set."""


class SpreadConstructionFailed(HovalError):
    """Canonical spread could not be built in detected coordinates."""


class InvalidSpread(HovalError):
    """Element set is not a spread (wrong sizes or not a partition)."""


# --- C-plane family ----------------------------------------------------------

class CPlaneConstructionFailed(HovalError):
    """C is no coset c0 + W, or some secant space meets W in other than q
    vectors; `witness` names which."""

    def __init__(self, message: str, witness: tuple):
        super().__init__(message)
        self.witness = witness


# --- serialization -----------------------------------------------------------

class ParseError(HovalError):
    """Malformed input file or hex literal."""
