"""Exception types shared across the package."""


class TreeShiftError(Exception):
    """Base class for package-specific errors; ``vertex`` is where one arose, if known."""

    def __init__(self, message, vertex=None):
        super().__init__(message)
        self.vertex = vertex


class StructureError(TreeShiftError):
    """Malformed tree structure: cycles, multiple roots, unknown vertices."""


class NonnegativityError(TreeShiftError, ValueError):
    """A series term violated the nonnegativity contract."""


class CertificateError(TreeShiftError):
    """A claimed certificate is contradicted by the data it describes."""


class EvaluationError(TreeShiftError):
    """A derived weight could not be evaluated at a vertex."""


class OutOfDomainError(TreeShiftError):
    """Operator applied to a vector outside its domain.

    Carries the vertex whose aggregate fails and, when available, the
    divergence certificate proving the failure.
    """

    def __init__(self, message, vertex=None, certificate=None):
        super().__init__(message, vertex)
        self.certificate = certificate


class UnsupportedRepresentationError(TreeShiftError):
    """Bundle expansion requested at a vertex with infinitely many children."""


class MixedBasisError(TreeShiftError):
    """Bundle terms from two different weight systems combined in one vector."""


class SingularWeightError(TreeShiftError):
    """0/0 form in the adjoint-transform formula; no limit is guessed."""


class NoWitnessError(TreeShiftError):
    """The candidate vector lies in the adjoint's kernel."""


class OracleError(TreeShiftError):
    """Dense oracle cannot handle the request."""
