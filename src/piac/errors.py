"""Exception hierarchy shared by all piac modules."""


class PiacError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PiacError):
    """An array argument has the wrong length or shape for the network."""


class DisconnectedNetwork(PiacError):
    """The power graph (or the communication subgraph) is not connected."""


class CaseFormatError(PiacError):
    """A case file violates the grammar; carries file/line context."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)


class GainConstraintError(PiacError):
    """Control gains violate k2 >= 4*k1, positivity or finiteness."""


class NoControllers(PiacError):
    """Dispatch requested on a network with an empty controller set."""


class DegenerateModel(PiacError):
    """The model has no damping to define a synchronized frequency."""


class UnsupportedForLinearPath(PiacError):
    """Linearized closed-loop assembly needs a machine-only network."""


class UnsupportedForModalPath(PiacError):
    """Modal decoupling needs homogeneous parameters."""


class UnstableSystem(PiacError):
    """A Lyapunov solve was requested for a non-Hurwitz matrix."""


class SolverAccuracyError(PiacError):
    """A numerical solve finished but failed its residual check."""


class DomainError(PiacError):
    """A scalar/matrix parameter is outside the admissible domain."""


class DAESolveError(PiacError):
    """Newton iteration on the algebraic network constraints failed."""


class NumericalBlowup(PiacError):
    """A trajectory left the finite range (integration diverged)."""


class InsufficientHorizon(PiacError):
    """A trace is too short for the requested metric window."""
