"""Typed errors shared across the package."""


class QpdError(Exception):
    """Base class for domain errors.

    Raised with a template and its values, ``QpdError("gamma={} ...", gamma)``, the text is
    ``template.format(*values)``, formatted only when read; one argument is the text as given.
    """

    def __str__(self) -> str:
        args = self.args
        return args[0].format(*args[1:]) if len(args) > 1 else super().__str__()


class NotAnEquilibrium(QpdError):
    """A cell required to be a Nash equilibrium fails the best-response check."""


class DegenerateDenominator(QpdError):
    """A mixing denominator vanishes; the tie profile is undefined."""


class WrongClass(QpdError):
    """Parameters do not belong to the dilemma class the operation expects."""


class OutOfRegime(QpdError):
    """Parameters lie outside the quantum-dilemma regime (d_g>0 and d_r>0)."""


class OutOfPhase(QpdError):
    """Entanglement angle or parameters lie outside the requested phase."""


class DegenerateBase(QpdError):
    """A sensitivity index is undefined because the base probability vanishes."""
