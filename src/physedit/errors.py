"""Exception hierarchy shared by all physedit modules.

Every error carries a stable integer ``code`` so the CLI can emit
machine-readable error records.
"""


class PhysEditError(Exception):
    """Base class for all package errors."""

    code = 1


class DomainError(PhysEditError):
    """A numeric argument lies outside its physically valid range."""

    code = 10


class ShapeError(PhysEditError):
    """Array arguments have inconsistent shapes."""

    code = 11


class DegenerateInput(PhysEditError):
    """Input is valid but degenerate for the requested operation."""

    code = 12


class MissingMapping(PhysEditError):
    """A part label has no prompt index assigned."""

    code = 13


class NonSmoothPoint(PhysEditError):
    """Gradient probe sits on a hinge or argmax boundary."""

    code = 14


class DegenerateGeometry(PhysEditError):
    """Surface encloses no interior volume (plane, line, ...)."""

    code = 20


class LeakDetected(PhysEditError):
    """Exterior flood fill leaked through the surface shell."""

    code = 21


class GridOverflow(PhysEditError):
    """Particles do not fit inside the simulation grid margin."""

    code = 30


class EmptyScene(PhysEditError):
    """Scene contains no particles."""

    code = 31


class _ParticleError(PhysEditError):
    """An error about one particle; ``particle`` is its index, if known."""

    def __init__(self, message, particle=None):
        self.particle = particle
        super().__init__(message)


class NumericalError(_ParticleError):
    """A matrix decomposition or similar numeric kernel failed."""

    code = 32


class ParticleEscape(_ParticleError):
    """A particle left the grid margin during stepping."""

    code = 33


class WorkBudget(PhysEditError):
    """A request needs more memory or work than a fixed budget allows."""

    code = 34


def check_size(command, count, limit, what):
    """WorkBudget naming the command, the count and the limit if count
    exceeds it; count may be an int past the float range."""
    if count > limit:
        shown = f"{count:.4g}" if count < 1e300 else "over 1e+300"
        raise WorkBudget(f"{command} needs {shown} {what}, more than the "
                         f"limit of {limit}")


class ParseError(PhysEditError):
    """Schedule or scene text failed to parse.

    Carries 1-based ``line`` and ``column`` of the offending token.
    """

    code = 40

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class UnknownTarget(PhysEditError):
    """Schedule references an object or part absent from the scene."""

    code = 41


class ClampViolation(PhysEditError):
    """Requested intervention value lies outside the clamp table."""

    code = 42


class IoError(PhysEditError):
    """File read/write failed; message includes the path."""

    code = 50
