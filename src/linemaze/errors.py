"""Exception hierarchy for the linemaze package, and the one table of the
CLI's exit codes. Each class carries its code as ``exit_code``:

1  bad input: a refused argument (``ArgumentError``), an unreadable file,
   an invalid maze (``MazeSyntaxError``, ``MazeValidationError``)
2  the robot model failed (``ExplorationError``): budget, divergence, drift
3  internal contradictions (``InconsistencyError``, ``GraphQueryError``),
   and, with a traceback, any other exception: a defect in the package
"""


class LinemazeError(Exception):
    """Base class for all package errors."""
    exit_code = 1


class ArgumentError(LinemazeError, ValueError):
    """A refused argument; still a ``ValueError`` to code that catches one."""


class MazeSyntaxError(LinemazeError):
    """Malformed maze file; carries the 1-based line number."""

    def __init__(self, line, message):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


class MazeValidationError(LinemazeError):
    """Structurally valid file describing an invalid maze."""


class ExplorationError(LinemazeError):
    """The robot could not finish: budget exceeded, drift too large, etc."""
    exit_code = 2


class MotionDivergenceError(ExplorationError):
    """Motion parameters never converge onto the line."""


class InconsistencyError(LinemazeError):
    """Internal contradiction: a state that valid inputs cannot produce."""
    exit_code = 3


class CalibrationError(InconsistencyError):
    """Correction constants disagree with the encoder log they are applied to."""


class ArcDomainError(InconsistencyError):
    """Arc/chord geometry called outside its domain (e.g. height > radius)."""


class GraphQueryError(LinemazeError):
    """Unknown vertex or unreachable target in a graph query."""
    exit_code = 3
