"""Exception types shared across the package, and its finite-number check."""

import math


class InvalidInput(ValueError):
    """Arguments violate an operation's preconditions; ``field`` names the
    offending argument when there is one."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def finite_number(value, field=None, integer=False):
    """A finite JSON number, not a bool (Python's json also reads NaN and
    Infinity); InvalidInput at field otherwise."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)
    if not ok or (integer and int(value) != value):
        kind = "an integer" if integer else "a number"
        raise InvalidInput(f"expected {kind}, got {value!r}", field)
    return int(value) if integer else float(value)


class MeshMismatch(InvalidInput):
    """Node sets or fields built on different meshes were combined."""


class IncompatiblePair(Exception):
    """E is not contained in F; the capacity is +infinity by convention."""

    def __init__(self, message, e_name="E", f_name="F"):
        super().__init__(message)
        self.e_name = e_name
        self.f_name = f_name


class SolverDiverged(RuntimeError):
    """Newton failed to reach the residual target.

    Carries the best iterate found and the residual history so callers can
    build partial reports.
    """

    def __init__(self, message, field=None, history=None):
        super().__init__(message)
        self.field = field
        self.history = list(history) if history is not None else []


class ConfigError(ValueError):
    """Experiment configuration failed schema validation."""

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
