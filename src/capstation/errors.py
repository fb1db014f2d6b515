"""Exception types shared across the toolkit.

Construction-time invariant breaches (bad field values, malformed literals)
raise plain ValueError/TypeError; the classes below cover contract errors of
the public operations, so callers can catch them precisely.
"""

from __future__ import annotations


class ModelError(Exception):
    """Base class for all domain errors raised by this package."""


class DuplicateKeyError(ModelError):
    """A key-value map was built with the same key twice."""

    def __init__(self, key):
        super().__init__(f"duplicate key: {key}")
        self.key = key


class NegativeExtentError(ModelError):
    """A box was anchored with a negative width, depth or height."""


class DontCareInputError(ModelError):
    """A signal mapping was applied to the don't-care signal."""


class AbstractStateInEventError(ModelError):
    """A live event was constructed with a don't-care (abstract) state."""


class MissingAnnotationError(ModelError):
    """A topology edge that requires an annotation has none."""

    def __init__(self, edge):
        super().__init__(f"edge without annotation: {edge}")
        self.edge = edge


class UnsupportedAnnotationError(ModelError):
    """An edge annotation is of a type this operation cannot handle."""


class UnknownActuatorError(ModelError):
    """A command or fault names an actuator absent from the catalog."""

    def __init__(self, device):
        super().__init__(f"unknown actuator: {device}")
        self.device = device


class UnknownDeviceError(ModelError):
    """An event or fault names a device absent from the catalog."""

    def __init__(self, device, path=None):
        super().__init__(f"{path + ': ' if path else ''}unknown device: {device}")
        self.device = device


class TimeRegressionError(ModelError):
    """A command was issued for a time earlier than the simulation clock."""


class OutOfOrderEventError(ModelError):
    """An event stream or trace file is not ordered by timepoint."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class MalformedJsonError(ModelError):
    """Input text is not valid JSON."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class UnknownTypeTagError(ModelError):
    """A JSON object carries a type tag this decoder does not know."""

    def __init__(self, tag, path):
        super().__init__(f"{path}: unknown type tag: {tag!r}")
        self.tag = tag


class SchemaViolationError(ModelError):
    """A JSON object misses required keys or has a wrong shape."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
