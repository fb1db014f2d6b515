"""Component identities, tagged values, and the key-value map construct.

A description map behaves like a finite map with unique keys.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Tuple

from ..errors import DuplicateKeyError
from .geometry import Box3D
from .record import OrderedRecord, Record


class ComponentId(OrderedRecord):
    """Unique name of a device or concept; equality is exact string equality."""

    __slots__ = ("id",)

    def __init__(self, id: str):
        if not isinstance(id, str) or not id:
            raise ValueError("component id must be a non-empty string")
        self._setters[0](self, id)

    # written out: the simulator hashes one per command and event, and the
    # monitor compares one per event and open obligation
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.id == other.id
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.id,))

    def __str__(self) -> str:
        return self.id


class ValueKind(enum.Enum):
    STRING = "string"
    INTEGER = "integer"
    BOX = "box"
    VARIATIONS = "variations"
    SIGNAL_MAP = "signal-mapping"
    STATE = "state"


class ComponentValue(Record):
    """Tagged scalar attached to a description key.

    The tag is derived from the payload type: string, integer, occupancy
    box, variation set (mutually exclusive positions), signal mapping, or a
    device state.  Exactly one payload is present by construction.
    """

    __slots__ = ("value",)

    def __init__(self, value: object):
        self._set(value)
        self.kind  # reject unsupported payloads eagerly

    @property
    def kind(self) -> ValueKind:
        v = self.value
        if isinstance(v, str):
            return ValueKind.STRING
        if isinstance(v, bool):
            raise TypeError("boolean payloads are not supported")
        if isinstance(v, int):
            return ValueKind.INTEGER
        if isinstance(v, Box3D):
            return ValueKind.BOX
        # device-layer payloads, matched structurally to keep this module
        # independent of the device metamodel
        if hasattr(v, "positions"):
            return ValueKind.VARIATIONS
        if hasattr(v, "high") and hasattr(v, "low"):
            return ValueKind.SIGNAL_MAP
        if hasattr(v, "name") and hasattr(v, "signal"):
            return ValueKind.STATE
        raise TypeError(f"unsupported component value payload: {v!r}")


Entry = Tuple[ComponentId, ComponentValue]


class BeMapKV(Record):
    """Ordered key-value entries with pairwise-distinct keys."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple = ()):
        entries = tuple(entries)
        seen = set()
        for key, _ in entries:
            if key in seen:
                raise DuplicateKeyError(key)
            seen.add(key)
        self._set(entries)

    def get(self, key: ComponentId) -> Optional[ComponentValue]:
        """Value of the unique entry with a matching key, or None."""
        for k, v in self.entries:
            if k == key:
                return v
        return None


def build_bemap(entries: Iterable[Entry]) -> BeMapKV:
    """Build a map, rejecting duplicate keys and preserving entry order."""
    return BeMapKV(tuple(entries))
