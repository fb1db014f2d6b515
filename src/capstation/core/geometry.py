"""Axis-aligned integer boxes, the sole spatial occupancy primitive.

Coordinates are integer millimetres.  Boxes are stored in normalized corner
form (x1 <= x2 and so on).  Boxes that merely touch on a face, edge or
corner do not overlap: adjacent mounted parts share faces.
"""

from __future__ import annotations

from ..errors import NegativeExtentError
from .record import OrderedRecord


class Box3D(OrderedRecord):
    __slots__ = ("x1", "y1", "z1", "x2", "y2", "z2")

    def __init__(self, x1: int, y1: int, z1: int, x2: int, y2: int, z2: int):
        for name, v in zip(Box3D.__slots__, (x1, y1, z1, x2, y2, z2)):
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"box coordinate {name} must be an integer")
        # normalize corners so that (x1, y1, z1) is the min corner
        self._set(min(x1, x2), min(y1, y2), min(z1, z2), max(x1, x2), max(y1, y2), max(z1, z2))

    @classmethod
    def from_anchor(cls, x: int, y: int, z: int, w: int, d: int, h: int) -> "Box3D":
        """Build a box from its left, front and bottom coordinates plus sizes."""
        if w < 0 or d < 0 or h < 0:
            raise NegativeExtentError(f"negative extent: w={w} d={d} h={h}")
        return cls(x, y, z, x + w, y + d, z + h)

    def volume(self) -> int:
        return (self.x2 - self.x1) * (self.y2 - self.y1) * (self.z2 - self.z1)

    def overlaps(self, other: "Box3D") -> bool:
        """True iff the intersection has positive extent on all three axes.

        Degenerate boxes (zero extent on some axis) overlap nothing, and
        boundary contact does not count.
        """
        return intersection_volume(self, other) > 0


def intersection_volume(a: Box3D, b: Box3D) -> int:
    """Volume of the shared region; zero when the boxes do not overlap."""
    dx = min(a.x2, b.x2) - max(a.x1, b.x1)
    dy = min(a.y2, b.y2) - max(a.y1, b.y1)
    dz = min(a.z2, b.z2) - max(a.z1, b.z1)
    if dx <= 0 or dy <= 0 or dz <= 0:
        return 0
    return dx * dy * dz
