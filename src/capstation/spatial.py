"""Spatial consistency, the pairwise overlap of device boxes: only `check-spatial` loads it."""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Tuple

from .core.bemap import ComponentId
from .core.geometry import intersection_volume
from .core.record import Record
from .station import StationCatalog


class SpatialPair(Record):
    __slots__ = ("device_a", "device_b", "overlap", "shared_volume")

    def __init__(
        self, device_a: ComponentId, device_b: ComponentId, overlap: bool, shared_volume: int
    ):
        self._set(device_a, device_b, overlap, shared_volume)


class SpatialReport(Record):
    __slots__ = ("pairs",)

    def __init__(self, pairs: Tuple[SpatialPair, ...]):
        self._set(pairs)

    @property
    def overlapping(self) -> Tuple[SpatialPair, ...]:
        return tuple(p for p in self.pairs if p.overlap)

    @property
    def has_overlap(self) -> bool:
        return any(p.overlap for p in self.pairs)


def check_spatial(
    catalog: StationCatalog, devices: Optional[Iterable[ComponentId]] = None
) -> SpatialReport:
    """Pairwise overlap of the located devices, or of `devices` (symmetric pairs once)."""
    boxes = catalog.boxes(catalog.devices if devices is None else devices)
    pairs = []
    for a, b in itertools.combinations(boxes, 2):
        shared = intersection_volume(boxes[a], boxes[b])
        pairs.append(SpatialPair(a, b, shared > 0, shared))
    return SpatialReport(tuple(pairs))
