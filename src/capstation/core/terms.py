"""Formula terms that carry a device's spatial variations.

An atom wraps an arbitrary payload; an exclusive-or groups the mutually
exclusive alternatives of a variation set.  Terms are immutable and
hashable.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Atom:
    """A term not composed of other terms."""

    payload: object


@dataclass(frozen=True)
class Xor:
    """Mutual exclusion over one or more terms: exactly one may hold."""

    terms: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("exclusive-or needs at least one term")
