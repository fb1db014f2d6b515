"""Streaming verifier for temporal topology rules and spatial consistency.

Each topology edge compiles to a rule: when a cause state-change occurs on
the source device at time tc, the effect state-change must occur on the
target device within the closed window [tc+min, tc+max] (or, for inverse
rules, must not).  Windows may start before the cause (negative minimum);
a bounded history buffer serves those lookbacks.

Decision discipline, shared with the brute-force oracle used in tests:

* On each ingested event, new obligations open first, then the event is
  matched against every open obligation (including the ones it just
  opened), then obligations whose window lies strictly in the past expire.
* The first matching effect event decides a non-inverse obligation:
  before the window it is ViolatedEarly, inside Satisfied, after
  ViolatedLate.  An obligation that expires before any matching effect is
  seen becomes ViolatedMissing.
* Inverse obligations are decided by an in-window match (ViolatedForbidden)
  or by surviving past the window (Satisfied).
* At finalization, obligations whose window has fully elapsed resolve as
  if time had advanced; the rest are reported as Pending.

The optional state-holds mode instead requires the target device's
inferred state to equal (or, inverse, never equal) the effect state
throughout the window.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .core.bemap import ComponentId
from .core.geometry import Box3D, intersection_volume
from .core.graph import AnnotatedGraph, EdgeAnn, TemporalConstraint, TemporalCorrelation
from .devices import DeviceState, PhysicalEvent, state_matches
from .errors import (
    MissingAnnotationError,
    OutOfOrderEventError,
    UnknownDeviceError,
    UnsupportedAnnotationError,
)
from .station import StationCatalog, TopologyName


class Semantics(enum.Enum):
    EVENT_OCCURRENCE = "event"
    STATE_HOLDS = "state"


class SequenceUnit(enum.Enum):
    SECONDS = "seconds"
    MILLISECONDS = "milliseconds"


@dataclass(frozen=True)
class MonitorConfig:
    correlation_tolerance_ms: int = 0
    sequence_unit: SequenceUnit = SequenceUnit.SECONDS
    semantics: Semantics = Semantics.EVENT_OCCURRENCE

    def __post_init__(self):
        if self.correlation_tolerance_ms < 0:
            raise ValueError("tolerance must be non-negative")


class RuleKind(enum.Enum):
    CORRELATION = "correlation"
    CONSTRAINT = "constraint"


@dataclass(frozen=True)
class CompiledRule:
    """One topology edge reduced to concrete window arithmetic."""

    index: int
    topology: str
    source: ComponentId
    target: ComponentId
    cause: DeviceState
    effect: DeviceState
    min_ms: int
    max_ms: int
    inverse: bool
    kind: RuleKind

    def label(self) -> str:
        return (
            f"{self.source} {self.cause.name} ->[{self.min_ms},{self.max_ms}]-> "
            f"{self.target} {self.effect.name}"
        )


def compile_edge(
    edge: EdgeAnn, cfg: MonitorConfig, topology: str = "topology", index: int = 0
) -> CompiledRule:
    ann = edge.annotation
    if ann is None:
        raise MissingAnnotationError(edge)
    if isinstance(ann, TemporalCorrelation):
        if not isinstance(ann.cause, DeviceState) or not isinstance(ann.effect, DeviceState):
            raise UnsupportedAnnotationError("rule states must be device states")
        scale = 1000 if cfg.sequence_unit is SequenceUnit.SECONDS else 1
        delta = ann.duration.value_at_zero() * scale
        tol = cfg.correlation_tolerance_ms
        return CompiledRule(
            index, topology, edge.source, edge.target, ann.cause, ann.effect,
            delta - tol, delta + tol, False, RuleKind.CORRELATION,
        )
    if isinstance(ann, TemporalConstraint):
        if not isinstance(ann.cause, DeviceState) or not isinstance(ann.effect, DeviceState):
            raise UnsupportedAnnotationError("rule states must be device states")
        return CompiledRule(
            index, topology, edge.source, edge.target, ann.cause, ann.effect,
            ann.range.minimum.value_at_zero(), ann.range.maximum.value_at_zero(),
            ann.inverse, RuleKind.CONSTRAINT,
        )
    raise UnsupportedAnnotationError(f"unsupported annotation: {ann!r}")


def compile_topology(
    graph: AnnotatedGraph, cfg: MonitorConfig, topology: str = "topology", start_index: int = 0
) -> List[CompiledRule]:
    return [
        compile_edge(edge, cfg, topology, start_index + i) for i, edge in enumerate(graph.edges)
    ]


def auto_horizon(rules: Iterable[CompiledRule]) -> int:
    """Largest lookback (in ms) needed by any rule with a negative minimum."""
    return max((-r.min_ms for r in rules if r.min_ms < 0), default=0)


class Outcome(enum.Enum):
    SATISFIED = "Satisfied"
    VIOLATED_MISSING = "ViolatedMissing"
    VIOLATED_EARLY = "ViolatedEarly"
    VIOLATED_LATE = "ViolatedLate"
    VIOLATED_FORBIDDEN = "ViolatedForbidden"
    PENDING = "Pending"

    @property
    def is_violation(self) -> bool:
        return self.value.startswith("Violated")


@dataclass(frozen=True)
class Verdict:
    rule: CompiledRule
    cause_event: PhysicalEvent
    outcome: Outcome
    witness: Optional[PhysicalEvent]
    decided_at: int
    window: Tuple[int, int]

    def __post_init__(self):
        if self.outcome is Outcome.VIOLATED_FORBIDDEN and not self.rule.inverse:
            raise ValueError("forbidden outcomes only arise from inverse rules")

    @property
    def cause_time(self) -> int:
        return self.cause_event.timepoint.t


@dataclass
class _Obligation:
    rule: CompiledRule
    cause_event: PhysicalEvent
    lo: int
    hi: int
    # state-holds bookkeeping
    entered: bool = False
    last_target_event: Optional[PhysicalEvent] = None


class StreamMonitor:
    """Single-consumer online checker over a time-ordered event stream."""

    def __init__(
        self,
        rules: Sequence[CompiledRule],
        cfg: Optional[MonitorConfig] = None,
        known_devices: Optional[Iterable[ComponentId]] = None,
    ):
        self.rules = list(rules)
        self.cfg = cfg or MonitorConfig()
        self.horizon = auto_horizon(self.rules)
        self.known = None if known_devices is None else set(known_devices)
        self.last_time: Optional[int] = None
        self.pending: List[_Obligation] = []
        self.history: deque = deque()
        self._pruned_last: Dict[ComponentId, PhysicalEvent] = {}

    # -- shared plumbing ---------------------------------------------------

    def _verdict(
        self,
        ob: _Obligation,
        outcome: Outcome,
        witness: Optional[PhysicalEvent],
        decided_at: int,
        out: List[Verdict],
    ) -> None:
        out.append(
            Verdict(ob.rule, ob.cause_event, outcome, witness, decided_at, (ob.lo, ob.hi))
        )

    def _prune(self, now: int) -> None:
        while self.history and self.history[0].timepoint.t < now - self.horizon:
            old = self.history.popleft()
            self._pruned_last[old.device] = old

    def _state_event_at(self, device: ComponentId, t: int) -> Optional[PhysicalEvent]:
        """Latest retained event of `device` with timepoint <= t."""
        for ev in reversed(self.history):
            if ev.device == device and ev.timepoint.t <= t:
                return ev
        old = self._pruned_last.get(device)
        if old is not None and old.timepoint.t <= t:
            return old
        return None

    def _rules_caused_by(self, event: PhysicalEvent) -> Iterator[CompiledRule]:
        """Rules, in order, whose cause the event is; both semantics open
        their obligations from these."""
        for rule in self.rules:
            if rule.source == event.device and state_matches(rule.cause, event.state):
                yield rule

    # -- ingest ------------------------------------------------------------

    def ingest(self, event: PhysicalEvent) -> List[Verdict]:
        """Feed the next event; returns the verdicts it decided."""
        if self.known is not None and event.device not in self.known:
            raise UnknownDeviceError(event.device)
        t = event.timepoint.t
        if self.last_time is not None and t < self.last_time:
            raise OutOfOrderEventError(
                f"event at {t} after event at {self.last_time}"
            )
        self.last_time = t
        self._prune(t)
        out: List[Verdict] = []
        if self.cfg.semantics is Semantics.EVENT_OCCURRENCE:
            self._ingest_event_mode(event, t, out)
        else:
            self._ingest_state_mode(event, t, out)
        self.history.append(event)
        return out

    # -- event-occurrence semantics -----------------------------------------

    def _open_event_mode(self, event: PhysicalEvent, t: int, out: List[Verdict]) -> None:
        for rule in self._rules_caused_by(event):
            ob = _Obligation(rule, event, t + rule.min_ms, t + rule.max_ms)
            if rule.min_ms < 0:
                hit = None
                for past in self.history:  # oldest first
                    if (
                        past.device == rule.target
                        and state_matches(rule.effect, past.state)
                        and ob.lo <= past.timepoint.t <= ob.hi
                    ):
                        hit = past
                        break
                if hit is not None:
                    outcome = Outcome.VIOLATED_FORBIDDEN if rule.inverse else Outcome.SATISFIED
                    self._verdict(ob, outcome, hit, t, out)
                    continue
            self.pending.append(ob)

    def _ingest_event_mode(self, event: PhysicalEvent, t: int, out: List[Verdict]) -> None:
        self._open_event_mode(event, t, out)
        survivors: List[_Obligation] = []
        for ob in self.pending:
            rule = ob.rule
            if rule.target == event.device and state_matches(rule.effect, event.state):
                if rule.inverse:
                    if ob.lo <= t <= ob.hi:
                        self._verdict(ob, Outcome.VIOLATED_FORBIDDEN, event, t, out)
                        continue
                else:
                    if t < ob.lo:
                        self._verdict(ob, Outcome.VIOLATED_EARLY, event, t, out)
                    elif t <= ob.hi:
                        self._verdict(ob, Outcome.SATISFIED, event, t, out)
                    else:
                        self._verdict(ob, Outcome.VIOLATED_LATE, event, t, out)
                    continue
            if ob.hi < t:  # window elapsed with no deciding effect
                outcome = Outcome.SATISFIED if rule.inverse else Outcome.VIOLATED_MISSING
                self._verdict(ob, outcome, None, t, out)
                continue
            survivors.append(ob)
        self.pending = survivors

    # -- state-holds semantics ----------------------------------------------

    def _enter_state_mode(
        self, ob: _Obligation, decided_at: int, out: List[Verdict]
    ) -> bool:
        """Evaluate the state at the window start; True when ob stays open."""
        ob.entered = True
        start = ob.last_target_event
        held = start is not None and state_matches(ob.rule.effect, start.state)
        if ob.rule.inverse:
            if held:
                self._verdict(ob, Outcome.VIOLATED_FORBIDDEN, start, decided_at, out)
                return False
        elif not held:
            self._verdict(ob, Outcome.VIOLATED_MISSING, start, decided_at, out)
            return False
        return True

    def _open_state_mode(self, event: PhysicalEvent, t: int, out: List[Verdict]) -> None:
        for rule in self._rules_caused_by(event):
            ob = _Obligation(rule, event, t + rule.min_ms, t + rule.max_ms)
            ob.last_target_event = self._state_event_at(rule.target, min(ob.lo, t))
            if ob.lo < t:
                # window opened in the past: replay retained in-window events
                if not self._enter_state_mode(ob, t, out):
                    continue
                dead = False
                for past in self.history:
                    pt = past.timepoint.t
                    if past.device != rule.target or not (ob.lo < pt <= min(ob.hi, t)):
                        continue
                    held = state_matches(rule.effect, past.state)
                    if rule.inverse and held:
                        self._verdict(ob, Outcome.VIOLATED_FORBIDDEN, past, t, out)
                        dead = True
                        break
                    if not rule.inverse and not held:
                        self._verdict(ob, Outcome.VIOLATED_MISSING, past, t, out)
                        dead = True
                        break
                if dead:
                    continue
                if ob.hi < t:  # window already fully elapsed and it held
                    self._verdict(ob, Outcome.SATISFIED, None, t, out)
                    continue
            self.pending.append(ob)

    def _ingest_state_mode(self, event: PhysicalEvent, t: int, out: List[Verdict]) -> None:
        self._open_state_mode(event, t, out)
        survivors: List[_Obligation] = []
        for ob in self.pending:
            rule = ob.rule
            if not ob.entered and t > ob.lo:
                if not self._enter_state_mode(ob, t, out):
                    continue
            if ob.entered and ob.hi < t:
                self._verdict(ob, Outcome.SATISFIED, None, t, out)
                continue
            if event.device == rule.target:
                if not ob.entered:
                    if t <= ob.lo:
                        ob.last_target_event = event
                    survivors.append(ob)
                    continue
                if t <= ob.hi:
                    held = state_matches(rule.effect, event.state)
                    if rule.inverse and held:
                        self._verdict(ob, Outcome.VIOLATED_FORBIDDEN, event, t, out)
                        continue
                    if not rule.inverse and not held:
                        self._verdict(ob, Outcome.VIOLATED_MISSING, event, t, out)
                        continue
            survivors.append(ob)
        self.pending = survivors

    # -- finalization --------------------------------------------------------

    def finalize(self, end_time: int) -> List[Verdict]:
        """Resolve obligations as if time advanced to end_time.

        Windows that extend beyond end_time are reported as Pending.
        """
        if self.last_time is not None and end_time < self.last_time:
            raise ValueError("end time precedes the last ingested event")
        out: List[Verdict] = []
        event_mode = self.cfg.semantics is Semantics.EVENT_OCCURRENCE
        for ob in self.pending:
            if event_mode:
                if ob.hi < end_time:
                    outcome = (
                        Outcome.SATISFIED if ob.rule.inverse else Outcome.VIOLATED_MISSING
                    )
                    self._verdict(ob, outcome, None, end_time, out)
                else:
                    self._verdict(ob, Outcome.PENDING, None, end_time, out)
                continue
            # state-holds: the whole timeline is known up to end_time
            if not ob.entered and end_time >= ob.lo:
                if not self._enter_state_mode(ob, end_time, out):
                    continue
            if ob.entered and end_time >= ob.hi:
                self._verdict(ob, Outcome.SATISFIED, None, end_time, out)
            else:
                self._verdict(ob, Outcome.PENDING, None, end_time, out)
        self.pending = []
        return out


def _rules_for(
    catalog: StationCatalog,
    topology: Union[AnnotatedGraph, TopologyName, str],
    cfg: MonitorConfig,
) -> List[CompiledRule]:
    if isinstance(topology, AnnotatedGraph):
        return compile_topology(topology, cfg)
    names: List[TopologyName]
    if topology == "all":
        names = list(TopologyName)
    elif isinstance(topology, TopologyName):
        names = [topology]
    else:
        names = [TopologyName(topology)]
    rules: List[CompiledRule] = []
    for name in names:
        rules.extend(
            compile_topology(catalog.topologies[name], cfg, name.value, start_index=len(rules))
        )
    return rules


def check_trace(
    catalog: StationCatalog,
    topology: Union[AnnotatedGraph, TopologyName, str],
    trace: Sequence[PhysicalEvent],
    cfg: Optional[MonitorConfig] = None,
) -> List[Verdict]:
    """Fold the whole trace through a monitor and finalize at its last event.

    Verdicts are ordered by decision time, then rule, then cause time.
    """
    cfg = cfg or MonitorConfig()
    rules = _rules_for(catalog, topology, cfg)
    mon = StreamMonitor(rules, cfg, known_devices=catalog.devices)
    verdicts: List[Verdict] = []
    for event in trace:
        verdicts.extend(mon.ingest(event))
    if trace:
        verdicts.extend(mon.finalize(trace[-1].timepoint.t))
    return sorted(
        verdicts, key=lambda v: (v.decided_at, v.rule.index, v.cause_time, v.outcome.value)
    )


def violations(verdicts: Iterable[Verdict]) -> List[Verdict]:
    return [v for v in verdicts if v.outcome.is_violation]


# -- spatial consistency ------------------------------------------------------


@dataclass(frozen=True)
class SpatialPair:
    device_a: ComponentId
    device_b: ComponentId
    overlap: bool
    shared_volume: int


@dataclass(frozen=True)
class SpatialReport:
    pairs: Tuple[SpatialPair, ...]

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
    boxes: Dict[ComponentId, Box3D] = {}
    pool = list(devices) if devices is not None else list(catalog.devices)
    for device in pool:
        box = catalog.box(device)
        if box is not None:
            boxes[device] = box
    pairs = []
    for a, b in itertools.combinations(boxes, 2):
        shared = intersection_volume(boxes[a], boxes[b])
        pairs.append(SpatialPair(a, b, boxes[a].overlaps(boxes[b]), shared))
    return SpatialReport(tuple(pairs))
