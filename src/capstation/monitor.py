"""Streaming verifier for temporal topology rules and spatial consistency.

Each topology edge compiles to a rule: when a cause state-change occurs on
the source device at time tc, the effect state-change must occur on the
target device within the closed window [tc+min, tc+max] (or, for inverse
rules, must not).  Windows may start before the cause (negative minimum);
the retained events of the targets of such rules, kept back to the
largest lookback, serve them.

Each semantics is one step function, step(ob, event, t), which returns the
(outcome, witness) deciding an open obligation, or None while it stays open.
The monitor steps obligations on three occasions, in the same discipline as
the brute-force oracle used in tests:

* Opening: a cause event opens one obligation per rule it causes, stepped
  first through retained events of its target (which ones depends on the
  semantics, below); a decision there is taken at the cause time.
* Ingest: the event steps the open obligations whose target is its device,
  the ones just opened included, and those whose wake time has come.  The
  wake time is the first time at which an event on another device can
  decide or change an obligation: hi + 1 in event occurrence; in state
  holds lo + 1 until the window start is settled, then hi + 1.  Before it,
  such a step returns None and changes nothing, so skipping it gives the
  verdicts that stepping every open obligation gives.  The verdicts of one
  ingest call come in no promised order; check_trace sorts them, holding
  back only those of the current timestamp.
* Finalize: one more step at the end time, with no event; whatever is still
  open is reported as Pending.

Event occurrence (the default): the first matching effect event decides a
non-inverse obligation: before the window ViolatedEarly, inside Satisfied,
after ViolatedLate; a window that elapses first is ViolatedMissing.  An
inverse obligation is decided by an in-window match (ViolatedForbidden) or
by its window elapsing (Satisfied).  Opening looks back only for a negative
minimum, and only at events inside the window.

State holds: the target device's inferred state must equal (inverse: never
equal) the effect state throughout the window.  Opening steps through all
the target's retained events, which also settle the state at the window
start.  A live event at t settles the states before t and the end of the
stream settles t itself, so at finalize both window ends are inclusive.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .core.bemap import ComponentId
from .core.geometry import intersection_volume
from .core.graph import AnnotatedGraph, EdgeAnn, TemporalConstraint, TemporalCorrelation
from .devices import DeviceState, PhysicalEvent, state_matches
from .errors import OutOfOrderEventError, UnknownDeviceError, UnsupportedAnnotationError
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
    if not isinstance(ann, (TemporalCorrelation, TemporalConstraint)):
        raise UnsupportedAnnotationError(f"unsupported annotation: {ann!r}")
    if not isinstance(ann.cause, DeviceState) or not isinstance(ann.effect, DeviceState):
        raise UnsupportedAnnotationError("rule states must be device states")
    if isinstance(ann, TemporalCorrelation):
        scale = 1000 if cfg.sequence_unit is SequenceUnit.SECONDS else 1
        delta = ann.duration.offset_ms * scale
        tol = cfg.correlation_tolerance_ms
        return CompiledRule(
            index, topology, edge.source, edge.target, ann.cause, ann.effect,
            delta - tol, delta + tol, False, RuleKind.CORRELATION,
        )
    return CompiledRule(
        index, topology, edge.source, edge.target, ann.cause, ann.effect,
        ann.range.minimum.offset_ms, ann.range.maximum.offset_ms,
        ann.inverse, RuleKind.CONSTRAINT,
    )


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


@dataclass(eq=False)
class _Obligation:
    rule: CompiledRule
    cause_event: PhysicalEvent
    lo: int
    hi: int
    # state holds only: whether the window start is checked, and the state there
    entered: bool = False
    last_target_event: Optional[PhysicalEvent] = None


_Decision = Optional[Tuple[Outcome, Optional[PhysicalEvent]]]


def _step_event(ob: _Obligation, event: Optional[PhysicalEvent], t: int) -> _Decision:
    """Event occurrence: a matching effect event decides, an elapsed window expires."""
    rule = ob.rule
    matched = event is not None and event.device == rule.target
    if matched and state_matches(rule.effect, event.state):
        if not rule.inverse:
            if t < ob.lo:
                return Outcome.VIOLATED_EARLY, event
            return (Outcome.SATISFIED if t <= ob.hi else Outcome.VIOLATED_LATE), event
        if ob.lo <= t <= ob.hi:
            return Outcome.VIOLATED_FORBIDDEN, event
    if ob.hi < t:
        return (Outcome.SATISFIED if rule.inverse else Outcome.VIOLATED_MISSING), None
    return None


def _wake_event(ob: _Obligation) -> int:
    """First time an event on another device decides ob: once its window elapsed."""
    return ob.hi + 1


def _step_state(ob: _Obligation, event: Optional[PhysicalEvent], t: int) -> _Decision:
    """State holds: the target's state at the window start, then each of its
    in-window events, must match the effect (inverse: must not)."""
    rule = ob.rule
    broken = Outcome.VIOLATED_FORBIDDEN if rule.inverse else Outcome.VIOLATED_MISSING
    # a live event at t leaves later events at t to come; the end of the
    # stream settles t itself
    settled = t if event is None else t - 1
    if not ob.entered and settled >= ob.lo:
        ob.entered = True
        start = ob.last_target_event
        if (start is not None and state_matches(rule.effect, start.state)) == rule.inverse:
            return broken, start
    if ob.entered and settled >= ob.hi:
        return Outcome.SATISFIED, None
    if event is None or event.device != rule.target:
        return None
    if not ob.entered:
        ob.last_target_event = event
    elif state_matches(rule.effect, event.state) == rule.inverse:
        return broken, event
    return None


def _wake_state(ob: _Obligation) -> int:
    """First time an event on another device steps ob: it settles the window
    start at lo + 1 (entering it), then the window end at hi + 1."""
    return (ob.hi if ob.entered else ob.lo) + 1


# each semantics: its step function, and the wake time of an open obligation,
# before which stepping it with another device's event returns None and
# changes nothing
_STEPS = {
    Semantics.EVENT_OCCURRENCE: (_step_event, _wake_event),
    Semantics.STATE_HOLDS: (_step_state, _wake_state),
}


class StreamMonitor:
    """Single-consumer online checker over a time-ordered event stream."""

    def __init__(
        self,
        rules: Sequence[CompiledRule],
        cfg: Optional[MonitorConfig] = None,
        known_devices: Optional[Iterable[ComponentId]] = None,
    ):
        rules = list(rules)
        self._step, self._wake = _STEPS[(cfg or MonitorConfig()).semantics]
        self.horizon = auto_horizon(rules)
        # every dict below is keyed by ComponentId.id: a str caches its hash
        self.known = None if known_devices is None else {d.id for d in known_devices}
        self._rules_by_source: Dict[str, List[CompiledRule]] = {}
        for rule in rules:
            self._rules_by_source.setdefault(rule.source.id, []).append(rule)
        self.last_time: Optional[int] = None
        # open obligations of each rule target, in opening order (a dict as an
        # ordered set, so that removal is O(1))
        self._open_on: Dict[str, Dict[_Obligation, None]] = {r.target.id: {} for r in rules}
        # one (wake time, tie-break, obligation) entry per open obligation,
        # its time never later than the obligation's wake time; entries of
        # decided obligations are dropped when popped
        self._wakes: List[Tuple[int, int, _Obligation]] = []
        self._tie = itertools.count()
        # retained events of each rule target that opening steps through:
        # in state holds every target's, in event occurrence those of
        # targets of a rule with a negative minimum
        self._history: Dict[str, deque] = {
            r.target.id: deque() for r in rules if self._step is _step_state or r.min_ms < 0
        }
        self._pruned_last: Dict[str, PhysicalEvent] = {}

    def _decide(
        self, ob: _Obligation, outcome: Outcome, witness: Optional[PhysicalEvent], at: int
    ) -> Verdict:
        """Every verdict is built here, from the obligation it decides."""
        return Verdict(ob.rule, ob.cause_event, outcome, witness, at, (ob.lo, ob.hi))

    def _retained(self, device: str, now: int) -> Optional[deque]:
        """The retained events of a rule target, pruned to the horizon before `now`."""
        events = self._history.get(device)
        if events is not None:
            cutoff = now - self.horizon
            while events and events[0].timepoint.t < cutoff:
                self._pruned_last[device] = events.popleft()
        return events

    def _lookback(self, ob: _Obligation, retained: Optional[deque]) -> Iterable[PhysicalEvent]:
        """Retained events of ob's target that opening steps ob through, oldest first."""
        if self._step is _step_state:  # those up to the window start settle its state
            return retained
        if ob.rule.min_ms >= 0:
            return ()
        return (p for p in retained if ob.lo <= p.timepoint.t <= ob.hi)

    def _schedule(self, ob: _Obligation) -> None:
        heapq.heappush(self._wakes, (self._wake(ob), next(self._tie), ob))

    def _open(self, cause: PhysicalEvent, t: int, out: List[Verdict]) -> None:
        for rule in self._rules_by_source.get(cause.device.id, ()):
            if not state_matches(rule.cause, cause.state):
                continue
            target = rule.target.id
            retained = self._retained(target, t)
            ob = _Obligation(
                rule, cause, t + rule.min_ms, t + rule.max_ms,
                last_target_event=self._pruned_last.get(target),
            )
            for past in self._lookback(ob, retained):
                decided = self._step(ob, past, past.timepoint.t)
                if decided is not None:
                    out.append(self._decide(ob, *decided, t))
                    break
            else:
                self._open_on[target][ob] = None
                self._schedule(ob)

    def ingest(self, event: PhysicalEvent) -> List[Verdict]:
        """Feed the next event; returns the verdicts it decided, in no promised order."""
        device = event.device.id
        if self.known is not None and device not in self.known:
            raise UnknownDeviceError(event.device)
        t = event.timepoint.t
        if self.last_time is not None and t < self.last_time:
            raise OutOfOrderEventError(f"event at {t} after event at {self.last_time}")
        self.last_time = t
        out: List[Verdict] = []
        self._open(event, t, out)
        step = self._step
        mine = self._open_on.get(device)
        if mine:
            for ob in list(mine):
                decided = step(ob, event, t)
                if decided is not None:
                    del mine[ob]
                    out.append(self._decide(ob, *decided, t))
        wakes = self._wakes
        while wakes and wakes[0][0] <= t:
            ob = heapq.heappop(wakes)[2]
            bucket = self._open_on[ob.rule.target.id]
            if ob not in bucket:
                continue
            # a step on its own device may have moved its wake time past t
            if self._wake(ob) <= t:
                decided = step(ob, event, t)
                if decided is not None:
                    del bucket[ob]
                    out.append(self._decide(ob, *decided, t))
                    continue
            self._schedule(ob)
        retained = self._retained(device, t)
        if retained is not None:
            retained.append(event)
        return out

    def finalize(self, end_time: int) -> List[Verdict]:
        """Resolve obligations as if time advanced to end_time.

        Windows that extend beyond end_time are reported as Pending.
        """
        if self.last_time is not None and end_time < self.last_time:
            raise ValueError("end time precedes the last ingested event")
        out: List[Verdict] = []
        for bucket in self._open_on.values():
            for ob in bucket:
                outcome, witness = self._step(ob, None, end_time) or (Outcome.PENDING, None)
                out.append(self._decide(ob, outcome, witness, end_time))
            bucket.clear()
        self._wakes.clear()
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


def _verdict_order(v: Verdict) -> tuple:
    return v.decided_at, v.rule.index, v.cause_time, v.outcome.value


def check_trace(
    catalog: StationCatalog,
    topology: Union[AnnotatedGraph, TopologyName, str],
    trace: Iterable[PhysicalEvent],
    cfg: Optional[MonitorConfig] = None,
) -> Iterator[Verdict]:
    """Fold the trace through a monitor and finalize at its last event,
    yielding verdicts as the stream decides them.

    Verdicts are ordered by decision time, then rule, then cause time.  Every
    verdict that ingesting an event at t decides has decided_at t, and
    finalize decides at the last t; so only the current timestamp's
    verdicts are held back, and each batch is sorted once its time has
    passed.  The rules and the monitor are built when this is called.
    """
    cfg = cfg or MonitorConfig()
    mon = StreamMonitor(_rules_for(catalog, topology, cfg), cfg, known_devices=catalog.devices)
    return _fold(mon, trace)


def _fold(mon: StreamMonitor, trace: Iterable[PhysicalEvent]) -> Iterator[Verdict]:
    """The verdicts of one timestamp form a batch, sorted and yielded once a
    later event or the end of the stream closes it."""
    batch: List[Verdict] = []
    for event in trace:
        decided = mon.ingest(event)
        if batch and batch[0].decided_at != mon.last_time:
            batch.sort(key=_verdict_order)
            yield from batch
            batch = []
        batch.extend(decided)
    if mon.last_time is not None:
        batch.extend(mon.finalize(mon.last_time))
    batch.sort(key=_verdict_order)
    yield from batch


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
    boxes = catalog.boxes(catalog.devices if devices is None else devices)
    pairs = []
    for a, b in itertools.combinations(boxes, 2):
        shared = intersection_volume(boxes[a], boxes[b])
        pairs.append(SpatialPair(a, b, shared > 0, shared))
    return SpatialReport(tuple(pairs))
