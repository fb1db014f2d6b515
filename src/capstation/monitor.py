"""Streaming verifier for temporal topology rules.

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
equal) the effect state throughout the window.  Opening steps through the
last retained event at or before the window start, which settles the state
there, then the in-window ones.  A live event at t settles the states before
t and the end of the stream settles t itself, so at finalize both window
ends are inclusive.

State is sliced by device (Chen & Rosu, TACAS 2009): one table entry holds a
device's rules, its open obligations and retained events, one lookup away.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from bisect import bisect_right
from collections import deque
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .core.bemap import ComponentId
from .core.graph import AnnotatedGraph, EdgeAnn, TemporalConstraint, TemporalCorrelation
from .core.record import Record
from .devices import DeviceState, PhysicalEvent, Signal, state_matches
from .errors import OutOfOrderEventError, UnknownDeviceError, UnsupportedAnnotationError
from .station import StationCatalog, TopologyName


class Semantics(enum.Enum):
    EVENT_OCCURRENCE = "event"
    STATE_HOLDS = "state"


class SequenceUnit(enum.Enum):
    SECONDS = "seconds"
    MILLISECONDS = "milliseconds"


class MonitorConfig(Record):
    __slots__ = ("correlation_tolerance_ms", "sequence_unit", "semantics")

    def __init__(
        self, correlation_tolerance_ms: int = 0, sequence_unit: SequenceUnit = SequenceUnit.SECONDS,
        semantics: Semantics = Semantics.EVENT_OCCURRENCE,
    ):
        if correlation_tolerance_ms < 0:
            raise ValueError("tolerance must be non-negative")
        self._set(correlation_tolerance_ms, sequence_unit, semantics)


class RuleKind(enum.Enum):
    CORRELATION = "correlation"
    CONSTRAINT = "constraint"


class CompiledRule(Record):
    """One topology edge reduced to concrete window arithmetic."""

    __slots__ = (
        "index", "topology", "source", "target", "cause", "effect", "min_ms", "max_ms", "inverse",
        "kind",
    )

    def __init__(
        self, index: int, topology: str, source: ComponentId, target: ComponentId,
        cause: DeviceState, effect: DeviceState, min_ms: int, max_ms: int, inverse: bool,
        kind: RuleKind,
    ):
        self._set(index, topology, source, target, cause, effect, min_ms, max_ms, inverse, kind)

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
        return self._value_ in _VIOLATIONS


# keyed by an outcome's `_value_`: Outcome.value is an enum property (~0.25 µs a
# read) and an Outcome hashes through Enum.__hash__ (~0.18 µs); a str does neither
_VIOLATIONS = frozenset(o.value for o in Outcome if o.value.startswith("Violated"))


class Verdict(Record):
    __slots__ = ("rule", "cause_event", "outcome", "witness", "decided_at", "window")

    def __init__(
        self, rule: CompiledRule, cause_event: PhysicalEvent, outcome: Outcome,
        witness: Optional[PhysicalEvent], decided_at: int, window: Tuple[int, int],
    ):
        if outcome is Outcome.VIOLATED_FORBIDDEN and not rule.inverse:
            raise ValueError("forbidden outcomes only arise from inverse rules")
        set_rule, set_cause_event, set_outcome, set_witness, set_at, set_window = self._setters
        set_rule(self, rule)
        set_cause_event(self, cause_event)
        set_outcome(self, outcome)
        set_witness(self, witness)
        set_at(self, decided_at)
        set_window(self, window)

    @property
    def cause_time(self) -> int:
        return self.cause_event.timepoint.t


class _Obligation:
    __slots__ = ("rule", "cause_event", "lo", "hi", "target", "entered", "last_target_event")

    def __init__(
        self, rule: CompiledRule, cause_event: PhysicalEvent, lo: int, hi: int, target: "_Device"
    ):
        self.rule, self.cause_event, self.lo, self.hi = rule, cause_event, lo, hi
        self.target = target  # the table entry of rule.target
        # state holds only: whether the window start is checked, and the state there
        self.entered, self.last_target_event = False, None


class _Device:
    """A device's table entry: the rules its events open, with their target's
    entry, by cause state name in rule order; the open obligations on it, in
    opening order (a dict as an ordered set: O(1) removal); its retained
    events, None when no opening looks back on them; the last one pruned."""

    __slots__ = ("causes", "open", "history", "pruned")

    def __init__(self):
        self.causes, self.open, self.history, self.pruned = {}, {}, None, None


_IDLE = _Device()  # the shared entry of every device no rule names; it stays empty
_event_time = attrgetter("timepoint.t")


_Decision = Optional[Tuple[Outcome, Optional[PhysicalEvent]]]


def _step_event(ob: _Obligation, event: Optional[PhysicalEvent], t: int) -> _Decision:
    """Event occurrence: a matching effect event decides, an elapsed window expires."""
    rule = ob.rule
    matched = event is not None and event.device.id == rule.target.id
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
    if event is None or event.device.id != rule.target.id:
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
        semantics = (cfg or MonitorConfig()).semantics
        self._step, self._wake = _STEPS[semantics]
        self._state_holds = semantics is Semantics.STATE_HOLDS
        self.horizon = auto_horizon(rules)
        # an entry per device a rule names, by ComponentId.id (a str caches its
        # hash); targets keep their events in state holds, and in event
        # occurrence those of a rule with a negative minimum
        named: Dict[str, _Device] = {}
        for rule in rules:
            source = named.setdefault(rule.source.id, _Device())
            target = named.setdefault(rule.target.id, _Device())
            if target.history is None and (self._state_holds or rule.min_ms < 0):
                target.history = deque()
            source.causes.setdefault(rule.cause.name, []).append((rule, target))
        self._named = list(named.values())
        # the devices ingest accepts; any other maps to self._other (None: rejected)
        self._devices, self._other = named, _IDLE
        if known_devices is not None:
            self._devices = {d.id: named.get(d.id, _IDLE) for d in known_devices}
            self._other = None
        self.last_time: Optional[int] = None
        # one (wake time, tie-break, obligation) entry per open obligation,
        # its time never later than the obligation's wake time; entries of
        # decided obligations are dropped when popped
        self._wakes: List[Tuple[int, int, _Obligation]] = []
        self._tie = itertools.count()

    def _decide(
        self, ob: _Obligation, outcome: Outcome, witness: Optional[PhysicalEvent], at: int
    ) -> Verdict:
        """Every verdict is built here, from the obligation it decides."""
        return Verdict(ob.rule, ob.cause_event, outcome, witness, at, (ob.lo, ob.hi))

    def _look_back(self, ob: _Obligation, history: deque) -> _Decision:
        """The first decision of stepping ob through the target events that can decide it."""
        if self._state_holds:  # the state at lo: the last event at or before it, else the pruned
            ob.last_target_event = ob.target.pruned
            first = bisect_right(history, ob.lo, key=_event_time)
            past = itertools.islice(history, max(first - 1, 0), None)
        elif ob.rule.min_ms < 0:
            past = (p for p in history if ob.lo <= p.timepoint.t <= ob.hi)
        else:
            return None
        step = self._step
        for event in past:
            decided = step(ob, event, event.timepoint.t)
            if decided is not None:
                return decided
        return None

    def _schedule(self, ob: _Obligation) -> None:
        heapq.heappush(self._wakes, (self._wake(ob), next(self._tie), ob))

    def _open(self, source: _Device, cause: PhysicalEvent, t: int, out: List[Verdict]) -> None:
        state = cause.state
        for rule, target in source.causes.get(state.name, ()):
            wanted = rule.cause.signal  # the name matches, so state_matches reduces to this
            if wanted is not state.signal and wanted is not Signal.DONT_CARE:
                continue
            ob = _Obligation(rule, cause, t + rule.min_ms, t + rule.max_ms, target)
            if target.history is not None:
                decided = self._look_back(ob, target.history)
                if decided is not None:
                    out.append(self._decide(ob, *decided, t))
                    continue
            target.open[ob] = None
            self._schedule(ob)

    def ingest(self, event: PhysicalEvent) -> List[Verdict]:
        """Feed the next event; returns the verdicts it decided, in no promised order."""
        device = self._devices.get(event.device.id, self._other)
        if device is None:
            raise UnknownDeviceError(event.device)
        t = event.timepoint.t
        if self.last_time is not None and t < self.last_time:
            raise OutOfOrderEventError(f"event at {t} after event at {self.last_time}")
        self.last_time = t
        out: List[Verdict] = []
        if device.causes:
            self._open(device, event, t, out)
        step = self._step
        mine = device.open
        if mine:
            # decided after the loop: a dict must not change size while iterated
            for ob, decided in [(ob, d) for ob in mine if (d := step(ob, event, t)) is not None]:
                del mine[ob]
                out.append(self._decide(ob, *decided, t))
        wakes = self._wakes
        while wakes and wakes[0][0] <= t:
            ob = heapq.heappop(wakes)[2]
            bucket = ob.target.open
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
        history = device.history
        if history is not None:  # pruned to the horizon before t
            cutoff = t - self.horizon
            while history and history[0].timepoint.t < cutoff:
                device.pruned = history.popleft()
            history.append(event)
        return out

    def finalize(self, end_time: int) -> List[Verdict]:
        """Resolve obligations as if time advanced to end_time.

        Windows that extend beyond end_time are reported as Pending.
        """
        if self.last_time is not None and end_time < self.last_time:
            raise ValueError("end time precedes the last ingested event")
        out: List[Verdict] = []
        for device in self._named:
            for ob in device.open:
                outcome, witness = self._step(ob, None, end_time) or (Outcome.PENDING, None)
                out.append(self._decide(ob, outcome, witness, end_time))
            device.open.clear()
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
    return v.decided_at, v.rule.index, v.cause_event.timepoint.t, v.outcome._value_


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


def __getattr__(name: str):  # check_spatial is in .spatial, which a monitor process never loads
    if name != "check_spatial":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .spatial import check_spatial
    return check_spatial
