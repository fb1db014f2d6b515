from __future__ import annotations

import dataclasses
import tracemalloc

import pytest

from capstation.core.bemap import ComponentId
from capstation.core.timing import TimePoint
from capstation.devices import (
    ACTIVE_HIGH,
    DeviceKind,
    OBSTRUCTED_HIGH,
    PASSIVE_LOW,
    PhysicalEvent,
    UNOBSTRUCTED_LOW,
    abstract_state,
)
from capstation.errors import OutOfOrderEventError, UnknownDeviceError
from capstation.monitor import (
    CompiledRule,
    MonitorConfig,
    Outcome,
    RuleKind,
    Semantics,
    SequenceUnit,
    StreamMonitor,
    check_spatial,
    check_trace,
    violations,
)
from capstation.station import (
    LOADER_PICKUP,
    STACK_EJECTOR_EXTEND,
    STACK_EJECTOR_EXTENDED,
    STACK_EJECTOR_RETRACTED,
    TopologyName,
)

EXT = STACK_EJECTOR_EXTEND
RET = STACK_EJECTOR_RETRACTED


def rule(source, target, cause, effect, lo, hi, inverse=False, index=0):
    return CompiledRule(
        index, "test", source, target, abstract_state(cause), abstract_state(effect),
        lo, hi, inverse, RuleKind.CONSTRAINT,
    )

CAUSALITY_RULE = rule(EXT, RET, "Active", "Unobstructed", 200, 300)
AVOIDANCE_RULE = rule(EXT, LOADER_PICKUP, "Active", "Passive", -500, 1000)


def ev(device, t, state):
    kind = DeviceKind.ACTUATOR if state.name in ("Active", "Passive") else DeviceKind.SENSOR
    return PhysicalEvent(device, kind, TimePoint(t), state)


def feed(monitor, events, end=None):
    verdicts = []
    for e in events:
        verdicts.extend(monitor.ingest(e))
    if end is not None:
        verdicts.extend(monitor.finalize(end))
    return verdicts


def test_effect_inside_window_is_satisfied():
    mon = StreamMonitor([CAUSALITY_RULE])
    verdicts = feed(mon, [ev(EXT, 1000, ACTIVE_HIGH), ev(RET, 1250, UNOBSTRUCTED_LOW)])
    assert [v.outcome for v in verdicts] == [Outcome.SATISFIED]
    assert verdicts[0].witness.timepoint.t == 1250
    assert verdicts[0].window == (1200, 1300)


def test_late_effect_is_violated_late():
    mon = StreamMonitor([CAUSALITY_RULE])
    verdicts = feed(mon, [ev(EXT, 1000, ACTIVE_HIGH), ev(RET, 1350, UNOBSTRUCTED_LOW)])
    assert [v.outcome for v in verdicts] == [Outcome.VIOLATED_LATE]
    assert verdicts[0].witness.timepoint.t == 1350


def test_no_effect_expires_to_violated_missing():
    mon = StreamMonitor([CAUSALITY_RULE])
    verdicts = feed(mon, [ev(EXT, 1000, ACTIVE_HIGH)], end=2000)
    assert [v.outcome for v in verdicts] == [Outcome.VIOLATED_MISSING]
    assert verdicts[0].witness is None
    assert verdicts[0].decided_at == 2000


def test_early_effect_is_violated_early():
    mon = StreamMonitor([CAUSALITY_RULE])
    verdicts = feed(mon, [ev(EXT, 1000, ACTIVE_HIGH), ev(RET, 1100, UNOBSTRUCTED_LOW)])
    assert [v.outcome for v in verdicts] == [Outcome.VIOLATED_EARLY]


def test_negative_minimum_satisfied_through_history_lookback():
    mon = StreamMonitor([AVOIDANCE_RULE])
    verdicts = feed(
        mon,
        [ev(LOADER_PICKUP, 1700, PASSIVE_LOW), ev(EXT, 2000, ACTIVE_HIGH)],
    )
    assert [v.outcome for v in verdicts] == [Outcome.SATISFIED]
    assert verdicts[0].witness.timepoint.t == 1700
    assert verdicts[0].window == (1500, 3000)
    assert verdicts[0].decided_at == 2000


def test_lookback_ignores_events_before_the_window():
    mon = StreamMonitor([AVOIDANCE_RULE])
    verdicts = feed(
        mon,
        [ev(LOADER_PICKUP, 1400, PASSIVE_LOW), ev(EXT, 2000, ACTIVE_HIGH)],
        end=3500,
    )
    assert [v.outcome for v in verdicts] == [Outcome.VIOLATED_MISSING]


def test_window_boundaries_are_closed():
    mon = StreamMonitor([CAUSALITY_RULE])
    at_lo = feed(mon, [ev(EXT, 1000, ACTIVE_HIGH), ev(RET, 1200, UNOBSTRUCTED_LOW)])
    assert at_lo[0].outcome is Outcome.SATISFIED
    mon = StreamMonitor([CAUSALITY_RULE])
    at_hi = feed(mon, [ev(EXT, 1000, ACTIVE_HIGH), ev(RET, 1300, UNOBSTRUCTED_LOW)])
    assert at_hi[0].outcome is Outcome.SATISFIED


def test_finalize_keeps_open_windows_pending():
    mon = StreamMonitor([CAUSALITY_RULE])
    verdicts = feed(mon, [ev(EXT, 1000, ACTIVE_HIGH)], end=1250)
    assert [v.outcome for v in verdicts] == [Outcome.PENDING]


def test_inverse_obligation_satisfied_by_absence():
    mon = StreamMonitor([rule(EXT, RET, "Active", "Unobstructed", 200, 300, inverse=True)])
    verdicts = feed(mon, [ev(EXT, 1000, ACTIVE_HIGH)], end=2000)
    assert [v.outcome for v in verdicts] == [Outcome.SATISFIED]


def test_inverse_obligation_forbidden_by_in_window_match():
    mon = StreamMonitor([rule(EXT, RET, "Active", "Unobstructed", 200, 300, inverse=True)])
    verdicts = feed(mon, [ev(EXT, 1000, ACTIVE_HIGH), ev(RET, 1250, UNOBSTRUCTED_LOW)])
    assert [v.outcome for v in verdicts] == [Outcome.VIOLATED_FORBIDDEN]


def test_one_effect_satisfies_overlapping_obligations():
    mon = StreamMonitor([rule(EXT, RET, "Active", "Unobstructed", 0, 1000)])
    verdicts = feed(
        mon,
        [
            ev(EXT, 0, ACTIVE_HIGH),
            ev(EXT, 100, PASSIVE_LOW),  # no rule fires on Passive
            ev(EXT, 200, ACTIVE_HIGH),
            ev(RET, 600, UNOBSTRUCTED_LOW),
        ],
    )
    assert [v.outcome for v in verdicts] == [Outcome.SATISFIED, Outcome.SATISFIED]
    assert {v.cause_time for v in verdicts} == {0, 200}


def test_out_of_order_events_rejected():
    mon = StreamMonitor([CAUSALITY_RULE])
    mon.ingest(ev(EXT, 1000, ACTIVE_HIGH))
    with pytest.raises(OutOfOrderEventError):
        mon.ingest(ev(RET, 999, UNOBSTRUCTED_LOW))


def test_unknown_devices_rejected_when_catalog_bound(catalog):
    mon = StreamMonitor([CAUSALITY_RULE], known_devices=catalog.devices)
    with pytest.raises(UnknownDeviceError):
        mon.ingest(ev(ComponentId("Ghost"), 0, ACTIVE_HIGH))


def test_history_horizon_covers_the_largest_lookback():
    assert StreamMonitor([AVOIDANCE_RULE, CAUSALITY_RULE]).horizon == 500
    assert StreamMonitor([CAUSALITY_RULE]).horizon == 0


def test_nominal_trace_has_zero_violations(catalog, nominal_trace):
    assert violations(check_trace(catalog, "all", nominal_trace)) == []


def test_exact_sequence_delay_of_three_seconds_satisfies(catalog, nominal_trace):
    cfg = MonitorConfig(correlation_tolerance_ms=0, sequence_unit=SequenceUnit.SECONDS)
    verdicts = list(check_trace(catalog, TopologyName.PROCESS_SEQUENCE, nominal_trace, cfg))
    assert verdicts and all(v.outcome is Outcome.SATISFIED for v in verdicts)
    assert all(v.window[1] - v.cause_time == 3000 for v in verdicts)


def test_sequence_unit_milliseconds_reads_the_constant_raw(catalog, nominal_trace):
    cfg = MonitorConfig(sequence_unit=SequenceUnit.MILLISECONDS)
    verdicts = list(check_trace(catalog, TopologyName.PROCESS_SEQUENCE, nominal_trace, cfg))
    # a 3 ms window cannot be met by the 3 s swing
    assert all(v.outcome is Outcome.VIOLATED_MISSING for v in verdicts)


def test_empty_trace_yields_no_verdicts(catalog):
    assert list(check_trace(catalog, "all", [])) == []


def test_fault_injected_trace_blames_only_the_late_extension(catalog, faulty_trace):
    verdicts = list(check_trace(catalog, "all", faulty_trace))
    bad = violations(verdicts)
    assert {v.outcome for v in bad} == {Outcome.VIOLATED_LATE, Outcome.VIOLATED_MISSING}
    assert all(v.rule.source == EXT and v.rule.cause.name == "Active" for v in bad)
    assert any(v.rule.target == RET for v in bad)  # the documented edge is among them
    assert any(v.rule.target == STACK_EJECTOR_EXTENDED for v in bad)


def test_verdicts_are_ordered_by_decision_time(catalog, nominal_trace):
    verdicts = list(check_trace(catalog, "all", nominal_trace))
    times = [v.decided_at for v in verdicts]
    assert times == sorted(times)


# -- state-holds semantics -------------------------------------------------------

STATE_CFG = MonitorConfig(semantics=Semantics.STATE_HOLDS)


def test_state_holds_satisfied_when_state_persists():
    mon = StreamMonitor([rule(EXT, RET, "Active", "Obstructed", 100, 300)], STATE_CFG)
    verdicts = feed(
        mon,
        [ev(RET, 0, OBSTRUCTED_HIGH), ev(EXT, 50, ACTIVE_HIGH), ev(RET, 400, UNOBSTRUCTED_LOW)],
        end=400,
    )
    assert [v.outcome for v in verdicts] == [Outcome.SATISFIED]


def test_state_holds_violated_by_mid_window_change():
    mon = StreamMonitor([rule(EXT, RET, "Active", "Obstructed", 100, 300)], STATE_CFG)
    verdicts = feed(
        mon,
        [ev(RET, 0, OBSTRUCTED_HIGH), ev(EXT, 50, ACTIVE_HIGH), ev(RET, 250, UNOBSTRUCTED_LOW)],
        end=400,
    )
    assert [v.outcome for v in verdicts] == [Outcome.VIOLATED_MISSING]
    assert verdicts[0].witness.timepoint.t == 250


def test_state_holds_violated_when_state_absent_at_window_start():
    mon = StreamMonitor([rule(EXT, RET, "Active", "Obstructed", 100, 300)], STATE_CFG)
    verdicts = feed(mon, [ev(EXT, 50, ACTIVE_HIGH)], end=500)
    assert [v.outcome for v in verdicts] == [Outcome.VIOLATED_MISSING]
    assert verdicts[0].witness is None  # state was never known


def test_state_holds_inverse_prohibits_the_state():
    mon = StreamMonitor(
        [rule(EXT, RET, "Active", "Obstructed", 100, 300, inverse=True)], STATE_CFG
    )
    verdicts = feed(
        mon,
        [ev(RET, 0, OBSTRUCTED_HIGH), ev(EXT, 50, ACTIVE_HIGH)],
        end=500,
    )
    assert [v.outcome for v in verdicts] == [Outcome.VIOLATED_FORBIDDEN]
    assert verdicts[0].witness.timepoint.t == 0


def test_state_holds_pending_when_window_not_reached():
    mon = StreamMonitor([rule(EXT, RET, "Active", "Obstructed", 100, 300)], STATE_CFG)
    verdicts = feed(mon, [ev(RET, 0, OBSTRUCTED_HIGH), ev(EXT, 50, ACTIVE_HIGH)], end=100)
    assert [v.outcome for v in verdicts] == [Outcome.PENDING]


def test_state_holds_avoidance_reading_of_nominal_trace(catalog, nominal_trace):
    # under the state reading the pickup solenoid must stay Passive for the
    # whole window, which the nominal swing violates at its start
    verdicts = list(check_trace(catalog, TopologyName.AVOIDANCE, nominal_trace, STATE_CFG))
    assert len(verdicts) == 1
    assert verdicts[0].outcome is Outcome.VIOLATED_MISSING


# -- the schedule: stepping only the obligations an event can decide ------------


@pytest.mark.parametrize("semantics", list(Semantics))
@pytest.mark.parametrize("cause_t, lo, hi", [(1000, -500, -100), (0, -10, -1)])
def test_window_wholly_before_its_cause_is_missing_at_the_cause(semantics, cause_t, lo, hi):
    # (0, -10, -1) puts the wake time hi + 1 at 0, the cause time
    mon = StreamMonitor(
        [rule(EXT, RET, "Active", "Unobstructed", lo, hi)], MonitorConfig(semantics=semantics)
    )
    verdicts = mon.ingest(ev(EXT, cause_t, ACTIVE_HIGH))
    assert [v.outcome for v in verdicts] == [Outcome.VIOLATED_MISSING]
    assert verdicts[0].witness is None
    assert verdicts[0].decided_at == cause_t
    assert verdicts[0].window == (cause_t + lo, cause_t + hi)


def test_unrelated_event_expires_a_window_only_after_its_end():
    mon = StreamMonitor([CAUSALITY_RULE])
    assert mon.ingest(ev(EXT, 1000, ACTIVE_HIGH)) == []
    assert mon.ingest(ev(LOADER_PICKUP, 1300, ACTIVE_HIGH)) == []
    verdicts = mon.ingest(ev(LOADER_PICKUP, 1301, PASSIVE_LOW))
    assert [v.outcome for v in verdicts] == [Outcome.VIOLATED_MISSING]
    assert verdicts[0].witness is None
    assert verdicts[0].decided_at == 1301


def test_unrelated_event_enters_a_state_window_after_its_start():
    held = rule(EXT, RET, "Active", "Obstructed", 100, 300)  # window [150, 350]
    broken = StreamMonitor([held], STATE_CFG)
    start = ev(RET, 0, UNOBSTRUCTED_LOW)
    at_lo = ev(LOADER_PICKUP, 150, PASSIVE_LOW)
    assert feed(broken, [start, ev(EXT, 50, ACTIVE_HIGH), at_lo]) == []
    verdicts = broken.ingest(ev(LOADER_PICKUP, 151, ACTIVE_HIGH))
    assert [v.outcome for v in verdicts] == [Outcome.VIOLATED_MISSING]
    assert verdicts[0].witness is start
    assert verdicts[0].decided_at == 151

    kept = StreamMonitor([held], STATE_CFG)
    quiet = [ev(LOADER_PICKUP, t, PASSIVE_LOW) for t in (151, 350)]
    assert feed(kept, [ev(RET, 0, OBSTRUCTED_HIGH), ev(EXT, 50, ACTIVE_HIGH), *quiet]) == []
    verdicts = kept.ingest(ev(LOADER_PICKUP, 351, ACTIVE_HIGH))
    assert [v.outcome for v in verdicts] == [Outcome.SATISFIED]
    assert verdicts[0].witness is None
    assert verdicts[0].decided_at == 351


@pytest.mark.parametrize("semantics", list(Semantics))
def test_memory_stays_flat_over_a_long_stream(semantics):
    # obligations on a target that never emits are only ever expired; the
    # third rule's are decided by their target while still in the wake heap;
    # the inverse rule's 300 ms lookback retains its target's events.  Decided
    # obligations and events older than the lookback must all be let go.
    a, b, silent = ComponentId("A"), ComponentId("B"), ComponentId("Silent")
    mon = StreamMonitor(
        [
            rule(a, silent, "Active", "Active", 0, 200),
            rule(a, b, "Active", "Active", -300, 100, inverse=True, index=1),
            rule(a, b, "Active", "Active", 0, 100, index=2),
        ],
        MonitorConfig(semantics=semantics),
    )
    states = (ACTIVE_HIGH, PASSIVE_LOW)

    def stream(start, stop):
        for i in range(start, stop):
            mon.ingest(ev((a, b)[i % 2], 4 * i, states[i // 2 % 2]))

    tracemalloc.start()
    try:
        stream(0, 5_000)
        at_5k = tracemalloc.get_traced_memory()[0]
        stream(5_000, 50_000)
        at_50k = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert at_50k <= at_5k + 32 * 1024


# -- spatial consistency -----------------------------------------------------------


def test_documented_sensor_boxes_do_not_overlap(catalog):
    report = check_spatial(catalog, devices=[STACK_EJECTOR_EXTENDED, RET])
    assert len(report.pairs) == 1
    assert not report.has_overlap
    assert report.pairs[0].shared_volume == 0


def test_self_pairs_are_excluded(catalog):
    report = check_spatial(catalog, devices=[STACK_EJECTOR_EXTENDED])
    assert report.pairs == ()


def test_injected_duplicate_box_overlaps_fully(catalog):
    probe = ComponentId("Probe")
    duplicate = catalog.description(STACK_EJECTOR_EXTENDED)
    probed = dataclasses.replace(
        catalog, descriptions={**catalog.descriptions, probe: duplicate}
    )
    report = check_spatial(probed, devices=[STACK_EJECTOR_EXTENDED, probe])
    assert report.has_overlap
    assert report.overlapping[0].shared_volume == 5120


def test_sensor_only_check_is_clean_but_envelopes_do_sweep(catalog):
    sensors_only = check_spatial(catalog, devices=catalog.sensors)
    assert not sensors_only.has_overlap
    everything = check_spatial(catalog)
    # the ejector's travel envelope passes through its position sensors
    assert everything.has_overlap
    swept = {
        frozenset((p.device_a.id, p.device_b.id)) for p in everything.overlapping
    }
    assert frozenset(("Stack Ejector", "Stack Ejector Extended")) in swept


def test_check_trace_accepts_a_raw_graph(catalog, nominal_trace):
    from capstation.core.graph import AnnotatedGraph

    graph = catalog.topologies[TopologyName.CAUSALITY]
    assert isinstance(graph, AnnotatedGraph)
    verdicts = list(check_trace(catalog, graph, nominal_trace))
    assert verdicts and all(v.outcome is Outcome.SATISFIED for v in verdicts)
    assert all(v.rule.topology == "topology" for v in verdicts)


# -- same-timestamp ordering discipline --------------------------------------


def test_effect_earlier_in_trace_at_the_same_instant_needs_a_lookback():
    # effect arrives first at t=100, cause second; with min=0 the already
    # seen event is invisible, with a negative minimum the history serves it
    events = [ev(RET, 100, UNOBSTRUCTED_LOW), ev(EXT, 100, ACTIVE_HIGH)]
    strict = StreamMonitor([rule(EXT, RET, "Active", "Unobstructed", 0, 200)])
    assert [v.outcome for v in feed(strict, events, end=400)] == [Outcome.VIOLATED_MISSING]
    lookback = StreamMonitor([rule(EXT, RET, "Active", "Unobstructed", -1, 200)])
    verdicts = feed(lookback, events, end=400)
    assert [v.outcome for v in verdicts] == [Outcome.SATISFIED]
    assert verdicts[0].witness is events[0]


def test_effect_later_in_trace_at_the_same_instant_satisfies():
    events = [ev(EXT, 100, ACTIVE_HIGH), ev(RET, 100, UNOBSTRUCTED_LOW)]
    mon = StreamMonitor([rule(EXT, RET, "Active", "Unobstructed", 0, 200)])
    assert [v.outcome for v in feed(mon, events, end=400)] == [Outcome.SATISFIED]


def test_cause_event_may_satisfy_its_own_obligation():
    # a self-referential rule whose window contains the cause instant
    mon = StreamMonitor([rule(EXT, EXT, "Active", "Active", -10, 10)])
    cause = ev(EXT, 50, ACTIVE_HIGH)
    verdicts = feed(mon, [cause], end=100)
    assert [v.outcome for v in verdicts] == [Outcome.SATISFIED]
    assert verdicts[0].witness is cause


def test_two_cycle_scenario_repeats_every_obligation(catalog):
    from collections import Counter

    from capstation.scenarios import two_cycles_script
    from capstation.simulator import Simulation

    sim = Simulation(catalog, stack_count=5)
    trace = sim.run(two_cycles_script())
    verdicts = list(check_trace(catalog, "all", trace))
    assert violations(verdicts) == []
    by_topology = Counter(v.rule.topology for v in verdicts)
    # the initial pickup contact plus one per cycle drive three sequence
    # obligations; each cycle opens one avoidance window
    assert by_topology["ProcessSequence"] == 3
    assert by_topology["Avoidance"] == 2
    assert sim.state.caps_delivered == 2
    assert sim.state.stack_count == 3


def test_parallel_monitors_over_one_immutable_trace(catalog, nominal_trace):
    import threading

    results = {}

    def work(name):
        results[name] = list(check_trace(catalog, "all", nominal_trace))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    baseline = list(check_trace(catalog, "all", nominal_trace))
    assert all(results[i] == baseline for i in range(4))
