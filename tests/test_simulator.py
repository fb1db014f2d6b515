from __future__ import annotations

import io
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capstation.core.bemap import ComponentId
from capstation.devices import DeviceKind, DeviceState, OBSTRUCTED, Signal
from capstation.errors import TimeRegressionError, UnknownActuatorError, UnknownDeviceError
from capstation.scenarios import nominal_script, two_cycles_script
from capstation.simulator import (
    ACTIVATE,
    ArmPosition,
    Command,
    DropEvents,
    EjectorPosition,
    LatencyOverride,
    Simulation,
    StuckSensor,
    default_latency_table,
    run_script,
)
from capstation.station import (
    EJECT_AIR_PULSE,
    LOADER_DROPOFF,
    LOADER_DROPPED_OFF,
    LOADER_PICKED_UP,
    LOADER_PICKUP,
    SIGNAL_MAPPINGS,
    STACK_EJECTOR_EXTEND,
    STACK_EJECTOR_EXTENDED,
    STACK_EJECTOR_RETRACTED,
    STACK_EMPTY,
    VACUUM_GRIP,
    WORKPIECE_GRIPPED,
)
from capstation.wire import write_trace

HIGH, LOW = Signal.HIGH, Signal.LOW


def last_states(events):
    out = {}
    for e in events:
        out[e.device] = e.state.name
    return out


def settled(sim, actuator, signal, t):
    """Apply one command, let its motions complete; returns the new events."""
    before = len(sim.events)
    sim.command(actuator, signal, t)
    sim.settle()
    return sim.events[before:]


def test_initial_events_with_stocked_tube(catalog):
    sim = Simulation(catalog, stack_count=5)
    initial = last_states(sim.events)
    assert initial[STACK_EMPTY] == "Obstructed"
    assert initial[STACK_EJECTOR_RETRACTED] == "Obstructed"
    assert initial[STACK_EJECTOR_EXTENDED] == "Unobstructed"
    assert initial[LOADER_PICKED_UP] == "Obstructed"
    assert initial[LOADER_DROPPED_OFF] == "Unobstructed"
    assert initial[WORKPIECE_GRIPPED] == "Released"
    state = sim.state
    assert state.ejector.settled is EjectorPosition.RETRACTED and state.ejector.motion is None
    assert state.arm.settled is ArmPosition.AT_PICKUP and state.arm.motion is None
    assert state.clock == 0 and not state.vacuum_on and not state.gripped


def test_initial_events_with_empty_tube(catalog):
    assert last_states(Simulation(catalog, stack_count=0).events)[STACK_EMPTY] == "Unobstructed"


def test_initial_position_exclusion(catalog):
    initial = last_states(Simulation(catalog).events)
    obstructed = [
        s for s in (initial[STACK_EJECTOR_RETRACTED], initial[STACK_EJECTOR_EXTENDED])
        if s == "Obstructed"
    ]
    assert len(obstructed) == 1


def test_negative_stack_count_rejected(catalog):
    with pytest.raises(ValueError):
        Simulation(catalog, stack_count=-1)


def test_extension_command_effects(catalog):
    sim = Simulation(catalog, stack_count=5)
    events = settled(sim, STACK_EJECTOR_EXTEND, HIGH, 1000)
    by_time = [(e.timepoint.t, e.device, e.state.name) for e in events]
    assert by_time == [
        (1000, STACK_EJECTOR_EXTEND, "Active"),
        (1250, STACK_EJECTOR_RETRACTED, "Unobstructed"),
        (1250, STACK_EJECTOR_EXTENDED, "Obstructed"),
    ]
    assert sim.state.stack_count == 4
    assert sim.state.cap_at_pickup_spot
    assert sim.state.ejector.settled is EjectorPosition.EXTENDED
    assert sim.state.ejector.motion is None


def test_dropoff_swing_effects(catalog):
    sim = Simulation(catalog)
    tail = [(e.timepoint.t, e.device, e.state.name) for e in settled(sim, LOADER_DROPOFF, HIGH, 100)]
    assert tail == [
        (100, LOADER_DROPOFF, "Active"),
        (900, LOADER_PICKED_UP, "Unobstructed"),
        (900, LOADER_DROPPED_OFF, "Obstructed"),
    ]
    assert sim.state.arm.settled is ArmPosition.AT_DROPOFF and sim.state.arm.motion is None


def test_grip_needs_a_cap_at_the_pickup_spot(catalog):
    sim = Simulation(catalog)
    # vacuum on with no cap: pump runs, nothing to grip
    events = settled(sim, VACUUM_GRIP, HIGH, 100)
    assert [e for e in events if e.device == WORKPIECE_GRIPPED] == []
    assert sim.state.vacuum_on and not sim.state.gripped
    # push a cap out, the running vacuum grips it at the next opportunity
    events = settled(sim, STACK_EJECTOR_EXTEND, HIGH, 1000)
    grips = [e for e in events if e.device == WORKPIECE_GRIPPED]
    assert [(e.timepoint.t, e.state.name) for e in grips] == [(1400, "Gripped")]
    assert sim.state.gripped and not sim.state.cap_at_pickup_spot


def test_second_push_onto_an_occupied_spot_jams_and_loses_the_cap(catalog):
    sim = Simulation(catalog, stack_count=5)
    sim.command(STACK_EJECTOR_EXTEND, HIGH, 0)
    sim.command(STACK_EJECTOR_EXTEND, LOW, 500)
    sim.command(STACK_EJECTOR_EXTEND, HIGH, 1000)
    sim.settle()
    s = sim.state
    assert (s.stack_count, s.caps_pushed, s.caps_lost, s.caps_delivered) == (3, 2, 1, 0)
    assert s.cap_at_pickup_spot and not s.gripped


def test_simultaneous_completions_run_the_ejector_before_the_arm(catalog):
    sim = Simulation(catalog)
    sim.command(LOADER_DROPOFF, HIGH, 0)  # the swing lands at 800
    sim.command(STACK_EJECTOR_EXTEND, HIGH, 550)  # the extension lands at 800 too
    sim.settle()
    landed = [e.device for e in sim.events if e.timepoint.t == 800]
    assert landed == [
        STACK_EJECTOR_RETRACTED, STACK_EJECTOR_EXTENDED, LOADER_PICKED_UP, LOADER_DROPPED_OFF,
    ]


def test_eject_pulse_releases_the_cap(catalog):
    sim = Simulation(catalog)
    sim.command(STACK_EJECTOR_EXTEND, HIGH, 0)
    sim.command(VACUUM_GRIP, HIGH, 500)
    sim.command(EJECT_AIR_PULSE, HIGH, 1000)
    sim.settle()
    grip_events = [(e.timepoint.t, e.state.name) for e in sim.events if e.device == WORKPIECE_GRIPPED]
    assert grip_events == [(0, "Released"), (650, "Gripped"), (1050, "Released")]
    # released over the pickup spot, the cap falls back onto it
    assert sim.state.cap_at_pickup_spot and not sim.state.gripped


def test_empty_script_yields_only_initial_events(catalog):
    events = run_script(catalog, ())
    assert len(events) == len(catalog.sensors)
    assert all(e.timepoint.t == 0 for e in events)


def test_unknown_actuator_rejected(catalog):
    sim = Simulation(catalog)
    with pytest.raises(UnknownActuatorError):
        sim.command(ComponentId("Bottle Capper"), HIGH, 10)
    with pytest.raises(UnknownActuatorError):
        sim.command(STACK_EMPTY, HIGH, 10)  # sensors take no commands


def test_time_regression_rejected(catalog):
    sim = Simulation(catalog)
    sim.command(STACK_EJECTOR_EXTEND, HIGH, 100)
    with pytest.raises(TimeRegressionError):
        sim.command(VACUUM_GRIP, HIGH, 99)


def test_script_times_must_be_nondecreasing(catalog):
    import sys

    script = (Command(5, STACK_EJECTOR_EXTEND, HIGH), Command(4, VACUUM_GRIP, HIGH))
    with pytest.raises(TimeRegressionError) as err:
        Simulation(catalog).run(script)
    if sys.version_info >= (3, 11):
        assert any("script command 1" in note for note in err.value.__notes__)


def test_redundant_signal_changes_nothing(catalog):
    sim = Simulation(catalog)
    first = sim.command(STACK_EJECTOR_EXTEND, HIGH, 100)
    assert len(first) == 1
    again = sim.command(STACK_EJECTOR_EXTEND, HIGH, 120)
    assert again == []


def test_mid_motion_reversal_returns_home_silently(catalog):
    sim = Simulation(catalog)
    sim.command(STACK_EJECTOR_EXTEND, HIGH, 0)     # extension takes 250 ms
    sim.command(STACK_EJECTOR_EXTEND, LOW, 100)    # reverse at 40% progress
    sim.settle()
    sensor_events = [e for e in sim.events if e.timepoint.t > 0 and e.kind is DeviceKind.SENSOR]
    assert sensor_events == []  # settled position never changed
    assert sim.state.ejector.settled is EjectorPosition.RETRACTED
    assert sim.state.ejector.motion is None
    assert sim.state.clock == 200  # 100 + 0.4 * 250
    assert sim.state.stack_count == 5  # interrupted push ejects nothing


def test_determinism_byte_identical_traces(catalog):
    def serialized():
        buf = io.StringIO()
        write_trace(buf, run_script(catalog, nominal_script(), seed=7))
        return buf.getvalue()

    assert serialized() == serialized()


def test_jittered_faulty_run_matches_its_golden_bytes(catalog, golden_dir):
    events = run_script(
        catalog,
        two_cycles_script(),
        faults=[
            StuckSensor(LOADER_DROPPED_OFF, DeviceState("Unobstructed", Signal.LOW)),
            DropEvents(WORKPIECE_GRIPPED),
        ],
        seed=3,
        latencies=default_latency_table(jitter_ms=30),
    )
    buf = io.StringIO()
    write_trace(buf, events)
    assert buf.getvalue() == (golden_dir / "run_script_two_cycles_jitter_faults.jsonl").read_text()


def test_jitter_is_bounded_and_seed_dependent(catalog):
    table = default_latency_table(jitter_ms=10)
    a = run_script(catalog, nominal_script(), seed=1, latencies=table)
    b = run_script(catalog, nominal_script(), seed=1, latencies=table)
    assert [(e.timepoint.t, e.device) for e in a] == [(e.timepoint.t, e.device) for e in b]
    extended = next(e for e in a if e.device == STACK_EJECTOR_EXTENDED and e.timepoint.t > 0)
    assert 4740 <= extended.timepoint.t <= 4760  # 4500 + 250 +- 10


def test_latency_override_shifts_completions(catalog):
    faults = [LatencyOverride(STACK_EJECTOR_EXTEND, 350, transition=ACTIVATE)]
    events = run_script(catalog, nominal_script(), faults=faults)
    extended = [e for e in events if e.device == STACK_EJECTOR_EXTENDED]
    assert [(e.timepoint.t, e.state.name) for e in extended] == [
        (0, "Unobstructed"), (4850, "Obstructed"), (5650, "Unobstructed"),
    ]


def test_stuck_sensor_suppresses_changes(catalog):
    faults = [StuckSensor(STACK_EJECTOR_RETRACTED, OBSTRUCTED)]
    events = run_script(catalog, nominal_script(), faults=faults)
    stuck = [e for e in events if e.device == STACK_EJECTOR_RETRACTED]
    assert [(e.timepoint.t, e.state.name) for e in stuck] == [(0, "Obstructed")]


def test_dropped_events_vanish_but_state_advances(catalog):
    faults = [DropEvents(WORKPIECE_GRIPPED)]
    events = run_script(catalog, nominal_script(), faults=faults)
    assert [e for e in events if e.device == WORKPIECE_GRIPPED] == []
    # the grip still happened internally: the eject pulse had something to release
    assert len(events) == 29 - 3


def test_fault_device_must_exist(catalog):
    with pytest.raises(UnknownDeviceError):
        run_script(catalog, (), faults=[DropEvents(ComponentId("Ghost"))])


def test_latency_override_needs_a_motion(catalog):
    with pytest.raises(ValueError):
        run_script(
            catalog,
            (),
            faults=[LatencyOverride(STACK_EJECTOR_EXTENDED, 350)],
        )


def test_stack_conservation_over_nominal_run(catalog):
    sim = Simulation(catalog, stack_count=5)
    sim.run(nominal_script())
    assert 5 == sim.state.stack_count + sim.state.caps_pushed
    assert sim.state.caps_delivered == 1


def test_default_extend_latency_within_documented_window():
    table = default_latency_table()
    assert 200 <= table.get(STACK_EJECTOR_EXTEND, ACTIVATE) <= 300


# -- randomized properties -----------------------------------------------------

_ACTUATOR_LIST = [
    STACK_EJECTOR_EXTEND, LOADER_PICKUP, LOADER_DROPOFF, VACUUM_GRIP, EJECT_AIR_PULSE,
]

scripts = st.lists(
    st.tuples(
        st.integers(0, 400),  # time delta to the previous command
        st.sampled_from(_ACTUATOR_LIST),
        st.sampled_from([HIGH, LOW]),
    ),
    max_size=25,
).map(
    lambda steps: tuple(
        Command(t, actuator, signal)
        for (t, actuator, signal) in (
            (sum(d for d, _, _ in steps[: i + 1]), a, s)
            for i, (d, a, s) in enumerate(steps)
        )
    )
)


_SENSOR_LIST = [
    STACK_EMPTY, STACK_EJECTOR_RETRACTED, STACK_EJECTOR_EXTENDED,
    LOADER_PICKED_UP, LOADER_DROPPED_OFF, WORKPIECE_GRIPPED,
]

faults = st.lists(
    st.one_of(
        # a stuck sensor pinned to one of the two states its mapping names
        st.tuples(st.sampled_from(_SENSOR_LIST), st.sampled_from([HIGH, LOW])).map(
            lambda p: StuckSensor(p[0], SIGNAL_MAPPINGS[p[0]](p[1]))
        ),
        st.sampled_from(_ACTUATOR_LIST + _SENSOR_LIST).map(DropEvents),
        # an override of one (actuator, transition) latency, or of all of the actuator's
        st.tuples(
            st.sampled_from(list(default_latency_table().durations)),
            st.integers(0, 1500),
            st.booleans(),
        ).map(lambda p: LatencyOverride(p[0][0], p[1], p[0][1] if p[2] else None)),
    ),
    max_size=3,
)
jitters = st.sampled_from([0, 30, 120])


def latency_table(jitter, faults):
    """The latency table `run_script` builds from the faults' overrides."""
    table = default_latency_table(jitter_ms=jitter)
    for fault in faults:
        if isinstance(fault, LatencyOverride):
            table = table.with_override(fault.device, fault.latency_ms, fault.transition)
    return table


@settings(max_examples=120, deadline=None)
@given(scripts, st.integers(0, 6), faults, jitters, st.integers(0, 2**30))
def test_random_scripts_yield_ordered_coherent_traces(script, stack, faults, jitter, seed):
    from capstation.station import build_catalog

    catalog = build_catalog()
    trace = run_script(
        catalog, script, faults, seed=seed, stack_count=stack,
        latencies=default_latency_table(jitter_ms=jitter),
    )
    # the same run without the stuck and drop faults, which change only the output
    sim = Simulation(catalog, stack, latency_table(jitter, faults), random.Random(seed))
    events = sim.run(script)

    for run in (trace, events):
        times = [e.timepoint.t for e in run]
        assert times == sorted(times)
        reported = {}
        for e in run:
            assert reported.get(e.device) != e.state, f"{e.device} repeats {e.state}"
            reported[e.device] = e.state

    dropped = {f.device for f in faults if isinstance(f, DropEvents)}
    stuck = {
        f.device: f.state for f in faults if isinstance(f, StuckSensor) and f.device not in dropped
    }
    assert not any(e.device in dropped for e in trace)
    for device, pinned in stuck.items():
        assert [e.state for e in trace if e.device == device] == [pinned]
    faulted = dropped | set(stuck)
    assert [e for e in trace if e.device not in faulted] == [
        e for e in events if e.device not in faulted
    ]

    # exclusion: the two position sensors are never obstructed at once,
    # evaluated after all events of each instant have been applied
    state = last_states(events[: len(catalog.sensors)])
    for _, group in itertools.groupby(events[len(catalog.sensors):], key=lambda e: e.timepoint.t):
        for e in group:
            state[e.device] = e.state.name
        assert not (
            state[STACK_EJECTOR_EXTENDED] == "Obstructed"
            and state[STACK_EJECTOR_RETRACTED] == "Obstructed"
        )

    # replaying the trace reproduces the final sensor readings
    replayed = last_states(events)
    for device, reading in sim.readings().items():
        assert replayed[device] == reading.name

    # conservation and the suction invariant
    s = sim.state
    assert stack == s.stack_count + s.caps_pushed
    assert s.caps_pushed == s.caps_delivered + s.caps_lost + int(s.cap_at_pickup_spot) + int(s.gripped)
    assert not s.gripped or s.vacuum_on or s.eject_eta is not None


@settings(max_examples=60, deadline=None)
@given(scripts, st.integers(0, 3), st.integers(0, 2**30), faults, jitters)
def test_random_scripts_are_deterministic(script, stack, seed, faults, jitter):
    from capstation.station import build_catalog

    catalog = build_catalog()
    table = default_latency_table(jitter_ms=jitter)
    a = run_script(catalog, script, faults, stack_count=stack, seed=seed, latencies=table)
    b = run_script(catalog, script, faults, stack_count=stack, seed=seed, latencies=table)
    assert a == b


def test_script_errors_carry_the_command_index(catalog):
    import sys

    script = (
        Command(10, STACK_EJECTOR_EXTEND, HIGH),
        Command(20, ComponentId("Ghost Actuator"), HIGH),
    )
    with pytest.raises(UnknownActuatorError) as err:
        Simulation(catalog).run(script)
    if sys.version_info >= (3, 11):
        assert any("script command 1" in note for note in err.value.__notes__)


def test_apply_command_chain_matches_run_script_when_motions_settle(catalog):
    # every nominal command arrives after the previous motion completed, so
    # settling after each command must reproduce the engine timeline
    script = nominal_script()
    sim = Simulation(catalog, stack_count=5)
    for cmd in script:
        settled(sim, cmd.actuator, cmd.signal, cmd.time)
    assert sim.events == run_script(catalog, script, stack_count=5)


def test_stuck_sensor_state_uses_the_device_mapping(catalog):
    # Stack Empty signals Low when obstructed; the pinned event must agree
    events = run_script(
        catalog, nominal_script(), faults=[StuckSensor(STACK_EMPTY, OBSTRUCTED)]
    )
    pinned = [e for e in events if e.device == STACK_EMPTY]
    assert len(pinned) == 1
    assert pinned[0].state.name == "Obstructed"
    assert pinned[0].state.signal is Signal.LOW
