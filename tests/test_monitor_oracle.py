"""Streaming monitor vs. brute-force full-scan oracle.

Each verdict is reduced to (rule index, cause index, outcome, witness
index, decision time) and compared as a multiset.  The bulk acceptance
run over >= 500 randomized traces lives in test_acceptance; these
property tests cover the same equivalence plus the structural monitor
invariants on hypothesis-sized inputs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capstation.core.bemap import ComponentId
from capstation.core.timing import TimePoint, relative_duration
from capstation.core.graph import AnnotatedGraph, EdgeAnn, TemporalConstraint, TemporalCorrelation
from capstation.core.timing import TimeDurationRange
from capstation.devices import DeviceKind, DeviceState, PhysicalEvent, Signal
from capstation.monitor import (
    CompiledRule,
    MonitorConfig,
    Outcome,
    RuleKind,
    Semantics,
    SequenceUnit,
    StreamMonitor,
    auto_horizon,
    check_trace,
    compile_topology,
)
from capstation.station import StationCatalog
from oracle import monitor_entries, oracle_entries

DEVICES = [ComponentId(f"D{i}") for i in range(3)]
NAMES = ["Alpha", "Beta"]
SIGNALS = [Signal.HIGH, Signal.LOW]

spec_states = st.builds(
    DeviceState,
    st.sampled_from(NAMES),
    st.sampled_from(SIGNALS + [Signal.DONT_CARE]),
)
concrete_states = st.builds(DeviceState, st.sampled_from(NAMES), st.sampled_from(SIGNALS))


def _mk_rule(i, source, target, cause, effect, window, inverse):
    lo, hi = sorted(window)
    return CompiledRule(
        i, "rand", source, target, cause, effect, lo, hi, inverse, RuleKind.CONSTRAINT
    )


rules_strategy = st.lists(
    st.tuples(
        st.sampled_from(DEVICES),
        st.sampled_from(DEVICES),
        spec_states,
        spec_states,
        st.tuples(st.integers(-800, 800), st.integers(-800, 800)),
        st.booleans(),
    ),
    min_size=1,
    max_size=4,
).map(lambda rows: [_mk_rule(i, *row) for i, row in enumerate(rows)])

traces_strategy = st.lists(
    st.tuples(st.integers(0, 120), st.sampled_from(DEVICES), concrete_states),
    max_size=50,
).map(
    lambda steps: [
        PhysicalEvent(device, DeviceKind.SENSOR, TimePoint(t), state)
        for (t, device, state) in (
            (sum(d for d, _, _ in steps[: i + 1]), dev, s)
            for i, (d, dev, s) in enumerate(steps)
        )
    ]
)


def run_monitor(rules, trace, cfg=None):
    mon = StreamMonitor(rules, cfg)
    verdicts = []
    for event in trace:
        verdicts.extend(mon.ingest(event))
    if trace:
        verdicts.extend(mon.finalize(trace[-1].timepoint.t))
    return verdicts


@settings(max_examples=250, deadline=None)
@given(rules_strategy, traces_strategy)
def test_streaming_equals_oracle(rules, trace):
    verdicts = run_monitor(rules, trace)
    end = trace[-1].timepoint.t if trace else 0
    assert monitor_entries(verdicts, trace) == oracle_entries(
        rules, trace, end, auto_horizon(rules)
    )


@settings(max_examples=120, deadline=None)
@given(rules_strategy, traces_strategy)
def test_online_equals_offline(rules, trace):
    online = run_monitor(rules, trace)
    offline = run_monitor(rules, trace)  # same path; exercised again after reordering
    key = lambda v: (v.decided_at, v.rule.index, v.cause_time, v.outcome.value)
    assert sorted(online, key=key) == sorted(offline, key=key)
    # one decision per obligation, never revised
    causes = [(v.rule.index, id(v.cause_event)) for v in online]
    assert len(causes) == len(set(causes))


@settings(max_examples=150, deadline=None)
@given(rules_strategy, traces_strategy)
def test_satisfied_witnesses_stay_inside_their_window(rules, trace):
    for v in run_monitor(rules, trace):
        if v.outcome is Outcome.SATISFIED and v.witness is not None:
            assert v.window[0] <= v.witness.timepoint.t <= v.window[1]
        if v.outcome is Outcome.VIOLATED_FORBIDDEN:
            assert v.window[0] <= v.witness.timepoint.t <= v.window[1]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(DEVICES), st.sampled_from(DEVICES), spec_states, spec_states,
    st.tuples(st.integers(-600, 0), st.integers(0, 600)), traces_strategy,
)
def test_inverse_duality_for_lookback_windows(source, target, cause, effect, window, trace):
    """With a window starting at or before the cause, early matches cannot
    occur and the inverse rule forbids exactly where the plain rule is
    satisfied with a witness."""
    lo, hi = window
    plain = _mk_rule(0, source, target, cause, effect, (lo, hi), False)
    inverse = _mk_rule(0, source, target, cause, effect, (lo, hi), True)
    sat = {
        (id(v.cause_event), id(v.witness))
        for v in run_monitor([plain], trace)
        if v.outcome is Outcome.SATISFIED
    }
    forbidden = {
        (id(v.cause_event), id(v.witness))
        for v in run_monitor([inverse], trace)
        if v.outcome is Outcome.VIOLATED_FORBIDDEN
    }
    assert sat == forbidden


@settings(max_examples=120, deadline=None)
@given(rules_strategy, traces_strategy)
def test_non_inverse_satisfaction_implies_inverse_forbidden(rules, trace):
    for rule in rules:
        plain = _mk_rule(rule.index, rule.source, rule.target, rule.cause, rule.effect,
                         (rule.min_ms, rule.max_ms), False)
        inverse = _mk_rule(rule.index, rule.source, rule.target, rule.cause, rule.effect,
                           (rule.min_ms, rule.max_ms), True)
        sat = {
            (id(v.cause_event), id(v.witness))
            for v in run_monitor([plain], trace)
            if v.outcome is Outcome.SATISFIED and v.witness is not None
        }
        forbidden = {
            (id(v.cause_event), id(v.witness))
            for v in run_monitor([inverse], trace)
            if v.outcome is Outcome.VIOLATED_FORBIDDEN
        }
        assert sat <= forbidden


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(DEVICES), st.sampled_from(DEVICES), spec_states, spec_states,
    st.integers(0, 500), st.integers(0, 200), traces_strategy,
)
def test_correlation_equals_degenerate_constraint(source, target, cause, effect, delta, tol, trace):
    correlation_edge = EdgeAnn(
        source, target, TemporalCorrelation(cause, relative_duration(cause, delta), effect)
    )
    constraint_edge = EdgeAnn(
        source,
        target,
        TemporalConstraint(
            cause,
            TimeDurationRange(
                relative_duration(cause, delta - tol), relative_duration(cause, delta + tol)
            ),
            effect,
        ),
    )
    cfg = MonitorConfig(correlation_tolerance_ms=tol)
    # the raw correlation constant is scaled by the sequence unit; use ms
    # so both rules see the same window
    cfg_ms = MonitorConfig(
        correlation_tolerance_ms=tol, sequence_unit=SequenceUnit.MILLISECONDS
    )
    corr_rules = compile_topology(AnnotatedGraph((correlation_edge,)), cfg_ms)
    cons_rules = compile_topology(AnnotatedGraph((constraint_edge,)), cfg)
    corr = [(id(v.cause_event), v.outcome, id(v.witness) if v.witness else None, v.window)
            for v in run_monitor(corr_rules, trace)]
    cons = [(id(v.cause_event), v.outcome, id(v.witness) if v.witness else None, v.window)
            for v in run_monitor(cons_rules, trace)]
    assert corr == cons


@settings(max_examples=100, deadline=None)
@given(rules_strategy, traces_strategy)
def test_state_holds_matches_its_oracle(rules, trace):
    cfg = MonitorConfig(semantics=Semantics.STATE_HOLDS)
    verdicts = run_monitor(rules, trace, cfg)
    end = trace[-1].timepoint.t if trace else 0
    assert monitor_entries(verdicts, trace) == oracle_entries(
        rules, trace, end, auto_horizon(rules), state_mode=True
    )


def check_one_shot(rules, trace, cfg):
    """check_trace over a one-shot iterator of the trace, the rules given as
    a graph on a catalog of DEVICES; verdicts come in check_trace's order."""
    catalog = StationCatalog(
        devices={d: DeviceKind.SENSOR for d in DEVICES}, descriptions={}, topologies={},
        synthetic_edges=frozenset(), synthetic_entries=frozenset(),
    )
    graph = AnnotatedGraph(tuple(
        EdgeAnn(r.source, r.target, TemporalConstraint(
            r.cause,
            TimeDurationRange(
                relative_duration(r.cause, r.min_ms), relative_duration(r.cause, r.max_ms)
            ),
            r.effect,
            r.inverse,
        ))
        for r in rules
    ))
    verdicts = list(check_trace(catalog, graph, iter(trace), cfg))
    order = [(v.decided_at, v.rule.index, v.cause_time, v.outcome.value) for v in verdicts]
    assert order == sorted(order)
    return verdicts


@pytest.mark.parametrize(
    "semantics, feed",
    [pytest.param(s, run_monitor, id=s.value) for s in Semantics]
    + [pytest.param(s, check_one_shot, id=f"{s.value}-one-shot") for s in Semantics],
)
def test_seeded_medium_traces_match_oracle(semantics, feed):
    cfg = MonitorConfig(semantics=semantics)
    state_mode = semantics is Semantics.STATE_HOLDS
    rng = random.Random(20240811)
    for _ in range(40):
        rules = [
            _mk_rule(
                i,
                rng.choice(DEVICES),
                rng.choice(DEVICES),
                DeviceState(rng.choice(NAMES), rng.choice(SIGNALS + [Signal.DONT_CARE])),
                DeviceState(rng.choice(NAMES), rng.choice(SIGNALS + [Signal.DONT_CARE])),
                (rng.randint(-700, 700), rng.randint(-700, 700)),
                rng.random() < 0.3,
            )
            for i in range(rng.randint(1, 3))
        ]
        t = 0
        trace = []
        for _ in range(rng.randint(50, 250)):
            t += rng.randint(0, 40)
            trace.append(
                PhysicalEvent(
                    rng.choice(DEVICES),
                    DeviceKind.SENSOR,
                    TimePoint(t),
                    DeviceState(rng.choice(NAMES), rng.choice(SIGNALS)),
                )
            )
        verdicts = feed(rules, trace, cfg)
        assert monitor_entries(verdicts, trace) == oracle_entries(
            rules, trace, trace[-1].timepoint.t, auto_horizon(rules), state_mode=state_mode
        )
