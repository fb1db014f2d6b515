"""Checks of the program's outputs, computed apart from the program.

Each check returns a list of failures; an empty list means the output
passed.  None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

DONT_CARE = "Don't Care"
SATISFIED, PENDING, MISSING, FORBIDDEN = "Satisfied", "Pending", "ViolatedMissing", "ViolatedForbidden"


def _matches(name: str, signal: str, event_name: str, event_signal: str) -> bool:
    return name == event_name and (signal == DONT_CARE or signal == event_signal)


def obligations(rules: Sequence[dict], events: Sequence[tuple]) -> List[Tuple[int, int]]:
    """(rule index, cause event index) for every rule and every event matching its cause."""
    by_source: Dict[str, List[int]] = {}
    for i, rule in enumerate(rules):
        by_source.setdefault(rule["source"], []).append(i)
    out = []
    for ci, (t, device, name, signal) in enumerate(events):
        for i in by_source.get(device, ()):
            rule = rules[i]
            if _matches(rule["cause"], rule["cause_signal"], name, signal):
                out.append((i, ci))
    return out


def plain_rules(rules: Sequence[tuple]) -> List[dict]:
    """Plain rule tuples of inputs.py as dicts; their causes match either signal."""
    return [
        {"source": s, "cause": c, "cause_signal": DONT_CARE, "target": g, "effect": e,
         "window_ms": [lo, hi], "inverse": inv}
        for s, c, g, e, lo, hi, inv in rules
    ]


# -- station_pipe ----------------------------------------------------------------


def station_expectation(rules: Sequence[dict], events: Sequence[tuple], spec) -> dict:
    """Verdict counts per rule and the violations the deviant cycle must cause.

    The deviant cycle's drop-off contact comes `expected_decided_ms -
    expected_cause_ms` after its pickup contact; outside the ProcessSequence
    window that obligation is violated.  The simulator clears the origin
    sensor before it sets the destination one at the same instant, so the
    first event past the window is not the effect and the obligation expires
    as ViolatedMissing at the late contact's time.
    """
    counts = Counter(i for i, _ in obligations(rules, events))
    sequence = next(i for i, r in enumerate(rules) if r["topology"] == "ProcessSequence")
    lo, hi = rules[sequence]["window_ms"]
    if lo <= spec.expected_decided_ms - spec.expected_cause_ms <= hi:
        violations = []
    else:
        violations = [(sequence, spec.expected_cause_ms, MISSING, spec.expected_decided_ms)]
    return {"events": len(events), "counts": [counts[i] for i in range(len(rules))], "violations": violations}


def check_station_report(report: Sequence[dict], rules: Sequence[dict], expect: dict) -> List[str]:
    failures: List[str] = []
    index = {
        (r["topology"], r["source"], r["target"], r["cause"], r["effect"], tuple(r["window_ms"])): i
        for i, r in enumerate(rules)
    }
    counts = [0] * len(rules)
    bad = []
    for n, v in enumerate(report):
        key = (v["topology"], v["source"], v["target"], v["cause"], v["effect"], tuple(v["window_ms"]))
        i = index.get(key)
        if i is None:
            failures.append(f"verdict {n}: unknown rule {key}")
            continue
        counts[i] += 1
        cause_t = v["cause_event"]["timepoint"]
        lo, hi = cause_t + rules[i]["window_ms"][0], cause_t + rules[i]["window_ms"][1]
        if list(v["window"]) != [lo, hi]:
            failures.append(f"verdict {n}: window {v['window']} != {[lo, hi]}")
        if v["outcome"] != SATISFIED:
            bad.append((i, cause_t, v["outcome"], v["decided_at"]))
            continue
        w = v["witness"]
        if w is None or not lo <= w["timepoint"] <= hi or w["component"] != rules[i]["target"]:
            failures.append(f"verdict {n}: satisfied without a witness inside [{lo}, {hi}]")
    if counts != expect["counts"]:
        diff = [(rules[i]["topology"], c, e) for i, (c, e) in enumerate(zip(counts, expect["counts"])) if c != e]
        failures.append(f"verdicts per rule differ from cause events per rule: {diff}")
    if bad != expect["violations"]:
        failures.append(f"violations {bad[:5]} != predicted {expect['violations']}")
    return failures


def check_station_cli(sim_code: int, mon_code: int, summary: Optional[dict], alarms: int, expect: dict) -> List[str]:
    failures = []
    violations = len(expect["violations"])
    if sim_code != 0:
        failures.append(f"simulate exited {sim_code}")
    if mon_code != (1 if violations else 0):
        failures.append(f"monitor exited {mon_code} with {violations} violation(s) expected")
    want = {"events": expect["events"], "verdicts": sum(expect["counts"]), "violations": violations}
    if summary != want:
        failures.append(f"monitor summary {summary} != {want}")
    if alarms != violations:
        failures.append(f"{alarms} violation lines on stderr, expected {violations}")
    return failures


# -- in-process workloads ----------------------------------------------------------


def check_against_oracle(entries: Counter, oracle: Counter) -> List[str]:
    if entries == oracle:
        return []
    extra = entries - oracle
    missing = oracle - entries
    return [
        f"verdicts differ from the oracle: {sum(extra.values())} unexpected "
        f"(e.g. {next(iter(extra), None)}), {sum(missing.values())} missing "
        f"(e.g. {next(iter(missing), None)})"
    ]


def deep_expected_outcome(rule: dict, cause_t: int, glitch: Tuple[str, int, int], end_t: int) -> str:
    """Outcome of a deep_history obligation, from the construction of its input.

    Every target holds the state its rules expect across every window, except
    the glitch's device, which reads the other state on [start, start + len).
    In state semantics the target's state at the window start is its last
    event at or before it, and events inside (start, end] count, so a window
    on that device is broken exactly when lo < start + len and start <= hi.
    """
    device, start, length = glitch
    lo, hi = cause_t + rule["window_ms"][0], cause_t + rule["window_ms"][1]
    if rule["target"] == device and lo < start + length and start <= hi:
        return FORBIDDEN if rule["inverse"] else MISSING
    return PENDING if hi > end_t else SATISFIED


def check_deep(
    entries: Counter, rules: Sequence[dict], events: Sequence[tuple], glitch: Tuple[str, int, int]
) -> List[str]:
    """Every obligation yields one verdict with the outcome its construction implies.

    glitch: (device, start ms, length ms) of the input's one planted glitch.
    """
    failures = []
    end_t = events[-1][0]
    expected = Counter(obligations(rules, events))
    seen = Counter()
    for (rule, ci, outcome, _witness, _decided), n in entries.items():
        seen[(rule, ci)] += n
        want = deep_expected_outcome(rules[rule], events[ci][0], glitch, end_t)
        if outcome != want:
            failures.append(f"rule {rule} cause@{events[ci][0]}: {outcome}, expected {want}")
    if seen != expected:
        failures.append(
            f"{sum((expected - seen).values())} obligations without a verdict, "
            f"{sum((seen - expected).values())} verdicts without an obligation or repeated"
        )
    return failures[:10]


def oracle_sample(entries: Counter, seed: int, size: int, must: Sequence[Tuple[int, int]] = ()) -> List[tuple]:
    """A seeded sample of verdict entries, plus every entry whose (rule, cause) is in `must`."""
    ordered = sorted(entries, key=repr)
    rng = random.Random(f"oracle-sample/{seed}")
    picked = set(rng.sample(range(len(ordered)), min(size, len(ordered))))
    want = set(must)
    return [e for k, e in enumerate(ordered) if k in picked or (e[0], e[1]) in want]


# -- counts derived from inputs and verdicts -------------------------------------


def monitor_counts(
    rules: Sequence[dict], events: Sequence[tuple], verdicts: Sequence[Tuple[int, int, str]]
) -> dict:
    """verdicts: (cause time, decided_at, outcome) per verdict.

    open_peak: most obligations open after all events of one timestamp were
    ingested (opened at or before it, decided after it or still pending).
    lookback_peak: most earlier events within the history horizon when an
    event arrives.  match_ratio: obligations / (events x rules).
    """
    deltas: Dict[int, int] = Counter()
    for cause_t, decided, outcome in verdicts:
        deltas[cause_t] += 1
        if outcome != PENDING:
            deltas[decided] -= 1
    open_now = open_peak = 0
    for t in sorted(deltas):
        open_now += deltas[t]
        open_peak = max(open_peak, open_now)

    horizon = max([0] + [-r["window_ms"][0] for r in rules])
    times = [e[0] for e in events]
    lookback_peak = max(
        (i - bisect.bisect_left(times, t - horizon, 0, i) for i, t in enumerate(times)), default=0
    )
    violations = sum(1 for _, _, o in verdicts if o.startswith("Violated"))
    return {
        "monitor.match_ratio": len(verdicts) / (len(events) * len(rules)),
        "monitor.open_peak": open_peak,
        "monitor.lookback_peak": lookback_peak,
        "monitor.verdicts": len(verdicts),
        "monitor.violations": violations,
    }
