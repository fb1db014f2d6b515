"""Seeded inputs of the three workloads, as plain data.

Nothing here imports capstation.  Every generator draws from its own
`random.Random` seeded with a string that names the workload and the seed,
so the same seed gives the same input on every run and every commit.

Plain forms used throughout the benchmark:

* a device is ``(name, kind, (high_state_name, low_state_name))``;
* an event is ``(t_ms, device_name, state_name, signal)`` with signal
  ``"High"`` or ``"Low"``;
* a rule is ``(source, cause, target, effect, min_ms, max_ms, inverse)``
  where ``cause`` and ``effect`` are state names matched on either signal.
"""

from __future__ import annotations

import bisect
import heapq
import json
import random
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

# -- station_pipe --------------------------------------------------------------

CYCLE_PERIOD_MS = 4800  # two_cycles_script's second cycle repeats every 4.8 s
STATION_CYCLES = 1200  # 20 events per cycle: about 24k events per pipe run
DEVIANT_AT = 0.5  # the late cycle sits at this fraction of the script ...
DEVIANT_SPREAD = 5  # ... shifted by up to this many cycles by the seed
DROPOFF_DELAY_MS = 100  # how late the deviant cycle's drop-off command is
# The simulator's default swing latency (simulator.default_latency_table).
SWING_MS = 800

PICKUP, DROPOFF = "Loader Pickup", "Loader Dropoff"


class StationInput(NamedTuple):
    commands: List[dict]  # script lines: time_ms, actuator, signal
    stack_count: int
    deviant_cycle: int
    # the one violation the deviant cycle must cause
    expected_cause_ms: int  # pickup contact of the deviant cycle
    expected_decided_ms: int  # the late drop-off contact


def read_script_lines(path: Path) -> List[dict]:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def station_pipe(seed: int, two_cycles: List[dict], cycles: int = STATION_CYCLES) -> StationInput:
    """Continue the shipped two-cycle script for `cycles` dispense cycles.

    The first 11 commands of two_cycles.jsonl are the nominal cycle; the
    remaining 10 are one repeatable cycle.  Cycle k is that cycle shifted by
    k * 4.8 s.  In the deviant cycle the drop-off swing is commanded 100 ms
    late, so the drop-off contact misses the exact 3 s ProcessSequence delay
    after that cycle's pickup contact.
    """
    rng = random.Random(f"station_pipe/{seed}")
    head, cycle = two_cycles[:11], two_cycles[11:]
    deviant = int(cycles * DEVIANT_AT) + rng.randint(-DEVIANT_SPREAD, DEVIANT_SPREAD)
    commands = [dict(c) for c in head]
    pickup_cmd = dropoff_cmd = None
    for k in range(cycles):
        for c in cycle:
            t = c["time_ms"] + k * CYCLE_PERIOD_MS
            late = k == deviant and c["actuator"] == DROPOFF and c["signal"] == "High"
            if late:
                t += DROPOFF_DELAY_MS
                dropoff_cmd = t
            if k == deviant and c["actuator"] == PICKUP and c["signal"] == "High":
                pickup_cmd = t
            commands.append({"time_ms": t, "actuator": c["actuator"], "signal": c["signal"]})
    # one cap for the nominal cycle plus one per repeated cycle
    return StationInput(
        commands, cycles + 1, deviant, pickup_cmd + SWING_MS, dropoff_cmd + SWING_MS
    )


# -- plant_rules -----------------------------------------------------------------

PLANT_DEVICES = 50
PLANT_RULES = 200
PLANT_EVENTS = 20_000
GAP_MS = (50, 200)  # every device changes state again within this gap
SILENCE_AT = 0.6  # share of the stream after which one device falls silent


class PlantInput(NamedTuple):
    devices: List[Tuple[str, str, Tuple[str, str]]]
    rules: List[tuple]
    events: List[tuple]


def _plant_devices(n: int) -> List[Tuple[str, str, Tuple[str, str]]]:
    out = []
    for i in range(n):
        if i % 2:
            out.append((f"Plant Sensor {i:02d}", "Sensor", ("Obstructed", "Unobstructed")))
        else:
            out.append((f"Plant Valve {i:02d}", "Actuator", ("Active", "Passive")))
    return out


def plant_rule_set(seed: int, n_devices: int = PLANT_DEVICES, n_rules: int = PLANT_RULES):
    """The plant's devices and rules, balanced so that every seed does the same work.

    Each device is the source of n_rules / n_devices rules, half of them on
    each of its two states, and the target of as many; effects and windows
    are drawn at random.  So every event opens the same number of
    obligations whatever the seed.
    """
    rng = random.Random(f"plant_rules/{seed}/rules")
    devices = _plant_devices(n_devices)
    per_device = n_rules // n_devices
    targets = [d for d in range(n_devices) for _ in range(per_device)]
    rng.shuffle(targets)
    hi_gap = GAP_MS[1]
    rules: List[tuple] = []
    seen = set()
    for k, g in enumerate(targets):
        s = k // per_device
        while True:
            rule = (
                devices[s][0], devices[s][2][k % 2], devices[g][0], rng.choice(devices[g][2]),
                0, rng.randint(2 * hi_gap, 4 * hi_gap), False,
            )
            if rule not in seen:
                break
        seen.add(rule)
        rules.append(rule)
    return devices, rules


def plant_rules(
    seed: int, n_events: int = PLANT_EVENTS, n_devices: int = PLANT_DEVICES, n_rules: int = PLANT_RULES
) -> PlantInput:
    """A dense synthetic plant checked in event semantics.

    Every device alternates between its two states with gaps of 50-200 ms,
    and every rule's window is [0, max] with max in [400, 800] ms, so each
    obligation meets its effect within two gaps of the target device.  At
    60 % of the stream one device falls silent for 1.6 s, which leaves the
    obligations waiting on it without an effect.
    """
    devices, rules = plant_rule_set(seed, n_devices, n_rules)
    rng = random.Random(f"plant_rules/{seed}/events")
    lo_gap, hi_gap = GAP_MS
    silent = rng.choice(devices)[0]
    silence_ms = 8 * hi_gap

    index = {d[0]: i for i, d in enumerate(devices)}
    state = [rng.randrange(2) for _ in devices]
    heap = [(rng.randint(0, hi_gap), i) for i in range(n_devices)]
    heapq.heapify(heap)
    events: List[tuple] = []
    silent_from = None
    while len(events) < n_events:
        t, i = heapq.heappop(heap)
        if silent_from is None and i == index[silent] and len(events) >= SILENCE_AT * n_events:
            silent_from = t
            heapq.heappush(heap, (t + silence_ms, i))
            continue
        state[i] ^= 1
        names = devices[i][2]
        events.append((t, devices[i][0], names[state[i]], "High" if state[i] == 0 else "Low"))
        heapq.heappush(heap, (t + rng.randint(lo_gap, hi_gap), i))
    return PlantInput(devices, rules, events)


# -- deep_history ------------------------------------------------------------------

DEEP_EVENTS = 60_000
NOISE_GAP_MS = (1, 5)  # three noise sensors: about one event per ms in all
CAUSE_GAP_MS = (100, 140)
PHASE_MS = 11_000  # targets hold each state this long
GUARD_MS = 100
GLITCH_AT = 0.55  # share of the stream where the planted glitch sits
GLITCH_MS = 40

T1, T2 = "Part Present A", "Part Present B"
C1, C2, C3, C4 = "Clamp A", "Release A", "Clamp B", "Release B"
NOISE = ("Light Curtain 1", "Light Curtain 2", "Light Curtain 3")
OBSTRUCTED, UNOBSTRUCTED = "Obstructed", "Unobstructed"
ACTIVE, PASSIVE = "Active", "Passive"

DEEP_DEVICES = [(d, "Sensor", (OBSTRUCTED, UNOBSTRUCTED)) for d in (T1, T2) + NOISE] + [
    (d, "Actuator", (ACTIVE, PASSIVE)) for d in (C1, C2, C3, C4)
]

# State semantics: the target must hold (or, inverse, never hold) the effect
# state throughout [tc+min, tc+max].  Every window reaches seconds back.
DEEP_RULES = [
    (C1, ACTIVE, T1, OBSTRUCTED, -3000, 200, False),
    (C1, PASSIVE, T1, OBSTRUCTED, -1500, 0, False),
    (C2, ACTIVE, T1, OBSTRUCTED, -2500, 100, True),
    (C3, ACTIVE, T2, UNOBSTRUCTED, -4000, -1000, False),
    (C4, PASSIVE, T2, UNOBSTRUCTED, -3500, 150, True),
]

# Each cause device toggles only while its target is in the given phase, far
# enough inside it that every window of its rules stays in that phase.
_CAUSE_PHASE = {C1: (T1, OBSTRUCTED), C2: (T1, UNOBSTRUCTED), C3: (T2, UNOBSTRUCTED), C4: (T2, OBSTRUCTED)}


class DeepInput(NamedTuple):
    devices: List[Tuple[str, str, Tuple[str, str]]]
    rules: List[tuple]
    events: List[tuple]
    glitch_ms: int  # T1 reads UNOBSTRUCTED on [glitch_ms, glitch_ms + GLITCH_MS)


def _signal(device_states: Tuple[str, str], name: str) -> str:
    return "High" if device_states[0] == name else "Low"


def deep_history(seed: int, n_events: int = DEEP_EVENTS) -> DeepInput:
    """A dense stream of few devices checked in state semantics.

    Three noise sensors fill the history at about one event per ms.  Two
    target sensors hold each state for 11 s.  Four cause actuators toggle
    only deep inside the phase their rules expect, so every obligation holds,
    except around one planted 40 ms glitch of target A placed at 55 % of the
    stream.
    """
    rng = random.Random(f"deep_history/{seed}")
    horizon = int(n_events * 1.1)  # noise alone gives about one event per ms
    states = {d[0]: d[2] for d in DEEP_DEVICES}
    stream: List[tuple] = []  # (t, order, device, state)

    # The phases are the same for every seed, so every seed gives the same
    # number of obligations: target A holds Obstructed for PHASE_MS / 2 on
    # either side of the glitch, whose time is fixed by the expected stream
    # rate so that it sits at the same share of the stream; target B's
    # phases are shifted by a quarter phase against A's.
    glitch = int(GLITCH_AT * n_events * sum(NOISE_GAP_MS) / 2 / len(NOISE))
    phases: Dict[str, List[Tuple[int, int, str]]] = {}
    for order, (target, first) in enumerate(((T1, glitch - PHASE_MS // 2), (T2, glitch - PHASE_MS // 4))):
        names = states[target]  # phase i holds names[i % 2]; phase 0 starts at `first`
        spans = [
            (max(0, first + i * PHASE_MS), first + (i + 1) * PHASE_MS, names[i % 2])
            for i in range(-(first // PHASE_MS) - 1, (horizon - first) // PHASE_MS + 1)
        ]
        stream.extend((start, order, target, held) for start, _, held in spans)
        phases[target] = spans

    for order, noise in enumerate(NOISE, start=2):
        names, current, t = states[noise], rng.randrange(2), 0
        while t < horizon:
            stream.append((t, order, noise, names[current]))
            current ^= 1
            t += rng.randint(*NOISE_GAP_MS)

    reach = {}
    for rule in DEEP_RULES:
        back, ahead = reach.get(rule[0], (0, 0))
        reach[rule[0]] = (max(back, -rule[4]), max(ahead, rule[5]))
    for order, cause in enumerate((C1, C2, C3, C4), start=5):
        target, wanted = _CAUSE_PHASE[cause]
        back, ahead = reach[cause]
        names, current = states[cause], rng.randrange(2)
        for start, end, held in phases[target]:
            if held != wanted:
                continue
            t = start + back + GUARD_MS + rng.randint(0, CAUSE_GAP_MS[1])
            while t < end - ahead - GUARD_MS:
                current ^= 1
                stream.append((t, order, cause, names[current]))
                t += rng.randint(*CAUSE_GAP_MS)

    stream.sort()
    events = [(t, d, s, _signal(states[d], s)) for t, _, d, s in stream[:n_events]]

    times = [e[0] for e in events]
    at = bisect.bisect_right(times, glitch)
    events[at:at] = [(glitch, T1, UNOBSTRUCTED, _signal(states[T1], UNOBSTRUCTED))]
    at = bisect.bisect_right(times, glitch + GLITCH_MS) + 1
    events[at:at] = [(glitch + GLITCH_MS, T1, OBSTRUCTED, _signal(states[T1], OBSTRUCTED))]
    return DeepInput(DEEP_DEVICES, DEEP_RULES, events, glitch)


def deep_glitch(plain: DeepInput) -> Tuple[str, int, int]:
    """(device, start ms, length ms) of deep_history's planted glitch."""
    return T1, plain.glitch_ms, GLITCH_MS


def rule_set(workload: str, seed: int):
    """Devices and rules of an in-process workload, without its events."""
    if workload == "plant_rules":
        return plant_rule_set(seed)
    return DEEP_DEVICES, DEEP_RULES


def generate(workload: str, seed: int):
    """The whole input of an in-process workload."""
    return plant_rules(seed) if workload == "plant_rules" else deep_history(seed)
