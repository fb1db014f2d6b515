"""Measuring inside the timed processes: host speed, round budget, peak memory.

The host's speed drifts by tens of percent within a second (other tenants
share its cores), and a pass timed on another core does not follow the
drift of this one.  So the reference runs inside each timed process,
interleaved with the program: a Sampler raises SIGVTALRM after every
SAMPLE_EVERY_S of the process's own CPU time and runs one reference pass
in the handler.  A timed sample is then reported as

    (wall time - time spent in reference passes) * REFERENCE_S / (mean pass time)

which is the time the work would have taken on a host running the pass in
REFERENCE_S.  The pass is the benchmark's own code, so it does the same work
on every commit.  It leans on what capstation's hot paths lean on:
frozen-dataclass equality, attribute access, small dicts and json.
"""

from __future__ import annotations

import gc
import json
import signal
from dataclasses import dataclass
from time import perf_counter

# Mean time of one pass taken inside a running workload on the reference
# host (2 vCPU, Python 3.11); it only sets the scale of the figures.
REFERENCE_S = 0.003
SAMPLE_EVERY_S = 0.05
# Set-up takes about 0.15 s of CPU, so set-up processes sample more often.
SETUP_SAMPLE_EVERY_S = 0.02


@dataclass(frozen=True)
class _Id:
    id: str


@dataclass(frozen=True)
class _Event:
    device: _Id
    t: int
    state: str


@dataclass(frozen=True)
class _Rule:
    source: _Id
    target: _Id
    cause: str
    effect: str
    hi: int


_IDS = [_Id(f"device {i}") for i in range(10)]
_RULES = [_Rule(_IDS[i % 10], _IDS[(i * 3) % 10], "Obstructed", "Passive", 50 + i) for i in range(24)]
_EVENTS = [_Event(_Id(f"device {i % 10}"), i, "Obstructed" if i % 3 else "Passive") for i in range(100)]


def reference_pass() -> float:
    """Seconds taken by one fixed pass (REFERENCE_S on the reference host).

    The cyclic collector is off during the pass: a collection its allocations
    set off would cost in proportion to the program's live heap, and the
    pass must measure the host, not the program.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        open_ = []
        for event in _EVENTS:
            for rule in _RULES:
                if rule.source != event.device or rule.cause != event.state:
                    continue
                open_.append((rule, event.t + rule.hi))
            open_ = [(r, hi) for r, hi in open_ if hi >= event.t and not (r.target == event.device and r.effect == event.state)]
            line = json.dumps({"component": event.device.id, "timepoint": event.t, "state": {"type": event.state}})
            json.loads(line)
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Runs a reference pass after every `every_s` of this process's CPU time."""

    def __init__(self, every_s: float = SAMPLE_EVERY_S) -> None:
        self.every_s = every_s
        self.total_s = 0.0
        self.count = 0

    def _tick(self, signum, frame) -> None:
        self.total_s += reference_pass()
        self.count += 1

    def start(self) -> "Sampler":
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.every_s, self.every_s)
        return self

    def stop(self) -> "Sampler":
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        return self

    def reset(self) -> None:
        self.total_s, self.count = 0.0, 0


def normalised(wall_s: float, passes_s: float, count: int) -> float:
    """Wall time less the passes' own time, scaled to the reference speed."""
    if count == 0:
        return wall_s
    return (wall_s - passes_s) * REFERENCE_S * count / passes_s


class Budget:
    """Whole rounds within `seconds`: a round starts only if a round as long
    as the longest so far would still end in time.  The first always runs."""

    def __init__(self, seconds: float) -> None:
        self.end = perf_counter() + seconds
        self.longest = 0.0
        self.started = None

    def next(self) -> bool:
        now = perf_counter()
        if self.started is not None:
            self.longest = max(self.longest, now - self.started)
            if now + self.longest > self.end:
                return False
        self.started = now
        return True


def peak_rss_mb() -> float:
    """This process's peak resident memory since it exec'd, in MB.

    VmHWM covers only the process's own address space.  ru_maxrss would also
    count the parent's memory at the moment it forked this process.
    """
    with open("/proc/self/status", encoding="ascii") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")
