"""Child processes of the benchmark; run.py starts them, one at a time.

    inproc.py setup WORKLOAD SEED
        A fresh interpreter that gets as far as a monitor ready for its first
        event: import capstation.cli, build the catalog, build and compile
        the workload's rules, construct StreamMonitor.  Prints its spans and
        the time it spent generating the plain rules (the benchmark's work,
        which run.py subtracts from the wall time).

    inproc.py rounds WORKLOAD SEED SECONDS TRACE ENTRIES SPANS
        Generates the workload's events and feeds them to a fresh
        StreamMonitor, in as many whole rounds as fit in SECONDS.  With
        TRACE 0 the speed sampler runs during every round; with TRACE 1 it
        is off and every other round wraps each ingest call in a span.
        A round in which the monitor raises, whose verdicts differ from the
        first good round's, or that reports no violation, is a failed round
        with its reasons.  Writes the first good round's verdicts as oracle
        entries to ENTRIES and the last good traced round's spans to SPANS.
        Prints one JSON line.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import speed

SAMPLER = speed.Sampler(speed.SETUP_SAMPLE_EVERY_S).start() if sys.argv[1:2] == ["setup"] else None

import inputs  # noqa: E402
from spans import Spans  # noqa: E402

ROOT_SRC = str(Path(__file__).resolve().parent.parent / "src")


def setup(workload: str, seed: int) -> dict:
    sys.path.insert(0, ROOT_SRC)
    spans = Spans()
    gen_start = perf_counter()
    if workload != "station_pipe":
        devices, rules = inputs.rule_set(workload, seed)
    gen_s = perf_counter() - gen_start
    with spans.span("cli.import"):
        import capstation.cli  # noqa: F401
    import program  # capstation is loaded by now; this adds only the benchmark's module

    if workload == "station_pipe":
        program.station_setup(spans)
    else:
        with spans.span("station.build_catalog"):
            program.build_catalog()
        with spans.span("plant.build_graph"):
            graph, ids = program.build_graph(devices, rules)
        with spans.span("monitor.compile"):
            program.compile_monitor(workload, graph, ids)
    SAMPLER.stop()
    return {"gen_s": gen_s, "passes_s": SAMPLER.total_s, "count": SAMPLER.count, "spans": spans.rows}


def _round(monitor, events, sampler, spans=None):
    """One pass of a fresh monitor over the whole stream.

    Returns (wall, first alarm, verdicts); the first alarm is (seconds,
    sampler pass time, pass count) at the first violation, or None.
    """
    ingest = monitor.ingest
    verdicts = []
    first = None
    end_time = events[-1].timepoint.t
    if spans is None:
        start = perf_counter()
        for event in events:
            out = ingest(event)
            if out:
                verdicts.extend(out)
                if first is None and any(v.outcome.is_violation for v in out):
                    first = (perf_counter() - start, sampler.total_s, sampler.count)
        verdicts.extend(monitor.finalize(end_time))
        wall = perf_counter() - start
    else:
        begin, end = spans.begin, spans.end
        root = begin("round")
        start = spans.rows[root][1]
        for event in events:
            row = begin("monitor.ingest")
            out = ingest(event)
            end(row)
            if out:
                verdicts.extend(out)
                if first is None and any(v.outcome.is_violation for v in out):
                    first = (perf_counter() - start, 0.0, 0)
        row = begin("monitor.finalize")
        verdicts.extend(monitor.finalize(end_time))
        end(row)
        end(root)
        wall = spans.rows[root][2] - start
    return wall, first, verdicts


def rounds(workload: str, seed: int, seconds: float, trace: bool, entries_path: str, spans_path: str) -> dict:
    sys.path.insert(0, ROOT_SRC)
    import program

    plain = inputs.generate(workload, seed)
    graph, ids = program.build_graph(plain.devices, plain.rules)
    rules, cfg, _ = program.compile_monitor(workload, graph, ids)
    events = program.build_events(plain.devices, plain.events, ids)

    out = []
    baseline = None
    last_spans = None
    sampler = speed.Sampler()
    budget = speed.Budget(seconds)
    while budget.next() or (trace and len(out) < 2):  # a traced run needs one round of each
        traced = trace and len(out) % 2 == 1
        spans = Spans() if traced else None
        failures = []
        wall, first = 0.0, None
        sampler.reset()
        if not trace:
            sampler.start()
        try:
            monitor = program.StreamMonitor(rules, cfg, known_devices=ids.values())
            wall, first, verdicts = _round(monitor, events, sampler, spans)
        except Exception as exc:  # the program failed this round; the next rounds still run
            failures.append(f"the monitor raised {type(exc).__name__}: {exc}")
        finally:
            sampler.stop()
        if not failures:
            entries = program.monitor_entries(verdicts, events)
            if baseline is None:
                baseline = entries
                with open(entries_path, "w", encoding="utf-8") as fp:
                    json.dump([[*entry, n] for entry, n in sorted(baseline.items(), key=repr)], fp)
            elif entries != baseline:
                failures.append("the verdicts differ from the first round's")
            if first is None:
                failures.append("no violation was reported")
            del verdicts, entries  # so that one round's verdicts are held at a time
        if traced and not failures:
            last_spans = spans
        out.append(
            {
                "wall_s": wall,
                "first_alarm_s": first,
                "passes_s": sampler.total_s,
                "count": sampler.count,
                "traced": traced,
                "self_s": spans.self_times() if traced and not failures else None,
                "failures": failures,
            }
        )
    if last_spans is not None:
        with open(spans_path, "w", encoding="utf-8") as fp:
            json.dump(last_spans.rows, fp)
    return {"events": len(events), "rules": len(rules), "rounds": out, "rss_mb": speed.peak_rss_mb()}


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        result = setup(workload, seed)
    else:
        seconds, trace, entries_path, spans_path = float(argv[3]), argv[4] == "1", argv[5], argv[6]
        result = rounds(workload, seed, seconds, trace, entries_path, spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
