"""The monitor's report: its verdicts as one indented JSON list.

The monitor process runs this part; the simulate process never loads it.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, TextIO, Tuple

from .common import _event_text, event_to_obj


def verdict_to_obj(verdict) -> dict:
    return {
        "topology": verdict.rule.topology,
        "source": verdict.rule.source.id,
        "target": verdict.rule.target.id,
        "cause": verdict.rule.cause.name,
        "effect": verdict.rule.effect.name,
        "window_ms": [verdict.rule.min_ms, verdict.rule.max_ms],
        "inverse": verdict.rule.inverse,
        "kind": verdict.rule.kind.value,
        "cause_event": event_to_obj(verdict.cause_event),
        "window": [verdict.window[0], verdict.window[1]],
        "outcome": verdict.outcome.value,
        "witness": None if verdict.witness is None else event_to_obj(verdict.witness),
        "decided_at": verdict.decided_at,
    }


def write_report(out: TextIO, verdicts: Iterable) -> Iterator:
    """Write the verdicts as the report, one at a time, yielding each once
    it is written.  Drained, it has written json.dumps(list, indent=2) of
    their verdict_to_obj objects and a newline."""
    heads: Dict[int, Tuple[object, str]] = {}  # by id(rule); the entry keeps the rule alive
    events: Dict[Tuple[str, str, bool], Tuple[str, str]] = {}
    outcomes: Dict[str, str] = {}  # the JSON text of each outcome, by its value (a str hashes in C)
    sep = "[\n  "
    for verdict in verdicts:
        head = heads.get(id(verdict.rule))
        if head is None:  # the rule's keys, `topology` to `kind`
            text = json.dumps(verdict_to_obj(verdict), indent=2).replace("\n", "\n  ")
            head = heads[id(verdict.rule)] = verdict.rule, text.split(',\n    "cause_event"')[0]
        value = verdict.outcome._value_
        outcome = outcomes.get(value)
        if outcome is None:
            outcome = outcomes[value] = json.dumps(value)
        witness = "null" if verdict.witness is None else _event_text(events, verdict.witness, 2)
        out.write(
            f'{sep}{head[1]},\n    "cause_event": {_event_text(events, verdict.cause_event, 2)},\n'
            f'    "window": [\n      {verdict.window[0]},\n      {verdict.window[1]}\n    ],\n'
            f'    "outcome": {outcome},\n    "witness": {witness},\n'
            f'    "decided_at": {verdict.decided_at}\n  }}'
        )
        sep = ",\n  "
        yield verdict
    out.write("[]\n" if sep == "[\n  " else "\n]\n")
