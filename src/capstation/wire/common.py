"""What every part of `wire` shares: the checks of a JSON value's shape,
the one opener of an input or output (`opened`), the line reader, and the
text of a live event, which the trace writer, the trace reader and the
report writer all render the same way.

`write_trace` lives here and not with the trace reader, so that the
simulate process, which writes a trace but reads none, compiles no reader.
It renders each (device, state)'s text once, by json.dumps, and writes
the lines in batches of `_BATCH_LINES`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import stat
import sys
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

from ..core.bemap import ComponentId
from ..devices import DeviceState, PhysicalEvent, Signal
from ..errors import MalformedJsonError, OutOfOrderEventError, SchemaViolationError


def _obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaViolationError(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, path: str, required: Sequence[str], optional: Sequence[str] = ()):
    for key in required:
        if key not in obj:
            raise SchemaViolationError(path, f"missing key {key!r}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise SchemaViolationError(path, f"unexpected key {key!r}")


def _component(value, path: str) -> ComponentId:
    if not isinstance(value, str) or not value:
        raise SchemaViolationError(path, "expected a non-empty string")
    return ComponentId(value)


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaViolationError(path, f"expected an integer, got {value!r}")
    return value


@contextlib.contextmanager
def opened(target: Union[str, TextIO], mode: str = "r") -> Iterator[TextIO]:
    """A text stream to read (mode "r") or write ("w") on `target`: a file
    object as it is, `-` as stdin or stdout, any other string as a path.

    A path, and stdin when it has a byte buffer, are decoded as UTF-8 with
    surrogateescape, whatever the locale: a byte that is not UTF-8 reads as
    a lone surrogate, which `_check_utf8` reports with its line and column.
    If the body or the closing flush raises, a regular file this call created
    at a path is removed; a file, symlink or device that was there before is
    left as far as it was written."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
    elif target != "-":
        created = mode == "w" and not os.path.lexists(target)
        fp = open(target, mode, encoding="utf-8", errors="surrogateescape")
        try:
            with fp:
                created = created and stat.S_ISREG(os.fstat(fp.fileno()).st_mode)
                yield fp
        except BaseException:
            if created:
                os.remove(target)
            raise
    elif mode == "r" and hasattr(sys.stdin, "buffer"):
        fp = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", errors="surrogateescape")
        try:
            yield fp
        finally:
            fp.detach()  # stdin stays open
    else:  # stdout, or a text stream put in stdin's place
        yield sys.stdout if mode == "w" else sys.stdin


def _write_text(target: Union[str, TextIO], text: str) -> None:
    """Write text to a path, `-` or a writable file-like object."""
    with opened(target, "w") as fp:
        fp.write(text)


_NOT_UTF8 = re.compile("[\udc80-\udcff]")  # a byte that surrogateescape kept


def _check_utf8(number: int, line: str) -> None:
    """Raise if line `number` holds a byte that was not UTF-8."""
    bad = _NOT_UTF8.search(line)
    if bad:
        what = f"line {number}: not UTF-8: byte 0x{ord(bad[0]) - 0xDC00:02x}"
        raise MalformedJsonError(f"{what} at column {bad.start() + 1}", line=number)


def _numbered_lines(source: Union[str, TextIO]) -> Iterator[Tuple[int, str]]:
    """(line number, text) of every non-blank line of a path, `-` or a file
    object, read lazily, each checked to be UTF-8.

    Lines are numbered as str.splitlines numbers the whole text: each line
    a file yields is split again, so a break other than a newline counts.
    """
    number = 0
    with opened(source) as chunks:
        for chunk in chunks:
            for line in chunk.splitlines():
                number += 1
                if not line.isascii():  # one C call for a writer's line
                    _check_utf8(number, line)
                if line.strip():
                    yield number, line


def _json_line(number: int, line: str):
    """The value of one JSON line; an error names the line."""
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:  # not JSON, too many digits, too deeply nested
        raise MalformedJsonError(f"line {number}: {exc}", line=number) from exc


# a concrete signal by its wire name: one lookup both checks and converts
_SIGNALS = {"High": Signal.HIGH, "Low": Signal.LOW}


def _around_time(line: str, key: str) -> Tuple[Tuple[str, str], str]:
    """((text before, text after), digits): a line cut at the first `key`
    (a time's key and colon) and at the first comma after it."""
    head, _, rest = line.partition(key)
    digits, _, tail = rest.partition(",")
    return (head, tail), digits


# JSON's integer grammar, in ASCII digits only
_JSON_INT = re.compile(r"-?(?:0|[1-9][0-9]*)")


def _json_int(text: str) -> Optional[int]:
    """The int json.loads reads from `text`, or None if it reads none or fails."""
    if _JSON_INT.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


# -- states and live events ---------------------------------------------------------


def state_to_obj(state: DeviceState) -> dict:
    out: dict = {"type": state.name}
    if state.signal is not Signal.DONT_CARE:
        out["signal"] = state.signal.value
    return out


def event_to_obj(event: PhysicalEvent) -> dict:
    return {
        "type": "PhysicalEvent",
        "component": event.device.id,
        "timepoint": event.timepoint.t,
        "state": state_to_obj(event.state),
    }


_TIMEPOINT = '"timepoint": '  # the key before the one value the event templates leave open


def _event_text(cache: dict, event: PhysicalEvent, indent: Optional[int]) -> str:
    """json.dumps(event_to_obj(event), indent=indent), nested as in the report.
    The text on either side of the timepoint is rendered once per (device,
    state) into `cache`; names escape their quotes, so only the key is split."""
    # an event's signal is High or Low, never don't-care
    key = (event.device.id, event.state.name, event.state.signal is Signal.HIGH)
    halves = cache.get(key)
    if halves is None:
        obj = {**event_to_obj(event), "timepoint": 0}
        dump = json.dumps(obj, indent=indent).replace("\n", "\n    ")
        before, _, after = dump.partition(_TIMEPOINT + "0")
        halves = cache[key] = before + _TIMEPOINT, after
    return f"{halves[0]}{event.timepoint.t}{halves[1]}"


# lines joined into one write: under PYTHONUNBUFFERED stdout writes through
# to the file descriptor, so a write per line is a system call per event
_BATCH_LINES = 64


def write_trace(target: Union[str, TextIO], events: Iterable[PhysicalEvent]) -> None:
    """Write events to a path, `-` or a file object as JSON lines,
    `_BATCH_LINES` per write; events must be time-ordered.  Whatever stops
    the stream, the lines of the events before it are written first."""
    lines: Dict[Tuple[str, str, bool], Tuple[str, str]] = {}
    with opened(target, "w") as out:
        held: List[str] = []
        last = None
        try:
            for event in events:
                t = event.timepoint.t
                if last is not None and t < last:
                    raise OutOfOrderEventError(f"event at {t} after event at {last}")
                last = t
                held.append(_event_text(lines, event, None))
                if len(held) == _BATCH_LINES:
                    batch, held = held, []
                    out.write("\n".join(batch) + "\n")
        finally:
            if held:
                out.write("\n".join(held) + "\n")
