"""Command scripts (JSON lines) and fault files (one JSON list).

The simulate process runs this part; the monitor process never loads it.
A script file is read in two streaming passes (`script_file`), so the
simulator never holds its commands; a script that can be read only once
is read whole (`read_script`).
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import stat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

from ..devices import ACTIVATE, DEACTIVATE, KNOWN_STATE_NAMES, Command, DropEvents, FaultSpec
from ..devices import LatencyOverride, StuckSensor, abstract_state
from ..errors import MalformedJsonError, SchemaViolationError
from ..station import ACTUATORS
from .common import _SIGNALS, _around_time, _check_keys, _component, _int, _json_int, _json_line
from .common import _lines, _numbered_lines, _obj, _write_text


def script_to_lines(script: Sequence[Command]) -> str:
    return "".join(
        json.dumps({"time_ms": time, "actuator": actuator.id, "signal": signal.value}) + "\n"
        for time, actuator, signal in script
    )


def write_script(target: Union[str, TextIO], script: Sequence[Command]) -> None:
    _write_text(target, script_to_lines(script))


_ACTUATORS_BY_ID = {actuator.id: actuator for actuator in ACTUATORS}
_TIME_MS = '"time_ms": '


def _commands(source: Union[str, TextIO]) -> Iterator[Command]:
    """Each command of a script, checked as its line is read; its commands
    share the station's actuators.  A line that is write_script's text of
    an (actuator, signal) an earlier line has checked, around a JSON
    integer, is read from that text alone."""
    checked: Dict[Tuple[str, str], Command] = {}  # by the writer's text around the time
    last = None
    for number, line in _numbered_lines(_lines(source)):
        around, digits = _around_time(line, _TIME_MS)
        seen = checked.get(around)
        time = None if seen is None else _json_int(digits)
        if time is None:
            seen = None
            path = f"line {number}"
            obj = _obj(_json_line(number, line), path)
            _check_keys(obj, path, ["time_ms", "actuator", "signal"])
            level = obj["signal"]
            signal = _SIGNALS.get(level) if isinstance(level, str) else None
            if signal is None:
                raise SchemaViolationError(f"{path}.signal", "signal must be High or Low")
            time = _int(obj["time_ms"], f"{path}.time_ms")
        if last is not None and time < last:
            raise SchemaViolationError(
                f"line {number}", f"time_ms {time} is earlier than the previous line's {last}"
            )
        last = time
        if seen is None:  # read by json.loads: check the actuator, then seed the writer's text
            name = obj["actuator"]
            actuator = _ACTUATORS_BY_ID.get(name) if isinstance(name, str) else None
            if actuator is None:
                _component(name, f"{path}.actuator")  # a non-string or empty id has its own message
                raise SchemaViolationError(f"{path}.actuator", f"unknown actuator: {name}")
            seen = Command(time, actuator, signal)
            checked[_around_time(script_to_lines([seen])[:-1], _TIME_MS)[0]] = seen
        yield Command(time, seen.actuator, seen.signal)


def read_script(source: Union[str, TextIO]) -> Tuple[Command, ...]:
    """Read and check a whole script."""
    return tuple(_commands(source))


@contextlib.contextmanager
def script_file(path: str) -> Iterator[Iterable[Command]]:
    """The commands of the script file at `path`, every line checked before
    this yields them, as read_script checks it.

    A regular file is checked in one streaming pass that keeps nothing, then
    read again in a second pass as the commands are consumed.  If the second
    pass does not read as many commands as the first checked, it raises.  Any
    other file (a pipe, a FIFO, a terminal) can be read only once: it is read
    whole by read_script.
    """
    with open(path, "r", encoding="utf-8") as fp:
        if not stat.S_ISREG(os.fstat(fp.fileno()).st_mode):
            yield read_script(fp)
            return
        checked = 0
        for checked, _ in enumerate(_commands(fp), 1):
            pass
        fp.seek(0)
        yield _reread(fp, path, checked)


def _reread(fp: TextIO, path: str, checked: int) -> Iterator[Command]:
    count = 0
    for count, command in enumerate(_commands(fp), 1):
        if count > checked:
            break
        yield command
    if count != checked:
        read = "more" if count > checked else str(count)
        raise SchemaViolationError(
            path, f"the file changed while it was read: {checked} commands checked, then {read} read"
        )


def faults_from_obj(value) -> List[FaultSpec]:
    if not isinstance(value, list):
        raise SchemaViolationError("faults", "expected a list")
    out: List[FaultSpec] = []
    for i, item in enumerate(value):
        path = f"faults[{i}]"
        obj = _obj(item, path)
        kind = obj.get("fault")
        if kind == "latency-override":
            _check_keys(obj, path, ["fault", "device", "latency_ms"], ["transition"])
            latency_ms = _int(obj["latency_ms"], f"{path}.latency_ms")
            if latency_ms < 0:
                raise SchemaViolationError(
                    f"{path}.latency_ms", f"must be non-negative, got {latency_ms}"
                )
            transition = obj.get("transition")
            if transition not in (None, ACTIVATE, DEACTIVATE):
                raise SchemaViolationError(
                    f"{path}.transition", f"must be activate or deactivate, got {transition!r}"
                )
            out.append(
                LatencyOverride(
                    device=_component(obj["device"], f"{path}.device"),
                    latency_ms=latency_ms,
                    transition=transition,
                )
            )
        elif kind == "stuck-sensor":
            _check_keys(obj, path, ["fault", "device", "state"])
            name = obj["state"]
            if not isinstance(name, str) or name not in KNOWN_STATE_NAMES:
                raise SchemaViolationError(f"{path}.state", f"unknown state {name!r}")
            device = _component(obj["device"], f"{path}.device")
            out.append(StuckSensor(device=device, state=abstract_state(name)))
        elif kind == "drop-events":
            _check_keys(obj, path, ["fault", "device"])
            out.append(DropEvents(device=_component(obj["device"], f"{path}.device")))
        else:
            raise SchemaViolationError(f"{path}.fault", f"unknown fault kind {kind!r}")
    return out


# a JSON string, or a number's integer, fraction and exponent parts
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|(-?[0-9]+)(\.[0-9]+)?([eE][-+]?[0-9]+)?')


def _unconvertible_int_line(text: str) -> Optional[int]:
    """The line of the first integer in JSON text that int() cannot convert."""
    for token in _JSON_TOKEN.finditer(text):
        if token[1] and not (token[2] or token[3]) and _json_int(token[1]) is None:
            return text.count("\n", 0, token.start()) + 1
    return None


def read_faults(source: Union[str, TextIO]) -> List[FaultSpec]:
    text = "".join(_lines(source))
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: too deeply nested
        raise MalformedJsonError(str(exc)) from exc
    except ValueError as exc:  # more digits than int() converts, with no place in the message
        line = _unconvertible_int_line(text)
        raise MalformedJsonError(f"line {line}: {exc}", line=line) from exc
    return faults_from_obj(value)
