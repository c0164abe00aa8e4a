"""Structural validation of exported Chrome trace-event documents.

``chrome://tracing`` and Perfetto silently drop malformed events, which
turns exporter bugs into "my spans vanished" mysteries.  This validator
enforces the subset of the trace-event format the recorder emits, so
tests (``tests/test_obs.py``, ``tests/test_cli.py``) fail loudly instead:

* top level: an object with a ``traceEvents`` list;
* every event: ``ph``/``pid``/``tid``/``ts`` present and well-typed;
* duration events: ``B``/``E`` balanced in LIFO order per (pid, tid);
* complete events: non-negative integer ``dur``;
* async events: ``b``/``e`` balanced per (cat, id, name);
* counter events: numeric values only.
"""

from __future__ import annotations

from typing import Any

#: Phases the recorder emits (a subset of the full trace-event spec).
KNOWN_PHASES = frozenset({"B", "E", "X", "i", "I", "C", "b", "e", "n", "M"})

#: Phases for which a ``name`` field is mandatory.
NAMED_PHASES = frozenset({"B", "X", "i", "I", "C", "b", "e", "n", "M"})


class TraceSchemaError(ValueError):
    """Raised when a trace document violates the trace-event format."""


def _fail(index: int, message: str) -> None:
    raise TraceSchemaError(f"traceEvents[{index}]: {message}")


def validate_chrome_trace(document: Any) -> int:
    """Validate a Chrome trace document; returns the number of events.

    Accepts either the object form (``{"traceEvents": [...]}``) or the
    bare event array.  Raises :class:`TraceSchemaError` on the first
    violation.
    """
    if isinstance(document, dict):
        events = document.get("traceEvents")
        if not isinstance(events, list):
            raise TraceSchemaError("document must contain a 'traceEvents' list")
    elif isinstance(document, list):
        events = document
    else:
        raise TraceSchemaError("document must be an object or an event array")

    open_spans: dict[tuple[Any, Any], list[str]] = {}
    open_async: dict[tuple[Any, Any, Any], int] = {}

    for index, event in enumerate(events):
        if not isinstance(event, dict):
            _fail(index, "event is not an object")
        ph = event.get("ph")
        if ph not in KNOWN_PHASES:
            _fail(index, f"unknown phase {ph!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                _fail(index, f"missing/non-integer {key!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            _fail(index, f"missing/negative timestamp {ts!r}")
        if ph in NAMED_PHASES and not isinstance(event.get("name"), str):
            _fail(index, f"phase {ph!r} requires a string 'name'")
        if "args" in event and not isinstance(event["args"], dict):
            _fail(index, "'args' must be an object")

        lane = (event["pid"], event["tid"])
        if ph == "B":
            open_spans.setdefault(lane, []).append(event["name"])
        elif ph == "E":
            stack = open_spans.get(lane)
            if not stack:
                _fail(index, "'E' event with no matching 'B' on its lane")
            opened = stack.pop()
            name = event.get("name")
            if name is not None and name != opened:
                _fail(index, f"'E' closes {name!r} but {opened!r} is innermost")
        elif ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                _fail(index, f"'X' event needs non-negative 'dur', got {dur!r}")
        elif ph in ("b", "e"):
            if "id" not in event:
                _fail(index, f"async {ph!r} event needs an 'id'")
            key = (event.get("cat"), event["id"], event["name"])
            if ph == "b":
                open_async[key] = open_async.get(key, 0) + 1
            else:
                if open_async.get(key, 0) < 1:
                    _fail(index, f"async 'e' with no open 'b' for {key!r}")
                open_async[key] -= 1
        elif ph == "C":
            values = event.get("args", {})
            if not values:
                _fail(index, "'C' event needs at least one counter value")
            for key, value in values.items():
                if not isinstance(value, (int, float)):
                    _fail(index, f"counter value {key}={value!r} is not numeric")

    unclosed = {lane: stack for lane, stack in open_spans.items() if stack}
    if unclosed:
        raise TraceSchemaError(f"unclosed 'B' spans at end of trace: {unclosed}")
    dangling = [key for key, count in open_async.items() if count]
    if dangling:
        raise TraceSchemaError(f"unclosed async spans: {dangling[:5]}")
    return len(events)
