"""Shared enactment log format, one event per line:

    <tick> <agent> <E|R> <MsgName> <key=val,...>

Rejected emission attempts are recorded as `X` lines carrying the reason
instead of bindings.  Logs serve replay and golden tests.

Replay holds each binding once, from log line to commitment state.
`parse_log` reads each line once and parses each distinct body (the text
after the message name) once: every line with that body shares one
bindings tuple, every body shares each equal (name, value) pair, and
agent, message and parameter names are kept once per call.
`histories_from_log` builds one `MessageInstance` per distinct message
and bindings, so an emission and its receptions share it.  A body that
names the schema's parameters in schema order becomes the instance's
bindings as it is; any other body's own pairs are put in schema order,
and a body that does not name exactly the schema's parameters is
rejected with `MessageInstance.make`'s error.  The entries are not
needed after replay, nor the histories once the commitment states are
decided: `protolab commitments` hands the entries straight to
`histories_from_log` and lets the histories go before it builds its
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .bspl.core import InfoProtocol
from .bspl.enactment import EMISSION, RECEPTION, History, MessageInstance, Observation, check_observation


@dataclass(frozen=True, slots=True)
class LogEntry:
    tick: int
    agent: str
    kind: str  # E | R | X
    message: str
    bindings: tuple[tuple[str, str], ...] = ()
    reason: str = ""


def format_log(entries: list[LogEntry]) -> str:
    lines = []
    for e in entries:
        if e.kind == "X":
            lines.append(f"{e.tick} {e.agent} X {e.message} {e.reason}")
        else:
            body = ",".join(f"{k}={v}" for k, v in e.bindings)
            lines.append(f"{e.tick} {e.agent} {e.kind} {e.message} {body}")
    return "\n".join(lines) + "\n"


def parse_log(text: str, protocols: list[InfoProtocol]) -> list[LogEntry]:
    schemas = {}
    for p in protocols:
        for m in p.messages:
            if m.name in schemas and schemas[m.name] is not m:
                raise ValueError(f"message name {m.name} is ambiguous across the loaded protocols")
            schemas[m.name] = m
    # One copy of each name, one (name, value) pair per distinct binding,
    # and one bindings tuple per distinct body: an emission and its
    # receptions carry the same body, and the bodies of one instance
    # repeat its bindings.
    names: dict[str, str] = {}
    pairs: dict[tuple[str, str], tuple[str, str]] = {}
    bodies: dict[str, tuple[tuple[str, str], ...]] = {}
    entries = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        parts = line.split(None, 4)
        if len(parts) < 4 or not parts[0].isdecimal():
            raise ValueError(f"malformed log line: {line!r}")
        tick, agent, kind, message = int(parts[0]), parts[1], parts[2], parts[3]
        agent, message = names.setdefault(agent, agent), names.setdefault(message, message)
        rest = parts[4] if len(parts) > 4 else ""
        if kind == "X":
            entries.append(LogEntry(tick, agent, kind, message, (), rest))
            continue
        if kind not in (EMISSION, RECEPTION):
            raise ValueError(f"unknown event kind {kind!r} in line {line!r}")
        if message not in schemas:
            raise ValueError(f"unknown message {message!r}")
        bindings = bodies.get(rest)
        if bindings is None:
            items = [item.partition("=") for item in rest.split(",") if item]
            if not all(equals for _, equals, _ in items):
                raise ValueError(f"binding without '=' in log line: {line!r}")
            keys = [key for key, _, _ in items]
            if len(set(keys)) < len(keys):
                twice = next(key for i, key in enumerate(keys) if key in keys[:i])
                raise ValueError(f"parameter {twice} bound twice in log line: {line!r}")
            shared = []
            for key, _, value in items:
                pair = (names.setdefault(key, key), value)
                shared.append(pairs.setdefault(pair, pair))
            bindings = bodies[rest] = tuple(shared)
        entries.append(LogEntry(tick, agent, kind, message, bindings))
    return entries


def histories_from_log(entries: list[LogEntry], protocols: list[InfoProtocol]) -> dict[str, History]:
    """Rebuild per-agent histories.  The numeric column is the logical
    timestamp (several observations may share a day); an agent's
    observation order is its line order within equal timestamps."""
    schemas = {m.name: m for p in protocols for m in p.messages}
    # one instance per distinct line body: an emission and its receptions share it
    instances: dict[tuple[str, tuple[tuple[str, str], ...]], MessageInstance] = {}
    observed: dict[str, list[Observation]] = {}
    for e in sorted(entries, key=attrgetter("agent", "tick")):  # stable: line order within a tick
        if e.kind == "X":
            continue
        observations = observed.setdefault(e.agent, [])
        mi = instances.get((e.message, e.bindings))
        if mi is None:
            schema = schemas[e.message]
            if tuple([name for name, _ in e.bindings]) == schema.param_names():
                mi = MessageInstance(schema, e.bindings)  # the body lists the parameters in schema order
            else:
                pairs = {pair[0]: pair for pair in e.bindings}
                if pairs.keys() != schema.param_name_set:
                    MessageInstance.make(schema, dict(e.bindings))  # raises its missing/extra error
                mi = MessageInstance(schema, tuple([pairs[name] for name in schema.param_names()]))
            instances[e.message, e.bindings] = mi
        o = Observation(e.kind, mi, len(observations) + 1, day=e.tick)
        check_observation(e.agent, len(observations), o)
        observations.append(o)
    # one tuple per history: appending line by line would copy it per line
    return {agent: History(agent, tuple(observations)) for agent, observations in observed.items()}


def log_from_run(log: list[tuple[str, str, MessageInstance]]) -> list[LogEntry]:
    """Entries from a simulator run's global event list, with per-agent ticks."""
    ticks: dict[str, int] = {}
    entries = []
    for agent, kind, mi in log:
        ticks[agent] = ticks.get(agent, 0) + 1
        entries.append(LogEntry(ticks[agent], agent, kind, mi.schema.name, mi.bindings))
    return entries
