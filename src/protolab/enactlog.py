"""Shared enactment log format, one event per line:

    <tick> <agent> <E|R> <MsgName> <key=val,...>

Rejected emission attempts are recorded as `X` lines carrying the reason
instead of bindings.  Logs serve replay and golden tests.

Replay reads each line once.  `histories_from_log` builds one
`MessageInstance` per distinct message and bindings, so an emission and
its receptions share it, and `MessageInstance.make` checks the bindings
against the schema's cached parameter names in one comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .bspl.core import InfoProtocol
from .bspl.enactment import EMISSION, RECEPTION, History, MessageInstance, Observation, check_observation


@dataclass(frozen=True)
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
    entries = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        parts = line.split(None, 4)
        if len(parts) < 4 or not parts[0].isdecimal():
            raise ValueError(f"malformed log line: {line!r}")
        tick, agent, kind, message = int(parts[0]), parts[1], parts[2], parts[3]
        rest = parts[4] if len(parts) > 4 else ""
        if kind == "X":
            entries.append(LogEntry(tick, agent, kind, message, (), rest))
            continue
        if kind not in (EMISSION, RECEPTION):
            raise ValueError(f"unknown event kind {kind!r} in line {line!r}")
        if message not in schemas:
            raise ValueError(f"unknown message {message!r}")
        items = [item.partition("=") for item in rest.split(",") if item]
        if not all(equals for _, equals, _ in items):
            raise ValueError(f"binding without '=' in log line: {line!r}")
        entries.append(LogEntry(tick, agent, kind, message, tuple((key, value) for key, _, value in items)))
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
            mi = instances[e.message, e.bindings] = MessageInstance.make(schemas[e.message], dict(e.bindings))
        o = Observation(e.kind, mi, len(observations) + 1, day=e.tick)
        check_observation(e.agent, len(observations), o)
        observations.append(o)
    # one tuple per history: appending line by line would copy it per line
    return {agent: History(agent, tuple(observations)) for agent, observations in observed.items()}


def log_from_histories(histories: dict[str, History]) -> list[LogEntry]:
    entries = []
    for agent in sorted(histories):
        for obs in histories[agent].observations:
            entries.append(LogEntry(obs.logical_day, agent, obs.kind, obs.instance.schema.name, obs.instance.bindings))
    return entries


def log_from_run(log: list[tuple[str, str, MessageInstance]]) -> list[LogEntry]:
    """Entries from a simulator run's global event list, with per-agent ticks."""
    ticks: dict[str, int] = {}
    entries = []
    for agent, kind, mi in log:
        ticks[agent] = ticks.get(agent, 0) + 1
        entries.append(LogEntry(ticks[agent], agent, kind, mi.schema.name, mi.bindings))
    return entries
