"""Deterministic simulated messaging: pluggable delivery policies and
exhaustive interleaving exploration.

The network is noncreative (delivers only what was sent, uncorrupted) and
imposes no order beyond what the policy guarantees.  Exploration is a
breadth-first walk over a canonical move ordering with memoized composite
states; seeds only influence single-run sampling.

What an agent may do next follows from its own state alone, so one
exploration expands each distinct agent state once: every agent's
emissions and receptions are memoized per call, successor states are
shared objects, and each distinct network is kept once.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Protocol

from .bspl.core import InfoProtocol
from .bspl.enactment import (
    EMISSION,
    RECEPTION,
    History,
    IntegrityConflict,
    MessageInstance,
    check_emission,
    known_bindings,
    observe,
)


class Delivery(str, Enum):
    SYNCHRONOUS = "synchronous"
    FIFO_PAIRWISE = "fifo"
    UNORDERED = "unordered"


class Reception(str, Enum):
    ANYTIME = "anytime"
    BLOCKING_SELECTOR = "blocking-selector"


@dataclass(frozen=True)
class SimPolicy:
    delivery: Delivery = Delivery.UNORDERED
    loss_enabled: bool = False
    seed: int = 0


@dataclass(frozen=True)
class Envelope:
    sender: str
    receiver: str
    payload: Any
    send_index: int

    @property
    def channel(self) -> tuple[str, str]:
        return (self.sender, self.receiver)


@dataclass(frozen=True)
class Network:
    """In-transit state: per-channel tuples preserve send order so FIFO can
    deliver heads while unordered delivery may pick any element."""

    channels: tuple[tuple[tuple[str, str], tuple[Envelope, ...]], ...] = ()
    sent_count: int = 0

    def send(self, sender: str, receiver: str, payload: Any) -> "Network":
        env = Envelope(sender, receiver, payload, self.sent_count)
        chan = (sender, receiver)
        channels = dict(self.channels)
        channels[chan] = channels.get(chan, ()) + (env,)
        return Network(tuple(sorted(channels.items())), self.sent_count + 1)

    def deliverable(self, policy: SimPolicy) -> tuple[Envelope, ...]:
        out: list[Envelope] = []
        for _, queue in self.channels:
            if not queue:
                continue
            if policy.delivery is Delivery.FIFO_PAIRWISE:
                out.append(queue[0])
            else:
                out.extend(queue)
        return tuple(sorted(out, key=lambda e: e.send_index))

    def remove(self, env: Envelope) -> "Network":
        channels = []
        for chan, queue in self.channels:
            if chan == env.channel:
                queue = tuple(e for e in queue if e != env)
            if queue:
                channels.append((chan, queue))
        return Network(tuple(channels), self.sent_count)

    def in_transit(self) -> tuple[Envelope, ...]:
        return tuple(e for _, queue in self.channels for e in queue)

    def empty(self) -> bool:
        return not any(queue for _, queue in self.channels)

    def max_queue_depth(self) -> int:
        return max((len(q) for _, q in self.channels), default=0)


class AgentExecutor(Protocol):
    """An agent driven by the simulator.

    `emissions` and `receive` must be pure functions of their arguments:
    the same state (and payload) always gives equal results, and neither
    changes the agent.  `explore` relies on this to call each at most once
    per distinct argument within one exploration.  States must be hashable
    and immutable."""

    role: str

    def initial(self) -> Any: ...

    def emissions(self, state: Any) -> tuple[tuple[Any, Any], ...]:
        """Candidate correct emissions as (payload, next_state) pairs."""
        ...

    def receive(self, state: Any, payload: Any) -> Any: ...


@dataclass(frozen=True)
class ExplorationStats:
    states_explored: int
    enactments: int
    max_queue_depth: int


@dataclass(frozen=True)
class ExplorationResult:
    enactments: tuple[tuple[History, ...], ...]  # sorted per-agent histories
    stats: ExplorationStats
    bound_exceeded: bool

    def vectors(self) -> tuple[dict[str, History], ...]:
        return tuple({h.owner: h for h in vec} for vec in self.enactments)


DEFAULT_STATE_CAP = 1_000_000
DEFAULT_QUEUE_CAP = 4


def explore(
    agents: list[AgentExecutor],
    policy: SimPolicy,
    state_cap: int = DEFAULT_STATE_CAP,
    queue_cap: int = DEFAULT_QUEUE_CAP,
) -> ExplorationResult:
    """Exhaustively explore every interleaving of enabled emissions and
    deliveries; an enactment is the history vector at a state with no moves.

    A composite state is the agents' states and the number of its network
    in a table of the distinct networks met so far.  The tables built here
    (networks and each agent's memoized steps) live for this call only."""
    agents = sorted(agents, key=lambda a: a.role)
    local = [_LocalSteps(a) for a in agents]
    networks: list[Network] = []
    depths: list[int] = []
    numbers: dict[Network, int] = {}

    def number(net: Network) -> int:
        n = numbers.get(net)
        if n is None:
            n = numbers[net] = len(networks)
            networks.append(net)
            depths.append(net.max_queue_depth())
        return n

    start = (tuple(a.initial() for a in agents), number(Network()))
    seen = {start}
    frontier = deque([start])
    terminals: set[tuple[History, ...]] = set()
    explored = 0
    max_depth = 0
    exceeded = False
    while frontier:
        states, n = frontier.popleft()
        explored += 1
        max_depth = max(max_depth, depths[n])
        if explored > state_cap:
            exceeded = True
            break
        successors = [(nxt, number(net)) for _event, (nxt, net) in _moves(local, states, networks[n], policy)]
        if not successors:
            terminals.add(_vector(agents, states))
            continue
        if any(depths[m] > queue_cap for _, m in successors):
            exceeded = True
            continue
        for nxt in successors:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    keys = {h: _history_key(h) for vec in terminals for h in vec}
    enactments = tuple(sorted(terminals, key=lambda vec: tuple(keys[h] for h in vec)))
    return ExplorationResult(enactments, ExplorationStats(explored, len(enactments), max_depth), exceeded)


class _LocalSteps:
    """One agent's `emissions` and `receive`, memoized for one exploration.
    Both are pure (see AgentExecutor), so each distinct state is expanded
    once and equal successor states are one shared object."""

    def __init__(self, agent: AgentExecutor):
        self.role = agent.role
        self.agent = agent
        self._emissions: dict[Any, tuple[tuple[Any, Any], ...]] = {}
        self._receptions: dict[tuple[Any, Any], Any] = {}

    def emissions(self, state):
        out = self._emissions.get(state)
        if out is None:
            out = self._emissions[state] = tuple(self.agent.emissions(state))
        return out

    def receive(self, state, payload):
        key = (state, payload)
        nxt = self._receptions.get(key)
        if nxt is None:
            nxt = self._receptions[key] = self.agent.receive(state, payload)
        return nxt


def _vector(agents, states) -> tuple[History, ...]:
    return tuple(_history_of(a, s) for a, s in zip(agents, states))


def _history_of(agent, state) -> History:
    return state if isinstance(state, History) else agent.history(state)


def _history_key(h: History):
    """A history's part of the enactment order."""
    return (h.owner, tuple((o.kind, o.instance.schema.name, o.instance.bindings) for o in h.observations))


LOSS = "L"


def _moves(agents, states, net: Network, policy: SimPolicy):
    """Every move from a composite state in canonical order, as
    (event, (states, network)) with event (role, kind, payload): emissions
    by role unless a synchronous delivery is due, then each deliverable
    envelope's reception, followed by its loss when loss is enabled."""
    moves = []
    deliveries = net.deliverable(policy)
    force_delivery = policy.delivery is Delivery.SYNCHRONOUS and deliveries
    if not force_delivery:
        for i, agent in enumerate(agents):
            for payload, nxt in agent.emissions(states[i]):
                new_net = net.send(agent.role, _receiver_of(payload), payload)
                moves.append(((agent.role, EMISSION, payload), (states[:i] + (nxt,) + states[i + 1 :], new_net)))
    for env in deliveries:
        for i, agent in enumerate(agents):
            if agent.role != env.receiver:
                continue
            nxt = agent.receive(states[i], env.payload)
            moves.append(((agent.role, RECEPTION, env.payload), (states[:i] + (nxt,) + states[i + 1 :], net.remove(env))))
        if policy.loss_enabled:
            moves.append(((env.receiver, LOSS, env.payload), (states, net.remove(env))))
    return moves


def _receiver_of(payload) -> str:
    if isinstance(payload, MessageInstance):
        return payload.schema.receiver
    return payload.receiver


def run_one(
    agents: list[AgentExecutor],
    policy: SimPolicy,
    seed: int = 0,
    choice_script: list[int] | None = None,
) -> tuple[tuple[History, ...], list[tuple[str, str, Any]]]:
    """One deterministic enactment: moves are ordered canonically and picked
    by the choice script (consumed left to right) or a seeded RNG.  Returns
    the history vector and the global event log as (agent, kind, payload).
    A single run delivers every message, whatever the policy says of loss,
    and no queue cap applies."""
    agents = sorted(agents, key=lambda a: a.role)
    states = tuple(a.initial() for a in agents)
    net = Network()
    policy = replace(policy, loss_enabled=False)
    rng = random.Random(seed)
    script = list(choice_script) if choice_script is not None else None
    log: list[tuple[str, str, Any]] = []
    while True:
        labelled = _moves(agents, states, net, policy)
        if not labelled:
            return _vector(agents, states), log
        if script is not None:
            if not script:
                raise RuntimeError("choice script exhausted")
            index = script.pop(0) % len(labelled)
        else:
            index = rng.randrange(len(labelled))
        event, (states, net) = labelled[index]
        log.append(event)


# ---------------------------------------------------------------------------
# protocol-driven executors for information protocols


@dataclass(frozen=True)
class InstanceScript:
    """Per-instance value plan: one row per protocol instance an enactment
    may originate, covering every parameter's eventual binding."""

    protocol: InfoProtocol
    rows: tuple[tuple[tuple[str, str], ...], ...]

    @classmethod
    def make(cls, protocol: InfoProtocol, rows: list[dict[str, str]]) -> "InstanceScript":
        return cls(protocol, tuple(tuple(sorted((k, str(v)) for k, v in row.items())) for row in rows))

    def row_maps(self) -> list[dict[str, str]]:
        return [dict(row) for row in self.rows]


class BsplAgent:
    """Eager protocol-driven agent: offers every correct emission available
    from its history, with out-parameter values drawn from instance scripts."""

    def __init__(self, role: str, scripts: list[InstanceScript]):
        self.role = role
        self.scripts = tuple(scripts)

    def initial(self) -> History:
        return History(self.role)

    def history(self, state: History) -> History:
        return state

    def emissions(self, h: History) -> tuple[tuple[MessageInstance, History], ...]:
        out = []
        for script in self.scripts:
            p = script.protocol
            for schema in p.messages:
                if schema.sender != self.role:
                    continue
                for key in self._candidate_keys(h, script, schema):
                    mi = self._instantiate(h, script, schema, key)
                    if mi is None:
                        continue
                    if check_emission(h, mi, p) is None:
                        out.append((mi, observe(h, EMISSION, mi)))
        out.sort(key=lambda pair: (pair[0].schema.name, pair[0].bindings))
        return tuple(out)

    def receive(self, h: History, mi: MessageInstance) -> History:
        return observe(h, RECEPTION, mi)

    def _candidate_keys(self, h: History, script: InstanceScript, schema) -> list[tuple[tuple[str, str], ...]]:
        p = script.protocol
        key_params = p.message_keys(schema)
        keys: list[tuple[tuple[str, str], ...]] = []
        schema_names = {m.name for m in p.messages}
        for obs in h.observations:
            if obs.instance.schema.name not in schema_names:
                continue
            known = {k: v for k, v in obs.instance.key(p)}
            if all(k in known for k in key_params):
                key = tuple((k, known[k]) for k in key_params)
                if key not in keys:
                    keys.append(key)
        all_out = all(schema.param(k) and schema.param(k).adornment.value == "out" for k in key_params)
        if all_out:
            for row in script.row_maps():
                if all(k in row for k in key_params):
                    key = tuple((k, row[k]) for k in key_params)
                    if key not in keys:
                        keys.append(key)
        return keys

    def _instantiate(self, h: History, script: InstanceScript, schema, key) -> MessageInstance | None:
        p = script.protocol
        try:
            known = known_bindings(h, key, p)
        except IntegrityConflict:
            return None
        row = self._row_for(script, key)
        key_map = dict(key)
        values: dict[str, str] = {}
        for q in schema.params:
            if q.name in key_map:
                values[q.name] = key_map[q.name]
            elif q.adornment.value == "in":
                if q.name not in known:
                    return None
                values[q.name] = known[q.name]
            else:
                if row is None or q.name not in row:
                    return None
                values[q.name] = row[q.name]
        return MessageInstance.make(schema, values)

    @staticmethod
    def _row_for(script: InstanceScript, key) -> dict[str, str] | None:
        key_map = dict(key)
        for row in script.row_maps():
            if all(row.get(k) == v for k, v in key_map.items()):
                return row
        return None
