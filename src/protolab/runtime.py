"""Execution of projected local behaviors over the simulated network.

Each agent holds the remainder of its local expression.  What it can do
next is read from one walk of its first steps (`projection.local_steps`):
each send, reception or silent commitment with the remainder it leaves.
Emissions commit a choice atomically (commit-by-sending), and an external
choice is entered only through a reception; a mixed choice may also
silently commit to its reception-initiated branches, which is what makes
genuinely stuck states reachable when a choice is nonlocal.  Under anytime
reception an agent observes a message the moment it is delivered, and a
delivery its behavior cannot accept is an ordering violation.  Under the
channel selector an agent reads straight from the network, and only the
channels whose peers its behavior expects next: a message there that fits
no reception is a selector violation, and one on any other channel stays
in transit.  This decides as the model in which silent arrivals fill
per-peer queues that the selector reads.  Under FIFO and unordered
delivery an arrival changes no behavior and disables no move, so it
commutes with every move (tau-confluence; Groote & van de Pol, MFCS 2000):
deferring each arrival until its read keeps every event, deadlock and
violation.  Under FIFO an arrival queue is then its channel's head; under
unordered delivery the free arrival order gives every read order, and
every message on an expected channel that fits no reception.  Under
synchronous delivery each arrival empties the network at once, and the
arrival queues keep each channel in send order, so the selector reads
synchronous channels as FIFO ones.

`compose` explores the composition as a graph of states, not of paths, on
the exploration core (`graph.explore`) with `Composer.moves` as the
successor function.  A state is every agent's remaining behavior and the
payloads in transit on each channel in send order; each distinct state is
expanded once.  The behaviors come from a recursion-free expression, so
the graph is finite and acyclic, and every pass over it is iterative.
Witnesses are least event sequences in Python tuple order
(`graph.least_path`), so no answer depends on the order in which moves are
generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cfp.projection import SEND, LocalExpr, accepting, local_steps
from .graph import Graph, Numbering, explore, least_path, topological
from .netsim import Delivery, Reception, dequeue, enqueue

# ---------------------------------------------------------------------------
# composition

Event = tuple[str, int, str, str, str]  # (kind E|R, occurrence, sender, receiver, msg)
# A composite state: (remainder number by role, network number), numbers
# from the composer's tables; a network is ((channel, payloads), ...)
# sorted by channel, with empty queues left out.
State = tuple


@dataclass(frozen=True)
class Execution:
    events: tuple[Event, ...]

    def labels(self) -> tuple[tuple[str, str, str], ...]:
        return tuple((s, r, m) for kind, _, s, r, m in self.events if kind == "E")


Violation = tuple[str, str, Event]  # (kind, detail, offending reception)


class Composer:
    """The composite moves of a set of behaviors under one network policy.

    Remainders and networks are numbered in tables of the distinct ones
    met, so a state hashes and compares as a few small integers.  Each
    agent's steps depend only on its own remainder, and deliveries only on
    the network, so both are computed once per number."""

    def __init__(self, behaviors: dict[str, LocalExpr], delivery: Delivery, reception: Reception):
        self.roles = tuple(sorted(behaviors))
        # the selector reads each channel in send order (module docstring)
        self.delivery = Delivery.FIFO_PAIRWISE if (delivery, reception) == (Delivery.SYNCHRONOUS, Reception.BLOCKING_SELECTOR) else delivery
        self.reception = reception
        self._index = {role: i for i, role in enumerate(self.roles)}
        self._number = Numbering()  # remainders and networks
        self._items = self._number.values
        self._steps: dict[int, tuple] = {}
        self._deliveries: dict[int, list[tuple]] = {}
        self._sent: dict[tuple, int] = {}
        self._empty = self._number(())
        self.initial: State = (tuple(self._number(behaviors[r]) for r in self.roles), self._empty)

    def _local(self, n: int) -> tuple:
        """(sends as (peer, occurrence, name, remainder), receptions as
        remainders by (peer, name), silent commits, accepting, expected
        peers) of remainder `n`, from one walk of its first steps."""
        local = self._steps.get(n)
        if local is None:
            e = self._items[n]
            sends, receptions, commits = [], {}, []
            for a, rest in local_steps(e):
                r = self._number(rest)
                if a is None:
                    if r not in commits:
                        commits.append(r)
                elif a.direction == SEND:
                    sends.append((a.peer, a.occ or 0, a.name, r))
                else:
                    rests = receptions.setdefault((a.peer, a.name), [])
                    if r not in rests:
                        rests.append(r)
            local = self._steps[n] = (sends, receptions, commits, accepting(e), {peer for peer, _ in receptions})
        return local

    def _send(self, net: int, channel: tuple[str, str], payload: tuple[int, str]) -> int:
        key = (net, channel, payload)
        after = self._sent.get(key)
        if after is None:
            after = self._sent[key] = self._number(enqueue(self._items[net], channel, payload))
        return after

    def _delivered(self, net: int) -> list[tuple]:
        """Deliverable payloads of network `net` as (sender, receiver,
        occurrence, name, network after)."""
        out = self._deliveries.get(net)
        if out is None:
            queues = self._items[net]
            out = self._deliveries[net] = [
                (sender, receiver, occ, name, self._number(dequeue(queues, (sender, receiver), i)))
                for (sender, receiver), queue in queues
                for i, (occ, name) in enumerate(queue[:1] if self.delivery is Delivery.FIFO_PAIRWISE else queue)
            ]
        return out

    def completed(self, state: State) -> bool:
        locals_, net = state
        return net == self._empty and all(self._local(l)[3] for l in locals_)

    def moves(self, state: State) -> tuple[list[Event | None], list[State], list[Violation]]:
        """Every move from `state` as parallel lists of events (None for a
        silent move) and next states, and the violations a delivery would
        cause there."""
        locals_, net = state
        events, nexts = [], []
        violations: list[Violation] = []
        deliveries = self._delivered(net)
        if not (self.delivery is Delivery.SYNCHRONOUS and deliveries):
            for i, role in enumerate(self.roles):
                sends, _, commits, _, _ = self._local(locals_[i])
                for peer, occ, name, rest in sends:
                    after = self._send(net, (role, peer), (occ, name))
                    events.append(("E", occ, role, peer, name))
                    nexts.append((_put(locals_, i, rest), after))
                for rest in commits:
                    events.append(None)
                    nexts.append((_put(locals_, i, rest), net))
        selector = self.reception is Reception.BLOCKING_SELECTOR
        for sender, receiver, occ, name, after in deliveries:
            i = self._index[receiver]
            _, receptions, _, _, peers = self._local(locals_[i])
            if selector and sender not in peers:
                continue  # the selector reads only the channels the behavior expects
            event = ("R", occ, sender, receiver, name)
            alternatives = receptions.get((sender, name), ())
            if not alternatives and selector:
                violations.append(("selector-type", f"{receiver} expected a different message on the channel from {sender}, found {name}", event))
            elif not alternatives:
                violations.append(("reception-order", f"{receiver} cannot accept {name} from {sender} at this point", event))
            for rest in alternatives:
                events.append(event)
                nexts.append((_put(locals_, i, rest), after))
        return events, nexts, violations


def _put(row: tuple, i: int, value) -> tuple:
    return row[:i] + (value,) + row[i + 1 :]


@dataclass
class CompositionGraph(Graph):
    """The core's graph of the reachable composite states (state 0 is the
    initial one), with each expanded state's violations, whether it is
    completed, and the deadlocks.  When the state cap fires, the graph
    holds the states found until then and `bound_exceeded` is set."""

    violations: list[list[Violation]]
    final: list[bool]

    @property
    def bound_exceeded(self) -> bool:
        return self.cap is not None

    @cached_property
    def deadlocks(self) -> list[int]:
        # a state with only violating deliveries is not stuck
        return [n for n, out in enumerate(self.edges) if not out and not self.violations[n] and not self.final[n]]

    @cached_property
    def order(self) -> list[int]:
        """The states in topological order (of a graph the cap did not cut)."""
        return topological(self)

    @cached_property
    def completed(self) -> tuple[Execution, ...]:
        """One execution per completed state, its least path, in order."""
        paths = (least_path(0, self.successors, lambda n, t=t: () if n == t else None) for t, f in enumerate(self.final) if f)
        return tuple(Execution(p) for p in sorted(paths))


def compose(
    behaviors: dict[str, LocalExpr],
    delivery: Delivery,
    reception: Reception,
    state_cap: int = 250_000,
) -> CompositionGraph:
    """Explore the composed local behaviors over the network policy, each
    distinct composite state once: `graph.explore` over `Composer.moves`."""
    composer = Composer(behaviors, delivery, reception)
    violations: list[list[Violation]] = []

    def successors(state: State) -> tuple[list, list]:
        events, nexts, found = composer.moves(state)
        violations.append(found)
        return events, nexts

    graph = explore(composer.initial, successors, state_cap)
    final = [composer.completed(state) for state, _ in zip(graph.states, graph.labels)]
    return CompositionGraph(**vars(graph), violations=violations, final=final)
