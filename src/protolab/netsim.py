"""Deterministic simulated messaging: pluggable delivery policies and
exhaustive interleaving exploration.

The network is noncreative (delivers only what was sent, uncorrupted) and
imposes no order beyond what the policy guarantees.  Its channels form a
queue table, a tuple of (key, items) pairs sorted by key, no queue empty;
`enqueue` and `dequeue` change such a table, here and for the queues of
the composition runtime and the per-agent filters.  Exploration is a
breadth-first walk over a canonical move ordering that numbers composite
states by position in a list and records no moves; seeds only influence
single-run sampling.

Every agent is a `BsplAgent`, and its state is its history: what it may
do next follows from that history alone, so one exploration expands each
distinct history once.  Within a call, each agent's histories, the
payloads and the networks are numbered, and a composite state is a tuple
of those numbers.  Payloads are numbered by equality.  A history is
numbered by its origin: the history that the emission or reception of
payload number p leads to from history k gets the next free number once
per (k, kind, p).  A history is built on read, from its nearest built
ancestor, so the walk never hashes or compares a history (the index
tables of SPIN's COLLAPSE mode, Holzmann 1997; hash-consing, Filliatre
and Conchon 2006).  A network is numbered by a flat key of its
in-transit sends, (sent count, ((send index, sender role, payload
number), ...)) in send order.  The key is exact: a message carries its
send index, its receiver is its payload schema's, and payload numbers
stand for equal payloads, so two keys are equal exactly when the
`Network`s they stand for are, and the walk builds no `Network`.  Each
history number also has a knowledge-set number, the set of its
(emitted, payload number) pairs numbered by equality: knowledge is a set,
so histories that hold the same observations in another order emit the
same payloads.  Each set has a knowledge record per instance script
(`bspl.enactment.Knowledge`), grown from its origin set's record by one
observation (`Knowledge.after`), so the walk builds no history either;
only the enactment vectors do.  Emissions are kept per numbered knowledge
set.  Each network's deliveries are listed once, and its send and removal
successors are found once.  A move is then a few table lookups.  Agents
find a set's emissions by one enabling test per (sent schema, candidate
key) on parameter names: the schema's 'in' names are known for the key,
its other names are not, and it was not emitted for the key.  Only
enabled instances are built.

Instances that differ only in their script row values are symmetric:
renaming one row's values to another's maps reachable states to reachable
states (Ip and Dill, "Better verification through symmetry", 1996).  The
walk takes one representative per orbit of that row group, the least
numbered state of the orbit, and counts each as its orbit's size.  That
size is the group's order unless a permutation besides the identity fixes
the state, and only those smaller sizes are kept: the start state's and
those of the few symmetric states met.  Every number records its origin
(the history or network it was first reached from, and by which step)
and has an image row, its images under every permutation, filled at once
from its origin's row by one table lookup per permutation: an emission
or reception by (history, payload), a send by (network, agent, payload),
a removal by (network, send index).  No history or network is renamed or
rehashed, and no image has its moves listed (`_Orbits`).  A move costs
one membership test and at most one canonicalization: a next state the
walk has numbered is a representative, not canonicalized again.  The
number of enactments is the sum of the orbit sizes of the terminal
representatives; the sorted history vectors are built only when read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from itertools import permutations, repeat
from operator import getitem
from typing import Any, Callable, Iterator

from .bspl.core import InfoProtocol, MessageSchema
from .bspl.enactment import (
    EMISSION,
    RECEPTION,
    History,
    IntegrityConflict,
    Key,
    Knowledge,
    MessageInstance,
    observe,
)
from .graph import Numbering


class Delivery(str, Enum):
    SYNCHRONOUS = "synchronous"
    FIFO_PAIRWISE = "fifo"
    UNORDERED = "unordered"


class Reception(str, Enum):
    ANYTIME = "anytime"
    BLOCKING_SELECTOR = "blocking-selector"


@dataclass(frozen=True)
class SimPolicy:
    """How the network delivers.  Loss applies to `explore` only; `run_one`
    delivers every message and takes its seed as an argument."""

    delivery: Delivery = Delivery.UNORDERED
    loss_enabled: bool = False


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
    deliver heads while unordered delivery may pick any element.  The walk
    numbers networks by a flat key instead (`_StateSpace`), which stands
    for exactly one `Network`."""

    channels: tuple[tuple[tuple[str, str], tuple[Envelope, ...]], ...] = ()
    sent_count: int = 0

    def send(self, sender: str, receiver: str, payload: Any) -> "Network":
        env = Envelope(sender, receiver, payload, self.sent_count)
        return Network(enqueue(self.channels, env.channel, env), self.sent_count + 1)

    def deliverable(self, policy: SimPolicy) -> tuple[Envelope, ...]:
        fifo = policy.delivery is Delivery.FIFO_PAIRWISE
        out = [env for _, queue in self.channels for env in (queue[:1] if fifo else queue)]
        return tuple(sorted(out, key=lambda e: e.send_index))

    def remove(self, env: Envelope) -> "Network":
        index = dict(self.channels)[env.channel].index(env)
        return Network(dequeue(self.channels, env.channel, index), self.sent_count)

    def empty(self) -> bool:
        return not any(queue for _, queue in self.channels)

    def max_queue_depth(self) -> int:
        return max((len(q) for _, q in self.channels), default=0)


def enqueue(queues: tuple, key, item) -> tuple:
    """The queue table with `item` appended to `key`'s queue."""
    table = dict(queues)
    table[key] = table.get(key, ()) + (item,)
    return tuple(sorted(table.items()))


def dequeue(queues: tuple, key, index: int) -> tuple:
    """The queue table with the item at `index` of `key`'s queue taken
    out; a queue left empty goes."""
    table = dict(queues)
    queue = table.pop(key)
    if len(queue) > 1:
        table[key] = queue[:index] + queue[index + 1 :]
    return tuple(sorted(table.items()))


@dataclass(frozen=True)
class ExplorationStats:
    """Counts of one exploration: those of the walk over every state, also
    when `explore` takes one state per orbit, except where the state cap
    stopped a walk part way.  `local_states` is the number of distinct
    states numbered for each agent, as (role, count) in role order;
    `networks` the number of distinct networks numbered: those of the
    states met, and those that the moves out of a state the queue cap left
    unexpanded lead to; `dedup_hits` the moves into a composite state
    already met."""

    states_explored: int
    enactments: int
    max_queue_depth: int
    local_states: tuple[tuple[str, int], ...]
    networks: int
    dedup_hits: int


class ExplorationResult:
    """An exploration's enactments (sorted per-agent history vectors), its
    stats and the cap that fired ("state" or "queue"), if any.  `explore`
    may pass the enactments as a function that builds them: they are then
    built on first read, and the function, with the walk's tables it
    holds, is dropped.  Results are equal when all three are."""

    def __init__(self, enactments: tuple | Callable[[], tuple], stats: ExplorationStats, cap: str | None):
        self._enactments = enactments
        self.stats = stats
        self.cap = cap

    @property
    def enactments(self) -> tuple[tuple[History, ...], ...]:
        if callable(self._enactments):
            self._enactments = self._enactments()
        return self._enactments

    @property
    def bound_exceeded(self) -> bool:
        return self.cap is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExplorationResult):
            return NotImplemented
        return (self.enactments, self.stats, self.cap) == (other.enactments, other.stats, other.cap)

    def __repr__(self) -> str:
        return f"ExplorationResult(enactments={self.enactments!r}, stats={self.stats!r}, cap={self.cap!r})"


DEFAULT_STATE_CAP = 1_000_000
DEFAULT_QUEUE_CAP = 4


def explore(
    agents: list[BsplAgent],
    policy: SimPolicy,
    state_cap: int = DEFAULT_STATE_CAP,
    queue_cap: int = DEFAULT_QUEUE_CAP,
) -> ExplorationResult:
    """Exhaustively explore every interleaving of enabled emissions and
    deliveries; an enactment is the history vector at a state with no moves.

    A composite state is a tuple of numbers: each agent's state, then the
    network.  The walk numbers them by position in a list, takes them in
    that (breadth-first) order, keeps only `_StateSpace.moves`' next
    states, and takes one representative per orbit of the instance
    symmetry (`_instance_group`).  Every count is that of the whole space:
    a representative stands for its orbit's size in states, and for its
    moves times that size.  That size is the group's order unless
    `_Orbits.sizes` records a smaller one.  One pass over the next states
    tests each once: a numbered one is a representative, any other is
    canonicalized and its representative numbered unless it already is.
    A state with a move that would put more than `queue_cap` messages on a
    channel is left unexpanded, and the queue cap is reported as fired;
    its next states are still canonicalized, which numbers their images'
    histories and networks, as the walk over every state numbers those
    of each declined state's moves: `local_states` and `networks` stay
    that walk's counts.  The state cap fires when more than `state_cap`
    states are reachable, and the walk then stops before the
    representative that would take it past the cap.

    `stats.enactments` is the sum of the orbit sizes of the terminal
    representatives, and the result's enactments (each orbit's vectors,
    sorted) are built on first read.  Where that sum could count one
    vector twice, the vectors are built at once and counted."""
    space = _StateSpace(agents, policy)
    orbits = _Orbits(space, _instance_group([steps.agent for steps in space.local]))
    canonical = orbits.canonical if orbits.group.perms else None
    sizes, order = orbits.sizes, orbits.order
    depths = space.depths
    states = [space.start]  # state n is states[n]: numbered by position
    numbered = dict.fromkeys(states)  # membership alone (smaller than a set)
    terminals: list[tuple[int, ...]] = []
    max_depth = taken = moves = 0
    capped = queued = False
    for state in states:  # the list grows as states are numbered: breadth-first
        size = sizes.get(state, order)
        if taken + size > state_cap:
            capped = True
            break
        taken += size
        depth = depths[state[-1]]
        if depth > max_depth:
            max_depth = depth
        nexts = space.moves(state)
        if not nexts:
            terminals.append(state)
            continue
        # a move adds at most one message, so only a state at the cap can pass it
        if depth >= queue_cap and any(depths[nxt[-1]] > queue_cap for nxt in nexts):
            queued = True
            if canonical is not None:  # their images' numbers count (see above)
                for nxt in nexts:
                    if nxt not in numbered:
                        canonical(nxt)
            continue
        moves += size * len(nexts)
        for nxt in nexts:
            if nxt not in numbered:
                if canonical is not None:
                    nxt = canonical(nxt)
                    if nxt in numbered:
                        continue
                numbered[nxt] = None
                states.append(nxt)

    enactments = partial(_enactments, space, orbits, terminals)
    # Terminal states are distinct, so their orbits' sizes add up to the
    # number of enactments when no two of them share a history vector: when
    # no network left at a terminal holds a message (its queue depth is 0,
    # and an empty network's send count is the vector's count of
    # emissions).  A message to a role no agent plays stays in transit.
    if not any(depths[state[-1]] for state in terminals):
        count = sum(sizes.get(state, order) for state in terminals)
    else:
        enactments = enactments()
        count = len(enactments)
    local_states = tuple((steps.role, len(steps.origins)) for steps in space.local)
    # `sizes` may also hold the representative of a declined state's move, never met
    met = order * len(states) - sum(order - size for state, size in sizes.items() if state in numbered)
    explored = state_cap if capped else taken
    stats = ExplorationStats(explored, count, max_depth, local_states, len(space.networks), moves - (met - 1))
    return ExplorationResult(enactments, stats, "state" if capped else "queue" if queued else None)


def _enactments(space: "_StateSpace", orbits: "_Orbits", terminals: list[tuple[int, ...]]) -> tuple[tuple[History, ...], ...]:
    """The distinct history vectors of the terminal states' orbits, sorted
    by `history_key`."""
    vectors = {space.vector(image) for state in terminals for image in orbits.orbit(state)}
    keys = {h: history_key(h) for h in {h for vec in vectors for h in vec}}
    return tuple(sorted(vectors, key=lambda vec: tuple(keys[h] for h in vec)))


class _LocalSteps:
    """One agent's steps on numbered histories, memoized for one
    exploration.  The agent's steps are pure (see `BsplAgent`), so each
    distinct history is expanded once.  Payloads are numbered in a table
    the agents share, and equal payloads are one object.

    Histories are numbered by origin, in one `Numbering` whose values are
    the origins: `origins[0]` is None, the initial history, and
    `origins[k]` is otherwise (parent history, whether by emission, payload
    number).  `step` only numbers an origin, so no history is hashed or
    compared.  This is exact, because `emit` and `receive` each append one
    observation: a history determines its parent and its last step, so
    distinct origins give distinct histories, met in the order equality
    would number them.  A history is built when first read (`history`).

    Each history number has a knowledge-set number, `set_of[k]`: the set
    of its (emitted, payload number) pairs, numbered by equality, the
    initial history's empty.  A new history's set is found from its
    parent's set and the step, in a memo, and a new set records its
    origin, `set_origins[s]` = (parent set, emitted, payload number).
    Knowledge is a set, so what an agent may emit depends only on that
    set: its emissions are kept per set number, and the agent's enabling
    test runs once per set, on the set's knowledge records (`knowledge`),
    one per script, each grown from its origin set's by one observation.
    A repeated observation leaves a history's set, and so its records, as
    they are."""

    def __init__(self, agent: BsplAgent, payloads: Numbering):
        self.role = agent.role
        self.agent = agent
        self.payloads = payloads
        self._number = Numbering()
        self.origins: list[tuple[int, bool, int] | None] = self._number.values
        self._number(None)
        self._built: dict[int, History] = {0: agent.initial()}
        self._emissions: list[tuple[tuple[int, int], ...] | None] = [None]
        self._sets = Numbering()
        self.set_of: list[int] = [self._sets(frozenset())]
        self.set_origins: list[tuple[int, bool, int] | None] = [None]
        self._set_steps: dict[tuple[int, bool, int], int] = {}
        self._knowledge: dict[int, tuple[Knowledge, ...]] = {0: agent.knowledge(self._built[0])}
        self._offered: dict[int, tuple[int, ...]] = {}

    def history(self, k: int) -> History:
        """History k, built on first read from its nearest built ancestor by
        replaying the steps down from it; each history built is kept."""
        built, origins, values = self._built, self.origins, self.payloads.values
        for j in _unmapped(built, origins, k):
            parent, emitted, p = origins[j]
            h = built[parent]
            built[j] = self.agent.emit(h, values[p]) if emitted else self.agent.receive(h, values[p])
        return built[k]

    def knowledge(self, s: int) -> tuple[Knowledge, ...]:
        """Knowledge set s's records, one per script plan, each grown on
        first read from its origin set's by one observation (`after`), and
        kept."""
        records, origins, values = self._knowledge, self.set_origins, self.payloads.values
        for j in _unmapped(records, origins, s):
            parent, emitted, p = origins[j]
            kind, mi = EMISSION if emitted else RECEPTION, values[p]
            records[j] = tuple(known.after(kind, mi) for known in records[parent])
        return records[s]

    def emissions(self, k: int) -> tuple[tuple[int, int], ...]:
        """(payload number, next history number) per emission of history
        k.  The payload numbers are kept per knowledge set, found by the
        agent on the set's knowledge records when the set is first read."""
        out = self._emissions[k]
        if out is None:
            s = self.set_of[k]
            offered = self._offered.get(s)
            if offered is None:
                offered = self._offered[s] = tuple(map(self.payloads, self.agent._payloads(self.knowledge(s))))
            step = self.step
            out = self._emissions[k] = tuple((p, step(k, True, p)) for p in offered)
        return out

    def step(self, k: int, emitted: bool, p: int) -> int:
        """The number of the history that history k moves to by emitting
        (or else receiving) payload number p, numbered when first asked:
        by `emissions`, by the walk's receptions, and by `_Orbits` for
        histories that may never be expanded."""
        nxt = self._number((k, emitted, p))
        if nxt == len(self.set_of):
            self._emissions.append(None)
            s = self.set_of[k]
            t = self._set_steps.get((s, emitted, p))
            if t is None:
                t = self._set_steps[s, emitted, p] = self._sets(self._sets.values[s] | {(emitted, p)})
                if t == len(self.set_origins):
                    self.set_origins.append((s, emitted, p))
            self.set_of.append(t)
        return nxt


class _StateSpace:
    """The composite states of some agents under a policy, numbered: a
    state is a tuple of each agent's history number (agents in role order)
    followed by its network's number.  A network is numbered by one flat
    key, (sent count, ((send index, sender role, payload number), ...)),
    its in-transit sends in send order.  Two keys are equal exactly when
    the `Network`s they stand for are: an envelope's receiver is its
    payload schema's, it carries its send index, and payloads are numbered
    by equality.  So no `Network` or `Envelope` is built or hashed, and
    networks are numbered in the order equality would number them.
    `depths[n]` is network n's largest count of messages on one channel
    (sender role, receiver).  A network's deliveries (each deliverable
    send's payload number and receivers, and the network left once it is
    taken) are listed on the network's first expansion; its send
    successors and each removal, by send index, are found once, on first
    use.  A removal that no move takes (no agent receives the message and
    loss is off) is not made.  `net_origins[n]` is how network n was first
    met: None for the empty network, (parent, agent index, payload number)
    for a send, and (parent, send index) for a removal.
    `moves` is the one successor function of both `explore` and
    `run_one`."""

    def __init__(self, agents: list[BsplAgent], policy: SimPolicy):
        self.policy = policy
        self.payloads = Numbering()
        self.local = [_LocalSteps(a, self.payloads) for a in sorted(agents, key=lambda a: a.role)]
        self._histories = [steps._number.numbers for steps in self.local]  # origin -> history number
        self._network_number = Numbering()
        self.networks: list[tuple[int, tuple[tuple[int, str, int], ...]]] = self._network_number.values
        self.depths: list[int] = []
        self.net_origins: list[tuple[int, ...] | None] = []
        self._deliveries: dict[int, tuple[tuple[int, tuple[int, ...], int | None], ...]] = {}
        self._sends: dict[tuple[int, int, int], int] = {}
        self._removals: dict[tuple[int, int], int] = {}
        self.start = (0,) * len(self.local) + (self._network((0, ())),)

    def _network(self, key: tuple[int, tuple[tuple[int, str, int], ...]], origin: tuple[int, ...] | None = None) -> int:
        n = self._network_number(key)
        if n == len(self.depths):
            values, depths = self.payloads.values, {}
            for _, sender, p in key[1]:
                channel = (sender, values[p].schema.receiver)
                depths[channel] = depths.get(channel, 0) + 1
            self.depths.append(max(depths.values(), default=0))
            self.net_origins.append(origin)
        return n

    def deliveries(self, n: int) -> tuple[tuple[int, tuple[int, ...], int | None], ...]:
        """(payload number, receiving agents, network after its removal)
        per deliverable send of network n, in send order: under FIFO the
        first send on each channel, else every send.  The network is None
        when no move takes the message."""
        out = self._deliveries.get(n)
        if out is None:
            values, fifo = self.payloads.values, self.policy.delivery is Delivery.FIFO_PAIRWISE
            heads: set[tuple[str, str]] = set()
            out = []
            for s, sender, p in self.networks[n][1]:
                receiver = values[p].schema.receiver
                if fifo:
                    if (sender, receiver) in heads:
                        continue
                    heads.add((sender, receiver))
                receivers = tuple(i for i, steps in enumerate(self.local) if steps.role == receiver)
                m = self.remove(n, s) if receivers or self.policy.loss_enabled else None
                out.append((p, receivers, m))
            out = self._deliveries[n] = tuple(out)
        return out

    def send(self, n: int, i: int, p: int) -> int:
        """The network n leaves once agent i sends payload number p."""
        m = self._sends.get((n, i, p))
        if m is None:
            count, sends = self.networks[n]
            m = self._sends[n, i, p] = self._network((count + 1, (*sends, (count, self.local[i].role, p))), (n, i, p))
        return m

    def remove(self, n: int, s: int) -> int:
        """The network n leaves once the message with send index s is
        taken out of it."""
        m = self._removals.get((n, s))
        if m is None:
            count, sends = self.networks[n]
            m = self._removals[n, s] = self._network((count, tuple(e for e in sends if e[0] != s)), (n, s))
        return m

    def moves(self, state: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The next state of every move from a composite state, in
        canonical order: emissions by role unless a synchronous delivery is
        due, then each deliverable envelope's reception, followed by its
        loss when loss is enabled.  No event is built: a move's event is
        the origin of the one history number it changes (`run_one`).  The
        memo tables are read inline."""
        n = state[-1]
        deliveries = self._deliveries.get(n)
        if deliveries is None:
            deliveries = self.deliveries(n)
        nexts: list[tuple[int, ...]] = []
        if not (deliveries and self.policy.delivery is Delivery.SYNCHRONOUS):
            sends = self._sends
            for i, steps in enumerate(self.local):
                emissions = steps._emissions[state[i]]
                if emissions is None:
                    emissions = steps.emissions(state[i])
                if not emissions:
                    continue
                before, after = state[:i], state[i + 1 : -1]
                for p, nxt in emissions:
                    m = sends.get((n, i, p))
                    if m is None:
                        m = self.send(n, i, p)
                    nexts.append((*before, nxt, *after, m))
        loss, histories = self.policy.loss_enabled, self._histories
        for p, receivers, m in deliveries:
            for i in receivers:
                nxt = histories[i].get((state[i], False, p))
                if nxt is None:
                    nxt = self.local[i].step(state[i], False, p)
                nexts.append((*state[:i], nxt, *state[i + 1 : -1], m))
            if loss:
                nexts.append((*state[:-1], m))
        return nexts

    def vector(self, state: tuple[int, ...]) -> tuple[History, ...]:
        """The agents' histories at a composite state."""
        return tuple(steps.history(k) for steps, k in zip(self.local, state[:-1]))


@dataclass(frozen=True)
class _RowGroup:
    """Permutations of instance-script rows, each acting on a payload by
    renaming its bindings: the value of a parameter in row j becomes that
    parameter's value in row perm[j].  `perms` leaves out the identity;
    `columns` maps each (parameter, value) of the rows to the parameter's
    column of values and the value's row."""

    perms: tuple[tuple[int, ...], ...] = ()
    columns: dict[tuple[str, str], tuple[tuple[str, ...], int]] = field(default_factory=dict)

    def rename(self, perm: tuple[int, ...], mi: MessageInstance) -> MessageInstance:
        bindings = []
        for name, value in mi.bindings:
            found = self.columns.get((name, value))
            bindings.append((name, value if found is None else found[0][perm[found[1]]]))
        return MessageInstance(mi.schema, tuple(bindings))


def _instance_group(agents: list[BsplAgent]) -> _RowGroup:
    """The row permutations under which the agents' moves commute with
    renaming, so that a permuted reachable state is reachable with the same
    moves, renamed.  They are all permutations of the rows when every agent
    runs over the same scripts, every script has the same number
    of rows, at least two, each with the same parameters, every parameter's
    values are pairwise distinct across rows and name one row across all
    scripts, and every schema an agent sends has a key.  Then `row_for` finds at most one
    row for a key, and the renamed key finds the permuted row.  Otherwise
    the group is trivial (no permutation but the identity).  Each state
    met has its image by every permutation in its rows, so beyond
    `_PERMUTED_ROWS` rows only the first that many are permuted: a
    subgroup's orbits partition the states as well, only smaller."""
    if not agents:
        return _RowGroup()
    scripts = agents[0].scripts
    if any(a.scripts != scripts for a in agents):
        return _RowGroup()
    if any(not sent.key_params for a in agents for plan in a._plans for sent in plan.sends):
        return _RowGroup()
    counts = {len(script.rows) for script in scripts}
    if len(counts) != 1 or min(counts) < 2:
        return _RowGroup()
    columns: dict[tuple[str, str], tuple[tuple[str, ...], int]] = {}
    for script in scripts:
        rows = script.row_maps()
        if any(row.keys() != rows[0].keys() for row in rows):
            return _RowGroup()
        for name in rows[0]:
            column = tuple(row[name] for row in rows)
            if len(set(column)) < len(column):
                return _RowGroup()
            for j, value in enumerate(column):
                if columns.setdefault((name, value), (column, j)) != (column, j):
                    return _RowGroup()
    n = counts.pop()
    k = min(n, _PERMUTED_ROWS)
    return _RowGroup(tuple(perm + tuple(range(k, n)) for perm in permutations(range(k)))[1:], columns)


_PERMUTED_ROWS = 6  # 720 permutations: an image row of 719 numbers per numbered state


class _Orbits:
    """Composite states up to a row group.  `rows` maps each component's
    numbers (each agent's states, then the networks) to image rows, the
    numbers of its images under the permutations in group order; payloads
    have rows too.  A number without a row gets one from its origin (see
    `_LocalSteps` and `_StateSpace`) by one memo lookup per permutation:
    the image of a reception is the image state's reception of the image
    payload, and likewise for emissions, sends and removals.  No history
    or network is renamed or rehashed, and no image has its moves listed.
    The least of a state and its images represents the orbit.  An orbit
    has the group's order of states unless a permutation besides the
    identity fixes its states, and `sizes` keeps only the sizes below the
    order: the start state's, 1, entered at once because the walk never
    canonicalizes it, and those of the symmetric states `canonical` meets."""

    def __init__(self, space: _StateSpace, group: _RowGroup):
        self.space, self.group, self.order = space, group, len(group.perms) + 1
        self.rows = [{k: (k,) * len(group.perms)} for k in space.start]
        self._payload_rows: dict[int, tuple[int, ...]] = {}
        self.sizes: dict[tuple[int, ...], int] = {space.start: 1}

    def orbit(self, state: tuple[int, ...]) -> set[tuple[int, ...]]:
        """The images of a state under every permutation, the identity's too."""
        return {state, *self._images(state)} if self.group.perms else {state}

    def canonical(self, state: tuple[int, ...]) -> tuple[int, ...]:
        """The representative of the state's orbit.  The orbit's size is the
        group's order over the number of the group's elements that fix the
        state; `sizes` records it, at the representative, only when some
        permutation besides the identity fixes the state.  `explore` asks
        for no state it has numbered."""
        try:
            images = zip(*map(getitem, self.rows, state))
        except KeyError:
            images = self._images(state)
        least, fixed = state, 1
        for image in images:
            if image < least:
                least = image
            elif image == state:
                fixed += 1
        if fixed > 1:
            self.sizes[least] = self.order // fixed
        return least

    def _images(self, state: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """The state's images, its components' rows zipped, each row filled first where missing."""
        space, rows, one = self.space, self.rows, self.order == 2  # one permutation: direct calls cost less than map
        for steps, table, own in zip(space.local, rows, state):
            for k in _unmapped(table, steps.origins, own):
                parent, emitted, p = steps.origins[k]
                row, qs = table[parent], self._payload_row(p)
                table[k] = (steps.step(row[0], emitted, qs[0]),) if one else tuple(map(steps.step, row, repeat(emitted), qs))
        table = rows[-1]
        for n in _unmapped(table, space.net_origins, state[-1]):
            row, step = table[space.net_origins[n][0]], space.net_origins[n][1:]
            if len(step) == 2:  # a send, by (agent, payload)
                i, qs = step[0], self._payload_row(step[1])
                table[n] = (space.send(row[0], i, qs[0]),) if one else tuple(map(space.send, row, repeat(i), qs))
            else:  # a removal, by the envelope's send index
                table[n] = (space.remove(row[0], step[0]),) if one else tuple(map(space.remove, row, repeat(step[0])))
        return zip(*map(getitem, rows, state))

    def _payload_row(self, p: int) -> tuple[int, ...]:
        row = self._payload_rows.get(p)
        if row is None:
            payloads, group = self.space.payloads, self.group
            row = self._payload_rows[p] = tuple(map(payloads, map(group.rename, group.perms, repeat(payloads.values[p]))))
        return row


def _unmapped(table: dict[int, tuple[int, ...]], origins: list, k: int) -> list[int]:
    """k and the ancestors it was first reached from that `table` lacks, oldest first."""
    path = []
    while k not in table:
        path.append(k)
        k = origins[k][0]
    return path[::-1]


def history_key(h: History):
    """A history's part of the enactment order: its owner and each
    observation's kind, schema name and bindings."""
    return (h.owner, tuple((o.kind, o.instance.schema.name, o.instance.bindings) for o in h.observations))


def run_one(
    agents: list[BsplAgent],
    policy: SimPolicy,
    seed: int = 0,
    choice_script: list[int] | None = None,
) -> tuple[tuple[History, ...], list[tuple[str, str, Any]]]:
    """One deterministic enactment: moves are ordered canonically and picked
    by the choice script (read left to right, one choice per move) or a
    seeded RNG.  Returns the history vector and the global event log as
    (agent, kind, payload).  A single run delivers every message, whatever
    the policy says of loss, and no queue cap applies, so a move changes
    one agent's history number, whose origin gives the move's event."""
    space = _StateSpace(agents, replace(policy, loss_enabled=False))
    state = space.start
    rng = random.Random(seed)
    log: list[tuple[str, str, Any]] = []
    while True:
        nexts = space.moves(state)
        if not nexts:
            return space.vector(state), log
        if choice_script is not None:
            if len(log) == len(choice_script):
                raise RuntimeError("choice script exhausted")
            index = choice_script[len(log)] % len(nexts)
        else:
            index = rng.randrange(len(nexts))
        before, state = state, nexts[index]
        i = next(i for i, k in enumerate(state) if k != before[i])
        _, emitted, p = space.local[i].origins[state[i]]
        log.append((space.local[i].role, EMISSION if emitted else RECEPTION, space.payloads.values[p]))


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
    """Eager protocol-driven agent, the one kind of agent the simulator
    drives: offers every correct emission available from its history,
    with out-parameter values drawn from instance scripts, found by one
    enabling test per (script, sent schema, candidate key) on parameter
    names (`_ScriptPlan.emissions`).  Its state is its history, and `emit`
    and `receive` each append one observation to it: `explore` numbers its
    histories by that origin (`_LocalSteps`).

    `knowledge`, `_payloads`, `emit` and `receive` must be pure functions
    of their arguments: equal arguments always give equal results, and
    none changes the agent.  `_payloads` reads knowledge records, not a
    history, and must moreover depend only on the set of observations the
    records stand for, each as (kind, instance), not on their order or
    ticks: `explore` gives it the records of `knowledge(initial())` grown
    by `Knowledge.after`, one distinct observation at a time.  `explore`
    relies on this to call `emit` and `receive` at most once per distinct
    argument, and `_payloads` once per distinct set, within one
    exploration."""

    def __init__(self, role: str, scripts: list[InstanceScript]):
        self.role = role
        self.scripts = tuple(scripts)
        self._plans = tuple(_ScriptPlan(script, role) for script in self.scripts)

    def initial(self) -> History:
        return History(self.role)

    def emissions(self, h: History) -> tuple[tuple[MessageInstance, History], ...]:
        """(payload, next history) per correct emission from h; the walk
        reads `_payloads` on knowledge records and builds no history."""
        return tuple((mi, self.emit(h, mi)) for mi in self._payloads(self.knowledge(h)))

    def knowledge(self, h: History) -> tuple[Knowledge, ...]:
        """What h knows, one record per script, under the script's protocol."""
        return tuple(Knowledge(h, plan.protocol) for plan in self._plans)

    def emit(self, h: History, mi: MessageInstance) -> History:
        """The history after emitting `mi`, one of `emissions(h)`."""
        return observe(h, EMISSION, mi)

    def _payloads(self, knowledge: tuple[Knowledge, ...]) -> tuple[MessageInstance, ...]:
        """The correct emissions from a history, given what it knows (one
        record per script, as `knowledge` gives), sorted by schema name
        and bindings.  Knowledge is a set, so they depend only on which
        observations the history holds, not on their order: `explore`
        keeps them by that set."""
        out = [mi for plan, known in zip(self._plans, knowledge) for mi in plan.emissions(known)]
        out.sort(key=lambda mi: (mi.schema.name, mi.bindings))
        return tuple(out)

    def receive(self, h: History, mi: MessageInstance) -> History:
        return observe(h, RECEPTION, mi)


@dataclass(frozen=True)
class _Send:
    """A schema an agent sends, with the names its enabling test reads:
    its key parameters, its 'in' names and its other names (`outs`), those
    of `outs` outside the key (their values come from the script row)
    and, when no key parameter is 'in' (the schema originates its key),
    the distinct keys of the script rows that bind them all."""

    schema: MessageSchema
    key_params: tuple[str, ...]
    ins: frozenset[str]
    outs: frozenset[str]
    row_outs: frozenset[str]
    row_keys: tuple[Key, ...]


class _ScriptPlan:
    """What an agent reads of one instance script, computed once: its
    rows and the schemas the agent sends (`_Send`).  Rows are looked up
    by key on first use.  `emissions` runs the enabling tests on what
    one history knows under the script's protocol."""

    def __init__(self, script: InstanceScript, role: str):
        p = script.protocol
        self.protocol = p
        self.rows = script.row_maps()
        self.sends = tuple(self._send(schema) for schema in p.messages if schema.sender == role)
        self._rows_by_key: dict[Key, dict[str, str] | None] = {}

    def _send(self, schema: MessageSchema) -> _Send:
        key_params = self.protocol.message_keys(schema)
        ins = frozenset(schema.ins())
        outs = schema.param_name_set - ins
        row_keys: tuple[Key, ...] = ()
        if not ins.intersection(key_params):
            rows = (row for row in self.rows if all(k in row for k in key_params))
            row_keys = tuple(dict.fromkeys(tuple((k, row[k]) for k in key_params) for row in rows))
        return _Send(schema, key_params, ins, outs, outs.difference(key_params), row_keys)

    def emissions(self, knowledge: Knowledge) -> list[MessageInstance]:
        """The instances of the sent schemas that a history enables, given
        what it knows under this protocol.  A schema's candidate keys are
        those of the observed keys (`Knowledge.observed`) that bind all of
        its key parameters, cut down to them, then its row keys.  The
        schema is enabled for a key when all of these hold:

        - what the history knows for the key has no conflict;
        - it binds every 'in' name, each 'in' key parameter to its value in
          the key;
        - it binds none of the schema's other names;
        - the key's script row holds every non-key 'out' name;
        - the history has not emitted the schema for the key.

        That is the rule `Knowledge.check_emission` checks on one instance,
        tested here on names, so that only enabled instances are built."""
        observed = [dict(key) for key in knowledge.observed]
        emitted = knowledge.emitted
        keys_by_params: dict[tuple[str, ...], dict[Key, None]] = {}
        out = []
        for sent in self.sends:
            key_params = sent.key_params
            keys = keys_by_params.get(key_params)
            if keys is None:
                keys = keys_by_params[key_params] = dict.fromkeys(
                    tuple((k, known[k]) for k in key_params) for known in observed if all(k in known for k in key_params)
                )
            if sent.row_keys:
                keys = (*keys, *(key for key in sent.row_keys if key not in keys))
            name = sent.schema.name
            for key in keys:
                if (name, key) in emitted:
                    continue
                known = knowledge.union(key)
                if isinstance(known, IntegrityConflict):
                    continue
                names = known.keys()
                if not (names >= sent.ins and names.isdisjoint(sent.outs)):
                    continue
                if any(known[k] != v for k, v in key if k in sent.ins):
                    continue
                row = self.row_for(key) if sent.row_outs else {}
                if row is None or not row.keys() >= sent.row_outs:
                    continue
                values = {**row, **dict(key), **known}
                out.append(MessageInstance(sent.schema, tuple((q, values[q]) for q in sent.schema.param_names())))
        return out

    def row_for(self, key: Key) -> dict[str, str] | None:
        """The first row that agrees with every binding of `key`."""
        if key not in self._rows_by_key:
            self._rows_by_key[key] = next((row for row in self.rows if all(row.get(k) == v for k, v in key)), None)
        return self._rows_by_key[key]
