"""The BSPL walk as it was before each move was taken once: `explore`
and `_StateSpace.moves` kept verbatim, with the `netsim` names they read.
The walk canonicalizes every next state it has not numbered into a second
list before numbering any, tests each next state's membership twice, and
sums the orbit sizes of every numbered state once the walk ends; `moves`
reaches a reception's next history through `_LocalSteps.step`.  Kept as
the oracle of `tests/test_walk_oracle.py`: the walk of `netsim.explore`
over `netsim._StateSpace` must give the same result, orbit sizes and
numbered components.
"""

from __future__ import annotations

from functools import partial

from protolab.netsim import (
    DEFAULT_QUEUE_CAP,
    DEFAULT_STATE_CAP,
    BsplAgent,
    Delivery,
    ExplorationResult,
    ExplorationStats,
    SimPolicy,
    _enactments,
    _instance_group,
    _Orbits,
)
from protolab.netsim import _StateSpace as _SpaceTables


class _StateSpace(_SpaceTables):
    """`netsim._StateSpace` with its `moves` as it was."""

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
        for p, receivers, m in deliveries:
            for i in receivers:
                nexts.append((*state[:i], self.local[i].step(state[i], False, p), *state[i + 1 : -1], m))
            if self.policy.loss_enabled:
                nexts.append((*state[:-1], m))
        return nexts


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
    `_Orbits.sizes` records a smaller one.  A numbered next state is a
    representative, so only the others are canonicalized.  A state with a
    move that would put more than `queue_cap` messages on a channel is left
    unexpanded, and the queue cap is reported as fired.  The state cap
    fires when more than `state_cap` states are reachable, and the walk
    then stops before the representative that would take it past the cap.

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
        max_depth = max(max_depth, depth)
        nexts = space.moves(state)
        if canonical is not None:
            nexts = [nxt if nxt in numbered else canonical(nxt) for nxt in nexts]
        if not nexts:
            terminals.append(state)
        # a move adds at most one message, so only a state at the cap can pass it
        elif depth >= queue_cap and any(depths[nxt[-1]] > queue_cap for nxt in nexts):
            queued = True
            continue
        moves += size * len(nexts)
        for nxt in nexts:
            if nxt not in numbered:
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
    met = sum(sizes.get(state, order) for state in states)
    explored = state_cap if capped else taken
    stats = ExplorationStats(explored, count, max_depth, local_states, len(space.networks), moves - (met - 1))
    return ExplorationResult(enactments, stats, "state" if capped else "queue" if queued else None)

