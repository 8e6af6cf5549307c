"""The exploration core: one breadth-first walk that numbers the states a
successor function reaches, and the passes over the graphs it builds.
CFP compositions (`runtime.compose`), the residuals of a local shuffle
and the subset construction of a type-level machine (`cfp.fsm`), and
realizability's one walk over pairs of a protocol state and a set of
composition states run on `explore` and read its moves.  The BSPL walk
(`netsim.explore`) reads none: it numbers its states by position in a
list and records no moves.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable, Hashable, Iterable


class Numbering:
    """Numbers equal values 0, 1, 2, ... in the order they are met;
    `values[n]` is the first value numbered n."""

    def __init__(self):
        self.values: list = []
        self._numbers: dict = {}

    def __call__(self, value) -> int:
        n = self._numbers.get(value)
        if n is None:
            n = self._numbers[value] = len(self.values)
            self.values.append(value)
        return n


@dataclass
class Graph:
    """The states a walk reached and the moves of those it took.

    `states[n]` is state n, state 0 the start; the first `len(labels)` were
    taken in turn and expanded, except those the successor function
    declined (`declined`).  State n's moves go to the states numbered
    `targets[offsets[n]:offsets[n + 1]]` (machine integers in one array, no
    object per move) and `labels[n]` labels them, or is None.  `dedup_hits`
    counts the moves into a state already numbered; `cap` is "state" when
    the state cap stopped the walk with states left."""

    states: list
    labels: list
    targets: array
    offsets: array
    declined: list[int]
    dedup_hits: int
    cap: str | None

    @cached_property
    def edges(self) -> list[list[tuple[object, int]]]:
        """(label, target) per move, for each state taken, the label None
        when the successor function gave none; built on first use."""
        offsets, rest = self.offsets, iter(self.targets)
        # zip stops at the end of its first argument: each state takes its own targets
        return [
            list(zip(repeat(None, offsets[n + 1] - offsets[n]) if out is None else out, rest))
            for n, out in enumerate(self.labels)
        ]

    def successors(self, n: int) -> list[tuple[object, int]]:
        """(label, target) per move of state n; none if n was not taken."""
        edges = self.edges
        return edges[n] if n < len(edges) else []


def explore(start: Hashable, successors: Callable[[Hashable], tuple | None], state_cap: int | None = None) -> Graph:
    """Walk breadth-first from `start`.  `successors(state)` returns the
    state's moves as (labels, next states), two sequences in move order, or
    None to leave the state unexpanded (a cap of the caller's own).  States
    are numbered 0, 1, 2, ... when first met, in breadth-first order, and
    each is expanded once, so a cyclic successor function ends.  After
    `state_cap` states are taken, the walk stops if any state is left."""
    states, numbers = [start], {start: 0}  # a `Numbering`, inlined below
    labels: list = []
    targets = array("i")
    offsets = array("i", [0])
    declined: list[int] = []
    cap = None
    taken = 0
    while taken < len(states):
        if taken == state_cap:
            cap = "state"
            break
        found = successors(states[taken])
        if found is None:
            declined.append(taken)
        taken += 1
        out, nexts = found or (None, ())
        for state in nexts:  # once per move
            n = numbers.get(state)
            if n is None:
                n = numbers[state] = len(states)
                states.append(state)
            targets.append(n)
        labels.append(out)
        offsets.append(len(targets))
    return Graph(states, labels, targets, offsets, declined, len(targets) - (len(states) - 1), cap)


def topological(graph: Graph) -> list[int]:
    """The states of an acyclic graph that the walk expanded to the end,
    in topological order."""
    targets, offsets = graph.targets, graph.offsets
    indegree = [0] * len(graph.labels)
    for t in targets:
        indegree[t] += 1
    ready = [n for n, d in enumerate(indegree) if not d]
    order = []
    while ready:
        n = ready.pop()
        order.append(n)
        for t in targets[offsets[n] : offsets[n + 1]]:
            indegree[t] -= 1
            if not indegree[t]:
                ready.append(t)
    if len(order) != len(indegree):
        raise RuntimeError("the graph has a cycle")
    return order


def least_path(
    start: Hashable,
    successors: Callable[[Hashable], Iterable[tuple[object, Hashable]]],
    terminal: Callable[[Hashable], tuple | None],
) -> tuple | None:
    """The least label sequence (Python tuple order) that a path from
    `start` through an acyclic graph spells, ending with `terminal(node)`
    at a node where that is not None; None when no path ends so.  A None
    label is a silent move and spells nothing.

    Prepending a label keeps tuple order, so the least sequence from a
    node is the least over its own terminal and each move followed by the
    least sequence from the move's target: one iterative pass in
    post-order, each node once."""
    best: dict = {}
    stack: list = [(start, None)]
    while stack:
        node, out = stack.pop()
        if out is None:
            if node in best:
                continue
            out = list(successors(node))
            best[node] = None
            stack.append((node, out))
            stack.extend((t, None) for _, t in out if t not in best)
            continue
        options = []
        end = terminal(node)
        if end is not None:
            options.append(end)
        for label, t in out:
            rest = best[t]
            if rest is not None:
                options.append(rest if label is None else (label,) + rest)
        best[node] = min(options) if options else None
    return best[start]
