"""Type-level finite state machines extracted from local behaviors.

Labels carry peer, direction, message name, and the payload *type*
signature; parameter names and values are deliberately absent, which is
what makes these machines value-blind.  A machine is the subset
construction over a behavior's derivatives: one walk on the exploration
core (`graph.explore`) whose states are sets of remainders, stepped by the
first-step walk the runtime also takes (`projection.local_steps`) with
every choice read plain.  A recursion steps as its unfolding, so tail
recursion becomes a cycle; a shuffle's residuals are remainders like any
other.  The walk is breadth-first in label order and `_minimize` names
each block by its least state, so the printed machine depends only on
the words the behavior can read and accept.

`Subsets` is the subset construction's step over states with silent
moves, which realizability's trace-set walk takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from ..graph import explore
from .projection import L_EPSILON, LAtom, LChoice, LRec, LSeq, LShuffle, LVar, LocalExpr, accepting, local_steps

Label = tuple[str, str, str, tuple[str, ...]]  # (peer, direction, name, type signature)
UNROLL_BOUND = 2  # unrollings of a non-tail recursion


def _label(atom: LAtom) -> Label:
    types = tuple((ptype or "?") for _, ptype in atom.payload)
    return (atom.peer, atom.direction, atom.name, types)


def format_label(label: Label) -> str:
    peer, direction, name, types = label
    sig = f"({', '.join(types)})" if types else "()"
    return f"{peer}{direction}{name}{sig}"


@dataclass(frozen=True)
class TypeLevelFsm:
    states: tuple[int, ...]
    initial: int
    finals: tuple[int, ...]
    transitions: tuple[tuple[int, Label, int], ...]

    @cached_property
    def index(self) -> dict[int, dict[tuple, int]]:
        """Each state's moves, keyed by label and by (peer, direction,
        name); a name that several signatures share there keys the first
        of them in transition order."""
        out: dict[int, dict[tuple, int]] = {}
        for src, label, dst in self.transitions:
            moves = out.setdefault(src, {})
            moves.setdefault(label, dst)
            moves.setdefault(label[:3], dst)
        return out

    def step(self, state: int, label: Label) -> int | None:
        return self.index.get(state, {}).get(label)

    def move(self, state: int, peer: str, direction: str, name: str) -> int | None:
        """The state after the move with this peer, direction and message
        name from `state`, or None; the machines are value-blind, so a
        message resolves by name among the moves of the state it is in."""
        return self.index.get(state, {}).get((peer, direction, name))

    def accepts(self, labels: list[Label]) -> bool:
        state = self.initial
        for label in labels:
            nxt = self.step(state, label)
            if nxt is None:
                return False
            state = nxt
        return state in self.finals

    def alphabet(self) -> set[Label]:
        return {lab for _, lab, _ in self.transitions}


def extract_fsm(l: LocalExpr) -> TypeLevelFsm:
    """Compile a local behavior to a deterministic type-level FSM: the
    subset walk over its derivatives, minimized.

    Tail recursion becomes a cycle; non-tail recursion is unrolled
    `UNROLL_BOUND` times before compilation."""
    walk = explore(frozenset([l if _all_tail(l) else _unroll_local(l, UNROLL_BOUND, {})]), _step)
    transitions = [(n, label, t) for n, out in enumerate(walk.edges) for label, t in out]
    finals = tuple(n for n, rests in enumerate(walk.states) if any(accepting(r) for r in rests))
    return _minimize(TypeLevelFsm(tuple(range(len(walk.states))), 0, finals, tuple(sorted(transitions))))


def _step(rests: frozenset[LocalExpr]) -> tuple[list[Label], list[frozenset[LocalExpr]]]:
    """The moves of a set of remainders, for `explore`: each label, in
    order, and the remainders its events leave, every choice read plain."""
    by_label: dict[Label, set[LocalExpr]] = {}
    for r in rests:
        for atom, rest in local_steps(r, plain=True):
            by_label.setdefault(_label(atom), set()).add(rest)
    labels = sorted(by_label)
    return labels, [frozenset(by_label[label]) for label in labels]


def _all_tail(e: LocalExpr) -> bool:
    """True when every recursion variable occurs only in tail position."""

    def walk(e: LocalExpr, tail: bool) -> bool:
        if isinstance(e, LVar):
            return tail
        if isinstance(e, LSeq):
            return walk(e.left, False) and walk(e.right, tail)
        if isinstance(e, LChoice):
            return all(walk(b, tail) for b in e.branches)
        if isinstance(e, LShuffle):
            return walk(e.left, False) and walk(e.right, False)
        if isinstance(e, LRec):
            return walk(e.body, tail)
        return True

    return walk(e, True)


def _unroll_local(e: LocalExpr, bound: int, env: dict[str, tuple[LRec, int]]) -> LocalExpr:
    if isinstance(e, LRec):
        if bound <= 0:
            return L_EPSILON
        return _unroll_local(e.body, bound, {**env, e.var: (e, bound - 1)})
    if isinstance(e, LVar):
        rec, budget = env[e.var]
        if budget <= 0:
            return L_EPSILON
        return _unroll_local(rec.body, bound, {**env, e.var: (rec, budget - 1)})
    if isinstance(e, LSeq):
        return LSeq(_unroll_local(e.left, bound, env), _unroll_local(e.right, bound, env))
    if isinstance(e, LShuffle):
        return LShuffle(_unroll_local(e.left, bound, env), _unroll_local(e.right, bound, env))
    if isinstance(e, LChoice):
        return LChoice(tuple(_unroll_local(b, bound, env) for b in e.branches), e.kind, e.lean)
    return e


class Subsets:
    """The subset construction's step over states with labelled moves
    `labelled[s]`, (label, target) pairs, and silent moves `silent[s]`.
    Each closure is computed once; equal closed sets are one object.  A
    step follows every label of the subset, so realizability's trace-set
    walk is driven by the composition's labels alone."""

    def __init__(self, labelled: Mapping[int, Iterable[tuple[Label, int]]], silent: Mapping[int, Iterable[int]]):
        self.labelled, self.silent, self.closed = labelled, silent, {}

    def closure(self, states: frozenset[int]) -> frozenset[int]:
        closed = self.closed.get(states)
        if closed is None:
            stack, seen = list(states), set(states)
            while stack:
                for t in self.silent[stack.pop()]:
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
            closed = frozenset(seen)
            closed = self.closed[states] = self.closed.setdefault(closed, closed)
        return closed

    def step(self, subset: frozenset[int]) -> tuple[list[Label], list[frozenset[int]]]:
        """Labels in order and the closed sets they reach."""
        by_label: dict[Label, set[int]] = {}
        for s in subset:
            for label, t in self.labelled[s]:
                by_label.setdefault(label, set()).add(t)
        labels = sorted(by_label)
        return labels, [self.closure(frozenset(by_label[label])) for label in labels]


def _minimize(fsm: TypeLevelFsm) -> TypeLevelFsm:
    """Partition refinement (Moore): states stay together while they agree
    on finality and, label by label, on the blocks their moves reach.  A
    state's signature lists only its own moves, by label: a label it lacks
    differs from every block, as a move would."""
    first: dict[int, dict[Label, int]] = {}
    for a, lab, b in fsm.transitions:
        first.setdefault(a, {}).setdefault(lab, b)  # the move `step` takes
    moves = {a: sorted(out.items()) for a, out in first.items()}
    finals = set(fsm.finals)
    # ints, not bools: a first refinement that numbers the blocks alike
    # compares equal to it and ends the loop with these names
    partition = {s: int(s in finals) for s in fsm.states}
    changed = True
    while changed:
        changed = False
        signature = {}
        for s in fsm.states:
            signature[s] = (partition[s], tuple((lab, partition[t]) for lab, t in moves.get(s, ())))
        blocks: dict[tuple, list[int]] = {}
        for s in fsm.states:
            blocks.setdefault(signature[s], []).append(s)
        new_partition = {}
        for i, key in enumerate(sorted(blocks, key=lambda k: min(blocks[k]))):
            for s in blocks[key]:
                new_partition[s] = i
        if new_partition != partition:
            partition = new_partition
            changed = True
    transitions = sorted({(partition[a], lab, partition[b]) for a, lab, b in fsm.transitions})
    states = tuple(sorted(set(partition.values())))
    finals2 = tuple(sorted({partition[s] for s in fsm.finals}))
    return TypeLevelFsm(states, partition[fsm.initial], finals2, tuple(transitions))


def export_fsm(fsm: TypeLevelFsm) -> str:
    """Graph text form for golden-file comparison: one node or edge per line."""
    lines = []
    for s in fsm.states:
        marks = []
        if s == fsm.initial:
            marks.append("initial")
        if s in fsm.finals:
            marks.append("final")
        lines.append(f"node {s}" + (" " + " ".join(marks) if marks else ""))
    for a, label, b in fsm.transitions:
        lines.append(f"edge {a} -> {b} {format_label(label)}")
    return "\n".join(lines) + "\n"
