"""Type-level finite state machines extracted from local behaviors.

Labels carry peer, direction, message name, and the payload *type*
signature; parameter names and values are deliberately absent, which is
what makes these machines value-blind.  A shuffle is compiled from its
residuals: the remainders that the one first-step walk
(`projection.local_steps`) reaches, one state each, rather than from a
list of its interleavings.  That walk and `determinize`, the subset
construction whose step (`Subsets`) realizability's trace-set walk also
takes, run on the exploration core (`graph.explore`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from ..graph import Graph, explore
from .projection import L_EPSILON, ChoiceKind, LAtom, LChoice, LEps, LRec, LSeq, LShuffle, LVar, LocalExpr, accepting, local_steps

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
    """Compile a local behavior to a deterministic type-level FSM.

    Tail recursion becomes a cycle; non-tail recursion is unrolled
    `UNROLL_BOUND` times before compilation."""
    nfa = Nfa()
    start, end = nfa.new_state(), nfa.new_state()
    _build(nfa, l if _all_tail(l) else _unroll_local(l, UNROLL_BOUND, {}), start, end, {})
    nfa.finals.add(end)
    subsets = determinize(nfa, start)
    transitions = [(n, label, t) for n, out in enumerate(subsets.edges) for label, t in out]
    finals = tuple(n for n, subset in enumerate(subsets.states) if subset & nfa.finals)
    return _minimize(TypeLevelFsm(tuple(range(len(subsets.states))), 0, finals, tuple(sorted(transitions))))


class Nfa:
    """A labelled automaton with silent (epsilon) moves, states 0..count-1."""

    def __init__(self):
        self.count = 0
        self.eps: defaultdict[int, set[int]] = defaultdict(set)
        self.edges: defaultdict[int, list[tuple[Label, int]]] = defaultdict(list)
        self.finals: set[int] = set()

    def new_state(self) -> int:
        self.count += 1
        return self.count - 1

    def add_eps(self, a: int, b: int) -> None:
        self.eps[a].add(b)

    def add_edge(self, a: int, label: Label, b: int) -> None:
        self.edges[a].append((label, b))


def _build(nfa: Nfa, e: LocalExpr, start: int, end: int, env: dict[str, int]) -> None:
    if isinstance(e, LEps):
        nfa.add_eps(start, end)
    elif isinstance(e, LAtom):
        nfa.add_edge(start, _label(e), end)
    elif isinstance(e, LSeq):
        mid = nfa.new_state()
        _build(nfa, e.left, start, mid, env)
        _build(nfa, e.right, mid, end, env)
    elif isinstance(e, LChoice):
        for b in e.branches:
            _build(nfa, b, start, end, env)
    elif isinstance(e, LShuffle):
        # one NFA state per residual the shuffle's first steps reach, the
        # shuffle itself at `start`
        residuals = explore(e, _first_steps)
        number = [start] + [nfa.new_state() for _ in residuals.states[1:]]
        for n, r in enumerate(residuals.states):
            for label, t in residuals.successors(n):
                nfa.add_edge(number[n], label, number[t])
            if accepting(r):
                nfa.add_eps(number[n], end)
    elif isinstance(e, LRec):
        entry = nfa.new_state()
        nfa.add_eps(start, entry)
        _build(nfa, e.body, entry, end, {**env, e.var: entry})
    elif isinstance(e, LVar):
        nfa.add_eps(start, env[e.var])
    else:
        raise TypeError(type(e))


def _first_steps(e: LocalExpr) -> tuple[list[Label], list[LocalExpr]]:
    """The moves of a residual, for `explore`: each first event's label and
    the remainder it leaves (silent commitments are not moves here)."""
    steps = [(atom, rest) for atom, rest in local_steps(e) if atom is not None]
    return [_label(atom) for atom, _ in steps], [rest for _, rest in steps]


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
        # a polarity read before a variable was replaced by its body no
        # longer holds; the machine reads every branch, so it is plain
        return LChoice(tuple(_unroll_local(b, bound, env) for b in e.branches), ChoiceKind.PLAIN, e.lean)
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


def determinize(nfa: Nfa, start: int) -> Graph:
    """Subset construction from `start`, silent moves closed over: the
    core's graph of frozensets of NFA states, moves in label order."""
    subsets = Subsets(nfa.edges, nfa.eps)
    return explore(subsets.closure(frozenset([start])), subsets.step)


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
