"""The Thompson construction that built `extract_fsm`'s machines before the
derivative walk: an NFA with silent moves (`Nfa`, `_build`), the residuals
of a shuffle numbered on the exploration core (`_first_steps`), then the
subset construction (`determinize`) and `_minimize`.  Kept verbatim as the
oracle of `tests/test_fsm.py`, and as the NFA of the older oracles in
`tests/test_local_steps.py` and `tests/test_trace_sets.py`.  Its own
`_unroll_local` makes an unrolled choice plain, since the residuals of a
shuffle read a choice's polarity.
"""

from __future__ import annotations

from collections import defaultdict

from protolab.cfp.fsm import Label, Subsets, TypeLevelFsm, UNROLL_BOUND, _all_tail, _label, _minimize
from protolab.cfp.projection import L_EPSILON, ChoiceKind, LAtom, LChoice, LEps, LRec, LSeq, LShuffle, LVar, LocalExpr, accepting, local_steps
from protolab.graph import Graph, explore


def thompson_fsm(l: LocalExpr) -> TypeLevelFsm:
    """`extract_fsm` as it was: tail recursion becomes a cycle; non-tail
    recursion is unrolled `UNROLL_BOUND` times before compilation."""
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


def determinize(nfa: Nfa, start: int) -> Graph:
    """Subset construction from `start`, silent moves closed over: the
    core's graph of frozensets of NFA states, moves in label order."""
    subsets = Subsets(nfa.edges, nfa.eps)
    return explore(subsets.closure(frozenset([start])), subsets.step)


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
