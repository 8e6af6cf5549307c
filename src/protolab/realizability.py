"""Realizability of control-flow protocols under a communication
configuration.

A protocol is realizable when the roles, each acting only on its own
projection, jointly produce exactly the protocol's computations: no stuck
states, no deliveries the receiving behavior cannot accept, every completed
execution within the interpreted ordering constraints, and the same traces
as the protocol.  Under unordered delivery, a protocol that repeats the
same schema on the same channel additionally fails because receivers
consume by message type and cannot tell crossed occurrences apart, so
reordered deliveries silently cross protocol instances.

Trace equality is one inclusion, as no message goes from a role to itself
(both CFP parsers reject one).  Each doctrine's projection accepts each
role's view of every protocol trace, and `local_steps` keeps its first
event: an external choice drops only sends, and no role's view of such a
branch starts with a send (trace-c and trace-f read polarity from the
global initials; scribble's merge check requires each non-decider branch
to start with a reception, at every nesting level).  So the run that
delivers each message right after its send is a completed path under
FIFO, unordered and synchronous delivery and under the channel selector,
with never more than one message in transit, and every protocol trace is
enacted.  Only extra traces are sought (`_extra_traces`), and only when no
reason is known yet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .cfp.ast import CfpExpr, Choice, OccAtom, Rec, Seq, Shuffle, Var, finals, initials, nodes, roles as expr_roles
from .cfp.projection import (
    LocalExpr,
    MergeFailure,
    project_scribble,
    project_trace_c,
    project_trace_f,
)
from .cfp.fsm import Subsets
from .cfp.transforms import (
    DEFAULT_UNROLL,
    accepts_empty,
    eliminate_shuffle,
    expand,
    first_repeat,
    first_trace,
    label_derivatives,
    language_state,
)
from .diagnostics import Diagnostic
from .graph import explore, least_path, topological
from .netsim import Delivery, Reception
from .runtime import CompositionGraph, compose


class Interpretation(str, Enum):
    SS = "SS"
    SR = "SR"
    RS = "RS"
    RR = "RR"


class Doctrine(str, Enum):
    TRACE_C = "trace-c"
    TRACE_F = "trace-f"
    SCRIBBLE = "scribble"
    HAPN = "hapn"


@dataclass(frozen=True)
class CommConfig:
    delivery: Delivery | None
    reception: Reception = Reception.ANYTIME
    interpretation: Interpretation | None = None
    doctrine: Doctrine = Doctrine.TRACE_F

    def with_(self, **kw) -> "CommConfig":
        return replace(self, **kw)


def language_preset(name: str) -> CommConfig:
    """Communication model presets.  The trace-expression variant with
    pluggable infrastructure leaves delivery and interpretation to the
    caller."""
    key = name.replace("-", "").replace("_", "").lower()
    if key == "tracec":
        return CommConfig(Delivery.FIFO_PAIRWISE, Reception.ANYTIME, Interpretation.RR, Doctrine.TRACE_C)
    if key == "tracef":
        return CommConfig(None, Reception.ANYTIME, None, Doctrine.TRACE_F)
    if key == "scribble":
        return CommConfig(Delivery.FIFO_PAIRWISE, Reception.BLOCKING_SELECTOR, None, Doctrine.SCRIBBLE)
    if key == "hapn":
        return CommConfig(Delivery.SYNCHRONOUS, Reception.ANYTIME, None, Doctrine.HAPN)
    raise ValueError(f"unknown language preset {name!r}")


# ---------------------------------------------------------------------------
# sequence constraints


@dataclass(frozen=True)
class Constraint:
    kind: Interpretation
    left: OccAtom
    right: OccAtom

    def events(self) -> tuple[tuple[str, int], tuple[str, int]]:
        first = "E" if self.kind in (Interpretation.SS, Interpretation.SR) else "R"
        second = "E" if self.kind in (Interpretation.SS, Interpretation.RS) else "R"
        return ((first, self.left.occ), (second, self.right.occ))

    def __str__(self) -> str:
        first = "send" if self.kind in (Interpretation.SS, Interpretation.SR) else "recv"
        second = "send" if self.kind in (Interpretation.SS, Interpretation.RS) else "recv"
        return f"{first}({self.left.atom.name}) < {second}({self.right.atom.name})"


def sequence_constraints(e: CfpExpr, interpretation: Interpretation, unroll_bound: int = DEFAULT_UNROLL) -> tuple[Constraint, ...]:
    """One ordering constraint per sequence-adjacent atom pair: for every
    sequence node in pre-order, each final atom of the left operand against
    each initial atom of the right operand, typed by the interpretation."""
    expanded = e if any(isinstance(x, OccAtom) for x in nodes(e)) else expand(e, unroll_bound)
    return tuple(
        Constraint(interpretation, a, b)
        for x in nodes(expanded)
        if isinstance(x, Seq)
        for a in finals(x.left)
        for b in initials(x.right)
    )


# ---------------------------------------------------------------------------
# nonlocal choice


def detect_nonlocal_choice(e: CfpExpr) -> list[Diagnostic]:
    """Choice points whose branches' first events have different senders,
    counting a shuffle as a choice over which operand moves first, in
    pre-order (left operand first).  The walk keeps its own stack, and
    reports once per use of a node that the parser shares."""
    out: list[Diagnostic] = []
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Choice):
            senders = {a.sender for b in x.branches for a in initials(b)}
            if len(senders) > 1:
                subject = " vs ".join(sorted({f"{a.sender} sends {a.name}" for b in x.branches for a in initials(b)[:1]}))
                message = "choice branches are initiated by different roles: " + ", ".join(sorted(senders))
                out.append(Diagnostic("NonlocalChoice", message, subject=subject))
            stack.extend(reversed(x.branches))
        elif isinstance(x, Shuffle):
            left = {a.sender for a in initials(x.left)}
            right = {a.sender for a in initials(x.right)}
            if left and right and left | right != left & right and len(left | right) > 1:
                message = "shuffle operands are initiated by different roles: " + ", ".join(sorted(left | right))
                out.append(Diagnostic("NonlocalChoice", message))
            stack += (x.right, x.left)
        elif isinstance(x, Seq):
            stack += (x.right, x.left)
        elif isinstance(x, Rec):
            stack.append(x.body)
    return out


# ---------------------------------------------------------------------------
# verdicts


class Outcome(str, Enum):
    REALIZABLE = "Realizable"
    UNREALIZABLE = "Unrealizable"
    BOUND_EXCEEDED = "BoundExceeded"


class Reason(str, Enum):
    """Why a protocol is unrealizable, declared in the order a verdict
    lists its reasons."""

    NONLOCAL_CHOICE = "NonlocalChoice"
    MERGE_FAILURE = "MergeFailure"
    DEADLOCK = "Deadlock"
    ORDER_VIOLATION = "OrderViolation"
    TRACE_MISMATCH = "TraceMismatch"


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    reasons: tuple[Reason, ...] = ()
    witness: tuple = ()
    notes: tuple[str, ...] = ()

    @property
    def realizable(self) -> bool:
        return self.outcome is Outcome.REALIZABLE

    def to_record(self, protocol_id: str, cfg: CommConfig) -> dict:
        return {
            "protocol": protocol_id,
            "config": {
                "delivery": cfg.delivery.value if cfg.delivery else None,
                "reception": cfg.reception.value,
                "interpretation": cfg.interpretation.value if cfg.interpretation else None,
                "doctrine": cfg.doctrine.value,
            },
            "outcome": self.outcome.value,
            "reasons": [r.value for r in self.reasons],
            "witness": self.witness_log(),
            "notes": list(self.notes),
        }

    def witness_log(self) -> list[str]:
        """The witness in the shared log line shape: tick, agent, kind, message."""
        lines = []
        for i, (kind, occ, sender, receiver, name) in enumerate(self.witness):
            agent = sender if kind == "E" else receiver
            lines.append(f"{i + 1} {agent} {kind} {name} occ={occ}")
        return lines


def check_realizability(e: CfpExpr, cfg: CommConfig, bound: int = DEFAULT_UNROLL, state_cap: int = 250_000) -> Verdict:
    if cfg.doctrine is Doctrine.HAPN:
        raise ValueError("state-machine protocols are checked by synchronous acceptance, not composition")
    if cfg.delivery is None:
        raise ValueError("configuration needs a delivery model (the pluggable preset leaves it to the caller)")
    if cfg.doctrine is Doctrine.TRACE_F and cfg.interpretation is None:
        raise ValueError("the pluggable preset needs a sequence interpretation")

    reasons: list[Reason] = []
    notes: list[str] = []
    witness: tuple = ()

    nonlocal_diags = detect_nonlocal_choice(e)
    if nonlocal_diags:
        reasons.append(Reason.NONLOCAL_CHOICE)
        notes.extend(d.message for d in nonlocal_diags)

    expanded = expand(e, bound)

    # correlation ambiguity: unordered delivery cannot keep same-schema
    # occurrences on one channel apart, and type-level reception hides it;
    # the first trace repeating a label is found without listing traces.
    if cfg.delivery is Delivery.UNORDERED and cfg.reception is Reception.ANYTIME:
        dup = first_repeat(expanded)
        if dup is not None:
            trace, label = dup
            reasons.append(Reason.ORDER_VIOLATION)
            witness = witness or _trace_witness(trace)
            notes.append(
                f"unordered delivery can cross occurrences of {label[2]} on channel {label[0]}->{label[1]}; "
                "the receiver consumes by type and cannot detect the crossed correlation"
            )

    working = eliminate_shuffle(expanded) if cfg.doctrine in (Doctrine.TRACE_C, Doctrine.SCRIBBLE) else expanded
    try:
        behaviors = _project_all(working, cfg)
    except MergeFailure as failure:
        reasons.append(Reason.MERGE_FAILURE)
        notes.append(str(failure))
        witness = witness or _first_trace_witness(expanded)
        return Verdict(Outcome.UNREALIZABLE, _order_reasons(reasons), witness, tuple(notes))

    graph = compose(behaviors, cfg.delivery, cfg.reception, state_cap=state_cap)
    if graph.bound_exceeded:
        # the static findings stand; only the exploration is inconclusive
        notes.append(f"exploration bound exceeded: the composition state cap ({state_cap} states) fired; inconclusive")
        if reasons:
            return Verdict(Outcome.UNREALIZABLE, _order_reasons(reasons), witness or _first_trace_witness(expanded), tuple(notes))
        return Verdict(Outcome.BOUND_EXCEEDED, (), (), tuple(notes))

    if graph.deadlocks:
        reasons.append(Reason.DEADLOCK)
        stuck = set(graph.deadlocks)
        witness = witness or least_path(0, graph.successors, lambda n: () if n in stuck else None)
        notes.append("a reachable state has no enabled emission or delivery and is not final")
    for kind, detail in sorted({(kind, detail) for found in graph.violations for kind, detail, _ in found}):
        reasons.append(Reason.ORDER_VIOLATION)
        witness = witness or least_path(
            0,
            graph.successors,
            lambda n: min([(ev,) for k, d, ev in graph.violations[n] if (k, d) == (kind, detail)], default=None),
        )
        notes.append(f"{kind}: {detail}")

    constraint_note, constraint_witness = _check_constraints(expanded, cfg, graph)
    if constraint_note:
        reasons.append(Reason.ORDER_VIOLATION)
        witness = witness or constraint_witness
        notes.append(constraint_note)

    # rule 4: every protocol trace is enacted (see the module docstring)
    if not reasons:
        extra, least_extra = _extra_traces(expanded, graph)
        if extra:
            reasons.append(Reason.TRACE_MISMATCH)
            notes.append(f"the composition produces {extra} extra trace(s), e.g. {_fmt_labels(least_extra)}")
            witness = _spelling(graph, least_extra)

    ordered = _order_reasons(reasons)
    if ordered:
        # fall back to a trace witness (e.g. a nonlocal choice point is a
        # static finding with no single offending execution)
        return Verdict(Outcome.UNREALIZABLE, ordered, witness or _first_trace_witness(expanded), tuple(notes))
    return Verdict(Outcome.REALIZABLE, (), (), tuple(notes))


def _trace_witness(trace) -> tuple:
    return tuple(("E", o.occ, *o.label) for o in trace)


def _first_trace_witness(expanded) -> tuple:
    return _trace_witness(first_trace(expanded))


def _fmt_labels(labels: tuple) -> str:
    return " . ".join(name for _, _, name in labels) or "<empty>"


def _order_reasons(reasons: list[Reason]) -> tuple[Reason, ...]:
    return tuple(r for r in Reason if r in reasons)


def _project_all(working, cfg: CommConfig) -> dict[str, LocalExpr]:
    roles = expr_roles(working)
    if cfg.doctrine is Doctrine.SCRIBBLE and roles:
        working = _infer_deciders(working, {})
    behaviors: dict[str, LocalExpr] = {}
    for role in roles:
        if cfg.doctrine is Doctrine.TRACE_C:
            behaviors[role] = project_trace_c(working, role)
        elif cfg.doctrine is Doctrine.SCRIBBLE:
            behaviors[role] = project_scribble(working, role)
        else:
            behaviors[role] = project_trace_f(working, role)
    return behaviors


def _infer_deciders(e, done: dict[int, CfpExpr], bodies: dict[str, CfpExpr] | None = None):
    """Session projection needs a decider on every choice; infer it as the
    unique sender of the branch-initial events, or fail the merge.  A
    branch that is only a recursion variable begins as its bound body, as
    in `cfp.projection._branch_polarity`.  `done` maps each node object
    already rewritten (by id) outside any recursion to its rewrite, so a
    shared subterm stays one object.  A node whose operands come back as
    the same objects and whose decider is kept is returned itself."""
    if not isinstance(e, (Choice, Seq, Shuffle, Rec)):
        return e
    bodies = bodies or {}
    out = done.get(id(e))
    if out is not None:
        return out
    if isinstance(e, Rec):
        body = _infer_deciders(e.body, done, {**bodies, e.var: e.body})
        out = e if body is e.body else Rec(e.var, body)
    elif isinstance(e, Choice):
        branches = tuple(_infer_deciders(b, done, bodies) for b in e.branches)
        decider = e.decider
        if decider is None:
            senders = {a.sender for b in e.branches for a in initials(bodies.get(b.var, b) if isinstance(b, Var) else b)}
            if len(senders) != 1:
                raise MergeFailure(
                    "no single role initiates every branch (candidates: " + ", ".join(sorted(senders)) + ")"
                )
            decider = senders.pop()
        kept = decider == e.decider and all(b is old for b, old in zip(branches, e.branches))
        out = e if kept else Choice(branches, decider)
    else:
        left, right = _infer_deciders(e.left, done, bodies), _infer_deciders(e.right, done, bodies)
        out = e if left is e.left and right is e.right else type(e)(left, right)
    # under a recursion a choice may read a variable's binding, which
    # depends on where the node sits
    if not bodies:
        done[id(e)] = out
    return out


def _check_constraints(expanded, cfg: CommConfig, graph: CompositionGraph) -> tuple[str | None, tuple]:
    """The note and witness for the least completed execution that fires a
    constraint's second event before its first, naming the first
    constraint (in `sequence_constraints` order) it violates.

    Each event fires at most once on a path, so some completed execution
    violates a constraint iff an edge fires the first event from a state
    where the second may already have fired, into a state from which
    completion is reachable.  The may-fired sets are bitsets over the
    constraints' second events, from one pass in topological order."""
    if cfg.interpretation is None:
        return None, ()
    constraints = sequence_constraints(expanded, cfg.interpretation)
    if not constraints:
        return None, ()
    bits: dict[tuple[str, int], int] = {}
    by_first: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for i, c in enumerate(constraints):
        first, second = c.events()
        bit = bits.setdefault(second, 1 << len(bits))
        by_first.setdefault(first, []).append((i, bit))
    order = graph.order
    completes = list(graph.final)
    for n in reversed(order):
        completes[n] = completes[n] or any(completes[t] for _, t in graph.edges[n])
    fired = [0] * len(graph.edges)
    violated: set[int] = set()
    for n in order:
        for event, t in graph.edges[n]:
            after = fired[n]
            if event is not None:
                key = (event[0], event[1])
                if completes[t]:
                    violated.update(i for i, bit in by_first.get(key, ()) if fired[n] & bit)
                after |= bits.get(key, 0)
            fired[t] |= after
    if not violated:
        return None, ()
    events = min(_least_violation(graph, constraints[i]) for i in violated)
    position = {(ev[0], ev[1]): p for p, ev in enumerate(events)}
    for c in constraints:
        first, second = c.events()
        if position.get(first, -1) > position.get(second, len(events)):
            return f"a completed execution violates the {cfg.interpretation.value} constraint {c}", events
    raise AssertionError("the least violating execution violates no constraint")


def _least_violation(graph: CompositionGraph, c: Constraint) -> tuple:
    """The least completed execution that fires `c`'s second event before
    its first (tags: 0 before the second event, 1 after it, 2 after both)."""
    first, second = c.events()

    def advance(event, tag):
        key = event and (event[0], event[1])
        if key == second:
            return 1
        if key == first:
            return 2 if tag == 1 else None
        return tag

    return _least_execution(graph, advance, 0, lambda tag: tag == 2)


def _least_execution(graph: CompositionGraph, advance, start, done) -> tuple | None:
    """The least completed execution along which `advance(event, tag)`
    carries the tag from `start` to one that `done` accepts; a move whose
    `advance` is None is not taken."""

    def successors(node):
        n, tag = node
        for event, t in graph.successors(n):
            after = advance(event, tag)
            if after is not None:
                yield event, (t, after)

    return least_path((0, start), successors, lambda node: () if graph.final[node[0]] and done(node[1]) else None)


def _extra_traces(expanded, graph: CompositionGraph) -> tuple[int, tuple | None]:
    """(number of traces the composition enacts beyond the protocol's, the
    least of them as a label word in tuple order), from one walk along the
    composition's labels over pairs of a protocol state (label
    derivatives, None once the word has left the protocol) and a closed set
    of composition states (emissions as labels, every other move silent).
    Both sides are deterministic and acyclic, so path counts, taken only
    when some completed pair lies outside the protocol, give the count."""
    emitted = [[(event[2:], t) for event, t in out if event is not None and event[0] == "E"] for out in graph.edges]
    silent = [[t for event, t in out if event is None or event[0] != "E"] for out in graph.edges]
    subsets = Subsets(emitted, silent)
    protocol_moves: dict[frozenset | None, dict] = {None: {}}

    def successors(node):
        p, c = node
        if p not in protocol_moves:
            protocol_moves[p] = label_derivatives(p)
        p_out = protocol_moves[p]
        labels, targets = subsets.step(c)
        return labels, [(p_out.get(label), t) for label, t in zip(labels, targets)]

    product = explore((language_state(expanded), subsets.closure(frozenset([0]))), successors)
    extra = [any(map(graph.final.__getitem__, c)) and (p is None or not accepts_empty(p)) for p, c in product.states]
    if not any(extra):
        return 0, None
    paths = [1] + [0] * (len(product.states) - 1)
    for n in topological(product):
        for _, t in product.edges[n]:
            paths[t] += paths[n]
    count = sum(paths[n] for n, end in enumerate(extra) if end)
    return count, least_path(0, product.successors, lambda n: () if extra[n] else None)


def _spelling(graph: CompositionGraph, word: tuple) -> tuple:
    """The least completed execution whose emissions spell `word` (the tag
    counts the labels spelled so far)."""

    def advance(event, i):
        if event is None or event[0] == "R":
            return i
        return i + 1 if i < len(word) and event[2:] == word[i] else None

    return _least_execution(graph, advance, 0, lambda i: i == len(word))
