"""Per-role local behaviors under the three control-flow doctrines.

A local expression mirrors the global structure with other parties' events
erased.  Choice polarity records who resolves a choice point: the role
itself (internal), a peer via a first reception (external), or neither
uniformly (mixed, the raw material of nonlocal choice).  Nodes cache their
hashes, like the global AST's.

One walker (`_project`) serves the three doctrines, and each gives it a
choice rule and a shuffle rule.  Trace-c reads a choice's polarity from
the first events of its branches and refuses a shuffle; trace-f reads
polarity alike but prints the choice plain, and keeps a shuffle; scribble
needs a decider, merges the branches for every other role, and refuses a
shuffle.  A rule sees its node before the operands are projected, so a
refusal comes first, and returns what builds the projection from them; it
never calls the walker, as deep inputs can afford only the walker's
frames.  Each node's projection is kept by id, so a subterm shared in
`eliminate_shuffle`'s DAG is projected once.
"""

from __future__ import annotations

from enum import Enum
from functools import partial

from .ast import Atom, CfpExpr, Choice, Epsilon, HashedNode, OccAtom, Rec, Seq, Shuffle, Var, distinct, initials, node, nodes, occurs_free

SEND = "!"
RECV = "?"


class ChoiceKind(str, Enum):
    INTERNAL = "internal"
    EXTERNAL = "external"
    PLAIN = "plain"
    MIXED = "mixed"


@node
class LAtom(HashedNode):
    peer: str
    name: str
    direction: str  # SEND | RECV
    payload: tuple[tuple[str | None, str | None], ...] = ()
    occ: int | None = None

    def __str__(self) -> str:
        return f"{self.peer}{self.direction}{self.name}"


@node
class LSeq(HashedNode):
    left: "LocalExpr"
    right: "LocalExpr"


@node
class LChoice(HashedNode):
    branches: tuple["LocalExpr", ...]
    kind: ChoiceKind
    lean: ChoiceKind | None = None  # presentation polarity when mixed


@node
class LShuffle(HashedNode):
    left: "LocalExpr"
    right: "LocalExpr"


@node
class LRec(HashedNode):
    var: str
    body: "LocalExpr"


@node
class LVar(HashedNode):
    var: str


@node
class LEps(HashedNode):
    pass


LocalExpr = LAtom | LSeq | LChoice | LShuffle | LRec | LVar | LEps
L_EPSILON = LEps()


class MergeFailure(Exception):
    """A non-deciding role cannot tell the branches of a choice apart."""


def _project_atom(e, role: str) -> LocalExpr:
    atom = e.atom if isinstance(e, OccAtom) else e
    occ = e.occ if isinstance(e, OccAtom) else None
    if atom.sender == role:
        return LAtom(atom.receiver, atom.name, SEND, atom.payload, occ)
    if atom.receiver == role:
        return LAtom(atom.sender, atom.name, RECV, atom.payload, occ)
    return L_EPSILON


def lseq(l: LocalExpr, r: LocalExpr) -> LocalExpr:
    if isinstance(l, LEps):
        return r
    if isinstance(r, LEps):
        return l
    return LSeq(l, r)


def lshuffle(l: LocalExpr, r: LocalExpr) -> LocalExpr:
    if isinstance(l, LEps):
        return r
    if isinstance(r, LEps):
        return l
    return LShuffle(l, r)


def accepting(e: LocalExpr) -> bool:
    """Whether a recursion-free local behavior may stop here (it accepts
    the empty sequence of events)."""
    if isinstance(e, LEps):
        return True
    if isinstance(e, LAtom):
        return False
    if isinstance(e, (LSeq, LShuffle)):
        return accepting(e.left) and accepting(e.right)
    if isinstance(e, LChoice):
        return any(accepting(b) for b in e.branches)
    raise TypeError(type(e))


def local_steps(e: LocalExpr) -> list[tuple[LAtom | None, LocalExpr]]:
    """Every step a recursion-free local behavior can take first, with the
    remainder it leaves, left to right (its derivatives: Brzozowski, JACM
    1964; Antimirov, TCS 1996).  Entering a branch commits its choice; an
    external choice is entered only through a reception, so a role that
    waits on its peers never commits by sending.

    A step whose atom is None is a silent commitment: a mixed choice may
    resolve to waiting on its branches whose first events are not all
    sends, when some but not all of them are.  A choice takes no silent
    step of its branches, as a commitment nested in a branch is not a move
    of the choice."""
    if isinstance(e, LAtom):
        return [(e, L_EPSILON)]
    if isinstance(e, LEps):
        return []
    if isinstance(e, LSeq):
        out = [(a, lseq(rest, e.right)) for a, rest in local_steps(e.left)]
        if accepting(e.left):
            out.extend(local_steps(e.right))
        return out
    if isinstance(e, LChoice):
        external = e.kind is ChoiceKind.EXTERNAL
        out, waitable = [], []
        for b in e.branches:
            steps = [(a, rest) for a, rest in local_steps(b) if a is not None and not (external and a.direction == SEND)]
            out += steps
            if e.kind is ChoiceKind.MIXED and {a.direction for a, _ in steps} != {SEND}:
                waitable.append(b)
        if 0 < len(waitable) < len(e.branches):
            out.append((None, waitable[0] if len(waitable) == 1 else LChoice(tuple(waitable), ChoiceKind.EXTERNAL)))
        return out
    if isinstance(e, LShuffle):
        out = [(a, lshuffle(rest, e.right)) for a, rest in local_steps(e.left)]
        out.extend((a, lshuffle(e.left, rest)) for a, rest in local_steps(e.right))
        return out
    raise TypeError(f"first steps need an expanded local behavior, got {type(e).__name__}")


def _branch_polarity(global_branches, role: str, bodies: dict[str, CfpExpr]) -> tuple[ChoiceKind, ChoiceKind | None]:
    """Classify a choice by who initiates each branch's first event.

    Internal: the role sends every branch's first event.  External: it
    receives every one.  Mixed otherwise, with a presentation lean taken
    from the first branch.  A branch that is only a recursion variable
    begins as its body in `bodies`, whose own variables are not read."""
    polarities: list[str] = []
    for b in global_branches:
        firsts = initials(bodies.get(b.var, b) if isinstance(b, Var) else b)
        if not firsts:
            polarities.append("none")
            continue
        if all(a.sender == role for a in firsts):
            polarities.append("send")
        elif all(a.receiver == role for a in firsts):
            polarities.append("recv")
        else:
            polarities.append("mixed")
    real = [p for p in polarities if p != "none"]
    if real and all(p == "send" for p in real):
        return ChoiceKind.INTERNAL, None
    if real and all(p == "recv" for p in real):
        return ChoiceKind.EXTERNAL, None
    lean = {"send": ChoiceKind.INTERNAL, "recv": ChoiceKind.EXTERNAL}.get(real[0] if real else "none")
    return ChoiceKind.MIXED, lean


def _project(e: CfpExpr, role: str, choice_rule, shuffle_rule) -> LocalExpr:
    """The one projection walker: `e` as `role` sees it under the doctrine
    whose rules are given (see the module docstring)."""
    done: dict[int, LocalExpr] = {}

    def walk(x: CfpExpr, bodies: dict[str, CfpExpr]) -> LocalExpr:
        out = done.get(id(x))
        if out is not None:
            return out
        if isinstance(x, (Atom, OccAtom)):
            out = _project_atom(x, role)
        elif isinstance(x, Epsilon):
            out = L_EPSILON
        elif isinstance(x, Seq):
            out = lseq(walk(x.left, bodies), walk(x.right, bodies))
        elif isinstance(x, Choice):
            build = choice_rule(x, role, bodies)
            out = build(tuple(walk(b, bodies) for b in x.branches))
        elif isinstance(x, Shuffle):
            build = shuffle_rule(x)
            out = build(walk(x.left, bodies), walk(x.right, bodies))
        elif isinstance(x, Rec):
            body = walk(x.body, {**bodies, x.var: x.body})
            out = LRec(x.var, body) if occurs_free(body, x.var) else body
        elif isinstance(x, Var):
            out = LVar(x.var)
        else:
            raise TypeError(type(x))
        # under a recursion a choice may read a variable's binding, which
        # depends on where the node sits; the DAGs that share nodes have none
        if not bodies:
            done[id(x)] = out
        return out

    return walk(e, {})


def project_trace_c(e: CfpExpr, role: str) -> LocalExpr:
    """Projection with internal/external choice polarity.  Expects a
    shuffle-free expression (run eliminate_shuffle first)."""
    return _project(e, role, _polar_choice, _no_shuffle)


def project_trace_f(e: CfpExpr, role: str) -> LocalExpr:
    """Operator-preserving projection: every binary operator survives, and
    choices stay plain (their polarity lives in a decision structure)."""
    return _project(e, role, _plain_choice, lambda x: lshuffle)


def project_scribble(e: CfpExpr, role: str) -> LocalExpr:
    """Session-style projection.  Every choice must carry a decider; the
    decider gets an internal choice, others an external choice resolved by
    the first reception of each branch."""
    return _project(e, role, _decided_choice, _no_session_shuffle)


def _polar_choice(x: Choice, role: str, bodies: dict[str, CfpExpr]):
    kind, lean = _branch_polarity(x.branches, role, bodies)
    return partial(_collapse_choice, kind=kind, lean=lean)


def _plain_choice(x: Choice, role: str, bodies: dict[str, CfpExpr]):
    # plain choices keep their polarity for execution but print as plain
    kind, _ = _branch_polarity(x.branches, role, bodies)
    return partial(_collapse_choice, kind=kind, lean=ChoiceKind.PLAIN)


def _decided_choice(x: Choice, role: str, bodies: dict[str, CfpExpr]):
    if x.decider is None:
        raise MergeFailure("choice without a decider cannot be projected")
    return partial(_session_choice, decider=x.decider, role=role)


def _no_shuffle(x: Shuffle):
    raise ValueError("projection expects a shuffle-free expression; run eliminate_shuffle first")


def _no_session_shuffle(x: Shuffle):
    raise MergeFailure("the session subset has no shuffle operator")


def _session_choice(branches: tuple[LocalExpr, ...], decider: str, role: str) -> LocalExpr:
    """A session choice at `decider` as `role` sees it: internal for the
    decider; for any other role the branches merge when equal, and must
    otherwise each begin with a distinct reception."""
    if decider == role:
        return _collapse_choice(branches, ChoiceKind.INTERNAL, None)
    if len(distinct(branches)) == 1:
        return branches[0]
    heads = []
    for b in branches:
        first = next((x for x in nodes(b) if isinstance(x, LAtom)), None)
        if first is None or first.direction != RECV:
            raise MergeFailure(f"role {role} cannot distinguish the branches of a choice at {decider}")
        heads.append((first.peer, first.name))
    if len(set(heads)) != len(heads):
        raise MergeFailure(f"role {role} sees identical first receptions in distinct branches")
    return _collapse_choice(branches, ChoiceKind.EXTERNAL, None)


def _collapse_choice(branches: tuple[LocalExpr, ...], kind: ChoiceKind, lean) -> LocalExpr:
    kept = distinct(branches)
    return kept[0] if len(kept) == 1 else LChoice(tuple(kept), kind, lean)


def print_local(e: LocalExpr) -> str:
    if isinstance(e, LEps):
        return "eps"
    if isinstance(e, LAtom):
        return str(e)
    if isinstance(e, LSeq):
        return f"{_paren_atomish(e.left)} ; {print_local(e.right)}"
    if isinstance(e, LChoice):
        if e.lean is ChoiceKind.PLAIN:
            sep = " \\/ "
        elif e.kind is ChoiceKind.INTERNAL or e.lean is ChoiceKind.INTERNAL:
            sep = " (+) "
        elif e.kind is ChoiceKind.EXTERNAL or e.lean is ChoiceKind.EXTERNAL:
            sep = " + "
        else:
            sep = " \\/? "
        return "(" + sep.join(print_local(b) for b in e.branches) + ")"
    if isinstance(e, LShuffle):
        return f"({print_local(e.left)} /\\ {print_local(e.right)})"
    if isinstance(e, LRec):
        return f"rec {e.var} ({print_local(e.body)})"
    if isinstance(e, LVar):
        return e.var
    raise TypeError(type(e))


def _paren_atomish(e: LocalExpr) -> str:
    text = print_local(e)
    return f"({text})" if isinstance(e, LSeq) else text
