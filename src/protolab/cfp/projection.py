"""Per-role local behaviors under the three control-flow doctrines.

A local expression mirrors the global structure with other parties' events
erased.  Choice polarity records who resolves a choice point: the role
itself (internal), a peer via a first reception (external), or neither
uniformly (mixed, the raw material of nonlocal choice).  Nodes cache their
hashes, like the global AST's.
"""

from __future__ import annotations

from enum import Enum

from .ast import Atom, CfpExpr, Choice, Epsilon, HashedNode, OccAtom, Rec, Seq, Shuffle, Var, initials, node

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


def local_steps(e: LocalExpr) -> list[tuple[LAtom, LocalExpr]]:
    """Every event a recursion-free local behavior can perform first, with
    the remainder it leaves, left to right (its derivatives: Brzozowski,
    JACM 1964; Antimirov, TCS 1996).  Entering a branch commits its choice;
    an external choice is entered only through a reception, so a role that
    waits on its peers never commits by sending."""
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
        return [step for b in e.branches for step in local_steps(b) if not (external and step[0].direction == SEND)]
    if isinstance(e, LShuffle):
        out = [(a, lshuffle(rest, e.right)) for a, rest in local_steps(e.left)]
        out.extend((a, lshuffle(e.left, rest)) for a, rest in local_steps(e.right))
        return out
    raise TypeError(f"first steps need an expanded local behavior, got {type(e).__name__}")


def _branch_polarity(global_branches, role: str) -> tuple[ChoiceKind, ChoiceKind | None]:
    """Classify a choice by who initiates each branch's first event.

    Internal: the role sends every branch's first event.  External: it
    receives every one.  Mixed otherwise, with a presentation lean taken
    from the first branch."""
    polarities: list[str] = []
    for b in global_branches:
        firsts = initials(b)
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


# `project_trace_c` and `project_scribble`, which run on shuffle-free
# forms, walk their input once per node object and keep each node's
# projection by id: a subterm shared in `eliminate_shuffle`'s DAG is
# projected once and its projection shared, so the work is linear in the
# distinct nodes, not in the unfolded tree.  The memo sits inside the one
# recursive function, so that nesting costs one frame per level, as deep
# inputs need.


def project_trace_c(e: CfpExpr, role: str) -> LocalExpr:
    """Projection with internal/external choice polarity.  Expects a
    shuffle-free expression (run eliminate_shuffle first)."""
    done: dict[int, LocalExpr] = {}

    def walk(x: CfpExpr) -> LocalExpr:
        out = done.get(id(x))
        if out is not None:
            return out
        if isinstance(x, (Atom, OccAtom)):
            out = _project_atom(x, role)
        elif isinstance(x, Epsilon):
            out = L_EPSILON
        elif isinstance(x, Seq):
            out = lseq(walk(x.left), walk(x.right))
        elif isinstance(x, Choice):
            kind, lean = _branch_polarity(x.branches, role)
            out = _collapse_choice(tuple(walk(b) for b in x.branches), kind, lean)
        elif isinstance(x, Rec):
            body = walk(x.body)
            out = LRec(x.var, body) if _uses_var(body, x.var) else body
        elif isinstance(x, Var):
            out = LVar(x.var)
        elif isinstance(x, Shuffle):
            raise ValueError("projection expects a shuffle-free expression; run eliminate_shuffle first")
        else:
            raise TypeError(type(x))
        done[id(x)] = out
        return out

    return walk(e)


def project_trace_f(e: CfpExpr, role: str) -> LocalExpr:
    """Operator-preserving projection: every binary operator survives, and
    choices stay plain (their polarity lives in a decision structure)."""
    if isinstance(e, (Atom, OccAtom)):
        return _project_atom(e, role)
    if isinstance(e, Epsilon):
        return L_EPSILON
    if isinstance(e, Seq):
        return lseq(project_trace_f(e.left, role), project_trace_f(e.right, role))
    if isinstance(e, Shuffle):
        return lshuffle(project_trace_f(e.left, role), project_trace_f(e.right, role))
    if isinstance(e, Choice):
        kind, lean = _branch_polarity(e.branches, role)
        branches = tuple(project_trace_f(b, role) for b in e.branches)
        return _collapse_choice(branches, kind, lean, plain=True)
    if isinstance(e, Rec):
        body = project_trace_f(e.body, role)
        return LRec(e.var, body) if _uses_var(body, e.var) else body
    if isinstance(e, Var):
        return LVar(e.var)
    raise TypeError(type(e))


def project_scribble(e: CfpExpr, role: str) -> LocalExpr:
    """Session-style projection.  Every choice must carry a decider; the
    decider gets an internal choice, others an external choice resolved by
    the first reception of each branch."""
    done: dict[int, LocalExpr] = {}

    def walk(x: CfpExpr) -> LocalExpr:
        out = done.get(id(x))
        if out is not None:
            return out
        if isinstance(x, (Atom, OccAtom)):
            out = _project_atom(x, role)
        elif isinstance(x, Epsilon):
            out = L_EPSILON
        elif isinstance(x, Seq):
            out = lseq(walk(x.left), walk(x.right))
        elif isinstance(x, Choice):
            if x.decider is None:
                raise MergeFailure("choice without a decider cannot be projected")
            out = _session_choice(tuple(walk(b) for b in x.branches), x.decider, role)
        elif isinstance(x, Rec):
            body = walk(x.body)
            out = LRec(x.var, body) if _uses_var(body, x.var) else body
        elif isinstance(x, Var):
            out = LVar(x.var)
        elif isinstance(x, Shuffle):
            raise MergeFailure("the session subset has no shuffle operator")
        else:
            raise TypeError(type(x))
        done[id(x)] = out
        return out

    return walk(e)


def _session_choice(branches: tuple[LocalExpr, ...], decider: str, role: str) -> LocalExpr:
    """A session choice at `decider` as `role` sees it: internal for the
    decider; for any other role the branches merge when equal, and must
    otherwise each begin with a distinct reception."""
    if decider == role:
        return _collapse_choice(branches, ChoiceKind.INTERNAL, None)
    if len(set(branches)) == 1:
        return branches[0]
    heads = []
    for b in branches:
        first = _first_local(b)
        if first is None or first.direction != RECV:
            raise MergeFailure(f"role {role} cannot distinguish the branches of a choice at {decider}")
        heads.append((first.peer, first.name))
    if len(set(heads)) != len(heads):
        raise MergeFailure(f"role {role} sees identical first receptions in distinct branches")
    return _collapse_choice(branches, ChoiceKind.EXTERNAL, None)


def _collapse_choice(branches: tuple[LocalExpr, ...], kind: ChoiceKind, lean, plain: bool = False) -> LocalExpr:
    distinct: list[LocalExpr] = []
    for b in branches:
        if b not in distinct:
            distinct.append(b)
    if len(distinct) == 1:
        return distinct[0]
    # plain choices keep their polarity for execution but print as plain
    return LChoice(tuple(distinct), kind, ChoiceKind.PLAIN if plain else lean)


def _first_local(e: LocalExpr) -> LAtom | None:
    if isinstance(e, LAtom):
        return e
    if isinstance(e, LSeq):
        return _first_local(e.left) or _first_local(e.right)
    if isinstance(e, (LChoice,)):
        for b in e.branches:
            found = _first_local(b)
            if found:
                return found
        return None
    if isinstance(e, LShuffle):
        return _first_local(e.left) or _first_local(e.right)
    if isinstance(e, LRec):
        return _first_local(e.body)
    return None


def _uses_var(e: LocalExpr, var: str) -> bool:
    if isinstance(e, LVar):
        return e.var == var
    if isinstance(e, (LSeq, LShuffle)):
        return _uses_var(e.left, var) or _uses_var(e.right, var)
    if isinstance(e, LChoice):
        return any(_uses_var(b, var) for b in e.branches)
    if isinstance(e, LRec):
        return e.var != var and _uses_var(e.body, var)
    return False


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
