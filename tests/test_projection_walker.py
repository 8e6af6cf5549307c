"""One projection walker for the three doctrines.

`projection._project` is the one walker over the global AST, and each
doctrine gives it a choice rule and a shuffle rule.  These tests check
the three projections against the three walkers they replaced, kept
below verbatim as the reference: the same local behavior (`==`), or the
same exception type and text, for every role of every input.

The walker differs from the old walkers on one input shape only: a
choice branch that is only a recursion variable, whose first events it
reads from the body bound to the variable, where the old walkers saw
none.  No input below has that shape; `test_projection.py` pins the
polarity it gives.
"""

import random
from pathlib import Path

import protolab.matrix as matrix
import test_acceptance
from generators import random_cfp
from protolab.cfp.ast import Atom, Choice, Epsilon, OccAtom, Rec, Seq, Shuffle, Var, initials, roles
from protolab.cfp.projection import (
    ChoiceKind,
    LChoice,
    LRec,
    LSeq,
    LShuffle,
    LVar,
    L_EPSILON,
    LocalExpr,
    MergeFailure,
    _project_atom,
    _session_choice,
    lseq,
    lshuffle,
    project_scribble,
    project_trace_c,
    project_trace_f,
)
from protolab.cfp.scribble_parser import parse_scribble
from protolab.cfp.trace_parser import parse_trace
from protolab.cfp.transforms import eliminate_shuffle, expand
from protolab.realizability import _infer_deciders
from test_realize_table import TABLE, config_from_flags, expression

# ---------------------------------------------------------------------------
# the reference: the three walkers before the one walker


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


def reference_trace_c(e, role):
    """Projection with internal/external choice polarity.  Expects a
    shuffle-free expression (run eliminate_shuffle first)."""
    done = {}

    def walk(x):
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


def _unshared_trace_f(e, role):
    """Operator-preserving projection: every binary operator survives, and
    choices stay plain (their polarity lives in a decision structure)."""
    if isinstance(e, (Atom, OccAtom)):
        return _project_atom(e, role)
    if isinstance(e, Epsilon):
        return L_EPSILON
    if isinstance(e, Seq):
        return lseq(reference_trace_f(e.left, role), reference_trace_f(e.right, role))
    if isinstance(e, Shuffle):
        return lshuffle(reference_trace_f(e.left, role), reference_trace_f(e.right, role))
    if isinstance(e, Choice):
        kind, lean = _branch_polarity(e.branches, role)
        branches = tuple(reference_trace_f(b, role) for b in e.branches)
        return _collapse_choice(branches, kind, lean, plain=True)
    if isinstance(e, Rec):
        body = reference_trace_f(e.body, role)
        return LRec(e.var, body) if _uses_var(body, e.var) else body
    if isinstance(e, Var):
        return LVar(e.var)
    raise TypeError(type(e))


KEPT = {}


def reference_trace_f(e, role):
    """The old Trace-F walker, whose recursive calls come through here, with
    each node's projection kept by id for the input in hand (`_outcome`
    empties `KEPT`), so that it reads `eliminate_shuffle`'s DAGs without
    unfolding them.  A projection is a function of the node, so this
    changes no result."""
    key = (id(e), role)
    if key not in KEPT:
        KEPT[key] = _unshared_trace_f(e, role)
    return KEPT[key]


def reference_scribble(e, role):
    """Session-style projection.  Every choice must carry a decider; the
    decider gets an internal choice, others an external choice resolved by
    the first reception of each branch."""
    done = {}

    def walk(x):
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


def _collapse_choice(branches, kind, lean, plain=False):
    distinct = []
    for b in branches:
        if b not in distinct:
            distinct.append(b)
    if len(distinct) == 1:
        return distinct[0]
    # plain choices keep their polarity for execution but print as plain
    return LChoice(tuple(distinct), kind, ChoiceKind.PLAIN if plain else lean)


DOCTRINES = (
    ("trace-c", project_trace_c, reference_trace_c),
    ("trace-f", project_trace_f, reference_trace_f),
    ("scribble", project_scribble, reference_scribble),
)

# ---------------------------------------------------------------------------
# inputs


def _table_inputs():
    """Every (expression, bound) of the pinned realize table, but chains
    longer than 200 atoms: `==` on two of those recurses deeper than
    Python allows, and shorter chains cover how the walker sequences."""
    golden = {case_id: expr for case_id, expr, *_ in test_acceptance._golden_cases()}
    out = {}
    for entry in TABLE:
        source = entry["source"] or entry["id"]
        if not (source.startswith("chain:") and int(source[len("chain:"):]) > 200):
            out.setdefault((source, config_from_flags(entry["flags"])[1]), entry)
    return [(expression(entry, golden), bound) for (_, bound), entry in out.items()]


def _forms(e, bound):
    """`e` raw, expanded and shuffle-eliminated, each also with its
    deciders inferred where the session pre-pass succeeds."""
    expanded = expand(e, bound)
    out = [e, expanded, eliminate_shuffle(expanded)]
    for x in out[:3]:
        try:
            out.append(_infer_deciders(x, {}))
        except MergeFailure:
            pass
    return out


def _inputs():
    cases = [(e, 2) for _, e, *_ in test_acceptance._golden_cases()]
    cases += _table_inputs()
    rng = random.Random(1009)
    cases += [(random_cfp(rng, depth=rng.randint(2, 4)), 2) for _ in range(400)]
    # every protocol source, the recursive ones the matrix projects among them
    fixtures = Path(matrix.__file__).parent / "fixtures"
    for path in sorted(fixtures.glob("*.scr")) + sorted(fixtures.glob("*.trace")):
        cases.append(((parse_scribble if path.suffix == ".scr" else parse_trace)(path.read_text()), 2))
    out = {}
    for e, bound in cases:
        for x in _forms(e, bound):
            out.setdefault(x, None)
    return list(out)


def _outcome(project, e, role):
    KEPT.clear()
    try:
        return project(e, role)
    except (ValueError, MergeFailure) as failure:
        return type(failure), str(failure)


def _same(a, b):
    """`a == b` on outcomes, comparing each pair of local node objects once:
    projections of a shared DAG are DAGs, which `==` would unfold."""
    if not isinstance(a, LocalExpr) or not isinstance(b, LocalExpr):
        return a == b
    todo, seen = [(a, b)], set()
    while todo:
        x, y = todo.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if type(x) is not type(y) or hash(x) != hash(y):
            return False
        if isinstance(x, LChoice):
            if (x.kind, x.lean, len(x.branches)) != (y.kind, y.lean, len(y.branches)):
                return False
            todo += zip(x.branches, y.branches)
        elif isinstance(x, (LSeq, LShuffle)):
            todo += [(x.left, y.left), (x.right, y.right)]
        elif isinstance(x, LRec):
            if x.var != y.var:
                return False
            todo.append((x.body, y.body))
        elif x != y:
            return False
    return True


INPUTS = _inputs()


def test_the_walker_equals_the_old_walkers():
    outcomes = {name: set() for name, *_ in DOCTRINES}
    for e in INPUTS:
        for role in roles(e):
            for name, project, reference in DOCTRINES:
                got = _outcome(project, e, role)
                assert _same(got, _outcome(reference, e, role)), (name, role, e)
                outcomes[name].add(got if isinstance(got, tuple) else "projected")
    assert len(INPUTS) > 15_000
    assert sum(isinstance(x, Rec) for x in INPUTS) > 150
    # every rule is reached, the refusals among them
    assert outcomes["trace-c"] == {"projected", (ValueError, "projection expects a shuffle-free expression; run eliminate_shuffle first")}
    assert outcomes["trace-f"] == {"projected"}
    assert {
        "projected",
        (MergeFailure, "choice without a decider cannot be projected"),
        (MergeFailure, "the session subset has no shuffle operator"),
    } < outcomes["scribble"]
