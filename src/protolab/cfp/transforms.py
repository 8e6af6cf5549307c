"""Structural transforms: bounded recursion unrolling, occurrence tagging,
trace enumeration, walks that find a first trace without it, and shuffle
elimination.  Shuffle elimination and the moves of the protocol automaton
both read one walk, `derivatives`, that gives an expression's derivative
by every atom that can begin it.

Occurrences give every atom position in the (unrolled) expression a stable
identity so that executions, traces, and ordering constraints can be aligned
even when several positions carry the same message label.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, count, islice
from typing import Iterator

from .ast import (
    EPSILON,
    Atom,
    CfpExpr,
    Choice,
    Epsilon,
    GlobalTrace,
    OccAtom,
    Rec,
    Seq,
    Shuffle,
    Var,
    atoms,
    choice,
    distinct,
    has_rec,
    nullable,
    seq,
    shuffle,
    untag,
)

DEFAULT_UNROLL = 2


def analyze(e: CfpExpr) -> list:
    """Structural diagnostics for trace expressions.  A recursion variable
    under a shuffle is accepted but flagged: its semantics is not settled in
    the trace-expression literature."""
    from ..diagnostics import Diagnostic, Severity

    out: list = []

    def walk(node: CfpExpr, under_shuffle: bool) -> None:
        if isinstance(node, Var):
            if under_shuffle:
                out.append(
                    Diagnostic(
                        "NonstandardRecursion",
                        f"recursion variable {node.var} occurs under a shuffle; treated as bounded interleaving",
                        Severity.WARNING,
                    )
                )
        elif isinstance(node, Seq):
            walk(node.left, under_shuffle)
            walk(node.right, under_shuffle)
        elif isinstance(node, Shuffle):
            walk(node.left, True)
            walk(node.right, True)
        elif isinstance(node, Choice):
            for b in node.branches:
                walk(b, under_shuffle)
        elif isinstance(node, Rec):
            walk(node.body, under_shuffle)

    walk(e, False)
    return out


def expand(e: CfpExpr, unroll_bound: int = DEFAULT_UNROLL) -> CfpExpr:
    """Unroll every recursion up to `unroll_bound` times and tag atoms with
    occurrence ids.  A back-reference at exhausted budget becomes Epsilon.
    The result is recursion-free, with OccAtom leaves."""
    if unroll_bound < 0:
        raise ValueError("unroll bound must be >= 0")
    return _expand(e, {}, unroll_bound, count(1))


def _expand(e: CfpExpr, env: dict[str, tuple[Rec, int]], bound: int, counter: Iterator[int]) -> CfpExpr:
    if isinstance(e, Epsilon):
        return e
    if isinstance(e, Atom):
        return OccAtom(e, next(counter))
    if isinstance(e, OccAtom):
        return OccAtom(e.atom, next(counter))
    if isinstance(e, Seq):
        return Seq(_expand(e.left, env, bound, counter), _expand(e.right, env, bound, counter))
    if isinstance(e, Shuffle):
        return Shuffle(_expand(e.left, env, bound, counter), _expand(e.right, env, bound, counter))
    if isinstance(e, Choice):
        return Choice(tuple(_expand(b, env, bound, counter) for b in e.branches), e.decider)
    if isinstance(e, Rec):
        # the bound counts body copies: the initial expansion uses one
        if bound <= 0:
            return EPSILON
        return _expand(e.body, {**env, e.var: (e, bound - 1)}, bound, counter)
    if isinstance(e, Var):
        if e.var not in env:
            raise ValueError(f"unbound recursion variable {e.var!r}")
        rec, budget = env[e.var]
        if budget <= 0:
            return EPSILON
        return _expand(rec.body, {**env, e.var: (rec, budget - 1)}, bound, counter)
    raise TypeError(type(e))


def occ_traces(expanded: CfpExpr) -> tuple[tuple[OccAtom, ...], ...]:
    """Every occurrence-level trace of a recursion-free expression, once
    each: a sequence pairs each left trace with every right trace, a choice
    takes its branches in turn, a shuffle merges each left trace with every
    right one, left heads first.  Exponential; no verdict reads it."""
    if isinstance(expanded, Epsilon):
        return ((),)
    if isinstance(expanded, OccAtom):
        return ((expanded,),)
    if isinstance(expanded, Choice):
        return tuple(dict.fromkeys(t for b in expanded.branches for t in occ_traces(b)))
    if not isinstance(expanded, (Seq, Shuffle)):
        raise TypeError(f"expected an expanded expression, got {type(expanded).__name__}")
    found = []
    rights = occ_traces(expanded.right)
    for l in occ_traces(expanded.left):
        for r in rights:
            # a merge puts l's atoms at `picks`; the first merge is l + r
            merges = combinations(range(len(l) + len(r)), len(l))
            for picks in islice(merges, 1) if isinstance(expanded, Seq) else merges:
                left, right = iter(l), iter(r)
                found.append(tuple(next(left) if i in picks else next(right) for i in range(len(l) + len(r))))
    return tuple(dict.fromkeys(found))


def first_trace(expanded: CfpExpr) -> tuple[OccAtom, ...]:
    """The first trace of `occ_traces`: both operands of a sequence or
    shuffle in turn, and the first branch of a choice."""
    return _leftmost(expanded, {}, {}, 1)[0]


def first_repeat(expanded: CfpExpr) -> tuple[tuple[OccAtom, ...], tuple[str, str, str]] | None:
    """The first trace, in `occ_traces` order, that takes some label twice,
    with that label; None when no trace does.  `expanded` comes from
    `expand`, which shares no node.

    No expression denotes the empty language (a choice has two branches
    or more, and an exhausted variable expands to Epsilon), so two atoms
    share a trace iff they sit in different operands of one sequence or
    shuffle.  A label at two atoms or more gets a bit; a node's bits
    (`_gather`) are its labels' bits, and bit 0 when it can repeat one.
    A shuffle's first repeating trace is its operands' traces in turn:
    whether a merge repeats a label does not depend on the merge."""
    counts = Counter([a.label for a in atoms(expanded)])
    bits = {label: 2 << i for i, label in enumerate(label for label, n in counts.items() if n > 1)}
    below: dict[int, int] = {}
    if not bits or not _gather(expanded, bits, below) & 1:
        return None
    return _leftmost(expanded, bits, below, 0)


def _leftmost(expanded: CfpExpr, bits: dict, below: dict[int, int], later: int) -> tuple:
    """The trace built left to right, each choice taking its first branch
    after which a label can still repeat, and the first label it repeats.
    `later` holds the bits of what follows `expanded`; bit 0 there makes
    every choice take its first branch."""
    trace: list[OccAtom] = []
    seen = 0
    repeated = None
    stack = [(expanded, later)]
    while stack:
        x, later = stack.pop()
        if isinstance(x, OccAtom):
            trace.append(x)
            bit = bits.get(x.label, 0)
            if repeated is None and seen & bit:
                repeated = x.label
            seen |= bit
        elif isinstance(x, (Seq, Shuffle)):
            stack += ((x.right, later), (x.left, _join(below.get(id(x.right), 0), later)))
        elif isinstance(x, Choice):
            for b in x.branches:
                if repeated or _join(_join(seen, below.get(id(b), 0)), later) & 1:
                    stack.append((b, later))
                    break
    return tuple(trace), repeated


def _join(a: int, b: int) -> int:
    """The bits of two nodes on one trace: bit 0 when either can repeat a
    label or they share one."""
    return a | b | (a & b != 0)


def _gather(x: CfpExpr, bits: dict, below: dict[int, int]) -> int:
    """The bits of `x` (see `first_repeat`), also kept in `below` for each
    subterm; recurses as deep as `expand` does."""
    if isinstance(x, OccAtom):
        out = bits.get(x.label, 0)
    elif isinstance(x, (Seq, Shuffle)):
        out = _join(_gather(x.left, bits, below), _gather(x.right, bits, below))
    elif isinstance(x, Choice):
        out = 0
        for b in x.branches:
            out |= _gather(b, bits, below)
    else:
        out = 0
    below[id(x)] = out
    return out


def enumerate_traces(e: CfpExpr, unroll_bound: int = DEFAULT_UNROLL) -> tuple[GlobalTrace, ...]:
    """The exact trace set with each recursion unrolled at most
    `unroll_bound` times, in a deterministic order."""
    labels = {tuple(o.label for o in t) for t in occ_traces(expand(e, unroll_bound))}
    return tuple(GlobalTrace(t) for t in sorted(labels))


# ---------------------------------------------------------------------------
# shuffle elimination

def eliminate_shuffle(e: CfpExpr) -> CfpExpr:
    """Rewrite an expression into a shuffle-free choice of orderings with
    exactly the same bounded trace set.  Recursion is bound-expanded first.
    Also accepts occurrence-expanded expressions.

    Brzozowski-style expansion: a shuffle equals the choice, over each
    possible first atom, of that atom followed by the residual shuffle.
    Each distinct residual is expanded once, within the call, so the result
    is a DAG: equal subterms reached by different orderings are one object.
    The tree it stands for can have factorially many leaves (113,400 for
    five shuffled request/reply pairs, which have 3^5 distinct residuals),
    so callers must walk it once per node object and never unfold it.

    A node whose operands come back as the same objects, where `seq` and
    `choice` would rewrite nothing, is returned itself: a shuffle-free
    input comes back as the input object."""
    done: dict[CfpExpr, CfpExpr] = {}

    def walk(x: CfpExpr) -> CfpExpr:
        if isinstance(x, (Epsilon, Atom, OccAtom)):
            return x
        out = done.get(x)
        if out is not None:
            return out
        if isinstance(x, Seq):
            left, right = walk(x.left), walk(x.right)
            kept = left is x.left and right is x.right and not isinstance(left, Epsilon) and not isinstance(right, Epsilon)
            out = x if kept else seq(left, right)
        elif isinstance(x, Choice):
            branches = [walk(b) for b in x.branches]
            kept = all(b is old for b, old in zip(branches, x.branches)) and len(distinct(branches)) == len(branches)
            out = x if kept else choice(branches, x.decider)
        elif isinstance(x, Shuffle):
            alternatives = [seq(head, walk(residual)) for head, residual in derivatives(x).items()]
            if nullable(x):
                alternatives.append(EPSILON)
            out = choice(alternatives) if alternatives else EPSILON
        else:
            raise TypeError(type(x))
        done[x] = out
        return out

    return walk(expand_plain(e) if has_rec(e) else e)


def expand_plain(e: CfpExpr, unroll_bound: int = DEFAULT_UNROLL) -> CfpExpr:
    """Bounded unrolling without occurrence tagging."""
    return untag(expand(e, unroll_bound))


def derivatives(e: CfpExpr) -> dict:
    """The derivative of a recursion-free `e` by each atom that can begin
    it, in `initials` order, from one walk (Brzozowski, JACM 1964).  Each
    is the `choice` of the ways to consume the atom, operands in order: a
    sequence's left derivative then its right operand, and its right
    derivative when the left is nullable; a shuffle's left derivative
    beside its right operand, then the reverse; a choice's branches'."""
    if isinstance(e, (Atom, OccAtom)):
        return {e: EPSILON}
    if isinstance(e, Epsilon):
        return {}
    if isinstance(e, Seq):
        parts = [(e.left, lambda d: seq(d, e.right))]
        if nullable(e.left):
            parts.append((e.right, None))
    elif isinstance(e, Shuffle):
        parts = [(e.left, lambda d: shuffle(d, e.right)), (e.right, lambda d: shuffle(e.left, d))]
    elif isinstance(e, Choice):
        parts = [(b, None) for b in e.branches]
    else:
        raise TypeError(type(e))
    ways: dict = {}
    for operand, wrap in parts:
        for head, d in derivatives(operand).items():
            ways.setdefault(head, []).append(wrap(d) if wrap else d)
    return {head: choice(options) for head, options in ways.items()}


def language_state(e: CfpExpr) -> frozenset:
    """The protocol-automaton state of a recursion-free expression."""
    return frozenset(_branches(e))


def label_derivatives(state: frozenset) -> dict[tuple[str, str, str], frozenset]:
    """Moves of the protocol automaton (Brzozowski, JACM 1964), with a
    state kept as a set of expressions whose languages it unites
    (Antimirov, TCS 1996): for each label, the derivatives of every member
    by every initial atom carrying that label, top-level choices split
    into their branches."""
    out: dict[tuple[str, str, str], set] = {}
    for e in state:
        for head, d in derivatives(e).items():
            out.setdefault(head.label, set()).update(_branches(d))
    return {label: frozenset(ds) for label, ds in out.items()}


def accepts_empty(state: frozenset) -> bool:
    """Whether a protocol-automaton state accepts (holds a nullable member)."""
    return any(nullable(e) for e in state)


def _branches(e: CfpExpr) -> list[CfpExpr]:
    return [x for b in e.branches for x in _branches(b)] if isinstance(e, Choice) else [e]
