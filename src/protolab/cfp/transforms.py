"""Structural transforms: bounded recursion unrolling, occurrence tagging,
exact trace enumeration, and shuffle elimination.

Occurrences give every atom position in the (unrolled) expression a stable
identity so that executions, traces, and ordering constraints can be aligned
even when several positions carry the same message label.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .ast import (
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
    choice,
    has_rec,
    initials,
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


class _Counter:
    def __init__(self):
        self.n = 0

    def next(self) -> int:
        self.n += 1
        return self.n


def expand(e: CfpExpr, unroll_bound: int = DEFAULT_UNROLL) -> CfpExpr:
    """Unroll every recursion up to `unroll_bound` times and tag atoms with
    occurrence ids.  A back-reference at exhausted budget becomes Epsilon.
    The result is recursion-free, with OccAtom leaves."""
    if unroll_bound < 0:
        raise ValueError("unroll bound must be >= 0")
    return _expand(e, {}, unroll_bound, _Counter())


def _expand(e: CfpExpr, env: dict[str, tuple[Rec, int]], bound: int, counter: _Counter) -> CfpExpr:
    if isinstance(e, Epsilon):
        return e
    if isinstance(e, Atom):
        return OccAtom(e, counter.next())
    if isinstance(e, OccAtom):
        return OccAtom(e.atom, counter.next())
    if isinstance(e, Seq):
        return Seq(_expand(e.left, env, bound, counter), _expand(e.right, env, bound, counter))
    if isinstance(e, Shuffle):
        return Shuffle(_expand(e.left, env, bound, counter), _expand(e.right, env, bound, counter))
    if isinstance(e, Choice):
        return Choice(tuple(_expand(b, env, bound, counter) for b in e.branches), e.decider)
    if isinstance(e, Rec):
        # the bound counts body copies: the initial expansion uses one
        if bound <= 0:
            return Epsilon()
        return _expand(e.body, {**env, e.var: (e, bound - 1)}, bound, counter)
    if isinstance(e, Var):
        if e.var not in env:
            raise ValueError(f"unbound recursion variable {e.var!r}")
        rec, budget = env[e.var]
        if budget <= 0:
            return Epsilon()
        return _expand(rec.body, {**env, e.var: (rec, budget - 1)}, bound, counter)
    raise TypeError(type(e))


def occ_traces(expanded: CfpExpr) -> tuple[tuple[OccAtom, ...], ...]:
    """All occurrence-level traces of a recursion-free expression, in the
    order of `iter_occ_traces`."""
    return tuple(iter_occ_traces(expanded))


def iter_occ_traces(expanded: CfpExpr) -> Iterator[tuple[OccAtom, ...]]:
    """The occurrence-level traces, produced lazily, so a reader that stops
    at the first hit enumerates no further.  Order: a sequence pairs each
    left trace with every right trace; a choice takes its branches in turn;
    a shuffle interleaves each left trace with every right trace, left
    atoms first.  A trace met again is skipped."""
    if isinstance(expanded, Epsilon):
        yield ()
    elif isinstance(expanded, OccAtom):
        yield (expanded,)
    elif isinstance(expanded, Atom):
        raise TypeError("expression must be expanded before enumeration")
    elif isinstance(expanded, Seq):
        rights = _Replay(iter_occ_traces(expanded.right))
        for l in iter_occ_traces(expanded.left):
            for r in rights:
                yield l + r
    elif isinstance(expanded, Choice):
        yield from _unique(t for b in expanded.branches for t in iter_occ_traces(b))
    elif isinstance(expanded, Shuffle):
        rights = _Replay(iter_occ_traces(expanded.right))
        yield from _unique(m for l in iter_occ_traces(expanded.left) for r in rights for m in interleave(l, r))
    else:
        raise TypeError(type(expanded))


class _Replay:
    """Iterable any number of times over one iterator's items, pulling each
    item once, when first needed."""

    def __init__(self, items: Iterator):
        self._items = items
        self._pulled: list = []

    def __iter__(self):
        i = 0
        while True:
            if i == len(self._pulled):
                try:
                    self._pulled.append(next(self._items))
                except StopIteration:
                    return
            yield self._pulled[i]
            i += 1


def _unique(items: Iterable) -> Iterator:
    seen: set = set()
    for item in items:
        if item not in seen:
            seen.add(item)
            yield item


def interleave(a: tuple, b: tuple):
    """Every merge of two sequences that keeps each one's order, those
    taking `a`'s head first before those taking `b`'s."""
    if not a:
        yield b
        return
    if not b:
        yield a
        return
    for rest in interleave(a[1:], b):
        yield (a[0],) + rest
    for rest in interleave(a, b[1:]):
        yield (b[0],) + rest


def enumerate_traces(e: CfpExpr, unroll_bound: int = DEFAULT_UNROLL) -> tuple[GlobalTrace, ...]:
    """The exact trace set with each recursion unrolled at most
    `unroll_bound` times, in a deterministic order."""
    expanded = expand(e, unroll_bound)
    seen: dict[tuple, GlobalTrace] = {}
    for t in occ_traces(expanded):
        labels = tuple(o.label for o in t)
        if labels not in seen:
            seen[labels] = GlobalTrace(labels)
    return tuple(seen[k] for k in sorted(seen))


# ---------------------------------------------------------------------------
# shuffle elimination

_EMPTY = ("_empty",)  # sentinel for the empty language


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
    so callers must walk it once per node object and never unfold it."""
    done: dict[CfpExpr, CfpExpr] = {}

    def walk(x: CfpExpr) -> CfpExpr:
        if isinstance(x, (Epsilon, Atom, OccAtom)):
            return x
        out = done.get(x)
        if out is not None:
            return out
        if isinstance(x, Seq):
            out = seq(walk(x.left), walk(x.right))
        elif isinstance(x, Choice):
            out = choice([walk(b) for b in x.branches], x.decider)
        elif isinstance(x, Shuffle):
            alternatives: list[CfpExpr] = []
            for head in initials(x):
                residual = _derivative(x, head)
                if residual is not _EMPTY:
                    alternatives.append(seq(head, walk(residual)))
            if nullable(x):
                alternatives.append(Epsilon())
            out = choice(alternatives) if alternatives else Epsilon()
        else:
            raise TypeError(type(x))
        done[x] = out
        return out

    return walk(expand_plain(e) if has_rec(e) else e)


def expand_plain(e: CfpExpr, unroll_bound: int = DEFAULT_UNROLL) -> CfpExpr:
    """Bounded unrolling without occurrence tagging."""
    return untag(expand(e, unroll_bound))


def _derivative(e: CfpExpr, head) -> CfpExpr | tuple:
    """The language of `e` after consuming the specific atom node `head`."""
    if isinstance(e, (Atom, OccAtom)):
        return Epsilon() if e == head else _EMPTY
    if isinstance(e, Epsilon):
        return _EMPTY
    if isinstance(e, Seq):
        first = _derivative(e.left, head)
        options: list[CfpExpr] = []
        if first is not _EMPTY:
            options.append(seq(first, e.right))
        if nullable(e.left):
            rest = _derivative(e.right, head)
            if rest is not _EMPTY:
                options.append(rest)
        if not options:
            return _EMPTY
        return choice(options)
    if isinstance(e, Choice):
        options = [d for d in (_derivative(b, head) for b in e.branches) if d is not _EMPTY]
        if not options:
            return _EMPTY
        return choice(options)
    if isinstance(e, Shuffle):
        options = []
        left = _derivative(e.left, head)
        if left is not _EMPTY:
            options.append(shuffle(left, e.right))
        right = _derivative(e.right, head)
        if right is not _EMPTY:
            options.append(shuffle(e.left, right))
        if not options:
            return _EMPTY
        return choice(options)
    raise TypeError(type(e))


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
        for head in initials(e):
            d = _derivative(e, head)
            if d is not _EMPTY:
                out.setdefault(head.label, set()).update(_branches(d))
    return {label: frozenset(ds) for label, ds in out.items()}


def accepts_empty(state: frozenset) -> bool:
    """Whether a protocol-automaton state accepts (holds a nullable member)."""
    return any(nullable(e) for e in state)


def _branches(e: CfpExpr) -> list[CfpExpr]:
    return [x for b in e.branches for x in _branches(b)] if isinstance(e, Choice) else [e]
