"""Shuffle elimination as a DAG of shared residuals, and the one
derivative walk it reads.

`eliminate_shuffle` expands each distinct residual shuffle once, so equal
subterms of its result are one object.  These tests check it against the
tree-building recursion it replaced (kept below as the reference), pin
the verdicts and notes it makes reachable, pin its size as a count of
node objects, and check that every projection keeps a shared residual
one object.  `derivatives` gives the derivative by every first atom from
one walk; it is checked against the walk per atom it replaced
(`_derivative`, kept below verbatim as the reference).
"""

import random

import pytest

from generators import random_cfp, random_shuffle_expr
from protolab.cfp.ast import (
    Atom,
    CfpExpr,
    Choice,
    Epsilon,
    OccAtom,
    Rec,
    Seq,
    Shuffle,
    atoms,
    choice,
    has_shuffle,
    initials,
    nullable,
    roles,
    same,
    seq,
    shuffle,
)
from protolab.cfp.projection import LChoice, project_scribble, project_trace_c, project_trace_f
from protolab.cfp.trace_parser import parse_trace
from protolab.cfp.transforms import derivatives, eliminate_shuffle, expand, expand_plain, label_derivatives, language_state
from protolab.realizability import Outcome, Reason, check_realizability, language_preset
from test_realize_table import TABLE, config_from_flags, expression


# the reference: the derivative by one atom, one walk per atom

_EMPTY = ("_empty",)  # sentinel for the empty language


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


def tree_elimination(e):
    """The reference: the tree-building recursion, which expands a residual
    again each time another ordering reaches it."""
    return _expand_shuffles(expand_plain(e) if _has_rec(e) else e)


def _has_rec(e):
    if isinstance(e, Rec):
        return True
    if isinstance(e, (Seq, Shuffle)):
        return _has_rec(e.left) or _has_rec(e.right)
    if isinstance(e, Choice):
        return any(_has_rec(b) for b in e.branches)
    return False


def _expand_shuffles(e):
    if isinstance(e, (Epsilon, Atom, OccAtom)):
        return e
    if isinstance(e, Seq):
        return seq(_expand_shuffles(e.left), _expand_shuffles(e.right))
    if isinstance(e, Choice):
        return choice([_expand_shuffles(b) for b in e.branches], e.decider)
    if isinstance(e, Shuffle):
        return _expand_by_derivatives(e)
    raise TypeError(type(e))


def _expand_by_derivatives(e):
    alternatives = []
    for head in initials(e):
        residual = _derivative(e, head)
        if residual is _EMPTY:
            continue
        alternatives.append(seq(head, _expand_shuffles(residual)))
    if nullable(e):
        alternatives.append(Epsilon())
    if not alternatives:
        return Epsilon()
    return choice(alternatives)


def node_objects(e):
    """The number of distinct node objects reachable from `e`."""
    seen, stack = {}, [e]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen[id(x)] = x
        if isinstance(x, (Seq, Shuffle)):
            stack += (x.left, x.right)
        elif isinstance(x, Choice):
            stack += x.branches
    return len(seen)


def tree_nodes(e):
    """The number of nodes of the tree `e` unfolds to, counted on the DAG."""
    counts = {}

    def count(x):
        if id(x) not in counts:
            if isinstance(x, (Seq, Shuffle)):
                counts[id(x)] = 1 + count(x.left) + count(x.right)
            elif isinstance(x, Choice):
                counts[id(x)] = 1 + sum(count(b) for b in x.branches)
            else:
                counts[id(x)] = 1
        return counts[id(x)]

    return count(e)


def disjoint_pairs(k):
    return " | ".join(f"(A{i} -> B{i} : Req{i} ; B{i} -> A{i} : Rep{i})" for i in range(1, k + 1))


def test_shared_elimination_equals_the_tree_on_the_realize_table():
    """On the expanded form `check_realizability` eliminates, for every
    distinct (expression, bound) of the pinned realize table that has a
    shuffle; the largest is five shuffled pairs, 625,231 tree nodes."""
    import test_acceptance

    golden = {case_id: expr for case_id, expr, *_ in test_acceptance._golden_cases()}
    inputs = {}
    for entry in TABLE:
        # chains have no shuffle, and the longest do not parse
        if not (entry["source"] or "").startswith("chain:"):
            e = expression(entry, golden)
            if has_shuffle(e):
                inputs.setdefault((e, config_from_flags(entry["flags"])[1]), entry["id"])
    assert len(inputs) > 3_000
    for (e, bound), entry_id in inputs.items():
        expanded = expand(e, bound)
        shared, tree = eliminate_shuffle(expanded), tree_elimination(expanded)
        assert shared == tree, entry_id
        assert roles(shared) == roles(tree), entry_id


def test_shared_elimination_equals_the_tree_on_generated_expressions():
    rng = random.Random(43)
    for case in range(300):
        e = random_cfp(rng, 3) if case % 2 else random_shuffle_expr(rng)
        for x in (e, expand(e, 2)):
            shared, tree = eliminate_shuffle(x), tree_elimination(x)
            assert shared == tree
            assert roles(shared) == roles(tree)
            assert node_objects(shared) <= node_objects(tree)


def test_equal_residuals_are_one_object():
    # k pairs have 3^k residuals (each pair untouched, half done or done);
    # the unfolded tree has a leaf per ordering, (2k)! / 2^k of them
    shared = eliminate_shuffle(parse_trace(disjoint_pairs(6)))
    assert node_objects(shared) == 3_638
    assert tree_nodes(shared) == 40_753_747


def after(e, names):
    """What remains of `e`, global or local, after the events named, each
    the first event of a branch or of a sequence."""
    for name in names:
        if isinstance(e, (Choice, LChoice)):
            e = next(b for b in e.branches if b.left.name == name)
        e = e.right
    return e


def decided_by(e, role, done):
    """`e` with `role` deciding every choice, shared subterms kept shared."""
    if not isinstance(e, (Choice, Seq)):
        return e
    if id(e) not in done:
        if isinstance(e, Choice):
            done[id(e)] = Choice(tuple(decided_by(b, role, done) for b in e.branches), role)
        else:
            done[id(e)] = Seq(decided_by(e.left, role, done), decided_by(e.right, role, done))
    return done[id(e)]


def test_a_shared_residual_projects_to_one_object_under_every_doctrine():
    # after Req1 then Req2, and after Req2 then Req1, both replies remain:
    # one residual, one object, so one projection
    shared = eliminate_shuffle(parse_trace("(A -> B : Req1 ; B -> A : Rep1) | (A -> B : Req2 ; B -> A : Rep2)"))
    decided = decided_by(shared, "A", {})
    for project, e in ((project_trace_c, shared), (project_trace_f, shared), (project_scribble, decided)):
        assert after(e, ["Req1", "Req2"]) is after(e, ["Req2", "Req1"])
        local = project(e, "A")
        assert after(local, ["Req1", "Req2"]) is after(local, ["Req2", "Req1"]), project.__name__


def test_roles_read_the_shared_form_in_the_unfolded_order():
    e = parse_trace(disjoint_pairs(4) + " ; B4 -> C : done")
    shared, tree = eliminate_shuffle(e), tree_elimination(e)
    assert node_objects(shared) < node_objects(tree)
    assert roles(shared) == roles(tree) == ("A1", "B1", "A2", "B2", "A3", "B3", "A4", "B4", "C")
    assert dict.fromkeys(atoms(shared)).keys() == dict.fromkeys(atoms(tree)).keys()


def nonlocal_notes(k):
    return tuple(
        "shuffle operands are initiated by different roles: " + ", ".join(f"A{i}" for i in range(1, n + 1)) for n in range(k, 1, -1)
    )


@pytest.mark.parametrize("k", [5, 6, 7])
def test_disjoint_pairs_fail_the_session_merge(k):
    verdict = check_realizability(parse_trace(disjoint_pairs(k)), language_preset("scribble"))
    assert (verdict.outcome, verdict.reasons) == (Outcome.UNREALIZABLE, (Reason.NONLOCAL_CHOICE, Reason.MERGE_FAILURE))
    assert verdict.notes == nonlocal_notes(k) + (f"no single role initiates every branch (candidates: B{k - 1}, B{k})",)
    assert verdict.witness[:2] == (("E", 1, "A1", "B1", "Req1"), ("E", 2, "B1", "A1", "Rep1"))


# ---------------------------------------------------------------------------
# one derivative walk


def assert_derivatives_per_head(e):
    """`derivatives(e)` takes the heads `initials(e)` gives, in that order,
    each to a residual `same` as the walk for that head alone."""
    found = derivatives(e)
    assert list(found) == list(initials(e)), e
    for head, residual in found.items():
        assert same(residual, _derivative(e, head)), (e, head)


def automaton_members(e, bound, cap=100):
    """The members of the protocol-automaton states reached first from the
    expanded `e`, at most `cap` states."""
    start = language_state(expand(e, bound))
    seen, todo = {start}, [start]
    while todo and len(seen) < cap:
        for state in label_derivatives(todo.pop(0)).values():
            if state not in seen and len(seen) < cap:
                seen.add(state)
                todo.append(state)
    return {member for state in seen for member in state}


def test_one_walk_derivatives_equal_the_walk_per_head_on_the_realize_table():
    import test_acceptance

    golden = {case_id: expr for case_id, expr, *_ in test_acceptance._golden_cases()}
    inputs = {}
    for entry in TABLE:
        # the longest chains do not parse
        source = entry["source"] or ""
        if not (source.startswith("chain:") and int(source[len("chain:"):]) > 200):
            inputs.setdefault((expression(entry, golden), config_from_flags(entry["flags"])[1]), None)
    assert len(inputs) > 3_000
    members = set()
    for e, bound in inputs:
        members |= automaton_members(e, bound)
    assert len(members) > 14_000
    for member in members:
        assert_derivatives_per_head(member)


def test_one_walk_derivatives_equal_the_walk_per_head_on_generated_expressions():
    rng = random.Random(47)
    for _ in range(500):
        e = random_shuffle_expr(rng)
        for x in (e, expand(e, 2)):
            assert_derivatives_per_head(x)
            for member in automaton_members(x, 2):
                assert_derivatives_per_head(member)
