"""One pre-order walk for node queries.

`ast.nodes` yields the nodes of a global or local expression in pre-order,
left operand first, entering each node object once.  Whether a recursion,
a shuffle, an occurrence or a free variable exists, the atoms of an
expression, a local behavior's first atom and the sequence constraints are
all read from it.  These tests check each reader against the walker it
replaced, kept below verbatim as the reference, except that `has_node`
reads a node's fields through `dataclasses.fields`, as slotted nodes have
no `__dict__`.  The nonlocal-choice scan, which keeps its own stack, is
checked against the recursive scan it replaced in the same way.
"""

import dataclasses
import random

from protolab.diagnostics import Diagnostic

import test_acceptance
import test_local_steps
from generators import random_cfp, random_shuffle_expr
from protolab.cfp.ast import (
    Atom,
    CfpExpr,
    Choice,
    OccAtom,
    Rec,
    Seq,
    Shuffle,
    atoms,
    finals,
    has_rec,
    has_shuffle,
    initials,
    nodes,
    occurs_free,
    roles,
)
from protolab.cfp.projection import LAtom, LChoice, LocalExpr, LRec, LSeq, LShuffle, MergeFailure, project_scribble
from protolab.cfp.transforms import eliminate_shuffle, expand
from protolab.realizability import Constraint, Interpretation, detect_nonlocal_choice, sequence_constraints
from test_realize_table import TABLE, config_from_flags, expression

# ---------------------------------------------------------------------------
# the reference: the node walkers before `nodes`


def has_node(e, hit, enter=None) -> bool:
    """Whether `hit` holds at some node of `e`, global or local.  The walk
    reads the operands both kinds name alike (`left`, `right`, `branches`,
    `body`) with a stack, enters each node object once, and does not enter
    a node at which `enter` is false."""
    entered: set[int] = set()
    stack = [e]
    while stack:
        x = stack.pop()
        if hit(x):
            return True
        fields = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
        if "left" in fields:
            operands = (fields["right"], fields["left"])
        elif "branches" in fields:
            operands = fields["branches"][::-1]
        elif "body" in fields:
            operands = (fields["body"],)
        else:
            continue
        if id(x) not in entered and (enter is None or enter(x)):
            entered.add(id(x))
            stack += operands
    return False


def reference_atoms(e: CfpExpr) -> list[Atom]:
    """The atoms of `e` in order, an occurrence as its atom.  The walk is
    pre-order and enters each compound node object once, so a subterm
    shared by several parents (see `eliminate_shuffle`) is read once; the
    first occurrences come in the order the unfolded tree gives them."""
    out: list[Atom] = []
    entered: set[int] = set()
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, (Atom, OccAtom)):
            out.append(x.atom if isinstance(x, OccAtom) else x)
            continue
        if id(x) in entered:
            continue
        entered.add(id(x))
        if isinstance(x, (Seq, Shuffle)):
            stack += (x.right, x.left)
        elif isinstance(x, Choice):
            stack += reversed(x.branches)
        elif isinstance(x, Rec):
            stack.append(x.body)
    return out


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


def _collect_constraints(e, interpretation: Interpretation, out: list[Constraint]) -> None:
    if isinstance(e, Seq):
        for a in finals(e.left):
            for b in initials(e.right):
                out.append(Constraint(interpretation, a, b))
        _collect_constraints(e.left, interpretation, out)
        _collect_constraints(e.right, interpretation, out)
    elif isinstance(e, Shuffle):
        _collect_constraints(e.left, interpretation, out)
        _collect_constraints(e.right, interpretation, out)
    elif isinstance(e, Choice):
        for b in e.branches:
            _collect_constraints(b, interpretation, out)


def reference_sequence_constraints(e, interpretation, unroll_bound=2):
    expanded = e if has_node(e, lambda x: isinstance(x, OccAtom)) else expand(e, unroll_bound)
    out = []
    _collect_constraints(expanded, interpretation, out)
    return tuple(out)


def _scan_nonlocal(e: CfpExpr, out: list[Diagnostic]) -> None:
    if isinstance(e, Choice):
        senders: set[str] = set()
        for b in e.branches:
            firsts = initials(b)
            senders.update(a.sender for a in firsts)
        if len(senders) > 1:
            out.append(
                Diagnostic(
                    "NonlocalChoice",
                    "choice branches are initiated by different roles: " + ", ".join(sorted(senders)),
                    subject=" vs ".join(sorted({f"{a.sender} sends {a.name}" for b in e.branches for a in initials(b)[:1]})),
                )
            )
        for b in e.branches:
            _scan_nonlocal(b, out)
    elif isinstance(e, Shuffle):
        left = {a.sender for a in initials(e.left)}
        right = {a.sender for a in initials(e.right)}
        if left and right and left | right != left & right and len(left | right) > 1:
            out.append(
                Diagnostic(
                    "NonlocalChoice",
                    "shuffle operands are initiated by different roles: " + ", ".join(sorted(left | right)),
                )
            )
        _scan_nonlocal(e.left, out)
        _scan_nonlocal(e.right, out)
    elif isinstance(e, Seq):
        _scan_nonlocal(e.left, out)
        _scan_nonlocal(e.right, out)
    elif isinstance(e, Rec):
        _scan_nonlocal(e.body, out)


def _visits(e, enter=None):
    """The nodes the reference walk tests, in order."""
    seen = []
    has_node(e, seen.append, enter)
    return seen


def _variables(e):
    """The recursion variables named in `e`, and one named nowhere."""
    return {x.var for x in _visits(e) if hasattr(x, "var")} | {"X"}


# ---------------------------------------------------------------------------
# inputs


def _table_inputs():
    """Each distinct realize-table input the table decided or capped, with
    its unrolling bound."""
    golden = {case_id: expr for case_id, expr, *_ in test_acceptance._golden_cases()}
    out = {}
    for entry in TABLE:
        if entry["outcome"] is None:
            continue
        _, bound = config_from_flags(entry["flags"])
        key = (entry["id"] if entry["set"] == "golden" else entry["source"], bound)
        if key not in out:
            out[key] = (expression(entry, golden), bound)
    return list(out.values())


TABLE_INPUTS = _table_inputs()


def _global_inputs():
    """Random and realize-table expressions, with shuffle elimination's
    DAGs, whose subterms are shared by several parents."""
    rng = random.Random(1701)
    exprs = [random_cfp(rng, depth=rng.randint(2, 5)) for _ in range(400)]
    exprs += [random_shuffle_expr(rng) for _ in range(200)]
    exprs += [e for e, _ in TABLE_INPUTS[::5]]
    dags = [eliminate_shuffle(expand(e, 2)) for e in exprs if has_shuffle(e)]
    # recursion bodies, in which their variables occur free
    bodies = [x.body for e in exprs for x in _visits(e) if isinstance(x, Rec)]
    return exprs + [expand(e, 2) for e in exprs] + dags + bodies


GLOBAL_INPUTS = _global_inputs()


def _local_subterms(e, out):
    """Every distinct subterm of a local expression, recursion bodies
    included, into the dict `out`."""
    stack = [e]
    while stack:
        x = stack.pop()
        if x in out:
            continue
        out[x] = None
        if isinstance(x, (LSeq, LShuffle)):
            stack += [x.left, x.right]
        elif isinstance(x, LChoice):
            stack += list(x.branches)
        elif isinstance(x, LRec):
            stack.append(x.body)


def _scribble_subterms():
    """The subterms of the scribble projections of the golden inputs, not
    unrolled, so recursions stay."""
    out = {}
    for _, e, *_ in test_acceptance._golden_cases():
        for role in roles(e):
            try:
                _local_subterms(project_scribble(e, role), out)
            except MergeFailure:
                pass
    return list(out)


# ---------------------------------------------------------------------------
# tests


def test_the_walk_visits_what_the_old_walker_tested():
    shared = 0
    for e in GLOBAL_INPUTS + test_local_steps.RUNTIME_INPUTS:
        walked = list(nodes(e))
        assert [id(x) for x in walked] == [id(x) for x in _visits(e)]
        shared += len({id(x) for x in walked}) < len(walked)
        for var in _variables(e):
            gate = lambda x, var=var: getattr(x, "var", None) != var
            assert [id(x) for x in nodes(e, gate)] == [id(x) for x in _visits(e, gate)]
    assert shared > 100  # some walks meet a node object twice


def test_node_queries_equal_the_old_walker():
    for e in GLOBAL_INPUTS + test_local_steps.RUNTIME_INPUTS:
        assert has_rec(e) == has_node(e, lambda x: isinstance(x, Rec))
        assert has_shuffle(e) == has_node(e, lambda x: isinstance(x, Shuffle))
        occurs = any(isinstance(x, OccAtom) for x in nodes(e))
        assert occurs == has_node(e, lambda x: isinstance(x, OccAtom))
        for var in _variables(e):
            assert occurs_free(e, var) == has_node(
                e, lambda x: getattr(x, "var", None) == var and not hasattr(x, "body"), lambda x: getattr(x, "var", None) != var
            )
    assert any(has_rec(e) for e in GLOBAL_INPUTS) and any(occurs_free(e, var) for e in GLOBAL_INPUTS for var in _variables(e))


def test_atoms_equal_the_old_loop():
    for e in GLOBAL_INPUTS:
        assert atoms(e) == reference_atoms(e)


def test_the_first_local_atom_equals_the_old_walker():
    subterms = test_local_steps.RUNTIME_INPUTS + _scribble_subterms()
    assert any(isinstance(x, LRec) for x in subterms)
    for x in subterms:
        assert next((y for y in nodes(x) if isinstance(y, LAtom)), None) == _first_local(x)


def test_sequence_constraints_equal_the_old_walker_on_the_realize_table():
    assert len(TABLE_INPUTS) > 1_000
    for e, bound in TABLE_INPUTS:
        expanded = expand(e, bound)
        for interpretation in (Interpretation.RR, Interpretation.SS):
            want = reference_sequence_constraints(expanded, interpretation)
            assert sequence_constraints(expanded, interpretation) == want
            assert sequence_constraints(e, interpretation, bound) == want


def test_sequence_constraints_walk_a_10000_deep_chain():
    # right-nested like a parsed chain, built without the parser
    chain = OccAtom(Atom("A", "B", "m"), 10_000)
    for occ in range(9_999, 0, -1):
        chain = Seq(OccAtom(Atom("A", "B", "m"), occ), chain)
    constraints = sequence_constraints(chain, Interpretation.RR)
    assert [(c.left.occ, c.right.occ) for c in constraints] == [(i, i + 1) for i in range(1, 10_000)]


def test_nonlocal_choices_equal_the_recursive_scan():
    # the parsed realize-table inputs (the golden cases among them) and the
    # random expressions, before expansion, as `check_realizability` scans
    exprs = [e for e, _ in TABLE_INPUTS] + GLOBAL_INPUTS[:600]
    found = 0
    for e in exprs:
        want: list[Diagnostic] = []
        _scan_nonlocal(e, want)
        assert detect_nonlocal_choice(e) == want, e
        found += len(want) > 1
    assert found  # the order of several diagnostics is compared too


def test_nonlocal_choices_walk_a_10000_deep_chain():
    chain = Atom("A", "B", "m10000")
    for i in range(9_999, 0, -1):
        chain = Seq(Atom("A", "B", f"m{i}") if i % 2 else Atom("B", "A", f"m{i}"), chain)
    assert detect_nonlocal_choice(chain) == []
