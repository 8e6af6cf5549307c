"""One first-step walk for local behaviors.

`projection.local_steps` gives every event a local behavior can perform
first, and every silent commitment, with the remainder it leaves.  The
runtime reads its sends, receptions, commitments and expected peers from
it, and `extract_fsm` steps every machine with it, on the exploration core.
These tests check the runtime against the walkers it replaced, and the
machines of shuffles against the shuffle builders of the Thompson
construction (`thompson.py`) before it, kept below verbatim as the
reference; they also pin the machine of shuffles too large to linearize.
"""

import random

import protolab.cfp.fsm as fsm
import test_acceptance
import thompson
from generators import random_cfp, random_shuffle_expr
from thompson import Nfa
from protolab.cfp.ast import Atom, Choice, Rec, Seq, Shuffle, Var, roles
from protolab.cfp.fsm import _label, export_fsm, extract_fsm
from protolab.cfp.projection import (
    RECV,
    SEND,
    ChoiceKind,
    LAtom,
    LChoice,
    LEps,
    LRec,
    LSeq,
    LShuffle,
    LVar,
    L_EPSILON,
    LocalExpr,
    MergeFailure,
    accepting,
    local_steps,
    lseq,
    lshuffle,
    project_trace_f,
)
from protolab.cfp.transforms import eliminate_shuffle, expand
from protolab.cli import main
from protolab.realizability import Doctrine, _project_all, language_preset

# ---------------------------------------------------------------------------
# the reference: the runtime's walkers before `local_steps`


def send_steps(e):
    """Initially-performable emissions with the advanced remainder; entering
    a choice branch through its first send commits the choice."""
    if isinstance(e, LAtom):
        return [(e, L_EPSILON)] if e.direction == SEND else []
    if isinstance(e, LEps):
        return []
    if isinstance(e, LSeq):
        out = [(a, lseq(rest, e.right)) for a, rest in send_steps(e.left)]
        if accepting(e.left):
            out.extend(send_steps(e.right))
        return out
    if isinstance(e, LChoice):
        if e.kind is ChoiceKind.EXTERNAL:
            return []
        out = []
        for b in e.branches:
            out.extend(send_steps(b))
        return out
    if isinstance(e, LShuffle):
        out = [(a, lshuffle(rest, e.right)) for a, rest in send_steps(e.left)]
        out.extend((a, lshuffle(e.left, rest)) for a, rest in send_steps(e.right))
        return out
    raise TypeError(f"runtime requires an expanded local behavior, got {type(e).__name__}")


def reference_commit_steps(e):
    """Silent commitments available at the frontier: a mixed choice may
    resolve to waiting on its reception-initiated branches."""
    if isinstance(e, (LAtom, LEps)):
        return []
    if isinstance(e, LSeq):
        out = [lseq(left, e.right) for left in reference_commit_steps(e.left)]
        if accepting(e.left):
            out.extend(_dedup(reference_commit_steps(e.right)))
        return _dedup(out)
    if isinstance(e, LChoice):
        if e.kind is not ChoiceKind.MIXED:
            return []
        waitable = tuple(b for b in e.branches if not send_steps(b) or _recv_candidates(b))
        if not waitable or len(waitable) == len(e.branches):
            return []
        if len(waitable) == 1:
            return [waitable[0]]
        return [LChoice(waitable, ChoiceKind.EXTERNAL)]
    if isinstance(e, LShuffle):
        out = [lshuffle(left, e.right) for left in reference_commit_steps(e.left)]
        out.extend(lshuffle(e.left, right) for right in reference_commit_steps(e.right))
        return _dedup(out)
    raise TypeError(type(e))


def consume(e, peer, name):
    """Ways to accept a reception of `name` from `peer` right now."""
    if isinstance(e, LAtom):
        if e.direction == RECV and e.peer == peer and e.name == name:
            return [L_EPSILON]
        return []
    if isinstance(e, LEps):
        return []
    if isinstance(e, LSeq):
        out = [lseq(rest, e.right) for rest in consume(e.left, peer, name)]
        if accepting(e.left):
            out.extend(consume(e.right, peer, name))
        return _dedup(out)
    if isinstance(e, LChoice):
        out = []
        for b in e.branches:
            out.extend(consume(b, peer, name))
        return _dedup(out)
    if isinstance(e, LShuffle):
        out = [lshuffle(rest, e.right) for rest in consume(e.left, peer, name)]
        out.extend(lshuffle(e.left, rest) for rest in consume(e.right, peer, name))
        return _dedup(out)
    raise TypeError(type(e))


def _recv_candidates(e):
    """(peer, name) pairs the behavior could accept as its next reception."""
    if isinstance(e, LAtom):
        return [(e.peer, e.name)] if e.direction == RECV else []
    if isinstance(e, LEps):
        return []
    if isinstance(e, LSeq):
        out = list(_recv_candidates(e.left))
        if accepting(e.left):
            out.extend(_recv_candidates(e.right))
        return out
    if isinstance(e, LChoice):
        return [c for b in e.branches for c in _recv_candidates(b)]
    if isinstance(e, LShuffle):
        return _recv_candidates(e.left) + _recv_candidates(e.right)
    raise TypeError(type(e))


def _dedup(items):
    return list(dict.fromkeys(items))


# the reference: the Thompson construction's shuffle builder before
# `local_steps`, which builds one sequence of atoms per interleaving


def reference_build(nfa, e, start, end, env):
    if isinstance(e, LEps):
        nfa.add_eps(start, end)
    elif isinstance(e, LAtom):
        nfa.add_edge(start, fsm._label(e), end)
    elif isinstance(e, LSeq):
        mid = nfa.new_state()
        reference_build(nfa, e.left, start, mid, env)
        reference_build(nfa, e.right, mid, end, env)
    elif isinstance(e, LChoice):
        for b in e.branches:
            reference_build(nfa, b, start, end, env)
    elif isinstance(e, LShuffle):
        for variant in _shuffle_variants(e):
            reference_build(nfa, variant, start, end, env)
    elif isinstance(e, LRec):
        entry = nfa.new_state()
        nfa.add_eps(start, entry)
        reference_build(nfa, e.body, entry, end, {**env, e.var: entry})
    elif isinstance(e, LVar):
        nfa.add_eps(start, env[e.var])
    else:
        raise TypeError(type(e))


# the reference: the Thompson construction's builder before the residuals
# of a shuffle ran on `graph.explore`, numbering them with its own stack loop


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
        number, todo = {e: start}, [e]
        while todo:
            r = todo.pop()
            for atom, rest in local_steps(r):
                if atom is None:
                    continue
                if rest not in number:
                    number[rest] = nfa.new_state()
                    todo.append(rest)
                nfa.add_edge(number[r], _label(atom), number[rest])
            if accepting(r):
                nfa.add_eps(number[r], end)
    elif isinstance(e, LRec):
        entry = nfa.new_state()
        nfa.add_eps(start, entry)
        _build(nfa, e.body, entry, end, {**env, e.var: entry})
    elif isinstance(e, LVar):
        nfa.add_eps(start, env[e.var])
    else:
        raise TypeError(type(e))


def _shuffle_variants(e):
    out = []
    for merged in _linearize(e):
        expr = LEps()
        for atom in reversed(merged):
            expr = atom if isinstance(expr, LEps) else LSeq(atom, expr)
        if expr not in out:
            out.append(expr)
    return out


def _linearize(e):
    if isinstance(e, LEps):
        return [()]
    if isinstance(e, LAtom):
        return [(e,)]
    if isinstance(e, LSeq):
        return [l + r for l in _linearize(e.left) for r in _linearize(e.right)]
    if isinstance(e, LChoice):
        out = []
        for b in e.branches:
            out.extend(_linearize(b))
        return out
    if isinstance(e, LShuffle):
        out = []
        for l in _linearize(e.left):
            for r in _linearize(e.right):
                out.extend(_interleave(l, r))
        return out
    raise TypeError(f"cannot linearize {type(e).__name__} inside a shuffle")


def _interleave(a, b):
    """Every merge of two sequences that keeps each one's order, those
    taking `a`'s head first before those taking `b`'s."""
    if not a or not b:
        return [a + b]
    return [(a[0],) + rest for rest in _interleave(a[1:], b)] + [(b[0],) + rest for rest in _interleave(a, b[1:])]


# ---------------------------------------------------------------------------
# inputs


def _subterms(e, out):
    """Every distinct subterm of a local expression, into the dict `out`."""
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


def _behaviors(e, cfg):
    """The local behaviors realizability composes for `e` under `cfg`."""
    expanded = expand(e, 2)
    working = eliminate_shuffle(expanded) if cfg.doctrine in (Doctrine.TRACE_C, Doctrine.SCRIBBLE) else expanded
    try:
        return _project_all(working, cfg).values()
    except MergeFailure:
        return ()


GIVE, TAKE = LAtom("B", "give", SEND), LAtom("B", "take", RECV)
# no projection gives an external choice a branch that can begin with a
# send, so the inputs include one built by hand
WAIT = LChoice((LSeq(GIVE, TAKE), LShuffle(TAKE, GIVE)), ChoiceKind.EXTERNAL)


def _runtime_inputs():
    out = {}
    _subterms(LShuffle(LSeq(WAIT, GIVE), LChoice((WAIT, LSeq(GIVE, TAKE)), ChoiceKind.MIXED)), out)
    cases = [(e, cfg) for _, e, cfg, *_ in test_acceptance._golden_cases()]
    rng = random.Random(808)
    doctrines = [language_preset(p) for p in ("trace-f", "trace-c", "scribble")]
    for i in range(300):
        cases.append((random_cfp(rng, depth=rng.randint(2, 4), allow_rec=False), doctrines[i % 3]))
    for e, cfg in cases:
        for local in _behaviors(e, cfg):
            _subterms(local, out)
    return list(out)


RUNTIME_INPUTS = _runtime_inputs()


def test_runtime_inputs_cover_every_choice_kind():
    kinds = {x.kind for x in RUNTIME_INPUTS if isinstance(x, LChoice)}
    assert kinds == {ChoiceKind.INTERNAL, ChoiceKind.EXTERNAL, ChoiceKind.MIXED}
    assert len(RUNTIME_INPUTS) > 5000


def test_local_steps_equal_the_old_walkers():
    for e in RUNTIME_INPUTS:
        steps = [(a, rest) for a, rest in local_steps(e) if a is not None]
        assert [(a, rest) for a, rest in steps if a.direction == SEND] == send_steps(e)
        receptions = [(a, rest) for a, rest in steps if a.direction == RECV]
        assert [(a.peer, a.name) for a, _ in receptions] == _recv_candidates(e)
        for peer, name in dict.fromkeys((a.peer, a.name) for a, _ in receptions):
            assert _dedup(rest for a, rest in receptions if (a.peer, a.name) == (peer, name)) == consume(e, peer, name)
        assert _dedup(rest for a, rest in local_steps(e) if a is None) == reference_commit_steps(e)


def test_an_external_choice_is_entered_only_through_a_reception():
    assert local_steps(WAIT) == [(TAKE, GIVE)]
    assert local_steps(LChoice(WAIT.branches, ChoiceKind.INTERNAL)) == [(GIVE, TAKE), (TAKE, GIVE), (GIVE, TAKE)]


# ---------------------------------------------------------------------------
# type-level machines


def _shuffle_atoms(e):
    """The most atoms under one shuffle node of `e`."""
    if isinstance(e, LShuffle):
        return _atom_count(e)
    if isinstance(e, LSeq):
        return max(_shuffle_atoms(e.left), _shuffle_atoms(e.right))
    if isinstance(e, LChoice):
        return max(_shuffle_atoms(b) for b in e.branches)
    if isinstance(e, LRec):
        return _shuffle_atoms(e.body)
    return 0


def _atom_count(e):
    if isinstance(e, LAtom):
        return 1
    if isinstance(e, (LSeq, LShuffle)):
        return _atom_count(e.left) + _atom_count(e.right)
    if isinstance(e, LChoice):
        return sum(_atom_count(b) for b in e.branches)
    return 0


def _fsm_inputs():
    exprs = [e for _, e, *_ in test_acceptance._golden_cases()]
    rng = random.Random(909)
    exprs += [random_cfp(rng, depth=rng.randint(2, 4)) for _ in range(300)]
    out = []
    for e in exprs:
        for role in roles(e):
            local = project_trace_f(e, role)
            compiled = local if fsm._all_tail(local) else fsm._unroll_local(local, fsm.UNROLL_BOUND, {})
            if 0 < _shuffle_atoms(compiled) <= 6:
                out.append(local)
    return out


def _reference_fsm(local, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(thompson, "_build", reference_build)
        return thompson.thompson_fsm(local)


def test_shuffle_machines_equal_the_linearized_ones(monkeypatch):
    inputs = _fsm_inputs()
    assert len(inputs) > 200
    for local in inputs:
        assert export_fsm(extract_fsm(local)) == export_fsm(_reference_fsm(local, monkeypatch))


def test_residuals_on_the_core_equal_the_stack_loop(monkeypatch):
    rng = random.Random(911)
    inputs = _fsm_inputs()
    for _ in range(400):
        e = random_shuffle_expr(rng)
        inputs += [project_trace_f(x, role) for x in (e, expand(e, 2)) for role in roles(e)]
    assert sum(_shuffle_atoms(local) > 0 for local in inputs) > 1_000
    for local in inputs:
        with monkeypatch.context() as patch:
            patch.setattr(thompson, "_build", _build)
            loop = thompson.thompson_fsm(local)
        assert export_fsm(extract_fsm(local)) == export_fsm(loop)


def test_unrolled_choice_inside_a_shuffle_keeps_every_branch(monkeypatch):
    # The choice between B's reply and another lap reads as external to R
    # before the lap is unrolled; once it is, that branch begins with R's
    # send, which the machine must keep.
    lap = Rec("X", Seq(Atom("R", "A", "m"), Choice((Atom("B", "R", "n"), Var("X")))))
    local = project_trace_f(Shuffle(lap, Atom("C", "R", "k")), "R")
    machine = extract_fsm(local)
    assert export_fsm(machine) == export_fsm(_reference_fsm(local, monkeypatch))
    send_m = ("A", SEND, "m", ())
    assert machine.accepts([send_m, send_m, ("B", RECV, "n", ()), ("C", RECV, "k", ())])


def test_five_shuffled_pairs_compile_to_their_product(capsys, tmp_path):
    # 3 ** 5 states: each pair is before its request, between, or done
    path = tmp_path / "shared5.trace"
    path.write_text(" | ".join(f"(A -> B : Req{i} ; B -> A : Rep{i})" for i in range(1, 6)) + "\n")
    assert main(["project", str(path), "A", "--fsm", "--doctrine", "trace-f"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("node ") for line in lines) == 243
    assert sum(line.startswith("edge ") for line in lines) == 810
