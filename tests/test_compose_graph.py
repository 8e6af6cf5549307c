"""The composition state graph against a brute-force path oracle, and the
verdicts it newly decides.

The oracle enumerates every path over the same successor function
(`Composer.moves`) and decides as the path-enumerating engine did, with
its witnesses chosen by the least-path rule; the graph's analyses must
reproduce it exactly: outcome, reasons, notes (counts and examples
included) and witness.
"""

import random
import sys

import pytest

from generators import random_cfp, random_shuffle_expr
from protolab.cfp.ast import Atom, Choice, Epsilon, Rec, Seq, Shuffle, Var
from protolab.cfp.projection import MergeFailure
from protolab.cfp.trace_parser import parse_trace
from protolab.cfp.transforms import OccAtom, eliminate_shuffle, expand, first_repeat, first_trace, occ_traces
from protolab.netsim import Delivery, Reception
from protolab.realizability import (
    CommConfig,
    Doctrine,
    Interpretation,
    Outcome,
    Reason,
    Verdict,
    _order_reasons,
    _project_all,
    check_realizability,
    detect_nonlocal_choice,
    language_preset,
    sequence_constraints,
)
from protolab.runtime import Composer, compose
from test_acceptance import _golden_cases

CONFIGS = (
    [language_preset("trace-c")]
    + [
        CommConfig(d, Reception.ANYTIME, i, Doctrine.TRACE_F)
        for d in (Delivery.FIFO_PAIRWISE, Delivery.UNORDERED)
        for i in Interpretation
    ]
    + [language_preset("scribble"), CommConfig(Delivery.SYNCHRONOUS, Reception.ANYTIME, Interpretation.RR, Doctrine.TRACE_F)]
)


# ---------------------------------------------------------------------------
# reference implementations


def list_occ_traces(expanded):
    """Trace enumeration with list-based deduplication, the order
    `occ_traces` must keep."""
    if isinstance(expanded, Epsilon):
        return ((),)
    if isinstance(expanded, OccAtom):
        return ((expanded,),)
    if isinstance(expanded, Seq):
        return tuple(l + r for l in list_occ_traces(expanded.left) for r in list_occ_traces(expanded.right))
    out = []
    if isinstance(expanded, Choice):
        candidates = (t for b in expanded.branches for t in list_occ_traces(b))
    else:
        candidates = (
            m for l in list_occ_traces(expanded.left) for r in list_occ_traces(expanded.right) for m in _interleave(l, r)
        )
    for t in candidates:
        if t not in out:
            out.append(t)
    return tuple(out)


def _interleave(a, b):
    if not a or not b:
        return [a + b]
    return [(a[0],) + rest for rest in _interleave(a[1:], b)] + [(b[0],) + rest for rest in _interleave(a, b[1:])]


def repeated_label(traces):
    """The first trace that takes a label twice, with that label, or None."""
    for t in traces:
        seen = set()
        for occ in t:
            if occ.label in seen:
                return t, occ.label
            seen.add(occ.label)
    return None


def _labels(events):
    return tuple(ev[2:] for ev in events if ev[0] == "E")


def _fmt(labels):
    return " . ".join(name for _, _, name in labels) or "<empty>"


class TooManyPaths(Exception):
    pass


def paths(composer, limit=2_000):
    """Every path from the initial state: (completed event sequences with
    their end state, deadlock paths, least violation path per kind and
    detail)."""
    completed, deadlocks, violations = [], [], {}
    stack = [(composer.initial, ())]
    while stack:
        if len(completed) + len(deadlocks) + len(stack) > limit:
            raise TooManyPaths()
        state, events = stack.pop()
        labels, nexts, found = composer.moves(state)
        moves = list(zip(labels, nexts))
        for kind, detail, ev in found:
            candidate = events + (ev,)
            violations[(kind, detail)] = min(violations.get((kind, detail), candidate), candidate)
        if composer.completed(state):
            completed.append((events, state))
        elif not moves and not found:
            deadlocks.append(events)
        stack.extend((nxt, events + ((ev,) if ev else ())) for ev, nxt in moves)
    return completed, deadlocks, violations


def oracle_verdict(e, cfg, bound=2):
    """`check_realizability` decided over every path, as the
    path-enumerating engine did, with the least-path witness rule."""
    reasons, notes, witness = [], [], ()
    diags = detect_nonlocal_choice(e)
    if diags:
        reasons.append(Reason.NONLOCAL_CHOICE)
        notes.extend(d.message for d in diags)
    expanded = expand(e, bound)
    traces = list_occ_traces(expanded)
    first = tuple(("E", o.occ, *o.label) for o in traces[0])
    if cfg.delivery is Delivery.UNORDERED and cfg.reception is Reception.ANYTIME:
        dup = repeated_label(traces)
        if dup is not None:
            trace, label = dup
            reasons.append(Reason.ORDER_VIOLATION)
            witness = tuple(("E", o.occ, *o.label) for o in trace)
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
        return Verdict(Outcome.UNREALIZABLE, _order_reasons(reasons), witness or first, tuple(notes))
    completed, deadlocks, violations = paths(Composer(behaviors, cfg.delivery, cfg.reception))
    executions = sorted(set(events for events, _ in completed))
    if deadlocks:
        reasons.append(Reason.DEADLOCK)
        witness = witness or min(deadlocks)
        notes.append("a reachable state has no enabled emission or delivery and is not final")
    for key in sorted(violations):
        reasons.append(Reason.ORDER_VIOLATION)
        witness = witness or violations[key]
        notes.append(f"{key[0]}: {key[1]}")
    if cfg.interpretation is not None:
        constraints = sequence_constraints(expanded, cfg.interpretation)
        for events in executions:
            position = {(ev[0], ev[1]): i for i, ev in enumerate(events)}
            broken = [c for c in constraints if all(k in position for k in c.events()) and position[c.events()[0]] > position[c.events()[1]]]
            if broken:
                reasons.append(Reason.ORDER_VIOLATION)
                witness = witness or events
                notes.append(f"a completed execution violates the {cfg.interpretation.value} constraint {broken[0]}")
                break
    protocol = {tuple(o.label for o in t) for t in traces}
    realized = {_labels(events) for events in executions}
    missing, extra = sorted(protocol - realized), sorted(realized - protocol)
    if (missing or extra) and not reasons:
        reasons.append(Reason.TRACE_MISMATCH)
        if missing:
            notes.append(f"{len(missing)} protocol trace(s) cannot be enacted, e.g. {_fmt(missing[0])}")
        if extra:
            notes.append(f"the composition produces {len(extra)} extra trace(s), e.g. {_fmt(extra[0])}")
            witness = witness or min(events for events in executions if _labels(events) == extra[0])
    elif missing and reasons:
        notes.append(f"{len(missing)} protocol trace(s) additionally cannot be enacted")
    ordered = _order_reasons(reasons)
    if ordered:
        return Verdict(Outcome.UNREALIZABLE, ordered, witness or first, tuple(notes))
    return Verdict(Outcome.REALIZABLE, (), (), tuple(notes))


def small_expressions(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        yield random_shuffle_expr(rng) if i % 2 else random_cfp(rng, 2)


# ---------------------------------------------------------------------------
# graph versus oracle


def test_graph_verdicts_match_path_oracle():
    compared = 0
    kinds = set()
    for e in small_expressions(7, 60):
        for cfg in CONFIGS:
            try:
                expected = oracle_verdict(e, cfg)
            except TooManyPaths:
                continue
            assert check_realizability(e, cfg) == expected, (e, cfg)
            compared += 1
            kinds.update(expected.reasons)
    assert compared >= 600
    # the comparison reached every kind of finding
    assert kinds == set(Reason)


def test_completed_executions_are_least_paths_per_completed_state():
    compared = 0
    for e in small_expressions(11, 40):
        for cfg in CONFIGS:
            expanded = expand(e, 2)
            working = eliminate_shuffle(expanded) if cfg.doctrine in (Doctrine.TRACE_C, Doctrine.SCRIBBLE) else expanded
            try:
                composer = Composer(_project_all(working, cfg), cfg.delivery, cfg.reception)
                completed, _, _ = paths(composer)
            except (MergeFailure, TooManyPaths):
                continue
            least = {}
            for events, state in completed:
                least[state] = min(least.get(state, events), events)
            graph = compose(_project_all(working, cfg), cfg.delivery, cfg.reception)
            assert [ex.events for ex in graph.completed] == sorted(least.values())
            compared += 1
    assert compared >= 200


def test_graph_is_acyclic_and_has_one_number_per_state():
    e = parse_trace(" | ".join(f"(A{i} -> B{i} : Req{i} ; B{i} -> A{i} : Rep{i})" for i in range(1, 4)))
    cfg = CONFIGS[4]  # trace-f, FIFO, RR
    graph = compose(_project_all(expand(e, 2), cfg), cfg.delivery, cfg.reception)
    assert len(set(graph.states)) == len(graph.states) == len(graph.edges) == 125
    assert sorted(graph.order) == list(range(len(graph.states)))
    rank = {n: i for i, n in enumerate(graph.order)}
    assert all(rank[n] < rank[t] for n, out in enumerate(graph.edges) for _, t in out)


# ---------------------------------------------------------------------------
# trace enumeration


def test_occ_traces_keep_the_list_based_order():
    rng = random.Random(5)
    for i in range(400):
        e = expand(random_shuffle_expr(rng) if i % 2 else random_cfp(rng, 3), 2)
        expected = list_occ_traces(e)
        assert occ_traces(e) == expected
        assert first_trace(e) == expected[0]


def test_occ_traces_skip_repeated_empty_traces():
    e = expand(Rec("X", Choice((Var("X"), Epsilon()))), 1)
    assert occ_traces(e) == ((),)
    assert first_trace(e) == () and first_repeat(e) is None


def test_first_trace_walks_the_structure():
    # 2^40 traces: none is listed
    e = expand(parse_trace(" | ".join(f"A -> B : m{i}" for i in range(41))), 2)
    first = first_trace(e)
    assert [o.name for o in first] == [f"m{i}" for i in range(41)]


def test_first_repeat_and_first_trace_equal_the_enumeration():
    rng = random.Random(11)
    shared = 0
    for i in range(400):
        e = expand(random_shuffle_expr(rng) if i % 2 else random_cfp(rng, 3), 2)
        traces = list_occ_traces(e)
        expected = repeated_label(traces)
        assert first_repeat(e) == expected, e
        assert first_trace(e) == traces[0]
        shared += expected is not None
    assert 0 < shared < 400


def test_thirty_round_ack_chain_finds_its_repeat_without_listing():
    # the first trace repeating b1 comes after 2^29 traces that do not
    rounds = " ; ".join(f"(A -> B : a{i} \\/ A -> B : b{i}) ; B -> A : k{i}" for i in range(1, 31))
    cfg = CommConfig(Delivery.UNORDERED, Reception.ANYTIME, Interpretation.RR, Doctrine.TRACE_F)
    verdict = check_realizability(parse_trace(rounds + " ; A -> B : b1"), cfg)
    assert (verdict.outcome, verdict.reasons) == (Outcome.UNREALIZABLE, (Reason.ORDER_VIOLATION,))
    assert verdict.notes[0] == (
        "unordered delivery can cross occurrences of b1 on channel A->B; "
        "the receiver consumes by type and cannot detect the crossed correlation"
    )
    names = [name for _, _, _, _, name in verdict.witness]
    assert len(names) == 61 and names[:3] == ["b1", "k1", "a2"] and names[-1] == "b1"


def test_no_verdict_path_lists_traces(monkeypatch):
    """The golden cases, under their own configuration and under trace-f
    unordered RR (where the correlation check runs), and disjoint k=5
    (113,400 traces, no label twice) decide alike with every binding of
    `occ_traces` raising."""
    unordered = CommConfig(Delivery.UNORDERED, Reception.ANYTIME, Interpretation.RR, Doctrine.TRACE_F)
    runs = [(case_id, expr, cfg) for case_id, expr, cfg, _, _ in _golden_cases()]
    distinct = {id(expr): (case_id, expr) for case_id, expr, _ in runs}
    runs += [(f"{case_id} (unordered RR)", expr, unordered) for case_id, expr in distinct.values()]
    runs.append(("disjoint k=5", parse_trace(disjoint_pairs(5)), unordered))
    expected = [check_realizability(expr, cfg) for _, expr, cfg in runs]

    def no_traces(expanded):
        raise AssertionError("traces listed")

    for name, module in list(sys.modules.items()):
        if name == "protolab" or name.startswith("protolab."):
            for key, value in list(vars(module).items()):
                if value is occ_traces:
                    monkeypatch.setattr(module, key, no_traces)
    for (case_id, expr, cfg), verdict in zip(runs, expected):
        assert check_realizability(expr, cfg) == verdict, case_id
    assert expected[-1].reasons == (Reason.NONLOCAL_CHOICE,)


# ---------------------------------------------------------------------------
# inputs the path walk could not decide


def disjoint_pairs(k):
    return " | ".join(f"(A{i} -> B{i} : Req{i} ; B{i} -> A{i} : Rep{i})" for i in range(1, k + 1))


def shared_pairs(k):
    return " | ".join(f"(A -> B : Req{i} ; B -> A : Rep{i})" for i in range(1, k + 1))


def atom_chain(n):
    return " ; ".join(f"A -> B : M{i}" if i % 2 else f"B -> A : M{i}" for i in range(1, n + 1))


FIFO_RR = CommConfig(Delivery.FIFO_PAIRWISE, Reception.ANYTIME, Interpretation.RR, Doctrine.TRACE_F)


@pytest.mark.parametrize("n", [600, 800])
def test_long_chains_are_realizable(n):
    assert check_realizability(parse_trace(atom_chain(n)), FIFO_RR).outcome is Outcome.REALIZABLE


@pytest.mark.parametrize("k", [3, 4, 5])
def test_disjoint_pairs_are_nonlocal(k):
    verdict = check_realizability(parse_trace(disjoint_pairs(k)), FIFO_RR)
    assert (verdict.outcome, verdict.reasons) == (Outcome.UNREALIZABLE, (Reason.NONLOCAL_CHOICE,))
    assert verdict.witness


@pytest.mark.parametrize("interpretation", [Interpretation.RR, Interpretation.SR])
def test_shared_pairs_realizable_under_unordered_delivery(interpretation):
    cfg = CommConfig(Delivery.UNORDERED, Reception.ANYTIME, interpretation, Doctrine.TRACE_F)
    assert check_realizability(parse_trace(shared_pairs(3)), cfg).outcome is Outcome.REALIZABLE


def test_state_cap_keeps_static_findings_and_names_the_cap():
    verdict = check_realizability(parse_trace(disjoint_pairs(4)), FIFO_RR, state_cap=10)
    assert (verdict.outcome, verdict.reasons) == (Outcome.UNREALIZABLE, (Reason.NONLOCAL_CHOICE,))
    assert verdict.witness
    assert "state cap (10 states)" in verdict.notes[-1]


# ---------------------------------------------------------------------------
# cached hashes


def test_cached_hashes_equal_for_equal_nodes_and_skip_pickles():
    import pickle

    a = Seq(Atom("A", "B", "x"), Shuffle(Atom("B", "A", "y"), Epsilon()))
    b = Seq(Atom("A", "B", "x"), Shuffle(Atom("B", "A", "y"), Epsilon()))
    assert a == b and hash(a) == hash(b)
    assert "_hash" not in repr(a)
    copy = pickle.loads(pickle.dumps(a))
    assert "_hash" not in pickle.dumps(a).decode("latin-1")
    assert copy == a and hash(copy) == hash(a)


def test_deep_expression_hashes_without_recursion():
    e = Epsilon()
    for i in range(5000):
        e = Seq(Atom("A", "B", f"m{i}"), e)
    assert hash(e) == hash(e)
