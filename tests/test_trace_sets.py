"""The trace-set comparison of realizability rule 4 against its former
implementation.

`old_compare_trace_sets` is `realizability._compare_trace_sets` as it was
before the comparison became one product walk: an NFA built from every
composition edge, a full subset construction (`thompson.determinize`), then a
walk of the product with the protocol's derivative automaton, a
topological sort and path counts on every input.  It counts both halves
of trace-set equality; the missing half is zero by construction (the
lemma in the `realizability` docstring), so the verdict reads only
`_extra_traces`, which must give the oracle's extra half, and only when
no reason is known yet.
"""

import random

import pytest

from generators import random_cfp, random_scribble, random_shuffle_expr
from test_realize_table import TABLE, config_from_flags, expression
from thompson import Nfa, determinize

from protolab import realizability
from protolab.cfp.projection import MergeFailure
from protolab.cfp.trace_parser import parse_trace
from protolab.cfp.transforms import accepts_empty, eliminate_shuffle, expand, label_derivatives, language_state
from protolab.graph import explore, least_path, topological
from protolab.matrix import fixture_text
from protolab.netsim import Delivery, Reception
from protolab.realizability import Doctrine, Interpretation, _extra_traces, _project_all, check_realizability, language_preset
from protolab.runtime import compose

CONFIGS = [language_preset("trace-c"), language_preset("scribble")] + [
    language_preset("trace-f").with_(delivery=d, interpretation=i)
    for d in (Delivery.FIFO_PAIRWISE, Delivery.UNORDERED)
    for i in Interpretation
]


def old_compare_trace_sets(expanded, graph):
    nfa = Nfa()
    for n, out in enumerate(graph.edges):
        for event, t in out:
            if event is not None and event[0] == "E":
                nfa.add_edge(n, event[2:], t)
            else:
                nfa.add_eps(n, t)
    nfa.finals = {n for n, final in enumerate(graph.final) if final}
    emitted = determinize(nfa, 0)
    emitted_moves = [dict(out) for out in emitted.edges]
    protocol_moves: dict[frozenset, dict] = {}

    def successors(node):
        p, c = node
        if p is not None and p not in protocol_moves:
            protocol_moves[p] = label_derivatives(p)
        p_out = protocol_moves[p] if p is not None else {}
        c_out = emitted_moves[c] if c is not None else {}
        labels = sorted(p_out.keys() | c_out.keys())
        return labels, [(p_out.get(label), c_out.get(label)) for label in labels]

    product = explore((language_state(expanded), 0), successors)
    in_protocol = [p is not None and accepts_empty(p) for p, _ in product.states]
    in_composition = [c is not None and not emitted.states[c].isdisjoint(nfa.finals) for _, c in product.states]
    paths = [0] * len(product.states)
    paths[0] = 1
    for n in topological(product):
        for _, t in product.edges[n]:
            paths[t] += paths[n]

    def count_and_least(ends: list[bool]) -> tuple[int, tuple | None]:
        count = sum(paths[n] for n, end in enumerate(ends) if end)
        if not count:
            return 0, None
        return count, least_path(0, product.successors, lambda n: () if ends[n] else None)

    missing = count_and_least([a and not b for a, b in zip(in_protocol, in_composition)])
    extra = count_and_least([b and not a for a, b in zip(in_protocol, in_composition)])
    return (*missing, *extra)


def composition(e, cfg, bound=2, state_cap=250_000):
    """The expanded expression and the composition graph that
    `check_realizability` compares, or None when it stops before the
    comparison (a merge failure or the state cap)."""
    expanded = expand(e, bound)
    working = eliminate_shuffle(expanded) if cfg.doctrine in (Doctrine.TRACE_C, Doctrine.SCRIBBLE) else expanded
    try:
        graph = compose(_project_all(working, cfg), cfg.delivery, cfg.reception, state_cap=state_cap)
    except MergeFailure:
        return None
    return None if graph.bound_exceeded else (expanded, graph)


def assert_same_reading(expanded, graph, label):
    want = old_compare_trace_sets(expanded, graph)
    assert want[:2] == (0, None), label  # every protocol trace is enacted
    assert _extra_traces(expanded, graph) == want[2:], label
    return want


def test_one_walk_reads_as_the_old_comparison_on_the_realize_table():
    import test_acceptance

    golden = {case_id: expr for case_id, expr, *_ in test_acceptance._golden_cases()}
    checked = mismatches = 0
    for entry in TABLE:
        if entry["outcome"] in (None, "BoundExceeded"):
            continue
        cfg, bound = config_from_flags(entry["flags"])
        found = composition(expression(entry, golden), cfg, bound)
        if found is None:
            continue
        want = assert_same_reading(*found, entry["id"])
        if "TraceMismatch" in entry["reasons"]:
            assert want[2], entry["id"]
            mismatches += 1
        checked += 1
    assert checked >= 4900  # the rest stop at a merge failure, before any comparison
    assert mismatches == 52


def test_one_walk_reads_as_the_old_comparison_on_generated_expressions():
    rng = random.Random(2813)
    checked = differing = 0
    for i in range(400):
        e = random_cfp(rng) if i % 2 else random_shuffle_expr(rng)
        found = composition(e, CONFIGS[i % len(CONFIGS)], state_cap=20_000)
        if found is None:
            continue
        want = assert_same_reading(*found, str(e))
        checked += 1
        differing += bool(want[2])
    assert checked >= 300
    assert differing  # some generated compositions enact traces the protocol lacks


# synchronous delivery, and the channel selector over trace-c and trace-f
# projections: the lemma's run is a completed path there too
SAMPLE_CONFIGS = [
    language_preset("trace-c").with_(delivery=Delivery.SYNCHRONOUS),
    language_preset("scribble").with_(delivery=Delivery.SYNCHRONOUS),
    language_preset("trace-f").with_(delivery=Delivery.SYNCHRONOUS, interpretation=Interpretation.RR),
] + [
    preset.with_(delivery=d, reception=Reception.BLOCKING_SELECTOR)
    for preset in (language_preset("trace-c"), language_preset("trace-f").with_(interpretation=Interpretation.RR))
    for d in Delivery
]


def test_one_walk_reads_as_the_old_comparison_under_synchronous_delivery_and_the_selector():
    rng = random.Random(2929)
    checked = 0
    for i in range(450):
        kind = i % 3
        e = random_cfp(rng) if kind == 0 else random_shuffle_expr(rng) if kind == 1 else random_scribble(rng).body
        found = composition(e, SAMPLE_CONFIGS[i % len(SAMPLE_CONFIGS)], state_cap=5_000)
        if found is not None:
            assert_same_reading(*found, str(e))
            checked += 1
    assert checked >= 300


def _refuse(*args, **kwargs):
    raise AssertionError("called, though the verdict does not read it")


@pytest.mark.parametrize(
    "source,cfg",
    [
        (fixture_text("purchase.trace"), language_preset("trace-c")),
        (fixture_text("concurrent_pricing_star.trace"), language_preset("trace-c")),
        ("W -> X : p ; W -> Y : q", CONFIGS[2]),  # trace-f, FIFO, SS
        (" | ".join(f"(A -> B : Req{i} ; B -> A : Rep{i})" for i in (1, 2, 3)), CONFIGS[-1]),  # unordered, RR
    ],
)
def test_a_realizable_verdict_counts_no_paths_and_builds_no_word(monkeypatch, source, cfg):
    monkeypatch.setattr(realizability, "topological", _refuse)
    monkeypatch.setattr(realizability, "least_path", _refuse)
    assert check_realizability(parse_trace(source), cfg).realizable


def test_a_known_reason_runs_no_rule_4_walk(monkeypatch):
    cfg = CONFIGS[5]  # trace-f, FIFO, RR
    monkeypatch.setattr(realizability, "_extra_traces", _refuse)
    assert check_realizability(parse_trace("W -> X : p ; W -> Y : q"), cfg).reasons  # an OrderViolation
    asked = []

    def recording_extra_traces(expanded, graph):
        asked.append(expanded)
        return _extra_traces(expanded, graph)

    monkeypatch.setattr(realizability, "_extra_traces", recording_extra_traces)
    assert check_realizability(parse_trace("W -> X : p ; X -> Y : q"), cfg).realizable
    assert len(asked) == 1


def test_the_walk_follows_the_composition_and_reaches_no_dead_composition_side(monkeypatch):
    # the protocol x against the composition of y: y is extra (and x, which
    # no projection of a parsed protocol can lose, is missing)
    _, graph = composition(parse_trace("A -> B : y"), language_preset("trace-c"))
    expanded = expand(parse_trace("A -> B : x"), 2)
    assert old_compare_trace_sets(expanded, graph) == (1, (("A", "B", "x"),), 1, (("A", "B", "y"),))
    products = []

    def recording_explore(*args):
        products.append(explore(*args))
        return products[-1]

    monkeypatch.setattr(realizability, "explore", recording_explore)
    assert _extra_traces(expanded, graph) == (1, (("A", "B", "y"),))
    [product] = products
    assert all(c for _, c in product.states)
