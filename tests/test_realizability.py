import pytest

from protolab.cfp.trace_parser import parse_trace
from protolab.cfp.transforms import eliminate_shuffle, expand
from protolab.matrix import fixture_text
from protolab.netsim import Delivery, Reception
from protolab.realizability import (
    CommConfig,
    Doctrine,
    Interpretation,
    Outcome,
    Reason,
    check_realizability,
    detect_nonlocal_choice,
    language_preset,
    sequence_constraints,
)


def tf(delivery, interpretation):
    return CommConfig(delivery, Reception.ANYTIME, interpretation, Doctrine.TRACE_F)


def test_language_presets():
    tc = language_preset("trace-c")
    assert tc.delivery is Delivery.FIFO_PAIRWISE and tc.reception is Reception.ANYTIME
    assert tc.interpretation is Interpretation.RR and tc.doctrine is Doctrine.TRACE_C
    tfp = language_preset("trace-f")
    assert tfp.delivery is None and tfp.interpretation is None
    scr = language_preset("scribble")
    assert scr.delivery is Delivery.FIFO_PAIRWISE and scr.reception is Reception.BLOCKING_SELECTOR
    hapn = language_preset("hapn")
    assert hapn.delivery is Delivery.SYNCHRONOUS


def test_preset_requires_completion():
    e = parse_trace("A -> B : x")
    with pytest.raises(ValueError):
        check_realizability(e, language_preset("trace-f"))


def test_sequence_constraints_ss_example():
    e = parse_trace("W -> X : p ; W -> Y : q")
    constraints = sequence_constraints(e, Interpretation.SS)
    assert [str(c) for c in constraints] == ["send(p) < send(q)"]


def test_sequence_constraints_single_atom_empty():
    assert sequence_constraints(parse_trace("A -> B : x"), Interpretation.RR) == ()


def test_sequence_constraints_purchase_rr_hand_enumeration():
    e = parse_trace(fixture_text("purchase.trace"))
    constraints = sequence_constraints(e, Interpretation.RR)
    got = sorted(str(c) for c in constraints)
    assert got == sorted(
        [
            "recv(Request) < recv(Offer)",
            "recv(Offer) < recv(Accept)",
            "recv(Offer) < recv(Reject)",
            "recv(Accept) < recv(Deliver)",
            "recv(Deliver) < recv(Payment)",
        ]
    )


def test_nonlocal_choice_pricing_catalog_single_diagnostic():
    e = parse_trace(fixture_text("pricing_catalog.trace"))
    diagnostics = detect_nonlocal_choice(e)
    assert len(diagnostics) == 1
    assert "Buyer" in diagnostics[0].message and "Seller" in diagnostics[0].message


def test_nonlocal_choice_purchase_empty():
    assert detect_nonlocal_choice(parse_trace(fixture_text("purchase.trace"))) == []


def test_nonlocal_choice_duplicated_branch_empty():
    from protolab.cfp.ast import Atom, Choice

    a = Atom("A", "B", "x")
    b = Atom("A", "B", "y")
    assert detect_nonlocal_choice(Choice((a, b))) == []


def test_nonlocal_choice_flexible_purchase():
    raw = parse_trace(fixture_text("flexible_purchase.trace"))
    assert len(detect_nonlocal_choice(raw)) == 1
    assert len(detect_nonlocal_choice(eliminate_shuffle(raw))) == 1


def test_split_order_example_all_interpretations():
    e = parse_trace("W -> X : p ; W -> Y : q")
    realizable = {Interpretation.SS, Interpretation.SR}
    for delivery in (Delivery.UNORDERED, Delivery.FIFO_PAIRWISE):
        for interp in Interpretation:
            verdict = check_realizability(e, tf(delivery, interp))
            if interp in realizable:
                assert verdict.outcome is Outcome.REALIZABLE, (delivery, interp)
            else:
                assert verdict.outcome is Outcome.UNREALIZABLE, (delivery, interp)
                assert Reason.ORDER_VIOLATION in verdict.reasons


def test_same_channel_example_rr():
    e = parse_trace("W -> X : p ; W -> X : q")
    unordered = check_realizability(e, tf(Delivery.UNORDERED, Interpretation.RR))
    assert unordered.outcome is Outcome.UNREALIZABLE
    assert Reason.ORDER_VIOLATION in unordered.reasons
    fifo = check_realizability(e, tf(Delivery.FIFO_PAIRWISE, Interpretation.RR))
    assert fifo.outcome is Outcome.REALIZABLE


def test_flexible_purchase_trace_c_reasons():
    e = eliminate_shuffle(parse_trace(fixture_text("flexible_purchase.trace")))
    verdict = check_realizability(e, language_preset("trace-c"))
    assert verdict.outcome is Outcome.UNREALIZABLE
    assert Reason.NONLOCAL_CHOICE in verdict.reasons
    assert Reason.DEADLOCK in verdict.reasons
    assert verdict.witness, "an unrealizable verdict carries a concrete witness"


def test_indirect_payment_verdicts():
    e = parse_trace(fixture_text("indirect_payment.trace"))
    assert check_realizability(e, language_preset("trace-c")).outcome is Outcome.UNREALIZABLE
    for interp in Interpretation:
        assert check_realizability(e, tf(Delivery.FIFO_PAIRWISE, interp)).outcome is Outcome.UNREALIZABLE
    scribble = check_realizability(e, language_preset("scribble"))
    assert scribble.outcome is Outcome.REALIZABLE


def test_purchase_realizable_under_trace_c_preset():
    e = parse_trace(fixture_text("purchase.trace"))
    assert check_realizability(e, language_preset("trace-c")).outcome is Outcome.REALIZABLE


def test_verdict_deterministic():
    e = parse_trace(fixture_text("flexible_purchase.trace"))
    first = check_realizability(e, language_preset("trace-c"))
    second = check_realizability(e, language_preset("trace-c"))
    assert first == second


def test_unrealizable_witness_monotone_in_bound():
    e = parse_trace("W -> X : p ; W -> X : q")
    for bound in (2, 3, 4):
        verdict = check_realizability(e, tf(Delivery.UNORDERED, Interpretation.RR), bound=bound)
        assert verdict.outcome is Outcome.UNREALIZABLE
        assert Reason.ORDER_VIOLATION in verdict.reasons


def test_synchronous_delivery_receptions_adjacent():
    e = parse_trace(fixture_text("purchase.trace"))
    cfg = CommConfig(Delivery.SYNCHRONOUS, Reception.ANYTIME, Interpretation.RR, Doctrine.TRACE_F)
    verdict = check_realizability(e, cfg)
    assert verdict.outcome is Outcome.REALIZABLE
    # on the composition graph, every emission leads to a state whose only
    # move is the matching reception
    from protolab.realizability import _project_all
    from protolab.runtime import compose

    graph = compose(_project_all(expand(e, 2), cfg), Delivery.SYNCHRONOUS, Reception.ANYTIME)
    emissions = [(ev, t) for out in graph.edges for ev, t in out if ev and ev[0] == "E"]
    assert emissions
    for ev, t in emissions:
        [(only, _)] = graph.edges[t]
        assert only == ("R",) + ev[1:]


def test_trace_mismatch_reason_reserved_for_pure_mismatch():
    # a protocol whose only issue is an unreachable trace: a choice where one
    # branch deadlocks is reported by its primary reasons, not TraceMismatch
    e = eliminate_shuffle(parse_trace(fixture_text("pricing_catalog.trace")))
    verdict = check_realizability(e, language_preset("trace-c"))
    assert verdict.outcome is Outcome.UNREALIZABLE
    assert verdict.reasons[0] is Reason.NONLOCAL_CHOICE


def test_verdict_record_shape():
    e = parse_trace("W -> X : p ; W -> X : q")
    cfg = tf(Delivery.FIFO_PAIRWISE, Interpretation.RR)
    record = check_realizability(e, cfg).to_record("two-hop", cfg)
    assert record["outcome"] == "Realizable"
    assert record["config"]["delivery"] == "fifo"
    assert record["config"]["interpretation"] == "RR"


def test_bound_exceeded_is_inconclusive():
    e = parse_trace(fixture_text("purchase.trace"))
    verdict = check_realizability(e, language_preset("trace-c"), state_cap=3)
    assert verdict.outcome is Outcome.BOUND_EXCEEDED
    assert verdict.reasons == ()
    assert verdict.notes == ("exploration bound exceeded: the composition state cap (3 states) fired; inconclusive",)


def test_starred_repetition_realizable_under_ordered_preset():
    # loop boundaries are both final and continuable; every iteration count
    # up to the bound is a completed execution
    star = parse_trace(fixture_text("concurrent_pricing_star.trace"))
    verdict = check_realizability(star, language_preset("trace-c"))
    assert verdict.outcome is Outcome.REALIZABLE
