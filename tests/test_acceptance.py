"""Acceptance gate: every criterion at its stated tolerance.

Verdict criteria are exact-match (zero tolerance); the randomized suites
run at least a thousand cases each with a zero failure threshold.  Each
criterion prints one PASS line when it holds (visible with `pytest -s`).
"""

import json

from protolab.bspl.enactment import (
    RECEPTION,
    History,
    MessageInstance,
    check_emission,
    instance_views,
    is_complete,
    observe,
)
from protolab.cfp.fsm import extract_fsm
from protolab.cfp.projection import project_scribble
from protolab.cfp.scribble_parser import parse_scribble
from protolab.cfp.trace_parser import parse_trace
from protolab.cfp.transforms import eliminate_shuffle
from protolab.hapn import HapnEvent, hapn_integrity_check, parse_hapn
from protolab.matrix import (
    fixture_text,
    instances_cell,
    matches_golden,
    run_matrix,
)
from protolab.netsim import BsplAgent, Delivery, InstanceScript, Reception, SimPolicy, explore
from protolab.realizability import (
    CommConfig,
    Doctrine,
    Interpretation,
    Outcome,
    Reason,
    check_realizability,
    language_preset,
)

U, F = Delivery.UNORDERED, Delivery.FIFO_PAIRWISE
SS, SR, RS, RR = Interpretation.SS, Interpretation.SR, Interpretation.RS, Interpretation.RR


def tf(delivery, interpretation):
    return CommConfig(delivery, Reception.ANYTIME, interpretation, Doctrine.TRACE_F)


def _expr(name):
    return parse_trace(fixture_text(name))


def _golden_cases():
    """(case id, expression, config, expected outcome, required reasons)"""
    split = parse_trace("W -> X : p ; W -> Y : q")
    same = parse_trace("W -> X : p ; W -> X : q")
    flex_raw = _expr("flexible_purchase.trace")
    flex_choice = eliminate_shuffle(flex_raw)
    pricing_catalog = _expr("pricing_catalog.trace")
    want_willpay = _expr("want_willpay.trace")
    indirect = _expr("indirect_payment.trace")
    concurrent = _expr("concurrent_pricing_rec.trace")
    cases = []
    # (a) split receivers: realizable iff the constraint is send-anchored
    for delivery in (U, F):
        for interp, outcome in ((SS, Outcome.REALIZABLE), (SR, Outcome.REALIZABLE), (RS, Outcome.UNREALIZABLE), (RR, Outcome.UNREALIZABLE)):
            cases.append((f"a/{delivery.value}/{interp.value}", split, tf(delivery, interp), outcome, ()))
    # (b) same channel: FIFO restores receive-receive order
    cases.append(("b/unordered/RR", same, tf(U, RR), Outcome.UNREALIZABLE, ()))
    cases.append(("b/fifo/RR", same, tf(F, RR), Outcome.REALIZABLE, ()))
    # (c) flexible purchase: nonlocal choice everywhere
    for form, expr in (("raw", flex_raw), ("choice", flex_choice)):
        cases.append((f"c/trace-c/{form}", expr, language_preset("trace-c"), Outcome.UNREALIZABLE, (Reason.NONLOCAL_CHOICE,)))
        cases.append((f"c/scribble/{form}", expr, language_preset("scribble"), Outcome.UNREALIZABLE, (Reason.NONLOCAL_CHOICE,)))
        for delivery in (U, F):
            for interp in (SS, SR, RS, RR):
                cases.append(
                    (
                        f"c/trace-f/{form}/{delivery.value}/{interp.value}",
                        expr,
                        tf(delivery, interp),
                        Outcome.UNREALIZABLE,
                        (Reason.NONLOCAL_CHOICE,),
                    )
                )
    # (d) composed pricing+catalog
    cases.append(("d/trace-c", pricing_catalog, language_preset("trace-c"), Outcome.UNREALIZABLE, (Reason.NONLOCAL_CHOICE,)))
    cases.append(("d/trace-f", pricing_catalog, tf(F, RR), Outcome.UNREALIZABLE, (Reason.NONLOCAL_CHOICE,)))
    # (e) want+willpay: FIFO realizable, unordered not
    cases.append(("e/trace-c/fifo", want_willpay, language_preset("trace-c"), Outcome.REALIZABLE, ()))
    cases.append(("e/trace-c/unordered", want_willpay, language_preset("trace-c").with_(delivery=U), Outcome.UNREALIZABLE, ()))
    cases.append(("e/scribble/fifo", want_willpay, language_preset("scribble"), Outcome.REALIZABLE, ()))
    cases.append(("e/scribble/unordered", want_willpay, language_preset("scribble").with_(delivery=U), Outcome.UNREALIZABLE, ()))
    for interp in (SS, SR, RR):
        cases.append((f"e/trace-f/fifo/{interp.value}", want_willpay, tf(F, interp), Outcome.REALIZABLE, ()))
        cases.append((f"e/trace-f/unordered/{interp.value}", want_willpay, tf(U, interp), Outcome.UNREALIZABLE, ()))
    # (f) indirect payment: FIFO insufficient with three parties
    cases.append(("f/trace-c", indirect, language_preset("trace-c"), Outcome.UNREALIZABLE, ()))
    for interp in (SS, SR, RS, RR):
        cases.append((f"f/trace-f/fifo/{interp.value}", indirect, tf(F, interp), Outcome.UNREALIZABLE, ()))
    cases.append(("f/scribble", indirect, language_preset("scribble"), Outcome.REALIZABLE, ()))
    # (g) recursive pricing: unordered delivery crosses the repeated schema
    cases.append(("g/unordered/RR", concurrent, tf(U, RR), Outcome.UNREALIZABLE, ()))
    cases.append(("g/fifo/RR", concurrent, tf(F, RR), Outcome.REALIZABLE, ()))
    return cases


def _run_golden():
    results = []
    for case_id, expr, cfg, expected, required in _golden_cases():
        verdict = check_realizability(expr, cfg)
        results.append((case_id, cfg, verdict, expected, required))
    return results


def test_criterion_1_realizability_golden_suite():
    failures = []
    results = _run_golden()
    for case_id, _, verdict, expected, required in results:
        if verdict.outcome is not expected:
            failures.append(f"{case_id}: got {verdict.outcome.value}, want {expected.value}")
        for reason in required:
            if reason not in verdict.reasons:
                failures.append(f"{case_id}: missing reason {reason.value}")
        if verdict.outcome is Outcome.UNREALIZABLE and not (verdict.reasons and verdict.witness):
            failures.append(f"{case_id}: unrealizable without reasons and a witness")
    assert not failures, failures
    print(f"\nACCEPTANCE 1 realizability golden suite ({len(results)} verdicts): PASS")


def _purchase_rows():
    return [
        {
            "ID": "1",
            "item": "fig",
            "price": "$5",
            "decision": "deal",
            "OK": "fine",
            "address": "24 Hill St",
            "dropOff": "porch",
        }
    ]


def test_criterion_2_bspl_enactment_suite(purchase, flexible_purchase):
    # Purchase: exhaustive exploration yields exactly the two instance shapes
    scripts = [InstanceScript.make(purchase, _purchase_rows())]
    agents = [BsplAgent(r, scripts) for r in purchase.roles]
    result = explore(agents, SimPolicy(Delivery.UNORDERED))
    assert not result.bound_exceeded
    shapes = set()
    for vec in result.enactments:
        views = instance_views(list(vec), purchase)
        assert len(views) == 1
        names = frozenset(m.schema.name for m in views[0].contributing)
        shapes.add(names)
        assert not ({"Accept", "Reject"} <= names), "accept and reject are mutually exclusive per key"
        terminal = "Payment" in names or "Reject" in names
        assert is_complete(views[0], purchase) == terminal
    assert shapes == {
        frozenset({"Request", "Offer", "Accept", "Deliver", "Payment"}),
        frozenset({"Request", "Offer", "Reject"}),
    }

    # Flexible purchase: the three enactments all reachable and compliant
    from protolab.matrix import concurrency_cell

    flex = concurrency_cell("BSPL")
    assert flex.verdict == "Yes", [e.to_record() for e in flex.evidence]

    # Pricing: all four enactments reachable and compliant under unordering
    cell = instances_cell("BSPL")
    assert cell.verdict == "Yes", [e.to_record() for e in cell.evidence]
    print("\nACCEPTANCE 2 information-protocol enactment suite: PASS")


def test_criterion_3_integrity_suite(purchase):
    # the value-blind session machine accepts the conflicting run
    body = parse_scribble(fixture_text("alt_pricing.scr"))
    fsm = extract_fsm(project_scribble(body, "Seller"))
    after_request = fsm.move(fsm.initial, "Buyer", "?", "Request")
    assert after_request is not None and fsm.move(after_request, "Buyer", "!", "Offer") is not None

    # the information-protocol filter rejects the same emission
    seller = observe(
        History("Seller"), RECEPTION, MessageInstance.make(purchase.message("Request"), {"ID": "1", "item": "fig"})
    )
    offer = MessageInstance.make(purchase.message("Offer"), {"ID": "1", "item": "jam", "price": "$5"})
    error = check_emission(seller, offer, purchase)
    assert error is not None and error.code in ("IntegrityConflict", "AlreadyBound")

    # the state-machine conflict check flags rebinding without unbind
    machine = parse_hapn(fixture_text("concurrent_pricing.hapn"))
    run = [
        HapnEvent.make("Buyer", "Seller", "Request", ID="1", item="fig"),
        HapnEvent.make("Seller", "Buyer", "Offer", ID="1", price="$5"),
        HapnEvent.make("Buyer", "Seller", "Request", ID="1", item="fig"),
        HapnEvent.make("Seller", "Buyer", "Offer", ID="1", price="$6"),
    ]
    conflict = hapn_integrity_check(machine, run)
    assert conflict is not None and conflict.variable == "price"
    print("\nACCEPTANCE 3 integrity suite: PASS")


def test_criterion_4_matrix_reproduction():
    report = run_matrix()
    ok, mismatches = matches_golden(report)
    assert ok, mismatches
    print("\nACCEPTANCE 4 evaluation-matrix reproduction (5x7 cells): PASS")


def test_criterion_5_property_suites(pricing, purchase):
    import test_properties as props

    props.test_network_noncreativity_and_fifo_order()
    props.test_eliminate_shuffle_preserves_trace_sets()
    props.test_check_emission_agrees_with_clause_oracle(pricing)
    props.test_commitment_lifecycle_agrees_with_oracle(purchase)
    props.test_parse_print_roundtrips_all_formats()
    print("\nACCEPTANCE 5 randomized property suites (>=1000 cases each): PASS")


def test_criterion_6_determinism():
    first = run_matrix()
    second = run_matrix()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    golden_a = [(cid, v.to_record("p", cfg)) for cid, cfg, v, _, _ in _run_golden()]
    golden_b = [(cid, v.to_record("p", cfg)) for cid, cfg, v, _, _ in _run_golden()]
    assert json.dumps(golden_a, sort_keys=True) == json.dumps(golden_b, sort_keys=True)
    print("\nACCEPTANCE 6 determinism (matrix and golden suite byte-stable): PASS")
