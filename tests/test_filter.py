from protolab.bspl.enactment import EMISSION, MessageInstance
from protolab.cfp.fsm import extract_fsm
from protolab.cfp.projection import project_scribble, project_trace_c
from protolab.cfp.scribble_parser import parse_scribble
from protolab.cfp.trace_parser import parse_trace
from protolab.filters import BsplBackend, CfpBackend, FilterState, on_delivery, request_emission
from protolab.matrix import fixture_text
from protolab.netsim import Reception


def mi(protocol, name, **values):
    return MessageInstance.make(protocol.message(name), values)


def test_accept_then_reject_rejected(purchase):
    f = FilterState("Buyer", BsplBackend((purchase,)))
    f, rejection = request_emission(f, mi(purchase, "Request", ID="1", item="fig"))
    assert rejection is None
    f, _ = on_delivery(f, mi(purchase, "Offer", ID="1", item="fig", price="$5"))
    f, rejection = request_emission(
        f, mi(purchase, "Accept", ID="1", item="fig", price="$5", decision="deal", address="x")
    )
    assert rejection is None
    before = f.history
    f, rejection = request_emission(
        f, mi(purchase, "Reject", ID="1", item="fig", price="$5", decision="no", OK="done")
    )
    assert rejection is not None and rejection.code == "AlreadyBound"
    assert f.history == before, "a rejected emission leaves no trace in the history"


def test_first_request_accepted(purchase):
    f = FilterState("Buyer", BsplBackend((purchase,)))
    f, rejection = request_emission(f, mi(purchase, "Request", ID="1", item="fig"))
    assert rejection is None
    assert [o.kind for o in f.history.observations] == [EMISSION]


def test_multi_protocol_interleaving_accepted(pricing, catalog):
    f = FilterState("Seller", BsplBackend((pricing, catalog)))
    f, r1 = request_emission(f, mi(catalog, "Query", qID="q1", req="specials"))
    f, _ = on_delivery(f, mi(pricing, "Request", ID="1", item="fig"))
    f, r2 = request_emission(f, mi(pricing, "Offer", ID="1", price="$5"))
    f, _ = on_delivery(f, mi(catalog, "Newest", qID="q1", req="specials", products="jam"))
    assert r1 is None and r2 is None
    assert [o.instance.schema.name for o in f.history.observations] == ["Query", "Request", "Offer", "Newest"]


def test_cfp_backend_rejects_out_of_protocol_message(pricing, catalog):
    body = parse_scribble(fixture_text("concurrent_pricing.scr"))
    fsm = extract_fsm(project_scribble(body, "Seller"))
    f = FilterState("Seller", CfpBackend(fsm))
    f, rejection = request_emission(f, mi(catalog, "Query", qID="q1", req="specials"))
    assert rejection is not None and rejection.code == "NotInProtocol"


def test_cfp_backend_resolves_a_name_among_the_moves_of_its_state(pricing):
    # the machine is value-blind: each Offer matches the signature its state offers
    expr = parse_trace("Seller -> Buyer : Offer(ID:Int) ; Seller -> Buyer : Offer(ID:String)")
    seller = FilterState("Seller", CfpBackend(extract_fsm(project_trace_c(expr, "Seller"))))
    buyer = FilterState("Buyer", CfpBackend(extract_fsm(project_trace_c(expr, "Buyer"))))
    for _ in range(2):
        offer = mi(pricing, "Offer", ID="1", price="$5")
        seller, rejection = request_emission(seller, offer)
        assert rejection is None
        buyer, _ = on_delivery(buyer, offer)
    assert seller.fsm_state in seller.backend.fsm.finals and buyer.fsm_state in buyer.backend.fsm.finals
    assert buyer.diagnostics == ()
    seller, rejection = request_emission(seller, mi(pricing, "Offer", ID="1", price="$5"))
    assert rejection is not None and rejection.code == "NotInProtocol"


def test_selector_holds_early_transfer(indirect_payment):
    body = parse_scribble(fixture_text("indirect_payment.scr"))
    fsm = extract_fsm(project_scribble(body, "Seller"))
    f = FilterState("Seller", CfpBackend(fsm), reception=Reception.BLOCKING_SELECTOR)
    f, rejection = request_emission(f, mi(indirect_payment, "Offer", ID="1", item="fig", price="$5"))
    assert rejection is None
    transfer = mi(indirect_payment, "Transfer", ID="1", price="$5", instruction="wire", OK="paid")
    f, surfaced = on_delivery(f, transfer)
    assert surfaced == [], "the transfer waits until the machine expects that channel"
    assert [o.instance.schema.name for o in f.history.observations] == ["Offer"]
    accept = mi(indirect_payment, "Accept", ID="1", item="fig", price="$5", decision="deal")
    f, surfaced = on_delivery(f, accept)
    assert [m.schema.name for m in surfaced] == ["Accept", "Transfer"]
    assert [o.instance.schema.name for o in f.history.observations] == ["Offer", "Accept", "Transfer"]


def test_anytime_records_arrival_order(indirect_payment):
    f = FilterState("Seller", BsplBackend((indirect_payment,)))
    f, _ = request_emission(f, mi(indirect_payment, "Offer", ID="1", item="fig", price="$5"))
    transfer = mi(indirect_payment, "Transfer", ID="1", price="$5", instruction="wire", OK="paid")
    accept = mi(indirect_payment, "Accept", ID="1", item="fig", price="$5", decision="deal")
    f, surfaced = on_delivery(f, transfer)
    assert [m.schema.name for m in surfaced] == ["Transfer"]
    f, _ = on_delivery(f, accept)
    assert [o.instance.schema.name for o in f.history.observations] == ["Offer", "Transfer", "Accept"]
    assert f.diagnostics == ()


def test_delivery_to_empty_filter(pricing):
    f = FilterState("Seller", BsplBackend((pricing,)))
    f, surfaced = on_delivery(f, mi(pricing, "Request", ID="1", item="fig"))
    assert len(f.history.observations) == 1 and surfaced


def test_integrity_conflict_on_reception_flagged_not_refused(purchase):
    f = FilterState("Seller", BsplBackend((purchase,)))
    f, _ = on_delivery(f, mi(purchase, "Request", ID="1", item="fig"))
    # a noncompliant peer claims a different item for the same instance
    rogue = mi(purchase, "Accept", ID="1", item="jam", price="$5", decision="deal", address="x")
    f, surfaced = on_delivery(f, rogue)
    assert surfaced, "reception is recorded"
    assert any(d.code == "IntegrityConflict" for d in f.diagnostics)
    assert len(f.history.observations) == 2


def test_not_sender_rejected(purchase):
    f = FilterState("Seller", BsplBackend((purchase,)))
    f, rejection = request_emission(f, mi(purchase, "Request", ID="1", item="fig"))
    assert rejection is not None and rejection.code == "NotSender"


def test_unknown_message_rejected(purchase, catalog):
    f = FilterState("Seller", BsplBackend((purchase,)))
    f, rejection = request_emission(f, mi(catalog, "Query", qID="q1", req="specials"))
    assert rejection is not None and rejection.code == "UnknownMessage"


def filter_log(f: FilterState) -> list:
    """The filter's event trace in the shared log format, rejections included."""
    from protolab.enactlog import LogEntry

    entries = [
        LogEntry(obs.logical_day, f.owner, obs.kind, obs.instance.schema.name, obs.instance.bindings)
        for obs in f.history.observations
    ]
    last = f.history.last_tick()
    for i, (name, reason) in enumerate(f.rejections):
        entries.append(LogEntry(last + i + 1, f.owner, "X", name, (), reason))
    return entries


def test_filter_log_records_rejections(purchase):
    from protolab.enactlog import format_log

    f = FilterState("Buyer", BsplBackend((purchase,)))
    f, _ = request_emission(f, mi(purchase, "Request", ID="1", item="fig"))
    f, rejection = request_emission(f, mi(purchase, "Request", ID="1", item="plum"))
    assert rejection is not None
    entries = filter_log(f)
    assert [e.kind for e in entries] == ["E", "X"]
    assert "X Request" in format_log(entries)
