"""Scenario suite deriving the five-language evaluation matrix from running
checks rather than judgment calls.

Verdict mapping, per criterion:

- Instances: Yes iff all four concurrent-pricing enactments are accepted,
  Partial iff at least one, No iff none.
- Integrity: Yes iff the conflicting fig/jam enactment is rejected under
  the language's own (asynchronous) operation; Partial iff it is rejected
  only under the language's native assumptions (a synchronous shared store,
  or a scoped-parameter mechanism that misses unscoped conflicts); No iff
  it is accepted.
- Social meaning: Yes iff Instances and Integrity are both Yes; Partial if
  either is Partial; No otherwise.
- Concurrency: Yes iff the flexible-purchase fixture is enactable with the
  crossing (concurrent) enactment.
- Extensibility: Yes iff the interleaved pricing+catalog enactment passes
  the language's compliance check for the seller.
- Asynchrony: Yes iff the language preset works without synchrony.
- Unordering: Yes iff dropping FIFO leaves every verdict on the
  want+willpay and indirect-payment fixtures unchanged.

Every compliance question is asked of the per-agent protocol filters
(`filters`, with the language's backend): an enactment is replayed in
order through one filter per role it concerns.  An enactment is accepted
iff no filter refuses an emission or flags a reception; Extensibility and
BSPL's Integrity ask only of the seller's emissions.  Each fixture is read
and parsed once per process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources

from .bspl.core import InfoProtocol, parse_bspl
from .bspl.enactment import EMISSION, RECEPTION, History, MessageInstance, instance_views, is_complete, observe
from .cfp.fsm import TypeLevelFsm, extract_fsm
from .cfp.projection import project_scribble, project_trace_c, project_trace_f
from .cfp.scribble_parser import parse_scribble
from .cfp.trace_parser import parse_trace
from .commitments import LifecycleState, commitment_states, parse_cupid
from .filters import BsplBackend, CfpBackend, FilterState, HapnBackend, Rejection, on_delivery, request_emission
from .hapn import HapnEvent, conforms, hapn_integrity_check, parse_hapn
from .netsim import BsplAgent, Delivery, ExplorationResult, InstanceScript, SimPolicy, explore, history_key
from .realizability import CommConfig, Interpretation, check_realizability, language_preset

LANGUAGES = ("Scribble", "TraceC", "TraceF", "HAPN", "BSPL")
CRITERIA = ("Instances", "Integrity", "SocialMeaning", "Concurrency", "Extensibility", "Asynchrony", "Unordering")
CFP_LANGUAGES = ("Scribble", "TraceC", "TraceF")

SCHEMA_VERSION = "1"

# parser by fixture extension, by name: it is looked up in the module at
# call time, so a wrapper installed on the module attribute sees the call
_PARSERS = {
    "bspl": "parse_bspl",
    "cupid": "parse_cupid",
    "hapn": "parse_hapn",
    "scr": "parse_scribble",
    "trace": "parse_trace",
}


def fixture_text(name: str) -> str:
    return resources.files("protolab.fixtures").joinpath(name).read_text()


@cache
def _load(name: str):
    """The fixture `name` parsed by its extension, once per process; every
    parsed form is immutable."""
    return globals()[_PARSERS[name.rsplit(".", 1)[1]]](fixture_text(name))


@dataclass(frozen=True)
class Evidence:
    scenario: str
    outcome: str
    detail: str = ""

    def to_record(self) -> dict:
        return {"scenario": self.scenario, "outcome": self.outcome, "detail": self.detail}


@dataclass(frozen=True)
class CriterionReport:
    language: str
    criterion: str
    verdict: str  # Yes | Partial | No
    evidence: tuple[Evidence, ...]

    def to_record(self) -> dict:
        return {
            "language": self.language,
            "criterion": self.criterion,
            "verdict": self.verdict,
            "evidence": [e.to_record() for e in self.evidence],
        }


# ---------------------------------------------------------------------------
# shared enactment encodings (message instances + global event orders)

_MSG = {
    "R1": ("Buyer", "Seller", "Request", {"ID": "1", "item": "fig"}),
    "O1": ("Seller", "Buyer", "Offer", {"ID": "1", "price": "$5"}),
    "R2": ("Buyer", "Seller", "Request", {"ID": "2", "item": "jam"}),
    "O2": ("Seller", "Buyer", "Offer", {"ID": "2", "price": "$6"}),
}

# the four concurrent-pricing enactments: serial, replies reversed,
# request/offer crossing, requests crossing (out of order)
PRICING_ENACTMENTS = {
    "serial": (("E", "R1"), ("R", "R1"), ("E", "O1"), ("R", "O1"), ("E", "R2"), ("R", "R2"), ("E", "O2"), ("R", "O2")),
    "replies-reversed": (
        ("E", "R1"),
        ("R", "R1"),
        ("E", "R2"),
        ("R", "R2"),
        ("E", "O2"),
        ("R", "O2"),
        ("E", "O1"),
        ("R", "O1"),
    ),
    "concurrent": (
        ("E", "R1"),
        ("R", "R1"),
        ("E", "O1"),
        ("E", "R2"),
        ("R", "O1"),
        ("R", "R2"),
        ("E", "O2"),
        ("R", "O2"),
    ),
    "out-of-order": (
        ("E", "R1"),
        ("E", "R2"),
        ("R", "R2"),
        ("E", "O2"),
        ("R", "O2"),
        ("R", "R1"),
        ("E", "O1"),
        ("R", "O1"),
    ),
}


def _fifo_feasible(events) -> bool:
    sent: dict[tuple[str, str], list[str]] = {}
    received: dict[tuple[str, str], list[str]] = {}
    for kind, mid in events:
        sender, receiver, _, _ = _MSG[mid]
        chan = (sender, receiver)
        (sent if kind == "E" else received).setdefault(chan, []).append(mid)
    return all(received.get(chan, []) == ids[: len(received.get(chan, []))] for chan, ids in sent.items())


def _sync_feasible(events) -> bool:
    for i, (kind, mid) in enumerate(events):
        if kind == "E" and not (i + 1 < len(events) and events[i + 1] == ("R", mid)):
            return False
    return True


@cache
def _pricing_fsms(language: str) -> dict[str, TypeLevelFsm]:
    """Buyer's and Seller's pricing machines, built once for every cell."""
    if language == "Scribble":
        body = _load("concurrent_pricing.scr")
        return {r: extract_fsm(project_scribble(body, r)) for r in ("Buyer", "Seller")}
    if language == "TraceC":
        expr = _load("concurrent_pricing_star.trace")
        return {r: extract_fsm(project_trace_c(expr, r)) for r in ("Buyer", "Seller")}
    expr = _load("concurrent_pricing_rec.trace")
    return {r: extract_fsm(project_trace_f(expr, r)) for r in ("Buyer", "Seller")}


def _pricing_msgs(protocol: InfoProtocol) -> dict[str, MessageInstance]:
    out = {}
    for mid, (_, _, name, bindings) in _MSG.items():
        out[mid] = MessageInstance.make(protocol.message(name), bindings)
    return out


def _replay(steps, backends: dict) -> tuple[dict[str, FilterState], list[tuple[MessageInstance, Rejection]]]:
    """Feed an enactment, in order, to one filter per role of `backends`: an
    emission is requested of its sender's filter, a delivery handed to its
    receiver's; steps of other roles are skipped.  Returns the filters and
    every refused emission with its rejection."""
    states = {role: FilterState(role, backend) for role, backend in backends.items()}
    refused = []
    for kind, mi in steps:
        role = mi.schema.sender if kind == EMISSION else mi.schema.receiver
        if role not in states:
            continue
        if kind == EMISSION:
            states[role], rejection = request_emission(states[role], mi)
            if rejection is not None:
                refused.append((mi, rejection))
        else:
            states[role], _ = on_delivery(states[role], mi)
    return states, refused


def _accepted(f: FilterState) -> bool:
    """Whether the filter refused no emission and flagged no reception."""
    return not f.rejections and not f.diagnostics


def _enactments(protocol: InfoProtocol, rows, delivery: Delivery) -> ExplorationResult:
    """Every enactment, by one agent per role, of one instance per row."""
    scripts = [InstanceScript.make(protocol, rows)]
    return explore([BsplAgent(role, scripts) for role in protocol.roles], SimPolicy(delivery))


# ---------------------------------------------------------------------------
# criterion scenarios


def instances_cell(language: str) -> CriterionReport:
    evidence = []
    accepted = 0
    if language == "HAPN":
        machine = _load("concurrent_pricing.hapn")
        for name, events in PRICING_ENACTMENTS.items():
            feasible = _sync_feasible(events)
            seq = [_hapn_event_for(mid) for kind, mid in events if kind == "E"]
            ok = feasible and conforms(machine, seq)
            accepted += ok
            evidence.append(
                Evidence(
                    f"pricing-enactment-{name}",
                    "accepted" if ok else "rejected",
                    "synchronous run" if ok else ("not expressible synchronously" if not feasible else "machine rejects"),
                )
            )
    else:
        protocol = _load("pricing.bspl")
        msgs = _pricing_msgs(protocol)
        if language == "BSPL":
            backends = {role: BsplBackend((protocol,)) for role in protocol.roles}
            rows = [{"ID": "1", "item": "fig", "price": "$5"}, {"ID": "2", "item": "jam", "price": "$6"}]
            explored = _enactments(protocol, rows, Delivery.UNORDERED)
            reachable = {tuple(map(history_key, vec)) for vec in explored.enactments}
        else:
            backends = {role: CfpBackend(fsm) for role, fsm in _pricing_fsms(language).items()}
        for name, events in PRICING_ENACTMENTS.items():
            states, _ = _replay([(kind, msgs[mid]) for kind, mid in events], backends)
            rejecting = [role for role, f in states.items() if not _accepted(f)]
            if language == "BSPL":
                ok = not rejecting and tuple(history_key(f.history) for f in states.values()) in reachable
                detail = "compliant and reachable under unordered delivery" if ok else "replay failed"
            elif not _fifo_feasible(events):
                ok, detail = False, "violates the FIFO delivery assumption"
            elif rejecting:
                ok, detail = False, f"{rejecting[0]}'s local machine rejects its event order"
            else:
                ok, detail = True, "local machines and FIFO assumption"
            accepted += ok
            evidence.append(Evidence(f"pricing-enactment-{name}", "accepted" if ok else "rejected", detail))
    verdict = "Yes" if accepted == len(PRICING_ENACTMENTS) else ("Partial" if accepted else "No")
    return CriterionReport(language, "Instances", verdict, tuple(evidence))


def _hapn_event_for(mid: str) -> HapnEvent:
    sender, receiver, name, bindings = _MSG[mid]
    return HapnEvent.make(sender, receiver, name, **bindings)


# what each control-flow language's fig/jam run shows
_TYPE_RUN_DETAIL = {
    "Scribble": "labels carry data types only; the conflicting item values never appear",
    "TraceC": "message contents are opaque",
    "TraceF": "trace semantics ignore payloads",
}


def integrity_cell(language: str) -> CriterionReport:
    evidence = []
    protocol = _load("purchase.bspl")
    # the seller receives a fig request, then offers jam under the same ID
    fig_jam = (
        (RECEPTION, MessageInstance.make(protocol.message("Request"), {"ID": "1", "item": "fig"})),
        (EMISSION, MessageInstance.make(protocol.message("Offer"), {"ID": "1", "item": "jam", "price": "$5"})),
    )
    if language in CFP_LANGUAGES:
        if language == "Scribble":
            fsm = extract_fsm(project_scribble(_load("alt_pricing.scr"), "Seller"))
        else:
            fsm = _pricing_fsms(language)["Seller"]
        states, _ = _replay(fig_jam, {"Seller": CfpBackend(fsm)})
        accepted = _accepted(states["Seller"])
        evidence.append(Evidence("fig-jam-type-run", "accepted" if accepted else "rejected", _TYPE_RUN_DETAIL[language]))
        verdict = "No" if accepted else "Yes"
        if language == "TraceF":
            scoped_rejects = _fresh_scope_conflict("ID", [[{"ID": "1"}, {"ID": "2"}]])
            unscoped_accepts = not _fresh_scope_conflict("ID", [[{"ID": "1", "item": "fig"}, {"ID": "1", "item": "jam"}]])
            evidence.append(
                Evidence(
                    "scoped-binding-probe",
                    "rejected" if scoped_rejects else "accepted",
                    "a fresh-binding scope pins the scoped parameter for the whole iteration",
                )
            )
            evidence.append(
                Evidence(
                    "unscoped-conflict-probe",
                    "accepted" if unscoped_accepts else "rejected",
                    "parameters outside the scope mechanism stay unchecked",
                )
            )
            if accepted and scoped_rejects and unscoped_accepts:
                verdict = "Partial"
    elif language == "HAPN":
        machine = _load("concurrent_pricing.hapn")
        run = [
            HapnEvent.make("Buyer", "Seller", "Request", ID="1", item="fig"),
            HapnEvent.make("Seller", "Buyer", "Offer", ID="1", price="$5"),
            HapnEvent.make("Buyer", "Seller", "Request", ID="1", item="fig"),
            HapnEvent.make("Seller", "Buyer", "Offer", ID="1", price="$6"),
        ]
        conflict = hapn_integrity_check(machine, run)
        evidence.append(
            Evidence(
                "value-rebinding-run",
                "rejected" if conflict else "accepted",
                str(conflict) if conflict else "no conflict detected",
            )
        )
        evidence.append(Evidence("native-assumptions", "synchronous", "detection relies on a shared synchronous store"))
        verdict = "Partial" if conflict else "No"
    else:
        _, refused = _replay(fig_jam, {"Seller": BsplBackend((protocol,))})
        rejection = refused[0][1] if refused else None
        evidence.append(
            Evidence(
                "fig-jam-emission",
                "rejected" if rejection else "accepted",
                rejection.detail if rejection else "",
            )
        )
        verdict = "Yes" if rejection is not None and rejection.code in ("IntegrityConflict", "AlreadyBound") else "No"
    return CriterionReport(language, "Integrity", verdict, tuple(evidence))


def _fresh_scope_conflict(scope_param: str, iterations: list[list[dict[str, str]]]) -> bool:
    """Fresh-binding scope rule: within one iteration scope the scoped
    parameter keeps its first binding; other parameters are not covered."""
    for scope in iterations:
        pinned: str | None = None
        for bindings in scope:
            if scope_param not in bindings:
                continue
            if pinned is None:
                pinned = bindings[scope_param]
            elif bindings[scope_param] != pinned:
                return True
    return False


def social_meaning_cell(language: str, instances: str, integrity: str) -> CriterionReport:
    evidence = [
        Evidence("derived-from", f"Instances={instances}, Integrity={integrity}", "meaning-level soundness needs both"),
    ]
    if instances == "Yes" and integrity == "Yes":
        verdict = "Yes"
    elif "Partial" in (instances, integrity):
        verdict = "Partial"
    else:
        verdict = "No"
    if language == "BSPL" and verdict == "Yes":
        state = _bspl_commitment_demo()
        evidence.append(Evidence("deliver-payment-commitment", state.value, "Accept day 0, Deliver day 2, Payment day 4"))
        if state is not LifecycleState.DISCHARGED:
            verdict = "No"
    return CriterionReport(language, "SocialMeaning", verdict, tuple(evidence))


def _bspl_commitment_demo() -> LifecycleState:
    protocol = _load("purchase.bspl")
    spec = _load("deliver_payment.cupid")
    msg = lambda name, **vals: MessageInstance.make(protocol.message(name), vals)
    request = msg("Request", ID="1", item="fig")
    offer = msg("Offer", ID="1", item="fig", price="$5")
    accept = msg("Accept", ID="1", item="fig", price="$5", decision="deal", address="24 Hill St")
    deliver = msg("Deliver", ID="1", item="fig", address="24 Hill St", dropOff="porch")
    payment = msg("Payment", ID="1", price="$5", dropOff="porch", OK="paid")
    buyer = History("Buyer")
    for kind, mi, day in [
        (EMISSION, request, 0),
        (RECEPTION, offer, 0),
        (EMISSION, accept, 0),
        (RECEPTION, deliver, 2),
        (EMISSION, payment, 4),
    ]:
        buyer = observe(buyer, kind, mi, day=day)
    seller = History("Seller")
    for kind, mi, day in [
        (RECEPTION, request, 0),
        (EMISSION, offer, 0),
        (RECEPTION, accept, 0),
        (EMISSION, deliver, 2),
        (RECEPTION, payment, 4),
    ]:
        seller = observe(seller, kind, mi, day=day)
    instances = commitment_states(spec, [buyer, seller], protocol, now=5)
    return instances[0].state if instances else LifecycleState.NULL


def concurrency_cell(language: str) -> CriterionReport:
    evidence = []
    if language in CFP_LANGUAGES:
        verdict_obj = check_realizability(_load("flexible_purchase.trace"), _preset_for(language))
        evidence.append(
            Evidence(
                "flexible-purchase-realizability",
                verdict_obj.outcome.value,
                ", ".join(r.value for r in verdict_obj.reasons),
            )
        )
        verdict = "Yes" if verdict_obj.realizable else "No"
    elif language == "HAPN":
        machine = _load("flexible_purchase.hapn")
        serial_ok = all(
            conforms(machine, [_flex_event(n) for n in order])
            for order in (("Request", "Payment", "Shipment"), ("Request", "Shipment", "Payment"))
        )
        concurrent_events = (
            ("E", "Request"),
            ("R", "Request"),
            ("E", "Payment"),
            ("E", "Shipment"),
            ("R", "Payment"),
            ("R", "Shipment"),
        )
        feasible = _sync_feasible(concurrent_events)
        evidence.append(Evidence("serial-enactments", "accepted" if serial_ok else "rejected"))
        evidence.append(
            Evidence(
                "concurrent-enactment",
                "expressible" if feasible else "not-expressible",
                "crossing messages have no synchronous rendering",
            )
        )
        verdict = "Yes" if serial_ok and feasible else "No"
    else:
        rows = [{"ID": "1", "item": "fig", "shipped": "T", "paid": "T"}]
        explored = _enactments(_load("flexible_purchase.bspl"), rows, Delivery.UNORDERED)
        signatures = {tuple(map(history_key, vec)) for vec in explored.enactments}
        targets = {
            "shipment-first": (
                ("Buyer", (("E", "Request"), ("R", "Shipment"), ("E", "Payment"))),
                ("Seller", (("R", "Request"), ("E", "Shipment"), ("R", "Payment"))),
            ),
            "payment-first": (
                ("Buyer", (("E", "Request"), ("E", "Payment"), ("R", "Shipment"))),
                ("Seller", (("R", "Request"), ("R", "Payment"), ("E", "Shipment"))),
            ),
            "concurrent": (
                ("Buyer", (("E", "Request"), ("E", "Payment"), ("R", "Shipment"))),
                ("Seller", (("R", "Request"), ("E", "Shipment"), ("R", "Payment"))),
            ),
        }
        found = {}
        for name, target in targets.items():
            found[name] = any(_matches_shape(sig, target) for sig in signatures)
            evidence.append(Evidence(f"flexible-purchase-{name}", "reachable" if found[name] else "unreachable"))
        verdict = "Yes" if all(found.values()) else "No"
    return CriterionReport(language, "Concurrency", verdict, tuple(evidence))


def _matches_shape(signature, target) -> bool:
    shape = tuple((agent, tuple((kind, name) for kind, name, _ in seq)) for agent, seq in signature)
    return shape == target


def _flex_event(name: str) -> HapnEvent:
    sender = {"Request": "Buyer", "Payment": "Buyer", "Shipment": "Seller"}[name]
    receiver = "Seller" if sender == "Buyer" else "Buyer"
    return HapnEvent.make(sender, receiver, name)


def extensibility_cell(language: str) -> CriterionReport:
    pricing = _load("pricing.bspl")
    catalog = _load("catalog.bspl")
    request = MessageInstance.make(pricing.message("Request"), {"ID": "1", "item": "fig"})
    offer = MessageInstance.make(pricing.message("Offer"), {"ID": "1", "price": "$5"})
    query = MessageInstance.make(catalog.message("Query"), {"qID": "q1", "req": "specials"})
    newest = MessageInstance.make(catalog.message("Newest"), {"qID": "q1", "req": "specials", "products": "jam"})
    if language == "BSPL":
        backend = BsplBackend((pricing, catalog))
    elif language == "HAPN":
        backend = HapnBackend(_load("concurrent_pricing.hapn"))
    else:
        backend = CfpBackend(_pricing_fsms(language)["Seller"])
    steps = ((EMISSION, query), (RECEPTION, request), (EMISSION, offer), (RECEPTION, newest))
    _, refused = _replay(steps, {"Seller": backend})
    if refused:
        mi, rejection = refused[0]
        detail = "a fitting agent observes no message outside the protocol" if language in CFP_LANGUAGES else str(rejection)
        evidence = Evidence(f"seller-{mi.schema.name}", "rejected", detail)
    else:
        evidence = Evidence("interleaved-pricing-catalog", "accepted", "all four observations recorded")
    return CriterionReport(language, "Extensibility", "No" if refused else "Yes", (evidence,))


def asynchrony_cell(language: str) -> CriterionReport:
    if language == "BSPL":
        delivery = Delivery.UNORDERED
    elif language == "HAPN":
        delivery = Delivery.SYNCHRONOUS
    else:
        delivery = _preset_for(language).delivery
    verdict = "No" if delivery is Delivery.SYNCHRONOUS else "Yes"
    return CriterionReport(
        language,
        "Asynchrony",
        verdict,
        (Evidence("preset-delivery", delivery.value, "the language's assumed infrastructure"),),
    )


def unordering_cell(language: str) -> CriterionReport:
    evidence = []
    if language == "HAPN":
        evidence.append(Evidence("preset-delivery", "synchronous", "no asynchronous operation to weaken"))
        return CriterionReport(language, "Unordering", "No", tuple(evidence))
    if language == "BSPL":
        same = True
        for fixture, rows in [
            ("want_willpay.bspl", [{"ID": "1", "item": "fig", "price": "$5"}]),
            (
                "indirect_payment.bspl",
                [{"ID": "1", "item": "fig", "price": "$5", "decision": "deal", "instruction": "wire", "OK": "paid"}],
            ),
        ]:
            protocol = _load(fixture)
            verdicts = {}
            for delivery in (Delivery.FIFO_PAIRWISE, Delivery.UNORDERED):
                verdicts[delivery] = _bspl_enactable(protocol, rows, delivery)
            evidence.append(
                Evidence(
                    f"{protocol.name}-enactable",
                    f"fifo={verdicts[Delivery.FIFO_PAIRWISE]}, unordered={verdicts[Delivery.UNORDERED]}",
                )
            )
            same = same and verdicts[Delivery.FIFO_PAIRWISE] == verdicts[Delivery.UNORDERED]
        return CriterionReport(language, "Unordering", "Yes" if same else "No", tuple(evidence))
    cfg = _preset_for(language)
    same = True
    for fixture in ("want_willpay", "indirect_payment"):
        expr = _load(f"{fixture}.scr" if language == "Scribble" else f"{fixture}.trace")
        with_fifo = check_realizability(expr, cfg.with_(delivery=Delivery.FIFO_PAIRWISE))
        without = check_realizability(expr, cfg.with_(delivery=Delivery.UNORDERED))
        evidence.append(
            Evidence(
                f"{fixture}-verdicts",
                f"fifo={with_fifo.outcome.value}, unordered={without.outcome.value}",
            )
        )
        same = same and with_fifo.outcome == without.outcome
    return CriterionReport(language, "Unordering", "Yes" if same else "No", tuple(evidence))


def _bspl_enactable(protocol: InfoProtocol, rows, delivery: Delivery) -> bool:
    result = _enactments(protocol, rows, delivery)
    if result.bound_exceeded or not result.enactments:
        return False
    for vec in result.enactments:
        views = instance_views(list(vec), protocol)
        if not views or not all(is_complete(v, protocol) for v in views):
            return False
    return True


def _preset_for(language: str) -> CommConfig:
    if language == "Scribble":
        return language_preset("scribble")
    if language == "TraceC":
        return language_preset("trace-c")
    if language == "TraceF":
        return language_preset("trace-f").with_(delivery=Delivery.FIFO_PAIRWISE, interpretation=Interpretation.RR)
    raise ValueError(language)


# ---------------------------------------------------------------------------
# assembly


class ScenarioFailure(RuntimeError):
    def __init__(self, scenario_id: str, cause: Exception):
        super().__init__(f"scenario {scenario_id} failed: {cause}")
        self.scenario_id = scenario_id


def _cell(scenario_id: str, thunk) -> CriterionReport:
    try:
        return thunk()
    except Exception as cause:  # noqa: BLE001 - abort with the failing scenario id
        raise ScenarioFailure(scenario_id, cause) from cause


def run_matrix() -> dict:
    cells: list[CriterionReport] = []
    for language in LANGUAGES:
        instances = _cell(f"{language}/Instances", lambda: instances_cell(language))
        integrity = _cell(f"{language}/Integrity", lambda: integrity_cell(language))
        social = _cell(
            f"{language}/SocialMeaning",
            lambda: social_meaning_cell(language, instances.verdict, integrity.verdict),
        )
        cells.extend(
            [
                instances,
                integrity,
                social,
                _cell(f"{language}/Concurrency", lambda: concurrency_cell(language)),
                _cell(f"{language}/Extensibility", lambda: extensibility_cell(language)),
                _cell(f"{language}/Asynchrony", lambda: asynchrony_cell(language)),
                _cell(f"{language}/Unordering", lambda: unordering_cell(language)),
            ]
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "languages": list(LANGUAGES),
        "criteria": list(CRITERIA),
        "mapping": _mapping_doc(),
        "cells": [c.to_record() for c in cells],
    }


def _mapping_doc() -> dict:
    return {
        "Instances": "Yes iff all four concurrent-pricing enactments accepted; Partial iff at least one; No iff none",
        "Integrity": "Yes iff the fig/jam conflict is rejected under the language's own operation; Partial iff rejected only under native assumptions (synchronous store or scoped parameters); No iff accepted",
        "SocialMeaning": "Yes iff Instances and Integrity are both Yes; Partial if either is Partial",
        "Concurrency": "Yes iff flexible purchase is enactable including the crossing enactment",
        "Extensibility": "Yes iff the seller's interleaved pricing+catalog observations all pass compliance",
        "Asynchrony": "Yes iff the preset delivery model is not synchronous",
        "Unordering": "Yes iff verdicts with and without FIFO agree on want+willpay and indirect payment",
    }


def matrix_verdicts(report: dict) -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {}
    for cell in report["cells"]:
        out.setdefault(cell["language"], {})[cell["criterion"]] = cell["verdict"]
    return out


def render_matrix(report: dict) -> str:
    verdicts = matrix_verdicts(report)
    width = max(len(c) for c in CRITERIA) + 2
    col = 10
    lines = []
    header = " " * width + "".join(lang.ljust(col) for lang in LANGUAGES)
    lines.append(header)
    for criterion in CRITERIA:
        row = criterion.ljust(width)
        for lang in LANGUAGES:
            row += verdicts[lang][criterion].ljust(col)
        lines.append(row)
    return "\n".join(lines) + "\n"


def golden_table() -> dict:
    return json.loads(fixture_text("golden_matrix.json"))


def matches_golden(report: dict) -> tuple[bool, list[str]]:
    golden = golden_table()
    verdicts = matrix_verdicts(report)
    mismatches = []
    for lang in golden["languages"]:
        for criterion in golden["criteria"]:
            want = golden["cells"][lang][criterion]
            got = verdicts.get(lang, {}).get(criterion)
            if got != want:
                mismatches.append(f"{lang}/{criterion}: got {got}, want {want}")
    return not mismatches, mismatches
