import dataclasses
import json
import pickle

import pytest

from protolab.bspl.core import Adornment, MessageSchema, ParamDecl, parse_bspl, print_bspl
from protolab.bspl.enactment import (
    EMISSION,
    RECEPTION,
    History,
    IntegrityConflict,
    MessageInstance,
    Observation,
    apply_observation,
    check_emission,
    instance_views,
    is_complete,
    known_bindings,
    observe,
)


def mi(protocol, name, **values):
    return MessageInstance.make(protocol.message(name), values)


def test_known_bindings_after_request(purchase):
    h = observe(History("Buyer"), EMISSION, mi(purchase, "Request", ID="1", item="fig"))
    assert known_bindings(h, (("ID", "1"),), purchase) == {"ID": "1", "item": "fig"}


def test_known_bindings_empty_history(purchase):
    assert known_bindings(History("Buyer"), (("ID", "1"),), purchase) == {}


def test_known_bindings_is_order_insensitive(purchase):
    request = mi(purchase, "Request", ID="1", item="fig")
    offer = mi(purchase, "Offer", ID="1", item="fig", price="$5")
    h1 = History("Buyer", (Observation(EMISSION, request, 1), Observation(RECEPTION, offer, 2)))
    h2 = History("Buyer", (Observation(RECEPTION, offer, 1), Observation(EMISSION, request, 2)))
    key = (("ID", "1"),)
    assert known_bindings(h1, key, purchase) == known_bindings(h2, key, purchase)


def test_known_bindings_conflict(purchase):
    h = History(
        "Seller",
        (
            Observation(RECEPTION, mi(purchase, "Request", ID="1", item="fig"), 1),
            Observation(RECEPTION, mi(purchase, "Offer", ID="1", item="jam", price="$5"), 2),
        ),
    )
    with pytest.raises(IntegrityConflict) as err:
        known_bindings(h, (("ID", "1"),), purchase)
    assert err.value.param == "item"
    assert set(err.value.values) == {"fig", "jam"}


def test_emission_fresh_request_ok(purchase):
    assert check_emission(History("Buyer"), mi(purchase, "Request", ID="1", item="fig"), purchase) is None


def test_accept_then_reject_already_bound(purchase):
    h = observe(History("Buyer"), EMISSION, mi(purchase, "Request", ID="1", item="fig"))
    h = observe(h, RECEPTION, mi(purchase, "Offer", ID="1", item="fig", price="$5"))
    accept = mi(purchase, "Accept", ID="1", item="fig", price="$5", decision="deal", address="24 Hill St")
    assert check_emission(h, accept, purchase) is None
    h = observe(h, EMISSION, accept)
    reject = mi(purchase, "Reject", ID="1", item="fig", price="$5", decision="no", OK="done")
    error = check_emission(h, reject, purchase)
    assert error is not None
    assert error.code == "AlreadyBound"
    assert error.param == "decision"


def test_unknown_in_parameter(purchase):
    error = check_emission(History("Seller"), mi(purchase, "Offer", ID="1", item="fig", price="$5"), purchase)
    assert error is not None and error.code == "UnknownIn" and error.param in ("ID", "item")


def test_in_parameter_value_conflict_is_integrity(purchase):
    h = observe(History("Seller"), RECEPTION, mi(purchase, "Request", ID="1", item="fig"))
    error = check_emission(h, mi(purchase, "Offer", ID="1", item="jam", price="$5"), purchase)
    assert error is not None and error.code == "IntegrityConflict" and error.param == "item"


def test_already_bound_monotone_under_extension(purchase):
    h = observe(History("Buyer"), EMISSION, mi(purchase, "Request", ID="1", item="fig"))
    h = observe(h, RECEPTION, mi(purchase, "Offer", ID="1", item="fig", price="$5"))
    h = observe(h, EMISSION, mi(purchase, "Accept", ID="1", item="fig", price="$5", decision="deal", address="x"))
    reject = mi(purchase, "Reject", ID="1", item="fig", price="$5", decision="no", OK="done")
    assert check_emission(h, reject, purchase).code == "AlreadyBound"
    extended = observe(h, RECEPTION, mi(purchase, "Deliver", ID="1", item="fig", address="x", dropOff="porch"))
    assert check_emission(extended, reject, purchase).code == "AlreadyBound"


def test_apply_observation_tick_regression(purchase):
    request = mi(purchase, "Request", ID="1", item="fig")
    h = apply_observation(History("Buyer"), Observation(EMISSION, request, 5))
    with pytest.raises(ValueError):
        apply_observation(h, Observation(RECEPTION, mi(purchase, "Offer", ID="1", item="fig", price="$5"), 5))


def test_reception_recorded_unconditionally(want_willpay):
    # arrival of the follow-up before the opener is recorded without error
    h = History("Seller")
    h = observe(h, RECEPTION, mi(want_willpay, "WillPay", ID="1", item="fig", price="$5"))
    h = observe(h, RECEPTION, mi(want_willpay, "Want", ID="1", item="fig"))
    assert [o.instance.schema.name for o in h.observations] == ["WillPay", "Want"]


def test_append_to_empty_history(purchase):
    h = observe(History("Buyer"), EMISSION, mi(purchase, "Request", ID="1", item="fig"))
    assert len(h.observations) == 1


def test_instance_views_two_instances(pricing):
    buyer = History("Buyer")
    seller = History("Seller")
    r1 = mi(pricing, "Request", ID="1", item="fig")
    o1 = mi(pricing, "Offer", ID="1", price="$5")
    r2 = mi(pricing, "Request", ID="2", item="jam")
    o2 = mi(pricing, "Offer", ID="2", price="$6")
    for m in (r1, r2):
        buyer = observe(buyer, EMISSION, m)
        seller = observe(seller, RECEPTION, m)
    for m in (o1, o2):
        seller = observe(seller, EMISSION, m)
        buyer = observe(buyer, RECEPTION, m)
    views = instance_views([buyer, seller], pricing)
    assert len(views) == 2
    by_key = {v.key: v.binding_map() for v in views}
    assert by_key[(("ID", "1"),)] == {"ID": "1", "item": "fig", "price": "$5"}
    assert by_key[(("ID", "2"),)] == {"ID": "2", "item": "jam", "price": "$6"}


def test_instance_views_empty(pricing):
    assert instance_views([], pricing) == ()
    assert instance_views([History("Buyer"), History("Seller")], pricing) == ()


def test_instance_views_conflict(purchase):
    seller = History("Seller")
    seller = observe(seller, RECEPTION, mi(purchase, "Request", ID="1", item="fig"))
    rogue = History("Buyer")
    rogue = observe(rogue, RECEPTION, mi(purchase, "Offer", ID="1", item="jam", price="$5"))
    with pytest.raises(IntegrityConflict) as err:
        instance_views([seller, rogue], purchase)
    assert err.value.param == "item"


def test_completeness_reject_and_payment_paths(purchase):
    buyer = History("Buyer")
    buyer = observe(buyer, EMISSION, mi(purchase, "Request", ID="1", item="fig"))
    buyer = observe(buyer, RECEPTION, mi(purchase, "Offer", ID="1", item="fig", price="$5"))
    views = instance_views([buyer], purchase)
    assert not is_complete(views[0], purchase)
    rejected = observe(buyer, EMISSION, mi(purchase, "Reject", ID="1", item="fig", price="$5", decision="no", OK="done"))
    views = instance_views([rejected], purchase)
    assert is_complete(views[0], purchase)


def test_completeness_accept_branch_needs_payment(purchase):
    buyer = History("Buyer")
    steps = [
        (EMISSION, mi(purchase, "Request", ID="1", item="fig")),
        (RECEPTION, mi(purchase, "Offer", ID="1", item="fig", price="$5")),
        (EMISSION, mi(purchase, "Accept", ID="1", item="fig", price="$5", decision="deal", address="x")),
        (RECEPTION, mi(purchase, "Deliver", ID="1", item="fig", address="x", dropOff="porch")),
    ]
    for kind, m in steps:
        buyer = observe(buyer, kind, m)
    assert not is_complete(instance_views([buyer], purchase)[0], purchase)
    buyer = observe(buyer, EMISSION, mi(purchase, "Payment", ID="1", price="$5", dropOff="porch", OK="paid"))
    assert is_complete(instance_views([buyer], purchase)[0], purchase)


def test_owner_mismatch_rejected(purchase):
    with pytest.raises(ValueError):
        observe(History("Seller"), EMISSION, mi(purchase, "Request", ID="1", item="fig"))


def test_bindings_must_cover_schema(purchase):
    with pytest.raises(ValueError):
        MessageInstance.make(purchase.message("Request"), {"ID": "1"})
    with pytest.raises(ValueError):
        MessageInstance.make(purchase.message("Request"), {"ID": "1", "item": "fig", "extra": "x"})


def test_history_hash_is_cached_and_invisible(purchase):
    request = mi(purchase, "Request", ID="1", item="fig")
    offer = mi(purchase, "Offer", ID="1", item="fig", price="$5")
    stepwise = observe(observe(History("Buyer"), EMISSION, request), RECEPTION, offer)
    hash(stepwise)
    direct = History("Buyer", (Observation(EMISSION, request, 1), Observation(RECEPTION, offer, 2)))
    assert direct == stepwise and hash(direct) == hash(stepwise)
    assert {stepwise: "seen"}[direct] == "seen"
    never_hashed = History("Buyer", stepwise.observations)
    assert repr(stepwise) == repr(never_hashed)
    assert [f.name for f in dataclasses.fields(stepwise)] == ["owner", "observations"]
    assert dataclasses.asdict(stepwise) == dataclasses.asdict(never_hashed)
    assert json.dumps(dataclasses.asdict(stepwise)) == json.dumps(dataclasses.asdict(never_hashed))
    copy = pickle.loads(pickle.dumps(stepwise))
    assert copy == stepwise and vars(copy) == vars(never_hashed)


def reference_key(m, protocol):
    keys = set(protocol.key_names())
    values = m.binding_map()
    return tuple((q.name, values[q.name]) for q in m.schema.params if q.name in keys or q.is_key)


def test_instance_key_for_own_equal_and_foreign_schemas(purchase, pricing):
    reparsed = parse_bspl(print_bspl(purchase))
    own_key = MessageSchema("Buyer", "Seller", "Note", (ParamDecl("ID", Adornment.IN), ParamDecl("n", Adornment.OUT, True)))
    request = purchase.message("Request")
    same_name = MessageSchema(request.sender, request.receiver, request.name, tuple(reversed(request.params)))
    schemas = list(purchase.messages) + list(reparsed.messages) + list(pricing.messages) + [own_key, same_name]
    for schema in schemas:
        m = MessageInstance.make(schema, {q: f"{q}1" for q in schema.param_names()})
        for protocol in (purchase, pricing):
            assert m.key(protocol) == reference_key(m, protocol)
            assert protocol.message_keys(schema) == tuple(k for k, _ in reference_key(m, protocol))


def slot_values(m):
    """Every slot of a `MessageInstance`, cache included: what `vars` would
    show if it had a `__dict__`."""
    return {name: getattr(m, name) for name in type(m).__slots__}


def test_message_instance_hash_is_cached_and_invisible(purchase):
    hashed = mi(purchase, "Offer", ID="1", item="fig", price="$5")
    hash(hashed)
    fresh = mi(purchase, "Offer", ID="1", item="fig", price="$5")
    assert hashed == fresh and hash(hashed) == hash(fresh)
    assert hash(hashed) != hash(mi(purchase, "Offer", ID="2", item="fig", price="$5"))
    assert repr(hashed) == repr(fresh)
    assert [f.name for f in dataclasses.fields(hashed)] == ["schema", "bindings"]
    assert dataclasses.asdict(hashed) == dataclasses.asdict(fresh)
    never_hashed = mi(purchase, "Offer", ID="1", item="fig", price="$5")
    assert pickle.dumps(hashed) == pickle.dumps(never_hashed)
    copy = pickle.loads(pickle.dumps(hashed))
    assert copy == hashed and slot_values(copy) == slot_values(never_hashed)
    assert hash(copy) == hash(hashed) and repr(copy) == repr(hashed)


def test_message_instance_has_no_dict_and_stays_frozen(purchase):
    request = mi(purchase, "Request", ID="1", item="fig")
    direct = MessageInstance(purchase.message("Request"), (("ID", "1"), ("item", "fig")))
    hash(request), request.key(purchase)
    for m in (request, direct, pickle.loads(pickle.dumps(request)), dataclasses.replace(request)):
        assert not hasattr(m, "__dict__") and m == direct
        for name in type(m).__slots__:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, name, None)


def test_message_instance_key_is_cached_per_protocol(purchase, pricing):
    # Request has the same parameters in both protocols, keyed on ID in
    # purchase; a protocol with no key names keys it on nothing
    unkeyed = parse_bspl("protocol U {\n  roles Buyer, Seller\n  parameters out ID, out item\n  Buyer -> Seller: Request[out ID, out item]\n}\n")
    m = mi(purchase, "Request", ID="1", item="fig")
    for protocol in (purchase, unkeyed, purchase, pricing, unkeyed):
        assert m.key(protocol) == reference_key(m, protocol)
    assert m.key(purchase) == (("ID", "1"),) and m.key(unkeyed) == ()
    assert pickle.dumps(m) == pickle.dumps(mi(purchase, "Request", ID="1", item="fig"))
    copy = pickle.loads(pickle.dumps(m))
    assert slot_values(copy)["_key"] is None and copy == m and hash(copy) == hash(m)
    assert copy.key(purchase) == m.key(purchase) and copy.key(unkeyed) == ()
    assert m == mi(purchase, "Request", ID="1", item="fig")
