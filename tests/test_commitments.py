import random

import pytest

from protolab.bspl.enactment import EMISSION, RECEPTION, History, IntegrityConflict, MessageInstance, observe
from protolab.commitments import (
    LifecycleState,
    Window,
    commitment_states,
    parse_cupid,
    print_cupid,
)
from protolab.matrix import fixture_text

from generators import random_cupid


@pytest.fixture(scope="module")
def spec():
    return parse_cupid(fixture_text("deliver_payment.cupid"))


def test_parse_deliver_payment_windows(spec):
    assert spec.name == "DeliverPayment"
    assert (spec.debtor, spec.creditor) == ("Buyer", "Seller")
    assert spec.create == "Accept"
    assert spec.detach == "Deliver"
    assert spec.detach_window == Window(None, None, "Accept", 3)
    assert spec.discharge == "Payment"
    assert spec.discharge_window == Window(None, None, "Deliver", 3)


def test_spec_without_windows_unbounded():
    s = parse_cupid("commitment C A to B create X detach Y discharge Z")
    assert s.detach_window.unbounded and s.discharge_window.unbounded


def test_cupid_roundtrip_fixture(spec):
    assert parse_cupid(print_cupid(spec)) == spec


def test_cupid_roundtrip_random():
    rng = random.Random(31)
    for _ in range(100):
        s = random_cupid(rng)
        assert parse_cupid(print_cupid(s)) == s


def purchase_histories(purchase, accept_day, deliver_day=None, payment_day=None, key="1"):
    def mi(name, **values):
        return MessageInstance.make(purchase.message(name), values)

    request = mi("Request", ID=key, item="fig")
    offer = mi("Offer", ID=key, item="fig", price="$5")
    accept = mi("Accept", ID=key, item="fig", price="$5", decision="deal", address="x")
    buyer = History("Buyer")
    seller = History("Seller")
    buyer = observe(buyer, EMISSION, request, day=accept_day)
    seller = observe(seller, RECEPTION, request, day=accept_day)
    seller = observe(seller, EMISSION, offer, day=accept_day)
    buyer = observe(buyer, RECEPTION, offer, day=accept_day)
    buyer = observe(buyer, EMISSION, accept, day=accept_day)
    seller = observe(seller, RECEPTION, accept, day=accept_day)
    if deliver_day is not None:
        deliver = mi("Deliver", ID=key, item="fig", address="x", dropOff="porch")
        seller = observe(seller, EMISSION, deliver, day=deliver_day)
        buyer = observe(buyer, RECEPTION, deliver, day=deliver_day)
    if payment_day is not None:
        payment = mi("Payment", ID=key, price="$5", dropOff="porch", OK="paid")
        buyer = observe(buyer, EMISSION, payment, day=payment_day)
        seller = observe(seller, RECEPTION, payment, day=payment_day)
    return [buyer, seller]


def test_discharged_within_windows(spec, purchase):
    histories = purchase_histories(purchase, accept_day=0, deliver_day=2, payment_day=4)
    instances = commitment_states(spec, histories, purchase, now=5)
    assert len(instances) == 1
    assert instances[0].state is LifecycleState.DISCHARGED


def test_empty_histories_no_instances(spec, purchase):
    assert commitment_states(spec, [], purchase, now=10) == ()


def test_active_until_detach_deadline(spec, purchase):
    histories = purchase_histories(purchase, accept_day=0)
    assert commitment_states(spec, histories, purchase, now=3)[0].state is LifecycleState.ACTIVE
    assert commitment_states(spec, histories, purchase, now=4)[0].state is LifecycleState.EXPIRED


def test_detached_until_discharge_deadline(spec, purchase):
    histories = purchase_histories(purchase, accept_day=0, deliver_day=3)
    assert commitment_states(spec, histories, purchase, now=6)[0].state is LifecycleState.DETACHED
    assert commitment_states(spec, histories, purchase, now=7)[0].state is LifecycleState.VIOLATED


def test_late_deliver_does_not_detach(spec, purchase):
    histories = purchase_histories(purchase, accept_day=0, deliver_day=4)
    assert commitment_states(spec, histories, purchase, now=4)[0].state is LifecycleState.EXPIRED


def test_per_instance_isolation(spec, purchase):
    first = purchase_histories(purchase, accept_day=0, deliver_day=2, key="1")
    second = purchase_histories(purchase, accept_day=0, deliver_day=2, payment_day=3, key="2")
    merged = [
        History("Buyer", first[0].observations + tuple(_retick(second[0].observations, len(first[0].observations)))),
        History("Seller", first[1].observations + tuple(_retick(second[1].observations, len(first[1].observations)))),
    ]
    instances = {dict(i.key)["ID"]: i.state for i in commitment_states(spec, merged, purchase, now=4)}
    assert instances["2"] is LifecycleState.DISCHARGED
    assert instances["1"] is LifecycleState.DETACHED, "a payment for one key never discharges another"


def _retick(observations, offset):
    from protolab.bspl.enactment import Observation

    return [Observation(o.kind, o.instance, o.tick + offset, o.day) for o in observations]


def test_monotone_in_now(spec, purchase):
    # the second window opens at Deliver (day 3), after the Payment (day 1)
    # it would detach on: until Deliver happens, Payment is not yet known
    # to be in the window, and once it is, it is known to be outside it
    late_lower = parse_cupid("commitment C Buyer to Seller create Accept detach Payment [Deliver, 10] discharge Reject")
    cases = [
        (spec, purchase_histories(purchase, accept_day=0, deliver_day=2, payment_day=4)),
        (late_lower, purchase_histories(purchase, accept_day=0, deliver_day=3, payment_day=1)),
    ]
    order = {
        LifecycleState.NULL: 0,
        LifecycleState.ACTIVE: 1,
        LifecycleState.DETACHED: 2,
        LifecycleState.DISCHARGED: 3,
        LifecycleState.EXPIRED: 3,
        LifecycleState.VIOLATED: 3,
    }
    for case_spec, histories in cases:
        last = 0
        for now in range(0, 9):
            state = commitment_states(case_spec, histories, purchase, now=now)[0].state
            assert order[state] >= last
            last = order[state]
            if state is LifecycleState.DISCHARGED:
                for later in range(now, now + 3):
                    assert commitment_states(case_spec, histories, purchase, now=later)[0].state is LifecycleState.DISCHARGED
                break
    assert {commitment_states(late_lower, cases[1][1], purchase, now=now)[0].state for now in range(11)} == {LifecycleState.ACTIVE}


def test_integrity_conflict_propagates(spec, purchase):
    histories = purchase_histories(purchase, accept_day=0, deliver_day=2)
    rogue = observe(
        History("Buyer"),
        RECEPTION,
        MessageInstance.make(purchase.message("Offer"), {"ID": "1", "item": "jam", "price": "$9"}),
        day=0,
    )
    with pytest.raises(IntegrityConflict):
        commitment_states(spec, histories + [rogue], purchase, now=5)
