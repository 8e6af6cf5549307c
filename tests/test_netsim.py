import contextlib
import hashlib
import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from protolab import netsim
from protolab.bspl.core import parse_bspl_file
from protolab.bspl.enactment import EMISSION, RECEPTION, History, instance_views, is_complete
from protolab.cli import _auto_rows, main
from protolab.matrix import fixture_text
from protolab.netsim import (
    BsplAgent,
    Delivery,
    Envelope,
    InstanceScript,
    Network,
    SimPolicy,
    _instance_group,
    explore,
    run_one,
)


FIXTURES = Path(__file__).resolve().parents[1] / "src" / "protolab" / "fixtures"


def agent_pair(protocol, rows):
    scripts = [InstanceScript.make(protocol, rows)]
    return [BsplAgent(role, scripts) for role in protocol.roles]


def obs_shape(history):
    return tuple((o.kind, o.instance.schema.name) for o in history.observations)


WW_ROWS = [{"ID": "1", "item": "fig", "price": "$5"}]


def test_unordered_reaches_both_reception_orders(want_willpay):
    result = explore(agent_pair(want_willpay, WW_ROWS), SimPolicy(Delivery.UNORDERED))
    seller_orders = set()
    for vec in result.enactments:
        for h in vec:
            if h.owner == "Seller":
                seller_orders.add(obs_shape(h))
    assert ((RECEPTION, "Want"), (RECEPTION, "WillPay")) in seller_orders
    assert ((RECEPTION, "WillPay"), (RECEPTION, "Want")) in seller_orders


def test_fifo_excludes_reordered_reception(want_willpay):
    result = explore(agent_pair(want_willpay, WW_ROWS), SimPolicy(Delivery.FIFO_PAIRWISE))
    for vec in result.enactments:
        for h in vec:
            if h.owner == "Seller":
                assert obs_shape(h) == ((RECEPTION, "Want"), (RECEPTION, "WillPay"))


def test_zero_agents_single_empty_enactment():
    result = explore([], SimPolicy(Delivery.UNORDERED))
    assert result.enactments == ((),)


def test_synchronous_policy_adjacent_delivery(want_willpay):
    vector, log = run_one(agent_pair(want_willpay, WW_ROWS), SimPolicy(Delivery.SYNCHRONOUS), seed=4)
    for i, (agent, kind, mi) in enumerate(log):
        if kind == EMISSION:
            follow = log[i + 1]
            assert follow[1] == RECEPTION and follow[2] == mi


def test_indirect_payment_out_of_order_reachable(indirect_payment):
    rows = [{"ID": "1", "item": "fig", "price": "$5", "decision": "deal", "instruction": "wire", "OK": "paid"}]
    result = explore(agent_pair(indirect_payment, rows), SimPolicy(Delivery.UNORDERED))
    seller_orders = set()
    for vec in result.enactments:
        for h in vec:
            if h.owner == "Seller":
                seller_orders.add(obs_shape(h))
    # the transfer can overtake the acceptance at the seller even though
    # every channel individually respects FIFO (it carries one message)
    assert ((EMISSION, "Offer"), (RECEPTION, "Transfer"), (RECEPTION, "Accept")) in seller_orders
    assert ((EMISSION, "Offer"), (RECEPTION, "Accept"), (RECEPTION, "Transfer")) in seller_orders


def test_every_maximal_enactment_is_complete(want_willpay):
    result = explore(agent_pair(want_willpay, WW_ROWS), SimPolicy(Delivery.UNORDERED))
    assert result.enactments
    for vec in result.enactments:
        views = instance_views(list(vec), want_willpay)
        assert views and all(is_complete(v, want_willpay) for v in views)


def test_run_one_replay_determinism(want_willpay, indirect_payment):
    rows_ip = [{"ID": "1", "item": "fig", "price": "$5", "decision": "deal", "instruction": "wire", "OK": "paid"}]
    for seed in range(100):
        for protocol, rows in ((want_willpay, WW_ROWS), (indirect_payment, rows_ip)):
            first = run_one(agent_pair(protocol, rows), SimPolicy(Delivery.UNORDERED), seed=seed)
            second = run_one(agent_pair(protocol, rows), SimPolicy(Delivery.UNORDERED), seed=seed)
            assert first == second


def test_run_one_choice_script(purchase):
    rows = [
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
    agents = agent_pair(purchase, rows)
    vector, log = run_one(agents, SimPolicy(Delivery.UNORDERED), choice_script=[0] * 40)
    assert log, "the scripted walk makes progress"
    with pytest.raises(RuntimeError):
        run_one(agents, SimPolicy(Delivery.UNORDERED), choice_script=[0])


def test_loss_disabled_everything_delivered(want_willpay):
    result = explore(agent_pair(want_willpay, WW_ROWS), SimPolicy(Delivery.UNORDERED, loss_enabled=False))
    for vec in result.enactments:
        sent = [o.instance for h in vec for o in h.observations if o.kind == EMISSION]
        received = [o.instance for h in vec for o in h.observations if o.kind == RECEPTION]
        assert sorted(str(m) for m in sent) == sorted(str(m) for m in received)


def test_loss_enabled_reaches_partial_enactments(want_willpay):
    result = explore(agent_pair(want_willpay, WW_ROWS), SimPolicy(Delivery.UNORDERED, loss_enabled=True))
    shapes = set()
    for vec in result.enactments:
        for h in vec:
            if h.owner == "Seller":
                shapes.add(obs_shape(h))
    assert () in shapes  # everything lost is a reachable outcome


def test_network_fifo_heads_only():
    net = Network().send("A", "B", "m1").send("A", "B", "m2").send("A", "C", "m3")
    fifo = net.deliverable(SimPolicy(Delivery.FIFO_PAIRWISE))
    assert [e.payload for e in fifo] == ["m1", "m3"]
    unordered = net.deliverable(SimPolicy(Delivery.UNORDERED))
    assert [e.payload for e in unordered] == ["m1", "m2", "m3"]


def test_network_noncreative_removal():
    net = Network().send("A", "B", "m1")
    env = net.deliverable(SimPolicy(Delivery.UNORDERED))[0]
    assert net.remove(env).empty()


def test_compliant_simulation_never_conflicts(purchase, pricing):
    # exhaustive runs as the oracle: knowledge unions never conflict when
    # every emission passed the correctness check
    from protolab.bspl.enactment import known_bindings

    cases = [
        (purchase, [{
            "ID": "1", "item": "fig", "price": "$5", "decision": "deal",
            "OK": "fine", "address": "x", "dropOff": "porch",
        }]),
        (pricing, [{"ID": "1", "item": "fig", "price": "$5"}, {"ID": "2", "item": "jam", "price": "$6"}]),
    ]
    for protocol, rows in cases:
        result = explore(agent_pair(protocol, rows), SimPolicy(Delivery.UNORDERED))
        assert result.enactments
        for vec in result.enactments:
            views = instance_views(list(vec), protocol)  # raises on conflict
            for h in vec:
                for view in views:
                    known_bindings(h, view.key, protocol)  # raises on conflict


# ---------------------------------------------------------------------------
# exploration and single-run results, pinned on the explorer without memoized
# agent steps: the memo must not change a state, an enactment or their order


def simulate_agents(name, instances, *more):
    """The agents `protolab simulate` builds for bundled fixtures: `name`,
    then each of `more`, given in that order."""
    protocols = [p for fixture in (name, *more) for p in parse_bspl_file(fixture_text(f"{fixture}.bspl"))]
    scripts = [InstanceScript.make(p, _auto_rows(p, instances)) for p in protocols]
    return [BsplAgent(role, scripts) for role in sorted({r for p in protocols for r in p.roles})]


def tuple_repr(items: tuple, item_repr) -> str:
    inner = ", ".join(map(item_repr, items))
    return f"({inner},)" if len(items) == 1 else f"({inner})"


def repr_digest(enactments: tuple) -> str:
    """sha256 of repr(enactments), hashed one enactment at a time with one
    repr per distinct history, so that large explorations stay cheap."""
    reprs: dict = {}

    def history_repr(h) -> str:
        if h not in reprs:
            reprs[h] = repr(h)
        return reprs[h]

    digest = hashlib.sha256(b"(")
    for i, vec in enumerate(enactments):
        digest.update(((", " if i else "") + tuple_repr(vec, history_repr)).encode())
    digest.update(b",)" if len(enactments) == 1 else b")")
    return digest.hexdigest()


# (fixture, instances, policy, states explored, enactments, max queue depth,
# bound exceeded, sha256 of repr(result.enactments))
PINNED_EXPLORATIONS = [
    ("catalog", 1, "fifo", 5, 1, 1, False, "c01bbce5f02cf21a5d5a4f93f1181838fac56d5eeb9f9d56da0845f301ab2616"),
    ("catalog", 1, "unordered", 5, 1, 1, False, "c01bbce5f02cf21a5d5a4f93f1181838fac56d5eeb9f9d56da0845f301ab2616"),
    ("flexible_purchase", 1, "fifo", 19, 3, 2, False, "c624a04f3862c6050f016d6eb6bcaf4397ae89bc9bd0587bef9fcbefd4d7ecda"),
    ("flexible_purchase", 1, "unordered", 27, 5, 2, False, "2142df225bc10f1f1360996975539b42700d573f38a650a9f4c918479673d1a9"),
    ("indirect_payment", 1, "fifo", 14, 2, 1, False, "72c8edcad54d3f9f45ff1e0deaeb7d87ec2a7d7c5c5378a644ebab90f46c8125"),
    ("indirect_payment", 1, "unordered", 14, 2, 1, False, "72c8edcad54d3f9f45ff1e0deaeb7d87ec2a7d7c5c5378a644ebab90f46c8125"),
    ("pricing", 1, "fifo", 5, 1, 1, False, "e315b4b23d00942550d03d529756a2ea4509b5c9978c27d48eacdc6c8b4b0108"),
    ("pricing", 1, "unordered", 5, 1, 1, False, "e315b4b23d00942550d03d529756a2ea4509b5c9978c27d48eacdc6c8b4b0108"),
    ("purchase", 1, "fifo", 13, 2, 1, False, "9af4c8df3a9250e2291ca2cfb262972346e3fdf0012cd920da60178e8c783997"),
    ("purchase", 1, "unordered", 13, 2, 1, False, "9af4c8df3a9250e2291ca2cfb262972346e3fdf0012cd920da60178e8c783997"),
    ("want_willpay", 1, "fifo", 6, 1, 2, False, "c9ff7e40810317f8040ff7ab38031e935a795f47e6bc6379d2e792c79295fd4f"),
    ("want_willpay", 1, "unordered", 8, 2, 2, False, "50ee46e2ca19b0f1da3ab88f0b99f0bb68ec314e7e463c1f838a1052cf60531d"),
    ("catalog", 2, "fifo", 65, 8, 2, False, "cbf5497c06048ba84ea9ca61d86bac054899e07fa516de1cbd41adda9feb72f0"),
    ("catalog", 2, "unordered", 129, 26, 2, False, "c422d6d40c34e2aebec3f30583d1fe9a9a991e63436319e76d0b07450133b44a"),
    ("flexible_purchase", 2, "fifo", 3883, 302, 4, False, "200af79dc2c83839b3050474bd5f03ede99ab6aadb3b1f9ca1100a9a98d0212d"),
    ("flexible_purchase", 2, "unordered", 45311, 6280, 4, False, "6fa17ea6a95be3897be8a558e81feb54e4107a85edc5df9ac660718122266f51"),
    ("indirect_payment", 2, "fifo", 4183, 446, 2, False, "63e42c9fb2c26b443ac750782fcd8b0ee38e5faf8447bbac80aed754cb807a84"),
    ("indirect_payment", 2, "unordered", 28591, 6068, 2, False, "1fa77d5cd8f58731b22498f59fbc462a8f67c0ee4c11f57af20ab9ae68bfb98f"),
    ("pricing", 2, "fifo", 65, 8, 2, False, "3d6f7abf3b9f439ad262e2b198878d933c2290b58b88200af18dc8896518292c"),
    ("pricing", 2, "unordered", 129, 26, 2, False, "f8feace4b7999aea2a30c838ee707af4d9297a48457a3a7dd355d7906171c8cc"),
    ("purchase", 2, "fifo", 7927, 940, 2, False, "2af597e169221a79a19e619ddfc3a19b96cf6615068a97df0d6c74618cc5a2de"),
    ("purchase", 2, "unordered", 69479, 12968, 2, False, "dc39a8bc75e6dff7e3713fe4ca6ca4ee8eeaca1d0b1bb5159cfac897f567f993"),
    ("want_willpay", 2, "fifo", 71, 6, 4, False, "e308b38e2b0f6427644bf57420be47e16756a0f9db7b950998804bf9e8767b5e"),
    ("want_willpay", 2, "unordered", 511, 144, 4, False, "b233b31086f7851eb9707851d861b3fdee58698084368c16ddf87e9b08e95647"),
    ("catalog", 3, "fifo", 2113, 186, 3, False, "e3764f1ad4e3091bb4178ffe1bdbd1e8e4007ac16ea4e3be5a2e2bb2ecec9dd8"),
    ("pricing", 3, "fifo", 2113, 186, 3, False, "478f43a0b9e913464f66e20d76fc8e62cecbb866d7d4590654949b7c676c3a3b"),
    ("want_willpay", 3, "fifo", 1300, 90, 4, True, "9d3c7c3ed96cda74a232d76885e410e624f4435ff41b830abbc955678514844b"),
    ("want_willpay", 3, "unordered", 68962, 19440, 4, True, "60fd004c93c5285d727cbcfd33c6b7447face703b45e2d7bf6310604f360b4bb"),
]


# (local states per role, distinct networks, dedup hits) per exploration
# above: deterministic counts of the numbered exploration
PINNED_COUNTS = {
    ("catalog", 1, "fifo"): ((("Provider", 3), ("Seller", 3)), 5, 0),
    ("catalog", 1, "unordered"): ((("Provider", 3), ("Seller", 3)), 5, 0),
    ("flexible_purchase", 1, "fifo"): ((("Buyer", 6), ("Seller", 6)), 14, 4),
    ("flexible_purchase", 1, "unordered"): ((("Buyer", 6), ("Seller", 11)), 17, 5),
    ("indirect_payment", 1, "fifo"): ((("Bank", 3), ("Buyer", 4), ("Seller", 6)), 13, 3),
    ("indirect_payment", 1, "unordered"): ((("Bank", 3), ("Buyer", 4), ("Seller", 6)), 13, 3),
    ("pricing", 1, "fifo"): ((("Buyer", 3), ("Seller", 3)), 5, 0),
    ("pricing", 1, "unordered"): ((("Buyer", 3), ("Seller", 3)), 5, 0),
    ("purchase", 1, "fifo"): ((("Buyer", 7), ("Seller", 7)), 12, 0),
    ("purchase", 1, "unordered"): ((("Buyer", 7), ("Seller", 7)), 12, 0),
    ("want_willpay", 1, "fifo"): ((("Buyer", 3), ("Seller", 3)), 6, 1),
    ("want_willpay", 1, "unordered"): ((("Buyer", 3), ("Seller", 5)), 7, 1),
    ("catalog", 2, "fifo"): ((("Provider", 19), ("Seller", 19)), 31, 16),
    ("catalog", 2, "unordered"): ((("Provider", 19), ("Seller", 19)), 41, 26),
    ("flexible_purchase", 2, "fifo"): ((("Buyer", 225), ("Seller", 225)), 439, 2208),
    ("flexible_purchase", 2, "unordered"): ((("Buyer", 225), ("Seller", 877)), 1445, 26514),
    ("indirect_payment", 2, "fifo"): ((("Bank", 19), ("Buyer", 69), ("Seller", 211)), 555, 2834),
    ("indirect_payment", 2, "unordered"): ((("Bank", 19), ("Buyer", 69), ("Seller", 225)), 937, 13532),
    ("pricing", 2, "fifo"): ((("Buyer", 19), ("Seller", 19)), 31, 16),
    ("pricing", 2, "unordered"): ((("Buyer", 19), ("Seller", 19)), 41, 26),
    ("purchase", 2, "fifo"): ((("Buyer", 1195), ("Seller", 1195)), 215, 2078),
    ("purchase", 2, "unordered"): ((("Buyer", 1195), ("Seller", 1195)), 479, 14510),
    ("want_willpay", 2, "fifo"): ((("Buyer", 19), ("Seller", 19)), 49, 34),
    ("want_willpay", 2, "unordered"): ((("Buyer", 19), ("Seller", 65)), 121, 118),
    ("catalog", 3, "fifo"): ((("Provider", 271), ("Seller", 271)), 277, 960),
    ("pricing", 3, "fifo"): ((("Buyer", 271), ("Seller", 271)), 277, 960),
    ("want_willpay", 3, "fifo"): ((("Buyer", 271), ("Seller", 271)), 658, 615),
    ("want_willpay", 3, "unordered"): ((("Buyer", 271), ("Seller", 1957)), 3157, 16143),
}


@pytest.mark.parametrize(
    "name,instances,policy,states,enactments,depth,exceeded,digest",
    PINNED_EXPLORATIONS,
    ids=[f"{c[0]}-x{c[1]}-{c[2]}" for c in PINNED_EXPLORATIONS],
)
def test_exploration_pinned(name, instances, policy, states, enactments, depth, exceeded, digest):
    result = explore(simulate_agents(name, instances), SimPolicy(Delivery(policy)))
    assert result.stats.states_explored == states
    assert result.stats.enactments == len(result.enactments) == enactments
    assert result.stats.max_queue_depth == depth
    assert result.bound_exceeded is exceeded
    assert repr_digest(result.enactments) == digest
    stats = result.stats
    assert (stats.local_states, stats.networks, stats.dedup_hits) == PINNED_COUNTS[(name, instances, policy)]


# every fixture at one and two instances under synchronous delivery, which
# lists no emission while a delivery is due: as in PINNED_EXPLORATIONS, then
# the local states per role, distinct networks and dedup hits
PINNED_SYNCHRONOUS = [
    ("catalog", 1, 5, 1, 1, False, "c01bbce5f02cf21a5d5a4f93f1181838fac56d5eeb9f9d56da0845f301ab2616", (("Provider", 3), ("Seller", 3)), 5, 0),
    ("flexible_purchase", 1, 11, 2, 1, False, "722c0e703955e6ac8e1423ebe0624a489ad5c5d024f01c5e5fefba2a48354a25", (("Buyer", 6), ("Seller", 6)), 9, 0),
    ("indirect_payment", 1, 9, 1, 1, False, "421729be9656ee88dfb642a0081668093914e8a817579f9bed76ae5dfd3b6b34", (("Bank", 3), ("Buyer", 4), ("Seller", 4)), 9, 0),
    ("pricing", 1, 5, 1, 1, False, "e315b4b23d00942550d03d529756a2ea4509b5c9978c27d48eacdc6c8b4b0108", (("Buyer", 3), ("Seller", 3)), 5, 0),
    ("purchase", 1, 13, 2, 1, False, "9af4c8df3a9250e2291ca2cfb262972346e3fdf0012cd920da60178e8c783997", (("Buyer", 7), ("Seller", 7)), 12, 0),
    ("want_willpay", 1, 5, 1, 1, False, "c9ff7e40810317f8040ff7ab38031e935a795f47e6bc6379d2e792c79295fd4f", (("Buyer", 3), ("Seller", 3)), 5, 0),
    ("catalog", 2, 37, 6, 1, False, "08c5790a24f0c1887f0af25fa6649c81b4b6e6e4e64347f48fa92893eaa28b33", (("Provider", 19), ("Seller", 19)), 17, 0),
    ("flexible_purchase", 2, 449, 80, 1, False, "8d36427b6dee19736e5e31757e3eb7f9a1e72828241130ce7c79d16f4e132743", (("Buyer", 225), ("Seller", 225)), 35, 0),
    ("indirect_payment", 2, 501, 70, 1, False, "a5d3ff9235b1eff60efc7449475f59fb32d161495d31884175da7ba515daedfc", (("Bank", 19), ("Buyer", 69), ("Seller", 69)), 49, 0),
    ("pricing", 2, 37, 6, 1, False, "9c38489835c75295be6841450607b3102f54043ce1f5ee12df07b8f197d8cbcf", (("Buyer", 19), ("Seller", 19)), 17, 0),
    ("purchase", 2, 2389, 384, 1, False, "1551b67b955feda985d2ae8b77ac16712f02e5239c9272d48668f4540b736454", (("Buyer", 1195), ("Seller", 1195)), 83, 0),
    ("want_willpay", 2, 37, 6, 1, False, "e308b38e2b0f6427644bf57420be47e16756a0f9db7b950998804bf9e8767b5e", (("Buyer", 19), ("Seller", 19)), 17, 0),
]


@pytest.mark.parametrize(
    "name,instances,states,enactments,depth,exceeded,digest,local_states,networks,dedup_hits",
    PINNED_SYNCHRONOUS,
    ids=[f"{c[0]}-x{c[1]}-synchronous" for c in PINNED_SYNCHRONOUS],
)
def test_synchronous_exploration_pinned(name, instances, states, enactments, depth, exceeded, digest, local_states, networks, dedup_hits):
    result = explore(simulate_agents(name, instances), SimPolicy(Delivery.SYNCHRONOUS))
    stats = result.stats
    assert (stats.states_explored, stats.enactments, stats.max_queue_depth, result.bound_exceeded) == (states, enactments, depth, exceeded)
    assert (stats.local_states, stats.networks, stats.dedup_hits) == (local_states, networks, dedup_hits)
    assert len(result.enactments) == enactments
    assert repr_digest(result.enactments) == digest


def test_exploration_pinned_with_23_permutations():
    # pricing x4 FIFO: the largest group of a pinned run, with no cap firing
    agents = simulate_agents("pricing", 4)
    assert len(_instance_group(agents).perms) == 23
    result = explore(agents, SimPolicy(Delivery.FIFO_PAIRWISE))
    stats = result.stats
    assert (stats.states_explored, stats.enactments, stats.max_queue_depth, result.cap) == (134657, 8880, 4, None)
    assert (stats.local_states, stats.networks, stats.dedup_hits) == ((("Buyer", 7365), ("Seller", 7365)), 3317, 79752)
    assert len(result.enactments) == 8880
    assert repr_digest(result.enactments) == "3845f1a76ed8cf6388aafbb6cf2a13c08157a5b72030692d63d22951dd52bb4c"


# pricing x4 FIFO as pinned above, with its (local states, networks, dedup hits)
PRICING_X4 = ("pricing", 4, "fifo", 134657, 8880, 4, False, "3845f1a76ed8cf6388aafbb6cf2a13c08157a5b72030692d63d22951dd52bb4c")
PRICING_X4_COUNTS = ((("Buyer", 7365), ("Seller", 7365)), 3317, 79752)


# `simulate pricing.bspl catalog.bspl --exhaustive --instances 2 --policy
# fifo`: one agent per role over both protocols, whose Seller plays in both,
# so each of its histories mixes the two protocols' observations; as in
# PINNED_EXPLORATIONS, then as in PINNED_COUNTS
PRICING_CATALOG_X2 = (19973, 668, 2, False, "027346ec2d694727c9950320d14cc7b601e6c843d0697210cee6595f75db000f")
PRICING_CATALOG_X2_COUNTS = ((("Buyer", 19), ("Provider", 19), ("Seller", 1037)), 3088, 21704)


def test_two_protocol_exploration_pinned(capsys):
    states, enactments, depth, exceeded, digest = PRICING_CATALOG_X2
    result = explore(simulate_agents("pricing", 2, "catalog"), SimPolicy(Delivery.FIFO_PAIRWISE))
    stats = result.stats
    assert (stats.states_explored, stats.enactments, stats.max_queue_depth, result.bound_exceeded) == (states, enactments, depth, exceeded)
    assert (stats.local_states, stats.networks, stats.dedup_hits) == PRICING_CATALOG_X2_COUNTS
    assert len(result.enactments) == enactments
    assert repr_digest(result.enactments) == digest
    paths = [str(FIXTURES / f"{name}.bspl") for name in ("pricing", "catalog")]
    assert main(["simulate", *paths, "--exhaustive", "--format", "json", "--instances", "2", "--policy", "fifo"]) == 0
    record = {"schema_version": "1", "enactments": enactments, "states_explored": states, "max_queue_depth": depth, "bound_exceeded": exceeded}
    assert json.loads(capsys.readouterr().out) == record


def refuse(*args):
    raise AssertionError("a History was hashed or compared")


@pytest.mark.parametrize(
    "name,instances,policy,states,enactments,depth,exceeded,digest",
    PINNED_EXPLORATIONS + [PRICING_X4],
    ids=[f"{c[0]}-x{c[1]}-{c[2]}" for c in PINNED_EXPLORATIONS + [PRICING_X4]],
)
def test_the_walk_hashes_and_compares_no_history(name, instances, policy, states, enactments, depth, exceeded, digest):
    # a BsplAgent's histories are numbered by origin (state, step), so the
    # walk neither hashes nor compares one; the vectors are built after it
    with mock.patch.object(History, "__hash__", refuse), mock.patch.object(History, "__eq__", refuse):
        result = explore(simulate_agents(name, instances), SimPolicy(Delivery(policy)))
        stats = result.stats
        read = (stats.states_explored, stats.enactments, stats.max_queue_depth, result.bound_exceeded)
        counts = (stats.local_states, stats.networks, stats.dedup_hits)
    assert read == (states, enactments, depth, exceeded)
    assert counts == {**PINNED_COUNTS, PRICING_X4[:3]: PRICING_X4_COUNTS}[(name, instances, policy)]
    assert len(result.enactments) == enactments
    assert repr_digest(result.enactments) == digest


def refuse_network(*args, **kwargs):
    raise AssertionError("a Network was built, hashed or stepped")


@pytest.mark.parametrize(
    "name,instances,policy,states,enactments,depth,exceeded,digest",
    PINNED_EXPLORATIONS + [PRICING_X4],
    ids=[f"{c[0]}-x{c[1]}-{c[2]}" for c in PINNED_EXPLORATIONS + [PRICING_X4]],
)
def test_the_walk_builds_no_network(name, instances, policy, states, enactments, depth, exceeded, digest):
    # networks are numbered by a flat key of their in-transit sends, so the
    # walk neither builds nor hashes a Network or an Envelope
    patches = [(Network, attr) for attr in ("__init__", "__hash__", "send", "remove", "deliverable")] + [(Envelope, "__hash__")]
    with contextlib.ExitStack() as stack:
        for cls, attr in patches:
            stack.enter_context(mock.patch.object(cls, attr, refuse_network))
        result = explore(simulate_agents(name, instances), SimPolicy(Delivery(policy)))
        stats = result.stats
        assert (stats.states_explored, stats.enactments, stats.max_queue_depth, result.bound_exceeded) == (states, enactments, depth, exceeded)
        assert (stats.local_states, stats.networks, stats.dedup_hits) == {**PINNED_COUNTS, PRICING_X4[:3]: PRICING_X4_COUNTS}[(name, instances, policy)]
        assert len(result.enactments) == enactments
        assert repr_digest(result.enactments) == digest


# observe calls while explore walks pricing x4 FIFO, before its enactments
# are read (it numbers 14,728 histories, most of them orbit images that no
# move reads): the walk reads knowledge records, not histories
PRICING_X4_OBSERVED = 0


def lineage(origins, k):
    """Number k and the numbers it was first reached from."""
    while k:
        yield k
        k = origins[k][0]
    yield 0


@pytest.mark.parametrize(
    "name,instances,policy,states,enactments,depth,exceeded,digest",
    PINNED_EXPLORATIONS + [PRICING_X4],
    ids=[f"{c[0]}-x{c[1]}-{c[2]}" for c in PINNED_EXPLORATIONS + [PRICING_X4]],
)
def test_the_walk_builds_only_the_histories_it_reads(name, instances, policy, states, enactments, depth, exceeded, digest):
    # the walk finds emissions on the knowledge records of each set it
    # meets for the first time, each record grown once from its origin
    # set's, and builds no history; the vectors are built when read, each
    # history once, with the ancestors it is replayed from
    observed, read = [], []
    observe, payloads = netsim.observe, BsplAgent._payloads

    def counted(*args):
        observed.append(args)
        return observe(*args)

    def recorded(agent, knowledge):
        read.append(knowledge)
        return payloads(agent, knowledge)

    with mock.patch.object(netsim, "observe", counted), mock.patch.object(BsplAgent, "_payloads", recorded):
        result, orbits = recorded_exploration(name, instances, policy)
        walked = len(observed) if callable(result._enactments) else None
        vectors = result.enactments
    local, read_records = orbits.space.local, {id(knowledge) for knowledge in read}
    for steps in local:
        records = steps._knowledge
        assert {j for s in steps._offered for j in lineage(steps.set_origins, s)} == set(records)
        assert {id(records[s]) for s in steps._offered} <= read_records
    assert len(read) == len(read_records) == sum(len(steps._offered) for steps in local)
    if walked is not None:
        assert walked == 0
    read_histories = {id(h) for vec in vectors for h in vec}
    for steps in local:
        built = steps._built
        assert {j for k, h in built.items() if id(h) in read_histories for j in lineage(steps.origins, k)} == set(built)
    assert len(observed) == sum(len(steps._built) - 1 for steps in local)
    if (name, instances, policy) == PRICING_X4[:3]:
        assert walked == PRICING_X4_OBSERVED
    assert (result.stats.states_explored, len(vectors), repr_digest(vectors)) == (states, enactments, digest)


@pytest.mark.parametrize(
    "name,instances,policy",
    [c[:3] for c in PINNED_EXPLORATIONS],
    ids=[f"{c[0]}-x{c[1]}-{c[2]}" for c in PINNED_EXPLORATIONS],
)
def test_knowledge_set_numbers_are_exact(name, instances, policy):
    # two histories share a knowledge-set number exactly when they hold
    # the same observations, each as (kind, instance), in whatever order
    for steps in recorded_orbits(name, instances, policy).space.local:
        sets = [frozenset((o.kind, o.instance) for o in steps.history(k).observations) for k in range(len(steps.origins))]
        assert len(steps.set_of) == len(sets)
        assert len(set(zip(steps.set_of, sets))) == len(set(steps.set_of)) == len(set(sets))


def rebuilt_networks(space):
    """Each network `space` numbered, as a `Network`, rebuilt by replaying
    its `net_origins` through `Network.send` and `Network.remove`."""
    nets = []
    for origin in space.net_origins:
        if origin is None:
            nets.append(Network())
        elif len(origin) == 3:  # a send, by (agent, payload)
            parent, i, p = origin
            payload = space.payloads.values[p]
            nets.append(nets[parent].send(space.local[i].role, payload.schema.receiver, payload))
        else:  # a removal, by send index
            parent, s = origin
            net = nets[parent]
            nets.append(net.remove(next(env for _, queue in net.channels for env in queue if env.send_index == s)))
    return nets


def recorded_exploration(name, instances, policy):
    """One exploration's result and its `_Orbits` (and through it the `_StateSpace`)."""
    return recorded_walk(simulate_agents(name, instances), policy)


def recorded_walk(agents, policy):
    """The result and the `_Orbits` of the agents' exploration under a policy."""
    made = []

    class Recorded(netsim._Orbits):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with mock.patch.object(netsim, "_Orbits", Recorded):
        result = explore(agents, SimPolicy(Delivery(policy)))
    (orbits,) = made
    return result, orbits


def recorded_orbits(name, instances, policy):
    """The `_Orbits` (and through it the `_StateSpace`) of one exploration."""
    return recorded_exploration(name, instances, policy)[1]


@pytest.mark.parametrize(
    "name,instances,policy",
    [c[:3] for c in PINNED_EXPLORATIONS],
    ids=[f"{c[0]}-x{c[1]}-{c[2]}" for c in PINNED_EXPLORATIONS],
)
def test_network_keys_agree_with_networks(name, instances, policy):
    # the flat keys, against the Networks they stand for: one key per
    # distinct network, the same queue depth and the same deliveries, in
    # the same order, each leading to the network with that envelope removed
    space = recorded_orbits(name, instances, policy).space
    deliveries = [space.deliveries(n) for n in range(len(space.networks))]
    nets = rebuilt_networks(space)
    assert len(nets) == len(space.networks) == len(set(nets))
    for n, net in enumerate(nets):
        assert space.depths[n] == net.max_queue_depth()
    for net, listed in zip(nets, deliveries):
        envelopes = net.deliverable(space.policy)
        assert len(listed) == len(envelopes)
        for (p, receivers, m), env in zip(listed, envelopes):
            payload = space.payloads.values[p]
            assert (payload.schema.receiver, payload) == (env.receiver, env.payload)
            assert receivers == tuple(i for i, steps in enumerate(space.local) if steps.role == env.receiver)
            assert m is not None and nets[m] == net.remove(env)


def test_repr_digest_matches_repr():
    enactments = explore(simulate_agents("want_willpay", 2), SimPolicy(Delivery.UNORDERED)).enactments
    for items in ((), enactments[:1], enactments[:1] + ((),), enactments):
        assert repr_digest(items) == hashlib.sha256(repr(items).encode()).hexdigest()


# sha256 of repr([run_one(...) for seed in 0..4]) per (fixture, instances, policy)
PINNED_RUNS = {
    ("catalog", 1, "unordered"): "1db07b17ff1b3ded580dfae9a36ed2494f1be02310843c245ce2887436484dec",
    ("catalog", 1, "fifo"): "1db07b17ff1b3ded580dfae9a36ed2494f1be02310843c245ce2887436484dec",
    ("catalog", 1, "synchronous"): "1db07b17ff1b3ded580dfae9a36ed2494f1be02310843c245ce2887436484dec",
    ("catalog", 2, "unordered"): "db7bc36ec8f9afc3b421958b06cfec3d8886ac2a37926fe0d919946a30e917a5",
    ("catalog", 2, "fifo"): "c4f898cc0c80bc6a1e3e6491bab00d21a3c5d6eef8b9931fdc10bac21b017910",
    ("catalog", 2, "synchronous"): "d1c5c3743237fddeabc33f4e41f3f97a88a8f4a43f775280d9cb4883823cd04f",
    ("flexible_purchase", 1, "unordered"): "a2dbe4fde71a4f3f23b4000a8034b776dce130e808734481077bbbf17e83c6ef",
    ("flexible_purchase", 1, "fifo"): "36893ee70d68580e659d7937098c59cf3ed567d883190ab6fcff9aef9ba40c4d",
    ("flexible_purchase", 1, "synchronous"): "83c7d367ee8ed68a00069ea84e736651035afa42a8f2f435268a97d933e39bcd",
    ("flexible_purchase", 2, "unordered"): "dc73e5ca748e64b74006bbabd036fcc3d08c93a99a5a81a6d4b6582bb8f53ec8",
    ("flexible_purchase", 2, "fifo"): "c21605f9c3dca120c0598bd29e60ec2703a23405770818cf438475da68dc9126",
    ("flexible_purchase", 2, "synchronous"): "b6d08c7625e0a4db3129df1cfc04cb5dc72024814ad66542bdf803c38b79d975",
    ("indirect_payment", 1, "unordered"): "d7d1f6c4f12948f88bfbc8e5731908448e21a9b367187240ee1e8c186228a248",
    ("indirect_payment", 1, "fifo"): "d7d1f6c4f12948f88bfbc8e5731908448e21a9b367187240ee1e8c186228a248",
    ("indirect_payment", 1, "synchronous"): "8cb1dfd44ef5d3897ed33c2317e401ee74a9de81a80423fa3e2253f77bc49b09",
    ("indirect_payment", 2, "unordered"): "57344e57ec22dc7ca38b9203f1fac5d0c8724ea6002de1c1dfc0daef5a3e7f7f",
    ("indirect_payment", 2, "fifo"): "6f81152fcd761885fe0e7990b7891dfda0305bfcba0c97b68b18b9bfb197b3ca",
    ("indirect_payment", 2, "synchronous"): "b402448f4edee229989883c38f463daeb561dde476656f030075eedfff1af243",
    ("pricing", 1, "unordered"): "da6d9f8dff1049e8ae491bfc7bac6104ccc6442b06f8d9453b0d3b935ca0735e",
    ("pricing", 1, "fifo"): "da6d9f8dff1049e8ae491bfc7bac6104ccc6442b06f8d9453b0d3b935ca0735e",
    ("pricing", 1, "synchronous"): "da6d9f8dff1049e8ae491bfc7bac6104ccc6442b06f8d9453b0d3b935ca0735e",
    ("pricing", 2, "unordered"): "75d793e455b7709b71e8dc9b21b6e38f717decc6d77b515d4e7bb49b03a9d61f",
    ("pricing", 2, "fifo"): "b6e758a0e89ddcc75e30b35a8cddd4d91af64ad309261f076191c1b85d81dc43",
    ("pricing", 2, "synchronous"): "dc3d70352f47a145c36d8ec50ec544a039a143d2f90a477179220e1dd939bf9f",
    ("purchase", 1, "unordered"): "f9ab836ae05932c05b03a9bf4309a4a0a9363561844540d8ff8656783e4229fe",
    ("purchase", 1, "fifo"): "f9ab836ae05932c05b03a9bf4309a4a0a9363561844540d8ff8656783e4229fe",
    ("purchase", 1, "synchronous"): "f9ab836ae05932c05b03a9bf4309a4a0a9363561844540d8ff8656783e4229fe",
    ("purchase", 2, "unordered"): "a3ac566da6fcc75fa82866e0d685fed43bc65859f2fb03ef6f561fa54d767e82",
    ("purchase", 2, "fifo"): "12aa706bc5b7cd7ecd19e371d0f855f1172517bebb3bf3a555279fc627d43891",
    ("purchase", 2, "synchronous"): "134d7428e142fdad309b54ee9e1d431fb4994c9c9237dc4dea295bb42086886c",
    ("want_willpay", 1, "unordered"): "9b3d0d3038a12477abf0b01becf38ea0026481f1d047885d77b206a5f2ff4d44",
    ("want_willpay", 1, "fifo"): "b0e42d155030dcdd3127331f90ad6be6107bc8c5036e446f8f84ed766c131d0a",
    ("want_willpay", 1, "synchronous"): "5ade73f9634ab0ba676263468a145a764a18e012730a4f7079f6be61a57dbdbb",
    ("want_willpay", 2, "unordered"): "9fc199a6899de97d9b02950cc575dbf7e9ea7a90001b7b2c66a3e65d4969b050",
    ("want_willpay", 2, "fifo"): "ea6d96e5d3fd111302c0e42fc7a9ae65c102cbaa4d981cb61d06eae4c6d54613",
    ("want_willpay", 2, "synchronous"): "12131104e77bb7946d79b9a53bd4de4ffe2184a24fbbacf2afcd19ddae37494e",
}


@pytest.mark.parametrize("name,instances,policy", sorted(PINNED_RUNS))
def test_run_one_logs_pinned(name, instances, policy):
    runs = [run_one(simulate_agents(name, instances), SimPolicy(Delivery(policy)), seed=seed) for seed in range(5)]
    assert hashlib.sha256(repr(runs).encode()).hexdigest() == PINNED_RUNS[(name, instances, policy)]


SCRIPT = [7, 3, 5, 1, 2] * 40

# sha256 of repr(run_one(..., choice_script=SCRIPT)) at two instances,
# unordered, and the length of its log, per fixture
PINNED_SCRIPTED = {
    "catalog": ("e7cc6c04a50a8a680b14e997bb46070613aef44fa8061a887d254fe69fefe21c", 8),
    "flexible_purchase": ("910f4320d90e3a6c3f1d2d6006fdb9674a164756b9669dfe099ca51f5ba5cf32", 12),
    "indirect_payment": ("e33a9989b7861edc881f19659fdb6fcc049bb853a503f7c70f6bd0e0f6bcec05", 16),
    "pricing": ("606c8f10e4b06378c3cbb3e3321b60692faa3990dc4e5d98ac4c279c75051e35", 8),
    "purchase": ("1a661735688b554bf4ff92c98d2f3462e1e0bde89573dded036b1b7ce7022f4d", 12),
    "want_willpay": ("85cfe26e9f37467b5696c8241a4ad568c1d9938914837a46d46e646b63f040c8", 8),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCRIPTED))
def test_run_one_scripted_logs_pinned(name):
    run = run_one(simulate_agents(name, 2), SimPolicy(Delivery.UNORDERED), choice_script=SCRIPT)
    assert (hashlib.sha256(repr(run).encode()).hexdigest(), len(run[1])) == PINNED_SCRIPTED[name]


def test_run_one_raises_when_the_choice_script_is_exhausted():
    # one choice per move: a script as long as the log plays the run out,
    # one choice fewer runs out before the last move
    agents = simulate_agents("purchase", 2)
    vector, log = run_one(agents, SimPolicy(Delivery.UNORDERED), choice_script=SCRIPT)
    script = SCRIPT[: len(log)]
    assert run_one(agents, SimPolicy(Delivery.UNORDERED), choice_script=script) == (vector, log)
    with pytest.raises(RuntimeError, match="^choice script exhausted$"):
        run_one(agents, SimPolicy(Delivery.UNORDERED), choice_script=script[:-1])
    assert script == SCRIPT[: len(log)]  # the caller's script is not consumed


def test_run_one_never_loses_messages(want_willpay):
    for seed in range(20):
        vector, log = run_one(agent_pair(want_willpay, WW_ROWS), SimPolicy(Delivery.UNORDERED, loss_enabled=True), seed=seed)
        assert {kind for _, kind, _ in log} <= {EMISSION, RECEPTION}
        assert sum(kind == EMISSION for _, kind, _ in log) == sum(kind == RECEPTION for _, kind, _ in log)


# ---------------------------------------------------------------------------
# purity contract: explore memoizes each agent's steps within one call


def test_explore_twice_on_same_agents_is_equal():
    for name, policy in (("indirect_payment", SimPolicy(Delivery.FIFO_PAIRWISE)), ("want_willpay", SimPolicy(loss_enabled=True))):
        agents = simulate_agents(name, 2)
        assert explore(agents, policy) == explore(agents, policy)


def test_bspl_agent_scripts_and_emissions_are_tuples(want_willpay):
    agent = BsplAgent("Buyer", [InstanceScript.make(want_willpay, WW_ROWS)])
    assert isinstance(agent.scripts, tuple)
    moves = agent.emissions(agent.initial())
    assert isinstance(moves, tuple) and all(isinstance(move, tuple) for move in moves)
    assert moves == agent.emissions(agent.initial())


def test_queue_cap_fires_only_in_explore():
    agents = simulate_agents("want_willpay", 3)
    result = explore(agents, SimPolicy(Delivery.FIFO_PAIRWISE), queue_cap=2)
    assert result.bound_exceeded and result.cap == "queue"
    vector, log = run_one(agents, SimPolicy(Delivery.FIFO_PAIRWISE), choice_script=[0] * 100)
    assert sum(kind == EMISSION for _, kind, _ in log) == 6  # all six sent before any delivery


# (fixture, the largest queue depth its two-instance explorations reach
# under either policy, all within the default queue cap)
QUEUE_DEPTHS = [("pricing", 2), ("catalog", 2), ("purchase", 2), ("indirect_payment", 2), ("want_willpay", 4), ("flexible_purchase", 4)]


@pytest.mark.parametrize("policy", ["fifo", "unordered"])
@pytest.mark.parametrize("name,depth", QUEUE_DEPTHS)
def test_a_queue_cap_at_the_depth_reached_does_not_fire(name, depth, policy):
    # the cap declines only a move that passes it: a state at the cap
    # whose moves keep the depth at the cap is still expanded
    agents = simulate_agents(name, 2)
    uncapped = explore(agents, SimPolicy(Delivery(policy)))
    assert uncapped.cap is None and uncapped.stats.max_queue_depth == depth
    at_depth = explore(agents, SimPolicy(Delivery(policy)), queue_cap=depth)
    assert at_depth.cap is None and at_depth.stats == uncapped.stats
    below = explore(agents, SimPolicy(Delivery(policy)), queue_cap=depth - 1)
    assert below.cap == "queue" and below.stats.max_queue_depth == depth - 1


def test_state_cap_is_named_and_counts_only_expanded_states():
    result = explore(simulate_agents("want_willpay", 2), SimPolicy(Delivery.UNORDERED), state_cap=10)
    assert result.bound_exceeded and result.cap == "state"
    assert result.stats.states_explored == 10


# ---------------------------------------------------------------------------
# instance symmetry: the walk over one state per orbit of the row group
# gives what the walk over every state gives


def explore_every_state(agents, policy, **caps):
    """`explore` with the trivial row group: no two states are identified."""
    with mock.patch.object(netsim, "_instance_group", lambda agents: netsim._RowGroup()):
        return explore(agents, policy, **caps)


@pytest.mark.parametrize(
    "name,instances,policy",
    [c[:3] for c in PINNED_EXPLORATIONS],
    ids=[f"{c[0]}-x{c[1]}-{c[2]}" for c in PINNED_EXPLORATIONS],
)
def test_orbit_walk_equals_the_walk_over_every_state(name, instances, policy):
    agents = simulate_agents(name, instances)
    assert len(_instance_group(agents).perms) == {1: 0, 2: 1, 3: 5}[instances]
    reduced = explore(agents, SimPolicy(Delivery(policy)))
    assert reduced == explore_every_state(simulate_agents(name, instances), SimPolicy(Delivery(policy)))


def renamed_history(group, perm, h):
    return History(h.owner, tuple(replace(o, instance=group.rename(perm, o.instance)) for o in h.observations))


def renamed_network(group, perm, net):
    channels = tuple((ch, tuple(replace(env, payload=group.rename(perm, env.payload)) for env in queue)) for ch, queue in net.channels)
    return Network(channels, net.sent_count)


@pytest.mark.parametrize(
    "name,instances,policy",
    [c[:3] for c in PINNED_EXPLORATIONS if c[1] > 1],
    ids=[f"{c[0]}-x{c[1]}-{c[2]}" for c in PINNED_EXPLORATIONS if c[1] > 1],
)
def test_every_table_image_is_the_component_renamed(name, instances, policy):
    orbits = recorded_orbits(name, instances, policy)
    space, group = orbits.space, orbits.group
    assert group.perms
    for p, row in orbits._payload_rows.items():
        for perm, q in zip(group.perms, row, strict=True):
            assert space.payloads.values[q] == group.rename(perm, space.payloads.values[p])
    for steps, rows in zip(space.local, orbits.rows):
        for k, row in rows.items():
            for perm, image in zip(group.perms, row, strict=True):
                assert steps.history(image) == renamed_history(group, perm, steps.history(k))
    nets = rebuilt_networks(space)
    for n, row in orbits.rows[-1].items():
        for perm, image in zip(group.perms, row, strict=True):
            assert nets[image] == renamed_network(group, perm, nets[n])
    images = sum(len(row) for rows in orbits.rows for row in rows.values())
    assert images > len(space.start) * len(group.perms)  # more than the start state's


@pytest.mark.parametrize(
    "name,instances,policy",
    [c[:3] for c in PINNED_EXPLORATIONS + [PRICING_X4] if c[1] > 1],
    ids=[f"{c[0]}-x{c[1]}-{c[2]}" for c in PINNED_EXPLORATIONS + [PRICING_X4] if c[1] > 1],
)
def test_every_orbit_size_read_is_the_orbit_counted(name, instances, policy):
    # `sizes` keeps only the sizes below the group's order, and the walk
    # reads the order for every other representative: each size it reads
    # is the number of distinct images, the start state's 1 included
    orbits, states, _ = canonicalized_walk(name, instances, policy)
    start, sizes, order = orbits.space.start, orbits.sizes, orbits.order
    assert order == len(orbits.group.perms) + 1 > 1
    assert states[0] == start and sizes[start] == len(orbits.orbit(start)) == 1
    for state in states:
        assert sizes.get(state, order) == len(orbits.orbit(state))
    assert set(sizes) <= set(states) and all(size < order for size in sizes.values())


@pytest.mark.parametrize(
    "name,instances,policy",
    [c[:3] for c in PINNED_EXPLORATIONS + [PRICING_X4] if c[1] > 1],
    ids=[f"{c[0]}-x{c[1]}-{c[2]}" for c in PINNED_EXPLORATIONS + [PRICING_X4] if c[1] > 1],
)
def test_the_walk_canonicalizes_no_state_it_has_numbered(name, instances, policy):
    # a numbered state is a representative, its orbit's size recorded when
    # it was first met: a move that reaches it again does not canonicalize it
    _, states, repeated = canonicalized_walk(name, instances, policy)
    assert len(states) > 1 and repeated == []


def canonicalized_walk(name, instances, policy):
    """One exploration's `_Orbits`, the states its walk numbered, in the
    order numbered, and the states `_Orbits.canonical` was called with
    after the walk had numbered them.  The numbered states are read off
    the calls of `_StateSpace.moves` and `canonical`: the start state,
    then, per state expanded in turn, the representatives of its moves'
    next states, each numbered at its own move, so that a later move of
    the same expansion finds it numbered; none when the queue cap left the
    state unexpanded (one of them is deeper than the cap: a numbered state
    never is, so such a move is always canonicalized)."""
    expansions = []
    moves, canonical = netsim._StateSpace.moves, netsim._Orbits.canonical

    def recorded_moves(space, state):
        expansions.append((state, []))
        return moves(space, state)

    def recorded_canonical(orbits, state):
        least = canonical(orbits, state)
        expansions[-1][1].append((state, least))
        return least

    with mock.patch.object(netsim._StateSpace, "moves", recorded_moves), mock.patch.object(netsim._Orbits, "canonical", recorded_canonical):
        _, orbits = recorded_exploration(name, instances, policy)
    depths, numbered, repeated = orbits.space.depths, {orbits.space.start: None}, []
    for _, calls in expansions:
        expanded = all(depths[least[-1]] <= netsim.DEFAULT_QUEUE_CAP for _, least in calls)
        for state, least in calls:  # move by move
            if state in numbered:
                repeated.append(state)
            if expanded:
                numbered[least] = None
    states = list(numbered)
    assert [state for state, _ in expansions] == states[: len(expansions)]  # taken in the order numbered
    return orbits, states, repeated


FIXED = {"deadline": None, "database": None, "derandomize": True}  # same cases every run, no files written


@st.composite
def instance_rows(draw):
    """Two or three rows of distinct values (an ID of one row may be the
    item of another), then a few edits: a value replaced by a fresh one,
    by another row's value of the same parameter, or dropped."""
    n = draw(st.integers(2, 3))
    rows = [{"ID": str(j + 1), "item": str(n - j), "price": f"${j}"} for j in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        j, param = draw(st.integers(0, n - 1)), draw(st.sampled_from(sorted(rows[0])))
        edit = draw(st.sampled_from(["fresh", "share", "drop"]))
        if edit == "fresh":
            rows[j][param] = f"new{j}"
        elif edit == "share" and param in rows[(j + 1) % n]:
            rows[j][param] = rows[(j + 1) % n][param]
        else:
            rows[j].pop(param, None)
    return rows


@settings(max_examples=60, **FIXED)
@given(
    name=st.sampled_from(["want_willpay", "pricing"]),
    rows=instance_rows(),
    delivery=st.sampled_from(list(Delivery)),
    loss=st.booleans(),
)
def test_orbit_walk_equals_the_walk_over_every_state_on_generated_rows(name, rows, delivery, loss):
    protocol = parse_bspl_file(fixture_text(f"{name}.bspl"))[0]
    if len(rows) == 3 and (delivery is Delivery.UNORDERED or loss):
        delivery, loss = Delivery.FIFO_PAIRWISE, False  # keeps the walk over every state small
    policy = SimPolicy(delivery, loss)
    agents = agent_pair(protocol, rows)
    names = set(rows[0])
    if any(set(row) != names for row in rows) or any(len({row[k] for row in rows}) < len(rows) for k in names):
        # a parameter some rows lack, or a value two rows share: no symmetry
        assert _instance_group(agents).perms == ()
    else:
        assert len(_instance_group(agents).perms) == {2: 1, 3: 5}[len(rows)]
    reduced = explore(agents, policy)
    assert reduced.stats.enactments == len(reduced.enactments)  # the count read off the orbit sizes
    assert reduced == explore_every_state(agent_pair(protocol, rows), policy)


@pytest.mark.parametrize("delivery", list(Delivery))
@pytest.mark.parametrize("loss", [False, True])
def test_orbit_walk_equals_the_walk_over_every_state_with_a_role_no_agent_plays(delivery, loss):
    # C has no agent, so what is sent to C stays in transit: no move takes
    # it out, and neither walk makes the network it would leave
    protocol = parse_bspl_file(
        "protocol P {\n  roles A, B, C\n  parameters out ID key, out x, out y\n  A -> B: M[out ID key, out x]\n"
        "  B -> C: N[in ID key, in x, out y]\n  A -> C: K[in ID key, in x]\n}\n"
    )[0]
    scripts = [InstanceScript.make(protocol, [{"ID": "1", "x": "a", "y": "b"}, {"ID": "2", "x": "c", "y": "d"}])]
    assert len(_instance_group([BsplAgent("A", scripts), BsplAgent("B", scripts)]).perms) == 1
    policy = SimPolicy(delivery, loss)
    reduced = explore([BsplAgent("A", scripts), BsplAgent("B", scripts)], policy)
    assert reduced == explore_every_state([BsplAgent("A", scripts), BsplAgent("B", scripts)], policy)


def test_emissions_are_kept_by_the_set_of_observations(pricing):
    # the seller offers the same whichever request it received first, and
    # each next history still extends its own history
    rows = [{"ID": "1", "item": "fig", "price": "$5"}, {"ID": "2", "item": "jam", "price": "$6"}]
    buyer, seller = agent_pair(pricing, rows)
    requests = [mi for mi, _ in buyer.emissions(buyer.initial())]
    one, other = seller.initial(), seller.initial()
    for a, b in zip(requests, reversed(requests)):
        one, other = seller.receive(one, a), seller.receive(other, b)
    assert len(requests) == 2 and one != other
    first, second = seller.emissions(one), seller.emissions(other)
    assert [mi.schema.name for mi, _ in first] == ["Offer", "Offer"]
    assert [mi for mi, _ in first] == [mi for mi, _ in second]
    assert [h.observations[:-1] for _, h in first] == [one.observations] * 2
    assert [h.observations[:-1] for _, h in second] == [other.observations] * 2


def test_symmetry_needs_a_key_on_every_sent_schema(want_willpay):
    unkeyed = parse_bspl_file(
        "protocol P {\n  roles A, B\n  parameters out ID key, out x\n  A -> B: M[out x]\n  A -> B: N[out ID, in x]\n}\n"
    )[0]
    rows = [{"ID": "1", "x": "a"}, {"ID": "2", "x": "b"}]
    assert _instance_group(agent_pair(unkeyed, rows)).perms == ()
    keyed = [{"ID": "1", "item": "a", "price": "p"}, {"ID": "2", "item": "b", "price": "q"}]
    assert _instance_group(agent_pair(want_willpay, keyed)).perms == ((1, 0),)


def test_state_cap_counts_every_state_of_the_orbits_taken():
    # want_willpay x2 unordered reaches 511 states in 256 orbits
    agents = simulate_agents("want_willpay", 2)
    policy = SimPolicy(Delivery.UNORDERED)
    full = explore(agents, policy, state_cap=511)
    assert (full.cap, full.stats.states_explored) == (None, 511)
    capped = explore(agents, policy, state_cap=510)
    assert (capped.cap, capped.stats.states_explored) == ("state", 510)
    assert explore_every_state(agents, policy, state_cap=510).cap == "state"


def test_state_cap_ends_a_walk_with_many_permutations():
    agents = simulate_agents("want_willpay", 6)
    assert len(_instance_group(agents).perms) == 719
    result = explore(agents, SimPolicy(Delivery.UNORDERED), state_cap=10)
    assert (result.cap, result.stats.states_explored, result.enactments) == ("state", 10, ())


def test_scripts_without_rows_have_the_trivial_group(pricing):
    agents = agent_pair(pricing, [])
    assert _instance_group(agents).perms == ()
    result = explore(agents, SimPolicy(Delivery.UNORDERED))
    assert result.stats.enactments == len(result.enactments) == 1


# ---------------------------------------------------------------------------
# the enactment count is read off the walk, and the vectors are built on
# first read


def test_enactment_count_is_the_number_of_vectors_with_loss():
    agents = simulate_agents("want_willpay", 2)
    result = explore(agents, SimPolicy(Delivery.UNORDERED, loss_enabled=True))
    assert len(_instance_group(agents).perms) == 1
    assert result.stats.enactments == len(result.enactments) > 144  # more than without loss


def test_messages_left_in_transit_are_counted_from_the_vectors():
    # C has no agent, so both requests stay in transit, and the two send
    # orders end in two states with one history vector between them
    protocol = parse_bspl_file(
        "protocol P {\n  roles A, B, C\n  parameters out ID key, out x, out y\n"
        "  A -> C: M[out ID key, out x]\n  B -> C: N[out ID key, out y]\n}\n"
    )[0]
    scripts = [InstanceScript.make(protocol, [{"ID": "1", "x": "a", "y": "b"}])]
    result = explore([BsplAgent("A", scripts), BsplAgent("B", scripts)], SimPolicy(Delivery.UNORDERED))
    assert result.stats.enactments == len(result.enactments) == 1
    assert [len(h.observations) for h in result.enactments[0]] == [1, 1]


def test_enactment_vectors_are_built_on_first_read():
    built = []
    build = netsim._enactments

    def counted(*args):
        built.append(args)
        return build(*args)

    with mock.patch.object(netsim, "_enactments", counted):
        result = explore(simulate_agents("want_willpay", 2), SimPolicy(Delivery.UNORDERED))
        assert (result.stats.enactments, built) == (144, [])
        assert len(result.enactments) == len(result.enactments) == 144  # read twice, built once
    assert len(built) == 1
