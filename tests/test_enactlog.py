from operator import attrgetter
from pathlib import Path

import pytest

from protolab.bspl.core import InfoProtocol, parse_bspl_file
from protolab.bspl.enactment import (
    EMISSION,
    RECEPTION,
    History,
    MessageInstance,
    Observation,
    check_observation,
    instance_views,
)
from protolab.cli import _auto_rows, main
from protolab.enactlog import (
    LogEntry,
    format_log,
    histories_from_log,
    log_from_run,
    parse_log,
)
from protolab.netsim import BsplAgent, Delivery, InstanceScript, SimPolicy, run_one

FIXDIR = Path(__file__).resolve().parents[1] / "src" / "protolab" / "fixtures"


def log_from_histories(histories: dict[str, History]) -> list[LogEntry]:
    entries = []
    for agent in sorted(histories):
        for obs in histories[agent].observations:
            entries.append(LogEntry(obs.logical_day, agent, obs.kind, obs.instance.schema.name, obs.instance.bindings))
    return entries


# ---------------------------------------------------------------------------
# The replay before bodies were shared, verbatim (renamed), as the oracle:
# one bindings tuple and one set of name strings per line.


def oracle_parse_log(text: str, protocols: list[InfoProtocol]) -> list[LogEntry]:
    schemas = {}
    for p in protocols:
        for m in p.messages:
            if m.name in schemas and schemas[m.name] is not m:
                raise ValueError(f"message name {m.name} is ambiguous across the loaded protocols")
            schemas[m.name] = m
    entries = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        parts = line.split(None, 4)
        if len(parts) < 4 or not parts[0].isdecimal():
            raise ValueError(f"malformed log line: {line!r}")
        tick, agent, kind, message = int(parts[0]), parts[1], parts[2], parts[3]
        rest = parts[4] if len(parts) > 4 else ""
        if kind == "X":
            entries.append(LogEntry(tick, agent, kind, message, (), rest))
            continue
        if kind not in (EMISSION, RECEPTION):
            raise ValueError(f"unknown event kind {kind!r} in line {line!r}")
        if message not in schemas:
            raise ValueError(f"unknown message {message!r}")
        items = [item.partition("=") for item in rest.split(",") if item]
        if not all(equals for _, equals, _ in items):
            raise ValueError(f"binding without '=' in log line: {line!r}")
        entries.append(LogEntry(tick, agent, kind, message, tuple((key, value) for key, _, value in items)))
    return entries


def oracle_histories_from_log(entries: list[LogEntry], protocols: list[InfoProtocol]) -> dict[str, History]:
    """Rebuild per-agent histories.  The numeric column is the logical
    timestamp (several observations may share a day); an agent's
    observation order is its line order within equal timestamps."""
    schemas = {m.name: m for p in protocols for m in p.messages}
    # one instance per distinct line body: an emission and its receptions share it
    instances: dict[tuple[str, tuple[tuple[str, str], ...]], MessageInstance] = {}
    observed: dict[str, list[Observation]] = {}
    for e in sorted(entries, key=attrgetter("agent", "tick")):  # stable: line order within a tick
        if e.kind == "X":
            continue
        observations = observed.setdefault(e.agent, [])
        mi = instances.get((e.message, e.bindings))
        if mi is None:
            mi = instances[e.message, e.bindings] = MessageInstance.make(schemas[e.message], dict(e.bindings))
        o = Observation(e.kind, mi, len(observations) + 1, day=e.tick)
        check_observation(e.agent, len(observations), o)
        observations.append(o)
    # one tuple per history: appending line by line would copy it per line
    return {agent: History(agent, tuple(observations)) for agent, observations in observed.items()}


def test_log_roundtrip(pricing):
    entries = [
        LogEntry(1, "Buyer", "E", "Request", (("ID", "1"), ("item", "fig"))),
        LogEntry(1, "Seller", "R", "Request", (("ID", "1"), ("item", "fig"))),
        LogEntry(2, "Seller", "E", "Offer", (("ID", "1"), ("price", "$5"))),
        LogEntry(2, "Buyer", "R", "Offer", (("ID", "1"), ("price", "$5"))),
    ]
    text = format_log(entries)
    assert parse_log(text, [pricing]) == entries


def test_rejection_lines_roundtrip(pricing):
    entries = [LogEntry(3, "Seller", "X", "Offer", (), "AlreadyBound(price)")]
    text = format_log(entries)
    parsed = parse_log(text, [pricing])
    assert parsed[0].kind == "X" and parsed[0].reason == "AlreadyBound(price)"


def test_unknown_message_rejected(pricing):
    with pytest.raises(ValueError):
        parse_log("1 Buyer E Bogus ID=1", [pricing])


@pytest.mark.parametrize(
    "line, message",
    [
        ("1 Buyer E Request ID,item=fig", "binding without '=' in log line: '1 Buyer E Request ID,item=fig'"),
        ("x Seller R Request ID=1,item=fig", "malformed log line: 'x Seller R Request ID=1,item=fig'"),
        (
            "1 Buyer E Request ID=1,item=fig,item=jam",
            "parameter item bound twice in log line: '1 Buyer E Request ID=1,item=fig,item=jam'",
        ),
    ],
)
def test_malformed_line_is_quoted_in_a_one_line_error(purchase, tmp_path, capsys, line, message):
    with pytest.raises(ValueError) as err:
        parse_log(line, [purchase])
    assert str(err.value) == message
    log = tmp_path / "bad.log"
    log.write_text(line + "\n")
    argv = ["commitments", "--protocol", str(FIXDIR / "purchase.bspl"), "--cupid", str(FIXDIR / "deliver_payment.cupid")]
    assert main([*argv, "--log", str(log), "--now", "5"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_replay_rejects_an_agent_that_does_not_own_the_message(pricing):
    with pytest.raises(ValueError, match=r"^Seller cannot emit Request \(sender is Buyer\)$"):
        histories_from_log(parse_log("1 Seller E Request ID=1,item=fig", [pricing]), [pricing])
    with pytest.raises(ValueError, match=r"^Buyer cannot receive Request \(receiver is Seller\)$"):
        histories_from_log(parse_log("1 Buyer E Request ID=1,item=fig\n2 Buyer R Request ID=1,item=fig", [pricing]), [pricing])


def test_replay_reproduces_views(want_willpay):
    scripts = [InstanceScript.make(want_willpay, [{"ID": "1", "item": "fig", "price": "$5"}])]
    agents = [BsplAgent(r, scripts) for r in want_willpay.roles]
    for seed in range(20):
        vector, log = run_one(agents, SimPolicy(Delivery.UNORDERED), seed=seed)
        histories = {h.owner: h for h in vector}
        entries = log_from_histories(histories)
        replayed = histories_from_log(parse_log(format_log(entries), [want_willpay]), [want_willpay])
        original_views = instance_views(list(histories.values()), want_willpay)
        replayed_views = instance_views(list(replayed.values()), want_willpay)
        assert original_views == replayed_views
        for owner, h in histories.items():
            assert [o.instance for o in replayed[owner].observations] == [o.instance for o in h.observations]


def test_log_from_run_ticks_are_per_agent(want_willpay):
    scripts = [InstanceScript.make(want_willpay, [{"ID": "1", "item": "fig", "price": "$5"}])]
    agents = [BsplAgent(r, scripts) for r in want_willpay.roles]
    _, log = run_one(agents, SimPolicy(Delivery.UNORDERED), seed=1)
    entries = log_from_run(log)
    per_agent: dict[str, list[int]] = {}
    for e in entries:
        per_agent.setdefault(e.agent, []).append(e.tick)
    for ticks in per_agent.values():
        assert ticks == sorted(ticks) and len(set(ticks)) == len(ticks)


# ---------------------------------------------------------------------------
# Shared bodies: the same entries and histories as the oracle, with one
# bindings tuple per distinct body


def simulated_logs():
    """(protocols, log text) of one seeded run of every .bspl fixture at 1-5
    instances under each delivery policy."""
    for path in sorted(FIXDIR.glob("*.bspl")):
        protocols = parse_bspl_file(path.read_text())
        for instances in range(1, 6):
            scripts = [InstanceScript.make(p, _auto_rows(p, instances)) for p in protocols]
            agents = [BsplAgent(role, scripts) for role in sorted({r for p in protocols for r in p.roles})]
            for delivery in Delivery:
                _, log = run_one(agents, SimPolicy(delivery), seed=instances)
                yield protocols, format_log(log_from_run(log))


def decorated(text: str) -> str:
    """The same events with a rejection line after every fifth line, comment
    and blank lines, extra spaces, and the other line breaks
    `str.splitlines` knows."""
    out = ["// replayed log", ""]
    for i, line in enumerate(text.splitlines()):
        tick, agent, kind, message, *body = line.split(" ", 4)
        if i % 4 == 1:
            line = f"  {tick}   {agent}\t{kind}  {message}   {' '.join(body)}  "
        out.append(line + ("\r\n", "\n", "\u2028", "\x1c")[i % 4])
        if i % 5 == 4:
            out.append(f"{tick} {agent} X {message} AlreadyBound(x) after  two spaces\n")
    return "\n".join(out[:2]) + "\n" + "".join(out[2:])


def test_replay_equals_the_oracle_on_simulated_logs():
    runs = 0
    for protocols, text in simulated_logs():
        for log in (text, decorated(text)):
            entries = parse_log(log, protocols)
            assert entries == oracle_parse_log(log, protocols)
            assert histories_from_log(entries, protocols) == oracle_histories_from_log(entries, protocols)
        runs += 1
    assert runs == 6 * 5 * len(Delivery)


def test_each_distinct_body_is_one_tuple_shared_by_its_lines():
    for protocols, text in simulated_logs():
        entries = parse_log(decorated(text), protocols)
        bodies = {}
        for e in entries:
            if e.kind != "X":
                assert bodies.setdefault(e.bindings, e.bindings) is e.bindings
        names = {}
        for e in entries:
            for name in (e.agent, e.message, *(key for key, _ in e.bindings)):
                assert names.setdefault(name, name) is name


def test_an_emission_and_its_receptions_share_one_instance(purchase):
    text = "1 Buyer E Request ID=1,item=fig\n1 Seller R Request ID=1,item=fig\n2 Seller E Offer ID=1,item=fig,price=$5\n" \
        "2 Buyer R Offer ID=1,item=fig,price=$5\n"
    histories = histories_from_log(parse_log(text, [purchase]), [purchase])
    (emit_request, receive_offer), (receive_request, emit_offer) = (histories[a].observations for a in ("Buyer", "Seller"))
    assert emit_request.instance is receive_request.instance
    assert emit_offer.instance is receive_offer.instance
    for protocols, text in simulated_logs():
        histories = histories_from_log(parse_log(text, protocols), protocols)
        shared = {}
        for h in histories.values():
            for o in h.observations:
                assert shared.setdefault(o.instance, o.instance) is o.instance


def test_log_entries_and_observations_carry_no_instance_dict(purchase):
    entries = parse_log("1 Buyer E Request ID=1,item=fig\n2 Buyer X Request AlreadyBound(ID)", [purchase])
    observation = histories_from_log(entries, [purchase])["Buyer"].observations[0]
    for value in (*entries, observation):
        assert not hasattr(value, "__dict__")


@pytest.mark.parametrize(
    "bad",
    [
        "x Seller R Request ID=1,item=fig",
        "3 Seller Q Request ID=1,item=fig",
        "3 Seller R Bogus ID=1",
        "3 Seller R Request ID,item=fig",
        "3 Seller",
    ],
)
def test_a_bad_line_after_good_ones_gives_the_oracle_error(purchase, bad):
    good = "1 Buyer E Request ID=1,item=fig\n1 Seller R Request ID=1,item=fig\n"
    later = "4 Seller R Request ID,item=fig\n"
    with pytest.raises(ValueError) as expected:
        oracle_parse_log(good + bad + "\n" + later, [purchase])
    with pytest.raises(ValueError) as err:
        parse_log(good + bad + "\n" + later, [purchase])
    assert str(err.value) == str(expected.value)


# ---------------------------------------------------------------------------
# Each binding held once: an in-order body is the instance's bindings, and
# every other body's own pairs are put in schema order


def reversed_bodies(text: str) -> str:
    """The same events with each body's pairs listed in reverse."""
    out = []
    for line in text.splitlines():
        tick, agent, kind, message, body = line.split(" ", 4)
        out.append(f"{tick} {agent} {kind} {message} {','.join(reversed(body.split(',')))}\n")
    return "".join(out)


def test_replay_equals_the_oracle_with_bodies_out_of_schema_order():
    for protocols, text in simulated_logs():
        in_order = histories_from_log(parse_log(text, protocols), protocols)
        log = reversed_bodies(text)
        entries = parse_log(log, protocols)
        assert entries == oracle_parse_log(log, protocols)
        assert histories_from_log(entries, protocols) == oracle_histories_from_log(entries, protocols) == in_order


def test_an_in_order_body_is_the_instances_bindings():
    for protocols, text in simulated_logs():
        entries = parse_log(decorated(text), protocols)
        histories = histories_from_log(entries, protocols)
        instances = {(o.instance.schema.name, o.instance.bindings): o.instance for h in histories.values() for o in h.observations}
        for e in entries:
            if e.kind != "X":
                assert instances[e.message, e.bindings].bindings is e.bindings


def test_a_body_out_of_schema_order_gets_the_bindings_make_gives(purchase):
    entries = parse_log("1 Seller E Offer price=$5,ID=1,item=fig\n", [purchase])
    (observation,) = histories_from_log(entries, [purchase])["Seller"].observations
    made = MessageInstance.make(purchase.message("Offer"), {"price": "$5", "ID": "1", "item": "fig"})
    assert observation.instance == made
    assert observation.instance.bindings == made.bindings == (("ID", "1"), ("item", "fig"), ("price", "$5"))


def test_a_body_out_of_schema_order_shares_the_parsed_pairs(tmp_path, capsys):
    # every instance of a reversed-body log holds the parse's own pair
    # objects, and `protolab commitments` prints the same bytes as for the
    # log as written
    for protocols, text in simulated_logs():
        entries = parse_log(reversed_bodies(text), protocols)
        parsed = {id(pair) for e in entries for pair in e.bindings}
        histories = histories_from_log(entries, protocols)
        assert all(id(pair) in parsed for h in histories.values() for o in h.observations for pair in o.instance.bindings)
    protocols = parse_bspl_file((FIXDIR / "purchase.bspl").read_text())
    scripts = [InstanceScript.make(p, _auto_rows(p, 5)) for p in protocols]
    _, run = run_one([BsplAgent(role, scripts) for role in ("Buyer", "Seller")], SimPolicy(), seed=3)
    text = format_log(log_from_run(run))
    outputs = []
    for name, log in (("as-written", text), ("reversed", reversed_bodies(text))):
        path = tmp_path / f"{name}.log"
        path.write_text(log)
        argv = ["commitments", "--protocol", str(FIXDIR / "purchase.bspl"), "--cupid", str(FIXDIR / "deliver_payment.cupid")]
        for now in ("2", "4", "20"):
            assert main([*argv, "--log", str(path), "--now", now, "--format", "json"]) == 0
            outputs.append((now, capsys.readouterr().out))
    assert outputs[:3] == outputs[3:] and reversed_bodies(text) != text


def test_equal_pairs_across_the_bodies_of_one_log_are_one_object():
    for protocols, text in simulated_logs():
        pairs = {}
        for e in parse_log(decorated(text), protocols):
            for pair in e.bindings:
                assert pairs.setdefault(pair, pair) is pair


@pytest.mark.parametrize(
    "message, body, error",
    [
        ("Offer", "ID=1", "Offer: bindings must cover exactly the schema parameters (missing ['item', 'price'], extra [])"),
        ("Request", "item=fig,ID=1,note=x", "Request: bindings must cover exactly the schema parameters (missing [], extra ['note'])"),
    ],
    ids=["missing", "extra"],
)
def test_make_names_the_missing_and_the_extra_parameters(purchase, tmp_path, capsys, message, body, error):
    values = dict(item.split("=") for item in body.split(","))
    with pytest.raises(ValueError) as err:
        MessageInstance.make(purchase.message(message), values)
    assert str(err.value) == error
    log = tmp_path / "bad.log"
    log.write_text(f"1 {purchase.message(message).sender} E {message} {body}\n")
    argv = ["commitments", "--protocol", str(FIXDIR / "purchase.bspl"), "--cupid", str(FIXDIR / "deliver_payment.cupid")]
    assert main([*argv, "--log", str(log), "--now", "5"]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
